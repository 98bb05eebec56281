"""Presentation independence: every verb prints a function of the group and
the flags, not of the order of its generators or of a redundant one.

Each group is written to a generator file four ways: with its generators as
given, reversed, rotated by one, and with the product of the first two (the
square of the first when it is the only one) appended.  The verbs run in-process
on each file and must print the same bytes and exit with the same code.
"""

import contextlib
import io
import os

import pytest

from ellimage.cli import _bundled_records, _special_records, main
from ellimage.gl2 import CartanSpec, MatrixGroup, build_cartan, is_conjugate
from ellimage.labelio import ImageRecord, serialize_records
from ellimage.lattice import verify_counterexample
from ellimage.modarith import PrimePowerModulus, mmul

KINDS = ("borel", "split", "split-normalizer", "nonsplit", "nonsplit-normalizer")
# the brute-force lattice takes about 2 s on each of these, so they run
# under one reordering only
SLOW = {"8.12.0.1", "9.12.0.1", "borel(9)"}


def _presentations(rec):
    "The record with its generators as given, reversed, rotated and with a product appended."
    gens = list(rec.generators)
    m = rec.modulus.modulus
    extra = mmul(gens[0], gens[1 % len(gens)], m)
    lists = [gens, gens[::-1], gens[1:] + gens[:1], gens + [extra]]
    return [rec._replace(generators=tuple(g)) for g in lists]


def _cartan_record(kind, m):
    "The --cartan group as a record, under a label of its level and index."
    group = build_cartan(CartanSpec(kind, PrimePowerModulus.from_int(m)))
    label = "%d.%d.0.1" % (m, group.index_in_ambient())
    return "%s(%d)" % (kind, m), ImageRecord(label, group.mod, group.gens)


def _groups():
    """(name, record) for every bundled and special record but the trivial
    group, which has one presentation, and the kinds at 7, 9, 25 and 49."""
    named = [(r.rszb_label, r) for r in _bundled_records() + _special_records() if r.generators]
    return named + [_cartan_record(kind, m) for m in (7, 9, 25, 49) for kind in KINDS]


def _run(argv, records, tmp_path):
    "(exit code, standard output) of the verb on a generator file of the records."
    path = tmp_path / "gens.txt"
    path.write_text(serialize_records(records))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv + ["--gens-file", str(path)])
    return code, buf.getvalue()


@pytest.mark.parametrize("name, rec", _groups(), ids=[name for name, _ in _groups()])
def test_lattice_check_is_a_function_of_the_group(name, rec, tmp_path):
    runs = _presentations(rec)[:2] if name in SLOW else _presentations(rec)
    outs = {_run(["lattice-check", "--label", r.rszb_label], [r], tmp_path) for r in runs}
    assert len(outs) == 1, outs
    (code, out), = outs
    assert code in (0, 3) and out.startswith("CERTIFICATE\t%s\n" % rec.rszb_label)


@pytest.mark.parametrize("verb", [["info"], ["filter", "--family", "gamma1"],
                                  ["filter", "--family", "gamma0"]])
def test_verbs_are_functions_of_the_group(verb, tmp_path):
    compared = 0
    for rec in _bundled_records() + _special_records():
        if len(rec.generators) < 2:
            continue
        outs = {_run(verb + ["--label", rec.rszb_label], [r], tmp_path)
                for r in _presentations(rec)}
        assert len(outs) == 1, (rec.rszb_label, outs)
        compared += 1
    assert compared == 38  # 37 bundled records and the special group


def test_validate_is_a_function_of_the_groups(tmp_path):
    records = [r for r in _bundled_records() + _special_records() if r.generators]
    outs = {_run(["validate"], [_presentations(r)[i] for r in records], tmp_path)
            for i in range(4)}
    assert len(outs) == 1, outs
    (code, out), = outs
    assert code == 0 and out.endswith("VALIDATED\t%d records\t0 mismatches\n" % len(records))


REGENERATED = os.path.join(os.path.dirname(__file__), "data", "regenerated.txt")
VERBS = os.path.join(os.path.dirname(__file__), "data", "verbs.txt")


def _blocks(path):
    "{command: its lines} of a file of '$ command' blocks; '#' lines are skipped."
    with open(path, encoding="ascii") as fh:
        text = "".join(l for l in fh if not l.startswith("#"))
    return {b.split("\n", 1)[0]: b.rstrip("\n").split("\n")[1:] for b in text.split("$ ")[1:]}


def _parent(argv):
    "The group a lattice-check command line certifies."
    if argv[1] == "--label":
        return {r.rszb_label: r for r in _bundled_records() + _special_records()}[argv[2]].group()
    return build_cartan(CartanSpec(argv[2], PrimePowerModulus.from_int(int(argv[4]))))


def _field(line, name):
    "The matrices of the name= field of a tab-separated line."
    text = next(f for f in line.split("\t") if f.startswith(name + "="))[len(name) + 1:]
    return [tuple(map(int, g.split(","))) for g in text.split(";")]


def test_regenerated_lines_are_conjugate_or_verified():
    """Each moved CLASS line names a conjugate of an old representative of
    the same index and class size, one old line each (the same subgroup
    when the class has one member), and each old and new rigidity witness
    passes verify_counterexample."""
    verbs = _blocks(VERBS)
    checked = 0
    for command, lines in _blocks(REGENERATED).items():
        argv = command.split()
        parent = _parent(argv)
        old = [l[2:] for l in lines if l.startswith("- ")]
        new = [l[2:] for l in lines if l.startswith("+ ")]
        assert all(l in verbs[command] for l in new) and not set(old) & set(verbs[command])
        for line in old + new:
            if line.startswith("CLAIM\tpreimage-rigidity"):
                mod = PrimePowerModulus(parent.ell, parent.mod.exponent + 1)
                assert verify_counterexample(parent, MatrixGroup(mod, _field(line, "witness")))
                checked += 1
        unmatched = [l for l in old if l.startswith("CLASS")]
        for line in (l for l in new if l.startswith("CLASS")):
            rep = MatrixGroup(parent.mod, _field(line, "gens"))
            key = line.split("\t")[1:3]
            match = next(l for l in unmatched if l.split("\t")[1:3] == key and (
                MatrixGroup(parent.mod, _field(l, "gens")) == rep if key[1] == "class_size=1"
                else is_conjugate(rep, MatrixGroup(parent.mod, _field(l, "gens")))[0]))
            unmatched.remove(match)
            checked += 1
        assert unmatched == []
    assert checked == 2 * 74 + 47
