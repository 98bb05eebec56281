import os
import subprocess
import sys

import pytest

from ellimage import gl2, labelio, lattice, modarith
from ellimage.cli import _bundled_records, _special_records, main
from ellimage.errors import EnumerationCapError
from ellimage.gl2 import CartanSpec, build_cartan
from ellimage.isolated import analyze
from ellimage.labelio import (format_generators, read_generators_file, serialize_records,
                              validate_record)
from ellimage.modarith import PrimePowerModulus, minv, mmul

from conftest import count_chains

BASE = [sys.executable, "-m", "ellimage.cli"]


def run(*args, **kw):
    env = dict(os.environ)
    env.update(kw.pop("env", {}))
    return subprocess.run(BASE + list(args), capture_output=True, text=True, env=env)


def test_info_label():
    r = run("info", "--label", "49.196.9.1")
    assert r.returncode == 0
    assert "level: 49" in r.stdout
    assert "index: 196" in r.stdout
    assert "genus=9" in r.stdout


def test_info_cartan():
    r = run("info", "--cartan", "nonsplit-normalizer", "--mod", "49")
    assert r.returncode == 0
    assert "order: 4704" in r.stdout


def test_info_cartan_epsilon():
    r = run("info", "--cartan", "nonsplit", "--mod", "7", "--eps", "5")
    assert r.returncode == 0
    assert "order: 48" in r.stdout
    r = run("info", "--cartan", "nonsplit", "--mod", "7", "--eps", "2")
    assert r.returncode == 1  # 2 is a square mod 7
    # the split, split-normalizer and Borel constructions take no epsilon
    r = run("info", "--cartan", "borel", "--mod", "7", "--eps", "2")
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == "error: epsilon is not used by borel\n"


def test_info_nonsplit_cartan_mod_2():
    # the nonsplit Cartan mod 2 is the index-2 subgroup 2.2.0.1
    cartan = run("info", "--cartan", "nonsplit", "--mod", "2")
    label = run("info", "--label", "2.2.0.1")
    assert cartan.returncode == label.returncode == 0
    assert cartan.stdout.splitlines()[0] == "label: nonsplit(2)"
    assert cartan.stdout.splitlines()[1:] == label.stdout.splitlines()[1:]


BUDGET_CHECK = """
import resource, sys, time
start = time.perf_counter()
from ellimage.cli import main
code = main(sys.argv[1:])
print(code, time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
      file=sys.stderr)
"""


def _within_budget(*args, code=0, seconds=1.0):
    """(stdout, stderr) of the CLI verb and arguments `args`, checked to exit
    with `code` within `seconds` and 100 MB of the child."""
    r = subprocess.run([sys.executable, "-c", BUDGET_CHECK] + list(args),
                       capture_output=True, text=True)
    *stderr, last = r.stderr.splitlines()
    exit_code, elapsed, max_rss_kb = last.split()
    assert int(exit_code) == code, r.stderr
    assert float(elapsed) < seconds
    assert int(max_rss_kb) < 100 * 1024
    return r.stdout, stderr


def test_info_borel_121_within_budget():
    # level ell^2 at ell = 11: |SL2(Z/121)| = 1,932,480, mu = 132
    stdout, _ = _within_budget("info", "--cartan", "borel", "--mod", "121")
    assert "genus profile: mu=132 nu2=0 nu3=0 nu_inf=12 genus=6" in stdout


def test_info_borel_101_within_budget():
    # |G(101)| = 1,010,000; the chain holds 10,100 + 100 rows
    stdout, _ = _within_budget("info", "--cartan", "borel", "--mod", "101")
    assert "order: 1010000" in stdout
    assert "genus profile: mu=102 nu2=2 nu3=0 nu_inf=2 genus=8" in stdout


def test_info_nonsplit_normalizer_1331_within_budget():
    # mu = 805,255 cosets mod 1331, of which only the fixed ones and one per
    # u-cycle are carried up the layers; the profile was checked once against
    # the BFS over all of them
    stdout, _ = _within_budget("info", "--cartan", "nonsplit-normalizer", "--mod", "1331")
    assert "genus profile: mu=805255 nu2=727 nu3=1 nu_inf=605 genus=66621" in stdout


@pytest.mark.parametrize("args, claim", [
    # 223 proper stable subspaces, the first one that splits gives the witness
    (["--cartan", "split", "--mod", "53"], "CLAIM\tpreimage-rigidity\tmodulus=2809\trigid=false"),
    (["--cartan", "nonsplit-normalizer", "--mod", "169"],
     "CLASS\tindex=13\tclass_size=13\tdet_surjective=true"),
    (["--label", "37.114.4.1"], "CLAIM\tpreimage-rigidity\tmodulus=1369\trigid=false"),
])
def test_lattice_check_beyond_49_within_budget(args, claim):
    stdout, _ = _within_budget("lattice-check", *args, seconds=2.0)
    assert claim in stdout and stdout.endswith("RESULT\tcertified\n")


def test_lattice_check_borel_101_within_budget():
    # the rigidity witness averages over the 10,000 cosets of the Sylow image
    # in G(101), not over its 1,010,000 elements
    stdout, _ = _within_budget("lattice-check", "--cartan", "borel", "--mod", "101")
    assert "CLAIM\tpreimage-rigidity\tmodulus=10201\trigid=false" in stdout
    assert stdout.endswith("RESULT\tcertified\n")


def test_lattice_check_borel_1009_walks_the_cosets():
    # G(1009) has 1,025,208,576 elements, over the default cap, and its Sylow
    # image 1,016,064 cosets, under it: the certificate comes out (in about
    # two minutes and 400 MB), and under --max-enum 10000 the walk over the
    # cosets stops on that cap
    _, stderr = _within_budget("lattice-check", "--cartan", "borel", "--mod", "1009",
                               "--max-enum", "10000", code=1, seconds=2.0)
    assert stderr == ["error: Sylow cosets in G(1009) exceeded cap 10000"]


def test_filter_cap_error_in_orbit_classes(capsys):
    # the nonsplit-Cartan normalizer mod 1009 has one gamma1 orbit of
    # 509,040 +-classes, over --max-enum 10000
    assert main(["filter", "--family", "gamma1", "--cartan", "nonsplit-normalizer",
                 "--mod", "1009", "--max-enum", "10000"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: gamma1 orbit mod 1009 exceeded cap 10000\n"


def test_info_cap_error_in_the_determinant_image(capsys):
    # Borel(101^2) has all 10,100 units as determinants, over --max-enum
    # 10000; det G is held as a group whose chain tables, like Borel's own,
    # hold at most 101 rows, so no table passes the cap
    assert main(["info", "--cartan", "borel", "--mod", "10201", "--max-enum", "10000"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "det image: surjective (10100 of 10100 units)\n" in out
    assert out.endswith("genus=808\n")


@pytest.mark.parametrize("argv", [["info", "--label", "49.196.9.1"],
                                  ["filter", "--family", "gamma1", "--label", "49.196.9.1"],
                                  ["lattice-check", "--label", "5.6.0.1"],
                                  ["batch", "--family", "gamma0", "--threads", "1"]])
def test_one_determinant_bfs_per_group(argv, monkeypatch, capsys):
    # the determinant image is cached on the group: a verb builds the chain
    # of D = <diag(det g, 1)> once for each group it asks, and lists no unit
    _, dets = count_chains(monkeypatch)
    asked, det_image = [], gl2.MatrixGroup.det_image
    monkeypatch.setattr(gl2.MatrixGroup, "det_image",
                        lambda self: asked.append(self) or det_image(self))
    assert main(argv) in (0, 10)
    capsys.readouterr()
    groups = {id(group) for group in asked}
    assert len(dets) == len(groups) >= 1
    if argv[0] == "info":
        assert len(groups) == 1


def test_info_nonsplit_normalizer_101():
    r = run("info", "--cartan", "nonsplit-normalizer", "--mod", "101")
    assert r.returncode == 0
    assert "genus profile: mu=5050 nu2=50 nu3=1 nu_inf=50 genus=384" in r.stdout


@pytest.mark.parametrize("verb", [["info"], ["filter", "--family", "gamma1"], ["lattice-check"]])
@pytest.mark.parametrize("extra", [["--cartan", "borel", "--mod", "7"], ["--mod", "7"],
                                   ["--eps", "3"]])
def test_label_with_cartan_flags_is_a_usage_error(verb, extra, capsys):
    # --label used to win silently over --cartan, --mod and --eps
    with pytest.raises(SystemExit) as exc:
        main(verb + ["--label", "49.196.9.1"] + extra)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.endswith(": error: argument --label: not allowed with argument %s\n" % extra[0])


@pytest.mark.parametrize("verb", [["info"], ["filter", "--family", "gamma1"], ["lattice-check"]])
@pytest.mark.parametrize("flags, message", [
    ([], "give --label or --cartan/--mod"),
    (["--mod", "7"], "give --label or --cartan/--mod"),
    (["--cartan", "borel"], "--cartan needs --mod")])
def test_missing_group_flags_are_usage_errors(verb, flags, message, capsys):
    # both used to exit 1 with a bare "error: ..." line
    with pytest.raises(SystemExit) as exc:
        main(verb + flags)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("usage: ellimage %s " % verb[0])
    assert err.endswith(": error: %s\n" % message)


@pytest.mark.parametrize("mod", ["0", "1", "-7"])
def test_cartan_modulus_out_of_range(mod, capsys):
    # --mod 0 used to read as a missing --mod
    assert main(["info", "--cartan", "borel", "--mod", mod]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: modulus must be a prime power in [2, 3037000499], got %s\n" % mod


def test_label_with_cartan_exits_2():
    r = run("info", "--label", "49.196.9.1", "--cartan", "borel", "--mod", "7")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("usage: ellimage info ")


def test_info_unknown_label():
    r = run("info", "--label", "9.9.9.9")
    assert r.returncode == 1
    assert "error" in r.stderr


def test_info_bad_modulus():
    r = run("info", "--cartan", "borel", "--mod", "12")
    assert r.returncode == 1
    r = run("info", "--cartan", "borel", "--mod", "1")
    assert r.returncode == 1


def test_filter_exit_codes():
    r = run("filter", "--family", "gamma1", "--label", "17.72.1.2")
    assert r.returncode == 10
    assert "RESULT\t17.72.1.2\tgamma1\t17:4" in r.stdout
    r = run("filter", "--family", "gamma1", "--label", "49.196.9.1")
    assert r.returncode == 0
    assert "RESULT\t49.196.9.1\tgamma1\tempty" in r.stdout
    r = run("filter", "--family", "gamma0", "--label", "49.196.9.1")
    assert r.returncode == 0


def test_filter_output_parses_back():
    from ellimage.labelio import parse_report_lines
    r = run("filter", "--family", "gamma0", "--label", "37.114.4.1", "--format", "lines")
    assert r.returncode == 10
    parsed = parse_report_lines(r.stdout)
    assert parsed[("37.114.4.1", "gamma0")]["final"] == [(37, 1)]


def test_batch_deterministic_across_threads(tmp_path):
    outs = []
    for threads in ("1", "3"):
        r = run("batch", "--family", "gamma0", "--threads", threads)
        assert r.returncode == 0
        outs.append(r.stdout)
    assert outs[0] == outs[1]
    assert "SUMMARY\tgamma0\t42 records\t6 nonempty" in outs[0]


DEFAULT_BATCH = """
import sys
from ellimage.cli import main
code = main(["batch", "--family", "gamma0"])
print("multiprocessing" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def test_batch_runs_in_one_process_by_default():
    # no --threads and no ELLIMAGE_THREADS: no process pool, the same bytes
    env = {k: v for k, v in os.environ.items() if k != "ELLIMAGE_THREADS"}
    r = subprocess.run([sys.executable, "-c", DEFAULT_BATCH], capture_output=True, text=True,
                       env=env)
    assert r.returncode == 0 and r.stderr == "False\n", r.stderr
    pooled = run("batch", "--family", "gamma0", "--threads", "3")
    assert pooled.returncode == 0 and r.stdout == pooled.stdout


def test_import_leaves_multiprocessing_unloaded():
    # the process pool is imported by batch only when it runs with threads > 1
    r = subprocess.run([sys.executable, "-c", "import sys, ellimage.cli; "
                        "print('multiprocessing' in sys.modules)"],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "False\n"


def test_batch_empty_file(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("# nothing here\n")
    r = run("batch", "--family", "gamma1", "--gens-file", str(p))
    assert r.returncode == 0
    assert "0 records\t0 nonempty" in r.stdout


# The Borel subgroup of lower triangular matrices mod 101 fixes the line
# through (1, 0), and the stabilizer of (1, 0) in it takes (0, 1) to each of
# the 10,100 rows (c, d) with d != 0, so the third chain table is above
# --max-enum 10000 while every table of the bundled records stays below it.
CAPPED = "101.102.8.1"


def _capped_gens_file(tmp_path, records):
    "A generator file of records plus the lower Borel mod 101 as CAPPED."
    borel = build_cartan(CartanSpec("borel", PrimePowerModulus(101, 1)))
    group = borel.conjugated_by((0, 1, 1, 0))
    path = tmp_path / "capped.txt"
    path.write_text("".join(rec.to_line() + "\n" for rec in records)
                    + "%s|101|%s\n" % (CAPPED, format_generators(group.gens)))
    return path, read_generators_file(str(path))


def test_batch_reports_failed_records(tmp_path):
    path, records = _capped_gens_file(tmp_path, _bundled_records())
    expected = set()
    for rec in records:
        try:
            analyze(rec.group(10000), "gamma1")
        except EnumerationCapError:
            expected.add(rec.rszb_label)
    assert expected == {CAPPED}
    r = run("batch", "--family", "gamma1", "--gens-file", str(path), "--max-enum", "10000",
            "--threads", "1")
    assert r.returncode == 5
    lines = r.stdout.splitlines()
    errors = [l for l in lines if l.startswith("# error ")]
    head = lines.index("SUMMARY\tgamma1\t%d records\t3 nonempty\t%d failed"
                       % (len(records), len(errors)))
    assert lines[head + 1:head + 4] == ["17.72.1.2\t17:4", "37.114.4.1\t37:6",
                                        "37.114.4.2\t37:18"]
    failed = {l[len("# error "):].split(":", 1)[0] for l in errors}
    assert failed == expected


def test_validate_reports_failed_records(tmp_path):
    path, records = _capped_gens_file(tmp_path, _bundled_records() + _special_records())
    expected = set()
    for rec in records:
        try:
            validate_record(rec, 10000)
        except EnumerationCapError:
            expected.add(rec.rszb_label)
    assert expected == {CAPPED}
    r = run("validate", "--gens-file", str(path), "--max-enum", "10000", "--threads", "1")
    assert r.returncode == 5
    lines = r.stdout.splitlines()
    failed = [l[len("# error "):].split(":", 1)[0] for l in lines
              if l.startswith("# error ")]
    reported = [l.split("\t", 1)[0] for l in lines
                if not l.startswith(("# error ", "VALIDATED"))]
    assert sorted(failed + reported) == sorted(rec.rszb_label for rec in records)
    assert set(failed) == expected
    assert "VALIDATED\t%d records\t0 mismatches\t1 failed" % len(records) in lines


def test_out_flag(tmp_path):
    p = tmp_path / "report.txt"
    r = run("filter", "--family", "gamma1", "--label", "17.72.1.2", "--out", str(p))
    assert r.returncode == 10
    assert p.read_text().endswith("RESULT\t17.72.1.2\tgamma1\t17:4\n")


def test_env_override_cap():
    r = run("info", "--label", "2.6.0.1", env={"ELLIMAGE_MAX_ENUM": "5000"})
    assert r.returncode == 1  # config floor rejects sub-10^4 caps
    r = run("info", "--label", "2.6.0.1", env={"ELLIMAGE_MAX_ENUM": "20000"})
    assert r.returncode == 0


@pytest.mark.parametrize("name, value", [("ELLIMAGE_THREADS", "abc"),
                                         ("ELLIMAGE_MAX_ENUM", "1e7")])
def test_env_error_names_the_variable(name, value):
    r = run("info", "--cartan", "borel", "--mod", "7", env={name: value})
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == "error: %s must be an integer, got '%s'\n" % (name, value)


def test_lattice_check_parses_each_file_once(tmp_path, monkeypatch, capsys):
    # the --gens-file once and the special groups once: the label lookup and
    # the conjugate-to claims share one parse of the special groups
    path = tmp_path / "one.txt"
    path.write_text(serialize_records([r for r in _bundled_records()
                                       if r.rszb_label == "49.196.9.1"]))
    texts, read = [], labelio.read_generators_text
    monkeypatch.setattr(labelio, "read_generators_text",
                        lambda text: texts.append(text) or read(text))
    assert main(["lattice-check", "--label", "49.196.9.1", "--gens-file", str(path)]) == 0
    assert "CLAIM\tconjugate-to-49.9604.694.1\ttrue\n" in capsys.readouterr().out
    assert len(texts) == 2


def test_reading_the_records_factors_at_most_twice_per_record(monkeypatch):
    # the label level and the modulus, each factored once by from_int
    calls, factorize = [], modarith.factorize
    monkeypatch.setattr(modarith, "factorize", lambda n: calls.append(n) or factorize(n))
    records = _bundled_records() + _special_records()
    assert len(records) == 43 and len(calls) <= 2 * len(records)


def test_lattice_check_gl2():
    r = run("lattice-check", "--cartan", "borel", "--mod", "7")
    # Borel(7) is not rigid (its full mod-49 preimage is not the only lift),
    # but the certificate must complete either way
    assert r.returncode == 0
    assert "RESULT\tcertified" in r.stdout


def test_lattice_check_image49():
    r = run("lattice-check", "--label", "49.196.9.1")
    assert r.returncode == 0
    assert "CLAIM\tsubgroup-classes\tindex_bound=49\tcount=1" in r.stdout
    assert "CLASS\tindex=49" in r.stdout
    assert "CLAIM\tsplit-normalizer-membership\ttrue\tindex=7" in r.stdout
    assert "CLAIM\tpreimage-rigidity\tmodulus=343\trigid=true" in r.stdout


def test_lattice_check_orders_each_element_once(monkeypatch, capsys):
    calls = []
    morder = gl2.morder

    def counting_morder(a, mod):
        calls.append(a)
        return morder(a, mod)

    monkeypatch.setattr(gl2, "morder", counting_morder)
    assert main(["lattice-check", "--label", "49.196.9.1"]) == 0
    assert "RESULT\tcertified" in capsys.readouterr().out
    # the conjugacy searches read the filtrations and take no element order
    assert calls == []


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "lattice_check.txt")


def test_lattice_check_golden(capsys):
    # every line of the certificate, gens= and witness= included, for a set
    # covering the structured classes, the ell = 2 power constraint, the
    # Sylow split test, a failed certificate and the normalizers
    with open(GOLDEN, encoding="ascii") as fh:
        blocks = fh.read().split("$ ")[1:]
    assert len(blocks) == 9
    for block in blocks:
        argv, *lines, code = block.rstrip("\n").split("\n")
        assert main(argv.split()) == int(code.split()[1]), argv
        assert capsys.readouterr().out == "\n".join(lines) + "\n", argv


# The split-normalizer-membership witnesses these certificates printed while
# the conjugacy search keyed group elements: (modulus, witness).
OLD_WITNESSES = {"49.196.9.1": (49, "0,44,1,0"), "split-normalizer(49)": (49, "0,44,1,0"),
                 "4.12.0.1": (4, "0,3,1,0"), "9.54.1.1": (9, "0,5,1,0")}


def test_old_and_new_witnesses_conjugate_into_split_normalizer():
    # each certificate's old and golden witness conjugate its printed class
    # representative into the split-Cartan normalizer at its modulus
    with open(GOLDEN, encoding="ascii") as fh:
        blocks = fh.read().split("$ ")[1:]
    matrices = lambda text: [tuple(map(int, g.split(","))) for g in text.split(";")]
    seen = set()
    for block in blocks:
        fields = [line.split("\t") for line in block.split("\n")]
        label = fields[1][1]
        if label not in OLD_WITNESSES:
            continue
        m, old = OLD_WITNESSES[label]
        mod = PrimePowerModulus.from_int(m)
        rep = next(f[4] for f in fields if f[0] == "CLASS").removeprefix("gens=")
        new = next(f[4] for f in fields
                   if f[:2] == ["CLAIM", "split-normalizer-membership"])
        big = build_cartan(CartanSpec("split-normalizer", mod))
        for witness in (old, new.removeprefix("witness=")):
            c = matrices(witness)[0]
            ci = minv(c, m, mod.ell)
            assert all(mmul(mmul(c, g, m), ci, m) in big for g in matrices(rep)), \
                (label, witness)
        seen.add(label)
    assert seen == set(OLD_WITNESSES)


# The preimage-rigidity witnesses these certificates printed while a lift
# search over a small generating set built them: (modulus, witness).
OLD_RIGIDITY_WITNESSES = {
    "4.12.0.1": (8, "0,1,3,0;0,1,1,0;5,0,0,1;1,4,4,1;1,0,0,5"),
    "7.8.0.1": (49, "3,1,0,3;1,0,0,3;8,0,0,1;1,7,0,1;1,0,0,8"),
    "9.54.1.1": (27, "2,0,0,1;1,0,0,2;0,1,1,0;10,0,0,1;1,9,9,1;1,0,0,10"),
    "13.14.0.1": (169, "2,1,0,2;1,0,0,2;14,0,0,1;1,13,0,1;1,0,0,14"),
    "nonsplit-normalizer(25)": (125, "1,1,13,1;1,9,117,1;0,1,112,0;26,0,0,26;1,25,75,1"),
    "split-normalizer(49)": (343, "3,0,0,1;1,0,0,3;0,1,1,0;50,0,0,1;1,0,0,50"),
    "split-normalizer(25)": (125, "2,0,0,1;1,0,0,2;0,1,1,0;26,0,0,1;1,0,0,26"),
}


def test_old_and_new_rigidity_witnesses_verify():
    # each certificate's old and golden witness is a proper det-surjective
    # subgroup one level up that reduces exactly onto the parent
    with open(GOLDEN, encoding="ascii") as fh:
        blocks = fh.read().split("$ ")[1:]
    records = {r.rszb_label: r for r in _bundled_records() + _special_records()}
    matrices = lambda text: [tuple(map(int, g.split(","))) for g in text.split(";")]
    seen = set()
    for block in blocks:
        fields = [line.split("\t") for line in block.split("\n")]
        label = fields[1][1]
        if label not in OLD_RIGIDITY_WITNESSES:
            continue
        if label in records:
            group = records[label].group()
        else:
            kind, m = label[:-1].split("(")
            group = build_cartan(CartanSpec(kind, PrimePowerModulus.from_int(int(m))))
        m, old = OLD_RIGIDITY_WITNESSES[label]
        claim = next(f for f in fields if f[:2] == ["CLAIM", "preimage-rigidity"])
        assert claim[3:] == ["rigid=false", claim[4]] and claim[4].startswith("witness=")
        for witness in (old, claim[4].removeprefix("witness=")):
            candidate = gl2.MatrixGroup(PrimePowerModulus.from_int(m), matrices(witness))
            assert lattice.verify_counterexample(group, candidate), (label, witness)
        seen.add(label)
    assert seen == set(OLD_RIGIDITY_WITNESSES)


def test_lattice_check_enumerates_no_parent(monkeypatch, capsys):
    # the certificate of 49.196.9.1 (order 24,696) lists no group: it runs
    # neither the brute-force lattice nor its walk over the elements of a
    # parent, and, since the Sylow split test is a linear system, it builds
    # no closure at all
    closures, walks = [], []
    extend, orbit = gl2.extend, gl2.orbit

    def recording_extend(*args):
        els = extend(*args)
        closures.append(len(els))
        return els

    def recording_orbit(seed, gens, act, cap, name):
        walks.append(name)
        return orbit(seed, gens, act, cap, name)

    def refuse(group):
        raise AssertionError("the certificate ran the brute-force lattice")

    for module in (gl2, lattice):
        monkeypatch.setattr(module, "extend", recording_extend)
        monkeypatch.setattr(module, "orbit", recording_orbit)
    monkeypatch.setattr(lattice, "all_subgroups", refuse)
    assert main(["lattice-check", "--label", "49.196.9.1"]) == 0
    assert "RESULT\tcertified" in capsys.readouterr().out
    assert walks and not [name for name in walks if name.startswith("elements of G mod")]
    assert closures == []


def test_preimage_rigidity_enumerates_nothing(rigidity_inputs, monkeypatch):
    # the split test is a linear system and the witness a Gaschutz average
    # over the cosets of the Sylow image: no parent is listed, no closure
    # extended and no element ordered
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kw):
            calls.append(name)
            return fn(*args, **kw)
        return wrapped

    for owner, name in ((lattice, "all_subgroups"), (lattice, "extend"),
                        (gl2, "morder"), (modarith, "morder")):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    verdicts = {lattice.preimage_rigidity(group).rigid for _, group in rigidity_inputs}
    assert calls == [] and verdicts == {True, False}


def test_lattice_check_under_small_cap(capsys):
    # no table of the certificate of 49.196.9.1 holds more than 3,528
    # elements, so it is the same under --max-enum 10000
    assert main(["lattice-check", "--label", "49.196.9.1"]) == 0
    full = capsys.readouterr().out
    assert main(["lattice-check", "--label", "49.196.9.1", "--max-enum", "10000"]) == 0
    assert capsys.readouterr().out == full


def test_lattice_check_exponent_one():
    r = run("lattice-check", "--label", "13.28.0.1")
    assert r.returncode == 0
    assert "CLAIM\tsubgroup-classes\tindex_bound=49\tcount=0" in r.stdout
    assert "RESULT\tcertified" in r.stdout


OPTIMIZED_CHECK = """
import sys
from ellimage import gl2
from ellimage.cli import _bundled_records, _special_records, main
from ellimage.errors import EnumerationCapError
from ellimage.gl2 import CartanSpec, build_cartan
from ellimage.isolated import analyze
from ellimage.labelio import read_generators_file, validate_record
from ellimage.modarith import PrimePowerModulus
from ellimage.errors import CertificateError
from ellimage.modarith import PrimePowerModulus
assert False, "run this under python -O"
gl2._conjugating_matrix = lambda *args: (1, 0, 0, 1)  # never a witness here
borel = gl2.build_cartan(gl2.CartanSpec("borel", PrimePowerModulus(7, 1)))
try:
    gl2.is_conjugate(borel, borel.conjugated_by((0, 1, 1, 0)))
    sys.exit("a non-witness passed is_conjugate")
except CertificateError:
    pass
sys.exit(main(["lattice-check", "--label", "49.196.9.1"]))
"""


def test_certificate_checks_survive_optimize():
    # python -O strips asserts; the witness checks must still run
    r = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHECK],
                       capture_output=True, text=True)
    assert r.returncode == 3, r.stderr
    assert "RESULT\tFAILED\tconjugating matrix" in r.stdout


def test_validate_bundled():
    r = run("validate")
    assert r.returncode == 0
    assert "0 mismatches" in r.stdout


def test_validate_mismatch(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("7.8.1.1|7|3,0,0,1;1,0,0,3;1,1,0,1\n")  # genus is 0, not 1
    r = run("validate", "--gens-file", str(p))
    assert r.returncode == 4
    assert "MISMATCH" in r.stdout


OPTIMIZED_GENUS_CHECK = """
import sys
from ellimage import modcurves
assert False, "run this under python -O"
modcurves.factorize = lambda n: {}  # drops every prime factor
try:
    modcurves.genus_X0(11)
except ArithmeticError as exc:
    sys.exit("raised: %s" % exc)
"""


def test_integrality_checks_survive_optimize():
    # with the wrong prime factors the genus of X0(11) comes out as 1/3
    r = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_GENUS_CHECK],
                       capture_output=True, text=True)
    assert r.returncode == 1
    assert r.stderr.startswith("raised: genus of 11 came out as 1/3")


FULL_GROUP = ("7.1.0.1|7|1,1,0,1;1,0,1,1;3,0,0,1\n"
              "49.1.0.1|49|1,1,0,1;1,0,1,1;3,0,0,1\n")
FULL_INFO = ("label: {0}.1.0.1\nmodulus: {0}\nlevel: 1\norder: {1}\nindex: 1\n"
             "det image: surjective ({2} of {2} units)\ncontains -I: yes\n"
             "genus profile: mu=1 nu2=1 nu3=1 nu_inf=1 genus=0\n")


@pytest.mark.parametrize("argv, code, out", [
    (["info", "--label", "7.1.0.1"], 0, FULL_INFO.format(7, 2016, 6)),
    (["info", "--label", "49.1.0.1"], 0, FULL_INFO.format(49, 4840416, 42)),
    (["validate"], 4, "7.1.0.1\tMISMATCH\tlevel=1!\tindex=1\tgenus=0\n"
                      "49.1.0.1\tMISMATCH\tlevel=1!\tindex=1\tgenus=0\n"
                      "VALIDATED\t2 records\t2 mismatches\n"),
] + [
    (["filter", "--family", f, "--label", "%d.1.0.1" % m], 0,
     "{0}.1.0.1\t{1}\t1\t1\teliminated\triemann_roch\nRESULT\t{0}.1.0.1\t{1}\tempty\n"
     .format(m, f))
    for m in (7, 49) for f in ("gamma1", "gamma0")
] + [
    (["lattice-check", "--label", "7.1.0.1"], 0,
     "CERTIFICATE\t7.1.0.1\nVARIANT\tfixed-mod-ell-reduction\n"
     "CLAIM\tsubgroup-classes\tindex_bound=49\tcount=0\n"
     "CLAIM\tpreimage-rigidity\tmodulus=49\trigid=true\tchecked=3\nRESULT\tcertified\n"),
    (["lattice-check", "--label", "49.1.0.1"], 3,
     "CERTIFICATE\t49.1.0.1\nVARIANT\tfixed-mod-ell-reduction\n"
     "RESULT\tFAILED\tstructured search needs |G(ell)| prime to ell\n"),
])
def test_full_group_through_the_cli(tmp_path, capsys, argv, code, out):
    # GL2 itself, mod 7 and mod 49: level 1, the j-line's genus profile, and
    # the one level-1 pair, which Riemann-Roch eliminates
    path = tmp_path / "full.txt"
    path.write_text(FULL_GROUP)
    assert main(argv + ["--gens-file", str(path)]) == code
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("m", [7, 49])
def test_full_group_validates_under_its_level_one_label(tmp_path, capsys, m):
    # the correct label of GL2 has level 1, at any prime-power modulus
    path = tmp_path / "full.txt"
    path.write_text("1.1.0.1|%d|1,1,0,1;1,0,1,1;3,0,0,1\n" % m)
    assert main(["validate", "--gens-file", str(path)]) == 0
    assert capsys.readouterr().out == ("1.1.0.1\tok\tlevel=1\tindex=1\tgenus=0\n"
                                       "VALIDATED\t1 records\t0 mismatches\n")
