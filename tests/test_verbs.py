"""Byte-identity of the verbs: standard output and exit code of `ellimage`
for each command line of VERBS, against tests/data/verbs.txt.

Run this file as a script to record the file again:
    PYTHONPATH=src python tests/test_verbs.py
"""

import contextlib
import io
import os

from ellimage.cli import _bundled_records, _special_records, main

DATA = os.path.join(os.path.dirname(__file__), "data", "verbs.txt")
KINDS = ("split", "split-normalizer", "nonsplit", "nonsplit-normalizer", "borel")
# the brute-force lattice takes seconds on these; the lattice tests cover them
SLOW = {"lattice-check --label 8.12.0.1", "lattice-check --label 9.12.0.1",
        "lattice-check --cartan borel --mod 9"}


def _verbs():
    labels = [r.rszb_label for r in _bundled_records() + _special_records()]
    cartan = lambda moduli: [["--cartan", k, "--mod", str(m)] for m in moduli for k in KINDS]
    out = [["info", "--label", label] for label in labels]
    out += [["info"] + c for c in cartan((7, 9, 25, 49, 289))]
    out += [["info", "--cartan", "nonsplit-normalizer", "--mod", "1331"]]
    out += [["filter", "--family", f] + c for f in ("gamma1", "gamma0")
            for c in cartan((7, 9, 25, 49, 289))]
    out += [["batch", "--family", f, "--threads", "1"] + fmt for f in ("gamma1", "gamma0")
            for fmt in ([], ["--format", "lines"])]
    out += [["validate"]]
    out += [["lattice-check", "--label", label] for label in labels]
    out += [["lattice-check"] + c for c in cartan((5, 7, 9, 11, 13, 17, 19, 23, 25, 49))]
    semidirect = [["--cartan", "section4-semidirect", "--mod", str(m)] for m in (9, 25, 49)]
    out += [verb + c for verb in (["info"], ["filter", "--family", "gamma1"],
                                  ["filter", "--family", "gamma0"], ["lattice-check"])
            for c in semidirect]
    return [argv for argv in out if " ".join(argv) not in SLOW]


def _run(argv):
    "(exit code, standard output) of the verb, run in-process."
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _blocks():
    with open(DATA, encoding="ascii") as fh:
        for block in fh.read().split("$ ")[1:]:
            argv, *lines, code = block.split("\n")[:-1]
            yield argv.split(), int(code.removeprefix("exit ")), "".join(l + "\n" for l in lines)


def test_verbs_byte_identical():
    blocks = list(_blocks())
    assert [argv for argv, _, _ in blocks] == _verbs()
    for argv, code, out in blocks:
        assert _run(argv) == (code, out), " ".join(argv)


if __name__ == "__main__":
    with open(DATA, "w", encoding="ascii") as fh:
        fh.write("# Standard output and exit code of `ellimage` for each command line\n"
                 "# below; tests/test_verbs.py compares them.\n")
        for argv in _verbs():
            code, out = _run(argv)
            fh.write("$ %s\n%sexit %d\n" % (" ".join(argv), out, code))
