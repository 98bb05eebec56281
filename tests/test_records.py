"""The value records of the package: repr text, construction, read-only
fields, equality and hashing, order, and the checks at construction and
of map_degree's arguments."""

import ast
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ellimage.cli import RunConfig
from ellimage.gl2 import CartanSpec, DEFAULT_CAP, MatrixGroup
from ellimage.isolated import Annotation, CandidatePair, FilterReport
from ellimage.knownj import KnownJRecord
from ellimage.labelio import ImageRecord, ValidationReport
from ellimage.lattice import KernelModule, RigidityResult, SubgroupClass
from ellimage.modarith import PrimePowerModulus
from ellimage.modcurves import GenusProfile, map_degree
from ellimage.orbits import OrbitRecord

M2 = PrimePowerModulus(2, 1)
M7 = PrimePowerModulus(7, 1)
M49 = PrimePowerModulus(7, 2)
M7_REPR = "PrimePowerModulus(ell=7, exponent=1)"
GROUP = MatrixGroup(M7, [(3, 0, 0, 1)], label="7.x")
SWAP = (0, 1, 1, 0)

# (class, positional arguments, the same record spelled with every field as a
# keyword, defaults included, its repr, a record that differs in one compared field)
CASES = [
    (PrimePowerModulus, (7, 2), dict(ell=7, exponent=2),
     "PrimePowerModulus(ell=7, exponent=2)", PrimePowerModulus(7, 3)),
    (CartanSpec, ("borel", M7), dict(kind="borel", modulus=M7, epsilon=None),
     "CartanSpec(kind='borel', modulus=%s, epsilon=None)" % M7_REPR,
     CartanSpec("split", M7)),
    (GenusProfile, (1, 1, 1, 1, 0), dict(mu=1, nu2=1, nu3=1, nu_inf=1, genus=0),
     "GenusProfile(mu=1, nu2=1, nu3=1, nu_inf=1, genus=0)", GenusProfile(1, 1, 1, 1, 1)),
    (OrbitRecord, ("gamma0", M7, (0, 1), 1),
     dict(family="gamma0", level=M7, representative=(0, 1), size=1, parent=None),
     "OrbitRecord(family='gamma0', level=%s, representative=(0, 1), size=1)" % M7_REPR,
     OrbitRecord("gamma0", M7, (0, 1), 2)),
    (CandidatePair, (1, 3, 7),
     dict(level_exp=1, degree=3, ell=7, provenance=(), elimination=None),
     "CandidatePair(level_exp=1, degree=3, ell=7, provenance=(), elimination=None)",
     CandidatePair(1, 3, 7, elimination="riemann_roch")),
    (Annotation, (7, 3, "cited"), dict(level=7, degree=3, text="cited"),
     "Annotation(level=7, degree=3, text='cited')", Annotation(7, 4, "cited")),
    (FilterReport, ("7.x", "gamma1", 7, (), True),
     dict(label="7.x", family="gamma1", ell=7, pairs=(), det_surjective=True, annotations=()),
     "FilterReport(label='7.x', family='gamma1', ell=7, pairs=(), det_surjective=True, "
     "annotations=())", FilterReport("7.x", "gamma1", 7, (), False)),
    (ImageRecord, ("7.x", M7, (SWAP,)), dict(rszb_label="7.x", modulus=M7, generators=(SWAP,)),
     "ImageRecord(rszb_label='7.x', modulus=%s, generators=(%r,))" % (M7_REPR, SWAP),
     ImageRecord("7.x", M7, ())),
    (ValidationReport, ("7.x", True, True, False, (7, 8, 0)),
     dict(label="7.x", level_ok=True, index_ok=True, genus_ok=False, computed=(7, 8, 0)),
     "ValidationReport(label='7.x', level_ok=True, index_ok=True, genus_ok=False, "
     "computed=(7, 8, 0))", ValidationReport("7.x", True, True, True, (7, 8, 0))),
    (KnownJRecord, (Fraction(-121), False, "gamma0", 11, "cited"),
     dict(j_invariant=Fraction(-121), cm=False, family="gamma0", ell=11, citation="cited"),
     "KnownJRecord(j_invariant=Fraction(-121, 1), cm=False, family='gamma0', ell=11, "
     "citation='cited')", KnownJRecord(Fraction(-121), False, "gamma0", None, "cited")),
    (SubgroupClass, (GROUP, 8, True, 1),
     dict(representative=GROUP, index_in_parent=8, det_surjective=True, class_size=1),
     "SubgroupClass(representative=MatrixGroup(mod 7, 7.x), index_in_parent=8, "
     "det_surjective=True, class_size=1)", SubgroupClass(GROUP, 8, True, 7)),
    (RigidityResult, (True, None, 3), dict(rigid=True, counterexample=None, checked_subspaces=3),
     "RigidityResult(rigid=True, counterexample=None, checked_subspaces=3)",
     RigidityResult(True, None, 4)),
    (KernelModule, (7, ((0, 1, 1, 0),)), dict(ell=7, gens_bar=((0, 1, 1, 0),)),
     "KernelModule(ell=7, gens_bar=((0, 1, 1, 0),))", KernelModule(5, ((0, 1, 1, 0),))),
    (RunConfig, (), dict(cap=DEFAULT_CAP, threads=1, data_path=None, out_path=None, fmt="text"),
     "RunConfig(cap=10000000, threads=1, data_path=None, out_path=None, fmt='text')",
     RunConfig(threads=2)),
]

# (class or function, arguments, the ValueError text)
INVALID = [
    (PrimePowerModulus, (4, 1), "ell = 4 is not prime"),
    (PrimePowerModulus, (7, -1), "exponent must be >= 1"),
    (PrimePowerModulus, (7, 0), "exponent must be >= 1"),
    (PrimePowerModulus, (2, 40), "modulus 2**40 too large"),
    (CartanSpec, ("torus", M7), "unknown kind 'torus'"),
    (CartanSpec, ("section4-semidirect", M7), "section4-semidirect requires exponent 2"),
    (CartanSpec, ("section4-semidirect", PrimePowerModulus(2, 2)),
     "section4-semidirect needs an odd prime"),
    (CartanSpec, ("nonsplit", M2, 3), "epsilon is not used at ell = 2"),
    (CartanSpec, ("nonsplit", M7, 2), "epsilon 2 is a quadratic residue mod 7"),
    (map_degree, ("gamma2", 1, 7), "family must be gamma1 or gamma0"),
    (map_degree, ("gamma0", 0, 7), "a, b must be >= 1"),
    (map_degree, ("gamma0", 7, 0), "a, b must be >= 1"),
    (RunConfig, (9999,), "enumeration cap must be >= 10^4"),
    (RunConfig, (DEFAULT_CAP, 0), "thread count must be >= 1"),
]

ORDERED = [
    [PrimePowerModulus(3, 2), PrimePowerModulus(2, 5), PrimePowerModulus(3, 1)],
]
SORTED = [
    [PrimePowerModulus(2, 5), PrimePowerModulus(3, 1), PrimePowerModulus(3, 2)],
]


def test_every_record_class_is_covered():
    assert len({case[0] for case in CASES}) == len(CASES) == 14


@pytest.mark.parametrize("cls, args, keywords, text, other", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_record_semantics(cls, args, keywords, text, other):
    record = cls(*args)
    assert repr(record) == text
    same = cls(**keywords)
    assert same == record and not same != record and hash(same) == hash(record)
    assert other != record and not other == record
    for name in keywords:
        assert getattr(record, name) == keywords[name]
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.unknown_field = None


def test_record_order():
    for records, expected in zip(ORDERED, SORTED):
        assert sorted(records) == expected
        assert expected[0] < expected[1] <= expected[2] and expected[2] > expected[0]


def test_orbit_record_parent_is_not_compared():
    bare = OrbitRecord("gamma1", M49, (0, 1), 3)
    full = OrbitRecord("gamma1", M49, (0, 1), 3, OrbitRecord("gamma1", M7, (0, 1), 1))
    assert full.parent.size == 1 and bare.parent is None
    assert full == bare and not full != bare and hash(full) == hash(bare)
    assert repr(full) == repr(bare)
    assert len({full, bare}) == 1


def _invalid_messages():
    "The ValueError text of each INVALID construction, None where none is raised."
    out = []
    for make, args, _ in INVALID:
        try:
            make(*args)
        except ValueError as exc:
            out.append(str(exc))
        else:
            out.append(None)
    return out


def test_invalid_constructions_raise():
    assert _invalid_messages() == [text for _, _, text in INVALID]


def test_invalid_constructions_raise_under_optimize():
    code = ("import sys; sys.path.insert(0, %r); import test_records; "
            "print(test_records._invalid_messages())" % str(Path(__file__).parent))
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert ast.literal_eval(r.stdout) == [text for _, _, text in INVALID]
