import pytest

from ellimage.cli import _bundled_records, _special_records
from ellimage.gl2 import (DEFAULT_CAP, CartanSpec, Filtration, MatrixGroup, build_cartan,
                          extend, orbit)
from ellimage.modarith import IDENTITY, PrimePowerModulus, mdet, mmul


@pytest.fixture(scope="session")
def records():
    return _bundled_records()


@pytest.fixture(scope="session")
def record_map(records):
    return {r.rszb_label: r for r in records}


@pytest.fixture(scope="session")
def special_records():
    return _special_records()


@pytest.fixture(scope="session")
def image49(record_map):
    return record_map["49.196.9.1"].group()


@pytest.fixture(scope="session")
def printed_index49(special_records):
    return special_records[0].group()


@pytest.fixture(scope="session")
def rigidity_inputs(records, special_records):
    """(name, group) for every bundled and special record and the five
    Cartan and Borel kinds at 7, 9, 25 and 49: the parents the rigidity
    tests run preimage_rigidity on."""
    named = [(r.rszb_label, r.group()) for r in records + special_records]
    for kind in ("borel", "split", "split-normalizer", "nonsplit", "nonsplit-normalizer"):
        for m in (7, 9, 25, 49):
            spec = CartanSpec(kind, PrimePowerModulus.from_int(m))
            named.append(("%s(%d)" % (kind, m), build_cartan(spec)))
    return named


def transversal(filt):
    """The products t_2 * t_1 * t_0 of the three tables of a Filtration, one
    element of G over each element of G(ell), generated one at a time: the
    walk over G(ell) the lattice searches made before they walked cosets."""
    m = filt.m
    lines, scalars, seconds = filt.orbits
    for t0, _ in lines.values():
        for t1, _ in scalars.values():
            t = mmul(t1, t0, m)
            for t2, _ in seconds.values():
                yield mmul(t2, t, m)


def mulclose(gens, m, cap=DEFAULT_CAP):
    """The closure of 4-tuple generators under multiplication mod m, a fold
    of gl2.extend over the generators: the element listing the tests check
    the filtration and the lattice against."""
    mul = lambda a, b: mmul(a, b, m)
    els = {IDENTITY}
    for g in gens:
        els = extend(els, g, mul, cap)
    return els


def elements(group):
    "The sorted tuple of all elements of a MatrixGroup, listed under its cap."
    return tuple(sorted(mulclose(group.gens, group.mod.modulus, group.cap)))


def det_surjective(elements, mod):
    "Whether the determinants of the elements, matrices mod `mod`, are all its units."
    return len({mdet(x, mod.modulus) for x in elements}) == mod.unit_count()


def det_units(group):
    """The set of determinants of a MatrixGroup, by a BFS over the units from
    1 under the generators' determinants, bounded by the group's cap: the
    walk MatrixGroup.det_image made before it held det G as a group."""
    m = group.mod.modulus
    return set(orbit(1, [mdet(g, m) for g in group.gens], lambda x, d: x * d % m, group.cap,
                     "units of det G"))


def count_chains(monkeypatch):
    """Counts the Filtrations built from here on, by modulus, in two lists:
    the chains of the determinant groups D, which MatrixGroup.det_image
    builds, and every other chain.  Returns (other chains, det chains)."""
    chains, dets, inside = [], [], []
    init, det_image = Filtration.__init__, MatrixGroup.det_image

    def counting_init(self, gens, mod, *args):
        (dets if inside else chains).append(mod)
        init(self, gens, mod, *args)

    def counting_det_image(self):
        inside.append(self)
        try:
            return det_image(self)
        finally:
            inside.pop()

    monkeypatch.setattr(Filtration, "__init__", counting_init)
    monkeypatch.setattr(MatrixGroup, "det_image", counting_det_image)
    return chains, dets
