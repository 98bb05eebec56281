"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time

from ellimage.gl2 import (CartanSpec, MatrixGroup, build_cartan, full_gl2,
                          is_conjugate, unit_group_generators)
from ellimage.isolated import analyze, candidate_pairs
from ellimage.lattice import (all_subgroups, preimage_rigidity,
                              proper_detsurjective_subgroups,
                              split_cartan_membership)
from ellimage.modarith import PrimePowerModulus
from ellimage.modcurves import genus_X0, genus_X1, genus_XG, map_degree_tower
from ellimage.orbits import gamma0_orbits, gamma1_orbits

from conftest import det_surjective, elements
from test_orbits import orbit_degree_tower


def _report(n, ok, detail, t0):
    line = "ACCEPTANCE %2d %s  %s  (%.1fs)" % (n, "PASS" if ok else "FAIL",
                                               detail, time.time() - t0)
    print(line)
    assert ok, line


def test_criterion_01_genus_tables():
    t0 = time.time()
    ok = ({n: genus_X1(n) for n in (9, 25, 49, 121, 169)} ==
          {9: 0, 25: 12, 49: 69, 121: 526, 169: 1070} and
          {n: genus_X0(n) for n in (9, 25, 49, 121, 169)} ==
          {9: 0, 25: 0, 49: 1, 121: 6, 169: 8})
    _report(1, ok, "genus tables for X1(l^2), X0(l^2)", t0)


def test_criterion_02_genus_oracle_equivalence():
    t0 = time.time()
    ok = True
    for N in (7, 9, 11, 13, 25, 49):
        base = PrimePowerModulus.from_int(N)
        borel = build_cartan(CartanSpec("borel", base))
        ok = ok and genus_XG(borel).genus == genus_X0(N)
        gens = [(1, 1, 0, 1), (N - 1, 0, 0, N - 1)]
        gens += [(1, 0, 0, u) for u in unit_group_generators(base)]
        ok = ok and genus_XG(MatrixGroup(base, gens)).genus == genus_X1(N)
    _report(2, ok, "coset-space genus equals closed-form genus, N in {7,...,49}", t0)


def test_criterion_03_cartan_degrees():
    t0 = time.time()
    ok = True
    for ell in (17, 19):
        mod1 = PrimePowerModulus(ell, 1)
        mod2 = PrimePowerModulus(ell, 2)
        pre = build_cartan(CartanSpec("nonsplit-normalizer", mod1)).full_preimage(mod2)
        for k in (1, 2):
            want1 = (ell * ell - 1) * ell ** (2 * k - 2) // 2
            want0 = (ell + 1) * ell ** (k - 1)
            ok = ok and {r.size for r in gamma1_orbits(pre, k)} == {want1}
            ok = ok and {r.size for r in gamma0_orbits(pre, k)} == {want0}
    _report(3, ok, "nonsplit-normalizer orbit degrees, ell in {17,19}, k in {1,2}", t0)


def test_criterion_04_semidirect_bound():
    t0 = time.time()
    ok = True
    for ell in (3, 5, 7):
        mod = PrimePowerModulus(ell, 2)
        g = build_cartan(CartanSpec("section4-semidirect", mod))
        ok = ok and g.order() == 2 * (ell * ell - 1) * ell ** 3
        sizes = [r.size for r in gamma1_orbits(g, 2)]
        bound = ell * (ell * ell - 1) // 2
        ok = ok and min(sizes) >= bound
        ok = ok and bound > genus_X1(ell * ell)
    _report(4, ok, "semidirect group order and minimal orbit bound, ell in {3,5,7}", t0)


GAMMA1_EXPECTED = {
    "17.72.1.2": {(17, 4)},
    "37.114.4.1": {(37, 6)},
    "37.114.4.2": {(37, 18)},
}
GAMMA0_EXPECTED_LEVELS = {
    "11.120.1.1": 11, "11.120.1.2": 11,
    "17.72.1.2": 17, "17.72.1.4": 17,
    "37.114.4.1": 37, "37.114.4.2": 37,
}


def test_criterion_05_gamma1_batch(records):
    t0 = time.time()
    ok = True
    for rec in records:
        final = {(p.level, p.degree)
                 for p in analyze(rec.group(), "gamma1", label=rec.rszb_label).final}
        want = GAMMA1_EXPECTED.get(rec.rszb_label)
        if want is None:
            ok = ok and not final
        elif rec.rszb_label == "17.72.1.2":
            ok = ok and final == want
        else:
            ok = ok and want <= final
    _report(5, ok, "gamma1 batch over %d bundled images" % len(records), t0)


def test_criterion_06_gamma0_batch(records):
    t0 = time.time()
    ok = True
    for rec in records:
        final = {(p.level, p.degree)
                 for p in analyze(rec.group(), "gamma0", label=rec.rszb_label).final}
        lvl = GAMMA0_EXPECTED_LEVELS.get(rec.rszb_label)
        if lvl is None:
            ok = ok and not final
        else:
            ok = ok and (lvl, 1) in final
    _report(6, ok, "gamma0 batch over %d bundled images" % len(records), t0)


def test_criterion_07_image49_end_to_end(image49, printed_index49):
    t0 = time.time()
    ok = not analyze(image49, "gamma1").final
    ok = ok and not analyze(image49, "gamma0").final
    classes = proper_detsurjective_subgroups(image49, 49)
    ok = ok and len(classes) == 1 and classes[0].index_in_parent == 49
    rep = classes[0].representative
    ok = ok and is_conjugate(rep, printed_index49)[0]
    member, index, _ = split_cartan_membership(rep)
    ok = ok and member and index == 7
    rig = preimage_rigidity(image49)
    ok = ok and rig.rigid
    _report(7, ok, "49.196.9.1: empty filters, unique index-49 class, "
                   "split-normalizer membership at 7, rigid mod 343", t0)


MODULI_POOL = [PrimePowerModulus(*pe) for pe in
               ((2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (5, 2),
                (7, 1), (7, 2), (11, 1), (13, 1))]


def _random_group(rng, mod):
    gens = []
    m = mod.modulus
    for _ in range(rng.randrange(1, 4)):
        while True:
            t = tuple(rng.randrange(m) for _ in range(4))
            if (t[0] * t[3] - t[1] * t[2]) % mod.ell:
                gens.append(t)
                break
    return MatrixGroup(mod, gens)


def test_criterion_08_orbit_partition_suite():
    t0 = time.time()
    rng = random.Random(20250808)
    ok = True
    for i in range(200):
        mod = MODULI_POOL[i % len(MODULI_POOL)]
        g = _random_group(rng, mod)
        ell, k = mod.ell, mod.exponent
        recs1 = gamma1_orbits(g, k)
        recs0 = gamma0_orbits(g, k)
        if ell ** k > 2:
            ok = ok and sum(r.size for r in recs1) == \
                ell ** (2 * k) * (ell * ell - 1) // (2 * ell * ell)
        ok = ok and sum(r.size for r in recs0) == ell ** (k - 1) * (ell + 1)
        if i % 10 == 0 and k >= 2:
            for fam, rec in (("gamma1", recs1[0]), ("gamma0", recs0[0])):
                tower = dict(orbit_degree_tower(g, rec))
                for a in tower:
                    for b in tower:
                        if a <= b:
                            ok = ok and tower[b] % tower[a] == 0
                            ok = ok and tower[b] <= tower[a] * \
                                map_degree_tower(fam, ell, a, b)
    _report(8, ok, "orbit partition and tower invariants, 200 random subgroups", t0)


def test_criterion_09_subgroup_search_oracle():
    t0 = time.time()
    g3 = full_gl2(PrimePowerModulus(3, 1))
    subs = all_subgroups(g3)
    ok = len(subs) == 55
    classes = proper_detsurjective_subgroups(g3, 8, fix_mod_ell_reduction=False)
    parent = frozenset(elements(g3))
    direct = [s for s in subs
              if s != parent and 48 % len(s) == 0 and 48 // len(s) <= 8
              and det_surjective(s, g3.mod)]
    ok = ok and sum(c.class_size for c in classes) == len(direct)
    reps = {frozenset(elements(c.representative)) for c in classes}
    ok = ok and reps <= subs
    _report(9, ok, "GL2(Z/3) lattice matches brute force (55 subgroups)", t0)


STABILITY_LABELS = [
    "2.3.0.1", "3.4.0.1", "3.6.0.1", "5.6.0.1", "5.24.0.1", "7.8.0.1",
    "7.28.0.1", "7.21.0.1", "7.56.1.1", "7.112.1.2", "9.12.0.1", "9.27.0.1",
    "11.55.1.1", "11.120.1.1", "13.14.0.1", "13.28.0.1", "17.72.1.2",
    "17.72.1.4", "37.114.4.1", "49.196.9.1",
]


def test_criterion_10_level_stability(record_map):
    t0 = time.time()
    assert len(STABILITY_LABELS) == 20
    ok = True
    for label in STABILITY_LABELS:
        g = record_map[label].group()
        target = PrimePowerModulus(g.mod.ell, g.mod.exponent + 1)
        pre = g.full_preimage(target)
        for fam in ("gamma1", "gamma0"):
            small = sorted((p.level, p.degree) for p in candidate_pairs(g, fam))
            big = sorted((p.level, p.degree) for p in candidate_pairs(pre, fam))
            ok = ok and small == big
    _report(10, ok, "candidate pairs stable under full preimage, 20 groups", t0)
