import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

import ellimage.orbits as ORBITS
from ellimage import gl2
from ellimage.cli import _bundled_records, _special_records
from ellimage.errors import EnumerationCapError
from ellimage.gl2 import CARTAN_KINDS, CartanSpec, MatrixGroup, build_cartan, full_gl2, orbit
from ellimage.isolated import CandidatePair, candidate_pairs
from ellimage.modarith import PrimePowerModulus, mvec
from ellimage.modcurves import genus_XG, map_degree_tower
from ellimage.orbits import (CyclicSubmodule, KernelClasses, OrbitRecord, TorsionVector,
                             _canon, _carrier_points, _line_canon, _reduced_gens,
                             gamma0_orbits, gamma1_orbits, orbits)

M7 = PrimePowerModulus(7, 1)
M49 = PrimePowerModulus(7, 2)


def test_torsion_vector_validation():
    TorsionVector(1, 0, M49)
    TorsionVector(7, 1, M49)
    with pytest.raises(ValueError):
        TorsionVector(7, 0, M49)   # order 7, not 49
    with pytest.raises(ValueError, match="exponent must be >= 1"):
        PrimePowerModulus(7, 0)  # no torsion vector lives over Z/1


def test_cyclic_submodule_canonical_form():
    CyclicSubmodule(1, 3, M7)
    CyclicSubmodule(7, 1, M49)
    with pytest.raises(ValueError):
        CyclicSubmodule(2, 6, M7)  # 2*(1,3): not the canonical generator
    for x, y in ((0, 0), (7, 0), (0, 7)):  # order below 49
        with pytest.raises(ValueError):
            CyclicSubmodule(x, y, M49)


def _unit_scan_line_canon(level):
    "v -> least unit multiple of v for every exact-order v, by scanning all units."
    ell, m = level.ell, level.modulus
    units = [u for u in range(1, m) if u % ell]
    out = {}
    for x in range(m):
        for y in range(m):
            if (x % ell or y % ell) and (x, y) not in out:
                line = [(u * x % m, u * y % m) for u in units]
                least = min(line)
                for w in line:
                    out[w] = least
    return out


@pytest.mark.parametrize("ell,k", [(2, 1), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2),
                                   (7, 2), (11, 2), (17, 2)])
def test_line_canon_against_unit_scan(ell, k):
    level = PrimePowerModulus(ell, k)
    want = _unit_scan_line_canon(level)
    assert len(want) == ell ** (2 * k) - ell ** (2 * k - 2)
    assert all(_line_canon(v, level) == c for v, c in want.items())


def _exact_vectors(level):
    "All vectors of exact order ell^k, sorted."
    ell, m = level.ell, level.modulus
    return [(x, y) for x in range(m) for y in range(m)
            if x % ell or y % ell]


@pytest.mark.parametrize("ell,k", [(2, 1), (2, 4), (3, 3), (5, 2), (7, 2), (17, 2)])
def test_carrier_points_against_canonicalised_vectors(ell, k):
    level = PrimePowerModulus(ell, k)
    for family in ("gamma1", "gamma0"):
        canon = _canon(family, level)
        want = sorted({canon(v) for v in _exact_vectors(level)})
        assert _carrier_points(family, level) == want
        assert all(canon(v) == v for v in want)


def _expanded(group, level, family):
    "{class normal form: its carrier points, sorted}, by canonicalising every carrier point."
    canon = KernelClasses(group, level, family).canon
    out = {}
    for p in _carrier_points(family, level):
        out.setdefault(canon(p), []).append(p)
    return out


def test_orbit_records_carry_their_points():
    g = build_cartan(CartanSpec("borel", M49))
    for family in ("gamma1", "gamma0"):
        for k in (1, 2):
            level = PrimePowerModulus(7, k)
            expanded = _expanded(g, level, family)
            recs = orbits(g, k, family)
            points = [sorted(p for c in r.points for p in expanded[c]) for r in recs]
            assert sorted(p for ps in points for p in ps) == _carrier_points(family, level)
            for r, ps in zip(recs, points):
                assert r.representative == min(r.points) == ps[0] and r.size == len(ps)
                # the classes are left out of equality, hashing and repr
                bare = type(r)(r.family, r.level, r.representative, r.size)
                assert r == bare and hash(r) == hash(bare) and repr(r) == repr(bare)


def test_bfs_visits_classes_not_points(monkeypatch):
    # layer 1 of the nonsplit normalizer mod 17^2 moves every vbar onto all
    # of F_17^2: 144 classes of 289 +-classes, 18 classes of 17 lines
    g = build_cartan(CartanSpec("nonsplit-normalizer", PrimePowerModulus(17, 2)))
    visited = []

    def counting_orbit(*args, **kwargs):
        found = gl2.orbit(*args, **kwargs)
        visited.append(len(found))
        return found

    monkeypatch.setattr(ORBITS, "orbit", counting_orbit)
    for get, classes, points in ((gamma1_orbits, 144, 41616), (gamma0_orbits, 18, 306)):
        visited.clear()
        assert sum(r.size for r in get(g, 2)) == points and sum(visited) == classes


def test_gamma1_full_image():
    recs = gamma1_orbits(full_gl2(M7), 1)
    assert [r.size for r in recs] == [24]
    assert isinstance(recs[0].typed_representative(), TorsionVector)


def test_gamma0_typed_representative():
    recs = gamma0_orbits(full_gl2(M7), 1)
    assert isinstance(recs[0].typed_representative(), CyclicSubmodule)


def test_gamma0_full_image():
    recs = gamma0_orbits(full_gl2(M7), 1)
    assert [r.size for r in recs] == [8]


def test_gamma1_cartan_normalizer_17():
    g = build_cartan(CartanSpec("nonsplit-normalizer", PrimePowerModulus(17, 1)))
    assert {r.size for r in gamma1_orbits(g, 1)} == {144}
    assert {r.size for r in gamma0_orbits(g, 1)} == {18}


def test_gamma1_semidirect_minimum():
    g = build_cartan(CartanSpec("section4-semidirect", M49))
    sizes = [r.size for r in gamma1_orbits(g, 2)]
    assert min(sizes) >= 7 * 48 // 2


def test_borel_fixes_a_line():
    recs = gamma0_orbits(build_cartan(CartanSpec("borel", M7)), 1)
    assert 1 in {r.size for r in recs}


def test_k_above_modulus_rejected():
    with pytest.raises(ValueError):
        gamma1_orbits(full_gl2(M7), 2)


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="^family must be gamma1 or gamma0, got 'gamma2'$"):
        orbits(full_gl2(M7), 1, "gamma2")


# ---------------------------------------------------------------------------
# references: the full-carrier BFS, one BFS per orbit and level for the
# degree tower, and the filter's step 1 over carrier-point tables

def _point_orbits(group, k, family):
    "OrbitRecords by one gl2.orbit BFS over every carrier point; points holds the orbit."
    level = PrimePowerModulus(group.mod.ell, k)
    m = level.modulus
    canon = _canon(family, level)
    gens = _reduced_gens(group, level)
    seen = set()
    out = []
    for v0 in _carrier_points(family, level):
        if v0 not in seen:
            points = orbit(v0, gens, lambda w, g: canon(mvec(g, w, m)))
            seen |= points
            out.append(OrbitRecord(family, level, v0, len(points), frozenset(points)))
    return out


def _single_orbit_size(group, v, k, family):
    "Size of the orbit of the carrier point through v at level ell^k."
    level = PrimePowerModulus(group.mod.ell, k)
    m = level.modulus
    canon = _canon(family, level)
    seed = canon((v[0] % m, v[1] % m))
    return len(orbit(seed, _reduced_gens(group, level),
                     lambda w, g: canon(mvec(g, w, m))))


def orbit_degree_tower(group, rec):
    """Degrees of the reduced point at each level ell^a for a = k down to 0.

    A vector of exact order ell^k reduces to one of exact order ell^a for
    every a >= 1, so each entry is again an orbit size; the level-0 entry is
    1 (the point on the j-line is rational).
    """
    k = rec.level.exponent
    out = []
    for a in range(k, 0, -1):
        out.append((a, _single_orbit_size(group, rec.representative, a, rec.family)))
    out.append((0, 1))
    return out


def _candidate_pairs_by_points(group, family):
    "Step 1 of the filter over the full-carrier orbits, each level keyed by carrier point."
    ell = group.mod.ell
    found = {}
    tables = []
    top = next(k for k in range(1, group.mod.exponent + 1) if ell ** k >= group.level())
    for k in range(1, top + 1):
        level = PrimePowerModulus(ell, k)
        recs = _point_orbits(group, k, family)
        tables.append((level, {p: rec.size for rec in recs for p in rec.points}))
        for rec in recs:
            x, y = rec.representative
            tower = [1] + [sizes[_canon(family, lv)((x % lv.modulus, y % lv.modulus))]
                           for lv, sizes in tables]
            for a in range(k + 1):
                if rec.size == tower[a] * map_degree_tower(family, ell, a, k):
                    found[a, tower[a]] = found.get((a, tower[a]), ()) + ((k, rec.representative),)
                    break
    return [CandidatePair(a, d, ell, provenance=found[a, d]) for (a, d) in sorted(found)]


def test_tower_full_image():
    recs = gamma1_orbits(full_gl2(M49), 2)
    assert orbit_degree_tower(full_gl2(M49), recs[0]) == [(2, 1176), (1, 24), (0, 1)]


def test_tower_cartan_17():
    m289 = PrimePowerModulus(17, 2)
    pre = build_cartan(CartanSpec("nonsplit-normalizer",
                                  PrimePowerModulus(17, 1))).full_preimage(m289)
    recs = gamma1_orbits(pre, 2)
    tower = orbit_degree_tower(pre, recs[0])
    assert tower == [(2, 288 * 289 // 2), (1, 144), (0, 1)]


def _random_group(rng, mod):
    gens = []
    m = mod.modulus
    for _ in range(rng.randrange(1, 4)):
        while True:
            t = tuple(rng.randrange(m) for _ in range(4))
            d = (t[0] * t[3] - t[1] * t[2]) % mod.ell
            if d:
                gens.append(t)
                break
    return MatrixGroup(mod, gens)


MODULI = [PrimePowerModulus(3, 1), PrimePowerModulus(3, 2), PrimePowerModulus(2, 2),
          PrimePowerModulus(2, 3), PrimePowerModulus(5, 1), PrimePowerModulus(7, 1),
          PrimePowerModulus(7, 2), PrimePowerModulus(5, 2)]


def test_partition_property_random_groups():
    rng = random.Random(2024)
    for _ in range(60):
        mod = rng.choice(MODULI)
        g = _random_group(rng, mod)
        k = mod.exponent
        ell = mod.ell
        if ell ** k > 2:
            total1 = sum(r.size for r in gamma1_orbits(g, k))
            assert total1 == ell ** (2 * k) * (ell * ell - 1) // (2 * ell * ell)
        total0 = sum(r.size for r in gamma0_orbits(g, k))
        assert total0 == ell ** (k - 1) * (ell + 1)


def test_tower_divisibility_and_sandwich():
    rng = random.Random(99)
    for _ in range(25):
        mod = rng.choice([PrimePowerModulus(3, 2), PrimePowerModulus(5, 2),
                          PrimePowerModulus(7, 2)])
        g = _random_group(rng, mod)
        ell = mod.ell
        for family, get in (("gamma1", gamma1_orbits), ("gamma0", gamma0_orbits)):
            for rec in get(g, mod.exponent):
                tower = dict(orbit_degree_tower(g, rec))
                ks = sorted(tower)
                assert tower[0] == 1
                for a in ks:
                    for b in ks:
                        if a <= b:
                            assert tower[b] % tower[a] == 0
                            assert tower[b] <= tower[a] * map_degree_tower(family, ell, a, b)
                # multiplicativity is transitive through intermediate levels
                for a in ks:
                    for b in ks:
                        for c in ks:
                            if a <= b <= c:
                                mult_ab = tower[b] == tower[a] * map_degree_tower(family, ell, a, b)
                                mult_bc = tower[c] == tower[b] * map_degree_tower(family, ell, b, c)
                                if mult_ab and mult_bc:
                                    assert tower[c] == tower[a] * map_degree_tower(family, ell, a, c)


def test_orbits_conjugation_invariant(image49):
    conj = image49.conjugated_by((2, 7, 7, 1))
    for k in (1, 2):
        assert sorted(r.size for r in gamma1_orbits(image49, k)) == \
            sorted(r.size for r in gamma1_orbits(conj, k))
        assert sorted(r.size for r in gamma0_orbits(image49, k)) == \
            sorted(r.size for r in gamma0_orbits(conj, k))


def test_cartan_degree_check_small():
    # the 17/19 cases live in the acceptance suite; spot-check ell = 11 here
    ell = 11
    mod1 = PrimePowerModulus(ell, 1)
    mod2 = PrimePowerModulus(ell, 2)
    pre = build_cartan(CartanSpec("nonsplit-normalizer", mod1)).full_preimage(mod2)
    for k in (1, 2):
        want1 = (ell * ell - 1) * ell ** (2 * k - 2) // 2
        want0 = (ell + 1) * ell ** (k - 1)
        assert {r.size for r in gamma1_orbits(pre, k)} == {want1}
        assert {r.size for r in gamma0_orbits(pre, k)} == {want0}


@pytest.fixture(scope="module")
def small_groups():
    "Catalog records and named Cartans of modulus <= 49."
    groups = [r.group() for r in _bundled_records() if r.modulus.modulus <= 49]
    for kind in CARTAN_KINDS:
        for mod in (PrimePowerModulus(2, 3), PrimePowerModulus(3, 2), PrimePowerModulus(5, 1),
                    M7, PrimePowerModulus(5, 2), M49):
            try:
                groups.append(build_cartan(CartanSpec(kind, mod)))
            except ValueError:
                pass  # the semidirect kind needs an odd ell and exponent 2
    return groups


def _conjugation_invariants(group):
    mod = group.mod
    orbit_sizes = []
    for k in range(1, mod.exponent + 1):
        if mod.ell ** k > 2:
            orbit_sizes.append(sorted(r.size for r in gamma1_orbits(group, k)))
        orbit_sizes.append(sorted(r.size for r in gamma0_orbits(group, k)))
    return group.order(), group.level(), genus_XG(group), orbit_sizes


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_invariants_under_random_conjugation(small_groups, data):
    group = data.draw(st.sampled_from(small_groups))
    m, ell = group.mod.modulus, group.ell
    c = data.draw(st.tuples(*[st.integers(0, m - 1)] * 4).filter(
        lambda c: (c[0] * c[3] - c[1] * c[2]) % ell))
    assert _conjugation_invariants(group.conjugated_by(c)) == _conjugation_invariants(group)


# ---------------------------------------------------------------------------
# the class BFS against the full-carrier BFS

def _assert_matches_point_orbits(group):
    """For every level ell^k, k <= n, and both families: the expanded classes
    partition the carrier as the full-carrier BFS does, with equal
    representatives and sizes, each class holds `size` carrier points with
    its normal form least, and the filter's step 1 is unchanged."""
    ell, n = group.mod.ell, group.mod.exponent
    for family in ("gamma1", "gamma0"):
        for k in range(1, n + 1):
            level = PrimePowerModulus(ell, k)
            classes = KernelClasses(group, level, family)
            expanded = _expanded(group, level, family)
            assert classes.seeds() == sorted(expanded)
            for c, ps in expanded.items():
                assert ps[0] == c and classes.size(c) == len(ps), (c, ps)
            recs, want = orbits(group, k, family), _point_orbits(group, k, family)
            assert [(r.representative, r.size) for r in recs] == \
                [(w.representative, w.size) for w in want]
            assert [frozenset(p for c in r.points for p in expanded[c]) for r in recs] == \
                [w.points for w in want]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # subgroups need not have surjective det
            assert candidate_pairs(group, family) == _candidate_pairs_by_points(group, family)


def test_class_sizes_at_four():
    """At ell = 2, k = 2 the class of +-v holds |T|/2 points when vbar lies in
    T, because -v = v + 2*vbar; assuming |T| doubles the orbit sizes of these
    five records at level 4."""
    records = {r.rszb_label: r for r in _bundled_records()}
    for label in ("4.12.0.1", "4.6.0.1", "8.12.0.1", "8.48.1.1", "16.24.0.1"):
        group = records[label].group()
        for family in ("gamma1", "gamma0"):
            assert [(r.representative, r.size) for r in orbits(group, 2, family)] == \
                [(w.representative, w.size) for w in _point_orbits(group, 2, family)], label


def test_seeds_stop_at_the_cap(monkeypatch):
    """The nonsplit-Cartan normalizer mod 17^3 has 41,616 gamma1 classes at
    level 17^3, one over each carrier point mod 17^2; at a cap of 10^4 the
    seed list stops growing at the first class past the cap."""
    level = PrimePowerModulus(17, 3)
    group = build_cartan(CartanSpec("nonsplit-normalizer", level), 10 ** 4)
    classes = KernelClasses(group, level, "gamma1")
    calls, canon = [], classes.canon
    monkeypatch.setattr(classes, "canon", lambda v: calls.append(v) or canon(v))
    with pytest.raises(EnumerationCapError):
        classes.seeds()
    assert len(calls) == 10 ** 4 + 1


def test_classes_against_point_orbits_on_records():
    rng = random.Random(1313)
    for rec in _bundled_records() + _special_records():
        group = rec.group()
        _assert_matches_point_orbits(group)
        m, ell = group.mod.modulus, group.ell
        while True:
            c = tuple(rng.randrange(m) for _ in range(4))
            if (c[0] * c[3] - c[1] * c[2]) % ell:
                break
        _assert_matches_point_orbits(group.conjugated_by(c))


def test_classes_against_point_orbits_borel_81():
    _assert_matches_point_orbits(build_cartan(CartanSpec("borel", PrimePowerModulus(3, 4))))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_classes_against_point_orbits_on_subgroups(data):
    """Random subgroups mod 4, 8, 16, 9, 27, 25, 49, some generators drawn
    from a congruence kernel so that the layers, and with them the classes,
    are small."""
    ell, n = data.draw(st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)]))
    m = ell ** n
    gens = []
    for _ in range(data.draw(st.integers(1, 3))):
        j = data.draw(st.integers(0, n - 1))
        g = data.draw(st.tuples(*[st.integers(0, m - 1)] * 4).filter(
            lambda g: (g[0] * g[3] - g[1] * g[2]) % ell))
        if j:
            g = tuple((i + ell ** j * a) % m for i, a in zip((1, 0, 0, 1), g))
        gens.append(g)
    _assert_matches_point_orbits(MatrixGroup(PrimePowerModulus(ell, n), gens))
