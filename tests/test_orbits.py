import random
import warnings
from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

import ellimage.orbits as ORBITS
from ellimage import gl2
from ellimage.cli import _bundled_records, _special_records
from ellimage.errors import EnumerationCapError
from ellimage.gl2 import CARTAN_KINDS, CartanSpec, MatrixGroup, build_cartan, full_gl2, orbit
from ellimage.isolated import CandidatePair, candidate_pairs
from ellimage.modarith import PrimePowerModulus, mmul, mvec
from ellimage.modcurves import genus_XG, map_degree_tower
from ellimage.orbits import _canon, _line_canon, gamma0_orbits, gamma1_orbits, orbits

M7 = PrimePowerModulus(7, 1)
M49 = PrimePowerModulus(7, 2)


@pytest.mark.parametrize("family", ["gamma1", "gamma0"])
def test_representatives_are_canonical_of_exact_order(family):
    # each representative is a carrier point in normal form: a vector mod
    # ell^k of exact order ell^k, reduced, that its own _canon leaves as it is
    groups = [rec.group() for rec in _bundled_records()] + [
        full_gl2(M7), build_cartan(CartanSpec("nonsplit-normalizer", PrimePowerModulus(17, 2)))]
    for group in groups:
        for k in range(1, group.mod.exponent + 1):
            for r in orbits(group, k, family):
                v, ell, m = r.representative, r.level.ell, r.level.modulus
                assert _canon(family, r.level)(v) == v
                assert all(0 <= x < m for x in v) and (v[0] % ell or v[1] % ell)


def test_cyclic_submodule_canonical_form():
    # a line is stored as its canonical generator: the normal form of
    # (1, 3) mod 7 and of (7, 1) mod 49 is the vector itself, and a unit
    # multiple such as 2*(1, 3) is not in normal form
    assert _line_canon((1, 3), M7) == (1, 3)
    assert _line_canon((7, 1), M49) == (7, 1)
    assert _line_canon((2, 6), M7) == (1, 3) != (2, 6)
    for u in range(1, 49):
        if u % 7:
            assert _line_canon((7 * u % 49, u), M49) == (7, 1)


def test_gamma0_typed_representative():
    recs = gamma0_orbits(full_gl2(M7), 1)
    v = recs[0].representative
    assert isinstance(v, tuple) and len(v) == 2
    assert _line_canon(v, M7) == v and (v[0] % 7 or v[1] % 7)


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


def _carrier_points(family, level):
    """The carrier points in normal form, sorted: the v of exact order ell^k
    with v <= -v (gamma1), or (0, 1), the (1, y) and the (ell^j, y) with y a
    unit mod ell^(k-j) (gamma0)."""
    ell, m, k = level.ell, level.modulus, level.exponent
    out = []
    if family == "gamma1":
        for x in range(m // 2 + 1):
            top = m // 2 + 1 if 2 * x % m == 0 else m  # x = -x: then y <= -y
            out += [(x, y) for y in range(top) if x % ell or y % ell]
        return out
    out.append((0, 1))
    for j in range(k):
        q = ell ** (k - j)
        out += [(ell ** j, y) for y in range(q) if j == 0 or y % ell]
    return out


@pytest.mark.parametrize("ell,k", [(2, 1), (2, 4), (3, 3), (5, 2), (7, 2), (17, 2)])
def test_carrier_points_against_canonicalised_vectors(ell, k):
    level = PrimePowerModulus(ell, k)
    for family in ("gamma1", "gamma0"):
        canon = _canon(family, level)
        want = sorted({canon(v) for v in _exact_vectors(level)})
        assert _carrier_points(family, level) == want
        assert all(canon(v) == v for v in want)


def test_orbit_records_link_their_parents():
    g = build_cartan(CartanSpec("borel", M49))
    for family in ("gamma1", "gamma0"):
        low = orbits(g, 1, family)
        assert all(r.parent is None for r in low)
        recs = orbits(g, 2, family)
        # every level-7 orbit has a child, and the children come in the order of their parents
        assert list(dict.fromkeys(r.parent for r in recs)) == low
        for r in recs:
            assert r.parent.level == M7 and r.size % r.parent.size == 0
            # the parent is left out of equality, hashing and repr
            bare = r._replace(parent=None)
            assert r == bare and hash(r) == hash(bare) and repr(r) == repr(bare)


def test_bfs_visits_fibres_not_points(monkeypatch):
    # the nonsplit normalizer mod 17^3 is transitive at each level: one walk
    # over the 144 +-classes mod 17 finds the orbit of 41,616 +-classes mod
    # 17^2, whose fibres the top layer fills; up to 17^3 a walk over the 289
    # points of a fibre mod 17^2 is still needed for its stabilizer.  For
    # lines, 18 and 17 of 306 and 5,202
    g = build_cartan(CartanSpec("nonsplit-normalizer", PrimePowerModulus(17, 3)))
    visited = []

    def counting_orbit(*args, **kwargs):
        found = gl2.orbit(*args, **kwargs)
        visited.append(len(found))
        return found

    monkeypatch.setattr(ORBITS, "orbit", counting_orbit)
    for get, k, walks, points in ((gamma1_orbits, 2, [144], 41616),
                                  (gamma1_orbits, 3, [144, 289], 41616 * 289),
                                  (gamma0_orbits, 2, [18], 306),
                                  (gamma0_orbits, 3, [18, 17], 306 * 17)):
        visited.clear()
        assert sum(r.size for r in get(g, k)) == points and visited == walks


def test_gamma1_full_image():
    recs = gamma1_orbits(full_gl2(M7), 1)
    assert [r.size for r in recs] == [24]


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

PointOrbit = namedtuple("PointOrbit", "representative size points")


def _reduced_gens(group, level):
    if level.exponent > group.mod.exponent:
        raise ValueError("level %s exceeds the group modulus %s" % (level, group.mod))
    if level.ell != group.mod.ell:
        raise ValueError("level prime %d does not match group prime %d"
                         % (level.ell, group.mod.ell))
    return group.reduce_to(level).gens


def _point_orbits(group, k, family):
    "PointOrbits by one gl2.orbit BFS over every carrier point; points holds the orbit."
    level = PrimePowerModulus(group.mod.ell, k)
    m = level.modulus
    canon = _canon(family, level)
    gens = _reduced_gens(group, level)
    seen = set()
    out = []
    for v0 in _carrier_points(family, level):
        if v0 not in seen:
            points = orbit(v0, gens, lambda w, g: canon(mvec(g, w, m)))
            seen.update(points)
            out.append(PointOrbit(v0, len(points), frozenset(points)))
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
# the orbit tree against the full-carrier BFS

def _assert_matches_point_orbits(group):
    """For every level ell^k, k <= n, and both families, against the
    full-carrier BFS: the multiset of orbit sizes; one record per oracle
    orbit, its representative in that orbit and the least point of its
    fibre orbit, the points of the orbit over the parent's representative;
    the degree tower of each record, its ancestors' sizes, each ancestor
    holding the reduction of the representative; and the filter's step 1
    up to the choice of representative."""
    ell, n = group.mod.ell, group.mod.exponent
    for family in ("gamma1", "gamma0"):
        holder = {}  # k -> {carrier point mod ell^k: its oracle orbit}
        for k in range(1, n + 1):
            want = _point_orbits(group, k, family)
            holder[k] = {p: w for w in want for p in w.points}
            recs = orbits(group, k, family)
            assert sorted(r.size for r in recs) == sorted(w.size for w in want)
            assert len({holder[k][r.representative] for r in recs}) == len(want)
            for r in recs:
                points = holder[k][r.representative].points
                if k > 1:
                    low = PrimePowerModulus(ell, k - 1)
                    q, canon = low.modulus, _canon(family, low)
                    points = [p for p in points
                              if canon((p[0] % q, p[1] % q)) == r.parent.representative]
                assert r.representative == min(points)
                up = r
                for a in range(k, 0, -1):
                    level = PrimePowerModulus(ell, a)
                    m = level.modulus
                    w = holder[a][_canon(family, level)((r.representative[0] % m,
                                                         r.representative[1] % m))]
                    assert up.level == level and up.size == w.size and up.representative in w.points
                    up = up.parent
                assert up is None
        least = lambda pairs: [(p.level_exp, p.degree, sorted(
            (k, holder[k][v].representative) for k, v in p.provenance)) for p in pairs]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # subgroups need not have surjective det
            assert least(candidate_pairs(group, family)) == \
                least(_candidate_pairs_by_points(group, family))


def test_class_sizes_at_four():
    """At ell = 2, k = 2 the +-class of a lift of vbar holds one point of
    the fibre over vbar when vbar = -vbar mod 2, so a fibre there has 2
    points, not 4; counting 4 doubles the orbit sizes of these five records
    at level 4."""
    records = {r.rszb_label: r for r in _bundled_records()}
    for label in ("4.12.0.1", "4.6.0.1", "8.12.0.1", "8.48.1.1", "16.24.0.1"):
        group = records[label].group()
        for family in ("gamma1", "gamma0"):
            assert sorted(r.size for r in orbits(group, 2, family)) == \
                sorted(w.size for w in _point_orbits(group, 2, family)), label


def test_cap_bounds_the_walks_and_the_orbit_count():
    # one walk of 5,100 +-classes mod 101, a fibre of 289 points over the
    # one orbit mod 17, walked below 17^3 for its stabilizer, and 24 orbits
    # of one point under <-I> mod 7
    cases = ((CartanSpec("nonsplit-normalizer", PrimePowerModulus(101, 1)), 1, 1000,
              "gamma1 orbit mod 101 exceeded cap 1000"),
             (CartanSpec("nonsplit-normalizer", PrimePowerModulus(17, 3)), 3, 200,
              "gamma1 fibre orbit mod 289 exceeded cap 200"))
    for spec, k, cap, message in cases:
        with pytest.raises(EnumerationCapError, match="^%s$" % message):
            gamma1_orbits(build_cartan(spec, cap), k)
    # the kernel fills the fibre of 10,201 points mod 101^2, which no walk then holds
    group = build_cartan(CartanSpec("nonsplit-normalizer", PrimePowerModulus(101, 2)), 10 ** 4)
    assert [r.size for r in gamma1_orbits(group, 2)] == [5100 * 10201]
    assert len(gamma1_orbits(MatrixGroup(M7, [(6, 0, 0, 6)], cap=24), 1)) == 24
    with pytest.raises(EnumerationCapError, match="^gamma1 orbits at level 7 exceeded cap 23$"):
        gamma1_orbits(MatrixGroup(M7, [(6, 0, 0, 6)], cap=23), 1)


def test_cap_bounds_each_stabilizer_chain():
    # a stabilizer's chain tables are orbits of a subgroup of G, no larger
    # than G's own, so only a cap that G's chain itself passes stops them:
    # built under a cap of 5, the chain of the stabilizer of +-(0, 1) in GL2
    # mod 7, whose second and third tables hold 6 and 14 rows, stops
    group = full_gl2(M7)
    act = lambda c, g: _canon("gamma1", M7)(mvec(g, c, 7))
    reached = orbit((0, 1), group.gens, act)
    assert len(ORBITS._stabilizer(group, reached, group.gens, act, 2016 // 24)) >= 1
    small = MatrixGroup(M7, group.gens, cap=5)
    with pytest.raises(EnumerationCapError, match="^orbit table [23] of G\\(7\\) exceeded cap 5$"):
        ORBITS._stabilizer(small, reached, group.gens, act, 2016 // 24)


def test_schreier_generators_that_run_short_raise():
    # the walk from (0, 1) under GL2 mod 7 asked for a stabilizer twice as large
    group = full_gl2(M7)
    act = lambda c, g: _canon("gamma1", M7)(mvec(g, c, 7))
    reached = orbit((0, 1), group.gens, act)
    with pytest.raises(ArithmeticError, match="^the stabilizer of \\(0, 1\\) has 84 elements, "
                                              "not 168$"):
        ORBITS._stabilizer(group, reached, group.gens, act, 168)


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


@pytest.mark.parametrize("ell,n", [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (2, 2),
                                   (3, 2), (5, 2), (7, 2), (11, 2), (13, 2), (2, 3), (3, 3),
                                   (5, 3), (7, 3), (2, 5)])
def test_tree_against_point_orbits_on_named_groups(ell, n):
    for kind in CARTAN_KINDS:
        try:
            group = build_cartan(CartanSpec(kind, PrimePowerModulus(ell, n)))
        except ValueError:
            continue  # the semidirect kind needs an odd ell and exponent 2
        _assert_matches_point_orbits(group)


def _lineages(group, k, family):
    "Each level-k record with its ancestors, down to level ell."
    out = []
    for rec in orbits(group, k, family):
        line = []
        while rec is not None:
            line.append(rec)
            rec = rec.parent
        out.append(line)
    return out


def test_records_are_a_function_of_the_group():
    # the same group from a shuffled and enlarged generating set: the same
    # records in the same order, with the same parents
    rng = random.Random(4242)
    for rec in _bundled_records() + _special_records():
        group = rec.group()
        m = group.mod.modulus
        gens = list(group.gens)
        more = gens + [mmul(a, b, m) for a, b in zip(gens, gens[1:] + gens[:1])]
        rng.shuffle(more)
        other = MatrixGroup(group.mod, more)
        for family in ("gamma1", "gamma0"):
            for k in range(1, group.mod.exponent + 1):
                assert _lineages(group, k, family) == _lineages(other, k, family), rec.rszb_label


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
