import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ellimage import gl2, modcurves
from ellimage.errors import EnumerationCapError
from ellimage.gl2 import (DEFAULT_CAP, CartanSpec, MatrixGroup, build_cartan, full_gl2,
                          orbit, unit_group_generators)
from ellimage.modarith import IDENTITY, PrimePowerModulus, mdet, minv, mmul, mreduce
from ellimage.modcurves import (GenusProfile, genus_X0, genus_X1, genus_XG, map_degree,
                                map_degree_tower)

from conftest import det_units, elements, mulclose, transversal


def test_genus_tables():
    assert {n: genus_X1(n) for n in (9, 25, 49, 121, 169)} == \
        {9: 0, 25: 12, 49: 69, 121: 526, 169: 1070}
    assert {n: genus_X0(n) for n in (9, 25, 49, 121, 169)} == \
        {9: 0, 25: 0, 49: 1, 121: 6, 169: 8}
    assert genus_X1(1) == 0
    assert genus_X0(1) == 0


def test_genus_small_and_known_values():
    assert [genus_X1(n) for n in (2, 3, 4, 5, 7, 11, 13, 17, 37)] == \
        [0, 0, 0, 0, 0, 1, 2, 5, 40]
    assert [genus_X0(n) for n in (2, 7, 11, 13, 17, 32, 37, 64)] == \
        [0, 0, 1, 0, 1, 1, 2, 3]


def test_map_degree_examples():
    assert map_degree("gamma1", 1, 37) == 684
    assert map_degree("gamma1", 7, 7) == 49
    assert map_degree("gamma0", 1, 49) == 56
    assert map_degree("gamma1", 2, 2) == 2
    with pytest.raises(ValueError):
        map_degree("gamma1", 0, 5)


def test_map_degree_c_factor():
    # the gamma1 degree is halved exactly when a <= 2 and ab > 2: against
    # b^2 * prod (1 - 1/p^2) over the primes p of b prime to a, and b * prod
    # (1 + 1/p) for gamma0
    assert map_degree("gamma1", 1, 2) == 3     # 4 * 3/4
    assert map_degree("gamma1", 2, 2) == 2     # 4 / 2
    assert map_degree("gamma1", 1, 3) == 4     # 9 * 8/9 / 2
    assert map_degree("gamma1", 3, 9) == 81
    assert map_degree("gamma0", 1, 3) == 4     # 3 * 4/3


def test_map_degree_multiplicative_in_towers():
    for ell in (2, 3, 5, 7):
        for fam in ("gamma1", "gamma0"):
            for a in range(0, 3):
                for b in range(a, 4):
                    for c in range(b, 4):
                        assert map_degree_tower(fam, ell, a, c) == \
                            map_degree_tower(fam, ell, a, b) * map_degree_tower(fam, ell, b, c)


def gamma1_shape(mod):
    gens = [(1, 1, 0, 1), (mod.modulus - 1, 0, 0, mod.modulus - 1)]
    gens += [(1, 0, 0, u) for u in unit_group_generators(mod)]
    return MatrixGroup(mod, gens)


def test_genus_oracle_level_two():
    mod2 = PrimePowerModulus(2, 1)
    assert genus_XG(build_cartan(CartanSpec("borel", mod2))).genus == genus_X0(2)
    assert genus_XG(full_gl2(mod2)).genus == 0


@pytest.mark.parametrize("ell,e", [(7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (7, 2)])
def test_genus_oracle_equivalence(ell, e):
    mod = PrimePowerModulus(ell, e)
    N = mod.modulus
    borel = build_cartan(CartanSpec("borel", mod))
    assert genus_XG(borel).genus == genus_X0(N)
    assert genus_XG(gamma1_shape(mod)).genus == genus_X1(N)


def test_genus_full_group_and_level_one():
    assert genus_XG(full_gl2(PrimePowerModulus(7, 1))).genus == 0
    assert genus_XG(full_gl2(PrimePowerModulus(7, 2))) == GenusProfile(1, 1, 1, 1, 0)


def test_genus_image49(image49):
    prof = genus_XG(image49)
    assert prof.genus == 9
    assert prof.mu == 196


def test_genus_conjugation_invariant(image49):
    conj = image49.conjugated_by((1, 3, 5, 2))
    assert genus_XG(conj) == genus_XG(image49)


def test_semidirect_bound_beats_genus_table():
    # the lower bound ell(ell^2-1)/2 for the minimal orbit degree exceeds the
    # genus of X1(ell^2) exactly where the elimination needs it
    for ell in (3, 5, 7, 11, 13):
        assert ell * (ell * ell - 1) // 2 > genus_X1(ell * ell)


def test_profile_consistency():
    # 1 + mu/12 - nu2/4 - nu3/3 - nu_inf/2 is an exact integer by construction;
    # spot-check the arithmetic on a few named groups
    for kind in ("borel", "split-normalizer", "nonsplit-normalizer"):
        p = genus_XG(build_cartan(CartanSpec(kind, PrimePowerModulus(7, 1))))
        assert (12 + p.mu - 3 * p.nu2 - 4 * p.nu3 - 6 * p.nu_inf) % 12 == 0
        assert p.genus == 1 + (p.mu - 3 * p.nu2 - 4 * p.nu3 - 6 * p.nu_inf) // 12


def _full_level_key(group):
    """(key, +-G): key(x) names the right coset +-G*x mod N.  The least
    element r of +-G(ell)*x mod ell (Filtration.least of +-G) is h*x mod ell
    for an h in +-G, and Filtration.reduce puts each layer digit of h*x in
    normal form, whichever h the chain lifts r*x^-1 to."""
    ell, m = group.ell, group.mod.modulus
    pm = group.adjoin_minus_identity()
    filt = pm.filtration()
    least = filt.least

    def key(x):
        r = least(x)
        h = filt.lift(mmul(r, minv(mreduce(x, ell), ell, ell), ell))[0]
        return filt.reduce(mmul(h, x, m), minv(r, ell, ell))

    return key, pm


def _profile_by_coset_bfs(group):
    """GenusProfile from a BFS over all mu right cosets +-G*x of SL2(Z/N),
    keyed at the full level: what genus_XG did before it lifted through the
    congruence layers."""
    m = group.mod.modulus
    key, _ = _full_level_key(group)
    s, u = mreduce((0, -1, 1, 0), m), (1, 1 % m, 0, 1)
    step = {}

    def act(r, g):
        y = step[r, g] = key(mmul(r, g, m))
        return y

    cosets = orbit(key(IDENTITY), (s, u), act)
    mu = len(cosets)
    nu2 = sum(1 for r in cosets if step[r, s] == r)
    nu3 = sum(1 for r in cosets if step[r, s] == step[r, u])
    nu_inf, seen = 0, set()
    for r in cosets:
        if r not in seen:
            nu_inf += 1
            while r not in seen:
                seen.add(r)
                r = step[r, u]
    g = 1 + Fraction(mu, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(nu_inf, 2)
    assert g.denominator == 1
    return GenusProfile(mu, nu2, nu3, nu_inf, int(g))


def _profile_by_sl2_enumeration(group):
    """GenusProfile from the right cosets of +-G cap SL2, found by listing all
    of SL2(Z/N): the enumeration genus_XG used before its coset BFS."""
    m = group.mod.modulus
    H = sorted(x for x in elements(group.adjoin_minus_identity())
               if mdet(x, m) == 1)
    coset_of, reps = {}, []
    for x in sorted(mulclose([(1, 1, 0, 1), (1, 0, 1, 1)], m)):
        if x not in coset_of:
            for h in H:
                coset_of[mmul(h, x, m)] = len(reps)
            reps.append(x)
    s, t, u = mreduce((0, -1, 1, 0), m), mreduce((0, -1, 1, -1), m), (1, 1, 0, 1)
    nu2 = sum(coset_of[mmul(r, s, m)] == i for i, r in enumerate(reps))
    nu3 = sum(coset_of[mmul(r, t, m)] == i for i, r in enumerate(reps))
    perm = [coset_of[mmul(r, u, m)] for r in reps]
    cycles, seen = 0, set()
    for i in range(len(reps)):
        if i not in seen:
            cycles += 1
            while i not in seen:
                seen.add(i)
                i = perm[i]
    mu = len(reps)
    twelve_g = 12 + mu - 3 * nu2 - 4 * nu3 - 6 * cycles
    assert twelve_g % 12 == 0
    return GenusProfile(mu, nu2, nu3, cycles, twelve_g // 12)


@pytest.mark.parametrize("kind", ["borel", "split-normalizer", "nonsplit-normalizer"])
@pytest.mark.parametrize("ell,e", [(7, 1), (3, 2), (5, 2)])
def test_genus_XG_against_sl2_enumeration(kind, ell, e):
    group = build_cartan(CartanSpec(kind, PrimePowerModulus(ell, e)))
    assert genus_XG(group) == _profile_by_sl2_enumeration(group)


def test_genus_XG_against_sl2_enumeration_image49(image49):
    for group in (image49, image49.conjugated_by((1, 3, 5, 2))):
        assert genus_XG(group) == _profile_by_sl2_enumeration(group)


@pytest.mark.parametrize("ell,e", [(7, 1), (3, 2), (5, 2)])
def test_genus_XG_against_sl2_enumeration_without_minus_identity(ell, e):
    # {[1 b; 0 d]} does not contain -I, so genus_XG must add the negatives
    mod = PrimePowerModulus(ell, e)
    group = MatrixGroup(mod, [(1, 1, 0, 1)] + [(1, 0, 0, u) for u in unit_group_generators(mod)])
    assert not group.contains_minus_identity()
    assert genus_XG(group) == _profile_by_sl2_enumeration(group)


def test_genus_XG_against_sl2_enumeration_catalog(records, special_records):
    # every reduction, which includes each reduce_to(a) filter_genus_zero makes
    for rec in records + special_records:
        group = rec.group()
        for a in range(1, group.mod.exponent + 1):
            red = group.reduce_to(a)
            prof = genus_XG(red)
            assert prof == _profile_by_coset_bfs(red), (rec.rszb_label, a)
            assert prof == _profile_by_sl2_enumeration(red), (rec.rszb_label, a)


@pytest.mark.parametrize("N", [2, 4, 8, 16, 3, 9, 27, 81, 5, 25, 125, 7, 49, 121, 169, 289])
def test_genus_XG_against_coset_bfs(N):
    mod = PrimePowerModulus.from_int(N)
    for kind in ("borel", "split", "split-normalizer", "nonsplit", "nonsplit-normalizer"):
        group = build_cartan(CartanSpec(kind, mod))
        assert genus_XG(group) == _profile_by_coset_bfs(group), kind


def _into_sl2(a, m):
    "a times diag(1, det(a)^-1), which has determinant 1"
    return mmul(a, (1, 0, 0, pow(mdet(a, m), -1, m)), m)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_genus_XG_against_coset_bfs_on_drawn_groups(data):
    # the drawn generators may be moved into SL2, which leaves det G = {1},
    # and -I may be adjoined or not
    m = data.draw(st.sampled_from((4, 8, 16, 9, 27, 25, 49)))
    mod = PrimePowerModulus.from_int(m)
    unit = st.tuples(*[st.integers(0, m - 1)] * 4).filter(lambda a: mdet(a, mod.ell))
    gens = data.draw(st.lists(unit, min_size=1, max_size=3))
    if data.draw(st.booleans()):
        gens = [_into_sl2(a, m) for a in gens]
    if data.draw(st.booleans()):
        gens.append((m - 1, 0, 0, m - 1))
    group = MatrixGroup(mod, gens)
    prof = genus_XG(group)
    assume(prof.mu <= 5000)  # the oracle keys every coset
    assert prof == _profile_by_coset_bfs(group)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_coset_key_against_enumeration(data):
    m = data.draw(st.sampled_from((2, 4, 8, 3, 9, 27, 5, 25, 7, 49)))
    mod = PrimePowerModulus.from_int(m)
    ell = mod.ell
    unit = st.tuples(*[st.integers(0, m - 1)] * 4).filter(lambda a: mdet(a, ell))
    gens = data.draw(st.lists(unit, max_size=3))
    try:
        pm = mulclose(gens + [(m - 1, 0, 0, m - 1)], m, 4000)
    except EnumerationCapError:
        return
    least = MatrixGroup(mod, gens).adjoin_minus_identity().filtration().least
    key, _ = _full_level_key(MatrixGroup(mod, gens))
    xs = [_into_sl2(a, m) for a in data.draw(st.lists(unit, min_size=2, max_size=6))]
    for x in xs:
        k = key(x)
        assert mmul(k, minv(x, m, ell), m) in pm          # k lies in +-G*x
        g = data.draw(st.sampled_from(sorted(pm)))
        assert key(mmul(g, x, m)) == k
    for x in xs:
        for y in xs:
            same_coset = mmul(x, minv(y, m, ell), m) in pm
            assert (key(x) == key(y)) == same_coset
    for x in xs:  # mod ell the key is the least element of +-G(ell)*x
        assert least(x) == mreduce(key(x), ell) == min(mreduce(mmul(h, x, m), ell) for h in pm)


def test_coset_key_is_least_mod_ell(records, special_records):
    # The conjugacy search tries the cosets in the order of their keys, so
    # printed witnesses depend on the key being the least element mod ell.
    # The groups here have large ell; +-G(ell) is listed by the chain.  A
    # random conjugate moves the stabilizer of (1, 0) off the diagonal.
    rng = random.Random(5)
    groups = [r.group() for r in records + special_records]
    groups += [build_cartan(CartanSpec(kind, PrimePowerModulus.from_int(m)))
               for kind in ("split", "split-normalizer", "nonsplit", "nonsplit-normalizer",
                            "borel") for m in (7, 9, 25, 49)]
    for group in groups:
        ell, m = group.ell, group.mod.modulus
        c = (0, 0, 0, 0)
        while not mdet(c, ell):
            c = tuple(rng.randrange(m) for _ in range(4))
        pm = group.conjugated_by(c).adjoin_minus_identity()
        key = pm.filtration().least
        bar = {mreduce(t, ell) for t in transversal(pm.filtration())}
        xs = [tuple(rng.randrange(m) for _ in range(4)) for _ in range(8)]
        for x in [x for x in xs if mdet(x, ell)]:
            assert key(x) == min(mmul(h, x, ell) for h in bar)


@pytest.mark.parametrize("N", [81, 121, 125, 169, 343, 625, 729, 1331])
def test_genus_XG_reach(N):
    # no table holds the mu cosets, SL2(Z/N) or the group
    mod = PrimePowerModulus.from_int(N)
    assert genus_XG(build_cartan(CartanSpec("borel", mod))).genus == genus_X0(N)
    assert genus_XG(gamma1_shape(mod)).genus == genus_X1(N)


def test_genus_XG_keys_only_the_cosets_mod_ell(special_records, monkeypatch):
    # the identity and the images under s and u of the mu(7) = 28 cosets mod
    # 7; the BFS over all 9604 cosets mod 49 keyed 2 * 9604 + 1
    group = next(r.group() for r in special_records if r.rszb_label == "49.9604.694.1")
    mu_ell = genus_XG(group.reduce_to(1)).mu
    calls = []
    real = gl2.Filtration.least.func

    def counting(filt):
        least = real(filt)
        return lambda x, level=0: calls.append(x) or least(x, level)

    monkeypatch.setattr(gl2.Filtration, "least", property(counting))
    assert genus_XG(group).mu == 9604
    assert len(calls) <= 2 * mu_ell + 1 == 57


def test_genus_XG_checks_coset_count(monkeypatch):
    # mu * |+-G| / |det G| must be |SL2(Z/N)|; a wrong group order breaks it
    borel = build_cartan(CartanSpec("borel", PrimePowerModulus(7, 2)))
    monkeypatch.setattr(MatrixGroup, "order", lambda self: 49)
    with pytest.raises(ArithmeticError, match=r"^56 cosets of \|\+-G\| = 49 with 42 "
                                              r"determinants do not fill \|SL2\| = 115248$"):
        genus_XG(borel)


def test_layer_rejects_an_unfixed_coset():
    # u^5 fixes the identity coset of the split Cartan mod 5 but not mod 25:
    # its layer-1 digit [0 1; 0 0] is not diagonal, and the fibre map of
    # layer 2 raises instead of reading a digit from the wrong layer
    group = build_cartan(CartanSpec("split", PrimePowerModulus(5, 3)))
    layer = modcurves._Layer(group.filtration(), 2, group.det_image()[0].filtration())
    with pytest.raises(ArithmeticError, match="is not in"):
        list(layer._orbits(IDENTITY, (1, 5, 0, 1)))


def test_carried_cosets_meet_sl2(monkeypatch):
    # every representative carried up the layers keeps its determinant in
    # det G, so each names a coset of +-G cap SL2.  det G is {1}; <5> mod
    # 16, whose first layer is empty and the next two full; <7> mod 16, full
    # at the first layer only; <6> mod 25, trivial mod 5 over a full layer;
    # {+-1} mod 25, proper mod 5 over an empty layer; <7> mod 25, all of
    # F_5^x over an empty layer
    u = (1, 1, 0, 1)
    cases = [(16, [u, (3, 0, 0, 11)]), (16, [u, (5, 0, 0, 1)]), (16, [u, (1, 0, 0, 7)]),
             (25, [u, (6, 0, 0, 1)]), (25, [u, (1, 0, 0, 24)]), (25, [u, (7, 0, 0, 1)])]
    carried = []
    real = modcurves._Layer.lift

    def spy(self, *args):
        out = real(self, *args)
        carried.extend(y for _, y in out)
        return out

    monkeypatch.setattr(modcurves._Layer, "lift", spy)
    for m, gens in cases:
        group = MatrixGroup(PrimePowerModulus.from_int(m), gens)
        del carried[:]
        assert genus_XG(group) == _profile_by_coset_bfs(group), gens
        units = det_units(group)
        assert carried and all(mdet(y, m) in units for y in carried), gens


def _check_det_image(group):
    """det_image and the lifts into det G that genus_XG takes from it, against
    the unit BFS det_units: D's order, the surjective flag and whether
    diag(d, 1) lies in D for every unit d; at level ell, D's lift of diag(d,
    1) for each d mod ell; at each layer j, whether it is full against 1 +
    ell^j and the unit of det G over 1 + t*ell^j for each t it holds."""
    mod = group.mod
    ell, m = mod.ell, mod.modulus
    units = det_units(group)
    dets, surjective = group.det_image()
    assert dets.order() == len(units)
    assert surjective == (len(units) == mod.unit_count())
    assert {d for d in range(1, m) if d % ell and (d, 0, 0, 1) in dets} == units
    chain = dets.filtration()
    for d in range(1, ell):
        lift = chain.lift((d, 0, 0, 1))
        if d not in {e % ell for e in units}:
            assert lift is None
        else:
            e = lift[0][0]
            assert lift[0] == (e, 0, 0, 1) and e in units and e % ell == d
    filt = group.adjoin_minus_identity().filtration()
    for j in range(1, mod.exponent):
        q = ell ** j
        layer = modcurves._Layer(filt, j, chain)
        full = (1 + q) in {e % (q * ell) for e in units}
        assert len(layer.units) == (ell if full else 1)
        for t, e in enumerate(layer.units):
            assert e in units and (e - 1 - t * q) % (q * ell) == 0


def test_det_image_against_the_unit_bfs(records, special_records):
    groups = []
    for rec in records + special_records:
        group = rec.group()
        groups += [group.reduce_to(e) for e in range(1, group.mod.exponent + 1)]
    for m in (2, 3, 5, 7, 11, 13, 25, 49, 121, 169):
        mod = PrimePowerModulus.from_int(m)
        groups += [build_cartan(CartanSpec(kind, mod)) for kind in
                   ("borel", "split", "split-normalizer", "nonsplit", "nonsplit-normalizer")]
    # at ell = 2 the units are {+-1} x <5>: det G = <-1>, <5>, <-5> and all of them
    for m in (8, 16, 32):
        mod = PrimePowerModulus.from_int(m)
        for shape in ((m - 1,), (5,), (m - 5,), (m - 1, 5)):
            groups.append(MatrixGroup(mod, [(1, 1, 0, 1)] + [(1, 0, 0, d) for d in shape]))
    for group in groups:
        _check_det_image(group)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_det_image_against_the_unit_bfs_on_drawn_unit_sets(data):
    m = data.draw(st.sampled_from((2, 4, 8, 16, 32, 3, 9, 27, 81, 5, 25, 125, 7, 49, 343, 121)))
    mod = PrimePowerModulus.from_int(m)
    unit = st.integers(1, m - 1).filter(lambda d: d % mod.ell)
    dets = data.draw(st.lists(unit, max_size=3))
    _check_det_image(MatrixGroup(mod, [(1, 1, 0, 1)] + [(d, 1, 0, 1) for d in dets]))


def test_a_missing_lift_into_det_g_raises():
    # a determinant with no lift into det G raises ArithmeticError, at level
    # ell (D's lift of diag(d, 1) is None) and at a layer whose units stop
    # at t = 0 while the fibre holds a Y of nonzero trace
    with pytest.raises(ArithmeticError, match="no lift into det G"):
        modcurves._into_det((2, 0, 0, 1), None, 25)
    group = MatrixGroup(PrimePowerModulus(5, 2), [(1, 1, 0, 1), (6, 0, 0, 1)])
    layer = modcurves._Layer(group.filtration(), 1, group.det_image()[0].filtration())
    assert layer.units == [1, 6, 11, 16, 21]
    layer.units = layer.units[:1]
    with pytest.raises(ArithmeticError, match="no lift into det G"):
        layer.lift((1, 0, 0, 1), False, [(1, IDENTITY)])


def test_a_sift_residue_outside_pm_g_raises(monkeypatch):
    # a layer reads the action of w on the fibre over +-G*y off the residue
    # of y*w*y^-1, which is I mod ell^j when w fixes +-G*y; one that is not
    # raises ArithmeticError
    group = build_cartan(CartanSpec("borel", PrimePowerModulus(5, 2)))
    filt = group.adjoin_minus_identity().filtration()
    layer = modcurves._Layer(filt, 1, group.det_image()[0].filtration())
    monkeypatch.setattr(filt, "sift", lambda g: (1, 1, 0, 1))
    with pytest.raises(ArithmeticError, match=r"^\(1, 0, 0, 1\) is not in \+-G mod 5$"):
        layer._orbits(IDENTITY, IDENTITY)


def test_a_missing_canonical_lift_of_d_raises(monkeypatch):
    # genus_XG brings each coset carried from level ell into det G by D's
    # canonical lift of diag(det r, 1); a lift that is None raises
    group = build_cartan(CartanSpec("borel", PrimePowerModulus(5, 2)))
    monkeypatch.setattr(group.det_image()[0].filtration(), "canonical_lift", lambda c: None)
    with pytest.raises(ArithmeticError,
                       match=r"^det \d+ of \(\d+, \d+, \d+, \d+\) has no lift into det G$"):
        genus_XG(group)


def test_genus_XG_honours_cap():
    # genus_XG holds the three tables of the stabilizer chain of +-G(ell),
    # the cosets mod ell, the cosets carried through each layer and each
    # layer's fibre.  It raises exactly when one of them is larger than the
    # group's cap; each group here has a different largest table.  make(cap)
    # gives the group with that cap, and the cap error names the table.
    m49, m25, m5 = PrimePowerModulus(7, 2), PrimePowerModulus(5, 2), PrimePowerModulus(5, 1)
    cases = [(lambda cap: MatrixGroup(m49, full_gl2(m49).gens, cap=cap), 42, "orbit",
              "orbit table 3 of G(7)"),                                 # O_2
             (lambda cap: MatrixGroup(m5, [], cap=cap), 60, "cosets",
              "cosets of +-G mod 5"),                                   # mu = 60 cosets of {+-I}
             (lambda cap: MatrixGroup(m49, gamma1_shape(m49).gens, cap=cap), 60,
              "carried", "cosets carried to 49"),                       # the 60 cusps of X1(49)
             (lambda cap: build_cartan(CartanSpec("nonsplit-normalizer", m25), cap), 25,
              "fibre", "fibre of layer 1")]
    for make, largest, which, table in cases:
        group = make(DEFAULT_CAP)
        orbits = group.adjoin_minus_identity().filtration().orbits
        prof = genus_XG(group)
        mu_ell = genus_XG(group.reduce_to(1)).mu
        tables = {"orbit": max(map(len, orbits)), "cosets": mu_ell,
                  "carried": prof.nu_inf, "fibre": prof.mu // mu_ell}
        assert largest == tables[which] == max(tables.values())
        del tables[which]
        assert largest > max(tables.values())
        with pytest.raises(EnumerationCapError,
                           match="^%s exceeded cap %d$" % (re.escape(table), largest - 1)):
            genus_XG(make(largest - 1))
        assert genus_XG(make(largest)) == prof


def _cycles(points, step):
    """(length, first point) of each cycle of the permutation `step` of the
    points, in order: the walk genus_XG ran before gl2.partition, kept as
    the oracle for the cusps and the fibre cycles."""
    seen = set()
    for first in points:
        size, x = 0, first
        while x not in seen:
            seen.add(x)
            x, size = step(x), size + 1
        if size:
            yield size, first


def test_partition_walks_match_the_cycle_oracle(records, special_records, monkeypatch):
    # every partition genus_XG takes, the u-cycles on the cosets mod ell and
    # the cycles on each layer's fibre, gives the (length, first point)
    # sequence of the cycle oracle, on every bundled and special record and
    # each named kind at ell^2 <= 169
    walked = {"u-cycles": 0, "cycles on a fibre": 0}

    def checked(points, gens, act, cap, name):
        points = list(points)
        walks = list(gl2.partition(points, gens, act, cap, name))
        (g,) = gens
        assert [(len(w), next(iter(w))) for w in walks] == \
            list(_cycles(points, lambda x: act(x, g))), name
        walked[next(kind for kind in walked if name.startswith(kind))] += 1
        return iter(walks)

    groups = [r.group() for r in records + special_records]
    for ell in (2, 3, 5, 7, 11, 13):
        for kind in gl2.CARTAN_KINDS:
            if ell > 2 or kind != "section4-semidirect":
                groups.append(build_cartan(CartanSpec(kind, PrimePowerModulus(ell, 2))))
    monkeypatch.setattr(modcurves, "partition", checked)
    for group in groups:
        genus_XG(group)
    assert min(walked.values()) > 0
