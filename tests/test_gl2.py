import random
import time
from collections import Counter
from functools import reduce
from itertools import chain, product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ellimage import gl2
from ellimage.errors import (CertificateError, EnumerationCapError, NotInvertibleError,
                             SearchBudgetError)
from ellimage.gl2 import (CARTAN_KINDS, CartanSpec, Filtration, MatrixGroup, ambient_order,
                          build_cartan, conjugate_into, extend, full_gl2, is_conjugate,
                          rowmul, unit_group_generators)
from ellimage.modarith import (IDENTITY, Echelon, PrimePowerModulus, digit, is_prime, lincomb,
                               mdet, minv, mmul, morder, mreduce)

from conftest import elements, mulclose, transversal

M7 = PrimePowerModulus(7, 1)
M49 = PrimePowerModulus(7, 2)


def test_ambient_orders():
    assert ambient_order(M7) == 2016
    assert ambient_order(M49) == 4840416
    assert ambient_order(M49, "SL2") == 115248
    with pytest.raises(ValueError, match="exponent must be >= 1"):
        PrimePowerModulus(7, 0)  # no group lives over Z/1


def test_enumerate_trivial_and_cartan():
    trivial = MatrixGroup(M7, [(1, 0, 0, 1)])
    assert elements(trivial) == ((1, 0, 0, 1),)
    cns = build_cartan(CartanSpec("nonsplit", M7, epsilon=3))
    assert cns.order() == 48


def test_enumerate_image49(image49):
    assert len(elements(image49)) == 24696
    assert image49.index_in_ambient() == 196


def test_generators_must_be_invertible():
    with pytest.raises(NotInvertibleError):
        MatrixGroup(M7, [(7 % 7, 1, 0, 1)])


def test_index_examples(image49):
    assert full_gl2(M7).index_in_ambient() == 1
    cnsn = build_cartan(CartanSpec("nonsplit-normalizer", M7))
    assert cnsn.index_in_ambient() == 21


def test_level_examples(image49):
    assert full_gl2(M49).level() == full_gl2(M7).level() == 1
    assert image49.level() == 49
    pre = build_cartan(CartanSpec("nonsplit-normalizer", M7)).full_preimage(M49)
    assert pre.level() == 7


def test_level_of_preimage_round_trips():
    for kind in ("borel", "split-normalizer", "nonsplit-normalizer"):
        g = build_cartan(CartanSpec(kind, M7))
        assert g.full_preimage(M49).level() == g.level()


def test_det_image(image49):
    # det G is the group D of the diag(det g, 1), cached on G
    trivial = MatrixGroup(M7, [(1, 0, 0, 1)])
    dets, surj = trivial.det_image()
    assert dets.order() == 1 and not surj and dets.gens == ()
    assert image49.det_image()[1] and image49.det_image()[0].order() == 42
    assert image49.det_image() is image49.det_image()
    sl2ish = MatrixGroup(M7, [(1, 1, 0, 1), (1, 0, 1, 1)])
    dets, surj = sl2ish.det_image()
    assert (dets.order(), surj) == (1, False)
    half = MatrixGroup(M49, [(1, 1, 0, 1), (2, 0, 0, 1)])  # 2 has order 21 mod 49
    dets, surj = half.det_image()
    assert (dets.order(), surj) == (21, False) and (2, 0, 0, 1) in dets
    assert (3, 0, 0, 1) not in dets


def test_adjoin_minus_identity():
    trivial = MatrixGroup(M7, [(1, 0, 0, 1)])
    pm = trivial.adjoin_minus_identity()
    assert pm.order() == 2
    # a group that holds -I is its own +-G
    assert pm.adjoin_minus_identity() is pm
    for kind in ("borel", "nonsplit", "split-normalizer"):
        g = build_cartan(CartanSpec(kind, M7))
        assert g.contains_minus_identity() and g.adjoin_minus_identity() is g
    sl2ish = MatrixGroup(M7, [(1, 1, 0, 1), (1, 0, 1, 1)])
    assert sl2ish.adjoin_minus_identity() is sl2ish
    unipotent = MatrixGroup(M49, [(1, 1, 0, 1)])
    pm = unipotent.adjoin_minus_identity()
    assert pm is not unipotent and pm.order() == 2 * unipotent.order()


def test_reduce_group(image49):
    cns = build_cartan(CartanSpec("nonsplit", M7))
    assert elements(cns.reduce_to(1)) == elements(cns)
    # the mod-7 image of the exceptional group is the full normalizer of a
    # split Cartan (order 72; it cannot fit in the order-96 nonsplit one)
    red = image49.reduce_to(1)
    assert red.order() == 72
    ok, _ = is_conjugate(red, build_cartan(CartanSpec("split-normalizer", M7)))
    assert ok


def test_full_preimage(image49):
    cns = build_cartan(CartanSpec("nonsplit", M7))
    assert elements(cns.full_preimage(M7)) == elements(cns)
    trivial = MatrixGroup(M7, [(1, 0, 0, 1)])
    kernel = trivial.full_preimage(M49)
    assert kernel.order() == 7 ** 4
    for kind in ("borel", "split"):
        g = build_cartan(CartanSpec(kind, M7))
        assert g.full_preimage(M49).order() == g.order() * 7 ** 4
    assert image49.full_preimage(PrimePowerModulus(7, 3)).order() \
        == image49.order() * 7 ** 4


def test_enumeration_generator_order_independent():
    rng = random.Random(3)
    g = build_cartan(CartanSpec("split-normalizer", M49))
    gens = list(g.gens)
    for _ in range(3):
        rng.shuffle(gens)
        assert elements(MatrixGroup(M49, gens)) == elements(g)


def test_is_conjugate_examples():
    split = build_cartan(CartanSpec("split", M7))
    nonsplit = build_cartan(CartanSpec("nonsplit", M7))
    ok, wit = is_conjugate(split, split)
    assert ok and wit is not None
    assert is_conjugate(split, nonsplit) == (False, None)
    a = build_cartan(CartanSpec("nonsplit", M7, epsilon=3))
    b = build_cartan(CartanSpec("nonsplit", M7, epsilon=5))
    ok, c = is_conjugate(a, b)
    assert ok and len(c) == 4
    # the witness 4-tuple conjugates elementwise
    ci = minv(c, 7, 7)
    assert {mmul(mmul(c, x, 7), ci, 7) for x in elements(a)} == set(elements(b))


def test_is_conjugate_is_equivalence_on_sample():
    groups = [build_cartan(CartanSpec("nonsplit", M7, epsilon=e)) for e in (3, 5, 6)]
    conj = build_cartan(CartanSpec("nonsplit", M7, epsilon=3)).conjugated_by((1, 2, 3, 0))
    groups.append(conj)
    for a in groups:
        assert is_conjugate(a, a)[0]
        for b in groups:
            ok_ab = is_conjugate(a, b)[0]
            assert ok_ab == is_conjugate(b, a)[0]
            assert ok_ab


def test_conjugate_into_examples(printed_index49):
    split = build_cartan(CartanSpec("split", M7))
    norm = build_cartan(CartanSpec("split-normalizer", M7))
    ok, wit, idx = conjugate_into(split, norm)
    assert ok and idx == 2
    csn49 = build_cartan(CartanSpec("split-normalizer", M49))
    ok, wit, idx = conjugate_into(printed_index49, csn49)
    assert ok and idx == 7
    nonsplit = build_cartan(CartanSpec("nonsplit", M7))
    borel = build_cartan(CartanSpec("borel", M7))
    assert conjugate_into(nonsplit, borel) == (False, None, None)


def test_conjugate_into_checks_its_witness(monkeypatch):
    # a search that returned the swap, which takes B(7) to the lower
    # triangular matrices, is caught by the sift of the conjugated generators
    borel = build_cartan(CartanSpec("borel", M7))
    monkeypatch.setattr(gl2, "_conjugating_matrix", lambda h, big: (0, 1, 1, 0))
    with pytest.raises(CertificateError, match="^conjugating matrix \\(0, 1, 1, 0\\) does not "
                                               "map MatrixGroup\\(mod 7, .*\\) into "):
        conjugate_into(borel, borel)


def nullspace_span(rows, m, width=None):
    """Spanning vectors of {x in (Z/m)^w : r.x = 0 mod m for every row r},
    for m a prime power; w is the length of the rows, or `width` when there
    are none.  The full-key conjugacy oracle below solves over Z/m itself,
    which the package, working over F_ell only, never needs.

    Smith form over the chain ring Z/m: each pivot is a remaining entry of
    least valuation (smallest gcd with m), which divides every other
    remaining entry, so each elimination is one exact division and every
    entry stays in [0, m).  Only the column transform is kept (T[k] is its
    k-th column); with x = T y the diagonal system d_k y_k = 0 is solved
    coordinatewise.
    """
    width = len(rows[0]) if rows else width
    A = [[x % m for x in r] for r in rows]
    T = [[int(i == j) for j in range(width)] for i in range(width)]
    diag = []
    for k in range(width):
        best = min(((gcd(A[i][j], m), i, j) for i in range(k, len(A))
                    for j in range(k, width) if A[i][j]), default=None)
        if best is None:
            break
        g, i, j = best
        A[k], A[i] = A[i], A[k]
        for r in A:
            r[k], r[j] = r[j], r[k]
        T[k], T[j] = T[j], T[k]
        inv = pow(A[k][k] // g, -1, m)
        for r in A[k + 1:]:
            f = r[k] // g * inv % m
            r[:] = [(x - f * y) % m for x, y in zip(r, A[k])]
        # column operations clear row k, which is not read again; the rows
        # below are already 0 in column k, so only the transform changes
        for c in range(k + 1, width):
            f = A[k][c] // g * inv % m
            T[c] = [(x - f * y) % m for x, y in zip(T[c], T[k])]
        diag.append(g)
    span = []
    for k in range(width):
        scale = m // diag[k] if k < len(diag) else 1
        vec = tuple(x * scale % m for x in T[k])
        if any(vec):
            span.append(vec)
    return span


def _conj_equation_rows(g, h, m):
    """Rows of the linear system c*g - h*c = 0 in the entries of c."""
    g11, g12, g21, g22 = g
    h11, h12, h21, h22 = h
    # unknowns (c11, c12, c21, c22); one row per matrix entry of c*g - h*c
    return [
        (g11 - h11, g21, -h12, 0),
        (g12, g22 - h11, 0, -h12),
        (-h21, 0, g11 - h22, g21),
        (0, -h21, g12, g22 - h22),
    ]


def _unit_solution(span, m, ell):
    """An invertible matrix in the Z/m-span of `span` (4-tuples), or None.

    Invertibility only depends on the reduction mod ell, so the F_ell
    combinations of the span vectors are walked.
    """
    for coeffs in product(range(ell), repeat=len(span)):
        cand = lincomb(coeffs, span, m)
        if (cand[0] * cand[3] - cand[1] * cand[2]) % ell:
            return cand
    return None


def _conjugating_matrix_by_full_keys(source_gens, target_keys, mod, budget):
    """The backtracking search as it was when every target element was
    keyed: candidate images are bucketed by (order, det, trace) in the
    iteration order of target_keys."""
    m, ell = mod.modulus, mod.ell
    buckets = {}
    for h, key in target_keys.items():
        buckets.setdefault(key, []).append(h)
    gens = sorted(source_gens, key=lambda g: (-source_gens[g][0], g))
    nodes = 0

    def recurse(i, rows):
        nonlocal nodes
        if i == len(gens):
            return _unit_solution(nullspace_span(rows, m), m, ell)
        g = gens[i]
        if g[1] == 0 and g[2] == 0 and g[0] == g[3]:
            if g not in target_keys:
                return None
            return recurse(i + 1, rows)
        for h in buckets.get(source_gens[g], ()):
            nodes += 1
            if nodes > budget:
                raise SearchBudgetError("conjugacy search exceeded %d nodes" % budget)
            rows2 = rows + _conj_equation_rows(g, h, m)
            span = nullspace_span(rows2, m)
            if len(span) >= 3 or _unit_solution(span, m, ell) is not None:
                got = recurse(i + 1, rows2)
                if got is not None:
                    return got
        return None

    return recurse(0, [])


def _conjugate_into_by_full_keys(h, hkeys, big, bkeys, budget=500_000):
    """conjugate_into as it was when it keyed every element of both groups
    by (order, det, trace) and compared the key multisets first; hkeys and
    bkeys are those keys."""
    mod = h.mod
    ho, bo = h.order(), big.order()
    if bo % ho:
        return False, None, None
    if Counter(hkeys.values()) - Counter(bkeys.values()):
        return False, None, None
    c = _conjugating_matrix_by_full_keys(
        {g: hkeys[g] for g in h.filtration().generators()}, bkeys, mod, budget)
    if c is None:
        return False, None, None
    m = mod.modulus
    ci = minv(c, m, mod.ell)
    assert all(mmul(mmul(c, x, m), ci, m) in bkeys for x in hkeys)
    return True, c, bo // ho


def _check_against_full_keys(h, big, keys):
    """conjugate_into(h, big) gives the oracle's (ok, index), and a witness
    maps every element of h into the element set of big; keys caches the
    full key table of each group by id."""
    mod = h.mod
    m = mod.modulus
    for g in (h, big):
        if id(g) not in keys:
            keys[id(g)] = {x: (morder(x, mod), mdet(x, m), (x[0] + x[3]) % m)
                           for x in elements(g)}
    hkeys, bkeys = keys[id(h)], keys[id(big)]
    ok, witness, index = conjugate_into(h, big)
    want = _conjugate_into_by_full_keys(h, hkeys, big, bkeys)
    assert (ok, index) == (want[0], want[2]), (h.gens, big.gens)
    if ok:
        ci = minv(witness, m, mod.ell)
        assert all(mmul(mmul(witness, x, m), ci, m) in bkeys for x in hkeys), (h.gens, big.gens)
    return ok


def test_conjugate_into_against_full_keys():
    """Same (ok, index) as the search that keyed both groups whole, and a
    witness that maps h into big,
    on every ordered pair of the named constructions at 9, 25 and 49 and a
    seeded conjugate of each; Borel(49) and section4-semidirect(49) are left
    out, as the oracle would key their 86,436 and 32,928 elements.  Pairs
    the old pre-check rejected come back (False, None, None) within the
    default budget: the kernel I + ell*M2 in Borel (the same (det, trace)
    multiset, other orders) and the cyclic group of [1 1; 0 1] in the
    kernel."""
    rng = random.Random(11)
    old_rejects = 0
    for mod in (PrimePowerModulus(3, 2), PrimePowerModulus(5, 2), M49):
        ell, m = mod.ell, mod.modulus
        kinds = ("split", "split-normalizer", "nonsplit", "nonsplit-normalizer")
        if ell < 7:
            kinds += ("borel", "section4-semidirect")
        groups = [build_cartan(CartanSpec(kind, mod)) for kind in kinds]
        groups += [g.conjugated_by(_random_invertible(rng, m, ell)) for g in groups]
        kernel = MatrixGroup(PrimePowerModulus(ell, 1), []).full_preimage(mod)
        unipotent = MatrixGroup(mod, [(1, 1, 0, 1)])
        pairs = [(h, big) for h in groups for big in groups] + [(unipotent, kernel)]
        if ell < 7:
            pairs.append((kernel, groups[kinds.index("borel")]))
        keys = {}
        for h, big in pairs:
            ok = _check_against_full_keys(h, big, keys)
            hkeys, bkeys = keys[id(h)], keys[id(big)]
            if big.order() % h.order() == 0 and Counter(hkeys.values()) - Counter(
                    bkeys.values()):
                old_rejects += 1
                assert not ok
    assert old_rejects == 49


def _random_subgroups(rng, mod, count, limit=3000):
    """count random groups of order <= limit, in families: <g>, <g, g'> and
    a random conjugate of each, for random invertible or (above exponent 1)
    kernel elements g and g'."""
    m, ell = mod.modulus, mod.ell

    def element():
        if m == ell or rng.randrange(2):
            return _random_invertible(rng, m, ell)
        return tuple((a + ell * rng.randrange(m)) % m for a in IDENTITY)

    groups = []
    while len(groups) < count:
        g, g2 = element(), element()
        family = [MatrixGroup(mod, [g]), MatrixGroup(mod, [g, g2])]
        family = [x for x in family if x.order() <= limit]
        groups += family + [x.conjugated_by(_random_invertible(rng, m, ell)) for x in family]
    return groups[:count]


def test_conjugate_into_against_full_keys_on_random_subgroups():
    """The lifting search against the full-key search on every ordered pair
    of 12 seeded random subgroups at each of 8 moduli (1,152 pairs)."""
    rng = random.Random(29)
    found = 0
    for m in (3, 4, 5, 7, 8, 9, 16, 27):
        groups = _random_subgroups(rng, PrimePowerModulus.from_int(m), 12)
        keys = {}
        for h in groups:
            for big in groups:
                found += _check_against_full_keys(h, big, keys)
    assert found == 432


def test_conjugate_kernel_into_itself():
    # for kernel elements c*g = h*c only constrains c mod ell; the search
    # that solved those equations element by element took 15 s at modulus 9
    for ell, e in ((3, 2), (5, 2), (3, 3), (7, 2)):
        mod = PrimePowerModulus(ell, e)
        kernel = MatrixGroup(PrimePowerModulus(ell, 1), []).full_preimage(mod)
        start = time.perf_counter()
        ok, witness, index = conjugate_into(kernel, kernel)
        assert time.perf_counter() - start < 1
        assert ok and witness is not None and index == 1


def test_derived_groups_keep_the_cap():
    # the cap belongs to the group and passes to every group derived from
    # it: Borel(101) holds 100 multiples lambda*(1, 0) in its second chain
    # table, past a cap of 50, whether or not a default-cap twin with the
    # same generators has built its chain first
    m101 = PrimePowerModulus(101, 1)
    gens = build_cartan(CartanSpec("borel", m101)).gens
    message = "orbit table 2 of G(101) exceeded cap 50"
    for twin_first in (False, True):
        g, twin = MatrixGroup(m101, gens, cap=50), MatrixGroup(m101, gens)
        if twin_first:
            assert twin.order() == 100 * 100 * 101
        for use in (g.order, lambda: g == twin, lambda: twin.gens[0] in g, lambda: hash(g),
                    lambda: g.reduce_to(1).order(),
                    lambda: g.conjugated_by((1, 0, 0, 3)).order(),
                    lambda: g.full_preimage(PrimePowerModulus(101, 2)).order()):
            with pytest.raises(EnumerationCapError) as err:
                use()
            assert str(err.value) == message


def test_conjugacy_search_budget(monkeypatch):
    borel = build_cartan(CartanSpec("borel", M49))
    monkeypatch.setattr(gl2, "CONJUGACY_BUDGET", 2)
    with pytest.raises(SearchBudgetError):
        is_conjugate(borel, borel.conjugated_by((1, 2, 3, 5)))


def test_conjugacy_reads_no_element_list(monkeypatch):
    # the search builds no closure, orders no element and walks the cosets
    # of +-B(ell), never the elements of a group
    orbit = gl2.orbit

    def refuse(*args):
        raise AssertionError("the conjugacy search listed a group")

    def walk(seed, gens, act, cap, name):
        if name.startswith("elements of"):
            refuse()
        return orbit(seed, gens, act, cap, name)

    for name in ("extend", "morder"):
        monkeypatch.setattr(gl2, name, refuse)
    monkeypatch.setattr(gl2, "orbit", walk)
    borel = build_cartan(CartanSpec("borel", M49))
    start = time.perf_counter()
    ok, _ = is_conjugate(borel, borel.conjugated_by((1, 2, 3, 5)))
    assert ok and time.perf_counter() - start < 1
    kernel = MatrixGroup(M7, []).full_preimage(M49)
    assert conjugate_into(kernel, borel) == (False, None, None)


def test_cartan_orders_match_formula():
    for ell in (3, 5, 7, 11, 13):
        for d in (1, 2):
            mod = PrimePowerModulus(ell, d)
            got = build_cartan(CartanSpec("nonsplit", mod)).order()
            assert got == ell ** (2 * d - 2) * (ell * ell - 1)
    assert build_cartan(CartanSpec("nonsplit-normalizer", M49)).order() == 4704


def test_nonsplit_cartans_at_two(record_map):
    # multiplication by a + b*w on Z[w]/2^n, w^2 + w + 1 = 0: the 3 * 4^(n-1)
    # units, those of odd norm a^2 - ab + b^2; the normalizer adjoins the
    # conjugation w -> w^2
    for n in (1, 2, 3, 4):
        mod = PrimePowerModulus(2, n)
        m = mod.modulus
        cartan = build_cartan(CartanSpec("nonsplit", mod))
        units = {(a, -b % m, b, (a - b) % m) for a in range(m) for b in range(m)
                 if (a * a - a * b + b * b) % 2}
        assert cartan.order() == len(units) == 3 * 4 ** (n - 1)
        assert set(elements(cartan)) == units
        normalizer = build_cartan(CartanSpec("nonsplit-normalizer", mod))
        assert normalizer.order() == 2 * cartan.order()
        sigma = (1, m - 1, 0, m - 1)
        assert all(mmul(mmul(sigma, g, m), sigma, m) in cartan for g in cartan.gens)
    mod2 = PrimePowerModulus(2, 1)
    assert is_conjugate(build_cartan(CartanSpec("nonsplit", mod2)),
                        record_map["2.2.0.1"].group())[0]


def test_section4_semidirect_order():
    for ell in (3, 5, 7):
        mod = PrimePowerModulus(ell, 2)
        g = build_cartan(CartanSpec("section4-semidirect", mod))
        assert g.order() == 2 * (ell * ell - 1) * ell ** 3
    with pytest.raises(ValueError):
        CartanSpec("section4-semidirect", M7)


def test_section4_semidirect_checked_without_enumeration():
    # build_cartan checks the order from the filtration; at modulus 121 the
    # group has 319,440 elements, so a listing would pass the cap of 10^4
    g = build_cartan(CartanSpec("section4-semidirect", PrimePowerModulus(11, 2)), 10 ** 4)
    assert g.order() == 2 * 120 * 11 ** 3


def test_cartan_spec_validation():
    with pytest.raises(ValueError):
        CartanSpec("nonsplit", M7, epsilon=2)  # 2 is a square mod 7
    with pytest.raises(ValueError):
        CartanSpec("weird", M7)
    for kind in ("split", "split-normalizer", "borel"):
        assert CartanSpec(kind, M7).epsilon is None
        for eps in (2, 3):  # a square and a non-square mod 7: neither is used
            with pytest.raises(ValueError, match="not used"):
                CartanSpec(kind, M7, epsilon=eps)


def test_unit_group_generators():
    for ell, e in ((7, 2), (3, 2), (5, 1), (2, 2), (2, 3), (2, 4)):
        mod = PrimePowerModulus(ell, e)
        gens = unit_group_generators(mod)
        m = mod.modulus
        closure = {1}
        frontier = [1]
        while frontier:
            new = []
            for x in frontier:
                for u in gens:
                    y = x * u % m
                    if y not in closure:
                        closure.add(y)
                        new.append(y)
            frontier = new
        assert len(closure) == mod.unit_count()
    # the least primitive root, as the search that listed its powers found it
    for ell in range(3, 1000):
        if not is_prime(ell):
            continue
        r = 2
        while len({pow(r, k, ell) for k in range(1, ell)}) < ell - 1:
            r += 1
        assert unit_group_generators(PrimePowerModulus(ell, 1)) == [r]
        lifted = r + ell if pow(r, ell - 1, ell * ell) == 1 else r
        assert unit_group_generators(PrimePowerModulus(ell, 2)) == [lifted]


def test_det_image_matches_enumeration():
    # the determinants of the listed elements are the units d with diag(d, 1) in D
    for kind in ("borel", "split-normalizer", "nonsplit"):
        g = build_cartan(CartanSpec(kind, M49))
        dets = {mdet(x, 49) for x in elements(g)}
        image = g.det_image()[0]
        assert image.order() == len(dets)
        assert dets == {d for d in range(49) if d % 7 and (d, 0, 0, 1) in image}


def _normal_digits(filt, x, c):
    "Whether every layer digit D of x, over c mod ell, has D*c^-1 in normal form."
    ell = filt.ell
    cinv = minv(c, ell, ell)
    return all(echelon.reduce(mmul(digit(x, ell ** e, ell), cinv, ell))
               == mmul(digit(x, ell ** e, ell), cinv, ell)
               for e, (echelon, _) in enumerate(filt.layers, 1))


def test_canonical_generators(records, special_records):
    """The filtration's generating set generates the group, and it, the
    canonical lifts and the layer rows with their realisers are the same
    under reversed, rotated and redundant generator lists and a change of
    the conjugate drawn; each canonical lift lies over its element of G(ell)
    and has its digits in normal form, and each realiser lies over its RREF
    row with its deeper digits in normal form."""
    rng = random.Random(11)
    groups = [r.group() for r in records + special_records]
    groups += [build_cartan(CartanSpec(kind, mod)) for kind in CARTAN_KINDS[:5]
               for mod in (M49, PrimePowerModulus(3, 3), PrimePowerModulus(2, 4))]
    for group in groups:
        mod, ell, m = group.mod, group.ell, group.mod.modulus
        filt = group.filtration()
        gens = filt.generators()
        assert MatrixGroup(mod, gens) == group and all(g in group for g in gens), group
        lists = [group.gens[::-1], group.gens[1:] + group.gens[:1],
                 group.gens + tuple(mmul(a, b, m) for a, b in zip(group.gens, group.gens[1:]))]
        bar = sorted(mreduce(t, ell) for t in transversal(filt))
        probes = rng.sample(bar, min(len(bar), 20))
        lifts = [filt.canonical_lift(c) for c in probes]
        for c, t in zip(probes, lifts):
            assert mreduce(t, ell) == c and t in group and _normal_digits(filt, t, c)
        for e, (echelon, rows) in enumerate(filt.layers, 1):
            assert echelon.rows == echelon.rref() == list(rows)
            for r, powers in rows.items():
                b = minv(powers[1], m, ell)
                assert mreduce(b, ell ** e) == IDENTITY and digit(b, ell ** e, ell) == r
                deeper = Filtration((), mod)
                deeper.layers[e:] = filt.layers[e:]
                assert _normal_digits(deeper, b, IDENTITY) and b in group
        for other in lists:
            other = MatrixGroup(mod, other).filtration()
            assert other.generators() == gens, group
            assert [other.canonical_lift(c) for c in probes] == lifts, group
            assert [(e.rows, list(r.values())) for e, r in other.layers] \
                == [(e.rows, list(r.values())) for e, r in filt.layers], group


def _least_by_scan(filt, x, level):
    """The least element of H*x mod ell, H the stabilizer in G(ell) of the
    base points before table `level` (1 or 2), by a scan of the scalar and
    third tables: what generators() read before Filtration.least."""
    ell = filt.ell
    _, scalars, seconds = filt.orbits
    if level == 1:  # the least first row lambda*(1, 0)*x comes first
        x = mmul(scalars[min(scalars, key=lambda s: rowmul((s, 0), x, ell))][0], x, ell)
    return rowmul((1, 0), x, ell) + min(rowmul(w, x, ell) for w in seconds)


class _ScanFiltration(Filtration):
    "A Filtration whose generators() take the table-point representatives from the scan."
    least = _least_by_scan


def _check_least(group):
    """Filtration.least at levels 1 and 2 against the scan at every point of
    the line and scalar tables, and generators() against the generating set
    the scan builds."""
    filt = group.filtration()
    lines, scalars, _ = filt.orbits
    for t, _ in chain(lines.values(), scalars.values()):
        for level in (1, 2):
            assert filt.least(t, level) == _least_by_scan(filt, t, level), (group, t, level)
    assert filt.generators() == _ScanFiltration(group.gens, group.mod).generators(), group


def test_least_against_the_scan(records, special_records):
    groups = [r.group() for r in records + special_records]
    groups += [build_cartan(CartanSpec(kind, PrimePowerModulus.from_int(m)))
               for kind in CARTAN_KINDS[:5]
               for m in (2, 4, 8, 3, 9, 27, 5, 25, 7, 49, 11, 13, 121)]
    groups += [full_gl2(PrimePowerModulus(ell, 1)) for ell in (2, 3, 5, 7, 11, 13)]
    for group in groups:
        _check_least(group)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_least_against_the_scan_on_drawn_groups(data):
    m = data.draw(st.sampled_from(SIFT_MODULI + (11, 13, 121)))
    ell = next(p for p in (2, 3, 5, 7, 11, 13) if m % p == 0)
    gens = data.draw(st.lists(_matrices(m, ell), max_size=3))
    group = MatrixGroup(PrimePowerModulus.from_int(m), gens)
    _check_least(group)
    _check_least(group.adjoin_minus_identity())


def _random_invertible(rng, m, ell):
    while True:
        c = tuple(rng.randrange(m) for _ in range(4))
        if (c[0] * c[3] - c[1] * c[2]) % ell:
            return c


def test_nullspace_solver_against_brute_force():
    # oracle: enumerate all of (Z/m)^4 for tiny m and compare solution sets
    rng = random.Random(5)
    cases = []
    for m in (4, 9, 8):
        for _ in range(8):
            rows = [tuple(rng.randrange(-6, 7) for _ in range(4))
                    for _ in range(rng.randrange(1, 5))]
            cases.append((rows, m))
    # tall stacks as the conjugacy search builds them: the equations
    # c*g = h*c for two or three pairs h = c0*g*c0^-1, topped up to 8-12 rows
    # with ell-divisible rows
    rng = random.Random(103)
    for m, ell in ((25, 5), (27, 3), (8, 2), (9, 3)):
        for pairs in (2, 3):
            c0 = _random_invertible(rng, m, ell)
            rows = []
            for _ in range(pairs):
                g = _random_invertible(rng, m, ell)
                h = mmul(mmul(c0, g, m), minv(c0, m, ell), m)
                rows += _conj_equation_rows(g, h, m)
            while len(rows) < 12 and rng.randrange(3):
                rows.append(tuple(ell * rng.randrange(m) for _ in range(4)))
            cases.append((rows, m))
    for rows, m in cases:
        span = nullspace_span(rows, m)
        for v in span:
            assert all(0 <= x < m for x in v)
            for r in rows:
                assert sum(a * b for a, b in zip(r, v)) % m == 0
        brute = product(range(m), repeat=4)
        for r0, r1, r2, r3 in rows:
            brute = [x for x in brute
                     if (r0 * x[0] + r1 * x[1] + r2 * x[2] + r3 * x[3]) % m == 0]
        spanned = {(0, 0, 0, 0)}
        frontier = [(0, 0, 0, 0)]
        while frontier:
            new = []
            for x in frontier:
                for v in span:
                    y = tuple((a + b) % m for a, b in zip(x, v))
                    if y not in spanned:
                        spanned.add(y)
                        new.append(y)
            frontier = new
        assert spanned == set(brute)


def test_layered_order_matches_enumeration():
    # the kernel-layer order computation and the BFS enumeration are
    # independent routes; they must agree on every named construction
    for kind in ("borel", "split", "split-normalizer", "nonsplit",
                 "nonsplit-normalizer"):
        g = build_cartan(CartanSpec(kind, M49))
        h = MatrixGroup(M49, list(g.gens))
        layered = h.order()           # computed before any enumeration
        assert layered == len(elements(g))


def test_is_conjugate_random_conjugates():
    rng = random.Random(17)
    for mod in (PrimePowerModulus(3, 2), PrimePowerModulus(5, 2), M49):
        m = mod.modulus
        base = build_cartan(CartanSpec("borel", mod))
        while True:
            c = tuple(rng.randrange(m) for _ in range(4))
            if (c[0] * c[3] - c[1] * c[2]) % mod.ell:
                break
        ok, wit = is_conjugate(base, base.conjugated_by(c))
        assert ok and wit is not None


BFS_LIMIT = 4000


def _bfs_closure(gens, m):
    """The plain BFS closure mulclose used to run (every element times every
    generator), or None once it holds more than BFS_LIMIT elements."""
    els = {(1 % m, 0, 0, 1 % m)}
    frontier = list(els)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = mmul(x, g, m)
                if y not in els:
                    els.add(y)
                    new.append(y)
        if len(els) > BFS_LIMIT:
            return None
        frontier = new
    return els


def _matrices(m, ell):
    "Invertible 4-tuples mod m: arbitrary ones and kernel elements I + ell*X."
    anything = st.tuples(*[st.integers(0, m - 1)] * 4)
    kernel = st.tuples(*[st.integers(0, m // ell - 1)] * 4).map(
        lambda x: ((1 + ell * x[0]) % m, ell * x[1] % m, ell * x[2] % m,
                   (1 + ell * x[3]) % m))
    return st.one_of(anything, kernel).filter(lambda a: (a[0] * a[3] - a[1] * a[2]) % ell)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mulclose_and_extend_against_bfs(data):
    m = data.draw(st.sampled_from((4, 8, 9, 25, 27, 49)))
    ell = next(p for p in (2, 3, 5, 7) if m % p == 0)
    gens = data.draw(st.lists(_matrices(m, ell), max_size=3))
    g = data.draw(_matrices(m, ell))
    mul = lambda a, b: mmul(a, b, m)
    old = _bfs_closure(gens, m)
    if old is None:
        with pytest.raises(EnumerationCapError):
            mulclose(gens, m, BFS_LIMIT)
        return
    closed = mulclose(gens, m, BFS_LIMIT)
    assert closed == old
    if len(old) > 1:
        with pytest.raises(EnumerationCapError):
            mulclose(gens, m, len(old) - 1)
    old = _bfs_closure(gens + [g], m)
    if old is None:
        with pytest.raises(EnumerationCapError):
            extend(closed, g, mul, BFS_LIMIT)
        return
    assert extend(closed, g, mul, len(old)) == old
    # the cap is exact: extend raises iff the closure is larger than cap
    if len(old) > len(closed):
        with pytest.raises(EnumerationCapError):
            extend(closed, g, mul, len(old) - 1)


def _level_by_enumeration(els, mod):
    "Level from the element set: the least ell^d whose full preimage it is, or 1."
    ell, n = mod.ell, mod.exponent
    if len(els) == ambient_order(mod):
        return 1
    return next(ell ** d for d in range(1, n + 1)
                if len(els) == len({mreduce(x, ell ** d) for x in els}) * ell ** (4 * (n - d)))


SIFT_MODULI = (2, 4, 8, 16, 3, 9, 27, 5, 25, 7, 49)


def _small_group(data):
    """(modulus, generators, element set) of a random group of at most
    BFS_LIMIT elements, or None when the drawn group is larger."""
    m = data.draw(st.sampled_from(SIFT_MODULI))
    ell = next(p for p in (2, 3, 5, 7) if m % p == 0)
    gens = data.draw(st.lists(_matrices(m, ell), max_size=3))
    els = _bfs_closure(gens, m)
    return None if els is None else (PrimePowerModulus.from_int(m), gens, els)


# G(2) is all of GL2(F_2) and G cap K_1 all of K_1, but the residues the
# chain leaves span only half of K_1 (test_chain_takes_the_normal_closure).
# The two hypothesis tests below run on this group first, every time.
NORMAL_CLOSURE_CASE = (PrimePowerModulus(2, 2), [(0, 1, 1, 0), (0, 1, 1, 1)])

# A generator that the chain finds at its third table (the orbit of (0, 1))
# from a Schreier generator of the line table must join the second table
# too: its conjugates by the second table are Schreier generators of the
# line stabilizer that no table makes otherwise.  Without them the layer of
# this mod-9 group comes out of dimension 2 instead of 3.  Mutation check:
# with Filtration._sift_down extending only the table that misses its point,
# this case fails test_chain_against_two_tables on every run; the drawn
# groups alone caught it in one of three runs with an empty hypothesis
# database.
THIRD_TABLE_CASE = (PrimePowerModulus(3, 2), [(2, 3, 0, 1), (4, 0, 1, 1)])


def _check_sifting(mod, gens, els, probes):
    """Order, level, index, -I and the membership of probes and of a
    non-invertible matrix against the element set els of <gens>."""
    m, ell = mod.modulus, mod.ell
    group = MatrixGroup(mod, gens)
    assert group.order() == len(els)
    assert group.level() == _level_by_enumeration(els, mod)
    assert group.index_in_ambient() * len(els) == ambient_order(mod)
    assert group.contains_minus_identity() == ((m - 1, 0, 0, m - 1) in els)
    for x in list(probes) + [(ell, 0, 0, 1)]:
        assert (x in group) == (x in els)


@settings(max_examples=200, deadline=None)
@given(st.data())
def _sifting_on_drawn_groups(data):
    drawn = _small_group(data)
    if drawn is None:
        return
    mod, gens, els = drawn
    m, ell = mod.modulus, mod.ell
    probes = data.draw(st.lists(_matrices(m, ell), max_size=8))
    probes += data.draw(st.lists(st.sampled_from(sorted(els)), min_size=1, max_size=8))
    _check_sifting(mod, gens, els, probes)


def test_sifting_against_enumeration():
    mod, gens = NORMAL_CLOSURE_CASE
    els = _bfs_closure(gens, mod.modulus)
    _check_sifting(mod, gens, els, sorted(els))
    _sifting_on_drawn_groups()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_equality_without_enumeration(data):
    drawn = _small_group(data)
    if drawn is None:
        return
    mod, gens, els = drawn
    m, ell = mod.modulus, mod.ell
    how = data.draw(st.sampled_from(("regenerate", "drop", "other")))
    if how == "regenerate":
        # the same group from other generators: reversed, with products added
        other = gens[::-1] + [mmul(a, b, m) for a in gens for b in gens]
    elif how == "drop":
        other = gens[:-1]
    else:
        other = data.draw(st.lists(_matrices(m, ell), max_size=3))
    other_els = _bfs_closure(other, m)
    if other_els is None:
        return
    a, b = MatrixGroup(mod, gens), MatrixGroup(mod, other)
    assert (a == b) == (b == a) == (els == other_els)
    if els == other_els:
        assert hash(a) == hash(b)
    assert a != MatrixGroup(PrimePowerModulus(ell, mod.exponent + 1), gens)


class _TableFiltration(Filtration):
    """The filtration as built before the stabilizer chain, kept as an oracle:
    `top` maps every element of G(ell) to a lift in G, found by one BFS that
    carries lifts mod ell^n.  Its Schreier generators span G cap K_1 as a
    subgroup, so they are sifted into the layers with no conjugates."""

    def __init__(self, gens, mod):
        ell, m = mod.ell, mod.modulus
        self.ell, self.m = ell, m
        self.layers = [(Echelon(ell), {}) for _ in range(mod.exponent - 1)]
        self._rows, self._gens = [], []
        top = self.top = {IDENTITY: IDENTITY}
        queue = [IDENTITY]
        for x in queue:
            tx = top[x]
            for g in gens:
                ty = mmul(tx, g, m)
                y = mreduce(ty, ell)
                if y not in top:
                    top[y] = ty
                    queue.append(y)
                elif ty != top[y]:
                    self._sift_in([mmul(ty, minv(top[y], m, ell), m)])

    def sizes(self):
        return len(self.top), [len(echelon) for echelon, _ in self.layers]

    def __contains__(self, g):
        lift = self.top.get(mreduce(g, self.ell))
        return lift is not None and \
            self.reduce(mmul(minv(lift, self.m, self.ell), g, self.m)) == IDENTITY


# Mutation check: with the conjugates g*b*g^-1 dropped from
# Filtration._sift_in, the chain misses part of G cap K_1.  The mod-4 group
# NORMAL_CLOSURE_CASE then fails test_chain_takes_the_normal_closure,
# test_chain_against_lift_table and test_sifting_against_enumeration on every
# run; the drawn groups alone caught it in two of three runs.

def _check_chain(mod, gens, members, probes):
    """The chain of <gens> against the lift table: sizes, the lift of every
    element of G(ell), the transversal, and the membership of members (words
    in gens), of probes and of a non-invertible matrix."""
    m, ell = mod.modulus, mod.ell
    oracle = _TableFiltration(gens, mod)
    group = MatrixGroup(mod, gens)
    filt = group.filtration()
    assert filt.sizes() == oracle.sizes()
    for c in oracle.top:
        t, tinv = filt.lift(c)
        assert mreduce(t, ell) == c
        assert mmul(t, tinv, m) == IDENTITY
        assert t in oracle
    lifts = list(transversal(filt))
    assert sorted(mreduce(t, ell) for t in lifts) == sorted(oracle.top)
    assert all(t in oracle for t in lifts)
    for x in list(members) + list(probes) + [(ell, 0, 0, 1)]:
        assert (filt.lift(x) is None) == (mreduce(x, ell) not in oracle.top)
        assert (x in group) == (x in oracle)
    assert all(x in group for x in members)


@settings(max_examples=200, deadline=None)
@given(st.data())
def _chain_on_drawn_groups(data):
    m = data.draw(st.sampled_from(SIFT_MODULI))
    mod = PrimePowerModulus.from_int(m)
    ell = mod.ell
    gens = data.draw(st.lists(_matrices(m, ell), max_size=3))
    words = st.lists(st.sampled_from(gens), max_size=6) if gens else st.just([])
    members = [reduce(lambda a, b: mmul(a, b, m), w, IDENTITY)
               for w in data.draw(st.lists(words, min_size=1, max_size=4))]
    _check_chain(mod, gens, members, data.draw(st.lists(_matrices(m, ell), max_size=8)))


def test_chain_against_lift_table():
    mod, gens = NORMAL_CLOSURE_CASE
    _check_chain(mod, gens, _bfs_closure(gens, mod.modulus), [])
    _chain_on_drawn_groups()


def test_chain_takes_the_normal_closure():
    # G(2) is all of GL2(F_2) and G cap K_1 all of K_1 (order 16).  The
    # residues the chain leaves span only half of K_1, so without their
    # conjugates by the generators the order comes out as 48.
    group = MatrixGroup(*NORMAL_CLOSURE_CASE)
    assert group.order() == 96 == len(mulclose(group.gens, 4))
    assert len(_TableFiltration(group.gens, group.mod).top) == 6


def _check_adjoin(mod, gens, extra, probes=()):
    """Filtration(gens) grown by adjoin, by the first of extra and then by
    the rest, against Filtration(gens + extra): the same sizes and the same
    membership verdicts on the probes, on a sample of the transversal and on
    that sample moved by each kernel generator I + ell^j*E_i.  Then an empty
    chain grown by gens + extra: each kept element, in input order,
    lies outside the group the ones before it generate, and together they
    generate the group of gens + extra."""
    m, ell = mod.modulus, mod.ell
    whole = Filtration(gens + extra, mod)
    grown = Filtration(gens, mod)
    grown.adjoin(extra[:1])
    grown.adjoin(extra[1:])
    assert grown.sizes() == whole.sizes()
    lifts = list(transversal(whole))
    sample = lifts[::max(1, len(lifts) // 16)]
    kernel = [tuple((a + ell ** j * (i == k)) % m for k, a in enumerate(IDENTITY))
              for j in range(1, mod.exponent) for i in range(4)]
    for x in sample + [mmul(t, k, m) for t in sample for k in kernel] + list(probes):
        assert (grown.sift(x) == IDENTITY) == (whole.sift(x) == IDENTITY), x
    kept = Filtration((), mod).grow(gens + extra, whole.order())
    rest = iter(gens + extra)
    assert all(g in rest for g in kept)  # a subsequence of the input
    assert all(g not in MatrixGroup(mod, kept[:i]) for i, g in enumerate(kept))
    assert MatrixGroup(mod, kept) == MatrixGroup(mod, gens + extra)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_adjoin_against_the_constructor(data):
    m = data.draw(st.sampled_from(SIFT_MODULI))
    mod = PrimePowerModulus.from_int(m)
    gens, extra, probes = (data.draw(st.lists(_matrices(m, mod.ell), max_size=size))
                           for size in (3, 3, 8))
    _check_adjoin(mod, gens, extra, probes)


def test_adjoin_on_the_chain_cases():
    # the residues of NORMAL_CLOSURE_CASE need their conjugates, and
    # THIRD_TABLE_CASE finds a generator at its third table: split each
    # generating list at every point, so that adjoin meets both on a chain
    # that already holds layer rows.  In the mod-9 case only the conjugates
    # of the first generator's layer row by the second fill the layer:
    # without them the grown layer has dimension 1, not 3.
    for mod, gens in (NORMAL_CLOSURE_CASE, THIRD_TABLE_CASE,
                      (PrimePowerModulus(3, 2), [(4, 6, 0, 4), (1, 3, 5, 4)])):
        gens = gens + [mmul(a, b, mod.modulus) for a, b in zip(gens, gens[1:])]
        for k in range(len(gens) + 1):
            _check_adjoin(mod, gens[:k], gens[k:], _bfs_closure(gens, mod.modulus) or ())


class _TwoTableFiltration(Filtration):
    """The chain as built before the line table, kept as an oracle.  Its
    base is the rows (1, 0) and (0, 1): `orbits[0]` is the orbit O_1 of
    (1, 0) under G, up to ell^2 - 1 rows, and `orbits[1]` the orbit O_2 of
    (0, 1) under the stabilizer G_1 of (1, 0).  The layers and their sifting
    are Filtration's; `schreier` counts the Schreier generators sifted."""

    def __init__(self, gens, mod):
        ell, m = mod.ell, mod.modulus
        self.ell, self.m = ell, m
        self.layers = [(Echelon(ell), {}) for _ in range(mod.exponent - 1)]
        self._rows = []
        self._gens = [(g, minv(g, m, ell)) for g in gens]
        self.orbits = ({(1, 0): (IDENTITY, IDENTITY)}, {(0, 1): (IDENTITY, IDENTITY)})
        self._chain_gens = ([], [])
        self.schreier = 0
        self._extend(0, self._gens)

    def _extend(self, level, new):
        ell, m = self.ell, self.m
        table, gens = self.orbits[level], self._chain_gens[level]
        gens += new
        todo = [(v, new) for v in table]
        for v, moves in todo:
            t, tinv = table[v]
            for g, ginv in moves:
                w, tg = rowmul(v, g, ell), mmul(t, g, m)
                old = table.get(w)
                if old is None:
                    table[w] = (tg, mmul(ginv, tinv, m))
                    todo.append((w, gens))
                elif tg != old[0]:
                    self.schreier += 1
                    s = mmul(tg, old[1], m)
                    if level == 0:
                        lift = self.orbits[1].get((s[2] % ell, s[3] % ell))
                        if lift is None:
                            self._extend(1, [(s, minv(s, m, ell))])
                            continue
                        s = mmul(s, lift[1], m)
                    self._sift_in([s])

    def lift(self, c):
        ell, m = self.ell, self.m
        one = self.orbits[0].get((c[0] % ell, c[1] % ell))
        if one is None:
            return None
        t1, t1inv = one
        two = self.orbits[1].get(rowmul((c[2], c[3]), t1inv, ell))
        if two is None:
            return None
        t2, t2inv = two
        return mmul(t2, t1, m), mmul(t1inv, t2inv, m)

    def transversal(self):
        for t1, _ in self.orbits[0].values():
            for t2, _ in self.orbits[1].values():
                yield mmul(t2, t1, self.m)

    def sizes(self):
        return (len(self.orbits[0]) * len(self.orbits[1]),
                [len(echelon) for echelon, _ in self.layers])

    def __contains__(self, x):
        lift = self.lift(x)
        return lift is not None and self.reduce(mmul(lift[1], x, self.m)) == IDENTITY


def _check_against_two_tables(mod, gens, probes=()):
    """The chain of <gens> against the two-table oracle: sizes, the lift of
    every element of G(ell), the transversal's coverage of G(ell), and the
    membership of probes, of a sample of the transversal moved by each
    kernel generator I + ell^j*E_i, and of a non-invertible matrix."""
    m, ell = mod.modulus, mod.ell
    oracle = _TwoTableFiltration(gens, mod)
    group = MatrixGroup(mod, gens)
    filt = group.filtration()
    assert filt.sizes() == oracle.sizes()
    top = sorted(mreduce(t, ell) for t in oracle.transversal())
    for c in top:
        t, tinv = filt.lift(c)
        assert mreduce(t, ell) == c and mmul(t, tinv, m) == IDENTITY and t in oracle
    lifts = list(transversal(filt))
    assert sorted(mreduce(t, ell) for t in lifts) == top
    kernel = [tuple((a + ell ** j * (i == k)) % m for k, a in enumerate(IDENTITY))
              for j in range(1, mod.exponent) for i in range(4)]
    sample = lifts[::max(1, len(lifts) // 16)]
    moved = [mmul(t, k, m) for t in sample for k in kernel]
    for x in sample + moved + list(probes) + [(ell, 0, 0, 1)]:
        assert (x in group) == (x in oracle)


def _random_unit(rng, mod):
    "A random element of GL2(Z/ell^n)."
    m = mod.modulus
    while True:
        c = tuple(rng.randrange(m) for _ in range(4))
        if (c[0] * c[3] - c[1] * c[2]) % mod.ell:
            return c


@settings(max_examples=150, deadline=None)
@given(st.data())
def _two_tables_on_drawn_groups(data):
    m = data.draw(st.sampled_from(SIFT_MODULI))
    mod = PrimePowerModulus.from_int(m)
    gens = data.draw(st.lists(_matrices(m, mod.ell), max_size=3))
    _check_against_two_tables(mod, gens, data.draw(st.lists(_matrices(m, mod.ell), max_size=8)))


def test_chain_against_two_tables():
    mod, gens = THIRD_TABLE_CASE
    assert Filtration(gens, mod).sizes() == (6, [3])
    assert MatrixGroup(mod, gens).order() == 162 == len(mulclose(gens, 9))
    for mod, gens in (THIRD_TABLE_CASE, NORMAL_CLOSURE_CASE):
        _check_against_two_tables(mod, gens, _bfs_closure(gens, mod.modulus))
    _two_tables_on_drawn_groups()


def test_chain_against_two_tables_on_records(records, special_records):
    rng = random.Random(43)
    for rec in records + special_records:
        group = rec.group()
        for _ in range(5):
            _check_against_two_tables(group.mod, group.conjugated_by(
                _random_unit(rng, group.mod)).gens)


def test_chain_against_two_tables_on_cartans():
    for kind in CARTAN_KINDS:
        for m in (7, 9, 25, 49, 289, 1331):
            mod = PrimePowerModulus.from_int(m)
            if kind != "section4-semidirect" or mod.exponent == 2:
                _check_against_two_tables(mod, build_cartan(CartanSpec(kind, mod)).gens)


def test_chain_cost_follows_ell(record_map, monkeypatch):
    # 37.114.4.2 moves (1, 0) to 1,332 rows, so the two-table chain sifts
    # about 1,450 Schreier generators; the three tables hold 37 + 36 + 12.
    calls = []
    real = Filtration._sift_down
    monkeypatch.setattr(Filtration, "_sift_down",
                        lambda self, level, s: calls.append(level) or real(self, level, s))
    group = record_map["37.114.4.2"].group()
    ell = group.ell
    rng = random.Random(37)
    for _ in range(10):
        conj = group.conjugated_by(_random_unit(rng, group.mod))
        del calls[:]
        filt = conj.filtration()
        assert sum(map(len, filt.orbits)) <= (ell + 1) + (ell - 1) + ell * (ell - 1)
        assert len(calls) < 400 < _TwoTableFiltration(conj.gens, conj.mod).schreier
