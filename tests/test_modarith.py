import math
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ellimage import modarith
from ellimage.errors import ModulusMismatchError, NotInvertibleError
from ellimage.gl2 import MatrixGroup, ambient_order
from ellimage.modarith import (IDENTITY, MAX_MODULUS, Echelon, PrimePowerModulus, digit,
                               factorize, is_prime, kernel_element, mdet, minv, mmul, morder,
                               mpow, mreduce, nullspace, solutions)

M49 = PrimePowerModulus(7, 2)
M7 = PrimePowerModulus(7, 1)


def test_modulus_validation():
    with pytest.raises(ValueError):
        PrimePowerModulus(6, 1)
    with pytest.raises(ValueError):
        PrimePowerModulus(7, -1)
    with pytest.raises(ValueError):
        PrimePowerModulus(3, 40)  # beyond the machine-size ceiling


def test_mul_identity_and_inverse():
    g = (1, 0, 37, 48)
    assert mmul(IDENTITY, g, 49) == mmul(g, IDENTITY, 49) == g
    assert mmul(g, minv(g, 49, 7), 49) == IDENTITY
    # the generator has eigenvalues 1 and -1, so its square is the identity
    assert mmul(g, g, 49) == IDENTITY


def test_det_examples():
    assert mdet(IDENTITY, 49) == 1
    assert mdet((1, 0, 37, 48), 49) == 48
    assert mdet((22, 0, 0, 22), 49) == 43


def test_inv_examples():
    assert minv((2, 0, 0, 1), 49, 7) == (25, 0, 0, 1)
    with pytest.raises(NotInvertibleError):
        minv((7, 0, 0, 1), 49, 7)


def test_order_examples():
    assert morder(IDENTITY, M7) == 1
    assert morder(mreduce((0, -1, 1, 0), 7), M7) == 4
    assert morder(mreduce((0, -1, 1, -1), 7), M7) == 3
    with pytest.raises(NotInvertibleError):
        morder((7, 0, 0, 1), M49)


def test_reduce_examples():
    g = (1, 0, 37, 48)
    assert mreduce(g, 49) == g
    assert mreduce(g, 7) == (1, 0, 2, 6)
    assert mreduce(g, 1) == (0, 0, 0, 0)
    # reduction of a group goes to divisors of its modulus only
    with pytest.raises(ModulusMismatchError):
        MatrixGroup(M7, [g]).reduce_to(M49)


def _random_invertible(rng, mod):
    while True:
        a = tuple(rng.randrange(mod.modulus) for _ in range(4))
        if mdet(a, mod.modulus) % mod.ell:
            return a


def test_associativity_and_det_multiplicative():
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (_random_invertible(rng, M49) for _ in range(3))
        assert mmul(mmul(a, b, 49), c, 49) == mmul(a, mmul(b, c, 49), 49)
        assert mdet(mmul(a, b, 49), 49) == mdet(a, 49) * mdet(b, 49) % 49


def test_reduction_is_ring_hom():
    rng = random.Random(11)
    for _ in range(40):
        a, b = (_random_invertible(rng, M49) for _ in range(2))
        assert mreduce(mmul(a, b, 49), 7) == mmul(mreduce(a, 7), mreduce(b, 7), 7)
        assert mdet(mreduce(a, 7), 7) == mdet(a, 49) % 7


def test_order_divides_group_order():
    rng = random.Random(13)
    total = ambient_order(M49)
    for _ in range(40):
        assert total % morder(_random_invertible(rng, M49), M49) == 0


def _old_morder(a, mod):
    "The order by peeling the primes of |GL2(Z/m)|, which morder replaced."
    m = mod.modulus
    e = mod.ell ** (4 * mod.exponent - 3) * (mod.ell - 1) * (mod.ell ** 2 - 1)
    assert mpow(a, e, m) == IDENTITY
    order = e
    for p in factorize(e):
        while order % p == 0 and mpow(a, order // p, m) == IDENTITY:
            order //= p
    return order


def _stepped_order(a, m):
    "The order by multiplying by a until the identity comes back."
    x, k = a, 1
    while x != IDENTITY:
        x, k = mmul(x, a, m), k + 1
    return k


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_morder_against_old_and_stepping(data):
    m = data.draw(st.sampled_from((2, 4, 16, 3, 27, 5, 25, 125, 7, 49, 343, 13, 37)))
    mod = PrimePowerModulus.from_int(m)
    ell = mod.ell
    anything = st.tuples(*[st.integers(0, m - 1)] * 4)
    # kernel elements I + ell*X and scalars reach the ell-power steps and
    # the orders 1 and ell^j more often than arbitrary matrices
    kernel = st.tuples(*[st.integers(0, m // ell - 1)] * 4).map(
        lambda x: ((1 + ell * x[0]) % m, ell * x[1] % m, ell * x[2] % m,
                   (1 + ell * x[3]) % m))
    scalar = st.integers(1, m - 1).map(lambda x: (x, 0, 0, x))
    a = data.draw(st.one_of(anything, kernel, scalar))
    if mdet(a, m) % ell == 0:
        with pytest.raises(NotInvertibleError):
            morder(a, mod)
        return
    order = morder(a, mod)
    assert order == _old_morder(a, mod)
    if m <= 49:
        assert order == _stepped_order(a, m)


def test_entries_canonicalized():
    assert mreduce((-1, 49, 50, 100), 49) == (48, 0, 1, 2)


def _f_span(vectors, ell, width=4):
    "Brute-force F_ell-span of vectors of the given width."
    span = {(0,) * width}
    for v in vectors:
        span = {tuple((a + c * b) % ell for a, b in zip(w, v))
                for w in span for c in range(ell)}
    return span


def test_echelon_against_brute_force_span():
    from ellimage.modarith import Echelon
    rng = random.Random(19)
    for ell, m in ((2, 8), (3, 9), (5, 25), (7, 49)):
        for _ in range(10):
            vecs = [tuple(rng.randrange(m) for _ in range(4))
                    for _ in range(rng.randrange(1, 6))]
            if rng.randrange(2):
                vecs.append(tuple(3 * x for x in vecs[0]))  # a dependent vector
            span = _f_span(vecs, ell)
            ech = Echelon(ell, vecs)
            pivots = [next(i for i in range(4) if b[i]) for b in ech.rows]
            assert pivots == sorted(set(pivots))
            assert _f_span(ech.rows, ell) == span
            assert ech.rref() == Echelon(ell, vecs[::-1]).rref()
            for w in list(span)[:20] + [tuple(rng.randrange(ell) for _ in range(4))]:
                assert (w in ech) == (w in span)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_digit_reads_back_kernel_element(data):
    """I + q*Y lies in K_e, q = ell^e, and its digit at q is Y mod ell, at
    every layer e of Z/ell^n."""
    ell = data.draw(st.sampled_from((2, 3, 5, 7)))
    n = data.draw(st.integers(2, 5))
    e = data.draw(st.integers(1, n - 1))
    q, m = ell ** e, ell ** n
    Y = tuple(data.draw(st.lists(st.integers(0, m // q - 1), min_size=4, max_size=4)))
    x = kernel_element(Y, q, m)
    assert all(0 <= a < m for a in x)
    assert mreduce(x, q) == IDENTITY
    assert digit(x, q, ell) == tuple(y % ell for y in Y)
    assert digit(kernel_element(digit(x, q, ell), q, m), q, ell) == digit(x, q, ell)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_echelon_normal_forms(data):
    """The normal forms are the vectors that reduce to themselves, in
    itertools.product order, one in each coset of the span."""
    ell = data.draw(st.sampled_from((2, 3, 5, 7)))
    width = data.draw(st.integers(1, 4))
    vecs = data.draw(st.lists(st.lists(st.integers(0, ell * ell - 1), min_size=width,
                                       max_size=width), max_size=4))
    ech = Echelon(ell, vecs)
    forms = list(ech.normal_forms(width))
    assert forms == [v for v in product(range(ell), repeat=width) if ech.reduce(v) == v]
    assert len(forms) == ell ** (width - len(ech))
    span = _f_span(vecs, ell, width)
    cosets = {frozenset(tuple((a + b) % ell for a, b in zip(v, w)) for w in span)
              for v in forms}
    assert len(cosets) == len(forms)


def _f_solutions(rows, ell, width):
    """Brute-force {x in F_ell^width : r.x = 0 for every row r}, meeting in
    the middle: x = (x1, x2) solves the rows when the partial products of x1
    and x2 cancel, so each half is enumerated once."""
    half = width // 2
    halves = lambda lo, hi: product(range(ell), repeat=hi - lo)
    partial = lambda x, lo: tuple(sum(a * b for a, b in zip(r[lo:], x)) % ell for r in rows)
    right = {}
    for x2 in halves(half, width):
        right.setdefault(partial(x2, half), []).append(x2)
    return {x1 + x2 for x1 in halves(0, half)
            for x2 in right.get(tuple(-y % ell for y in partial(x1, 0)), ())}


def test_echelon_and_nullspace_of_any_width():
    rng = random.Random(23)
    for ell in (2, 3, 5, 7):
        for width in range(1, 9):
            # empty inputs: no equation leaves the whole space, no pair none
            assert nullspace([], ell, width) == [tuple(int(i == j) for j in range(width))
                                                 for i in range(width)]
            assert solutions([], ell) == []
            for _ in range(4):
                # few vectors, so that the brute-force span stays small
                vecs = [tuple(rng.randrange(ell) for _ in range(width))
                        for _ in range(rng.randrange(1, 4))]
                ech = Echelon(ell, vecs)
                span = _f_span(vecs, ell, width)
                assert _f_span(ech.rows, ell, width) == span
                assert len(ech) == round(math.log(len(span), ell))
                probes = list(span)[:10] + [tuple(rng.randrange(ell) for _ in range(width))]
                assert all((w in ech) == (w in span) for w in probes)
                # enough rows that the solution space stays small as well
                rows = [tuple(rng.randrange(ell) for _ in range(width))
                        for _ in range(rng.randrange(max(0, width - 3), width + 2))]
                null = nullspace(rows, ell, width)
                assert all(len(v) == width for v in null)
                assert len(Echelon(ell, null)) == len(null)  # a basis
                assert _f_span(null, ell, width) == _f_solutions(rows, ell, width)
                # solutions on pairs (y_i, c_i) with c_i independent, not unit
                # vectors: the combinations sum x_i c_i with sum x_i y_i = 0
                ys = [tuple(rng.randrange(ell) for _ in range(width)) for _ in ech.rows]
                sols = solutions(list(zip(ys, ech.rows)), ell)
                want = {tuple(sum(x * c[i] for x, c in zip(xs, ech.rows)) % ell
                              for i in range(width))
                        for xs in product(range(ell), repeat=len(ys))
                        if not any(sum(x * y[i] for x, y in zip(xs, ys)) % ell
                                   for i in range(width))}
                assert len(Echelon(ell, sols)) == len(sols)
                assert _f_span(sols, ell, width) == want


def test_is_prime_against_sieve():
    sieve = [False, False] + [True] * (10 ** 4 - 2)
    for p in range(2, 100):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, 10 ** 4, p))
    assert [n for n in range(-5, 10 ** 4) if is_prime(n)] == \
        [n for n in range(10 ** 4) if sieve[n]]
    for carmichael in (561, 1105, 41041):
        assert not is_prime(carmichael)
    assert is_prime(3_037_000_493)  # the largest prime below MAX_MODULUS
    assert not is_prime(MAX_MODULUS)


def test_factorize_and_from_int(monkeypatch):
    cases = {1: {}, 12: {2: 2, 3: 1}, 2 ** 10: {2: 10}, 343: {7: 3},
             3_037_000_493: {3_037_000_493: 1}}
    for n, want in cases.items():
        assert factorize(n) == want
    top = factorize(MAX_MODULUS + 1)
    assert all(is_prime(p) for p in top)
    assert list(top) == sorted(top)
    prod = 1
    for p, e in top.items():
        prod *= p ** e
    assert prod == MAX_MODULUS + 1
    assert PrimePowerModulus.from_int(2 ** 10) == PrimePowerModulus(2, 10)
    assert PrimePowerModulus.from_int(343) == PrimePowerModulus(7, 3)
    # from_int factors m once: ell needs no second primality proof
    calls = []
    monkeypatch.setattr(modarith, "factorize", lambda n: calls.append(n) or factorize(n))
    top = PrimePowerModulus.from_int(3_037_000_493)
    assert calls == [3_037_000_493]
    assert top == PrimePowerModulus(3_037_000_493, 1)
    range_error = "modulus must be a prime power in [2, 3037000499], got %d"
    for bad, message in ((1, range_error % 1), (6, "6 is not a prime power"),
                         (12, "12 is not a prime power"),
                         (MAX_MODULUS + 1, range_error % (MAX_MODULUS + 1)),
                         (3_037_000_507, range_error % 3_037_000_507)):  # a prime
        with pytest.raises(ValueError) as err:
            PrimePowerModulus.from_int(bad)
        assert str(err.value) == message
