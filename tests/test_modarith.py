import random

import pytest
from hypothesis import given, settings, strategies as st

from ellimage.errors import ModulusMismatchError, NotInvertibleError
from ellimage.gl2 import ambient_order
from ellimage.modarith import (IDENTITY, MAX_MODULUS, PrimePowerModulus, ResidueMatrix,
                               factorize, is_prime, mdet, mmul, morder, mpow)

M49 = PrimePowerModulus(7, 2)
M7 = PrimePowerModulus(7, 1)


def mk(entries, mod=M49):
    return ResidueMatrix.make(entries, mod)


def test_modulus_validation():
    with pytest.raises(ValueError):
        PrimePowerModulus(6, 1)
    with pytest.raises(ValueError):
        PrimePowerModulus(7, -1)
    with pytest.raises(ValueError):
        PrimePowerModulus(3, 40)  # beyond the machine-size ceiling
    assert PrimePowerModulus(7, 0).modulus == 1


def test_mul_identity_and_inverse():
    ident = ResidueMatrix.identity(M49)
    g = mk((1, 0, 37, 48))
    assert ident * g == g
    assert g * g.inv() == ident
    # the generator has eigenvalues 1 and -1, so its square is the identity
    assert g * g == ident


def test_mul_modulus_mismatch():
    with pytest.raises(ModulusMismatchError):
        mk((1, 0, 0, 1)) * ResidueMatrix.identity(M7)


def test_det_examples():
    assert ResidueMatrix.identity(M49).det() == 1
    assert mk((1, 0, 37, 48)).det() == 48
    assert mk((22, 0, 0, 22)).det() == 43


def test_inv_examples():
    assert mk((2, 0, 0, 1)).inv() == mk((25, 0, 0, 1))
    with pytest.raises(NotInvertibleError):
        mk((7, 0, 0, 1)).inv()


def test_order_examples():
    assert ResidueMatrix.identity(M7).order() == 1
    assert ResidueMatrix.make((0, -1, 1, 0), M7).order() == 4
    assert ResidueMatrix.make((0, -1, 1, -1), M7).order() == 3
    with pytest.raises(NotInvertibleError):
        mk((7, 0, 0, 1)).order()


def test_reduce_examples():
    g = mk((1, 0, 37, 48))
    assert g.reduce_to(M49) == g
    assert g.reduce_to(M7) == ResidueMatrix.make((1, 0, 2, 6), M7)
    one = PrimePowerModulus(7, 0)
    assert g.reduce_to(one).entries == (0, 0, 0, 0)
    with pytest.raises(ModulusMismatchError):
        ResidueMatrix.identity(M7).reduce_to(M49)


def _random_invertible(rng, mod):
    while True:
        entries = tuple(rng.randrange(mod.modulus) for _ in range(4))
        m = ResidueMatrix.make(entries, mod)
        if m.is_invertible():
            return m


def test_associativity_and_det_multiplicative():
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (_random_invertible(rng, M49) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert (a * b).det() == a.det() * b.det() % 49


def test_reduction_is_ring_hom():
    rng = random.Random(11)
    for _ in range(40):
        a, b = (_random_invertible(rng, M49) for _ in range(2))
        assert (a * b).reduce_to(M7) == a.reduce_to(M7) * b.reduce_to(M7)
        assert a.reduce_to(M7).det() == a.det() % 7


def test_order_divides_group_order():
    rng = random.Random(13)
    total = ambient_order(M49)
    for _ in range(40):
        assert total % _random_invertible(rng, M49).order() == 0


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
    m = ResidueMatrix.make((-1, 49, 50, 100), M49)
    assert m.entries == (48, 0, 1, 2)
    with pytest.raises(ValueError):
        ResidueMatrix(49, 0, 0, 1, M49)


def _f_span(vectors, ell):
    "Brute-force F_ell-span of 4-vectors."
    span = {(0, 0, 0, 0)}
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


def test_factorize_and_from_int():
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
    assert PrimePowerModulus.from_int(3_037_000_493) == PrimePowerModulus(3_037_000_493, 1)
    for bad in (1, 12, MAX_MODULUS + 1):
        with pytest.raises(ValueError):
            PrimePowerModulus.from_int(bad)
