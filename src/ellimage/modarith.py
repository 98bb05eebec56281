"""Exact arithmetic for scalars and 2x2 matrices over Z/m, m a prime power.

A matrix is a plain 4-tuple (m11, m12, m21, m22) of representatives in
[0, m); every helper re-canonicalizes, so equality and hashing are
structural.  digit and kernel_element are the one format of the congruence
layers K_e/K_(e+1).

All linear algebra of the package lives here too: nullspace_span solves
linear systems over the chain ring Z/m, and Echelon is the one F_ell echelon
form (span membership, reduction and normal forms, canonical subspace bases).
"""

from collections import namedtuple
from itertools import product
from math import gcd

from .errors import NotInvertibleError

# Squares of entries must stay inside native 64-bit integers.  The tests run
# moduli up to 4913 and lattice-check reaches Borel(1009), far below it.
MAX_MODULUS = 3_037_000_499


def is_prime(n):
    """Deterministic Miller-Rabin, valid for n < 3.2e9 with bases 2,3,5,7."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimePowerModulus(namedtuple("PrimePowerModulus", "ell exponent")):
    """m = ell**exponent with exponent >= 1."""

    __slots__ = ()

    def __new__(cls, ell, exponent):
        if not is_prime(ell):
            raise ValueError("ell = %r is not prime" % (ell,))
        if exponent < 1:
            raise ValueError("exponent must be >= 1")
        if ell ** exponent > MAX_MODULUS:
            raise ValueError("modulus %d**%d too large" % (ell, exponent))
        return super().__new__(cls, ell, exponent)

    @property
    def modulus(self):
        return self.ell ** self.exponent

    @classmethod
    def from_int(cls, m):
        """The modulus ell**e equal to m; ValueError unless m is a prime power
        in [2, MAX_MODULUS]."""
        if not 2 <= m <= MAX_MODULUS:
            raise ValueError("modulus must be a prime power in [2, %d], got %d"
                             % (MAX_MODULUS, m))
        (ell, e), *rest = factorize(m).items()
        if rest:
            raise ValueError("%d is not a prime power" % m)
        return cls(ell, e)

    def divides(self, other):
        return self.ell == other.ell and self.exponent <= other.exponent

    def unit_count(self):
        "Order of (Z/m)^x."
        return self.ell ** (self.exponent - 1) * (self.ell - 1)

    def __str__(self):
        return str(self.modulus)


# ---------------------------------------------------------------------------
# matrix helpers

IDENTITY = (1, 0, 0, 1)
M2_BASIS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def mmul(a, b, m):
    return (
        (a[0] * b[0] + a[1] * b[2]) % m,
        (a[0] * b[1] + a[1] * b[3]) % m,
        (a[2] * b[0] + a[3] * b[2]) % m,
        (a[2] * b[1] + a[3] * b[3]) % m,
    )


def mdet(a, m):
    return (a[0] * a[3] - a[1] * a[2]) % m


def scalar_inv(x, m, ell):
    if x % ell == 0:
        raise NotInvertibleError("%d is not a unit mod %d" % (x, m))
    return pow(x, -1, m)


def minv(a, m, ell):
    d = mdet(a, m)
    di = scalar_inv(d, m, ell)
    return ((a[3] * di) % m, (-a[1] * di) % m, (-a[2] * di) % m, (a[0] * di) % m)


def mpow(a, e, m):
    if e < 0:
        raise ValueError("use minv for negative powers")
    r = IDENTITY
    while e:
        if e & 1:
            r = mmul(r, a, m)
        a = mmul(a, a, m)
        e >>= 1
    return r


def mneg(a, m):
    return ((-a[0]) % m, (-a[1]) % m, (-a[2]) % m, (-a[3]) % m)


def mvec(a, v, m):
    "Matrix acting on a column vector from the left."
    return ((a[0] * v[0] + a[1] * v[1]) % m, (a[2] * v[0] + a[3] * v[1]) % m)


def rowmul(v, a, m):
    "Row vector times a matrix (the matrix acting from the right)."
    return ((v[0] * a[0] + v[1] * a[2]) % m, (v[0] * a[1] + v[1] * a[3]) % m)


def digit(x, q, ell):
    """The base-ell digit at q of each entry of x.  For a matrix x = I mod q,
    q = ell^e, this is the coordinate vector of x in K_e/K_(e+1) ~ M2(F_ell)."""
    return tuple([a // q % ell for a in x])


def kernel_element(Y, q, m):
    "I + q*Y mod m: the element of K_e, q = ell^e, over the coordinate vector Y."
    return (1 + q * Y[0]) % m, q * Y[1] % m, q * Y[2] % m, (1 + q * Y[3]) % m


def factorize(n):
    "{prime: exponent} of n >= 1 by trial division, primes in increasing order."
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def morder(a, mod):
    """Least k >= 1 with a**k = I.  Requires a invertible.

    The order k of a mod ell divides ell*(ell^2 - 1), the exponent of
    GL2(F_ell), and is found by peeling the primes of that number.  a**k
    lies in the kernel of reduction mod ell, whose e-th layer the ell-th
    power maps into the (e+1)-th, so the order is k*ell^j for the least j
    with (a**k)**(ell^j) = I, and j <= n - 1.
    """
    ell, n, m = mod.ell, mod.exponent, mod.modulus
    if mdet(a, m) % ell == 0:
        raise NotInvertibleError("matrix %r has non-unit determinant" % (a,))
    a1 = mreduce(a, ell)
    order = ell * (ell * ell - 1)
    for p in {ell, *factorize(ell - 1), *factorize(ell + 1)}:
        while order % p == 0 and mpow(a1, order // p, ell) == IDENTITY:
            order //= p
    b = mpow(a, order, m)
    for _ in range(n - 1):
        if b == IDENTITY:
            break
        b = mpow(b, ell, m)
        order *= ell
    if b != IDENTITY:
        raise ArithmeticError("order computation failed for %r mod %d" % (a, m))
    return order


def mreduce(a, m_target):
    return (a[0] % m_target, a[1] % m_target, a[2] % m_target, a[3] % m_target)


# ---------------------------------------------------------------------------
# linear algebra on coordinate vectors

def lincomb(coeffs, vectors, m):
    "Sum of c * v over the pairs of coeffs and vectors, mod m."
    return tuple(sum(c * v[i] for c, v in zip(coeffs, vectors)) % m for i in range(4))


def nullspace_span(rows, m, width=None):
    """Spanning vectors of {x in (Z/m)^w : r.x = 0 mod m for every row r},
    for m a prime power; w is the length of the rows, or `width` when there
    are none.

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


class Echelon:
    """Echelon basis of the F_ell-span of coordinate vectors of one length.

    `rows` are sorted by pivot (the first nonzero coordinate) and are not
    back-substituted: they are the pivot-sorted echelon form of the vectors
    in the order they were added.
    """

    def __init__(self, ell, vectors=()):
        self.ell = ell
        self._pivots = []   # (pivot, inverse of the pivot entry, row)
        for v in vectors:
            if len(self._pivots) == len(v):
                break
            self.add(v)

    def __len__(self):
        return len(self._pivots)

    @property
    def rows(self):
        return [b for _, _, b in self._pivots]

    def reduce(self, v, steps=None):
        """v minus the combination of rows that clears every pivot coordinate;
        mod ell this is the normal form of v modulo the span.  When `steps` is
        a list, the pairs (row, f) with reduce(v) = v - sum of f*row are
        appended to it in pivot order."""
        ell = self.ell
        for p, inv, b in self._pivots:
            f = v[p] * inv % ell
            if f:
                v = [(x - f * y) % ell for x, y in zip(v, b)]
                if steps is not None:
                    steps.append((b, f))
        return tuple(v)

    def normal_forms(self, width):
        """The vectors of length `width` over F_ell that are zero at every
        pivot, lazily in itertools.product order: one in each coset of the
        span, and each its own reduce()."""
        pivots = {p for p, _, _ in self._pivots}
        return product(*[(0,) if i in pivots else range(self.ell) for i in range(width)])

    def __contains__(self, v):
        return not any(x % self.ell for x in self.reduce(v))

    def add(self, v):
        "Adds v when it is independent mod ell; returns the added row or None."
        v = self.reduce([x % self.ell for x in v])
        for p, x in enumerate(v):
            if x:
                self._pivots.append((p, pow(x, -1, self.ell), v))
                self._pivots.sort()
                return v
        return None

    def rref(self):
        "Reduced row echelon rows over F_ell: the canonical basis of the span."
        ell = self.ell
        done = Echelon(ell)
        # back-substitute from the last pivot; rows below are 0 at pivot p
        for p, inv, b in reversed(self._pivots):
            b = done.reduce(b)
            done._pivots.insert(0, (p, 1, tuple(x * inv % ell for x in b)))
        return done.rows
