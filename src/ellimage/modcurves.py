"""Genus and map-degree invariants of the modular curves X1(N), X0(N), X_G.

Closed formulas handle X1(N) and X0(N).  For an arbitrary subgroup the genus
is computed from the action on the right cosets of (+-G cap SL2) in
SL2(Z/N): mu is the coset count, nu2/nu3 count cosets fixed by the standard
order-4/order-3 elements s = [0 -1; 1 0] and t = [0 -1; 1 -1], and nu_inf
counts orbits of u = [1 1; 0 1].  X_G depends only on +-G, so H is taken as
(G cap SL2) together with its negatives, which is +-G cap SL2.  Cosets here
are right cosets Hx with the right multiplication action.  Hx is the part in
SL2 of the coset +-G*x in GL2, whose canonical representative
gl2._right_coset_key reads from the stabilizer chain of +-G(ell) and the
layer reduction of the group's congruence filtration (gl2.Filtration), so
neither SL2(Z/N) nor G is listed; an orbit BFS from H under s and u finds
the mu cosets (P^1-style coset enumeration, as for Gamma0 in
Diamond-Shurman ch. 3).  The Borel-vs-X0 and Gamma1-shape-vs-X1 oracle
tests pin this convention against the closed formulas, and the tests keep
an SL2-enumerating coset count as an oracle.
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .gl2 import DEFAULT_CAP, _right_coset_key, ambient_order, orbit
from .modarith import IDENTITY, factorize, mmul, mreduce


def _euler_phi(n):
    r = n
    for p in factorize(n):
        r -= r // p
    return r


def _legendre(a, p):
    "Legendre symbol for odd prime p."
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _genus(g, what):
    "g as an int; ArithmeticError unless it is a non-negative integer."
    if g.denominator != 1 or g < 0:
        raise ArithmeticError("genus of %s came out as %s" % (what, g))
    return int(g)


def genus_X0(N):
    "Genus of X0(N) by the classical index/elliptic-point/cusp counts."
    if N < 1:
        raise ValueError("N must be >= 1")
    if N == 1:
        return 0
    primes = factorize(N)
    mu = N
    for p in primes:
        mu += mu // p
    if N % 4 == 0:
        nu2 = 0
    else:
        nu2 = 1
        for p in primes:
            if p == 2:
                continue
            nu2 *= 1 + _legendre(-1, p)
    if N % 9 == 0:
        nu3 = 0
    else:
        nu3 = 1
        for p in primes:
            if p == 3:
                continue
            if p == 2:
                nu3 = 0
                break
            nu3 *= 1 + _legendre(-3, p)
    nu_inf = sum(_euler_phi(gcd(d, N // d)) for d in range(1, N + 1) if N % d == 0)
    g = 1 + Fraction(mu, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(nu_inf, 2)
    return _genus(g, N)


def genus_X1(N):
    "Genus of X1(N); zero for N <= 4 where the generic formulas degenerate."
    if N < 1:
        raise ValueError("N must be >= 1")
    if N <= 4:
        return 0
    mu = Fraction(N * N, 2)
    for p in factorize(N):
        mu *= Fraction(p * p - 1, p * p)
    nu_inf = Fraction(sum(_euler_phi(d) * _euler_phi(N // d)
                          for d in range(1, N + 1) if N % d == 0), 2)
    g = 1 + mu / 12 - nu_inf / 2
    return _genus(g, N)


class MapDegreeSpec(namedtuple("MapDegreeSpec", "family a b")):
    """Natural map X_family(a*b) -> X_family(a); c_f is 1/2 exactly when
    family is Gamma1, a <= 2 and a*b > 2."""

    __slots__ = ()

    def __new__(cls, family, a, b):
        if family not in ("gamma1", "gamma0"):
            raise ValueError("family must be gamma1 or gamma0")
        if a < 1 or b < 1:
            raise ValueError("a, b must be >= 1")
        return super().__new__(cls, family, a, b)

    @property
    def c_f(self):
        if self.family == "gamma1" and self.a <= 2 and self.a * self.b > 2:
            return Fraction(1, 2)
        return Fraction(1)


def map_degree(spec):
    "Degree of the natural map described by a MapDegreeSpec; checked integral."
    a, b = spec.a, spec.b
    if spec.family == "gamma1":
        deg = spec.c_f * b * b
        for p in factorize(b):
            if a % p:
                deg *= Fraction(p * p - 1, p * p)
    else:
        deg = Fraction(b)
        for p in factorize(b):
            if a % p:
                deg *= Fraction(p + 1, p)
    if deg.denominator != 1 or deg < 1:
        raise ArithmeticError("degree of %s came out as %s" % (spec, deg))
    return int(deg)


def map_degree_tower(family, ell, a_exp, k_exp):
    "Degree of X_family(ell^k) -> X_family(ell^a) for exponents a <= k."
    if a_exp > k_exp:
        raise ValueError("need a <= k")
    return map_degree(MapDegreeSpec(family, ell ** a_exp, ell ** (k_exp - a_exp)))


GenusProfile = namedtuple("GenusProfile", "mu nu2 nu3 nu_inf genus")


_X1_PROFILE_LEVEL1 = GenusProfile(1, 1, 1, 1, 0)


def genus_XG(group, cap=DEFAULT_CAP):
    """GenusProfile of the modular curve attached to a subgroup of GL2(Z/N).

    mu = [SL2(Z/N) : +-G cap SL2]; the level-1 marker yields the j-line.
    The cosets are keyed by _right_coset_key and found by BFS from the
    identity coset under s and u, which generate SL2(Z/N), recording each
    image.  Since t = s*u^-1, a coset r is fixed by t exactly when r*s = r*u,
    so nu3 needs no third generator.  The coset set is held beside the key's
    tables, and EnumerationCapError is raised once it exceeds cap.
    mu * |+-G| / |det G| = |SL2(Z/N)| is checked.
    """
    mod = group.mod
    if mod.exponent == 0:
        return _X1_PROFILE_LEVEL1
    m = mod.modulus
    key, pm = _right_coset_key(group, cap)
    s = mreduce((0, -1, 1, 0), m)
    u = (1, 1 % m, 0, 1)
    step = {}

    def act(r, g):
        y = step[r, g] = key(mmul(r, g, m))
        return y

    cosets = orbit(key(IDENTITY), (s, u), act, cap)
    mu = len(cosets)
    total, order, dets = ambient_order(mod, "SL2"), pm.order(cap), len(group.det_image()[0])
    if mu * order != total * dets:
        raise ArithmeticError("%d cosets of |+-G| = %d with %d determinants do not fill "
                              "|SL2| = %d" % (mu, order, dets, total))
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
    return GenusProfile(mu, nu2, nu3, nu_inf, _genus(g, group))
