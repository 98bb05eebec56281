"""Genus and map-degree invariants of the modular curves X1(N), X0(N), X_G.

Closed formulas handle X1(N) and X0(N).  For an arbitrary subgroup the genus
is computed from the action on the right cosets of (+-G cap SL2) in
SL2(Z/N): mu is the coset count, nu2/nu3 count cosets fixed by the standard
order-4/order-3 elements s = [0 -1; 1 0] and t = [0 -1; 1 -1], and nu_inf
counts orbits of u = [1 1; 0 1].  X_G depends only on +-G, so H is taken as
(G cap SL2) together with its negatives, which is +-G cap SL2.  Cosets here
are right cosets Hx with the right multiplication action, and Hx is the
part in SL2 of the coset +-G*x in GL2.  Mod ell the cosets are found by an
orbit BFS from H under s and u, each named by its least element mod ell,
Filtration.least of +-G (P^1-style coset enumeration, as for Gamma0 in
Diamond-Shurman ch. 3).  From ell^j to
ell^(j+1) the cosets over one coset form a fibre, the Echelon normal forms
modulo layer j of the group's congruence filtration (gl2.Filtration), on
which an element fixing that coset acts affinely (Holt, Eick and O'Brien,
ch. 8).  So only the cosets fixed by s, those fixed by t and one coset of
each u-cycle are carried up the layers, and neither the mu cosets, SL2(Z/N)
nor G is listed.  The Borel-vs-X0 and Gamma1-shape-vs-X1 oracle tests pin
this convention against the closed formulas, and the tests keep the
full-level coset BFS and an SL2-enumerating coset count as oracles.
"""
from collections import namedtuple
from math import gcd

from .errors import EnumerationCapError
from .gl2 import ambient_order, orbit
from .modarith import (IDENTITY, digit, factorize, kernel_element, mdet, minv, mmul, mpow,
                       mreduce)


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


def _quotient(num, den, what, least=0):
    """num/den as an int; ArithmeticError, naming `what` and the fraction in
    lowest terms, unless it is an integer >= least."""
    if num % den or num < least * den:
        d = gcd(num, den)
        value = num // d if d == den else "%d/%d" % (num // d, den // d)
        raise ArithmeticError("%s came out as %s" % (what, value))
    return num // den


def _genus(mu, nu2, nu3, nu_inf, what):
    "g = 1 + mu/12 - nu2/4 - nu3/3 - nu_inf/2, computed as 12g."
    return _quotient(12 + mu - 3 * nu2 - 4 * nu3 - 6 * nu_inf, 12, "genus of %s" % (what,))


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
    return _genus(mu, nu2, nu3, nu_inf, N)


def genus_X1(N):
    "Genus of X1(N); zero for N <= 4 where the generic formulas degenerate."
    if N < 1:
        raise ValueError("N must be >= 1")
    if N <= 4:
        return 0
    # mu = num / (2 den) and nu_inf = cusps / 2, so 24 den g is an integer
    num, den = N * N, 1
    for p in factorize(N):
        num, den = num * (p * p - 1), den * p * p
    cusps = sum(_euler_phi(d) * _euler_phi(N // d) for d in range(1, N + 1) if N % d == 0)
    return _quotient(24 * den + num - 6 * cusps * den, 24 * den, "genus of %s" % (N,))


def map_degree(family, a, b):
    """Degree of the natural map X_family(a*b) -> X_family(a); checked
    integral.  The gamma1 degree is halved exactly when a <= 2 and a*b > 2:
    then -I lies in Gamma1(a) but not in Gamma1(a*b)."""
    if family not in ("gamma1", "gamma0"):
        raise ValueError("family must be gamma1 or gamma0")
    if a < 1 or b < 1:
        raise ValueError("a, b must be >= 1")
    if family == "gamma1":
        num, den = b * b, 2 if a <= 2 and a * b > 2 else 1
        for p in factorize(b):
            if a % p:
                num, den = num * (p * p - 1), den * p * p
    else:
        num, den = b, 1
        for p in factorize(b):
            if a % p:
                num, den = num * (p + 1), den * p
    return _quotient(num, den, "degree of X_%s(%d) -> X_%s(%d)" % (family, a * b, family, a), 1)


def map_degree_tower(family, ell, a_exp, k_exp):
    "Degree of X_family(ell^k) -> X_family(ell^a) for exponents a <= k."
    if a_exp > k_exp:
        raise ValueError("need a <= k")
    return map_degree(family, ell ** a_exp, ell ** (k_exp - a_exp))


GenusProfile = namedtuple("GenusProfile", "mu nu2 nu3 nu_inf genus")


def _cycles(points, step):
    "(length, first point) of each cycle of the permutation `step` of the points, in order."
    seen = set()
    for first in points:
        size, x = 0, first
        while x not in seen:
            seen.add(x)
            x, size = step(x), size + 1
        if size:
            yield size, first


class _Layer:
    """Congruence layer j >= 1 of the coset action, from level ell^j to
    ell^(j+1).

    Over a coset +-G*y mod ell^j, with det y in det G mod N, the cosets mod
    ell^(j+1) are +-G*(I + ell^j*Y)*y for Y in A_j modulo the layer L_j of
    +-G's filtration: A_j is M2(F_ell) when det G holds 1 + ell^j mod
    ell^(j+1), since det(I + ell^j*Y) = 1 + ell^j*tr(Y), and sl2 otherwise.
    det G holds it when layer j of `dets`, the filtration of D =
    det_image()[0], is not empty; units[t], the unit of det G over 1 +
    t*ell^j, is then the upper left entry of b^(t - ell) (b^0 at t = 0),
    kept by D's chain for the realiser b of that row.  `fibre` lists the
    Echelon normal forms of A_j modulo L_j, the vectors that are zero at
    L_j's pivots.  An element w of SL2 that fixes +-G*y mod ell^j acts on
    the fibre: with y*w*y^-1 = h*r, h in +-G and r in K_j, +-G*(I +
    ell^j*Y)*y*w = +-G*(I + ell^j*(hbar^-1*Y*hbar + R))*y for R the layer-j
    digit of r (Holt, Eick and O'Brien, ch. 8).
    """

    def __init__(self, filt, j, dets):
        ell, cap = filt.ell, filt.cap
        self.filt, self.q, self.echelon = filt, ell ** j, filt.layers[j - 1][0]
        powers = next(iter(dets.layers[j - 1][1].values()), [IDENTITY])
        self.units = [b[0] for b in powers[:1] + powers[:0:-1]]
        full = len(self.units) > 1
        if ell ** (4 - len(self.echelon) - (not full)) > cap:
            raise EnumerationCapError("fibre of layer %d exceeded cap %d" % (j, cap))
        self.fibre = [Y for Y in self.echelon.normal_forms(4)
                      if full or (Y[0] + Y[3]) % ell == 0]

    def _orbits(self, y, w):
        """(size, Y) for each orbit of w on the fibre over +-G*y, Y its first
        member; ArithmeticError unless w fixes +-G*y mod ell^j."""
        filt, q = self.filt, self.q
        ell, m = filt.ell, filt.m
        x = mmul(mmul(y, w, m), minv(y, m, ell), m)
        r = filt.sift(x)
        if r is None or mreduce(r, q) != IDENTITY:
            raise ArithmeticError("%r is not in +-G mod %d" % (x, q))
        d = digit(r, q, ell)
        h = mreduce(x, ell)
        hinv = minv(h, ell, ell)
        reduce = self.echelon.reduce
        return _cycles(self.fibre, lambda Y: reduce(
            [(a + b) % ell for a, b in zip(mmul(mmul(hinv, Y, ell), h, ell), d)]))

    def lift(self, g, fixed_only, carried):
        """The (length, representative) of each cycle of g mod ell^(j+1) that
        lies over one of the carried cycles mod ell^j, or only the fixed
        cosets when fixed_only.  A cycle of length c splits into the orbits
        of g^c on the fibre over its representative.  A representative
        (I + ell^j*Y)*y is multiplied by diag(1, delta), delta = 1 mod
        ell^(j+1), to bring its determinant to det y * units[tr Y]."""
        ell, m, q, cap, units = self.filt.ell, self.filt.m, self.q, self.filt.cap, self.units
        out = []
        for c, y in carried:
            for size, Y in self._orbits(y, mpow(g, c, m)):
                if size == 1 or not fixed_only:
                    z = mmul(kernel_element(Y, q, m), y, m)
                    t = (Y[0] + Y[3]) % ell
                    e = mdet(y, m) * units[t] % m if t < len(units) else None
                    out.append((c * size, _into_det(z, e, m)))
                    if len(out) > cap:
                        raise EnumerationCapError("cosets carried to %d exceeded cap %d"
                                                  % (q * ell, cap))
        return out


def _into_det(z, e, m):
    "z * diag(1, e / det z), of determinant e in det G; ArithmeticError when e is None."
    d = mdet(z, m)
    if e is None:
        raise ArithmeticError("det %d of %r has no lift into det G" % (d, z))
    delta = e * pow(d, -1, m) % m
    return z[0], z[1] * delta % m, z[2], z[3] * delta % m


def genus_XG(group):
    """GenusProfile of the modular curve attached to a subgroup of GL2(Z/N).

    mu = [SL2(Z/N) : +-G cap SL2].
    Mod ell the cosets are keyed by Filtration.least of +-G and found by
    BFS from the identity coset under s and u, which generate SL2,
    recording each image.  Since t = s*u^-1, a coset r is fixed by t
    exactly when r*s = r*u, so nu3 needs no third generator.  Above ell
    only the cosets fixed by s, those fixed by t and one coset of each
    u-cycle are carried, one _Layer at a time, and mu = mu(ell) * prod
    |fibre_j|; the mu cosets mod N are never listed.  mu * |+-G| / |det G|
    = |SL2(Z/N)| is checked.  EnumerationCapError is raised once the
    chain's orbit tables, the cosets mod ell, a layer's carried cosets or
    a fibre exceeds the group's cap; det G, a group, lists no unit.
    """
    mod = group.mod
    ell, m = mod.ell, mod.modulus
    pm = group.adjoin_minus_identity()
    filt = pm.filtration()
    s, u = (0, ell - 1, 1, 0), (1, 1, 0, 1)
    step = {}  # the image of each coset under s and u
    act = lambda r, g: step.setdefault((r, g), filt.least(mmul(r, g, ell)))
    cosets = orbit(filt.least(IDENTITY), (s, u), act, group.cap, "cosets of +-G mod %d" % ell)
    dets = group.det_image()[0].filtration()
    layers = [_Layer(filt, j, dets) for j in range(1, mod.exponent)]
    mu = len(cosets)
    for layer in layers:
        mu *= len(layer.fibre)
    total, order = ambient_order(mod, "SL2"), pm.order()
    if mu * order != total * dets.order():
        raise ArithmeticError("%d cosets of |+-G| = %d with %d determinants do not fill "
                              "|SL2| = %d" % (mu, order, dets.order(), total))
    cusps = list(_cycles(cosets, lambda r: step[r, u]))
    # per generator s, t, u: whether only its fixed cosets count, and the
    # carried (cycle length, coset) pairs
    carried = [((0, m - 1, 1, 0), True, [(1, r) for r in cosets if step[r, s] == r]),
               ((0, m - 1, 1, m - 1), True,
                [(1, r) for r in cosets if step[r, s] == step[r, u]]),
               ((1, 1, 0, 1), False, cusps)]
    # mod ell, D's lift of diag(det r, 1) is diag(e, 1) with e in det G over det r
    lift = lambda r: (dets.canonical_lift((mdet(r, m), 0, 0, 1)) or (None,))[0]
    carried = [(g, fixed_only, [(c, _into_det(r, lift(r), m)) for c, r in cycles])
               for g, fixed_only, cycles in carried]
    for layer in layers:
        carried = [(g, fixed_only, layer.lift(g, fixed_only, cycles))
                   for g, fixed_only, cycles in carried]
    nu2, nu3, nu_inf = (len(cycles) for _, _, cycles in carried)
    return GenusProfile(mu, nu2, nu3, nu_inf, _genus(mu, nu2, nu3, nu_inf, group))
