"""Orbits of a matrix group on torsion vectors and on cyclic submodules.

The group acts on column vectors from the left.  Degrees of closed points
come out as orbit sizes: on X1(ell^k) the carrier is the set of +-classes of
vectors of exact order ell^k (the Weber quotient identifies v and -v), on
X0(ell^k) it is the set of cyclic submodules of order ell^k.  The carrier at
level ell^k for a group mod ell^n, k <= n, is acted on through reduction.

For the orbit sizes to carry their field-degree meaning the input group must
be an actual Galois image (the full image, not an arbitrary subgroup), and
the j-invariant must be outside {0, 1728}; the functions themselves are pure
group theory and do not check this.

A carrier point is stored in normal form: a +-class as the lesser of v and
-v, a line as its lexicographically least generator, which has the closed
form (1, y/x) for x a unit, (ell^j, y/x' mod ell^(k-j)) for x = ell^j x' and
(0, 1) for x = 0.  For k >= 2 the congruence kernel of G mod ell^k moves the
carrier points in whole classes (KernelClasses), so every orbit is one
gl2.orbit BFS over class normal forms, each the least carrier point of its
class; the seeds are all the normal forms in sorted order, so each orbit's
representative is its least carrier point, and its size is the sum of its
class sizes.  The seeds and each orbit count against the group's cap.
Each OrbitRecord keeps its classes, so a caller that holds the orbits of
every level reads the degree of a reduced point from them (the filter in
`isolated` does).  The full-carrier BFS and the one-BFS-per-level degree
tower are kept in the tests as references.
"""

from collections import namedtuple

from .errors import EnumerationCapError
from .gl2 import orbit
from .modarith import Echelon, PrimePowerModulus, digit, mvec


class TorsionVector(namedtuple("TorsionVector", "x y level")):
    "A point of exact order ell^k in (Z/ell^k)^2."

    __slots__ = ()

    def __new__(cls, x, y, level):
        ell = level.ell
        if x % ell == 0 and y % ell == 0:
            raise ValueError("(%d, %d) has order below %d" % (x, y, level.modulus))
        return super().__new__(cls, x, y, level)


class CyclicSubmodule(namedtuple("CyclicSubmodule", "x y level")):
    "A cyclic submodule of order ell^k, stored by its canonical generator."

    __slots__ = ()

    def __new__(cls, x, y, level):
        TorsionVector(x, y, level)  # the generator has exact order ell^k
        canon = _line_canon((x, y), level)
        if canon != (x, y):
            raise ValueError("(%d, %d) is not the canonical generator %r" % (x, y, canon))
        return super().__new__(cls, x, y, level)


class OrbitRecord(namedtuple("OrbitRecord", "family level representative size points",
                             defaults=(frozenset(),))):
    """An orbit of a family ("gamma1" | "gamma0") at a level: its canonical
    vector (gamma1) or line generator (gamma0), the number of carrier points
    in it, and the normal forms of its classes, which ==, hash and repr
    leave out."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, OrbitRecord) and self[:4] == other[:4]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:4])

    def __repr__(self):
        return "OrbitRecord(family=%r, level=%r, representative=%r, size=%r)" % self[:4]

    def typed_representative(self):
        cls = TorsionVector if self.family == "gamma1" else CyclicSubmodule
        return cls(self.representative[0], self.representative[1], self.level)


def _pm_canon(v, m):
    "Canonical representative of {v, -v}."
    w = ((-v[0]) % m, (-v[1]) % m)
    return v if v <= w else w


def _line_canon(v, level):
    """Lexicographically least unit multiple of v, a vector of exact order
    ell^k: with x = ell^j * x' (x' a unit, j < k) it is
    (ell^j, y * x'^-1 mod ell^(k-j)), and (0, 1) when x = 0."""
    x, y = v
    if x == 0:
        return (0, 1)
    ell = level.ell
    j, unit = 0, x
    while unit % ell == 0:
        unit //= ell
        j += 1
    q = level.modulus // ell ** j
    return (ell ** j, y * pow(unit, -1, q) % q)


def _canon(family, level):
    "Normal form of the carrier points: +-classes (gamma1) or lines (gamma0)."
    if family == "gamma1":
        m = level.modulus
        return lambda v: _pm_canon(v, m)
    if family == "gamma0":
        return lambda v: _line_canon(v, level)
    raise ValueError("family must be gamma1 or gamma0, got %r" % (family,))


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


def _reduced_gens(group, level):
    if level.exponent > group.mod.exponent:
        raise ValueError("level %s exceeds the group modulus %s" % (level, group.mod))
    if level.ell != group.mod.ell:
        raise ValueError("level prime %d does not match group prime %d"
                         % (level.ell, group.mod.ell))
    return group.reduce_to(level).gens


class KernelClasses:
    """The carrier at level ell^k cut into classes of the congruence kernel.

    For k >= 2 the kernel N = G cap K_(k-1) of G mod ell^k -> G mod ell^(k-1)
    is normal in G and acts by translations, v -> v + ell^(k-1)*X*vbar for X
    in the layer L_(k-1) and vbar = v mod ell.  So the N-orbit of v is
    v + ell^(k-1)*T, where T = L_(k-1)*vbar <= F_ell^2, and G permutes these
    classes (Holt, Eick and O'Brien, Handbook of Computational Group Theory,
    4.1 and ch. 8).  A class is stored by its least carrier point:

    - gamma1: the class of +-v is +-(v + ell^(k-1)*T), stored as the lesser
      of low(v) and low(-v), where low(v) puts the top base-ell digit of v in
      Echelon normal form modulo T, which clears T's pivots; this is the
      least point of v + ell^(k-1)*T.  It holds |T| carrier points, or |T|/2
      when -v lies in v + ell^(k-1)*T, which happens only for ell = 2, k = 2
      and vbar in T.
    - gamma0: the ell lines over one line mod ell^(k-1) form one class when
      T is not inside F_ell*vbar, stored as the least of them, which is the
      canonical generator mod ell^(k-1); otherwise each line is its own class.

    At k = 1 every class is a single carrier point.
    """

    def __init__(self, group, level, family):
        self.family, self.level, self.cap = family, level, group.cap
        self.ell, self.k, self.m = level.ell, level.exponent, level.modulus
        self.q = self.m // self.ell
        self._point = _canon(family, level)
        if self.k > 1:
            self._layer = group.filtration().layers[self.k - 2][0].rows
            self._lower = PrimePowerModulus(self.ell, self.k - 1)
        self._spans = {}

    def _span(self, v):
        """(the Echelon of T = L_(k-1)*vbar <= F_ell^2, the normal forms of
        (1, 0) and (0, 1) modulo T); the latter are the rows of the linear
        normal-form map, which _low applies without walking the Echelon."""
        ell = self.ell
        key = (v[0] % ell, v[1] % ell)
        span = self._spans.get(key)
        if span is None:
            x, y = key
            echelon = Echelon(ell, [(a * x + b * y, c * x + d * y) for a, b, c, d in self._layer])
            span = self._spans[key] = (echelon, echelon.reduce((1, 0)) + echelon.reduce((0, 1)))
        return span

    def _low(self, v, span):
        "The least point of v + ell^(k-1)*T, for span = _span(v)."
        ell, q = self.ell, self.q
        d0, d1 = digit(v, q, ell)
        a, b, c, d = span[1]
        return (v[0] % q + q * ((d0 * a + d1 * c) % ell), v[1] % q + q * ((d0 * b + d1 * d) % ell))

    def _moves(self, v):
        "Whether T leaves F_ell*vbar, i.e. N moves the line of v (gamma0)."
        x, y = v
        return any((x * r1 - y * r0) % self.ell for r0, r1 in self._span(v)[0].rows)

    def canon(self, v):
        "The normal form of the class of v, a vector of exact order ell^k in [0, ell^k)^2."
        if self.k == 1:
            return self._point(v)
        if self.family == "gamma1":
            m = self.m
            span = self._span(v)
            w, u = self._low(v, span), self._low(((-v[0]) % m, (-v[1]) % m), span)
            return w if w <= u else u
        if self._moves(v):
            q = self.q
            return _line_canon((v[0] % q, v[1] % q), self._lower)
        return self._point(v)

    def size(self, c):
        "The number of carrier points in the class of normal form c."
        if self.k == 1:
            return 1
        if self.family == "gamma0":
            return self.ell if self._moves(c) else 1
        m, span = self.m, self._span(c)
        n = self.ell ** len(span[0])
        return n // 2 if self._low(((-c[0]) % m, (-c[1]) % m), span) == c else n  # -c in c + ell^(k-1)*T

    def seeds(self):
        """Every normal form, sorted.  Each is the normal form of a lift c +
        ell^(k-1)*d of a carrier point c mod ell^(k-1), with d an Echelon
        normal form modulo T (gamma1) or T + F_ell*cbar (gamma0)."""
        if self.k == 1:
            out = _carrier_points(self.family, self.level)
        else:
            ell, q = self.ell, self.q
            out = set()
            for c in _carrier_points(self.family, self._lower):
                span = self._span(c)[0]
                if self.family == "gamma0":
                    span = Echelon(ell, span.rows + [(c[0] % ell, c[1] % ell)])
                out.update(self.canon((c[0] + q * dx, c[1] + q * dy))
                           for dx, dy in span.normal_forms(2))
                if len(out) > self.cap:
                    break
        if len(out) > self.cap:
            raise EnumerationCapError("carrier classes at level %d exceeded cap %d"
                                      % (self.m, self.cap))
        return sorted(out)


def _orbits(group, k, family):
    """OrbitRecords of the group mod ell^k on the family's carrier: one BFS
    over the KernelClasses normal forms per orbit, seeded in sorted order, so
    each representative is the least carrier point of its orbit.  Raises
    EnumerationCapError when the seeds or an orbit exceed the group's cap."""
    level = PrimePowerModulus(group.mod.ell, k)
    m = level.modulus
    gens = _reduced_gens(group, level)
    classes = KernelClasses(group, level, family)
    canon = classes.canon
    seen = set()
    out = []
    for c0 in classes.seeds():
        if c0 not in seen:
            found = orbit(c0, gens, lambda c, g: canon(mvec(g, c, m)), group.cap,
                          "%s orbit mod %d" % (family, m))
            seen |= found
            out.append(OrbitRecord(family, level, c0, sum(map(classes.size, found)),
                                   frozenset(found)))
    return out


def gamma1_orbits(group, k):
    """Orbits of <group mod ell^k, -I> on +-classes of exact order ell^k
    vectors; each orbit size is the degree of the induced point on X1(ell^k)."""
    return _orbits(group, k, "gamma1")


def gamma0_orbits(group, k):
    """Orbits of group mod ell^k on cyclic submodules of order ell^k; each
    orbit size is the degree of the induced point on X0(ell^k)."""
    return _orbits(group, k, "gamma0")


def orbits(group, k, family):
    if family == "gamma1":
        return gamma1_orbits(group, k)
    if family == "gamma0":
        return gamma0_orbits(group, k)
    raise ValueError("family must be gamma1 or gamma0, got %r" % (family,))
