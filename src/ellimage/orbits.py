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

Every orbit is one gl2.orbit BFS over the carrier in normal form: a +-class
is stored as the lesser of v and -v, a line as its lexicographically least
generator, which has the closed form (1, y/x) for x a unit,
(ell^j, y/x' mod ell^(k-j)) for x = ell^j x' and (0, 1) for x = 0.  The
seeds are the carrier points listed directly in that form, in sorted order,
and each OrbitRecord keeps its point set, so a caller that holds the orbits of
every level reads the degree of a reduced point from them (the filter in
`isolated` does).  `orbit_degree_tower` finds the same degrees with one BFS
per level and is kept as the reference.
"""

from dataclasses import dataclass, field

from .gl2 import orbit
from .modarith import PrimePowerModulus, mreduce, mvec


@dataclass(frozen=True, order=True)
class TorsionVector:
    "A point of exact order ell^k in (Z/ell^k)^2."
    x: int
    y: int
    level: PrimePowerModulus

    def __post_init__(self):
        ell = self.level.ell
        if self.level.exponent < 1:
            raise ValueError("exact order requires exponent >= 1")
        if self.x % ell == 0 and self.y % ell == 0:
            raise ValueError("(%d, %d) has order below %d" % (self.x, self.y, self.level.modulus))


@dataclass(frozen=True, order=True)
class CyclicSubmodule:
    "A cyclic submodule of order ell^k, stored by its canonical generator."
    x: int
    y: int
    level: PrimePowerModulus

    def __post_init__(self):
        TorsionVector(self.x, self.y, self.level)  # the generator has exact order ell^k
        canon = _line_canon((self.x, self.y), self.level)
        if canon != (self.x, self.y):
            raise ValueError("(%d, %d) is not the canonical generator %r"
                             % (self.x, self.y, canon))


@dataclass(frozen=True)
class OrbitRecord:
    family: str                      # "gamma1" | "gamma0"
    level: PrimePowerModulus
    representative: tuple            # canonical vector (gamma1) or line generator (gamma0)
    size: int
    points: frozenset = field(default=frozenset(), compare=False, repr=False)

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


def carrier_point(family, v, level):
    "The carrier point at `level` through v, a vector of exact order at least `level`."
    m = level.modulus
    return _canon(family, level)((v[0] % m, v[1] % m))


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
    m = level.modulus
    gens = []
    for g in group.gens:
        r = mreduce(g, m)
        if r != (1 % m, 0, 0, 1 % m) and r not in gens:
            gens.append(r)
    return gens


def _single_orbit_size(group, v, k, family):
    "Size of the orbit of the carrier point through v at level ell^k."
    level = PrimePowerModulus(group.mod.ell, k)
    m = level.modulus
    canon = _canon(family, level)
    seed = canon((v[0] % m, v[1] % m))
    return len(orbit(seed, _reduced_gens(group, level),
                     lambda w, g: canon(mvec(g, w, m))))


def _orbits(group, k, family):
    "OrbitRecords of the group mod ell^k on the family's carrier, by least point."
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
