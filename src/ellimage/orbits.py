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
(0, 1) for x = 0.

The orbits of all levels form one tree (Holt, Eick and O'Brien, Handbook of
Computational Group Theory, 4.1): reduction mod ell^(k-1) maps an orbit at
level ell^k onto one orbit at level ell^(k-1), its parent.  The orbits at
level ell are those of G on the carrier mod ell.  Over an orbit with
representative w at level ell^(k-1), the fibre is the set of normal forms of
the ell^2 lifts w + ell^(k-1)*d, and the children are the orbits of the
stabilizer G_w on the fibre.  Each orbit is one gl2.orbit walk from the
least fibre point not yet reached, so its representative is the least
point of its fibre orbit: at level ell the least point of the orbit, above
it not in general.  A child holds |parent| * |fibre orbit| carrier points,
and the Schreier generators of its walk, sifted into a Filtration until the
chain has |G_w| / |fibre orbit| elements, generate its stabilizer (|G| at
the root).  At the top level k >= 2 only sizes and representatives are
read, and a fibre the kernel fills is not walked: for Y in layer k-1 of
the filtration of G mod ell^k, I + ell^(k-1)*Y lies in G cap K_(k-1),
inside G_w, and moves the lift w + ell^(k-1)*d to w + ell^(k-1)*(d +
Y*wbar) (Holt, Eick and O'Brien, ch. 8).  When the Y*wbar, with wbar
itself for lines, span F_ell^2, the fibre is one orbit, of ell^2
+-classes (2 when ell = 2 and k = 2) or of ell lines, and its least point
is w itself.  Each OrbitRecord links its parent, so the degrees of an
orbit's reductions are the sizes of its ancestors (the filter in
`isolated` reads them so).  The group's cap bounds each walk, the number
of orbits at each level and each stabilizer chain.  The full-carrier BFS and the
one-BFS-per-level degree tower are kept in the tests as references.
"""

from collections import namedtuple
from itertools import product

from .errors import EnumerationCapError
from .gl2 import Filtration, orbit
from .modarith import IDENTITY, Echelon, PrimePowerModulus, minv, mmul, mvec


class OrbitRecord(namedtuple("OrbitRecord", "family level representative size parent",
                             defaults=(None,))):
    """An orbit of a family ("gamma1" | "gamma0") at a level: its canonical
    vector (gamma1) or line generator (gamma0), the number of carrier points
    in it, and its parent, the orbit one level down that it reduces onto
    (None at level ell), which ==, hash and repr leave out."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, OrbitRecord) and self[:4] == other[:4]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:4])

    def __repr__(self):
        return "OrbitRecord(family=%r, level=%r, representative=%r, size=%r)" % self[:4]


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


def _fibre(family, level, w):
    """The carrier points mod ell^k over the point w mod ell^(k-1), sorted:
    the normal forms of the lifts w + ell^(k-1)*d.  For w = None (k = 1)
    they are the carrier mod ell, which the d in lexicographic order meet
    in sorted order.  The lines over w are one per class of d modulo
    F_ell*wbar, so for gamma0 d runs over one line of F_ell^2 other than
    F_ell*wbar, and at k = 1 over (0, 1) and the (1, t)."""
    ell, q = level.ell, level.modulus // level.ell
    canon = _canon(family, level)
    if family == "gamma1":
        ds = product(range(ell), repeat=2)
    elif w is None:
        ds = [(0, 1)] + [(1, t) for t in range(ell)]
    else:
        ds = [(0, t) if w[0] % ell else (t, 0) for t in range(ell)]
    if w is None:
        return (d for d in ds if any(d) and canon(d) == d)
    return sorted({canon((w[0] + q * dx, w[1] + q * dy)) for dx, dy in ds})


def _schreier_generators(reached, gens, act, m, ell):
    """The Schreier generators u(y)^-1 * g * u(x) of the walk `reached`
    (gl2.orbit), for g in gens, y = act(x, g) and x from the last point
    reached back to the seed; they generate the stabilizer in <gens> of the
    seed of the walk.  u(x) is the product of the generators along the path
    that first reached x, found when first asked for, so a caller that
    stops early holds only the paths it used.  The last points close the
    longest cycles of the walk: on the nonsplit-Cartan normalizer mod 401^2
    the stabilizer of the least point mod 401 takes 5 of them, against
    60,107 from the seed on."""
    path = {next(iter(reached)): IDENTITY}

    def u(y):
        chain = [y]
        while chain[-1] not in path:
            chain.append(reached[chain[-1]][0])
        for z in reversed(chain[:-1]):
            x, g = reached[z]
            path[z] = mmul(g, path[x], m)
        return path[y]

    for x in reversed(reached):
        for g in gens:
            y = act(x, g)
            if reached[y] != (x, g):
                yield mmul(minv(u(y), m, ell), mmul(g, u(x), m), m)


def _stabilizer(image, reached, gens, act, order):
    """Generators of the stabilizer of the seed of the walk `reached` under
    <gens>, a group of the given order: the parent's generators when the
    walk stays at its seed, else the Schreier generators sifted into a
    chain until it has that order.  Raises ArithmeticError when they run
    out first."""
    if len(reached) == 1:
        return gens
    chain = Filtration((), image.mod, image.cap)
    kept = chain.grow(_schreier_generators(reached, gens, act, image.mod.modulus, image.ell),
                      order)
    if chain.order() != order:
        raise ArithmeticError("the stabilizer of %r has %d elements, not %d"
                              % (next(iter(reached)), chain.order(), order))
    return kept


def _filled(family, rows, p, ell):
    """Whether the translations Y*pbar, for Y in the rows, together with
    pbar itself for gamma0, span F_ell^2, pbar = p mod ell."""
    pbar = (p[0] % ell, p[1] % ell)
    moves = [mvec(Y, pbar, ell) for Y in rows] + ([pbar] if family == "gamma0" else [])
    return len(Echelon(ell, moves)) == 2


def _orbits(group, k, family):
    """OrbitRecords of the group mod ell^k on the family's carrier, down the
    orbit tree: level by level, one walk per orbit of the stabilizer of each
    parent's representative on the fibre over it, seeded in sorted order;
    at the top level k >= 2, a fibre that the top layer's translations fill
    is one orbit, recorded without a walk.  Raises EnumerationCapError when
    a walk, the orbits at a level or a stabilizer chain exceed the group's
    cap."""
    ell, n = group.ell, group.mod.exponent
    level = PrimePowerModulus(ell, k)
    if k > n:
        raise ValueError("level %s exceeds the group modulus %s" % (level, group.mod))
    image = group if k == n else group.reduce_to(level)
    # (orbit, generators and order of the stabilizer of its representative)
    nodes = [(None, image.gens, image.order())]
    top = image.filtration().layers[-1][0].rows if k > 1 else []
    width = ell if family == "gamma0" else 2 if (ell, k) == (2, 2) else ell * ell
    for j in range(1, k + 1):
        level = PrimePowerModulus(ell, j)
        m = level.modulus
        canon = _canon(family, level)
        act = lambda c, g: canon(mvec(g, c, m))
        name = "%s %sorbit mod %d" % (family, "fibre " if j > 1 else "", m)

        def walks(parent, gens, order):
            "(seed, size, stabilizer generators) of each walk on the fibre over parent."
            seen = set()
            for c in _fibre(family, level, parent and parent.representative):
                if c not in seen:
                    reached = orbit(c, gens, act, image.cap, name)
                    seen.update(reached)
                    size = len(reached)
                    yield c, size, _stabilizer(image, reached, gens, act, order // size) \
                        if j < k else None

        children = []
        for parent, gens, order in nodes:
            below = parent.size if parent else 1
            if j == k > 1 and _filled(family, top, parent.representative, ell):
                # its least point, where a walk would start, is the parent's representative
                found = [(parent.representative, width, None)]
            else:
                found = walks(parent, gens, order)
            for c, size, stabilizer in found:
                children.append((OrbitRecord(family, level, c, below * size, parent),
                                 stabilizer, order // size))
                if len(children) > image.cap:
                    raise EnumerationCapError("%s orbits at level %d exceeded cap %d"
                                              % (family, m, image.cap))
        nodes = children
    return [rec for rec, _, _ in nodes]


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
