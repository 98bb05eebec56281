"""Subgroups of GL2(Z/ell^n) given by generators.

Provides BFS enumeration, order/index/level/membership via the congruence
filtration, determinant image, -I handling, reduction and full preimage,
conjugacy search, and the named Cartan/Borel constructions.

orbit() is the one orbit BFS of the package: torsion orbits, the coset
action behind genus_XG, determinant images and lattice join closures run
through it.  extend() is the one group closure: it adds one element to a
closed finite group by Dimino's coset extension (Holt, Eick and O'Brien,
Handbook of Computational Group Theory, 4.1), each new left coset entering
whole.  mulclose is a fold of extend over the generators; subgroup joins,
greedy generating sets and the complement search of the lattice module
extend the closure they already hold.

Orders, levels, membership and equality read one cached Filtration per
group: for H <= GL2(Z/ell^n) the kernels K_e = ker(GL2(ell^n) -> GL2(ell^e))
have elementary abelian quotients K_e/K_{e+1} ~ M2(F_ell).  The filtration
holds a stabilizer chain of H(ell) acting on the rows of F_ell^2 (Sims 1970):
the orbit O_1 of (1, 0) under H and the orbit O_2 of (0, 1) under the
stabilizer of (1, 0), each row with an element of H that reaches it, so
|H(ell)| = |O_1| * |O_2| and H(ell) itself is never listed.  For each layer
it holds an F_ell basis of the image L_e of H cap K_e with elements of H
that realise it; H cap K_1 is the normal closure of the residues the chain
leaves.  Then |H| = |H(ell)| * prod ell^(dim L_e), the level is the
smallest ell^d with L_e full for all e >= d, and g is in H when a lift of g
mod ell comes out of the chain and the quotient sifts to I through the
layers.  None of this enumerates H, which matters for full preimages, large
ell and levels ell^3; modcurves.genus_XG keys right cosets with the same
chain and layer reduction.

Conjugacy search solves the linear conditions c*g = h*c over Z/ell^n with
modarith.nullspace_span and looks for an invertible c in the solution
module; every witness is checked before it is returned, and a failed check
raises CertificateError.  invariant_keys() caches the key (order, det,
trace, scalar level) of every element of a group; small_generating_set and
the source side of the search read it.  The target is not keyed: its
multiset of shapes (det, trace, scalar level) must contain the source's,
and only target elements shaped like a source generator get an order.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import product
from math import gcd

from .errors import (CertificateError, EnumerationCapError, ModulusMismatchError,
                     NotInvertibleError, SearchBudgetError)
from .modarith import (IDENTITY, Echelon, PrimePowerModulus, ResidueMatrix, lincomb,
                       mdet, minv, mmul, mneg, morder, mpow, mreduce, mtrace,
                       nullspace_span, rowmul)

DEFAULT_CAP = 10 ** 7


def ambient_order(mod, family="GL2"):
    """|GL2(Z/ell^n)| or |SL2(Z/ell^n)| for n >= 1."""
    ell, n = mod.ell, mod.exponent
    if n < 1:
        raise ValueError("ambient order undefined at level 1")
    if family == "GL2":
        return ell ** (4 * n - 3) * (ell - 1) * (ell ** 2 - 1)
    if family == "SL2":
        return ell ** (3 * n - 2) * (ell ** 2 - 1)
    raise ValueError("family must be GL2 or SL2, got %r" % (family,))


def orbit(seed, gens, act, cap=DEFAULT_CAP):
    """The set reached from seed under x -> act(x, g) for g in gens, by BFS:
    an orbit for a group action, a join closure for x -> x v g.  Raises
    EnumerationCapError once it holds more than cap points."""
    seen = {seed}
    frontier = [seed]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = act(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
                    if len(seen) > cap:
                        raise EnumerationCapError("orbit exceeded cap %d" % cap)
        frontier = new
    return seen


def extend(closed, g, mul, cap=DEFAULT_CAP):
    """<closed, g> for a finite group `closed` (a set holding the identity)
    under the multiplication `mul`, by left-coset extension: every element
    is multiplied by g once, and a product z outside the set brings in its
    whole coset z*closed.  The result is closed under right multiplication
    by closed and by g, hence a group.  Returns `closed` itself when it
    holds g; raises EnumerationCapError before the set grows past cap."""
    if g in closed:
        return closed
    base = list(closed)
    els = set(base)
    todo = list(base)
    for x in todo:
        z = mul(x, g)
        if z not in els:
            if len(els) + len(base) > cap:
                raise EnumerationCapError("closure exceeded cap %d" % cap)
            coset = [mul(z, h) for h in base]
            els.update(coset)
            todo.extend(coset)
    return els


def mulclose(gens, m, cap=DEFAULT_CAP):
    """Closure of 4-tuple generators under multiplication mod m."""
    mul = lambda a, b: mmul(a, b, m)
    els = {(1 % m, 0, 0, 1 % m)}
    for g in gens:
        els = extend(els, g, mul, cap)
    return els


def unit_group_generators(mod):
    """Generators of (Z/ell^n)^x as a list of integers."""
    ell, n = mod.ell, mod.exponent
    m = mod.modulus
    if n == 0 or m <= 2:
        return []
    if ell == 2:
        if n == 2:
            return [3]
        return [m - 1, 5]
    # smallest primitive root mod ell, corrected to stay primitive mod ell^n
    r = 2
    while True:
        seen, x = set(), 1
        for _ in range(ell - 1):
            x = x * r % ell
            seen.add(x)
        if len(seen) == ell - 1:
            break
        r += 1
    if n >= 2 and pow(r, ell - 1, ell * ell) == 1:
        r += ell
    return [r % m]


def full_gl2(mod, label=None):
    """GL2(Z/ell^n) as an explicit MatrixGroup."""
    m = mod.modulus
    gens = [(1, 1, 0, 1), (1, 0, 1, 1)]
    gens += [(u, 0, 0, 1) for u in unit_group_generators(mod)]
    return MatrixGroup(mod, [g for g in gens], label=label)


class MatrixGroup:
    """A subgroup of GL2(Z/ell^n) given by modulus and generators.

    Immutable after construction; the element enumeration and the
    congruence filtration are computed once, on first use, and cached
    (read-only thereafter, safe to share).
    """

    __slots__ = ("mod", "gens", "label", "_elements", "_keys", "_filtration")

    def __init__(self, mod, gens, label=None):
        self.mod = mod
        m = mod.modulus
        seen, canon = set(), []
        for g in gens:
            if isinstance(g, ResidueMatrix):
                if g.mod != mod:
                    raise ModulusMismatchError("generator %s not mod %s" % (g, mod))
                g = g.entries
            g = mreduce(g, m)
            if mod.exponent >= 1 and mdet(g, m) % mod.ell == 0:
                raise NotInvertibleError("generator %r not invertible mod %d" % (g, m))
            if g not in seen and g != (1 % m, 0, 0, 1 % m):
                seen.add(g)
                canon.append(g)
        self.gens = tuple(canon)
        self.label = label
        self._elements = None
        self._keys = None
        self._filtration = None

    # -- basic views --------------------------------------------------

    @property
    def ell(self):
        return self.mod.ell

    def generator_matrices(self):
        return tuple(ResidueMatrix.make(g, self.mod) for g in self.gens)

    def identity_tuple(self):
        m = self.mod.modulus
        return (1 % m, 0, 0, 1 % m)

    def elements(self, cap=DEFAULT_CAP):
        "Sorted tuple of all elements (cached)."
        if self._elements is None:
            els = mulclose(self.gens, self.mod.modulus, cap)
            self._elements = tuple(sorted(els))
        return self._elements

    def element_set(self, cap=DEFAULT_CAP):
        return set(self.elements(cap))

    def invariant_keys(self, cap=DEFAULT_CAP):
        "{element: (order, det, trace, scalar level)} over the whole group (cached)."
        if self._keys is None:
            self._keys = {g: _invariant_key(g, self.mod) for g in self.element_set(cap)}
        return self._keys

    def filtration(self, cap=DEFAULT_CAP):
        "The congruence Filtration of the group (cached); needs exponent >= 1."
        if self._filtration is None:
            self._filtration = Filtration(self.gens, self.mod, cap)
        return self._filtration

    def __contains__(self, g):
        if isinstance(g, ResidueMatrix):
            g = g.entries
        return self._sifts(g, DEFAULT_CAP)

    def _sifts(self, g, cap):
        """Membership of g mod ell^n: g is in the group when its lift t of
        g mod ell exists and t^-1 * g reduces to I through the layers."""
        if self.mod.exponent == 0:
            return g == self.identity_tuple()
        filt = self.filtration(cap)
        lift = filt.lift(g)
        return lift is not None and filt.reduce(mmul(lift[1], g, self.mod.modulus)) == IDENTITY

    def __eq__(self, other):
        """Same modulus, same order, and every generator of one lies in the
        other, which then contains the whole of it."""
        return (isinstance(other, MatrixGroup) and self.mod == other.mod
                and self.order() == other.order() and all(g in other for g in self.gens))

    def __hash__(self):
        return hash((self.mod, self.order()))

    def __repr__(self):
        tag = self.label or "%d gens" % len(self.gens)
        return "MatrixGroup(mod %d, %s)" % (self.mod.modulus, tag)

    # -- order / level from the filtration ----------------------------

    def order(self, cap=DEFAULT_CAP):
        if self.mod.exponent == 0:
            return 1
        if self._elements is not None:
            return len(self._elements)
        base, dims = self.filtration(cap).sizes()
        return base * self.ell ** sum(dims)

    def index_in_ambient(self, cap=DEFAULT_CAP):
        total = ambient_order(self.mod)
        order = self.order(cap)
        if total % order:
            raise ArithmeticError("order %d does not divide ambient %d" % (order, total))
        return total // order

    def level(self, cap=DEFAULT_CAP):
        """Smallest ell^d such that the group is the full preimage of its
        reduction mod ell^d (all layers from d on are full); the exponent-0
        marker when the group is full."""
        ell, n = self.ell, self.mod.exponent
        if n == 0:
            return self.mod
        base, dims = self.filtration(cap).sizes()
        d = n
        while d > 1 and dims[d - 2] == 4:
            d -= 1
        if d == 1 and base == ambient_order(PrimePowerModulus(ell, 1)):
            d = 0
        return PrimePowerModulus(ell, d)

    # -- determinant, -I ----------------------------------------------

    def det_image(self):
        """(sorted tuple of unit residues generated by generator dets,
        surjectivity flag).  Equals the det set of the full enumeration."""
        m = self.mod.modulus
        if self.mod.exponent == 0:
            return (0,), True
        dets = [mdet(g, m) for g in self.gens]
        closure = orbit(1, dets, lambda x, d: x * d % m)
        return tuple(sorted(closure)), len(closure) == self.mod.unit_count()

    def contains_minus_identity(self, cap=DEFAULT_CAP):
        return self._sifts(mneg(self.identity_tuple(), self.mod.modulus), cap)

    def adjoin_minus_identity(self, label=None):
        "Group generated by the generators together with -I; idempotent."
        m = self.mod.modulus
        return MatrixGroup(self.mod, list(self.gens) + [mneg(self.identity_tuple(), m)],
                           label=label if label is not None else self.label)

    # -- reduction / preimage / conjugation ----------------------------

    def reduce_to(self, target):
        "Generator-wise reduction to a divisor modulus; label dropped."
        if isinstance(target, int):
            target = PrimePowerModulus(self.ell, target)
        if not target.divides(self.mod):
            raise ModulusMismatchError("%s does not divide %s" % (target, self.mod))
        if target.exponent == 0:
            return MatrixGroup(target, [])
        mt = target.modulus
        return MatrixGroup(target, [mreduce(g, mt) for g in self.gens])

    def full_preimage(self, target, label=None):
        """Full preimage in GL2(Z/ell^t): lifted generators plus the kernel
        generators I + ell^j * E_ij of every layer j from the source exponent
        up to t (from modulus 2 the layer-1 ones alone miss part of the
        kernel: their squares reach only half of layer 2)."""
        if isinstance(target, int):
            target = PrimePowerModulus(self.ell, target)
        if not self.mod.divides(target):
            raise ModulusMismatchError("%s does not divide %s" % (self.mod, target))
        if target == self.mod:
            return MatrixGroup(target, list(self.gens), label=label)
        if self.mod.exponent == 0:
            return full_gl2(target, label=label)
        gens = list(self.gens)
        for j in range(self.mod.exponent, target.exponent):
            s = self.ell ** j
            gens += [(1 + s, 0, 0, 1), (1, s, 0, 1), (1, 0, s, 1), (1, 0, 0, 1 + s)]
        return MatrixGroup(target, gens, label=label)

    def conjugated_by(self, c):
        m = self.mod.modulus
        if isinstance(c, ResidueMatrix):
            c = c.entries
        ci = minv(c, m, self.ell)
        return MatrixGroup(self.mod, [mmul(mmul(c, g, m), ci, m) for g in self.gens])

    def small_generating_set(self, cap=DEFAULT_CAP):
        """Greedy small generating set chosen from the element enumeration;
        deterministic (highest order first, then lexicographic)."""
        els = self.elements(cap)
        m = self.mod.modulus
        ident = self.identity_tuple()
        if len(els) == 1:
            return ()
        keys = self.invariant_keys(cap)
        ranked = sorted(els, key=lambda g: (-keys[g][0], g))
        mul = lambda a, b: mmul(a, b, m)
        gens = []
        closure = {ident}
        for g in ranked:
            if g in closure:
                continue
            gens.append(g)
            closure = extend(closure, g, mul, cap)
            if len(closure) == len(els):
                break
        if len(gens) >= len(self.gens) and self.gens:
            return self.gens
        return tuple(gens)


class Filtration:
    """The congruence filtration of a group G <= GL2(Z/ell^n), n >= 1, over a
    stabilizer chain of G(ell).

    G acts on row vectors mod ell from the right.  The chain has the base
    rows (1, 0) and (0, 1) (Sims 1970; Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 4.4): `orbits[0]` maps each row v of the
    orbit O_1 of (1, 0) under G to (t, t^-1) with t in G and (1, 0)*t = v
    mod ell, and `orbits[1]` does the same for the orbit O_2 of (0, 1) under
    the stabilizer G_1 of (1, 0), with t in G_1.  The stabilizer of both rows
    is G cap K_1, so |G(ell)| = |O_1| * |O_2| and lift() finds an element of
    G over any c mod ell with one lookup in each table.  No table grows past
    ell^2 - 1 rows, however large G(ell) is.

    For e = 1..n-1, `layers[e-1]` is (an Echelon of L_e, {row: [b^0, b^-1,
    ..., b^-(ell-1)]}) with b in G cap K_e of layer-e digit `row`; L_e is the
    image of G cap K_e in K_e/K_{e+1} ~ M2(F_ell), and the layer-e digit of x
    in K_e, (x - I)/ell^e mod ell, is the e-th base-ell digit of each entry.

    The chain is built by sifting Schreier generators.  Those of O_1,
    t(v)*g*t(vg)^-1, lie in G_1; one whose row (0, 1)*s is new to O_2
    becomes a generator of G_1 and extends O_2, the others leave s*t(w)^-1
    in G cap K_1.  Those residues and the Schreier generators of O_2 are
    reduced through the layers; a residue b != I becomes a row of its first
    nonzero layer, and b^ell, the commutators of b with the earlier rows and
    the conjugates g*b*g^-1 by the generators g of G are sifted in turn.
    The conjugates are needed: G_1 is spanned by the generators it keeps
    and the residues, so G cap K_1 is spanned by the Schreier generators of
    O_2 and the conjugates of the residues, not by the residues alone.  When
    all of them sift to I, the products of rows in layer order form a normal
    subgroup of G (Holt, Eick and O'Brien, ch. 8) that holds every residue,
    so it is G cap K_1.
    """

    def __init__(self, gens, mod, cap=DEFAULT_CAP):
        ell, m = mod.ell, mod.modulus
        self.ell, self.m, self.cap = ell, m, cap
        self.layers = [(Echelon(ell), {}) for _ in range(mod.exponent - 1)]
        self._rows = []
        self._gens = [(g, minv(g, m, ell)) for g in gens]
        self.orbits = ({(1, 0): (IDENTITY, IDENTITY)}, {(0, 1): (IDENTITY, IDENTITY)})
        self._chain_gens = ([], [])
        self._extend(0, self._gens)

    def _extend(self, level, new):
        """Adds the (generator, inverse) pairs `new` to the chain table
        `orbits[level]`: every row meets each new generator once and every new
        row meets all generators.  A Schreier generator t(v)*g*t(vg)^-1 != I
        goes on down the chain."""
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
                    if len(table) > self.cap:
                        raise EnumerationCapError("orbit table %d of G(%d) exceeded cap %d"
                                                  % (level + 1, ell, self.cap))
                elif tg != old[0]:
                    s = mmul(tg, old[1], m)
                    if level == 0:
                        lift = self.orbits[1].get((s[2] % ell, s[3] % ell))
                        if lift is None:
                            self._extend(1, [(s, minv(s, m, ell))])
                            continue
                        s = mmul(s, lift[1], m)
                    self._sift_in([s])

    def _sift_in(self, todo):
        """Sifts each element of G cap K_1 in todo; a residue b != I becomes a
        row, and b^ell, the commutators of b with the earlier rows and the
        conjugates of b by the generators of G join todo.  Once every layer
        is full the rows give all of K_1 and nothing is left to sift."""
        ell, m = self.ell, self.m
        while todo and len(self._rows) < 4 * len(self.layers):
            b = self.reduce(todo.pop())
            if b == IDENTITY:
                continue
            e, q = 1, ell
            while not any(a // q % ell for a in b):
                e, q = e + 1, q * ell
            echelon, powers = self.layers[e - 1]
            row = echelon.add(tuple(a // q % ell for a in b))
            binv = minv(b, m, ell)
            powers[row] = [IDENTITY]
            for _ in range(ell - 1):
                powers[row].append(mmul(powers[row][-1], binv, m))
            todo.append(mpow(b, ell, m))
            for c in self._rows:
                todo.append(mmul(mmul(binv, minv(c, m, ell), m), mmul(b, c, m), m))
            for g, ginv in self._gens:
                todo.append(mmul(mmul(g, b, m), ginv, m))
            self._rows.append(b)

    def lift(self, c):
        """(t, t^-1) for an element t of G with t = c mod ell, or None when c
        mod ell is not in G(ell).  t = t_2 * t_1, where (1, 0)*t_1 is the
        first row of c and (0, 1)*t_2 the second row of c*t_1^-1."""
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

    def reduce(self, x, cinv=IDENTITY):
        """x times an element of G cap K_1 that puts every layer digit of x
        in normal form, for x = c mod ell and cinv = c^-1 mod ell.

        Layer by layer, multiplying by k in G cap K_e moves the digit D of x
        by digit(k)*c, so D*cinv is brought to Echelon normal form modulo
        L_e.  Elements of one coset (G cap K_1)*x reduce to the same matrix;
        with c = I the result is I exactly when x lies in G cap K_1.
        """
        ell, m = self.ell, self.m
        q = 1
        for echelon, powers in self.layers:
            q *= ell
            digit = mmul(tuple(a // q for a in x), cinv, ell)
            for row, f in echelon.decompose(digit)[1]:
                x = mmul(powers[row][f], x, m)
        return x

    def transversal(self):
        """The |O_1| * |O_2| products t_2 * t_1 of the two tables: one element
        of G over each element of G(ell)."""
        m = self.m
        return [mmul(t2, t1, m) for t1, _ in self.orbits[0].values()
                for t2, _ in self.orbits[1].values()]

    def sizes(self):
        "(|G(ell)| = |O_1| * |O_2|, [dim L_1, ..., dim L_{n-1}])."
        return (len(self.orbits[0]) * len(self.orbits[1]),
                [len(echelon) for echelon, _ in self.layers])


# ---------------------------------------------------------------------------
# named constructions

CARTAN_KINDS = ("split", "split-normalizer", "nonsplit", "nonsplit-normalizer",
                "borel", "section4-semidirect")


@dataclass(frozen=True)
class CartanSpec:
    kind: str
    modulus: PrimePowerModulus
    epsilon: int | None = None

    def __post_init__(self):
        if self.kind not in CARTAN_KINDS:
            raise ValueError("unknown kind %r" % (self.kind,))
        if self.modulus.exponent < 1:
            raise ValueError("modulus must have exponent >= 1")
        if self.kind == "section4-semidirect" and self.modulus.exponent != 2:
            raise ValueError("section4-semidirect requires exponent 2")
        if self.kind.startswith("nonsplit") or self.kind == "section4-semidirect":
            eps = self.resolved_epsilon()
            ell = self.modulus.ell
            if ell == 2:
                raise ValueError("nonsplit kinds need an odd prime")
            if pow(eps, (ell - 1) // 2, ell) != ell - 1:
                raise ValueError("epsilon %d is a quadratic residue mod %d" % (eps, ell))

    def resolved_epsilon(self):
        if self.epsilon is not None:
            return self.epsilon
        ell = self.modulus.ell
        for e in range(2, ell):
            if pow(e, (ell - 1) // 2, ell) == ell - 1:
                return e
        raise ValueError("no quadratic non-residue mod %d" % ell)


def _nonsplit_base_pair(ell, eps):
    "Smallest (a, b) whose Cartan matrix generates the mod-ell nonsplit torus."
    mod1 = PrimePowerModulus(ell, 1)
    full = ell * ell - 1
    for a in range(ell):
        for b in range(1, ell):
            g = (a, eps * b % ell, b, a)
            if mdet(g, ell) % ell and morder(g, mod1) == full:
                return a, b
    raise ArithmeticError("no generator found for nonsplit Cartan mod %d" % ell)


def _crt_exponent(coprime_order, ell):
    "Exponent e with e = 1 mod coprime_order and e = 0 mod ell."
    e = ell * pow(ell, -1, coprime_order)
    return e


def build_cartan(spec, cap=DEFAULT_CAP):
    """Construct the group described by a CartanSpec.

    nonsplit            {[a eps*b; b a]}, (a,b) != (0,0) mod ell
    nonsplit-normalizer adjoins [1 0; 0 -1]
    split               invertible diagonal matrices
    split-normalizer    adjoins the antidiagonal involution [0 1; 1 0]
    borel               invertible upper triangular matrices
    section4-semidirect lift of the nonsplit Cartan normalizer mod ell
                        extended by the kernel shapes I + ell*[a eps*b; -b c],
                        inside GL2(Z/ell^2); order asserted = 2(ell^2-1)ell^3
    """
    mod = spec.modulus
    ell, n = mod.ell, mod.exponent
    m = mod.modulus
    kind = spec.kind
    ugens = unit_group_generators(mod)

    if kind in ("split", "split-normalizer", "borel"):
        gens = [(u, 0, 0, 1) for u in ugens] + [(1, 0, 0, u) for u in ugens]
        if kind == "split-normalizer":
            gens.append((0, 1, 1, 0))
        if kind == "borel":
            gens.append((1, 1, 0, 1))
        return MatrixGroup(mod, gens, label="%s(%d)" % (kind, m))

    eps = spec.resolved_epsilon()
    a0, b0 = _nonsplit_base_pair(ell, eps)

    if kind in ("nonsplit", "nonsplit-normalizer"):
        gens = [(a0, eps * b0 % m, b0, a0)]
        if n >= 2:
            gens.append(((1 + ell) % m, 0, 0, (1 + ell) % m))
            gens.append((1, eps * ell % m, ell, 1))
        if kind == "nonsplit-normalizer":
            gens.append((1, 0, 0, m - 1))
        return MatrixGroup(mod, gens, label="%s(%d)" % (kind, m))

    # section4-semidirect, n == 2
    g0 = (a0, eps * b0 % m, b0, a0)
    teich = mpow(g0, _crt_exponent(ell * ell - 1, ell), m)
    if morder(teich, mod) != ell * ell - 1:
        raise ArithmeticError("Teichmuller lift %r does not have order %d"
                              % (teich, ell * ell - 1))
    sigma = (1, 0, 0, m - 1)
    shapes = [(1, 0, 0, 0), (0, eps, -1 % ell, 0), (0, 0, 0, 1)]
    kgens = [((1 + ell * s[0]) % m, ell * s[1] % m, ell * s[2] % m, (1 + ell * s[3]) % m)
             for s in shapes]
    group = MatrixGroup(mod, [teich, sigma] + kgens,
                        label="section4-semidirect(%d)" % m)
    expected = 2 * (ell * ell - 1) * ell ** 3
    got = group.order(cap)
    if got != expected:
        raise ArithmeticError("semidirect construction has order %d, expected %d"
                              % (got, expected))
    return group


# ---------------------------------------------------------------------------
# conjugacy

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
    """An invertible matrix in the Z/m-span of `span` (a 4-tuple), or None.

    Invertibility only depends on the reduction mod ell, so the F_ell
    combinations of an echelon basis kept mod m are walked.
    """
    basis = Echelon(ell, span, m).rows
    for coeffs in product(range(ell), repeat=len(basis)):
        cand = lincomb(coeffs, basis, m)
        if (cand[0] * cand[3] - cand[1] * cand[2]) % ell:
            return cand
    return None


def _shape_key(g, m):
    """(det, trace, ell^k) for g scalar mod ell^k and no higher power:
    conjugation invariants that take no powers."""
    return mdet(g, m), mtrace(g, m), gcd(g[1], g[2], g[0] - g[3], m)


def _invariant_key(g, mod):
    return (morder(g, mod),) + _shape_key(g, mod.modulus)


def _conjugating_matrix(source_gens, targets, mod, budget):
    """Backtracking search for c with c*g_i*c^-1 = (an element of the target)
    for every source generator; returns the witness 4-tuple or None.

    source_gens maps the source generators to their _invariant_key and
    targets maps the target elements to their _shape_key.  A target element
    whose shape matches a source generator's gets its order, and joins the
    bucket of its key in the iteration order of targets.  Partial
    assignments are pruned by solvability of the linear system c*g = h*c
    over Z/m with an invertible c.
    """
    m, ell = mod.modulus, mod.ell
    wanted = {key[1:] for key in source_gens.values()}
    buckets = {}
    for h, shape in targets.items():
        if shape in wanted:
            buckets.setdefault((morder(h, mod),) + shape, []).append(h)
    gens = sorted(source_gens, key=lambda g: (-source_gens[g][0], g))
    nodes = 0

    def recurse(i, rows):
        nonlocal nodes
        if i == len(gens):
            return _unit_solution(nullspace_span(rows, m), m, ell)
        g = gens[i]
        if g[1] == 0 and g[2] == 0 and g[0] == g[3]:
            # scalars are conjugation-invariant
            if g not in targets:
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


def is_conjugate(g, h, cap=DEFAULT_CAP, budget=500_000):
    """Whether some c in GL2 conjugates g onto h; returns (bool, witness).

    For groups of equal order a conjugate of g inside h is h itself, so this
    is the order check plus conjugate_into.
    """
    if g.mod != h.mod:
        raise ModulusMismatchError("groups live over different moduli")
    if g.order(cap) != h.order(cap):
        return False, None
    ok, witness, _ = conjugate_into(g, h, cap, budget)
    return ok, witness


def conjugate_into(h, big, cap=DEFAULT_CAP, budget=500_000):
    """Whether some GL2-conjugate of h is a subgroup of big; returns
    (bool, witness, index of the image in big).  The shapes of h must fit
    among those of big, and the witness is checked on every element of h
    against the element set of big."""
    if h.mod != big.mod:
        raise ModulusMismatchError("groups live over different moduli")
    mod = h.mod
    m = mod.modulus
    ho, bo = h.order(cap), big.order(cap)
    if bo % ho:
        return False, None, None
    hkeys = h.invariant_keys(cap)
    targets = {x: _shape_key(x, m) for x in big.element_set(cap)}
    if Counter(key[1:] for key in hkeys.values()) - Counter(targets.values()):
        return False, None, None
    c = _conjugating_matrix({g: hkeys[g] for g in h.small_generating_set(cap)}, targets,
                            mod, budget)
    if c is None:
        return False, None, None
    ci = minv(c, m, mod.ell)
    # c conjugates every generator into big, so the whole conjugate lands there.
    if any(mmul(mmul(c, x, m), ci, m) not in targets for x in hkeys):
        raise CertificateError("conjugating matrix %r does not map %r into %r"
                               % (c, h, big))
    return True, ResidueMatrix.make(c, mod), bo // ho
