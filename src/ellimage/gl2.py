"""Subgroups of GL2(Z/ell^n) given by generators.

Provides order/index/level/membership via the congruence filtration,
determinant image, -I handling, reduction and full preimage, conjugacy
search, and the named Cartan/Borel constructions.  No group is listed
element by element here.

orbit() is the one orbit BFS of the package, and partition() splits a set
of points into orbits by one orbit() walk from each point that no earlier
walk reached.  Through them run the torsion orbits on each fibre of the
orbit tree; the cosets mod ell behind genus_XG, their u-cycles (the cusps)
and the cycles on each layer's fibre; and the brute-force lattice's listing
of a small parent, its cyclic subgroups, join closures and subgroup
classes.  det G is a group like any other, D = <diag(det g, 1)>, and no
unit is listed.
extend() is the one group closure: it adds one element to a closed finite
group by Dimino's coset extension (Holt, Eick and O'Brien, Handbook of
Computational Group Theory, 4.1), each new left coset entering whole; the
subgroup joins extend the closure they already hold.

Each MatrixGroup carries the enumeration cap of its run, set where it
enters the program and passed on to every group derived from it; the cap
bounds every table its computations hold.

Orders, levels, membership and equality read one cached Filtration per
group: for H <= GL2(Z/ell^n) the kernels K_e = ker(GL2(ell^n) -> GL2(ell^e))
have elementary abelian quotients K_e/K_{e+1} ~ M2(F_ell).  The filtration
holds a stabilizer chain of H(ell) acting on the rows of F_ell^2 (Sims 1970)
with three tables, each row with an element of H that reaches it: the lines
of P^1(F_ell) reached from the line through (1, 0) (at most ell + 1), the
multiples lambda*(1, 0) reached by the stabilizer of that line (at most
ell - 1), and the orbit of (0, 1) under the stabilizer of (1, 0) (at most
ell*(ell - 1)).  |H(ell)| is the product of the three sizes and H(ell)
itself is never listed.  The generators of H, as many as the presentation
gives, meet only the lines, so the cost of the chain follows ell rather
than the presentation.  For each layer it holds an F_ell basis of the
image L_e of H cap K_e, in the coordinates of modarith.digit, with
elements of H that realise it; H cap K_1 is the normal closure of the
residues the chain leaves.  Then |H| = |H(ell)| * prod ell^(dim L_e), the
level is the smallest ell^d with L_e full for all e >= d, and g is in H
when a lift of g mod ell comes out of the chain and the quotient sifts to
I through the layers.  None of this enumerates H, which matters for full
preimages, large ell and levels ell^3.  The conjugacy search and
modcurves.genus_XG name a right coset +-G*x mod ell by Filtration.least of
+-G, and genus_XG then lifts through the layers of +-G's filtration.

The conjugacy search (_conjugating_matrix) lifts a conjugator one
congruence level at a time and reads both groups only through their
filtrations and membership.  Every witness is checked by sifting the
conjugated generators through the target before it is returned, and a
failed check raises CertificateError.
"""

from bisect import bisect_left
from collections import namedtuple
from functools import cached_property
from itertools import chain, islice, product

from .errors import (CertificateError, EnumerationCapError, ModulusMismatchError,
                     NotInvertibleError, SearchBudgetError)
from .modarith import (IDENTITY, M2_BASIS, Echelon, PrimePowerModulus, digit, factorize,
                       kernel_element, mdet, minv, mmul, mneg, morder, mpow, mpowers,
                       mreduce, rowmul)

DEFAULT_CAP = 10 ** 7
# cosets and lifts the conjugacy search may try before SearchBudgetError
CONJUGACY_BUDGET = 500_000


def ambient_order(mod, family="GL2"):
    """|GL2(Z/ell^n)| or |SL2(Z/ell^n)|."""
    ell, n = mod.ell, mod.exponent
    if family == "GL2":
        return ell ** (4 * n - 3) * (ell - 1) * (ell ** 2 - 1)
    if family == "SL2":
        return ell ** (3 * n - 2) * (ell ** 2 - 1)
    raise ValueError("family must be GL2 or SL2, got %r" % (family,))


def orbit(seed, gens, act, cap=DEFAULT_CAP, name="orbit"):
    """The points reached from seed under x -> act(x, g) for g in gens, by
    BFS: an orbit for a group action, a join closure for x -> x v g.  A dict
    in BFS order that maps each point y to the (x, g) that first reached it,
    y = act(x, g), and seed to None.  Past cap points it raises
    EnumerationCapError, which names the walk by `name`."""
    reached = {seed: None}
    todo = [seed]
    for x in todo:
        for g in gens:
            y = act(x, g)
            if y not in reached:
                reached[y] = (x, g)
                todo.append(y)
                if len(reached) > cap:
                    raise EnumerationCapError("%s exceeded cap %d" % (name, cap))
    return reached


def partition(points, gens, act, cap=DEFAULT_CAP, name="orbit"):
    """The orbits of <gens> that meet `points`: for each point that no
    earlier walk reached, in the order of `points`, the orbit() walk from
    it, which lists that point first."""
    seen = set()
    for p in points:
        if p not in seen:
            reached = orbit(p, gens, act, cap, name)
            seen.update(reached)
            yield reached


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


def unit_group_generators(mod):
    """Generators of (Z/ell^n)^x as a list of integers."""
    ell, n = mod.ell, mod.exponent
    m = mod.modulus
    if m == 2:
        return []
    if ell == 2:
        if n == 2:
            return [3]
        return [m - 1, 5]
    # smallest primitive root mod ell, corrected to stay primitive mod ell^n:
    # r has order ell - 1 when no r^((ell-1)/p) is 1, p a prime of ell - 1
    primes = factorize(ell - 1)
    r = 2
    while any(pow(r, (ell - 1) // p, ell) == 1 for p in primes):
        r += 1
    if n >= 2 and pow(r, ell - 1, ell * ell) == 1:
        r += ell
    return [r % m]


def full_gl2(mod, label=None):
    """GL2(Z/ell^n) as an explicit MatrixGroup."""
    gens = [(1, 1, 0, 1), (1, 0, 1, 1)] + [(u, 0, 0, 1) for u in unit_group_generators(mod)]
    return MatrixGroup(mod, gens, label=label)


class MatrixGroup:
    """A subgroup of GL2(Z/ell^n) given by modulus and generators, with the
    enumeration cap that bounds every table its computations hold; the groups
    derived from it carry the same cap.

    Immutable after construction; the determinant image and the congruence
    filtration are computed once, on first use, and cached (read-only
    thereafter, safe to share).
    """

    __slots__ = ("mod", "gens", "label", "cap", "_det_image", "_filtration")

    def __init__(self, mod, gens, label=None, cap=DEFAULT_CAP):
        self.mod, self.cap = mod, cap
        m = mod.modulus
        seen, canon = set(), []
        for g in gens:
            g = mreduce(g, m)
            if mdet(g, m) % mod.ell == 0:
                raise NotInvertibleError("generator %r not invertible mod %d" % (g, m))
            if g not in seen and g != IDENTITY:
                seen.add(g)
                canon.append(g)
        self.gens = tuple(canon)
        self.label = label
        self._det_image = self._filtration = None

    # -- basic views --------------------------------------------------

    @property
    def ell(self):
        return self.mod.ell

    def filtration(self):
        "The congruence Filtration of the group (cached)."
        if self._filtration is None:
            self._filtration = Filtration(self.gens, self.mod, self.cap)
        return self._filtration

    def __contains__(self, g):
        return self.filtration().sift(g) == IDENTITY

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

    def order(self):
        return self.filtration().order()

    def index_in_ambient(self):
        total = ambient_order(self.mod)
        order = self.order()
        if total % order:
            # construction invariant: a chain's order is that of a subgroup of GL2 (Lagrange)
            raise ArithmeticError("order %d does not divide ambient %d" % (order, total))
        return total // order

    def level(self):
        """The level, an int: the smallest ell^d such that the group is the
        full preimage of its reduction mod ell^d (all layers from d on are
        full), or 1 when it holds all of GL2 mod ell and every layer."""
        base, dims = self.filtration().sizes()
        d = self.mod.exponent
        while d > 1 and dims[d - 2] == 4:
            d -= 1
        if d == 1 and base == ambient_order(PrimePowerModulus(self.ell, 1)):
            return 1
        return self.ell ** d

    # -- determinant, -I ----------------------------------------------

    def det_image(self):
        """(D, surjective), cached: D = <diag(det g, 1) : g a generator>, a
        MatrixGroup isomorphic to det G through its upper left entry, and
        whether det G is all of (Z/ell^n)^x.  No unit is listed."""
        if self._det_image is None:
            m = self.mod.modulus
            dets = MatrixGroup(self.mod, [(mdet(g, m), 0, 0, 1) for g in self.gens], cap=self.cap)
            self._det_image = dets, dets.order() == self.mod.unit_count()
        return self._det_image

    def contains_minus_identity(self):
        return self.filtration().sift(mneg(IDENTITY, self.mod.modulus)) == IDENTITY

    def adjoin_minus_identity(self):
        "+-G: the group itself when it holds -I, else the one its generators and -I generate."
        if self.contains_minus_identity():
            return self
        return MatrixGroup(self.mod, self.gens + (mneg(IDENTITY, self.mod.modulus),), self.label,
                           self.cap)

    # -- reduction / preimage / conjugation ----------------------------

    def reduce_to(self, target):
        "Generator-wise reduction to a divisor modulus; label dropped."
        if isinstance(target, int):
            target = PrimePowerModulus(self.ell, target)
        if not target.divides(self.mod):
            raise ModulusMismatchError("%s does not divide %s" % (target, self.mod))
        mt = target.modulus
        return MatrixGroup(target, [mreduce(g, mt) for g in self.gens], cap=self.cap)

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
            return MatrixGroup(target, list(self.gens), label, self.cap)
        gens = list(self.gens)
        for j in range(self.mod.exponent, target.exponent):
            gens += [kernel_element(b, self.ell ** j, target.modulus) for b in M2_BASIS]
        return MatrixGroup(target, gens, label, self.cap)

    def conjugated_by(self, c):
        m = self.mod.modulus
        ci = minv(c, m, self.ell)
        return MatrixGroup(self.mod, [mmul(mmul(c, g, m), ci, m) for g in self.gens],
                           cap=self.cap)


def _line(a, b, ell):
    "The point of P^1(F_ell) through the nonzero row (a, b): (1, b/a) or (0, 1)."
    a %= ell
    return (1, b * pow(a, -1, ell) % ell) if a else (0, 1)


def _sorted_cosets(sub, ell):
    "{b: the coset b*sub in increasing order} for b in F_ell^x, sub <= F_ell^x."
    out = {}
    for a in range(1, ell):
        if a not in out:
            coset = sorted(a * s % ell for s in sub)
            out.update(dict.fromkeys(coset, coset))
    return out


class Filtration:
    """The congruence filtration of a group G <= GL2(Z/ell^n), n >= 1, over a
    stabilizer chain of G(ell).

    G acts on row vectors mod ell from the right.  The chain has three base
    points (Sims 1970; Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, 4.4), each with a table that maps every point p of its
    orbit to (t, t^-1), t an element of the stabilizer of the earlier points
    that takes the base point to p:
      `orbits[0]`, the lines of P^1(F_ell) that G reaches from the line
          through (1, 0), keyed by _line: at most ell + 1 rows;
      `orbits[1]`, the orbit Lambda*(1, 0) of (1, 0) under the stabilizer
          G_L of that line, keyed by lambda: Lambda, the image of G_L under
          its upper left entry, is a subgroup of F_ell^x, so at most ell - 1
          rows;
      `orbits[2]`, the orbit O_2 of (0, 1) under the stabilizer G_1 of
          (1, 0): at most ell*(ell - 1) rows.
    The stabilizer of all three points is G cap K_1, so |G(ell)| is the
    product of the three table sizes, lift() finds an element of G over any
    c mod ell with one lookup in each table, and the orbit O_1 of (1, 0)
    under G is Lambda times the rows (1, 0)*t of the line table.

    For e = 1..n-1, `layers[e-1]` is (an Echelon of L_e, {row: [b^0, b^-1,
    ..., b^-(ell-1)]}) with b in G cap K_e of layer-e digit `row`
    (modarith.digit); L_e is the image of G cap K_e in K_e/K_{e+1} ~
    M2(F_ell).

    The constructor adjoins the generators to the empty chain (adjoin), and
    the chain grows by Schreier-Sims.  A Schreier generator t(p)*g*t(pg)^-1 of
    a table fixes its base point and is sifted down the tables below it; one
    that reaches a point new to table j becomes a generator of table j and of
    every table between, and one that sifts through the last table leaves a
    residue in G cap K_1.  A generator found at the third table joins the
    second: it fixes every point Lambda*(1, 0), so its conjugates by the
    second table are Schreier generators of G_L that the first table never
    makes.  The residues and the Schreier generators of the third table are
    reduced through the layers; a residue b != I becomes a row of its first
    nonzero layer, and b^ell, the commutators of b with the earlier rows and
    the conjugates g*b*g^-1 by the generators g of G are sifted in turn
    (adjoin conjugates the rows by a later generator too).  The conjugates are
    needed: the stabilizers in the chain are spanned by the generators the
    tables keep and the residues, so G cap K_1 is spanned by the Schreier
    generators of the last table and the conjugates of the residues, not by
    the residues alone.  When all of them sift to I, the products of rows in
    layer order form a normal subgroup of G (Holt, Eick and O'Brien, ch. 8)
    that holds every residue, so it is G cap K_1.  Each layer is then put on
    the RREF rows of L_e.  The element that represents each coset of G cap K_1
    (canonical_lift), each row of a layer, and G itself (generators) is a
    function of G alone, not of its presentation.  least() gives the coset
    keys of the conjugacy search and genus_XG and the table points of
    generators(); nothing else reads them.
    """

    def __init__(self, gens, mod, cap=DEFAULT_CAP):
        self.mod, self.ell, self.m, self.cap = mod, mod.ell, mod.modulus, cap
        self.layers = [(Echelon(mod.ell), {}) for _ in range(mod.exponent - 1)]
        self._rows, self._gens = [], []
        one = (IDENTITY, IDENTITY)
        self.orbits = ({(1, 0): one}, {1: one}, {(0, 1): one})
        self._chain_gens = (self._gens, [], [])  # the line table meets every generator
        self._generators = None
        self.adjoin(gens)
        self._canonical_rows()

    def adjoin(self, gens):
        """Grows the chain in place to that of <G, gens>: the new generators
        join the line table and conjugate the layer rows.  The rows it adds
        are not normalised, so canonical_lift, least and generators() are for
        constructed chains and those that grow() leaves; the chain a
        MatrixGroup caches is never grown."""
        m = self.m
        new = [(g, minv(g, m, self.ell)) for g in gens]
        conjugates = [mmul(mmul(g, b, m), ginv, m) for b in self._rows for g, ginv in new]
        self._extend(0, new)
        self._sift_in(conjugates)

    def grow(self, elements, order):
        """Adjoins, in order, each of the elements that the chain does not
        hold, until it has `order` elements, and puts the rows in canonical
        form; returns the tuple of the elements adjoined."""
        kept = []
        for g in elements:
            if self.order() == order:
                break
            if self.sift(g) != IDENTITY:
                kept.append(g)
                self.adjoin([g])
        self._canonical_rows()
        return tuple(kept)

    def _point(self, level, g):
        "The image under g of the base point of table `level`."
        ell = self.ell
        if level == 0:
            return _line(g[0], g[1], ell)
        if level == 1:
            return g[0] % ell
        return g[2] % ell, g[3] % ell

    def _extend(self, level, new):
        """Adds the (generator, inverse) pairs `new` to the chain table
        `orbits[level]`: every row meets each new generator once and every new
        row meets all generators.  A Schreier generator t(v)*g*t(vg)^-1 != I
        goes on down the chain."""
        m = self.m
        table, gens = self.orbits[level], self._chain_gens[level]
        gens += new
        todo = [(v, new) for v in table]
        for v, moves in todo:
            t, tinv = table[v]
            for g, ginv in moves:
                tg = mmul(t, g, m)
                w = self._point(level, tg)
                old = table.get(w)
                if old is None:
                    table[w] = (tg, mmul(ginv, tinv, m))
                    todo.append((w, gens))
                    if len(table) > self.cap:
                        raise EnumerationCapError("orbit table %d of G(%d) exceeded cap %d"
                                                  % (level + 1, self.ell, self.cap))
                elif tg != old[0]:
                    self._sift_down(level + 1, mmul(tg, old[1], m))

    def _sift_down(self, level, s):
        """Sifts s, which fixes the base points of the tables before `level`,
        through the tables from `level` on.  At the first table that misses
        its point, s becomes a generator of that table and of the ones
        between; through all three it leaves a residue in G cap K_1."""
        m = self.m
        for j in range(level, 3):
            hit = self.orbits[j].get(self._point(j, s))
            if hit is None:
                new = [(s, minv(s, m, self.ell))]
                for i in range(j, level - 1, -1):
                    self._extend(i, new)
                return
            s = mmul(s, hit[1], m)
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
            while not any(digit(b, q, ell)):
                e, q = e + 1, q * ell
            echelon, powers = self.layers[e - 1]
            row = echelon.add(digit(b, q, ell))
            binv = minv(b, m, ell)
            powers[row] = mpowers(binv, ell, m)
            todo.append(mpow(b, ell, m))
            for c in self._rows:
                todo.append(mmul(mmul(binv, minv(c, m, ell), m), mmul(b, c, m), m))
            for g, ginv in self._gens:
                todo.append(mmul(mmul(g, b, m), ginv, m))
            self._rows.append(b)

    def _canonical_rows(self):
        """Puts each layer on the RREF rows of L_e, the realiser of a row the
        normal form of the coset (G cap K_(e+1))*b of any b in G cap K_e
        over it, which depends on G alone; the realisers, in layer order,
        become the rows."""
        ell, m = self.ell, self.m
        self._rows = []
        for e, (echelon, powers) in enumerate(self.layers):
            # with layer e emptied, reduce() normalises the deeper digits only
            self.layers[e] = (Echelon(ell), {})
            rows = {}
            for r in echelon.rref():
                steps, b = [], IDENTITY
                echelon.reduce(r, steps)
                for row, f in steps:
                    b = mmul(powers[row][-f % ell], b, m)
                self._rows.append(self.reduce(b))
                rows[r] = mpowers(minv(self._rows[-1], m, ell), ell, m)
            self.layers[e] = (Echelon(ell, rows), rows)

    def lift(self, c):
        """(t, t^-1) for an element t of G with t = c mod ell, or None when c
        mod ell is not in G(ell).  t = t_2 * t_1 * t_0, where (1, 0)*t_0 lies on
        the line of the first row of c, (1, 0)*t_1 = (lambda, 0) is the first
        row of r = c*t_0^-1, and (0, 1)*t_2 is the second row of r*t_1^-1."""
        ell, m = self.ell, self.m
        lines, scalars, seconds = self.orbits
        one = lines.get(_line(c[0], c[1], ell))
        if one is None:
            return None
        t0, t0inv = one
        r = mmul(c, t0inv, ell)
        two = scalars.get(r[0])
        if two is None:
            return None
        t1, t1inv = two
        three = seconds.get(rowmul((r[2], r[3]), t1inv, ell))
        if three is None:
            return None
        t2, t2inv = three
        return mmul(mmul(t2, t1, m), t0, m), mmul(t0inv, mmul(t1inv, t2inv, m), m)

    def sift(self, g):
        """The residue of g: t^-1 * g reduced through the layers, t the lift of
        g mod ell, or None when g mod ell is not in G(ell); I exactly for g in G."""
        lift = self.lift(g)
        return None if lift is None else self.reduce(mmul(lift[1], g, self.m))

    def reduce(self, x, cinv=IDENTITY, steps=None):
        """x times an element of G cap K_1 that puts every layer digit of x
        in normal form, for x = c mod ell and cinv = c^-1 mod ell.

        Layer by layer, multiplying by k in G cap K_e moves the digit D of x
        by digit(k)*c, so D*cinv is brought to Echelon normal form modulo
        L_e.  Elements of one coset (G cap K_1)*x reduce to the same matrix;
        with c = I the result is I exactly when x lies in G cap K_1.  When
        `steps` is a list, the pairs (g, f) with reduce(x, cinv) = g_k^f_k *
        ... * g_1^f_1 * x are appended to it, g the inverse b^-1 of a layer
        row's realiser b.
        """
        ell, m = self.ell, self.m
        q = 1
        for echelon, powers in self.layers:
            q *= ell
            rows = []
            echelon.reduce(mmul(digit(x, q, ell), cinv, ell), rows)
            for row, f in rows:
                x = mmul(powers[row][f], x, m)
                if steps is not None:
                    steps.append((powers[row][1], f))
        return x

    def canonical_lift(self, c):
        """The element of G over c mod ell whose layer digits are in normal
        form: reduce() of any lift, so a function of G and c alone; None when
        c mod ell is not in G(ell)."""
        lift = self.lift(c)
        return lift and self.reduce(lift[0], mreduce(lift[1], self.ell))

    @cached_property
    def least(self):
        """least(x, level=0) is the least element mod ell of H*x, for x in
        GL2(Z/ell^n) and H the stabilizer in G(ell) of the base points before
        table `level`: G(ell), G_L or G_1 at level 0, 1 or 2.  Its first row
        is the least v*x for v in the orbit of (1, 0) under H (O_1,
        Lambda*(1, 0) or (1, 0)), and with t in H taking (1, 0) to that v and
        x_1 = t*x, its second row is the least of O_2*x_1.  On the line L the
        least of the rows lambda*u(L)*x, u(L) = (1, 0)*t_0, is the least
        multiple of its first nonzero entry in the coset of Lambda that holds
        it.  So the least of O_1*x comes from a scan of the line table, or
        from a scan of all rows r in lexicographic order, stopping at the
        first with r*x^-1 in O_1, about (ell^2 - 1)/|O_1| steps; the cheaper
        is taken.  G_1 lies in {[1 0; c d]}, with lower right entries in a
        subgroup D of F_ell^x.  O_2 is F_ell x D when G_1 holds every [1 0;
        c 1]; otherwise G_1(ell) is isomorphic to D, of order prime to ell,
        so it is the conjugate of diag(1, D) by [1 0; kappa 1] and O_2 is the
        graph {(kappa*(d - 1), d)}.  On F_ell x D, c clears one entry of (c,
        d)*x_1 and d makes the other the least multiple in a coset of D; on
        the graph, (kappa*(d - 1), d)*x_1 = d*z - sigma, and a bisection in
        the sorted coset of D finds the d whose first entry that varies is
        least.  The closed forms and their tables are built on first use.
        """
        ell = self.ell
        lines, scalars, seconds = self.orbits
        inv = [0] + [pow(a, -1, ell) for a in range(1, ell)]
        reach = [(line, rowmul((1, 0), t, ell)) for line, (t, _) in lines.items()]
        # scale[b]: the lambda in Lambda with lambda*b least in the coset b*Lambda
        scale = {b: coset[0] * inv[b] % ell for b, coset in _sorted_cosets(scalars, ell).items()}
        scan_lines = len(lines) ** 2 * len(scalars) <= ell * ell - 1
        dset = {d for _, d in seconds}
        cosets = _sorted_cosets(dset, ell)
        graph = len(seconds) == len(dset)
        kappa = next((c * inv[d - 1] % ell for c, d in seconds if d != 1), 0)

        def first(x, level):
            "(L, lambda) for v = lambda*u(L) in O_1 (Lambda*(1, 0) at level 1) with v*x least."
            if scan_lines or level:
                best = ((ell, 0),)  # above every row
                for line, u in (reach[:1] if level else reach):  # reach[0]: t_0 = I
                    p, q = rowmul(u, x, ell)
                    s = scale[p or q]
                    best = min(best, ((s * p % ell, s * q % ell), line, s))
                return best[1:]
            xi = minv(x, ell, ell)
            # the rows (0, j) are the line through (0, 1)*x^-1: skipped when it is not in O_1
            start = 1 if _line(xi[2], xi[3], ell) in lines else ell
            for r in islice(product(range(ell), repeat=2), start, None):
                v0, v1 = (r[0] * xi[0] + r[1] * xi[2]) % ell, (r[0] * xi[1] + r[1] * xi[3]) % ell
                line = (1, v1 * inv[v0] % ell) if v0 else (0, 1)
                hit = lines.get(line)
                if hit is not None:
                    s = (v0 * hit[1][0] + v1 * hit[1][2]) % ell
                    if s in scalars:
                        return line, s

        def second(x):
            "The least row w*x for w in O_2."
            p, q, e, f = x
            if not graph:
                # O_2 = F_ell x D: c clears one entry of w*x_1 and d makes the other least
                b = (f - e * q * inv[p]) % ell if p else e
                d = cosets[b][0] * inv[b] % ell
                c = -d * e * inv[p] % ell if p else -d * f * inv[q] % ell
            else:
                z, sigma = ((kappa * p + e) % ell, (kappa * q + f) % ell), (kappa * p, kappa * q)
                i = 0 if z[0] else 1
                coset = cosets[z[i]]
                j = bisect_left(coset, sigma[i] % ell)
                d = (coset[j] if j < len(coset) else coset[0]) * inv[z[i]] % ell
                c = kappa * (d - 1) % ell
            return (c * p + d * e) % ell, (c * q + d * f) % ell

        def least(x, level=0):
            c = mreduce(x, ell)
            if level < 2:
                line, s = first(c, level)
                c = mmul(mmul(scalars[s][0], lines[line][0], ell), c, ell)
            return c[:2] + second(c)

        return least

    def generators(self):
        """The canonical generating set of G (cached): the canonical lifts of
        the least element over each point of the three tables, tables in
        order and points sorted, then the rows' realisers, each kept when
        the ones kept before it do not generate it; one chain grows by the
        kept elements (grow) and the walk stops once it has |G| elements."""
        if self._generators is None:
            lines, scalars, seconds = self.orbits
            tops = chain((self.least(lines[p][0], 1) for p in sorted(lines)),
                         (self.least(scalars[s][0], 2) for s in sorted(scalars)),
                         ((1, 0) + p for p in sorted(seconds)))
            elements = chain(map(self.canonical_lift, tops), self._rows)
            self._generators = Filtration((), self.mod, self.cap).grow(elements, self.order())
        return self._generators

    def sizes(self):
        "(|G(ell)|, [dim L_1, ..., dim L_{n-1}]); |G(ell)| is the product of the table sizes."
        lines, scalars, seconds = self.orbits
        return (len(lines) * len(scalars) * len(seconds),
                [len(echelon) for echelon, _ in self.layers])

    def order(self):
        base, dims = self.sizes()
        return base * self.ell ** sum(dims)


# ---------------------------------------------------------------------------
# named constructions

CARTAN_KINDS = ("split", "split-normalizer", "nonsplit", "nonsplit-normalizer",
                "borel", "section4-semidirect")


class CartanSpec(namedtuple("CartanSpec", "kind modulus epsilon")):
    "A named construction: kind, PrimePowerModulus, epsilon (int or None)."

    __slots__ = ()

    def __new__(cls, kind, modulus, epsilon=None):
        self = super().__new__(cls, kind, modulus, epsilon)
        if kind not in CARTAN_KINDS:
            raise ValueError("unknown kind %r" % (kind,))
        if kind == "section4-semidirect" and modulus.exponent != 2:
            raise ValueError("section4-semidirect requires exponent 2")
        if kind in ("split", "split-normalizer", "borel") and epsilon is not None:
            raise ValueError("epsilon is not used by %s" % kind)
        if kind.startswith("nonsplit") or kind == "section4-semidirect":
            ell = modulus.ell
            if ell != 2:
                eps = self.resolved_epsilon()
                if pow(eps, (ell - 1) // 2, ell) != ell - 1:
                    raise ValueError("epsilon %d is a quadratic residue mod %d" % (eps, ell))
            elif kind == "section4-semidirect":
                raise ValueError("section4-semidirect needs an odd prime")
            elif epsilon is not None:
                raise ValueError("epsilon is not used at ell = 2")
        return self

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
    # construction invariant: F_ell[sqrt(eps)]^x is cyclic for the non-residue CartanSpec checks
    raise ArithmeticError("no generator found for nonsplit Cartan mod %d" % ell)


def _crt_exponent(coprime_order, ell):
    "Exponent e with e = 1 mod coprime_order and e = 0 mod ell."
    e = ell * pow(ell, -1, coprime_order)
    return e


def build_cartan(spec, cap=DEFAULT_CAP):
    """Construct the group described by a CartanSpec, carrying the cap.

    nonsplit            {[a eps*b; b a]}, (a,b) != (0,0) mod ell; for ell = 2
                        {[a -b; b a-b]}, multiplication by a + b*w on
                        Z[w]/2^n with w^2 + w + 1 = 0, of order 3*4^(n-1)
    nonsplit-normalizer adjoins [1 0; 0 -1]; for ell = 2 the conjugation
                        w -> w^2, [1 -1; 0 -1]
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
        return MatrixGroup(mod, gens, "%s(%d)" % (kind, m), cap)

    if ell == 2:
        # w generates F_4^x; -1 = 1 + 2*(-1), 1 + 2w and (1 + 2w)^2 = -3 and
        # 1 + 4w span the first two kernel layers, and squaring carries layer
        # e - 1 onto layer e from e = 3 on
        gens = [mreduce((a, -b, b, a - b), m) for a, b in ((0, 1), (-1, 0), (1, 2), (1, 4))]
        if kind == "nonsplit-normalizer":
            gens.append((1, m - 1, 0, m - 1))
        return MatrixGroup(mod, gens, "%s(%d)" % (kind, m), cap)

    eps = spec.resolved_epsilon()
    a0, b0 = _nonsplit_base_pair(ell, eps)

    if kind in ("nonsplit", "nonsplit-normalizer"):
        gens = [(a0, eps * b0 % m, b0, a0)]
        if n >= 2:
            gens += [kernel_element(Y, ell, m) for Y in ((1, 0, 0, 1), (0, eps, 1, 0))]
        if kind == "nonsplit-normalizer":
            gens.append((1, 0, 0, m - 1))
        return MatrixGroup(mod, gens, "%s(%d)" % (kind, m), cap)

    # section4-semidirect, n == 2
    g0 = (a0, eps * b0 % m, b0, a0)
    teich = mpow(g0, _crt_exponent(ell * ell - 1, ell), m)
    if morder(teich, mod) != ell * ell - 1:
        # construction invariant: g0 has order (ell^2 - 1)*ell^j and the power kills the ell-part
        raise ArithmeticError("Teichmuller lift %r does not have order %d"
                              % (teich, ell * ell - 1))
    sigma = (1, 0, 0, m - 1)
    shapes = [(1, 0, 0, 0), (0, eps, -1 % ell, 0), (0, 0, 0, 1)]
    kgens = [kernel_element(s, ell, m) for s in shapes]
    group = MatrixGroup(mod, [teich, sigma] + kgens, "section4-semidirect(%d)" % m, cap)
    expected = 2 * (ell * ell - 1) * ell ** 3
    got = group.order()
    if got != expected:
        # construction invariant: teich, sigma and the three shapes give this order for odd ell
        raise ArithmeticError("semidirect construction has order %d, expected %d"
                              % (got, expected))
    return group


# ---------------------------------------------------------------------------
# right cosets and conjugacy

def _conjugating_matrix(h, big):
    """Search for c with c*g*c^-1 in big for every generator g of h, one
    congruence level at a time; returns the witness 4-tuple mod ell^n or None.

    When c is a witness, so is s*b*c*k for a scalar s, b in big and k in h.
    Mod ell, c therefore runs over one representative of each right coset
    +-B(ell)*x of GL2(F_ell), found by an orbit BFS under the generators of
    GL2(F_ell) keyed by Filtration.least of +-B, and must conjugate every
    generator into B(ell).  A c mod ell^j lifts to the candidates (I +
    ell^j*Y)*c mod ell^(j+1); scalars, B cap K_j on the left and h cap K_j
    on the right move Y by span(I, L_j(B), cbar*L_j(h)*cbar^-1), so Y runs
    over the Echelon normal forms modulo that span, and a candidate is kept
    when it conjugates every generator into B mod ell^(j+1).  The search
    backtracks when no Y fits (Holt, Eick and O'Brien, ch. 8).  Every coset
    and every Y tried counts against CONJUGACY_BUDGET; the cosets, like
    every table of big's computations, are bounded by big's cap.
    """
    ell, n = h.mod.ell, h.mod.exponent
    levels = [big.reduce_to(e) for e in range(1, n)] + [big]
    h_layers = [echelon.rows for echelon, _ in h.filtration().layers]
    big_layers = [echelon.rows for echelon, _ in big.filtration().layers]
    nodes = 0

    def fits(c, j):
        "Whether c conjugates every generator of h into B mod ell^j."
        nonlocal nodes
        nodes += 1
        if nodes > CONJUGACY_BUDGET:
            raise SearchBudgetError("conjugacy search exceeded %d nodes" % CONJUGACY_BUDGET)
        q = ell ** j
        ci = minv(c, q, ell)
        filt = levels[j - 1].filtration()
        return all(filt.sift(mmul(mmul(c, g, q), ci, q)) == IDENTITY for g in h.gens)

    def lifts(c, j):
        "The candidates mod ell^(j+1) over c mod ell^j; the cosets for j = 0."
        if j == 0:
            least = levels[0].adjoin_minus_identity().filtration().least
            return sorted(orbit(least(IDENTITY), full_gl2(PrimePowerModulus(ell, 1)).gens,
                                lambda r, g: least(mmul(r, g, ell)), big.cap,
                                "cosets of +-B mod %d" % ell))
        cbar = mreduce(c, ell)
        cbarinv = minv(cbar, ell, ell)
        span = Echelon(ell, [IDENTITY] + big_layers[j - 1]
                       + [mmul(mmul(cbar, d, ell), cbarinv, ell) for d in h_layers[j - 1]])
        q, m = ell ** j, ell ** (j + 1)
        return (mmul(kernel_element(y, q, m), c, m) for y in span.normal_forms(4))

    def search(c, j):
        "A witness mod ell^n over c mod ell^j, or None."
        if j == n:
            return c
        for cand in lifts(c, j):
            if fits(cand, j + 1):
                got = search(cand, j + 1)
                if got is not None:
                    return got
        return None

    return search(None, 0)


def is_conjugate(g, h):
    """Whether some c in GL2 conjugates g onto h; returns (bool, witness 4-tuple).

    For groups of equal order a conjugate of g inside h is h itself, so this
    is the order check plus conjugate_into.
    """
    if g.mod != h.mod:
        raise ModulusMismatchError("groups live over different moduli")
    if g.order() != h.order():
        return False, None
    ok, witness, _ = conjugate_into(g, h)
    return ok, witness


def conjugate_into(h, big):
    """Whether some GL2-conjugate of h is a subgroup of big; returns
    (bool, witness 4-tuple c, index of the image in big).  The witness is
    checked by sifting each conjugated generator c*g*c^-1 of h through big."""
    if h.mod != big.mod:
        raise ModulusMismatchError("groups live over different moduli")
    mod = h.mod
    m = mod.modulus
    ho, bo = h.order(), big.order()
    if bo % ho:
        return False, None, None
    c = _conjugating_matrix(h, big)
    if c is None:
        return False, None, None
    ci = minv(c, m, mod.ell)
    # c conjugates every generator into big, so the whole conjugate lands there.
    if any(mmul(mmul(c, g, m), ci, m) not in big for g in h.gens):
        raise CertificateError("conjugating matrix %r does not map %r into %r"
                               % (c, h, big))
    return True, c, bo // ho
