"""Subgroup-lattice verifications: low-index determinant-surjective
subgroups, split-Cartan-normalizer membership, and preimage rigidity.

The searches read the layered structure of subgroups of GL2(Z/ell^n) from
the congruence filtration of gl2 (group.filtration(): G(ell) as a
stabilizer chain and an Echelon of each kernel layer L_e; Holt, Eick and
O'Brien, 4.4 and ch. 8).  Only the brute-force lattice lists the elements
of a parent group, by one orbit walk bounded by the group's cap:

* proper_detsurjective_subgroups classifies H <= G up to G-conjugacy.
  For exponent-2 moduli whose mod-ell quotient has order prime to ell,
  whatever |G|, subgroups that keep the full mod-ell image correspond, by
  Schur-Zassenhaus, to the G(ell)-stable subspaces W of the kernel part
  U = L_1 of G, one conjugacy class per W, realized as (complement over
  the kernel) * N_W.  KernelModule.stable_subspaces walks the lattice of
  these up from 0, each cover W + M of W read off the minimal submodules M
  of U/W, which meet the eigenspaces of one generator's conjugation
  action.  The complement is the Gaschutz average of preimage_rigidity
  over the layer ell (_layer_step; S = 1, so every W splits and the average
  runs over the canonical lifts in G of G(ell)), evaluated at the canonical
  generators only.  Only the W of proper index <= the bound go to the layer
  step, which checks the order of each representative; the caller checks
  that its generators lie in G and that it reduces onto G(ell).  The class
  has [K : N_K(H)] members for K = I + ell*U, read off
  the kernel action (KernelModule.class_size).  Other parents of order <=
  BRUTE_LIMIT get the brute-force lattice (cyclic subgroups, then join
  closure), whose subgroups are split into conjugacy classes by
  gl2.partition under the generators.

* preimage_rigidity decides whether any proper det-surjective subgroup of
  the one-step full preimage reduces exactly onto G.  Candidate kernel
  intersections U are the G-stable subspaces of M2(F_ell) above the span of
  the ell-th-power image of G's top kernel layer L_{n-1}, a stable floor,
  and the walk starts there.  A subgroup over U exists iff
  V = (I + ell^n M2)/N_U has a complement, and by Gaschutz iff an ell-Sylow
  subgroup splits over V.  Its generators, the layer rows of G cap K_1
  (deepest layer first) and the canonical lift of one unipotent I + N of
  G(ell), form a polycyclic sequence; its power and conjugation relators,
  sifted into words in earlier generators, are affine in the lifts
  g_i * (I + ell^n v_i), so one linear system over F_ell decides the split
  (the layer step of the Cannon-Cox-Holt lifting method, _layer_step;
  Holt, Eick and O'Brien, 7.6 and ch. 8).  A vector y that kills the
  columns and not the constant certifies "no complement" and is checked on
  the relator values.  A solution lifts the sequence to a complement over
  S, and averaging the cocycle of the section it induces over the
  canonical lift of each coset of S in G turns it into a complement over G
  (Gaschutz 1952), evaluated at the canonical generators of G; the layer
  step checks the order of the group it generates with N_U.  Determinant
  surjectivity of that complement settles the det-surjective variant.  A
  subgroup over G has det G as its determinant mod ell^n, so for G not
  det-surjective the rigidity claim holds vacuously.  For det-surjective G
  a complement without surjective determinant lies over a traceless U,
  whose determinant image is rigid across complements unless G has
  nontrivial homomorphisms to F_ell, and that corner raises rather than
  guesses.

Lifts and generators are the filtration's canonical ones, so every
representative and witness is a function of the group.  Kernel coordinates
are modarith.digit and kernel_element, F_ell linear algebra on them is
modarith.Echelon, and the word in the layer rows of an element of G cap K_1
is read off the steps of Filtration.reduce.  All search budgets are
explicit and exhaustion is a hard error; the walk over the cosets of a
Sylow subgroup in G(ell) is an orbit BFS bounded by the group's cap.
Every subgroup, section and counterexample the searches build is
verified, and a failed verification raises CertificateError.
"""

from collections import namedtuple
from itertools import product

from .errors import CertificateError, EnumerationCapError, SearchBudgetError
from .gl2 import (CartanSpec, DEFAULT_CAP, Filtration, MatrixGroup, build_cartan,
                  conjugate_into, extend, orbit, partition)
from .modarith import (IDENTITY, M2_BASIS, Echelon, PrimePowerModulus, digit,
                       kernel_element, lincomb, mdet, minv, mmul, mpow, mpowers,
                       mreduce, nullspace, solutions)

BRUTE_LIMIT = 1000


SubgroupClass = namedtuple("SubgroupClass",
                           "representative index_in_parent det_surjective class_size")
# counterexample is a MatrixGroup, or None when rigid
RigidityResult = namedtuple("RigidityResult", "rigid counterexample checked_subspaces")


# ---------------------------------------------------------------------------
# stable subspaces of the kernel module F_ell^4

def _is_stable(basis, action, ell):
    "Whether the span of basis is stable under the action matrices."
    span = Echelon(ell, basis)
    return all(_apply(b, cols, ell) in span for cols in action for b in basis)


def _apply(v, cols, ell):
    "The image of a coordinate vector under a linear map given by its columns."
    a, b, c, d = v
    return tuple((a * w + b * x + c * y + d * z) % ell for w, x, y, z in zip(*cols))


def _conjugation(g, ell):
    "Conjugation by a mod-ell matrix as a linear map, by its columns."
    gi = minv(g, ell, ell)
    return [mmul(mmul(g, b, ell), gi, ell) for b in M2_BASIS]


def _lines(basis, ell):
    "One vector of each line of the span of an independent basis."
    k = len(basis)
    for pivot in range(k):
        for rest in product(range(ell), repeat=k - pivot - 1):
            yield lincomb((0,) * pivot + (1,) + rest, basis, ell)


def _complement(W, span, ell):
    "An Echelon of W, and rows that complete it to a basis of span + W."
    base, grown = Echelon(ell, W), Echelon(ell, W)
    return base, [row for row in map(grown.add, span) if row is not None]


class KernelModule(namedtuple("KernelModule", "ell gens_bar")):
    """ker(GL2(ell^(n+1)) -> GL2(ell^n)) as F_ell^4 with G-conjugation,
    the action factoring through the mod-ell image."""

    __slots__ = ()

    def _action_matrices(self):
        "Conjugation by each generator as a linear map on coordinate vectors."
        return [_conjugation(g, self.ell) for g in self.gens_bar]

    def spin(self, vectors, action=None, floor=()):
        """Smallest stable subspace containing the vectors and the stable
        subspace spanned by `floor`, in canonical form."""
        ell = self.ell
        action = action or self._action_matrices()
        span = Echelon(ell, floor)
        frontier = [w for w in map(span.add, vectors) if w is not None]
        while frontier and len(span) < 4:
            new = []
            for v in frontier:
                for cols in action:
                    w = span.add(_apply(v, cols, ell))
                    if w is not None:
                        new.append(w)
            frontier = new
        return span.rref()

    def _factors(self, g):
        """(f(A), f is the quadratic) for each irreducible factor f over
        F_ell of the characteristic polynomial (x - 1)^2 q(x) of conjugation
        A by g, where q = x^2 - (t^2/d - 2)x + 1 for t = tr g and d = det g:
        A - r for r = 1 and each root r of q, or q(A) when q has none."""
        ell = self.ell
        cols = _conjugation(g, ell)
        s = ((g[0] + g[3]) ** 2 * pow(g[0] * g[3] - g[1] * g[2], -1, ell) - 2) % ell
        roots = {r for r in range(ell) if (r * r - s * r + 1) % ell == 0}
        # the columns of a*A^2 + b*A + c from those of A
        poly = lambda a, b, c: [tuple((a * y + b * x + c * (i == j)) % ell
                                      for i, (y, x) in enumerate(zip(_apply(v, cols, ell), v)))
                                for j, v in enumerate(cols)]
        if roots:
            return [(poly(0, 1, -r), False) for r in sorted(roots | {1})]
        return [(poly(0, 1, -1), False), (poly(1, -s, 1), True)]

    def stable_subspaces(self, floor=(), span=M2_BASIS, cap=DEFAULT_CAP):
        """All stable subspaces W with floor <= W <= span, for stable RREF
        bases `floor` and `span` (the zero space and the whole module by
        default), each in RREF.  A breadth-first walk up the lattice from
        floor: the covers of W are the W + M for the minimal submodules M of
        span/W (Holt, Eick and O'Brien, ch. 7).  EnumerationCapError is
        raised once the list holds more than cap subspaces.

        Conjugation by one generator g has characteristic polynomial
        (x - 1)^2 q(x) on M2, so every M meets the kernel on span/W of f(A)
        for an irreducible factor f of it (_factors), and M is the spin of W
        and any vector of M.  So the spins of one vector per line of those
        kernels hold every cover; the others are stable too, and the walk
        steps to all of them.  Two shortcuts: the kernel of q(A) for q
        irreducible is F_ell[A]-cyclic, so one vector spins it; and a line
        stable with character chi lists every cover that carries chi, the
        lines of the joint eigenspace E_chi, without spins (Lux, Mueller and
        Ringe 1994).  A kernel line in the sum of the E_chi listed lies in
        one of them, or spins past a cover, so it is skipped.  g is the
        generator whose kernels on span/floor hold the fewest lines; those
        on span/W have no more, since dim ker f(A) is dim coker f(A), which
        only drops on quotients.  For g non-central each kernel has
        dimension <= 2."""
        ell = self.ell
        action = self._action_matrices()
        if not _is_stable(floor, action, ell):
            raise CertificateError("floor %r is not stable" % (floor,))
        start = tuple(Echelon(ell, floor).rref())

        def lines(factors):
            kernels = self._kernels(*_complement(start, span, ell), factors)
            return sum(min(len(k), 1) if quadratic else (ell ** len(k) - 1) // (ell - 1)
                       for k, (_, quadratic) in zip(kernels, factors))

        factors = min(map(self._factors, self.gens_bar or (IDENTITY,)), key=lines)
        seen, frontier = {start}, [start]
        while frontier:
            new = []
            for W in frontier:
                for X in self._covers(W, span, action, factors):
                    if X not in seen:
                        seen.add(X)
                        new.append(X)
                        if len(seen) > cap:
                            raise EnumerationCapError("stable subspaces exceeded cap %d" % cap)
            frontier = new
        out = [list(s) for s in sorted(seen, key=lambda s: (len(s), s))]
        for s in out:
            if not _is_stable(s, action, ell):
                raise CertificateError("walked subspace %r is not stable" % (s,))
        return out

    def _kernels(self, base, comp, factors):
        "A basis of the kernel of each f(A) on the span of comp modulo base."
        ell = self.ell
        return [solutions([(base.reduce(_apply(c, f, ell)), c) for c in comp], ell)
                for f, _ in factors]

    def _covers(self, W, span, action, factors):
        """Stable subspaces X > W of span, in RREF, among them every cover of
        W (stable_subspaces)."""
        ell = self.ell
        base, comp = _complement(W, span, ell)
        if len(comp) == 1:  # span/W is a line, and span is stable
            return [tuple(Echelon(ell, list(W) + comp).rref())]
        # A v - x v mod W, for v reduced mod W
        shifted = lambda v, cols, x: tuple((a - x * b) % ell for a, b in
                                           zip(base.reduce(_apply(v, cols, ell)), v))
        # W plus the joint eigenspaces listed so far, for distinct characters
        found, listed = set(), Echelon(ell, W)
        for kernel, (_, quadratic) in zip(self._kernels(base, comp, factors), factors):
            if all(k in listed for k in kernel):
                continue
            for v in kernel[:1] if quadratic else _lines(kernel, ell):
                if v in listed:
                    continue
                X = self.spin([v], action, W)
                if quadratic or len(X) > len(W) + 1:
                    found.add(tuple(X))
                    continue
                p = next(i for i, x in enumerate(v) if x)
                chi = [base.reduce(_apply(v, cols, ell))[p] * pow(v[p], -1, ell) % ell
                       for cols in action]
                E = solutions([(sum((shifted(c, cols, x) for cols, x in zip(action, chi)),
                                     ()), c) for c in comp], ell)
                for e in E:
                    listed.add(e)
                found.update(tuple(Echelon(ell, list(W) + [u]).rref()) for u in _lines(E, ell))
        return found

    def class_size(self, u_basis, w_basis):
        """Number of G-conjugates of H = S * (I + ell*W), for G = S * K with S
        of order prime to ell, K = I + ell*U abelian and normal, W <= U
        stable and u_basis independent.  G = H * K, so the class has
        [K : N_K(H)] members (Holt, Eick and O'Brien, ch. 8), and I + ell*u
        normalizes H exactly when g u g^-1 - u lies in W for every generator
        g.  N_K(H) is therefore the kernel N on U of the one linear map
        u -> (g u g^-1 - u mod W) over the generators, and the class has
        ell^(dim U - dim N) members."""
        ell = self.ell
        span_w, action = Echelon(ell, w_basis), self._action_matrices()
        moved = lambda u: sum((span_w.reduce([(a - b) % ell
                                              for a, b in zip(_apply(u, cols, ell), u)])
                               for cols in action), ())
        return ell ** (len(u_basis) - len(solutions([(moved(u), u) for u in u_basis], ell)))


# ---------------------------------------------------------------------------
# brute-force subgroup lattice (small groups)

def all_subgroups(group):
    """Every subgroup of a small group, as frozensets of element tuples.  The
    group is listed by one orbit walk from I under its generators, and each
    cyclic subgroup by the walk from I under one element; the joins run on
    element positions through one table of all products."""
    m = group.mod.modulus
    if group.order() > BRUTE_LIMIT:
        raise SearchBudgetError("brute-force lattice limited to order <= %d, got %d"
                                % (BRUTE_LIMIT, group.order()))
    els = sorted(orbit(IDENTITY, group.gens, lambda x, g: mmul(x, g, m), group.cap,
                       "elements of G mod %d" % m))
    where = {x: i for i, x in enumerate(els)}
    table = [[where[mmul(a, b, m)] for b in els] for a in els]
    mul = lambda a, b: table[a][b]
    one = where[IDENTITY]
    cyclics = {}
    for x in range(len(els)):
        cyclics.setdefault(frozenset(orbit(one, (x,), mul, group.cap, "powers of an element")), x)

    def join(S, x):
        """S v <x>, by extending S with the one generator x.  The join lies
        in G, whose listing above passed the same cap, so extend's cap never
        fires here."""
        return S if x in S else frozenset(extend(S, x, mul, group.cap))

    subs = orbit(frozenset([one]), cyclics.values(), join, group.cap, "subgroup joins")
    return {frozenset(els[i] for i in S) for S in subs}


def _conjugacy_classes_of_subgroups(subsets, group):
    "Partition subgroup element-sets into conjugacy classes under the group."
    m = group.mod.modulus
    ell = group.mod.ell
    inv = {g: minv(g, m, ell) for g in group.gens}
    conj = lambda T, g: frozenset(mmul(mmul(g, x, m), inv[g], m) for x in T)
    key = lambda s: tuple(sorted(s))
    return [(min(points, key=key), len(points))
            for points in partition(sorted(subsets, key=lambda s: (len(s), key(s))), group.gens,
                                    conj, group.cap, "conjugates of a subgroup")]


# ---------------------------------------------------------------------------
# Schur-Zassenhaus complement by cocycle averaging

def _averaged_section(reps, layer, m, ell, at, section):
    """Values at the elements `at`, which generate Q, of a homomorphic section
    of an extension of Q by a quotient V of the kernel I + layer*M2(F_ell)
    (Gaschutz 1952; Holt, Eick and O'Brien, ch. 7).

    `reps` holds a lift mod m = layer*ell of one element t of each coset tS
    of a subgroup S of Q of index prime to ell, and `section(x)` lifts each
    x in Q to s(x), with s(t) the lift in `reps` and s(ty) = s(t)*sigma(y)
    for a homomorphic section sigma over S.  The cocycle s(x)s(t)s(xt)^-1 is
    then constant on each coset tS, and the lift of each x in `at` is
    corrected by its average over the cosets, so the cost is |at| * [Q : S]
    products.  The caller checks the values.
    """
    inv_n = pow(len(reps), -1, ell)
    values = []
    for x in at:
        tx = section(x)
        acc = (0, 0, 0, 0)
        for ty in reps.values():
            prod = mmul(tx, ty, m)
            c = mmul(prod, minv(section(prod), m, ell), m)
            acc = tuple(a + b for a, b in zip(acc, digit(c, layer, ell)))
        eta = tuple((-inv_n * a) % ell for a in acc)
        values.append(mmul(kernel_element(eta, layer, m), tx, m))
    return values


# ---------------------------------------------------------------------------
# low-index det-surjective subgroup classification

def proper_detsurjective_subgroups(group, index_bound, fix_mod_ell_reduction=True):
    """Conjugacy classes (under the parent) of proper subgroups with
    surjective determinant and index <= index_bound.

    With fix_mod_ell_reduction=True only subgroups whose mod-ell reduction
    equals the parent's are considered (the relevant notion when the mod-ell
    image has been pinned beforehand); this is decidable structurally.  The
    unconstrained variant needs the brute-force lattice and is limited to
    small parents.
    """
    mod = group.mod
    ell, m = mod.ell, mod.modulus
    parent_order = group.order()

    if fix_mod_ell_reduction:
        if mod.exponent == 1:
            # mod-ell reduction of a subgroup equals the subgroup itself, so
            # only the parent survives the constraint
            return []
        # the structured path takes every parent it applies to, whatever its
        # order; the brute-force lattice takes the others up to BRUTE_LIMIT
        if mod.exponent == 2 and group.filtration().sizes()[0] % ell:
            return _stable_subspace_classes(group, index_bound)
        if parent_order > BRUTE_LIMIT:
            raise SearchBudgetError("structured search supports exponent-2 moduli only"
                                    if mod.exponent != 2 else
                                    "structured search needs |G(ell)| prime to ell")
    # S <= G, so S is G when it is as large, and S mod ell is G(ell) when
    # it has |G(ell)| elements
    bar_order = group.filtration().sizes()[0]
    picked = [S for S in all_subgroups(group)
              if len(S) < parent_order and parent_order // len(S) <= index_bound
              and len({mdet(x, m) for x in S}) == mod.unit_count()
              and not (fix_mod_ell_reduction
                       and len({mreduce(x, ell) for x in S}) != bar_order)]
    out = []
    for rep_set, size in _conjugacy_classes_of_subgroups(picked, group):
        # the chain grown from the class's elements names its canonical generators
        chain = Filtration((), mod, group.cap)
        chain.grow(sorted(rep_set), len(rep_set))
        rep = MatrixGroup(mod, chain.generators(), cap=group.cap)
        out.append(SubgroupClass(rep, parent_order // len(rep_set), True, size))
    return sorted(out, key=lambda c: (c.index_in_parent, c.representative.gens))


def _stable_subspace_classes(group, index_bound):
    """The structured path of proper_detsurjective_subgroups: one class per
    proper G(ell)-stable subspace W of the kernel part U = L_1 of the
    filtration with index <= index_bound, for exponent 2 and |G(ell)| prime
    to ell.  The layer step checks each representative's order; here its
    generators are checked to lie in G and to reduce onto G(ell)."""
    ell = group.mod.ell
    filt = group.filtration()
    u_basis = filt.layers[0][0].rref()
    bar_order = filt.sizes()[0]
    module = KernelModule(ell, tuple(mreduce(g, ell) for g in filt.generators()))
    index = lambda W: ell ** (len(u_basis) - len(W))
    printable = [W for W in module.stable_subspaces(span=u_basis, cap=group.cap)
                 if len(W) < len(u_basis) and index(W) <= index_bound]
    out = []
    # the layer ell of G: G(ell) has no ell-Sylow sequence, so every W splits
    for W, rep in _layer_step(group, 1, printable):
        if not all(g in group for g in rep.gens) or rep.reduce_to(1).order() != bar_order:
            raise CertificateError("subgroup over W = %r does not lie in the parent over "
                                   "G(%d)" % (W, ell))
        if rep.det_image()[1]:
            out.append(SubgroupClass(rep, index(W), True, module.class_size(u_basis, W)))
    return sorted(out, key=lambda c: (c.index_in_parent, c.representative.gens))


def split_cartan_membership(h):
    """(conjugate-into flag, index of the image, witness 4-tuple) against the
    normalizer of the split Cartan at h's modulus, built with h's cap."""
    big = build_cartan(CartanSpec("split-normalizer", h.mod), h.cap)
    ok, witness, index = conjugate_into(h, big)
    return ok, index, witness


# ---------------------------------------------------------------------------
# preimage rigidity

def _sylow_subgroup(group, e):
    """Generators of an ell-Sylow subgroup of G mod ell^e, the preimage of
    one of G(ell).  The ell-part of |GL2(F_ell)| is ell, so these are the
    rows of the layers L_(e-1), ..., L_1 and the canonical lift of the first
    I + N_L in G(ell), N_L = p'^T p for p on the line L and p' = (-p_1, p_0):
    the unipotents that fix L are its powers."""
    filt = group.filtration()
    ell = group.mod.ell
    # each layer row keeps the powers of an inverse b^-1 of its realiser
    gens = [powers[1] for _, rows in reversed(filt.layers[:e - 1]) for powers in rows.values()]
    for p0, p1 in [(0, 1)] + [(1, a) for a in range(ell)]:
        u = ((1 - p1 * p0) % ell, -p1 * p1 % ell, p0 * p0, (1 + p0 * p1) % ell)
        if filt.lift(u) is not None:
            return gens + [filt.canonical_lift(u)]
    return gens


def _letters(filt, index, x):
    """Letters (i, f) of the word w in the layer rows of the filtration with
    w * x = I, read off the steps of Filtration.reduce, for x in G cap K_1;
    `index` numbers the rows' generators."""
    steps = []
    x = filt.reduce(x, steps=steps)
    if x != IDENTITY:
        raise CertificateError("%r does not sift through the layer rows" % (x,))
    return [(index[g], f) for g, f in reversed(steps)]


def _sylow_relators(group, e, gens):
    """The relators of the ell-Sylow sequence gens = g_1, ..., g_k of G mod
    ell^e (_sylow_subgroup), each a list of letters (i, f) standing for g_i^f.

    Each prefix of the sequence is normal in the next with index ell: the
    deeper layer rows generate G cap K_(e+1), normal in G, commutators of
    layer-e rows lie there, and the unipotent lift normalizes G cap K_1.  So
    g_i^ell and g_i g_j g_i^-1 (j < i) lie in G cap K_1, and the layer steps
    of Filtration.reduce write each as a word in g_1, ..., g_(i-1): these
    are the relators of a polycyclic presentation (Holt, Eick and O'Brien,
    8.1).
    """
    filt = group.filtration()
    ell, layer = group.ell, group.ell ** e
    index = {g: i for i, g in enumerate(gens)}
    words = []
    for i, g in enumerate(gens):
        gi = minv(g, layer, ell)
        words.append(_letters(filt, index, mpow(g, ell, layer)) + [(i, ell)])
        words += [_letters(filt, index, mmul(mmul(g, h, layer), gi, layer))
                  + [(i, 1), (j, 1), (i, -1)] for j, h in enumerate(gens[:i])]
    return words


def _word_value(word, lifts, m, ell):
    "The product mod m of the letters (i, f) of a word, each lifts[i]^f."
    x = IDENTITY
    for i, f in word:
        x = mmul(x, minv(lifts[i], m, ell) if f < 0 else mpow(lifts[i], f, m), m)
    return x


def _relator_digit(word, lifts, layer, ell):
    "The layer digit of a relator word at lifts mod layer * ell."
    return digit(_word_value(word, lifts, layer * ell, ell), layer, ell)


def _sylow_relator_digits(group, e, gens):
    """The relators of _sylow_relators evaluated at lifts mod ell^(e+1): a
    list whose entry 0 holds the layer-e digit of every relator at the lifts
    g_i (entries in [0, ell^e)), and whose entry 1 + 4i + j holds them at
    the lifts with g_i replaced by g_i * (I + ell^e E_j).  A relator's value
    at lifts g_i * (I + ell^e v_i) lies in I + ell^e M2, and its digit is
    affine in the v_i over F_ell, since that kernel is abelian and G acts on
    it through G(ell).  Changing the lift of g_i changes only the digits of
    the relators with a letter i, so only those are evaluated again.
    """
    ell, layer = group.ell, group.ell ** e
    m = layer * ell
    words = _sylow_relators(group, e, gens)
    base = [_relator_digit(word, gens, layer, ell) for word in words]
    out = [base]
    for i, g in enumerate(gens):
        uses = [w for w, word in enumerate(words) if any(j == i for j, _ in word)]
        for b in M2_BASIS:
            lifts = gens[:i] + [mmul(g, kernel_element(b, layer, m), m)] + gens[i + 1:]
            digits = list(base)
            for w in uses:
                digits[w] = _relator_digit(words[w], lifts, layer, ell)
            out.append(digits)
    return out


def _split_system(digits, U, ell):
    """(columns, constant) of the linear system over F_ell whose solutions a
    are the lifts g_i * (I + ell^e sum_j a_(4i+j) E_j) of the Sylow sequence
    that satisfy every relator modulo N_U: the relator digits reduced
    modulo U are constant + sum of a_u * columns[u]."""
    span_u = Echelon(ell, U)
    project = lambda values: [x for v in values for x in span_u.reduce(v)]
    constant = project(digits[0])
    return [[(a - b) % ell for a, b in zip(project(d), constant)]
            for d in digits[1:]], constant


def _split_solution(digits, U, ell):
    """A solution a of the system of _split_system, or None when the
    ell-Sylow subgroup does not split over V = (I + ell^e M2)/N_U.

    A solution is x/x_0 for a null vector (x, x_0) of the columns and the
    constant with x_0 != 0.  If there is none, some y with y.columns = 0
    has y.constant != 0; y then pairs with the reduced relator digits to
    one nonzero value at the base lifts and after each change of one lift
    coordinate, so at every choice of lifts (the digits are affine in them),
    and no choice satisfies every relator.  That certificate is checked on
    the digits themselves."""
    columns, constant = _split_system(digits, U, ell)
    rows = [[column[e] for column in columns] + [c] for e, c in enumerate(constant)]
    for x in nullspace(rows, ell, len(columns) + 1):
        if x[-1]:
            scale = pow(x[-1], -1, ell)
            return tuple(a * scale % ell for a in x[:-1])
    span_u = Echelon(ell, U)
    for y in nullspace(columns, ell, len(constant)):
        if sum(a * c for a, c in zip(y, constant)) % ell:
            pairs = {sum(a * x for a, x in zip(y, (x for v in d for x in span_u.reduce(v))))
                     % ell for d in digits}
            if len(pairs) != 1 or pairs == {0}:
                raise CertificateError("no-complement certificate over U = %r does "
                                       "not hold on the relators" % (U,))
            return None
    raise CertificateError("split system over U = %r is neither solved nor refuted"
                           % (U,))


def _gaschutz_complement(group, e, gens):
    """A function taking a solution of _split_system to the values at the
    canonical generators of G of a homomorphic section Q -> E/N_U, for
    Q = G mod ell^e (e is 1 or the exponent n of G), E its full preimage
    mod ell^(e+1) and the ell-Sylow sequence gens of Q (_sylow_subgroup).

    The solution lifts the Sylow sequence g_i to g_i * (I + ell^e a_i),
    which satisfy its relators modulo N_U, so g_i -> lift_i extends to a
    homomorphism sigma over S.  S(ell) is 1 or <I + N>, N^2 = 0, for the
    last element u of the sequence, and S contains G cap K_1, so an element
    y of S is u^a * k with I + aN = y mod ell and k in G cap K_1, and
    sigma(y) = sigma(u)^a * sigma(w)^-1 for the word w with w * k = I that
    _letters reads off (k = I for e = 1).  The cosets of S in Q are those
    of S(ell) in G(ell), and c*S(ell) = {c + a*cN} is named by its member
    with entry q equal to 0, q the first nonzero entry of cN.  One orbit BFS
    of G(ell) on these names lists the [G(ell) : S(ell)] cosets, and the
    canonical lift t in G of each name and s(ty) = t * sigma(y) make the
    section that _averaged_section corrects: with S = 1, the values lie in G.
    """
    ell, layer = group.ell, group.ell ** e
    m = layer * ell
    filt = group.filtration()
    index = {g: i for i, g in enumerate(gens)}
    u = gens[-1] if gens and mreduce(gens[-1], ell) != IDENTITY else None
    if u:
        nbar = ((u[0] - 1) % ell, u[1] % ell, u[2] % ell, (u[3] - 1) % ell)
        p = next(i for i, x in enumerate(nbar) if x)
        unit, uinv_powers = pow(nbar[p], -1, ell), mpowers(minv(u, layer, ell), ell, layer)

    def key(c):
        if not u:
            return c
        d = mmul(c, nbar, ell)
        q = next(i for i, x in enumerate(d) if x)
        f = c[q] * pow(d[q], -1, ell)
        return tuple((x - f * y) % ell for x, y in zip(c, d))

    at = filt.generators()
    cosets = orbit(key(IDENTITY), [mreduce(g, ell) for g in at],
                   lambda k, g: key(mmul(g, k, ell)), group.cap, "Sylow cosets in G(%d)" % ell)
    reps = {k: filt.canonical_lift(k) for k in cosets}

    def complement(solution):
        lifts = [mmul(g, kernel_element(solution[4 * i:4 * i + 4], layer, m), m)
                 for i, g in enumerate(gens)]
        lift_powers = mpowers(lifts[-1], ell, m) if u else None

        def section(x):
            k = key(mreduce(x, ell))
            if not gens:
                return reps[k]  # S = 1
            y, a = mmul(minv(reps[k], layer, ell), x, layer), 0
            if u:
                a = (y[p] - IDENTITY[p]) * unit % ell
                y = mmul(uinv_powers[a], y, layer)
            sigma = minv(_word_value(_letters(filt, index, y), lifts, m, ell), m, ell)
            if a:
                sigma = mmul(lift_powers[a], sigma, m)
            return mmul(reps[k], sigma, m)

        return _averaged_section(reps, layer, m, ell, at, section)

    return complement


def _layer_step(group, e, subspaces):
    """(W, <C, I + ell^e W> mod ell^(e+1)) for each stable subspace W read
    from `subspaces`, C the complement of _gaschutz_complement over the
    layer ell^e, or (W, None) where the ell-Sylow sequence of G mod ell^e
    does not split over W.  The Sylow sequence, relator digits and coset
    lifts are built on the first request, before `subspaces` is read, and C
    is averaged once per solution.  C lies over the canonical generators of
    G mod ell^e, so each candidate reduces onto G mod ell^e and is a
    complement over W exactly when its order is |G mod ell^e| * ell^dim W,
    which is checked here."""
    ell, layer, high = group.ell, group.ell ** e, PrimePowerModulus(group.ell, e + 1)
    base, dims = group.filtration().sizes()
    size = base * ell ** sum(dims[:e - 1])
    sylow = _sylow_subgroup(group, e)
    digits = _sylow_relator_digits(group, e, sylow)
    complement = _gaschutz_complement(group, e, sylow)
    values = {}
    for W in subspaces:
        solution = _split_solution(digits, W, ell)
        if solution is None:
            yield W, None
            continue
        if solution not in values:
            values[solution] = complement(solution)
        kernel = [kernel_element(w, layer, high.modulus) for w in W]
        candidate = MatrixGroup(high, values[solution] + kernel, cap=group.cap)
        if candidate.order() != size * ell ** len(W):
            raise CertificateError("averaged complement over W = %r mod %d does not have "
                                   "order %d" % (W, high.modulus, size * ell ** len(W)))
        yield W, candidate


def _ell_hom_trivial(group):
    """Whether Hom(G, F_ell) = 0, via the normal closure of powers and
    commutators; a conjugate that does not sift through the closure joins
    its generators."""
    mod = group.mod
    ell, m = mod.ell, mod.modulus
    gens = group.gens
    seeds = [mpow(g, ell, m) for g in gens]
    for a in gens:
        ai = minv(a, m, ell)
        for b in gens:
            bi = minv(b, m, ell)
            seeds.append(mmul(mmul(a, b, m), mmul(ai, bi, m), m))
    closure = Filtration(seeds, mod, group.cap)
    # normal closure: conjugates of every generator found, by every g in G
    for s in seeds:
        for g in gens:
            c = mmul(mmul(g, s, m), minv(g, m, ell), m)
            if closure.sift(c) != IDENTITY:
                seeds.append(c)
                closure.adjoin([c])
    return closure.order() == group.order()


def verify_counterexample(group, candidate):
    "Checks reduction, determinant surjectivity and properness of a witness."
    if candidate.reduce_to(group.mod.exponent) != group:
        return False
    if not candidate.det_image()[1]:
        return False
    full = group.order() * group.mod.ell ** 4
    return candidate.order() < full


def _rigidity_subspaces(group):
    """The kernel intersections U that preimage_rigidity examines, in scan
    order: the proper G-stable subspaces that contain the power constraint,
    by descending dimension, the order checked_subspaces counts in; the
    rigid verdict examines them all.
    """
    mod = group.mod
    ell, n = mod.ell, mod.exponent
    gens_bar = tuple(mreduce(g, ell) for g in group.gens)
    # power constraint: the ell-th power of any lift of a top-layer kernel
    # element of G lands in the new kernel, with the same coordinates (the
    # top layer L_{n-1} of the filtration) except for ell = 2 at exponent 2,
    # where squaring I + 2A contributes A + A^2, which is not linear in A
    top = group.filtration().layers[-1][0].rows if n >= 2 else []
    if ell == 2 and n == 2:
        top = [lincomb(c, top, 2) for c in product(range(2), repeat=len(top))]
        top = [lincomb((1, 1), (a, mmul(a, a, 2)), 2) for a in top]
    # the set of constraint vectors is stable (L_(n-1) is), so its span is
    # the floor of the stable subspaces that contain it
    floor = Echelon(ell, top).rref()
    stable = KernelModule(ell, gens_bar).stable_subspaces(floor, cap=group.cap)
    return [U for U in sorted(stable, key=len, reverse=True) if len(U) < 4]


def preimage_rigidity(group):
    """Whether only the full preimage of the group, one ell-power level up,
    reduces exactly onto it with surjective determinant.

    Returns RigidityResult; when not rigid the counterexample is verified
    (exact reduction, surjective determinant, proper in the preimage), and
    the layer step has checked its order.  For G not det-surjective no
    subgroup over G is, and the claim holds vacuously.
    """
    undecided = []
    subspaces = _rigidity_subspaces(group)
    # the new layer ell^n of the one-step preimage
    for checked, (U, candidate) in enumerate(_layer_step(group, group.mod.exponent,
                                                         subspaces), 1):
        if candidate is None:
            continue  # Gaschutz: no complement anywhere
        if candidate.det_image()[1]:
            if not verify_counterexample(group, candidate):
                raise CertificateError("counterexample over U = %r failed "
                                       "verification" % (U,))
            return RigidityResult(False, candidate, checked)
        if group.det_image()[1] and not _ell_hom_trivial(group):
            # U is traceless: I + ell^n u with tr u != 0 would fill the top
            # unit layer above det G.  Determinant images of other
            # complements over U may differ; a later subspace can still
            # produce a definite witness, so only give up if the whole scan
            # ends with this unresolved
            undecided.append(U)
        # otherwise the determinant image is rigid across complements here
    if undecided:
        raise SearchBudgetError("undecided: split subspaces with variable "
                                "determinant image: %r" % (undecided,))
    return RigidityResult(True, None, len(subspaces))
