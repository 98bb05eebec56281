"""Subgroup-lattice verifications: low-index determinant-surjective
subgroups, split-Cartan-normalizer membership, and preimage rigidity.

The searches read the layered structure of subgroups of GL2(Z/ell^n) from
the congruence filtration of gl2 (group.filtration(): G(ell) as a
stabilizer chain and an Echelon of each kernel layer L_e; Holt, Eick and
O'Brien, 4.4 and ch. 8).  Only the brute-force lattice lists the elements
of a parent group:

* proper_detsurjective_subgroups classifies H <= G up to G-conjugacy.
  For exponent-2 moduli whose mod-ell quotient has order prime to ell,
  whatever |G|, subgroups that keep the full mod-ell image correspond, by
  Schur-Zassenhaus, to the G(ell)-stable subspaces W of the kernel part
  U = L_1 of G, one conjugacy class per W, realized as (complement over
  the kernel) * N_W.  KernelModule.stable_subspaces walks the lattice of
  these up from 0, each cover W + M of W read off the minimal submodules M
  of U/W, which meet the eigenspaces of one generator's conjugation
  action.  The complement averages the cocycle of
  the least lifts in G of the elements of G(ell) (_averaged_section, the
  case S = 1 of the Gaschutz average of preimage_rigidity), evaluated at
  the generators only and checked by the order of the group its values
  generate.  The class has [K : N_K(H)] members for K = I + ell*U, read off
  the kernel action (KernelModule.class_size).  Other parents of order <=
  BRUTE_LIMIT get the brute-force lattice (cyclic subgroups, then join
  closure), whose subgroups are orbited under the generators.

* preimage_rigidity decides whether any proper det-surjective subgroup of
  the one-step full preimage reduces exactly onto G.  Candidate kernel
  intersections U are the G-stable subspaces of M2(F_ell) above the span
  of the ell-th-power image of G's top kernel layer L_{n-1}, a stable
  floor, and the walk starts there.  A
  subgroup over U exists iff V = (I + ell^n M2)/N_U has a complement,
  and by Gaschutz iff an ell-Sylow subgroup splits over V.  Its
  generators, the layer rows of G cap K_1 (deepest layer first) and a lift
  of one unipotent I + N of G(ell), form a polycyclic sequence; its power
  and conjugation relators, sifted into words in earlier generators, are
  affine in the lifts g_i * (I + ell^n v_i), so one linear system over
  F_ell decides the split (the layer step of the Cannon-Cox-Holt lifting
  method; Holt, Eick and O'Brien, 7.6 and ch. 8).  A vector y that kills
  the columns and not the constant certifies "no complement" and is
  checked on the relator values.  A solution lifts the sequence to a
  complement over S, and averaging the cocycle of the section it induces
  over one lift of each coset of S in G turns it into a complement over G
  (Gaschutz 1952), evaluated at the generators of G and checked by the
  order of the group it generates with N_U.  Determinant surjectivity of
  that complement settles the det-surjective variant; for traceless U the
  determinant image is rigid across complements unless G has nontrivial
  homomorphisms to F_ell, and that corner raises rather than guesses.

Kernel coordinates are modarith.digit and kernel_element, F_ell linear
algebra on them is modarith.Echelon, and the word in the layer rows of an
element of G cap K_1 is read off the steps of Filtration.reduce.  All search
budgets are explicit and exhaustion is a hard error; the walks over
Filtration.transversal() check |G(ell)| against the cap first.  Every
subgroup, section and counterexample the searches build is verified, and a
failed verification raises CertificateError.
"""

from collections import namedtuple
from itertools import product

from .errors import CertificateError, EnumerationCapError, SearchBudgetError
from .gl2 import (CartanSpec, DEFAULT_CAP, MatrixGroup, build_cartan,
                  conjugate_into, extend, orbit)
from .modarith import (IDENTITY, M2_BASIS, Echelon, PrimePowerModulus, digit,
                       kernel_element, lincomb, mdet, minv, mmul, mpow, mreduce,
                       nullspace_span)

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


def _trace_nonzero(basis, ell):
    return any((b[0] + b[3]) % ell for b in basis)


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


def _solutions(pairs, ell):
    """A basis of the vectors sum x_i c_i with sum x_i y_i = 0, for pairs
    (y_i, c_i) with independent c_i: the c-parts of the echelon rows of the
    concatenations y_i c_i whose y-part is zero."""
    n = len(pairs[0][0]) if pairs else 0
    return [r[n:] for r in Echelon(ell, [y + c for y, c in pairs]).rows if not any(r[:n])]


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
        return [_solutions([(base.reduce(_apply(c, f, ell)), c) for c in comp], ell)
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
                E = _solutions([(sum((shifted(c, cols, x) for cols, x in zip(action, chi)),
                                     ()), c) for c in comp], ell)
                for e in E:
                    listed.add(e)
                found.update(tuple(Echelon(ell, list(W) + [u]).rref()) for u in _lines(E, ell))
        return found

    def class_size(self, u_basis, w_basis):
        """Number of G-conjugates of H = S * (I + ell*W), for G = S * K with S
        of order prime to ell, K = I + ell*U abelian and normal and W <= U
        stable.  G = H * K, so the class has [K : N_K(H)] members (Holt, Eick
        and O'Brien, ch. 8), and I + ell*u normalizes H exactly when
        g u g^-1 - u lies in W for every generator g.  N_K(H) is therefore
        the solution space N of the annihilator of U and, per generator, the
        annihilator of W pulled back along u -> g u g^-1 - u; the class has
        ell^(dim U - dim N) members."""
        ell = self.ell
        rows = nullspace_span(u_basis, ell, 4)
        annihilator_w = nullspace_span(w_basis, ell, 4)
        for cols in self._action_matrices():
            rows += [tuple(sum(a[i] * cols[j][i] for i in range(4)) - a[j]
                           for j in range(4)) for a in annihilator_w]
        return ell ** (len(u_basis) - len(Echelon(ell, nullspace_span(rows, ell, 4))))


# ---------------------------------------------------------------------------
# brute-force subgroup lattice (small groups)

def all_subgroups(group, cap=DEFAULT_CAP):
    """Every subgroup of a small group, as frozensets of element tuples."""
    els = group.elements(cap)
    if len(els) > BRUTE_LIMIT:
        raise SearchBudgetError("brute-force lattice limited to order <= %d" % BRUTE_LIMIT)
    m = group.mod.modulus
    mul = lambda a, b: mmul(a, b, m)
    cyclics = {}
    for x in els:
        c = [x]
        while c[-1] != IDENTITY:
            c.append(mmul(c[-1], x, m))
        cyclics.setdefault(frozenset(c), x)

    def join(S, x):
        "S v <x>, by extending S with the one generator x."
        return S if x in S else frozenset(extend(S, x, mul, cap))

    return orbit(frozenset([IDENTITY]), cyclics.values(), join, cap)


def _conjugacy_classes_of_subgroups(subsets, group):
    "Partition subgroup element-sets into conjugacy classes under the group."
    m = group.mod.modulus
    ell = group.mod.ell
    inv = {g: minv(g, m, ell) for g in group.gens}
    conj = lambda T, g: frozenset(mmul(mmul(g, x, m), inv[g], m) for x in T)
    classes = []
    seen = set()
    for S in sorted(subsets, key=lambda s: (len(s), tuple(sorted(s)))):
        if S in seen:
            continue
        points = orbit(S, group.gens, conj)
        seen |= points
        classes.append((min(points, key=lambda s: tuple(sorted(s))), len(points)))
    return classes


def _det_surjective_set(elements, mod):
    m = mod.modulus
    dets = {mdet(x, m) for x in elements}
    return len(dets) == mod.unit_count()


# ---------------------------------------------------------------------------
# Schur-Zassenhaus complement by cocycle averaging

def _averaged_section(reps, layer, m, ell, at, section=None):
    """Values at the elements `at`, which generate Q, of a homomorphic section
    of an extension of Q by a quotient V of the kernel I + layer*M2(F_ell)
    (Gaschutz 1952; Holt, Eick and O'Brien, ch. 7).

    `reps` holds a lift mod m = layer*ell of one element t of each coset tS
    of a subgroup S of Q of index prime to ell, and `section(x)` lifts each
    x in Q to s(x), with s(t) the lift in `reps` and s(ty) = s(t)*sigma(y)
    for a homomorphic section sigma over S.  By default S = 1 and `reps`
    maps each x (mod layer) to s(x).  The cocycle s(x)s(t)s(xt)^-1 is then
    constant on each coset tS, and the lift of each x in `at` is corrected
    by its average over the cosets, so the cost is |at| * [Q : S] products.
    The callers check the values by the order of the group they generate.
    """
    section = section or (lambda x: reps[mreduce(x, layer)])
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

def proper_detsurjective_subgroups(group, index_bound, fix_mod_ell_reduction=True,
                                   cap=DEFAULT_CAP):
    """Conjugacy classes (under the parent) of proper subgroups with
    surjective determinant and index <= index_bound.

    With fix_mod_ell_reduction=True only subgroups whose mod-ell reduction
    equals the parent's are considered (the relevant notion when the mod-ell
    image has been pinned beforehand); this is decidable structurally.  The
    unconstrained variant needs the brute-force lattice and is limited to
    small parents.
    """
    mod = group.mod
    ell = mod.ell
    parent_order = group.order(cap)

    if fix_mod_ell_reduction and mod.exponent == 1:
        # mod-ell reduction of a subgroup equals the subgroup itself, so only
        # the parent survives the constraint
        return []
    # the structured path takes every parent it applies to, whatever its order
    if not fix_mod_ell_reduction or (parent_order <= BRUTE_LIMIT and not (
            mod.exponent == 2 and group.filtration(cap).sizes()[0] % ell)):
        if parent_order > BRUTE_LIMIT:
            raise SearchBudgetError(
                "unconstrained subgroup search needs |G| <= %d, got %d"
                % (BRUTE_LIMIT, parent_order))
        subs = all_subgroups(group, cap)
        parent_set = frozenset(group.elements(cap))
        bar_parent = None
        if fix_mod_ell_reduction:
            bar_parent = frozenset(mreduce(x, ell) for x in parent_set)
        picked = []
        for S in subs:
            if S == parent_set:
                continue
            if parent_order // len(S) > index_bound:
                continue
            if not _det_surjective_set(S, mod):
                continue
            if bar_parent is not None:
                if frozenset(mreduce(x, ell) for x in S) != bar_parent:
                    continue
            picked.append(S)
        classes = _conjugacy_classes_of_subgroups(picked, group)
        out = []
        for rep_set, size in classes:
            rep = MatrixGroup(mod, sorted(rep_set))
            rep = MatrixGroup(mod, rep.small_generating_set(cap))
            out.append(SubgroupClass(rep, parent_order // len(rep_set), True, size))
        return sorted(out, key=lambda c: (c.index_in_parent, c.representative.gens))

    return _stable_subspace_classes(group, index_bound, cap)


def _least_lift(t, u_basis, ell):
    """The least of the lifts t*(I + ell*u), u in U, of t mod ell^2: its top
    digit is in normal form modulo (t mod ell)*U."""
    tbar = mreduce(t, ell)
    d = Echelon(ell, [mmul(tbar, u, ell) for u in u_basis]).reduce(digit(t, ell, ell))
    return tuple(a + ell * b for a, b in zip(tbar, d))


def _stable_subspace_classes(group, index_bound, cap=DEFAULT_CAP):
    """The structured path of proper_detsurjective_subgroups: one class per
    proper G(ell)-stable subspace W of the kernel part U = L_1 of the
    filtration, for exponent 2 and |G(ell)| prime to ell."""
    mod = group.mod
    ell, m = mod.ell, mod.modulus
    if mod.exponent != 2:
        raise SearchBudgetError("structured search supports exponent-2 moduli only")

    filt = group.filtration(cap)
    u_basis = filt.layers[0][0].rref()
    bar_order = filt.sizes()[0]
    if bar_order % ell == 0:
        raise SearchBudgetError("structured search needs |G(ell)| prime to ell")
    order = bar_order * ell ** len(u_basis)
    gens_bar = tuple(mreduce(g, ell) for g in group.gens)
    module = KernelModule(ell, gens_bar)
    # a complement of the kernel part: the least lift in G of each element of
    # G(ell), averaged
    section = _averaged_section({mreduce(t, ell): _least_lift(t, u_basis, ell)
                                 for t in _transversal(filt, "averaged section", cap)},
                                ell, m, ell, gens_bar)
    image = MatrixGroup(mod, section)
    if image.order(cap) != bar_order or image.reduce_to(1).order(cap) != bar_order:
        raise CertificateError("averaged section is not a homomorphism")

    out = []
    for W in module.stable_subspaces(span=u_basis, cap=cap):
        if len(W) == len(u_basis) or ell ** (len(u_basis) - len(W)) > index_bound:
            continue  # the parent itself, or an index over the bound
        rep_gens = section + [kernel_element(w, ell, m) for w in W]
        rep = MatrixGroup(mod, rep_gens)
        expected = bar_order * ell ** len(W)
        if rep.order(cap) != expected or not all(g in group for g in rep.gens):
            raise CertificateError("subgroup over W = %r is not a subgroup of order "
                                   "%d in the parent" % (W, expected))
        if not rep.det_image()[1]:
            continue
        out.append(SubgroupClass(rep, order // expected, True,
                                 module.class_size(u_basis, W)))
    return sorted(out, key=lambda c: (c.index_in_parent, c.representative.gens))


def split_cartan_membership(h, cap=DEFAULT_CAP):
    """(conjugate-into flag, index of the image, witness 4-tuple) against the
    normalizer of the split Cartan at h's modulus."""
    big = build_cartan(CartanSpec("split-normalizer", h.mod), cap)
    ok, witness, index = conjugate_into(h, big, cap)
    return ok, index, witness


# ---------------------------------------------------------------------------
# preimage rigidity

def _transversal(filt, walk, cap):
    """Filtration.transversal(), after checking |G(ell)| against cap; past
    it EnumerationCapError names the walk and its size."""
    size = filt.sizes()[0]
    if size > cap:
        raise EnumerationCapError("%s walks the %d products of the transversal, over cap %d"
                                  % (walk, size, cap))
    return filt.transversal()


def _sylow_subgroup(group, cap=DEFAULT_CAP):
    """Generators of an ell-Sylow subgroup of the group, the preimage in G
    of an ell-Sylow subgroup of G(ell).  The ell-part of |GL2(F_ell)| is
    ell, so these are the layer rows of G cap K_1 (deepest layer first) and
    a lift of one unipotent I + N != I of G(ell) if there is one."""
    filt = group.filtration(cap)
    ell = group.mod.ell
    # each layer row keeps the powers of an inverse b^-1 of its realiser
    gens = [powers[1] for _, rows in reversed(filt.layers) for powers in rows.values()]
    for t in _transversal(filt, "Sylow subgroup", cap):
        n = ((t[0] - 1) % ell, t[1] % ell, t[2] % ell, (t[3] - 1) % ell)
        if any(n) and not any(mmul(n, n, ell)):
            return gens + [t]
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


def _sylow_relators(group, gens, cap=DEFAULT_CAP):
    """The relators of the ell-Sylow sequence gens = g_1, ..., g_k of
    _sylow_subgroup, each a list of letters (i, f) standing for g_i^f.

    Each prefix of the sequence is normal in the next with index ell: the
    deeper layer rows generate G cap K_(e+1), normal in G, commutators of
    layer-e rows lie there, and the unipotent lift normalizes G cap K_1.  So
    g_i^ell and g_i g_j g_i^-1 (j < i) lie in G cap K_1, and the layer steps
    of Filtration.reduce write each as a word in g_1, ..., g_(i-1): these
    are the relators of a polycyclic presentation (Holt, Eick and O'Brien,
    8.1).
    """
    filt = group.filtration(cap)
    ell, layer = group.mod.ell, group.mod.modulus
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


def _sylow_relator_digits(group, gens, cap=DEFAULT_CAP):
    """The relators of _sylow_relators evaluated at lifts mod ell^(n+1): a
    list whose entry 0 holds the layer-n digit of every relator at the lifts
    g_i (entries in [0, ell^n)), and whose entry 1 + 4i + j holds them at
    the lifts with g_i replaced by g_i * (I + ell^n E_j).  A relator's value
    at lifts g_i * (I + ell^n v_i) lies in I + ell^n M2, and its digit is
    affine in the v_i over F_ell, since that kernel is abelian and G acts on
    it through G(ell).  Changing the lift of g_i changes only the digits of
    the relators with a letter i, so only those are evaluated again.
    """
    ell, layer = group.mod.ell, group.mod.modulus
    m = layer * ell
    words = _sylow_relators(group, gens, cap)
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
    are the lifts g_i * (I + ell^n sum_j a_(4i+j) E_j) of the Sylow sequence
    that satisfy every relator modulo N_U: the relator digits reduced
    modulo U are constant + sum of a_u * columns[u]."""
    span_u = Echelon(ell, U)
    project = lambda values: [x for v in values for x in span_u.reduce(v)]
    constant = project(digits[0])
    return [[(a - b) % ell for a, b in zip(project(d), constant)]
            for d in digits[1:]], constant


def _split_solution(digits, U, ell):
    """A solution a of the system of _split_system, or None when the
    ell-Sylow subgroup does not split over V = (I + ell^n M2)/N_U.

    A solution is x/x_0 for a null vector (x, x_0) of the columns and the
    constant with x_0 != 0.  If there is none, some y with y.columns = 0
    has y.constant != 0; y then pairs with the reduced relator digits to
    one nonzero value at the base lifts and after each change of one lift
    coordinate, so at every choice of lifts (the digits are affine in them),
    and no choice satisfies every relator.  That certificate is checked on
    the digits themselves."""
    columns, constant = _split_system(digits, U, ell)
    rows = [[column[e] for column in columns] + [c] for e, c in enumerate(constant)]
    for x in nullspace_span(rows, ell, len(columns) + 1):
        if x[-1]:
            scale = pow(x[-1], -1, ell)
            return tuple(a * scale % ell for a in x[:-1])
    span_u = Echelon(ell, U)
    for y in nullspace_span(columns, ell, len(constant)):
        if sum(a * c for a, c in zip(y, constant)) % ell:
            pairs = {sum(a * x for a, x in zip(y, (x for v in d for x in span_u.reduce(v))))
                     % ell for d in digits}
            if len(pairs) != 1 or pairs == {0}:
                raise CertificateError("no-complement certificate over U = %r does "
                                       "not hold on the relators" % (U,))
            return None
    raise CertificateError("split system over U = %r is neither solved nor refuted"
                           % (U,))


def _gaschutz_complement(group, gens, cap=DEFAULT_CAP):
    """A function taking a solution of _split_system to the values at the
    generators of G of a homomorphic section G -> P/N_U, for the ell-Sylow
    sequence gens of _sylow_subgroup.

    The solution lifts the Sylow sequence g_i to g_i * (I + ell^n a_i),
    which satisfy its relators modulo N_U, so g_i -> lift_i extends to a
    homomorphism sigma over S.  S(ell) is 1 or <I + N>, N^2 = 0, for the
    last element u of the sequence, and S contains G cap K_1, so an element
    y of S is u^a * k with I + aN = y mod ell and k in G cap K_1, and
    sigma(y) = sigma(u)^a * sigma(w)^-1 for the word w with w * k = I that
    _letters reads off.  The cosets of S in G are those of S(ell) in G(ell),
    and c*S(ell) = {c + a*cN} is named by its member with entry q equal to
    0, q the first nonzero entry of cN.  One lift t of each, read off the
    filtration's transversal, and s(ty) = t * sigma(y) make the section that
    _averaged_section corrects.
    """
    mod = group.mod
    ell, layer = mod.ell, mod.modulus
    m = layer * ell
    filt = group.filtration(cap)
    index = {g: i for i, g in enumerate(gens)}
    u = gens[-1] if gens and mreduce(gens[-1], ell) != IDENTITY else None
    if u:
        nbar = ((u[0] - 1) % ell, u[1] % ell, u[2] % ell, (u[3] - 1) % ell)
        p = next(i for i, x in enumerate(nbar) if x)
        unit, uinv = pow(nbar[p], -1, ell), minv(u, layer, ell)

    def key(c):
        if not u:
            return c
        d = mmul(c, nbar, ell)
        q = next(i for i, x in enumerate(d) if x)
        f = c[q] * pow(d[q], -1, ell)
        return tuple((x - f * y) % ell for x, y in zip(c, d))

    reps = {}
    for t in _transversal(filt, "Gaschutz average", cap):
        reps.setdefault(key(mreduce(t, ell)), t)
    inverse = {k: minv(t, layer, ell) for k, t in reps.items()}

    def complement(solution):
        lifts = [mmul(g, kernel_element(solution[4 * i:4 * i + 4], layer, m), m)
                 for i, g in enumerate(gens)]

        def section(x):
            k = key(mreduce(x, ell))
            y, a = mmul(inverse[k], x, layer), 0
            if u:
                a = (y[p] - IDENTITY[p]) * unit % ell
                y = mmul(mpow(uinv, a, layer), y, layer)
            sigma = minv(_word_value(_letters(filt, index, y), lifts, m, ell), m, ell)
            if a:
                sigma = mmul(mpow(lifts[-1], a, m), sigma, m)
            return mmul(reps[k], sigma, m)

        return _averaged_section(reps, layer, m, ell, group.gens, section)

    return complement


def _ell_hom_trivial(group, cap=DEFAULT_CAP):
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
    closure = MatrixGroup(mod, seeds)
    # normal closure: conjugates of every generator found, by every g in G
    for s in seeds:
        for g in gens:
            c = mmul(mmul(g, s, m), minv(g, m, ell), m)
            if c not in closure:
                seeds.append(c)
                closure = MatrixGroup(mod, seeds)
    return closure.order(cap) == group.order(cap)


def _build_candidate(group, u_basis, complement_lifts, mod_high):
    "MatrixGroup mod ell^(n+1) generated by complement lifts plus N_U."
    layer = group.mod.modulus
    m = mod_high.modulus
    gens = list(complement_lifts)
    gens += [kernel_element(u, layer, m) for u in u_basis]
    return MatrixGroup(mod_high, gens)


def verify_counterexample(group, candidate, cap=DEFAULT_CAP):
    "Checks reduction, determinant surjectivity and properness of a witness."
    if candidate.reduce_to(group.mod.exponent) != group:
        return False
    if not candidate.det_image()[1]:
        return False
    full = group.order(cap) * group.mod.ell ** 4
    return candidate.order(cap) < full


def _rigidity_subspaces(group, cap=DEFAULT_CAP):
    """The kernel intersections U that preimage_rigidity examines, in scan
    order, each with the basis v_basis of a complement V of U in M2(F_ell).

    U runs over the proper G-stable subspaces that contain the power
    constraint, by descending dimension, the order checked_subspaces counts
    in; the rigid verdict examines them all.
    """
    mod = group.mod
    ell, n = mod.ell, mod.exponent
    gens_bar = tuple(mreduce(g, ell) for g in group.gens)
    # power constraint: the ell-th power of any lift of a top-layer kernel
    # element of G lands in the new kernel, with the same coordinates (the
    # top layer L_{n-1} of the filtration) except for ell = 2 at exponent 2,
    # where squaring I + 2A contributes A + A^2, which is not linear in A
    top = group.filtration(cap).layers[-1][0].rows if n >= 2 else []
    if ell == 2 and n == 2:
        top = [lincomb(c, top, 2) for c in product(range(2), repeat=len(top))]
        top = [lincomb((1, 1), (a, mmul(a, a, 2)), 2) for a in top]
    # the set of constraint vectors is stable (L_(n-1) is), so its span is
    # the floor of the stable subspaces that contain it
    floor = Echelon(ell, top).rref()
    out = []
    for U in sorted(KernelModule(ell, gens_bar).stable_subspaces(floor, cap=cap), key=len,
                    reverse=True):
        if len(U) < 4:
            span_u = Echelon(ell, U)
            out.append((U, Echelon(ell, [span_u.reduce(v) for v in M2_BASIS]).rows))
    return out


def preimage_rigidity(group, cap=DEFAULT_CAP):
    """Whether only the full preimage of the group, one ell-power level up,
    reduces exactly onto it with surjective determinant.

    Returns RigidityResult; when not rigid the counterexample is verified
    (exact reduction, surjective determinant, proper in the preimage).
    """
    mod = group.mod
    ell = mod.ell
    mod_high = PrimePowerModulus(ell, mod.exponent + 1)
    order = group.order(cap)
    # the Sylow sequence, its relator digits and the coset lifts are built
    # once, when a subspace first needs them; a complement is averaged once
    # per solution
    digits = complement = None
    values = {}
    undecided = []
    subspaces = _rigidity_subspaces(group, cap)
    for checked, (U, v_basis) in enumerate(subspaces, 1):
        if digits is None:
            sylow = _sylow_subgroup(group, cap)
            digits = _sylow_relator_digits(group, sylow, cap)
            complement = _gaschutz_complement(group, sylow, cap)
        solution = _split_solution(digits, U, ell)
        if solution is None:
            continue  # Gaschutz: no complement anywhere
        if solution not in values:
            values[solution] = complement(solution)
        candidate = _build_candidate(group, U, values[solution], mod_high)
        if candidate.order(cap) != order * ell ** len(U):
            raise CertificateError("averaged complement over U = %r is not a complement"
                                   % (U,))
        if candidate.det_image()[1]:
            if not verify_counterexample(group, candidate, cap):
                raise CertificateError("counterexample over U = %r failed "
                                       "verification" % (U,))
            return RigidityResult(False, candidate, checked)
        if _trace_nonzero(v_basis, ell) and not _ell_hom_trivial(group, cap):
            # determinant images of other complements over this subspace may
            # differ; a later subspace can still produce a definite witness,
            # so only give up if the whole scan ends with this unresolved
            undecided.append(U)
        # otherwise the determinant image is rigid across complements here
    if undecided:
        raise SearchBudgetError("undecided: split subspaces with variable "
                                "determinant image: %r" % (undecided,))
    return RigidityResult(True, None, len(subspaces))
