"""Subgroup-lattice verifications: low-index determinant-surjective
subgroups, split-Cartan-normalizer membership, and preimage rigidity.

The searches read the layered structure of subgroups of GL2(Z/ell^n) from
the congruence filtration of gl2 (group.filtration(): G(ell) as a
stabilizer chain and an Echelon of each kernel layer L_e; Holt, Eick and
O'Brien, 4.4 and ch. 8).  Only the brute-force lattice and the generators
of small_generating_set list the elements of a parent group:

* proper_detsurjective_subgroups classifies H <= G up to G-conjugacy.
  For exponent-2 moduli whose mod-ell quotient has order prime to ell,
  whatever |G|, subgroups that keep the full mod-ell image correspond, by
  Schur-Zassenhaus, to the G(ell)-stable subspaces W of the kernel part
  U = L_1 of G, one conjugacy class per W, realized as (complement over
  the kernel) * N_W.  KernelModule.stable_subspaces spins one line per
  G(ell)-orbit on the lines of U (conjugate lines have the same spin) and
  closes the spins under joins.  The complement averages the cocycle of
  the least lifts in G of the elements of G(ell) (_averaged_section, also
  used by preimage_rigidity for coprime G), evaluated at the generators
  only and checked by the order of the group its values generate.  The
  class has [K : N_K(H)] members for K = I + ell*U, read off the kernel
  action (KernelModule.class_size).  Other parents of order <=
  BRUTE_LIMIT get the brute-force lattice (cyclic subgroups, then join
  closure), whose subgroups are orbited under the generators.

* preimage_rigidity decides whether any proper det-surjective subgroup of
  the one-step full preimage reduces exactly onto G.  Candidate kernel
  intersections U are the G-stable subspaces of M2(F_ell) above the span
  of the ell-th-power image of G's top kernel layer L_{n-1}, a stable
  floor, so only the lines of M2/floor are spun, one per orbit.  A
  subgroup over U exists iff V = (I + ell^n M2)/N_U has a complement,
  and by Gaschutz iff an ell-Sylow subgroup splits over V.  Its
  generators, the layer rows of G cap K_1 (deepest layer first) and a lift
  of one unipotent I + N of G(ell), form a polycyclic sequence; its power
  and conjugation relators, sifted into words in earlier generators, are
  affine in the lifts g_i * (I + ell^n v_i), so one linear system over
  F_ell decides the split (the layer step of the Cannon-Cox-Holt lifting
  method; Holt, Eick and O'Brien, 7.6 and ch. 8).  A vector y that kills
  the columns and not the constant certifies "no complement" and is
  checked on the relator values.  Only for a split does the lift DFS
  (_complement_over_group) build the G-level witness over
  small_generating_set, each lift checked against the power and
  conjugation relations before its closure.  Determinant surjectivity of
  the found complement settles the det-surjective variant; for traceless
  U the determinant image is rigid across complements unless G has
  nontrivial homomorphisms to F_ell, and that corner raises rather than
  guesses.

F_ell linear algebra on kernel coordinate vectors goes through
modarith.Echelon.  All search budgets are explicit and exhaustion is a hard
error; every subgroup, section and counterexample the searches build is
verified, and a failed verification raises CertificateError.
"""

from dataclasses import dataclass
from itertools import product

from .errors import CertificateError, EnumerationCapError, SearchBudgetError
from .gl2 import (CartanSpec, DEFAULT_CAP, MatrixGroup, build_cartan,
                  conjugate_into, extend, orbit)
from .modarith import (IDENTITY, Echelon, PrimePowerModulus, lincomb, mdet, minv,
                       mmul, mpow, mreduce, nullspace_span)

BRUTE_LIMIT = 1000
M2_BASIS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


@dataclass(frozen=True)
class SubgroupClass:
    representative: MatrixGroup
    index_in_parent: int
    det_surjective: bool
    class_size: int


@dataclass(frozen=True)
class RigidityResult:
    rigid: bool
    counterexample: MatrixGroup | None
    checked_subspaces: int


# ---------------------------------------------------------------------------
# stable subspaces of the kernel module F_ell^4

def _conj_coords(gbar, v, ell):
    "Conjugation action of a mod-ell matrix on a kernel coordinate vector."
    gi = minv(gbar, ell, ell)
    w = mmul(mmul(gbar, v, ell), gi, ell)
    return w


def _is_stable(basis, gens_bar, ell):
    span = Echelon(ell, basis)
    return all(_conj_coords(g, b, ell) in span for g in gens_bar for b in basis)


def _apply(v, cols, ell):
    "The image of a coordinate vector under a linear map given by its columns."
    return tuple(sum(v[j] * cols[j][i] for j in range(4)) % ell for i in range(4))


def _trace_nonzero(basis, ell):
    return any((b[0] + b[3]) % ell for b in basis)


@dataclass(frozen=True)
class KernelModule:
    """ker(GL2(ell^(n+1)) -> GL2(ell^n)) as F_ell^4 with G-conjugation,
    the action factoring through the mod-ell image."""

    ell: int
    gens_bar: tuple

    def _action_matrices(self):
        "Conjugation by each generator as a linear map on coordinate vectors."
        ell = self.ell
        mats = []
        for g in self.gens_bar:
            gi = minv(g, ell, ell)
            cols = [mmul(mmul(g, b, ell), gi, ell) for b in M2_BASIS]
            mats.append(cols)
        return mats

    def spin(self, vectors, action=None):
        "Smallest stable subspace containing the vectors, in canonical form."
        ell = self.ell
        action = action or self._action_matrices()
        span = Echelon(ell, vectors)
        frontier = span.rows
        while frontier and len(span) < 4:
            new = []
            for v in frontier:
                for cols in action:
                    w = span.add(_apply(v, cols, ell))
                    if w is not None:
                        new.append(w)
            frontier = new
        return span.rref()

    def stable_subspaces(self, floor=(), span=M2_BASIS):
        """All stable subspaces W with floor <= W <= span, for stable RREF
        bases `floor` and `span` (the zero space and the whole module by
        default), each in RREF.  Every such W is the join of floor and the
        spins of floor + v for its vectors v, and for a stable floor the spin
        of floor + g v g^-1 is the spin of floor + v: so one line per
        G(ell)-orbit on the lines of span/floor is spun, and the join closure
        of those spins over floor is the full list."""
        ell = self.ell
        if not _is_stable(floor, self.gens_bar, ell):
            raise CertificateError("floor %r is not stable" % (floor,))
        action = self._action_matrices()
        base, grown = Echelon(ell, floor), Echelon(ell, floor)
        complement = [row for row in map(grown.add, span) if row is not None]
        inverse = [0] + [pow(x, -1, ell) for x in range(1, ell)]

        def line(v):
            "The canonical vector of the line of v in span/floor: lead entry 1."
            v = base.reduce(v)
            lead = inverse[next(x for x in v if x)]
            return tuple(x * lead % ell for x in v)

        seen, spins = set(), set()
        dim = len(complement)
        for pivot in range(dim):
            for rest in product(range(ell), repeat=dim - pivot - 1):
                v = line(lincomb((0,) * pivot + (1,) + rest, complement, ell))
                if v not in seen:
                    seen |= orbit(v, action, lambda w, cols: line(_apply(w, cols, ell)))
                    spins.add(tuple(self.spin(list(floor) + [v], action)))
        lattice = orbit(tuple(floor), spins, lambda a, b: tuple(Echelon(ell, a + b).rref()))
        out = [list(s) for s in sorted(lattice, key=lambda s: (len(s), s))]
        for s in out:
            if not _is_stable(s, self.gens_bar, ell):
                raise CertificateError("join of stable subspaces %r is not stable" % (s,))
        return out

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
    ident = group.identity_tuple()
    cyclics = {}
    for x in els:
        c = [x]
        while c[-1] != ident:
            c.append(mmul(c[-1], x, m))
        cyclics.setdefault(frozenset(c), x)

    def join(S, x):
        "S v <x>, by extending S with the one generator x."
        return S if x in S else frozenset(extend(S, x, mul, cap))

    return orbit(frozenset([ident]), cyclics.values(), join, cap)


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

def _kernel_coords(x, layer, ell):
    "(x - I) / layer mod ell for x = I mod layer."
    ident = (1, 0, 0, 1)
    return tuple((((x[i] - ident[i]) % (layer * ell)) // layer) % ell for i in range(4))


def _kernel_matrix(coords, layer, m):
    ident = (1, 0, 0, 1)
    return tuple((ident[i] + layer * coords[i]) % m for i in range(4))


def _averaged_section(reps, layer, m, ell, at):
    """Values at the elements `at`, which generate Q, of a homomorphic section
    of an extension by the kernel I + layer*M2(F_ell).

    `reps` maps each element x (mod layer) of a group Q of order prime to
    ell to a lift mod m = layer*ell.  The lift of each x in `at` is
    corrected by the average of its cocycle over Q (Schur-Zassenhaus), so
    the cost is |at| * |Q| products.  The corrected values are verified to
    generate a group of order |Q| that maps onto Q: it meets the kernel
    trivially, so they are the values of a homomorphic section.
    """
    inv_n = pow(len(reps), -1, ell)
    values = []
    for x in at:
        tx = reps[x]
        acc = (0, 0, 0, 0)
        for ty in reps.values():
            prod = mmul(tx, ty, m)
            c = mmul(prod, minv(reps[mreduce(prod, layer)], m, ell), m)
            acc = tuple(a + b for a, b in zip(acc, _kernel_coords(c, layer, ell)))
        eta = tuple((-inv_n * a) % ell for a in acc)
        values.append(mmul(_kernel_matrix(eta, layer, m), tx, m))
    high = PrimePowerModulus.from_int(m)
    image = MatrixGroup(high, values)
    if (image.order() != len(reps)
            or image.reduce_to(high.exponent - 1).order() != len(reps)):
        raise CertificateError("averaged section is not a homomorphism")
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
    # G(ell), averaged; the lifts of t mod ell are t*(I + ell*U), and the
    # least of them has its digit in normal form modulo (t mod ell)*U
    least = _KernelQuotient(ell, 1, u_basis).canon
    section = _averaged_section({mreduce(t, ell): least(t) for t in filt.transversal()},
                                ell, m, ell, gens_bar)

    out = []
    for W in module.stable_subspaces(span=u_basis):
        if len(W) == len(u_basis) or ell ** (len(u_basis) - len(W)) > index_bound:
            continue  # the parent itself, or an index over the bound
        rep_gens = section + [_kernel_matrix(w, ell, m) for w in W]
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


def split_cartan_membership(h, cap=DEFAULT_CAP, budget=500_000):
    """(conjugate-into flag, index of the image) against the normalizer of
    the split Cartan at h's modulus."""
    big = build_cartan(CartanSpec("split-normalizer", h.mod), cap)
    ok, witness, index = conjugate_into(h, big, cap, budget)
    return ok, index, witness


# ---------------------------------------------------------------------------
# preimage rigidity

class _KernelQuotient:
    "Arithmetic in P/N_U for P <= GL2(Z/ell^(n+1)), N_U = I + ell^n * U."

    def __init__(self, ell, n, u_basis):
        self.ell = ell
        self.layer = ell ** n
        self.m = self.layer * ell
        self.u_basis = u_basis
        self._bar_cache = {}

    def _image_basis(self, xbar):
        if xbar not in self._bar_cache:
            vecs = [mmul(xbar, u, self.ell) for u in self.u_basis]
            self._bar_cache[xbar] = Echelon(self.ell, vecs)
        return self._bar_cache[xbar]

    def canon(self, x):
        base = tuple(e % self.layer for e in x)
        d = tuple(((x[i] - base[i]) // self.layer) % self.ell for i in range(4))
        if self.u_basis:
            d = self._image_basis(tuple(e % self.ell for e in x)).reduce(d)
        return tuple((base[i] + self.layer * d[i]) % self.m for i in range(4))

    def mul(self, a, b):
        return self.canon(mmul(a, b, self.m))

    def kernel(self, coeffs, basis):
        "The class of I + layer * (the F_ell-combination of `basis`)."
        k = lincomb(coeffs, basis, self.ell)
        return self.canon(_kernel_matrix(k, self.layer, self.m))


def _sylow_subgroup(group, cap=DEFAULT_CAP):
    """Generators of an ell-Sylow subgroup of the group, the preimage in G
    of an ell-Sylow subgroup of G(ell).  The ell-part of |GL2(F_ell)| is
    ell, so these are the layer rows of G cap K_1 (deepest layer first) and
    a lift of one unipotent I + N != I of G(ell) if there is one."""
    filt = group.filtration(cap)
    ell = group.mod.ell
    # each layer row keeps the powers of an inverse b^-1 of its realiser
    gens = [powers[1] for _, rows in reversed(filt.layers) for powers in rows.values()]
    for t in filt.transversal():
        n = ((t[0] - 1) % ell, t[1] % ell, t[2] % ell, (t[3] - 1) % ell)
        if any(n) and not any(mmul(n, n, ell)):
            return gens + [t]
    return gens


def _sylow_relator_digits(group, cap=DEFAULT_CAP):
    """The relators of the ell-Sylow sequence g_1, ..., g_k of _sylow_subgroup,
    evaluated at lifts mod ell^(n+1): a list whose entry 0 holds the layer-n
    digit of every relator at the lifts g_i (entries in [0, ell^n)), and
    whose entry 1 + 4i + j holds them at the lifts with g_i replaced by
    g_i * (I + ell^n E_j).

    Each prefix of the sequence is normal in the next with index ell: the
    deeper layer rows generate G cap K_(e+1), normal in G, commutators of
    layer-e rows lie there, and the unipotent lift normalizes G cap K_1.  So
    g_i^ell and g_i g_j g_i^-1 (j < i) lie in G cap K_1, and the layer steps
    of Filtration.reduce write each as a word in g_1, ..., g_(i-1): these
    are the relators of a polycyclic presentation (Holt, Eick and O'Brien,
    8.1).  A relator's value at lifts g_i * (I + ell^n v_i) lies in
    I + ell^n M2, and its digit is affine in the v_i over F_ell, since that
    kernel is abelian and G acts on it through G(ell).
    """
    filt = group.filtration(cap)
    ell, layer = group.mod.ell, group.mod.modulus
    m = layer * ell
    gens = _sylow_subgroup(group, cap)
    index = {g: i for i, g in enumerate(gens)}

    def sift(x):
        "Letters (i, f) of a word w in the layer rows with w * x = I."
        letters, q = [], 1
        for echelon, powers in filt.layers:
            q *= ell
            for row, f in echelon.decompose(tuple(a // q % ell for a in x))[1]:
                # the row's generator is g = powers[row][1], and powers[row][f] = g^f
                x = mmul(powers[row][f], x, layer)
                letters.append((index[powers[row][1]], f))
        if x != IDENTITY:
            raise CertificateError("relator %r does not sift through the layer rows" % (x,))
        return letters[::-1]

    words = []
    for i, g in enumerate(gens):
        gi = minv(g, layer, ell)
        words.append(sift(mpow(g, ell, layer)) + [(i, ell)])
        words += [sift(mmul(mmul(g, h, layer), gi, layer)) + [(i, 1), (j, 1), (i, -1)]
                  for j, h in enumerate(gens[:i])]

    def digits(lifts):
        out = []
        for word in words:
            x = IDENTITY
            for i, f in word:
                x = mmul(x, minv(lifts[i], m, ell) if f < 0 else mpow(lifts[i], f, m), m)
            out.append(_kernel_coords(x, layer, ell))
        return out

    return [digits(gens)] + [
        digits(gens[:i] + [mmul(g, _kernel_matrix(b, layer, m), m)] + gens[i + 1:])
        for i, g in enumerate(gens) for b in M2_BASIS]


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


def _sylow_splits(digits, U, ell):
    """Whether the ell-Sylow subgroup splits over V = (I + ell^n M2)/N_U,
    i.e. whether the system of _split_system is consistent.  If it is not,
    some y with y.columns = 0 has y.constant != 0; y then pairs with the
    reduced relator digits to one nonzero value at the base lifts and after
    each change of one lift coordinate, so at every choice of lifts (the
    digits are affine in them), and no choice satisfies every relator.
    That certificate is checked on the digits themselves."""
    columns, constant = _split_system(digits, U, ell)
    span_u = Echelon(ell, U)
    for y in nullspace_span(columns, ell, len(constant)):
        if sum(a * c for a, c in zip(y, constant)) % ell:
            pairs = {sum(a * x for a, x in zip(y, (x for v in d for x in span_u.reduce(v))))
                     % ell for d in digits}
            if len(pairs) != 1 or pairs == {0}:
                raise CertificateError("no-complement certificate over U = %r does "
                                       "not hold on the relators" % (U,))
            return False
    return True


def _complement_over_group(quot, gens, m, v_basis, ell, cap, budget):
    """Generator-lift DFS for a complement of V in P/N_U over the group
    generated by `gens` (4-tuples mod m); returns the lifts or None.

    Lifts are assigned one generator at a time.  The closure of the first
    i+1 lifts maps onto <gens[:i+1]>, so its order is that order times the
    order of its intersection with V; extend() capped at the order of
    <gens[:i+1]> therefore fails exactly when the closure meets V, and
    adding generators never shrinks that intersection.

    Before that closure a lift t of g = gens[i] must pass two checks, each a
    few products: if the closure is a complement it maps isomorphically onto
    <gens[:i+1]>, so t^k lies in the closure of the earlier lifts when g^k
    lies in <gens[:i]>, and so does t c t^-1 for the lift c of every gens[j]
    with g gens[j] g^-1 in <gens[:i]>.  Along a chain of normal subgroups
    the checks decide alone, and a rejected lift costs a few products
    instead of a closure.
    """
    mul = lambda a, b: mmul(a, b, m)
    closure = {(1 % m, 0, 0, 1 % m)}
    prefix, relations = [1], []
    for i, g in enumerate(gens):
        k, x = 1, g
        while x not in closure:
            x, k = mmul(x, g, m), k + 1
        gi = minv(g, m, ell)
        kept = [j for j in range(i) if mmul(mmul(g, gens[j], m), gi, m) in closure]
        relations.append((k, kept))
        closure = extend(closure, g, mul, cap)
        prefix.append(len(closure))
    coeff_space = list(product(range(ell), repeat=len(v_basis)))
    attempts = 0
    adjusted = []

    def obeys_relations(t, i, closed):
        k, kept = relations[i]
        ti = quot.canon(minv(t, quot.m, ell))
        if any(quot.mul(quot.mul(t, adjusted[j]), ti) not in closed for j in kept):
            return False
        x = t
        for _ in range(k - 1):
            x = quot.mul(x, t)
        return x in closed

    def dfs(i, closed):
        nonlocal attempts
        if i == len(gens):
            return True
        base = quot.canon(gens[i])
        for coeffs in coeff_space:
            attempts += 1
            if attempts > budget:
                raise SearchBudgetError("complement search exceeded %d lift "
                                        "attempts" % budget)
            t = quot.mul(base, quot.kernel(coeffs, v_basis))
            if not obeys_relations(t, i, closed):
                continue
            try:
                new = extend(closed, t, quot.mul, prefix[i + 1])
            except EnumerationCapError:
                continue  # the closure meets V: reject this lift
            adjusted.append(t)
            if dfs(i + 1, new):
                return True
            adjusted.pop()
        return False

    if dfs(0, {quot.canon((1, 0, 0, 1))}):
        return adjusted
    return None


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
    gens += [_kernel_matrix(u, layer, m) for u in u_basis]
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
    constraint, by descending dimension: witnesses over large subspaces have
    small complement search spaces, and the rigid verdict examines them all.
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
    for U in sorted(KernelModule(ell, gens_bar).stable_subspaces(floor), key=len,
                    reverse=True):
        if len(U) < 4:
            span_u = Echelon(ell, U)
            out.append((U, Echelon(ell, [span_u.reduce(v) for v in M2_BASIS]).rows))
    return out


def preimage_rigidity(group, cap=DEFAULT_CAP, budget=10 ** 6):
    """Whether only the full preimage of the group, one ell-power level up,
    reduces exactly onto it with surjective determinant.

    Returns RigidityResult; when not rigid the counterexample is verified
    (exact reduction, surjective determinant, proper in the preimage).
    """
    mod = group.mod
    ell, n = mod.ell, mod.exponent
    if n < 1:
        raise ValueError("rigidity needs a group of exponent >= 1")
    mod_high = PrimePowerModulus(ell, n + 1)
    order = group.order(cap)
    coprime = order % ell != 0
    # the complement lifts of the coprime case, the Sylow relator digits and
    # the small generating set are each built once, when a subspace first
    # needs them
    cand_gens = digits = small_gens = None
    undecided = []
    subspaces = _rigidity_subspaces(group, cap)
    for checked, (U, v_basis) in enumerate(subspaces, 1):
        if coprime:
            if cand_gens is None:
                # G meets K_1 trivially, so the transversal is G, which lifts
                # to itself mod ell^(n+1); averaging makes it a complement
                cand_gens = _averaged_section(
                    {t: t for t in group.filtration(cap).transversal()}, mod.modulus,
                    mod_high.modulus, ell, group.small_generating_set(cap))
            candidate = _build_candidate(group, U, cand_gens, mod_high)
            if candidate.det_image()[1]:
                if (candidate.order(cap) != order * ell ** len(U)
                        or not verify_counterexample(group, candidate, cap)):
                    raise CertificateError("counterexample over U = %r failed "
                                           "verification" % (U,))
                return RigidityResult(False, candidate, checked)
            continue

        if digits is None:
            digits = _sylow_relator_digits(group, cap)
        if not _sylow_splits(digits, U, ell):
            continue  # Gaschutz: no complement anywhere
        if small_gens is None:
            small_gens = group.small_generating_set(cap)
        lifts = _complement_over_group(_KernelQuotient(ell, n, U), small_gens, mod.modulus,
                                       v_basis, ell, cap, budget)
        if lifts is None:
            raise SearchBudgetError("split extension but no complement found "
                                    "within budget")
        candidate = _build_candidate(group, U, lifts, mod_high)
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
