"""Subgroup-lattice verifications: low-index determinant-surjective
subgroups, split-Cartan-normalizer membership, and preimage rigidity.

The searches lean on the layered structure of subgroups of GL2(Z/ell^n):

* proper_detsurjective_subgroups classifies H <= G up to G-conjugacy.  For
  tiny G a brute-force subgroup lattice is built (cyclic subgroups, then
  join closure, each join extending a subgroup by one cyclic generator).
  For exponent-2 moduli whose mod-ell quotient has order prime to ell,
  subgroups that keep the full mod-ell image correspond, by
  Schur-Zassenhaus, to the G(ell)-stable subspaces W of the kernel part of
  G: there is exactly one conjugacy class per W, realized as (complement
  over the kernel) * N_W with the complement built by cocycle averaging
  (_averaged_section, which preimage_rigidity also uses for coprime G).
  The class size is read off the kernel action, not an orbit: G = H * K
  for K = I + ell*U abelian, so the class has [K : N_K(H)] members, and
  N_K(H) is the subspace of u in U with g u g^-1 - u in W for every
  generator g (KernelModule.class_size).  The brute-force path orbits
  each subgroup under the generators (_conjugacy_classes_of_subgroups).

* preimage_rigidity decides whether any proper det-surjective subgroup of
  the one-step full preimage reduces exactly onto G.  Candidate kernel
  intersections U are the G-stable subspaces of M2(F_ell); U must contain
  the ell-th-power image of G's top kernel layer (x -> x^ell pushes layer
  n-1 into layer n), which usually collapses the list.  Existence of a
  subgroup over a given U is the question whether V = (I + ell^n M2)/N_U
  has a complement in the quotient.  One generator-lift DFS
  (_complement_over_group) answers it: each lift extends the closure of
  the lifts before it by gl2.extend, capped at the order of the subgroup
  the generators so far generate, and a closure over the cap meets V.
  Before that closure a lift must satisfy the power and conjugation
  relations its generator has with the earlier ones; along the normal
  chain of the Sylow climb these decide alone, so the cost of a failed
  search does not depend on the order of the generators.  The
  DFS runs first on the generators of an ell-Sylow subgroup, found by a
  normalizer climb that extends its own closure (Gaschutz: an abelian
  normal ell-subgroup has a complement iff it has one there), then on G's
  generators for the lifts.  Determinant surjectivity of the found
  complement settles the det-surjective variant; for traceless U the
  determinant image is rigid across complements unless G has nontrivial
  homomorphisms to F_ell, and that corner raises rather than guesses.

F_ell linear algebra on kernel coordinate vectors goes through
modarith.Echelon.  All search budgets are explicit and exhaustion is a hard
error; every subgroup, section and counterexample the searches build is
verified, and a failed verification raises CertificateError.
"""

from dataclasses import dataclass
from itertools import combinations, product

from .errors import CertificateError, EnumerationCapError, SearchBudgetError
from .gl2 import (CartanSpec, DEFAULT_CAP, MatrixGroup, build_cartan,
                  conjugate_into, extend, mulclose, orbit)
from .modarith import (Echelon, PrimePowerModulus, lincomb, mdet, minv, mmul,
                       mpow, mreduce, nullspace_span)

BRUTE_LIMIT = 1000


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
# subspaces of the kernel module F_ell^4

def _subspaces_of(basis, ell):
    """All subspaces of the span of `basis`, each as an echelon basis list."""
    dim = len(basis)
    # enumerate echelon bases in coordinate space F_ell^dim, then map back
    subspaces = [[]]
    for r in range(1, dim + 1):
        for pivots in combinations(range(dim), r):
            free_positions = []
            for i, p in enumerate(pivots):
                for c in range(p + 1, dim):
                    if c not in pivots:
                        free_positions.append((i, c))
            for values in product(range(ell), repeat=len(free_positions)):
                rows = []
                for i, p in enumerate(pivots):
                    row = [0] * dim
                    row[p] = 1
                    rows.append(row)
                for (i, c), val in zip(free_positions, values):
                    rows[i][c] = val
                subspaces.append([lincomb(row, basis, ell) for row in rows])
    return subspaces


def _conj_coords(gbar, v, ell):
    "Conjugation action of a mod-ell matrix on a kernel coordinate vector."
    gi = minv(gbar, ell, ell)
    w = mmul(mmul(gbar, v, ell), gi, ell)
    return w


def _is_stable(basis, gens_bar, ell):
    span = Echelon(ell, basis)
    return all(_conj_coords(g, b, ell) in span for g in gens_bar for b in basis)


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
        basis = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        for g in self.gens_bar:
            gi = minv(g, ell, ell)
            cols = [mmul(mmul(g, b, ell), gi, ell) for b in basis]
            mats.append(cols)
        return mats

    def spin(self, vector, action=None):
        "Smallest stable subspace containing the vector, in canonical form."
        ell = self.ell
        action = action or self._action_matrices()
        span = Echelon(ell, [vector])
        frontier = span.rows
        while frontier and len(span) < 4:
            new = []
            for v in frontier:
                for cols in action:
                    w = span.add(tuple(sum(v[j] * cols[j][i] for j in range(4))
                                       for i in range(4)))
                    if w is not None:
                        new.append(w)
            frontier = new
        return span.rref()

    def stable_subspaces(self):
        """All stable subspaces: every stable subspace is a join of cyclic
        ones (spins), so the join closure of the spins is the full list."""
        ell = self.ell
        action = self._action_matrices()
        spins = set()
        # projective vectors: first nonzero coordinate = 1
        for pivot in range(4):
            tail = 4 - pivot - 1
            for rest in product(range(ell), repeat=tail):
                v = tuple([0] * pivot + [1] + list(rest))
                spins.add(tuple(self.spin(v, action)))
        lattice = orbit((), spins, lambda a, b: tuple(Echelon(ell, a + b).rref()))
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
        rows = nullspace_span(u_basis, ell)
        annihilator_w = nullspace_span(w_basis, ell)
        for cols in self._action_matrices():
            rows += [tuple(sum(a[i] * cols[j][i] for i in range(4)) - a[j]
                           for j in range(4)) for a in annihilator_w]
        return ell ** (len(u_basis) - len(Echelon(ell, nullspace_span(rows, ell))))


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


def _averaged_section(reps, layer, m, ell):
    """Homomorphic section of an extension by the kernel I + layer*M2(F_ell).

    `reps` maps each element x (mod layer) of a group Q of order prime to
    ell to a lift mod m = layer*ell.  The lifts are corrected by the average
    of their cocycle (Schur-Zassenhaus), and the corrected section, a dict
    x -> lift, is verified to be a homomorphism.
    """
    inv_n = pow(len(reps), -1, ell)
    section = {}
    for x, tx in reps.items():
        acc = (0, 0, 0, 0)
        for ty in reps.values():
            prod = mmul(tx, ty, m)
            c = mmul(prod, minv(reps[mreduce(prod, layer)], m, ell), m)
            acc = tuple(a + b for a, b in zip(acc, _kernel_coords(c, layer, ell)))
        eta = tuple((-inv_n * a) % ell for a in acc)
        section[x] = mmul(_kernel_matrix(eta, layer, m), tx, m)
    for x in reps:
        for y in reps:
            if mmul(section[x], section[y], m) != section[mmul(x, y, layer)]:
                raise CertificateError("averaged section is not a homomorphism")
    return section


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
    if not fix_mod_ell_reduction or parent_order <= BRUTE_LIMIT:
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
    proper G(ell)-stable subspace W of the kernel part U, for exponent 2 and
    |G(ell)| prime to ell."""
    mod = group.mod
    ell = mod.ell
    if mod.exponent != 2:
        raise SearchBudgetError("structured search supports exponent-2 moduli only")

    els = group.elements(cap)
    ident = group.identity_tuple()
    kernel_part = [x for x in els if mreduce(x, ell) == (1, 0, 0, 1)]
    u_basis = Echelon(ell, [_kernel_coords(x, ell, ell) for x in kernel_part
                            if x != ident]).rows
    bar_order = len(els) // len(kernel_part)
    if bar_order % ell == 0:
        raise SearchBudgetError("structured search needs |G(ell)| prime to ell")
    gens_bar = tuple(mreduce(g, ell) for g in group.gens)
    module = KernelModule(ell, gens_bar)
    m = mod.modulus
    # a complement of the kernel part: lifts of the mod-ell elements, averaged
    reps = {}
    for x in els:
        reps.setdefault(mreduce(x, ell), x)
    section = _averaged_section(reps, ell, m, ell)

    out = []
    for W in _subspaces_of(u_basis, ell):
        if len(W) == len(u_basis):
            continue  # the parent itself
        if ell ** (len(u_basis) - len(W)) > index_bound:
            continue
        if not _is_stable(W, gens_bar, ell):
            continue
        rep_gens = [section[mreduce(g, ell)] for g in group.gens]
        rep_gens += [_kernel_matrix(w, ell, m) for w in W]
        rep = MatrixGroup(mod, rep_gens)
        expected = bar_order * ell ** len(W)
        if rep.order(cap) != expected or not all(g in group for g in rep.gens):
            raise CertificateError("subgroup over W = %r is not a subgroup of order "
                                   "%d in the parent" % (W, expected))
        if not rep.det_image()[1]:
            continue
        out.append(SubgroupClass(rep, len(els) // expected, True,
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
    "Generators of an ell-Sylow subgroup of the group, by normalizer climbing."
    els = group.elements(cap)
    mod = group.mod
    ell, m = mod.ell, mod.modulus
    mul = lambda a, b: mmul(a, b, m)
    target, ell_free = 1, len(els)
    while ell_free % ell == 0:
        target *= ell
        ell_free //= ell
    ident = group.identity_tuple()
    sgens = []
    sset = {ident}
    while len(sset) < target:
        progressed = False
        for y in els:
            yi = minv(y, m, ell)
            if any(mmul(mmul(y, s, m), yi, m) not in sset for s in sgens):
                continue
            # the ell-part of y: y^(ell-free part of |G|) has ell-power order
            z = mpow(y, ell_free, m)
            if z in sset:
                continue
            # z normalizes S, so <S, z> = S<z> is again an ell-group
            new = extend(sset, z, mul, cap)
            lp = len(new)
            while lp % ell == 0:
                lp //= ell
            if lp != 1:
                raise CertificateError("Sylow climb reached a group of order %d, "
                                       "not a power of %d" % (len(new), ell))
            sgens.append(z)
            sset = new
            progressed = True
            break
        if not progressed:
            raise SearchBudgetError("Sylow climb stalled (|S| = %d of %d)"
                                    % (len(sset), target))
    return sgens


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
    with g gens[j] g^-1 in <gens[:i]>.  Along a chain of normal subgroups,
    as the Sylow climb builds, the checks decide alone, and a rejected lift
    costs a few products instead of a closure.
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
    "Whether Hom(G, F_ell) = 0, via the normal closure of powers and commutators."
    mod = group.mod
    ell, m = mod.ell, mod.modulus
    mul = lambda a, b: mmul(a, b, m)
    gens = group.gens
    seeds = [mpow(g, ell, m) for g in gens]
    for a in gens:
        ai = minv(a, m, ell)
        for b in gens:
            bi = minv(b, m, ell)
            seeds.append(mmul(mmul(a, b, m), mmul(ai, bi, m), m))
    closure = mulclose(seeds, m, cap)
    # normal closure: conjugates of every generator found, by every g in G
    for s in seeds:
        for g in gens:
            c = mmul(mmul(g, s, m), minv(g, m, ell), m)
            if c not in closure:
                closure = extend(closure, c, mul, cap)
                seeds.append(c)
    return len(closure) == group.order(cap)


def _build_candidate(group, u_basis, complement_lifts, mod_high):
    "MatrixGroup mod ell^(n+1) generated by complement lifts plus N_U."
    layer = group.mod.modulus
    m = mod_high.modulus
    gens = list(complement_lifts)
    gens += [_kernel_matrix(u, layer, m) for u in u_basis]
    return MatrixGroup(mod_high, gens)


def verify_counterexample(group, candidate, cap=DEFAULT_CAP):
    "Checks reduction, determinant surjectivity and properness of a witness."
    n = group.mod.exponent
    red = candidate.reduce_to(n)
    if set(red.elements(cap)) != set(group.elements(cap)):
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
    # element of G lands in the new kernel, with the same coordinates except
    # for ell = 2 at exponent 2, where squaring contributes A + A^2
    ident = group.identity_tuple()
    pi_vecs = []
    if n >= 2:
        layer_low = ell ** (n - 1)
        for x in group.elements(cap):
            if x != ident and mreduce(x, layer_low) == (1 % layer_low, 0, 0, 1 % layer_low):
                a = tuple((((x[i] - ident[i]) % mod.modulus) // layer_low) % ell
                          for i in range(4))
                if ell == 2 and n == 2:
                    sq = mmul(a, a, 2)
                    a = tuple((a[i] + sq[i]) % 2 for i in range(4))
                pi_vecs.append(a)
    pi_basis = Echelon(ell, pi_vecs).rows
    out = []
    for U in sorted(KernelModule(ell, gens_bar).stable_subspaces(), key=len, reverse=True):
        span_u = Echelon(ell, U)
        if len(U) == 4 or not all(v in span_u for v in pi_basis):
            continue
        v_basis = Echelon(ell, [span_u.reduce(v) for v in
                                ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
                          ).rows
        out.append((U, v_basis))
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
    els = group.elements(cap)
    order = len(els)
    coprime = order % ell != 0
    full_section = None
    sylow = None
    undecided = []
    subspaces = _rigidity_subspaces(group, cap)
    for checked, (U, v_basis) in enumerate(subspaces, 1):
        if coprime:
            if full_section is None:
                # G lifts to itself mod ell^(n+1); averaging makes it a complement
                full_section = _averaged_section({x: x for x in els}, mod.modulus,
                                                 mod_high.modulus, ell)
            cand_gens = [full_section[g] for g in group.small_generating_set(cap)]
            candidate = _build_candidate(group, U, cand_gens, mod_high)
            if candidate.det_image()[1]:
                if (candidate.order(cap) != order * ell ** len(U)
                        or not verify_counterexample(group, candidate, cap)):
                    raise CertificateError("counterexample over U = %r failed "
                                           "verification" % (U,))
                return RigidityResult(False, candidate, checked)
            continue

        quot = _KernelQuotient(ell, n, U)
        if sylow is None:
            sylow = _sylow_subgroup(group, cap)
        if _complement_over_group(quot, sylow, mod.modulus, v_basis, ell, cap,
                                  budget) is None:
            continue  # Gaschutz: no complement anywhere
        lifts = _complement_over_group(quot, group.small_generating_set(cap), mod.modulus,
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
