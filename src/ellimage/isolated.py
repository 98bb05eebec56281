"""The three-step candidate filter for isolated points.

Given an open subgroup presented mod ell^n (an ell-adic Galois image), the
pipeline produces the finite set of (level, degree) pairs that any isolated
point on X1(ell^k) / X0(ell^k) attached to the image would have to reduce
to:

  1. for every k up to the level exponent and every orbit at level ell^k,
     push the point down to the smallest ell^a where its degree is
     multiplicative through the natural map (degree = orbit size, read at
     each level a from the orbits of level a; the tests keep one BFS per
     level as the reference);
  2. discard pairs with degree above the genus of X1(ell^a) / X0(ell^a)
     (Riemann-Roch gives a pencil);
  3. discard pairs whose reduced image corresponds to a genus-0 curve.

Eliminated pairs are kept, tagged with their reason, so every report is
re-checkable.  Literature facts about the surviving pairs are attached from
a static citation table and are never computed.
"""

import warnings
from collections import namedtuple

from .gl2 import DEFAULT_CAP
from .modarith import PrimePowerModulus, factorize
from .modcurves import genus_X0, genus_X1, genus_XG, map_degree_tower
from .orbits import KernelClasses, orbits

FAMILIES = ("gamma1", "gamma0")

ELIM_RIEMANN_ROCH = "riemann_roch"
ELIM_GENUS_ZERO = "genus_zero_image"


class CandidatePair(namedtuple("CandidatePair", "level_exp degree ell provenance elimination",
                               defaults=((), None))):
    """A (level, degree) pair at level ell**level_exp, with its provenance
    ((source level exponent, orbit representative), ...) and its elimination
    reason, None while it survives."""

    __slots__ = ()

    @property
    def level(self):
        return self.ell ** self.level_exp


Annotation = namedtuple("Annotation", "level degree text")


class FilterReport(namedtuple("FilterReport", "label family ell pairs det_surjective annotations",
                              defaults=((),))):
    "`pairs` holds every CandidatePair, eliminated ones included."

    __slots__ = ()

    @property
    def final(self):
        return tuple(p for p in self.pairs if p.elimination is None)

    def to_lines(self, comments=True):
        out = []
        if comments and not self.det_surjective:
            out.append("# warning: determinant not surjective; "
                       "degree interpretation is invalid")
        if comments:
            for a in self.annotations:
                out.append("# cite %d:%d %s" % (a.level, a.degree, a.text))
        for p in self.pairs:
            status = "kept" if p.elimination is None else "eliminated"
            reason = p.elimination or "none"
            out.append("%s\t%s\t%d\t%d\t%s\t%s"
                       % (self.label, self.family, p.level, p.degree, status, reason))
        final = ",".join("%d:%d" % (p.level, p.degree) for p in self.final)
        out.append("RESULT\t%s\t%s\t%s" % (self.label, self.family, final or "empty"))
        return out

    def to_text(self, comments=True):
        return "\n".join(self.to_lines(comments)) + "\n"


# Literature dispositions for pairs the filter cannot remove: whether the
# point is isolated, the non-CM rational j-invariants over it as (numerator,
# denominator) pairs, and the citation, which prints them at its {} fields.
# Citations only; nothing here is derived by this package.  knownj builds its
# non-CM rows from these j-invariants.
ANNOTATIONS = {
    ("gamma1", 17, 4): (False, (),
                        "every degree-4 point on X1(17) is P^1-parameterized "
                        "(Derickx-Kamienny-Mazur-van Hoeij modular symbol bounds)"),
    ("gamma1", 37, 6): (True, ((-7 * 11 ** 3, 1),),
                        "a degree-6 sporadic point on X1(37) exists (van Hoeij); it is "
                        "isolated because 6 is below half the Q-gonality 18 of X1(37) "
                        "(Frey's criterion; gonality from Derickx-van Hoeij)"),
    ("gamma1", 37, 18): (True, ((-7 * 137 ** 3 * 2083 ** 3, 1),),
                         "the degree-18 point on X1(37) above the degree-6 point is "
                         "isolated (degree-d classification literature for X1, 2025)"),
    ("gamma0", 11, 1): (True, ((-11 * 131 ** 3, 1), (-11 ** 2, 1)),
                        "non-CM rational points on X0(11): j = {} and {}; X0(11)(Q) is "
                        "finite (genus 1, rank 0), so both points are isolated"),
    ("gamma0", 17, 1): (True, ((-(17 ** 2) * 101 ** 3, 2), (-17 * 373 ** 3, 2 ** 17)),
                        "non-CM rational points on X0(17): j = {} and {}; "
                        "X0(17)(Q) is finite, so both points are isolated"),
    ("gamma0", 37, 1): (True, ((-7 * 11 ** 3, 1), (-7 * 137 ** 3 * 2083 ** 3, 1)),
                        "non-CM rational points on X0(37): j = {} and {}; "
                        "X0(37)(Q) is finite (genus 2), so both are isolated"),
}


def _factored(n):
    "The prime factorization of n > 1 as text, e.g. 11*131^3."
    return "*".join(str(p) if e == 1 else "%d^%d" % (p, e) for p, e in factorize(n).items())


def _j_text(num, den):
    "The j-invariant num/den as the citations print it, e.g. -17*373^3/2^17."
    text = ("-" if num < 0 else "") + _factored(abs(num))
    return text + "/" + _factored(den) if den > 1 else text


def _genus_at(family, N):
    return genus_X1(N) if family == "gamma1" else genus_X0(N)


def candidate_pairs(group, family, cap=DEFAULT_CAP):
    """Step 1: the deduplicated pre-filter pairs for the image.

    Levels ell^k beyond the level of the group contribute nothing new
    (their orbits are kernel-saturated and multiplicative down to the level),
    so the loop stops there; the level-stability tests exercise this.

    The degree of an orbit's point at each level a <= k is read from the
    orbits of level a, found earlier in the same loop, through a table keyed
    by the KernelClasses normal form of the representative mod ell^a:
    reduction mod ell^a is an equivariant map from the level-k orbit onto
    that orbit, so its degree divides the level-k one, which is checked.
    """
    if family not in FAMILIES:
        raise ValueError("family must be gamma1 or gamma0")
    ell = group.mod.ell
    _, det_surj = group.det_image()
    if not det_surj:
        warnings.warn("determinant image is not surjective; the degree "
                      "interpretation of orbit sizes is invalid", stacklevel=2)
    group_level = group.level(cap)
    top = next(k for k in range(1, group.mod.exponent + 1) if ell ** k >= group_level)
    found = {}
    tables = []                      # per level a >= 1: (ell^a, class canon, class -> orbit size)
    for k in range(1, top + 1):
        level = PrimePowerModulus(ell, k)
        recs = orbits(group, k, family, cap)
        tables.append((level.modulus, KernelClasses(group, level, family, cap).canon,
                       {c: rec.size for rec in recs for c in rec.points}))
        map_degrees = [map_degree_tower(family, ell, a, k) for a in range(k + 1)]
        for rec in recs:
            deg_k = rec.size
            x, y = rec.representative
            tower = [1] + [sizes[canon((x % m, y % m))] for m, canon, sizes in tables]
            if tower[k] != deg_k:
                raise ArithmeticError("orbit of %r has size %d but table degree %d"
                                      % (rec.representative, deg_k, tower[k]))
            for a, deg_a in enumerate(tower):
                if deg_k % deg_a:
                    raise ArithmeticError("orbit of %r has size %d but degree %d at level %d"
                                          % (rec.representative, deg_k, deg_a, ell ** a))
            for a in range(0, k + 1):
                if deg_k == tower[a] * map_degrees[a]:
                    pair_key = (a, tower[a])
                    prov = (k, rec.representative)
                    if pair_key in found:
                        found[pair_key] = found[pair_key] + (prov,)
                    else:
                        found[pair_key] = (prov,)
                    break
    pairs = [CandidatePair(a, d, ell, provenance=found[(a, d)])
             for (a, d) in sorted(found)]
    return pairs


def filter_riemann_roch(pairs, family):
    """Step 2: tag pairs whose degree exceeds the genus of X_family(ell^a)."""
    out = []
    for p in pairs:
        if p.elimination is None and p.degree > _genus_at(family, p.level):
            p = p._replace(elimination=ELIM_RIEMANN_ROCH)
        out.append(p)
    return out


def filter_genus_zero(pairs, group, family, cap=DEFAULT_CAP):
    """Step 3: tag pairs whose reduced image has a genus-0 modular curve."""
    out = []
    genus_cache = {0: 0}   # every image is all of GL2 mod 1: the j-line X(1)
    for p in pairs:
        if p.elimination is None:
            a = p.level_exp
            if a not in genus_cache:
                image = group if a == group.mod.exponent else group.reduce_to(a)
                genus_cache[a] = genus_XG(image, cap).genus
            if genus_cache[a] == 0:
                p = p._replace(elimination=ELIM_GENUS_ZERO)
        out.append(p)
    return out


def analyze(group, family, label=None, cap=DEFAULT_CAP):
    """Run the full pipeline and assemble the report."""
    label = label or group.label or "unlabeled"
    _, det_surj = group.det_image()
    pairs = candidate_pairs(group, family, cap)
    pairs = filter_riemann_roch(pairs, family)
    pairs = filter_genus_zero(pairs, group, family, cap)
    notes = []
    for p in pairs:
        if p.elimination is None:
            entry = ANNOTATIONS.get((family, p.level, p.degree))
            if entry:
                text = entry[2].format(*(_j_text(*j) for j in entry[1]))
                notes.append(Annotation(p.level, p.degree, text))
    return FilterReport(label, family, group.mod.ell, tuple(pairs),
                        det_surj, tuple(notes))
