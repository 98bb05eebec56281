import random
import subprocess
import sys
from itertools import permutations, product

import pytest

from ellimage.errors import EnumerationCapError, SearchBudgetError
from ellimage.gl2 import (CartanSpec, DEFAULT_CAP, MatrixGroup, build_cartan,
                          extend, full_gl2, is_conjugate, mulclose, orbit)
from ellimage.labelio import read_generators_text
from ellimage import lattice
from ellimage.lattice import (KernelModule, all_subgroups, preimage_rigidity,
                              proper_detsurjective_subgroups,
                              split_cartan_membership, verify_counterexample,
                              _KernelQuotient, _complement_over_group,
                              _conjugacy_classes_of_subgroups, _det_surjective_set,
                              _ell_hom_trivial, _rigidity_subspaces,
                              _stable_subspace_classes, _sylow_subgroup)
from ellimage.modarith import PrimePowerModulus, minv, mmul, mpow, mreduce

M3 = PrimePowerModulus(3, 1)
M5 = PrimePowerModulus(5, 1)
M7 = PrimePowerModulus(7, 1)
M9 = PrimePowerModulus(3, 2)
M25 = PrimePowerModulus(5, 2)
M49 = PrimePowerModulus(7, 2)


def test_all_subgroups_gl2_f3():
    subs = all_subgroups(full_gl2(M3))
    assert len(subs) == 55
    # every returned set really is a subgroup
    for s in sorted(subs, key=len)[:10]:
        assert mulclose(sorted(s), 3) == set(s)


def _oracle_subgroups_by_triples(group):
    "Independent enumeration: closures of all generator triples."
    els = group.elements()
    m = group.mod.modulus
    seen = {frozenset([group.identity_tuple()])}
    for a in els:
        ca = frozenset(mulclose([a], m))
        seen.add(ca)
        for b in els:
            if b <= a:
                continue
            cab = frozenset(mulclose([a, b], m))
            seen.add(cab)
    # triples built from the pair closures and one more element
    frontier = list(seen)
    for S in frontier:
        for c in els:
            if c in S:
                continue
            seen.add(frozenset(mulclose(sorted(S | {c}), m)))
    return seen


def test_subgroup_search_matches_brute_force_oracle():
    g3 = full_gl2(M3)
    oracle = _oracle_subgroups_by_triples(g3)
    assert oracle == all_subgroups(g3)
    # the classified det-surjective classes agree with a direct filter
    classes = proper_detsurjective_subgroups(g3, 8, fix_mod_ell_reduction=False)
    parent = frozenset(g3.elements())
    direct = [s for s in oracle
              if s != parent and 48 // len(s) <= 8 and 48 % len(s) == 0
              and _det_surjective_set(s, M3)]
    # count conjugacy classes of the direct list
    total = sum(c.class_size for c in classes)
    assert total == len(direct)
    for c in classes:
        assert frozenset(c.representative.elements()) in oracle


def test_unique_index49_class(image49, printed_index49):
    classes = proper_detsurjective_subgroups(image49, 49)
    assert len(classes) == 1
    cls = classes[0]
    assert cls.index_in_parent == 49
    assert cls.det_surjective
    rep = cls.representative
    assert rep.order() == 504
    # representative really is a subgroup of the parent
    assert set(rep.elements()) <= set(image49.elements())
    ok, _ = is_conjugate(rep, printed_index49)
    assert ok


def test_unique_index49_class_of_hard_conjugate(printed_index49):
    # a conjugate of 49.196.9.1 on which the conjugacy test's linear algebra
    # once grew entries of hundreds of bits and never returned
    rec, = read_generators_text(
        "49.196.9.1|49|20,25,26,12;12,24,23,20;6,7,30,43;8,0,0,8;"
        "36,14,35,15;8,35,28,43\n")
    rep = proper_detsurjective_subgroups(rec.group(), 49, True)[0].representative
    ok, witness = is_conjugate(rep, printed_index49)
    assert ok and witness is not None


# the full preimages of split Cartans have classes of every size from 1 to
# the index; in the torus case kernel vectors outside U meet the
# normalizer condition, so N must be cut down to U
STRUCTURED_EXTRA = {
    "preimage of split(3) mod 9":
        lambda: build_cartan(CartanSpec("split", M3)).full_preimage(M9),
    "preimage of split(5) mod 25":
        lambda: build_cartan(CartanSpec("split", M5)).full_preimage(M25),
    "nonsplit torus and I + 5*[2 3; 3 1] mod 25":
        lambda: MatrixGroup(M25, [(1, 4, 2, 1), (11, 15, 15, 6)]),
}
STRUCTURED = ["49.196.9.1", "9.54.1.1", "9.27.0.1"] + list(STRUCTURED_EXTRA) + [
    "%s(%d)" % (kind, ell * ell) for kind in ("split", "split-normalizer", "nonsplit",
                                              "nonsplit-normalizer") for ell in (3, 5, 7)]


@pytest.mark.parametrize("name", STRUCTURED)
def test_class_size_against_orbit(name, record_map):
    """The class sizes of the structured path, from the kernel action, equal
    the orbit of the representative under the parent's generators, on each
    group and a seeded conjugate.  Where the parent has order <= 144 the
    brute-force lattice lists the same (index, class size) pairs."""
    if name in record_map:
        group = record_map[name].group()
    elif name in STRUCTURED_EXTRA:
        group = STRUCTURED_EXTRA[name]()
    else:
        kind, m = name[:-1].split("(")
        ell = round(int(m) ** 0.5)
        group = build_cartan(CartanSpec(kind, PrimePowerModulus(ell, 2)))
    ell, m = group.mod.ell, group.mod.modulus
    rng = random.Random(name)
    while True:
        c = tuple(rng.randrange(m) for _ in range(4))
        if (c[0] * c[3] - c[1] * c[2]) % ell:
            break
    for g in (group, group.conjugated_by(c)):
        classes = _stable_subspace_classes(g, ell ** 4)
        assert classes
        for cls in classes:
            rep_set = frozenset(cls.representative.elements())
            (_, size), = _conjugacy_classes_of_subgroups([rep_set], g)
            assert cls.class_size == size, cls
        if g.order() <= 144:
            brute = proper_detsurjective_subgroups(g, ell ** 4)
            assert (sorted((k.index_in_parent, k.class_size) for k in brute)
                    == sorted((k.index_in_parent, k.class_size) for k in classes))


def test_structured_path_needs_prime_to_ell_reduction(record_map):
    # G(3) has order divisible by 3 here, so only the brute-force lattice
    # classifies these
    for group in (record_map["9.12.0.1"].group(),
                  build_cartan(CartanSpec("borel", PrimePowerModulus(3, 2)))):
        with pytest.raises(SearchBudgetError):
            _stable_subspace_classes(group, 81)


OPTIMIZED_REPRESENTATIVE_CHECK = """
import sys
from ellimage import lattice
from ellimage.cli import _bundled_records
from ellimage.errors import CertificateError
from ellimage.modarith import mmul
assert False, "run this under python -O"
averaged = lattice._averaged_section


def moved_section(reps, layer, m, ell):
    # conjugating the complement by I + ell*E11 moves it out of the parent
    c, ci = (1 + ell, 0, 0, 1), (1 - ell, 0, 0, 1)
    return {x: mmul(mmul(c, t, m), ci, m) for x, t in averaged(reps, layer, m, ell).items()}


lattice._averaged_section = moved_section
group = {r.rszb_label: r for r in _bundled_records()}["49.196.9.1"].group()
try:
    lattice.proper_detsurjective_subgroups(group, 49)
except CertificateError as exc:
    sys.exit(str(exc))
"""


def test_representative_check_survives_optimize():
    # a representative of the right order whose generators do not sift
    # through the parent is refused, also with asserts stripped
    r = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_REPRESENTATIVE_CHECK],
                       capture_output=True, text=True)
    assert r.returncode == 1
    assert r.stderr.startswith("subgroup over W = ")
    assert r.stderr.endswith("is not a subgroup of order 504 in the parent\n")


def test_gl2_f7_has_no_constrained_classes():
    assert proper_detsurjective_subgroups(full_gl2(M7), 49) == []


def test_unconstrained_variant_differs(image49):
    # without pinning the mod-7 image there are more det-surjective classes
    # (e.g. the full kernel over the index-2 subgroup of the reduction), so
    # the uniqueness claim holds for the constrained variant
    classes = proper_detsurjective_subgroups(image49, 49)
    assert [c.index_in_parent for c in classes] == [49]


def test_split_cartan_membership(image49, printed_index49):
    split49 = build_cartan(CartanSpec("split", M49))
    ok, idx, _ = split_cartan_membership(split49)
    assert ok and idx == 2
    ok, idx, _ = split_cartan_membership(printed_index49)
    assert ok and idx == 7
    nonsplit49 = build_cartan(CartanSpec("nonsplit", M49))
    ok, idx, _ = split_cartan_membership(nonsplit49)
    assert not ok


def test_rigidity_full_gl2():
    res = preimage_rigidity(full_gl2(M7))
    assert res.rigid
    assert res.counterexample is None


def test_rigidity_nonsplit_normalizer():
    g = build_cartan(CartanSpec("nonsplit-normalizer", M7))
    res = preimage_rigidity(g)
    assert not res.rigid
    assert verify_counterexample(g, res.counterexample)
    # the level-49 nonsplit-Cartan normalizer is also a valid witness
    cns49 = build_cartan(CartanSpec("nonsplit-normalizer", M49))
    assert verify_counterexample(g, cns49)


def test_rigidity_image49(image49):
    res = preimage_rigidity(image49)
    assert res.rigid
    assert res.checked_subspaces == 1


def test_rigidity_gl2_mod2_not_rigid():
    # the symmetric-group copy of GL2(Z/2) inside GL2(Z/4) (integer matrices
    # of order dividing 3 and the swap) is a proper det-surjective lift
    g2 = full_gl2(PrimePowerModulus(2, 1))
    res = preimage_rigidity(g2)
    assert not res.rigid
    assert verify_counterexample(g2, res.counterexample)


def test_rigidity_nonsplit_normalizer_mod3():
    g = build_cartan(CartanSpec("nonsplit-normalizer", PrimePowerModulus(3, 1)))
    res = preimage_rigidity(g)
    assert not res.rigid
    assert verify_counterexample(g, res.counterexample)
    big = build_cartan(CartanSpec("nonsplit-normalizer", PrimePowerModulus(3, 2)))
    assert verify_counterexample(g, big)


def test_rigidity_conjugation_invariant():
    g = build_cartan(CartanSpec("nonsplit-normalizer", M7))
    conj = g.conjugated_by((1, 2, 3, 0))
    assert preimage_rigidity(g).rigid == preimage_rigidity(conj).rigid


def test_stable_subspace_count_conjugation_invariant(image49):
    gens_bar = tuple(mreduce(t, 7) for t in image49.gens)
    km = KernelModule(7, gens_bar)
    n1 = len(km.stable_subspaces())
    conj = image49.conjugated_by((3, 1, 2, 1))
    km2 = KernelModule(7, tuple(mreduce(t, 7) for t in conj.gens))
    assert len(km2.stable_subspaces()) == n1


def test_counterexample_reduction_and_properness():
    g = build_cartan(CartanSpec("nonsplit-normalizer", M7))
    res = preimage_rigidity(g)
    h = res.counterexample
    assert set(h.reduce_to(1).elements()) == set(g.elements())
    assert h.det_image()[1]
    assert h.order() < g.order() * 7 ** 4


def test_brute_limit_is_hard_error(image49):
    with pytest.raises(SearchBudgetError):
        proper_detsurjective_subgroups(image49, 49, fix_mod_ell_reduction=False)


def _complement_by_product_search(quot, gens, m, v_basis, ell):
    """The exhaustive search the lift DFS replaced: every choice of V-coset
    adjustments of the generator lifts, in lexicographic order, kept when
    its closure has the order of <gens>."""
    order = len(mulclose(gens, m))
    lifts = [quot.canon(g) for g in gens]
    coeff_space = list(product(range(ell), repeat=len(v_basis)))
    for assignment in product(coeff_space, repeat=len(lifts)):
        adjusted = [quot.mul(lift, quot.kernel(coeffs, v_basis))
                    for lift, coeffs in zip(lifts, assignment)]
        try:
            closure = orbit(quot.canon((1, 0, 0, 1)), adjusted, quot.mul, order)
        except EnumerationCapError:
            continue
        if len(closure) == order:
            return adjusted
    return None


# the conjugates move the lexicographically first complement, so that a
# DFS skipping the first or the last coefficient gives a different answer
@pytest.mark.parametrize("name,conj", [("49.196.9.1", None)] + [
    (name, conj) for name in ("borel5", "gl2_2", "nsn3") for conj in (None, (2, 1, 1, 1))])
def test_complement_dfs_against_product_search(name, conj, image49):
    group = {"49.196.9.1": image49,
             "borel5": build_cartan(CartanSpec("borel", PrimePowerModulus(5, 1))),
             "gl2_2": full_gl2(PrimePowerModulus(2, 1)),
             "nsn3": build_cartan(CartanSpec("nonsplit-normalizer", M3))}[name]
    if conj:
        group = group.conjugated_by(conj)
    ell, n, m = group.mod.ell, group.mod.exponent, group.mod.modulus
    generator_lists = [_sylow_subgroup(group), group.small_generating_set()]
    compared = 0
    for U, v_basis in _rigidity_subspaces(group):
        quot = _KernelQuotient(ell, n, U)
        for gens in generator_lists:
            if ell ** (len(v_basis) * len(gens)) > 1000:
                continue  # beyond what the product search gets through
            old = _complement_by_product_search(quot, gens, m, v_basis, ell)
            new = _complement_over_group(quot, gens, m, v_basis, ell, DEFAULT_CAP, 10 ** 6)
            # both return the lexicographically first complement
            assert new == old, (U, gens)
            compared += 1
    assert compared


@pytest.mark.parametrize("conj", [None, (2, 1, 1, 1), (3, 5, 1, 2)])
def test_sylow_complement_search_builds_no_rejected_closure(conj, image49, monkeypatch):
    """The Sylow subgroup of 49.196.9.1 is elementary abelian, so every order
    of its generators is a normal chain, along which the power and
    conjugation relations decide each lift: no closure is built for a lift
    that is then rejected, whatever the presentation."""
    group = image49 if conj is None else image49.conjugated_by(conj)
    ell, n, m = group.mod.ell, group.mod.exponent, group.mod.modulus
    sylow = _sylow_subgroup(group)
    rejected = []

    def counting_extend(closed, g, mul, cap=DEFAULT_CAP):
        try:
            return extend(closed, g, mul, cap)
        except EnumerationCapError:
            rejected.append(cap)
            raise

    monkeypatch.setattr(lattice, "extend", counting_extend)
    searched = 0
    for U, v_basis in _rigidity_subspaces(group):
        quot = _KernelQuotient(ell, n, U)
        for gens in permutations(sylow):
            _complement_over_group(quot, list(gens), m, v_basis, ell, DEFAULT_CAP, 10 ** 6)
            searched += 1
    assert searched and rejected == []


def _ell_hom_trivial_by_reclosing(group):
    """The normal-closure loop _ell_hom_trivial used to run: add every
    conjugate outside the closure, then close the whole list again."""
    ell, m = group.mod.ell, group.mod.modulus
    gens = group.gens
    current = [mpow(g, ell, m) for g in gens]
    current += [mmul(mmul(a, b, m), mmul(minv(a, m, ell), minv(b, m, ell), m), m)
                for a in gens for b in gens]
    closure = mulclose(current, m)
    while True:
        new = []
        for g in gens:
            gi = minv(g, m, ell)
            conjugates = (mmul(mmul(g, s, m), gi, m) for s in current)
            new += [c for c in conjugates if c not in closure]
        if not new:
            return len(closure) == group.order()
        current += new
        closure = mulclose(current, m)


def test_ell_hom_trivial_against_reclosing():
    groups = [full_gl2(PrimePowerModulus(2, e)) for e in (1, 2)] + [full_gl2(M3)]
    groups += [build_cartan(CartanSpec(kind, mod))
               for kind in ("borel", "split", "split-normalizer", "nonsplit-normalizer")
               for mod in (M3, PrimePowerModulus(5, 1), M7, PrimePowerModulus(3, 2))]
    # generating sets of GL2(F_3) and GL2(F_5) whose powers and commutators
    # need one and two rounds of conjugation to become normal
    groups += [MatrixGroup(M3, [(1, 2, 0, 1), (2, 0, 2, 1)]),
               MatrixGroup(PrimePowerModulus(5, 1), [(1, 1, 1, 0), (2, 3, 1, 3)])]
    answers = [_ell_hom_trivial(g) for g in groups]
    assert answers == [_ell_hom_trivial_by_reclosing(g) for g in groups]
    assert True in answers and False in answers
