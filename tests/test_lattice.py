import functools
import random
import re
import subprocess
import sys
from itertools import combinations, permutations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from ellimage import lattice as lattice_module
from ellimage.cli import main
from ellimage.errors import CertificateError, EnumerationCapError, SearchBudgetError
from ellimage.gl2 import (CartanSpec, DEFAULT_CAP, MatrixGroup, build_cartan, extend, full_gl2,
                          is_conjugate, orbit)
from ellimage.labelio import read_generators_text
from ellimage.lattice import (KernelModule, M2_BASIS, SubgroupClass, all_subgroups,
                              preimage_rigidity, proper_detsurjective_subgroups,
                              split_cartan_membership, verify_counterexample,
                              _conjugacy_classes_of_subgroups,
                              _ell_hom_trivial, _is_stable, _layer_step, _letters,
                              _rigidity_subspaces, _relator_digit,
                              _stable_subspace_classes, _gaschutz_complement,
                              _split_solution,
                              _sylow_relator_digits, _sylow_relators, _sylow_subgroup)
from ellimage.modarith import (IDENTITY, Echelon, PrimePowerModulus, digit, kernel_element,
                               lincomb, minv, mmul, mpow, mreduce)
from ellimage.modcurves import genus_XG

from conftest import count_chains, det_surjective, elements, mulclose, transversal

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
    els = elements(group)
    m = group.mod.modulus
    seen = {frozenset([IDENTITY])}
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
    parent = frozenset(elements(g3))
    direct = [s for s in oracle
              if s != parent and 48 // len(s) <= 8 and 48 % len(s) == 0
              and det_surjective(s, M3)]
    # count conjugacy classes of the direct list
    total = sum(c.class_size for c in classes)
    assert total == len(direct)
    for c in classes:
        assert frozenset(elements(c.representative)) in oracle


def test_unique_index49_class(image49, printed_index49):
    classes = proper_detsurjective_subgroups(image49, 49)
    assert len(classes) == 1
    cls = classes[0]
    assert cls.index_in_parent == 49
    assert cls.det_surjective
    rep = cls.representative
    assert rep.order() == 504
    # representative really is a subgroup of the parent
    assert set(elements(rep)) <= set(elements(image49))
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


def _structured_group(name, record_map):
    if name in record_map:
        return record_map[name].group()
    if name in STRUCTURED_EXTRA:
        return STRUCTURED_EXTRA[name]()
    kind, m = name[:-1].split("(")
    ell = round(int(m) ** 0.5)
    return build_cartan(CartanSpec(kind, PrimePowerModulus(ell, 2)))


def _with_conjugate(name, group):
    "The group and its conjugate by a matrix drawn from random.Random(name)."
    ell, m = group.mod.ell, group.mod.modulus
    rng = random.Random(name)
    while True:
        c = tuple(rng.randrange(m) for _ in range(4))
        if (c[0] * c[3] - c[1] * c[2]) % ell:
            return [group, group.conjugated_by(c)]


@pytest.mark.parametrize("name", STRUCTURED)
def test_class_size_against_orbit(name, record_map):
    """The class sizes of the structured path, from the kernel action, equal
    the orbit of the representative under the parent's generators, on each
    group and a seeded conjugate.  Where the parent has order <= 144 the
    brute-force lattice lists the same (index, class size) pairs."""
    for g in _with_conjugate(name, _structured_group(name, record_map)):
        ell = g.mod.ell
        classes = _stable_subspace_classes(g, ell ** 4)
        assert classes
        for cls in classes:
            rep_set = frozenset(elements(cls.representative))
            (_, size), = _conjugacy_classes_of_subgroups([rep_set], g)
            assert cls.class_size == size, cls
        if g.order() <= 144:
            # the unconstrained brute-force classes that keep G(ell)
            brute = [k for k in proper_detsurjective_subgroups(g, ell ** 4, False)
                     if k.representative.reduce_to(1) == g.reduce_to(1)]
            assert (sorted((k.index_in_parent, k.class_size) for k in brute)
                    == sorted((k.index_in_parent, k.class_size) for k in classes))


def test_structured_path_needs_prime_to_ell_reduction(record_map):
    # G(ell) has order divisible by ell here and |G| > 1000, so neither the
    # structured path nor the brute-force lattice classifies these; the
    # exponent is named first
    borel = lambda ell, n: build_cartan(CartanSpec("borel", PrimePowerModulus(ell, n)))
    for group, message in ((record_map["25.30.0.1"].group(), "needs |G(ell)| prime to ell"),
                           (borel(11, 2), "needs |G(ell)| prime to ell"),
                           (borel(3, 3), "supports exponent-2 moduli only")):
        assert group.order() > 1000
        with pytest.raises(SearchBudgetError, match="^structured search %s$" % re.escape(message)):
            proper_detsurjective_subgroups(group, 81)


OPTIMIZED_REPRESENTATIVE_CHECK = """
import sys
from ellimage import lattice
from ellimage.cli import _bundled_records
from ellimage.errors import CertificateError
from ellimage.modarith import mmul
assert False, "run this under python -O"
averaged = lattice._averaged_section


def moved_section(reps, layer, m, ell, at, section):
    # conjugating the complement by I + ell*E11 moves it out of the parent
    c, ci = (1 + ell, 0, 0, 1), (1 - ell, 0, 0, 1)
    return [mmul(mmul(c, t, m), ci, m) for t in averaged(reps, layer, m, ell, at, section)]


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
    assert r.stderr == "subgroup over W = [(1, 0, 0, 1)] does not lie in the parent over G(7)\n"


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


def test_letters_need_an_element_of_the_first_kernel():
    # I + 7*E21 is in K_1 but not in the Borel group, so the layer rows
    # leave a residue
    borel = build_cartan(CartanSpec("borel", PrimePowerModulus(7, 2)))
    with pytest.raises(CertificateError, match="^\\(1, 0, 7, 1\\) does not sift through the "
                                               "layer rows$"):
        _letters(borel.filtration(), {}, (1, 0, 7, 1))


def test_rigidity_verifies_its_counterexample(record_map, monkeypatch, capsys):
    # 37.114.4.1 is not rigid; a witness that fails verification stops the
    # certificate, on the command line with exit 3
    monkeypatch.setattr(lattice_module, "verify_counterexample", lambda group, candidate: False)
    with pytest.raises(CertificateError, match="^counterexample over U = .* failed verification$"):
        preimage_rigidity(record_map["37.114.4.1"].group())
    assert main(["lattice-check", "--label", "37.114.4.1"]) == 3
    last = capsys.readouterr().out.splitlines()[-1]
    assert re.match("^RESULT\tFAILED\tcounterexample over U = .* failed verification$", last)


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
    assert set(elements(h.reduce_to(1))) == set(elements(g))
    assert h.det_image()[1]
    assert h.order() < g.order() * 7 ** 4


def test_brute_limit_is_hard_error(image49):
    with pytest.raises(SearchBudgetError,
                       match="^brute-force lattice limited to order <= 1000, got 24696$"):
        proper_detsurjective_subgroups(image49, 49, fix_mod_ell_reduction=False)


def test_stable_subspace_walk_checks_its_subspaces(image49, monkeypatch):
    # the kernel module of 49.196.9.1 has eight stable subspaces, and the
    # line of E12 is not one of them
    module = KernelModule(7, tuple(mreduce(t, 7) for t in image49.gens))
    assert len(module.stable_subspaces(cap=8)) == 8
    with pytest.raises(EnumerationCapError, match="^stable subspaces exceeded cap 7$"):
        module.stable_subspaces(cap=7)
    with pytest.raises(CertificateError, match=r"^floor \[\(0, 1, 0, 0\)\] is not stable$"):
        module.stable_subspaces(floor=[(0, 1, 0, 0)])
    covers = KernelModule._covers
    monkeypatch.setattr(KernelModule, "_covers",
                        lambda self, W, *args: set(covers(self, W, *args)) | {((0, 1, 0, 0),)})
    with pytest.raises(CertificateError,
                       match=r"^walked subspace \[\(0, 1, 0, 0\)\] is not stable$"):
        module.stable_subspaces()


def _last_line(argv, capsys):
    "The exit code of the command line and the last line it printed."
    code = main(argv)
    return code, capsys.readouterr().out.splitlines()[-1]


def test_split_system_neither_solved_nor_refuted(image49, monkeypatch, capsys):
    # with no null vector at all the split system of the first subspace
    # within the index bound, the scalar line of index 49, has neither a
    # solution nor a no-complement certificate
    monkeypatch.setattr(lattice_module, "nullspace", lambda *args: [])
    message = "split system over U = [(1, 0, 0, 1)] is neither solved nor refuted"
    with pytest.raises(CertificateError, match="^%s$" % re.escape(message)):
        proper_detsurjective_subgroups(image49, 49)
    assert _last_line(["lattice-check", "--label", "49.196.9.1"], capsys) == (
        3, "RESULT\tFAILED\t" + message)


@pytest.mark.parametrize("label, modulus, checked", [("5.96.0.1", 25, 19), ("7.288.0.1", 49, 25),
                                                     ("25.12000.12.1", 125, 13)])
def test_rigidity_without_surjective_determinant_is_vacuous(label, modulus, checked, tmp_path,
                                                            capsys):
    # det G = 1, so no subgroup over G is det-surjective and the claim holds
    # without a witness, though complements over traced subspaces exist;
    # the scan still counts every subspace it examines
    gens_file = tmp_path / "unipotent.txt"
    gens_file.write_text("5.96.0.1|5|1,1,0,1\n7.288.0.1|7|1,1,0,1\n25.12000.12.1|25|1,1,0,1\n")
    assert main(["lattice-check", "--gens-file", str(gens_file), "--label", label]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["CLAIM\tpreimage-rigidity\tmodulus=%d\trigid=true\tchecked=%d"
                          % (modulus, checked), "RESULT\tcertified"]


def test_rigidity_that_cannot_decide_raises(record_map, monkeypatch, capsys):
    # 37.114.4.1 is not rigid; when G is det-surjective, no candidate mod
    # 37^2 has surjective determinant and G maps onto F_37, no subspace
    # decides
    det_image = MatrixGroup.det_image
    monkeypatch.setattr(MatrixGroup, "det_image", lambda self: (
        det_image(self)[0], det_image(self)[1] and self.mod.modulus != 37 * 37))
    monkeypatch.setattr(lattice_module, "_ell_hom_trivial", lambda group: False)
    pattern = "^undecided: split subspaces with variable determinant image: \\[\\[.*\\]\\]$"
    with pytest.raises(SearchBudgetError, match=pattern):
        preimage_rigidity(record_map["37.114.4.1"].group())
    code, last = _last_line(["lattice-check", "--label", "37.114.4.1"], capsys)
    assert code == 3 and re.match(pattern.replace("^", "^RESULT\tFAILED\t"), last)


# ---------------------------------------------------------------------------
# The generator-lift DFS that built the rigidity witnesses before the
# Gaschutz average, kept as the oracle for whether a complement exists

class _KernelQuotient:
    "Normal forms canon(x) of the cosets x * N_U, N_U = I + ell^n * U."

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


class _Quotient(_KernelQuotient):
    "Arithmetic in P/N_U for P <= GL2(Z/ell^(n+1)), N_U = I + ell^n * U."

    def mul(self, a, b):
        return self.canon(mmul(a, b, self.m))

    def kernel(self, coeffs, basis):
        "The class of I + layer * (the F_ell-combination of `basis`)."
        k = lincomb(coeffs, basis, self.ell)
        return self.canon(kernel_element(k, self.layer, self.m))


def _complement_basis(U, ell):
    """The basis of a complement V of U in M2(F_ell) that the lift DFS adjusts
    along: the rows of the normal forms of M2_BASIS modulo U."""
    span_u = Echelon(ell, U)
    return Echelon(ell, [span_u.reduce(v) for v in M2_BASIS]).rows


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
    generator_lists = [_sylow_subgroup(group, n), group.filtration().generators()]
    compared = 0
    for U in _rigidity_subspaces(group):
        quot, v_basis = _Quotient(ell, n, U), _complement_basis(U, ell)
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
    sylow = _sylow_subgroup(group, n)
    rejected = []
    original = extend

    def counting_extend(closed, g, mul, cap=DEFAULT_CAP):
        try:
            return original(closed, g, mul, cap)
        except EnumerationCapError:
            rejected.append(cap)
            raise

    monkeypatch.setattr(sys.modules[__name__], "extend", counting_extend)
    searched = 0
    for U in _rigidity_subspaces(group):
        quot, v_basis = _Quotient(ell, n, U), _complement_basis(U, ell)
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


@pytest.mark.parametrize("walk, message", [
    (lambda: genus_XG(MatrixGroup(M7, [], cap=30)), "cosets of +-G mod 7 exceeded cap 30"),
    (lambda: is_conjugate(build_cartan(CartanSpec("split", M7), 10),
                          build_cartan(CartanSpec("split", M7), 10).conjugated_by((1, 1, 0, 1))),
     "cosets of +-B mod 7 exceeded cap 10"),
    (lambda: _stable_subspace_classes(build_cartan(CartanSpec("split", M49), 10), 100),
     "Sylow cosets in G(7) exceeded cap 10"),
    (lambda: all_subgroups(build_cartan(CartanSpec("borel", PrimePowerModulus(2, 3)), 200)),
     "subgroup joins exceeded cap 200"),
    # Borel mod 8 has 128 elements
    (lambda: all_subgroups(build_cartan(CartanSpec("borel", PrimePowerModulus(2, 3)), 100)),
     "elements of G mod 8 exceeded cap 100"),
])
def test_cap_errors_name_the_walk(walk, message):
    # each orbit walk that can pass the cap says which one stopped
    with pytest.raises(EnumerationCapError) as stopped:
        walk()
    assert str(stopped.value) == message


def test_growing_loops_build_one_chain(monkeypatch, capsys):
    # generators() and _ell_hom_trivial each grow one chain by adjoining
    # what they keep, where they used to build a chain per kept element:
    # 6 for the generators of Borel(7), 3 for the normal closure of the
    # GL2(F_5) generating set below, which needs two rounds of conjugation.
    # The brute-force lattice of 8.12.0.1 made 1,332 chains in all, then 795
    # with three per subgroup class (the greedy chain of the class, the
    # chain of the group it generates and the one its generators() grew);
    # the greedy chain now names the canonical generators itself, two per
    # class for its 263 classes.  The chains of the determinant groups D are
    # counted apart: lattice-check asks det_image of one group, the
    # rigidity candidate mod 16
    built, dets = count_chains(monkeypatch)
    filt = build_cartan(CartanSpec("borel", M7)).filtration()
    group = MatrixGroup(M5, [(1, 1, 1, 0), (2, 3, 1, 3)])
    group.filtration()
    del built[:]
    filt.generators()
    assert len(built) == 1
    del built[:]
    assert _ell_hom_trivial(group)
    assert len(built) == 1
    assert dets == []
    del built[:]
    assert main(["lattice-check", "--label", "8.12.0.1"]) == 0
    assert capsys.readouterr().out.endswith("RESULT\tcertified\n")
    assert len(built) <= 532
    assert dets == [PrimePowerModulus(2, 4)]


# ---------------------------------------------------------------------------
# The element scans that the filtration replaced, kept as oracles.  Each is
# compared on the bundled and special records it applies to, on STRUCTURED
# and on a seeded conjugate of each group.

def _oracle_groups(record_map, special_records, applies):
    "(name, group) for each record, STRUCTURED name and conjugate where applies(group)."
    named = [(r.rszb_label, r.group()) for r in list(record_map.values()) + special_records]
    named += [(name, _structured_group(name, record_map)) for name in STRUCTURED]
    seen = set()
    for name, group in named:
        if name not in seen and applies(group):
            seen.add(name)
            for g in _with_conjugate(name, group):
                yield name, g


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


def _averaged_section_by_pairs(reps, layer, m, ell):
    """The averaged section at every element of Q, checked on all |Q|^2
    products: _averaged_section as it was before it was evaluated at the
    generators only."""
    inv_n = pow(len(reps), -1, ell)
    section = {}
    for x, tx in reps.items():
        acc = (0, 0, 0, 0)
        for ty in reps.values():
            prod = mmul(tx, ty, m)
            c = mmul(prod, minv(reps[mreduce(prod, layer)], m, ell), m)
            acc = tuple(a + b for a, b in zip(acc, digit(c, layer, ell)))
        eta = tuple((-inv_n * a) % ell for a in acc)
        section[x] = mmul(kernel_element(eta, layer, m), tx, m)
    for x in reps:
        for y in reps:
            assert mmul(section[x], section[y], m) == section[mmul(x, y, layer)]
    return section


def _stable_subspace_classes_by_elements(group, index_bound):
    """The structured path as it reads the element list: U from the sorted
    kernel elements, over each element c of G(ell) the one element x of G
    whose digit D has D*c^-1 in normal form modulo U, and every subspace of
    U tested for stability.  Returns (U, lifts, classes)."""
    mod = group.mod
    ell, m = mod.ell, mod.modulus
    els = elements(group)
    kernel_part = [x for x in els if mreduce(x, ell) == (1, 0, 0, 1)]
    u_basis = Echelon(ell, [digit(x, ell, ell) for x in kernel_part
                            if x != IDENTITY]).rows
    bar_order = len(els) // len(kernel_part)
    gens_bar = tuple(mreduce(g, ell) for g in group.gens)
    module = KernelModule(ell, gens_bar)
    span_u, reps = Echelon(ell, u_basis), {}
    for x in els:
        c = mreduce(x, ell)
        d = mmul(digit(x, ell, ell), minv(c, ell, ell), ell)
        if span_u.reduce(d) == d:
            assert c not in reps
            reps[c] = x
    section = _averaged_section_by_pairs(reps, ell, m, ell)
    out = []
    for W in _subspaces_of(u_basis, ell):
        if len(W) == len(u_basis) or ell ** (len(u_basis) - len(W)) > index_bound:
            continue
        if not _is_stable(W, module._action_matrices(), ell):
            continue
        rep = MatrixGroup(mod, [section[mreduce(g, ell)] for g in group.filtration().generators()]
                          + [kernel_element(w, ell, m) for w in W])
        expected = bar_order * ell ** len(W)
        assert rep.order() == expected and all(g in group for g in rep.gens)
        if rep.det_image()[1]:
            out.append(SubgroupClass(rep, len(els) // expected, True,
                                     module.class_size(u_basis, W)))
    return u_basis, reps, sorted(out, key=lambda c: (c.index_in_parent, c.representative.gens))


def _structured_applies(group):
    return group.mod.exponent == 2 and group.filtration().sizes()[0] % group.ell != 0


def test_structured_path_against_element_scan(record_map, special_records):
    """The kernel part U is the RREF of L_1, the element of G over each
    element of G(ell) with its digit in normal form is the canonical lift,
    the stable subspaces of U are those _subspaces_of lists (each in RREF)
    that are stable, and the classes are the same, representative
    generators included."""
    compared = set()
    for name, group in _oracle_groups(record_map, special_records, _structured_applies):
        ell = group.ell
        filt = group.filtration()
        u_basis, reps, classes = _stable_subspace_classes_by_elements(group, ell ** 4)
        assert u_basis == filt.layers[0][0].rref(), name
        assert reps == {c: filt.canonical_lift(c) for c in reps}, name
        subspaces = _subspaces_of(u_basis, ell)
        assert all(W == Echelon(ell, W).rref() for W in subspaces), name
        module = KernelModule(ell, tuple(mreduce(g, ell) for g in group.gens))
        assert (sorted(W for W in subspaces if _is_stable(W, module._action_matrices(), ell))
                == sorted(module.stable_subspaces(span=u_basis))), name
        new = _stable_subspace_classes(group, ell ** 4)
        assert ([(c.index_in_parent, c.class_size, c.det_surjective, c.representative.gens)
                 for c in new]
                == [(c.index_in_parent, c.class_size, c.det_surjective,
                     c.representative.gens) for c in classes]), name
        compared.add(name)
    assert set(STRUCTURED) | {"49.9604.694.1"} <= compared


@functools.lru_cache(maxsize=None)
def _stable_subspaces_all_lines(module, span=M2_BASIS):
    """The stable subspaces by their definition, the oracle of the lattice
    walk: the join closure of the spins of every line of the span (a tuple).
    Cached, since several tests read it on the same modules."""
    ell, dim = module.ell, len(span)
    spins = set()
    for pivot in range(dim):
        for rest in product(range(ell), repeat=dim - pivot - 1):
            v = (0,) * pivot + (1,) + rest
            spins.add(tuple(module.spin([lincomb(v, span, ell)])))
    lattice = orbit((), spins, lambda a, b: tuple(Echelon(ell, a + b).rref()))
    return [list(s) for s in sorted(lattice, key=lambda s: (len(s), s))]


def _inside(W, span, ell):
    "Whether the rows of W lie in the span of the rows of span."
    span = Echelon(ell, span)
    return all(w in span for w in W)


def test_stable_subspaces_against_all_lines(record_map, special_records):
    """The walked lists equal the all-lines lists, in M2 and in the kernel
    part U, on every bundled and special record and a seeded conjugate, the
    conjugate left out at ell = 37, where the oracle spins 52,060 lines
    (test_power_constraint_against_element_scan compares them over the
    power-constraint floor)."""
    compared = set()
    for name, group in _oracle_groups(record_map, special_records, lambda g: True):
        ell = group.ell
        if ell > 17 and name in compared:
            continue
        module = KernelModule(ell, tuple(mreduce(g, ell) for g in group.gens))
        every = _stable_subspaces_all_lines(module)
        assert module.stable_subspaces() == every, name
        if group.mod.exponent >= 2:
            u_basis = group.filtration().layers[0][0].rref()
            assert (module.stable_subspaces(span=u_basis)
                    == [W for W in every if _inside(W, u_basis, ell)]), name
        compared.add(name)
    assert {r.rszb_label for r in list(record_map.values()) + special_records} <= compared
    assert len(compared) >= 43


@pytest.mark.parametrize("m", (5, 7, 9, 11, 13, 25, 27, 49))
def test_stable_subspaces_of_cartans_against_all_lines(m):
    """The walked lists equal the all-lines lists for the five --cartan
    kinds: in M2, in the kernel part U, and above the power-constraint
    floor that _rigidity_subspaces starts from."""
    for kind in ("borel", "split", "split-normalizer", "nonsplit", "nonsplit-normalizer"):
        group = build_cartan(CartanSpec(kind, PrimePowerModulus.from_int(m)))
        ell = group.ell
        module = KernelModule(ell, tuple(mreduce(g, ell) for g in group.gens))
        every = _stable_subspaces_all_lines(module)
        assert module.stable_subspaces() == every, kind
        floor = []
        if group.mod.exponent >= 2:
            u_basis = group.filtration().layers[0][0].rref()
            assert (module.stable_subspaces(span=u_basis)
                    == [W for W in every if _inside(W, u_basis, ell)]), kind
            floor = Echelon(ell, group.filtration().layers[-1][0].rows).rref()
        assert (_rigidity_subspaces(group)
                == sorted((U for U in every if len(U) < 4 and _inside(floor, U, ell)),
                          key=len, reverse=True)), kind


@st.composite
def _drawn_modules(draw):
    """A KernelModule of up to three generators mod 2, 3, 5 or 7, each
    invertible or scalar.  A scalar G(ell) makes every subspace stable; its
    lattice, large by nature, is drawn at ell <= 3, where the all-lines
    oracle's join closure stays small."""
    ell = draw(st.sampled_from([2, 3, 5, 7]))
    scalar = st.integers(1, ell - 1).map(lambda x: (x, 0, 0, x))
    matrix = st.tuples(*[st.integers(0, ell - 1)] * 4).filter(
        lambda g: (g[0] * g[3] - g[1] * g[2]) % ell)
    gens = draw(st.lists(scalar | matrix, max_size=3))
    assume(ell <= 3 or any(g[1] or g[2] or g[0] != g[3] for g in gens))
    return KernelModule(ell, tuple(gens))


@settings(max_examples=60, deadline=None)
@given(_drawn_modules())
def test_stable_subspaces_on_drawn_generators(module):
    assert module.stable_subspaces() == _stable_subspaces_all_lines(module)


def test_stable_subspaces_of_scalar_group_and_cap():
    # every subspace of F_3^4 is stable under a scalar group: 1 + 40 + 130 + 40 + 1
    module = KernelModule(3, ((2, 0, 0, 2),))
    assert len(module.stable_subspaces()) == 212
    with pytest.raises(EnumerationCapError):
        module.stable_subspaces(cap=211)


def _edges(subspaces, ell):
    """The number of covering pairs W < X in a list of subspaces: the
    maximal members of the set below each X."""
    below = {}
    for X in subspaces:
        span = Echelon(ell, X)
        below[tuple(X)] = {tuple(W) for W in subspaces
                           if len(W) < len(X) and all(w in span for w in W)}
    return sum(len(b - set().union(*(below[W] for W in b))) for b in below.values())


def test_stable_subspaces_walk_spins_per_edge(record_map, image49, monkeypatch):
    """The walk neither orbits lines nor spins more than ell + 1 vectors per
    edge of the lattice it returns, and spins only vectors of the span."""
    spun, orbited = [], []
    spin = KernelModule.spin

    def counting_spin(self, *args, **kw):
        spun.append(args)
        return spin(self, *args, **kw)

    monkeypatch.setattr(KernelModule, "spin", counting_spin)
    monkeypatch.setattr(lattice_module, "orbit", lambda *args: orbited.append(args))
    groups = [image49, record_map["37.114.4.1"].group()]
    groups += [build_cartan(CartanSpec(kind, PrimePowerModulus(53, 1)))
               for kind in ("borel", "split", "split-normalizer", "nonsplit",
                            "nonsplit-normalizer")]
    for group in groups:
        ell = group.ell
        module = KernelModule(ell, tuple(mreduce(g, ell) for g in group.gens))
        spans = [M2_BASIS] + ([group.filtration().layers[0][0].rref()]
                              if group.mod.exponent >= 2 else [])
        for span in spans:
            spun.clear()
            subspaces = module.stable_subspaces(span=span)
            assert len(spun) <= (ell + 1) * _edges(subspaces, ell), group.label
            assert all(_inside(vectors, span, ell) for vectors, *_ in spun), group.label
    assert orbited == []


def _sylow_by_climb(group):
    "Generators of an ell-Sylow subgroup of the group, by normalizer climbing."
    els = elements(group)
    mod = group.mod
    ell, m = mod.ell, mod.modulus
    mul = lambda a, b: mmul(a, b, m)
    target, ell_free = 1, len(els)
    while ell_free % ell == 0:
        target *= ell
        ell_free //= ell
    sgens = []
    sset = {IDENTITY}
    while len(sset) < target:
        for y in els:
            yi = minv(y, m, ell)
            if any(mmul(mmul(y, s, m), yi, m) not in sset for s in sgens):
                continue
            # the ell-part of y: y^(ell-free part of |G|) has ell-power order
            z = mpow(y, ell_free, m)
            if z in sset:
                continue
            # z normalizes S, so <S, z> = S<z> is again an ell-group
            sgens.append(z)
            sset = extend(sset, z, mul)
            break
        else:
            raise AssertionError("Sylow climb stalled")
    return sgens


def test_sylow_subgroup_against_climb(record_map, special_records):
    """The layer rows and the unipotent lift generate a subgroup of G whose
    order is the ell-part of |G|, as the climb's generators do; and, by
    Gaschutz, the complement search over either Sylow subgroup gives the
    same verdict on every subspace preimage_rigidity examines."""
    searched = 0
    for name, group in _oracle_groups(record_map, special_records,
                                      lambda g: g.order() % g.ell == 0):
        ell, n, m = group.mod.ell, group.mod.exponent, group.mod.modulus
        ell_part = 1
        while group.order() % (ell_part * ell) == 0:
            ell_part *= ell
        sylow = _sylow_subgroup(group, n)
        assert all(g in group for g in sylow), name
        assert MatrixGroup(group.mod, sylow).order() == ell_part, name
        climb = _sylow_by_climb(group)
        assert len(mulclose(climb, m)) == ell_part, name
        if group.order() > 1000 or ell > 7:
            continue  # a closure per lift, and up to ell^4 lifts per generator
        for U in _rigidity_subspaces(group):
            quot, v_basis = _Quotient(ell, n, U), _complement_basis(U, ell)
            verdicts = {_complement_over_group(quot, gens, m, v_basis, ell, DEFAULT_CAP,
                                               10 ** 6) is None for gens in (sylow, climb)}
            assert len(verdicts) == 1, (name, U)
            searched += 1
    assert searched


def _rigidity_subspaces_by_elements(group):
    """_rigidity_subspaces with the power constraint read from the element
    list: the top-layer digit of every element of G cap K_{n-1}."""
    mod = group.mod
    ell, n = mod.ell, mod.exponent
    gens_bar = tuple(mreduce(g, ell) for g in group.gens)
    pi_vecs = []
    layer_low = ell ** (n - 1)
    for x in elements(group) if n >= 2 else ():
        if x != IDENTITY and mreduce(x, layer_low) == IDENTITY:
            a = tuple((((x[i] - IDENTITY[i]) % mod.modulus) // layer_low) % ell
                      for i in range(4))
            if ell == 2 and n == 2:
                sq = mmul(a, a, 2)
                a = tuple((a[i] + sq[i]) % 2 for i in range(4))
            pi_vecs.append(a)
    pi_basis = Echelon(ell, pi_vecs).rows
    out = []
    for U in sorted(_stable_subspaces_all_lines(KernelModule(ell, gens_bar)), key=len,
                    reverse=True):
        span_u = Echelon(ell, U)
        if len(U) < 4 and all(v in span_u for v in pi_basis):
            out.append(U)
    return out


def test_power_constraint_against_element_scan(record_map, special_records):
    # at exponent 1 there is no constraint, and both lists are every proper
    # stable subspace; the all-lines oracle is kept to ell <= 7 there
    compared = set()
    for name, group in _oracle_groups(record_map, special_records,
                                      lambda g: g.mod.exponent >= 2 or g.ell <= 7):
        assert _rigidity_subspaces(group) == _rigidity_subspaces_by_elements(group), name
        compared.add(name)
    assert {"4.12.0.1", "8.12.0.1", "16.24.0.1", "49.196.9.1", "2.2.0.1",
            "7.8.0.1"} <= compared


# ---------------------------------------------------------------------------
# The Sylow split test as one linear system, against the lift DFS it replaced

@functools.lru_cache(maxsize=None)
def _sylow_dfs_verdicts(mod, gens):
    """(U, v_basis, whether the lift DFS finds a complement over the Sylow
    sequence modulo N_U) for each subspace preimage_rigidity examines on
    <gens>, where the DFS tries at most 20,000/ell lifts per generator (each
    lift costs about ell products).  Cached, since the linear split test and
    the averaged complement are checked against the same searches."""
    group = MatrixGroup(mod, gens)
    ell, n, m = mod.ell, mod.exponent, mod.modulus
    sylow = _sylow_subgroup(group, n)
    bases = [(U, _complement_basis(U, ell)) for U in _rigidity_subspaces(group)]
    return [(U, v_basis, _complement_over_group(_Quotient(ell, n, U), sylow, m, v_basis, ell,
                                                DEFAULT_CAP, 10 ** 6) is not None)
            for U, v_basis in bases if ell ** (len(v_basis) + 1) <= 20000]


def _split_verdicts(group):
    "(linear verdict, DFS verdict) on the Sylow sequence for each subspace."
    n = group.mod.exponent
    digits = _sylow_relator_digits(group, n, _sylow_subgroup(group, n))
    return [(_split_solution(digits, U, group.ell) is not None, dfs)
            for U, _, dfs in _sylow_dfs_verdicts(group.mod, group.gens)]


def _relator_digits_in_full(group):
    """Every relator evaluated at each of the 4k + 1 lift choices, the
    reference for _sylow_relator_digits, which evaluates again only the
    relators a changed lift appears in."""
    ell, n, layer = group.mod.ell, group.mod.exponent, group.mod.modulus
    gens = _sylow_subgroup(group, n)
    words = _sylow_relators(group, n, gens)
    choices = [gens] + [gens[:i] + [mmul(g, kernel_element(b, layer, layer * ell),
                                         layer * ell)] + gens[i + 1:]
                        for i, g in enumerate(gens) for b in M2_BASIS]
    return [[_relator_digit(word, lifts, layer, ell) for word in words] for lifts in choices]


def test_relator_digits_against_full_evaluation(record_map):
    for group in (record_map["49.196.9.1"].group(), record_map["16.24.0.1"].group(),
                  build_cartan(CartanSpec("borel", M25))):
        sylow = _sylow_subgroup(group, group.mod.exponent)
        digits = _sylow_relator_digits(group, group.mod.exponent, sylow)
        assert len(digits) == 4 * len(sylow) + 1
        assert digits == _relator_digits_in_full(group)


def test_linear_split_test_against_sylow_dfs(record_map, special_records):
    verdicts, compared = set(), set()
    for name, group in _oracle_groups(record_map, special_records,
                                      lambda g: g.order() % g.ell == 0):
        for linear, dfs in _split_verdicts(group):
            assert linear == dfs, name
            verdicts.add(linear)
        compared.add(name)
    assert verdicts == {True, False}
    assert {"4.12.0.1", "8.12.0.1", "16.24.0.1", "9.12.0.1", "25.30.0.1", "49.196.9.1",
            "7.8.0.1", "37.114.4.1"} <= compared


def _kernel_element(ell, e, a):
    "I + ell^e * a mod ell^(e+1); a != 0 mod ell."
    return tuple((i + ell ** e * x) for i, x in zip((1, 0, 0, 1), a))


@st.composite
def _groups_with_kernel_elements(draw):
    """A group mod 4, 8, 9, 27, 25 or 49 generated by an upper triangular
    matrix (with a unipotent part mod ell when its corner is a unit), maybe
    the swap [0 1; 1 0], and one or two congruence-kernel elements."""
    ell, n = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2)]))
    m = ell ** n
    unit = st.integers(1, m - 1).filter(lambda x: x % ell)
    gens = [(draw(unit), draw(st.integers(0, m - 1)), 0, draw(unit))]
    if draw(st.booleans()):
        gens.append((0, 1, 1, 0))
    for _ in range(draw(st.integers(1, 2))):
        e = draw(st.integers(1, n - 1))
        a = draw(st.tuples(*[st.integers(0, ell - 1)] * 4).filter(any))
        gens.append(_kernel_element(ell, e, a))
    return MatrixGroup(PrimePowerModulus(ell, n), gens)


@settings(max_examples=30, deadline=None)
@given(_groups_with_kernel_elements())
def test_linear_split_test_on_drawn_groups(group):
    sylow = _sylow_subgroup(group, group.mod.exponent)
    assume(group.ell ** len(sylow) <= 7 ** 4)  # the DFS closes each lift choice
    for linear, dfs in _split_verdicts(group):
        assert linear == dfs


def test_averaged_complement_against_dfs(rigidity_inputs):
    """On every subspace preimage_rigidity examines, within the bound of
    _sylow_dfs_verdicts, the lift DFS finds a complement exactly when the
    linear system is solvable: over the Sylow sequence, and over the
    generators of G for |G| <= 100 (a closure per lift).  Every solution averages to a
    complement over G, of order |G| * ell^dim U, that passes
    verify_counterexample when it is det-surjective."""
    verdicts, witnesses = set(), 0
    for name, group in rigidity_inputs:
        mod = group.mod
        ell, n, m = mod.ell, mod.exponent, mod.modulus
        scanned = _sylow_dfs_verdicts(mod, group.gens)
        steps = _layer_step(group, n, [U for U, _, _ in scanned])
        for (U, v_basis, dfs), (_, candidate) in zip(scanned, steps):
            assert dfs == (candidate is not None), (name, U)
            if group.order() <= 100:
                dfs = _complement_over_group(_Quotient(ell, n, U), list(group.gens), m,
                                             v_basis, ell, DEFAULT_CAP, 10 ** 6)
                assert (dfs is None) == (candidate is None), (name, U, group.gens)
            verdicts.add(candidate is not None)
            if candidate is None:
                continue
            assert candidate.order() == group.order() * ell ** len(U), (name, U)
            if candidate.det_image()[1]:
                assert verify_counterexample(group, candidate), (name, U)
                witnesses += 1
    assert verdicts == {True, False} and witnesses


def test_layer_step_candidates_reduce_onto_the_parent(record_map, special_records):
    """The layer step checks each candidate's order, which certifies a
    complement only for a group that reduces onto G mod ell^e; that is left
    to construction, the averaged values lying over the canonical
    generators.  Every candidate does: at e = 1 over each proper stable
    subspace of the kernel part U, on every bundled or special record the
    structured path takes, and at e = n over the subspaces preimage_rigidity
    examines on every bundled record."""
    reduced = {"structured": set(), "rigidity": set()}
    for record in list(record_map.values()) + special_records:
        group = record.group()
        ell, n = group.ell, group.mod.exponent
        calls = []
        if record in record_map.values():
            calls.append(("rigidity", n, _rigidity_subspaces(group)))
        if _structured_applies(group):
            filt = group.filtration()
            u_basis = filt.layers[0][0].rref()
            module = KernelModule(ell, tuple(mreduce(g, ell) for g in filt.generators()))
            calls.append(("structured", 1, [W for W in module.stable_subspaces(span=u_basis)
                                            if len(W) < len(u_basis)]))
        for caller, e, subspaces in calls:
            target = group.reduce_to(e)
            for W, candidate in _layer_step(group, e, subspaces):
                if candidate is not None:
                    assert candidate.reduce_to(e) == target, (record.rszb_label, caller, W)
                    reduced[caller].add(record.rszb_label)
    assert {"49.196.9.1", "9.54.1.1", "9.27.0.1", "49.9604.694.1"} <= reduced["structured"]
    assert {"4.12.0.1", "8.12.0.1", "16.24.0.1", "25.30.0.1", "9.54.1.1",
            "7.8.0.1"} <= reduced["rigidity"]


OPTIMIZED_SPLIT_CHECK = """
import sys
from ellimage import lattice
from ellimage.cli import _bundled_records
from ellimage.errors import CertificateError
from ellimage.modarith import nullspace
assert False, "run this under python -O"
system = lattice._split_system


def tampered(digits, U, ell):
    # moving the constant off the span of the columns along a coordinate
    # some y with y.columns = 0 reads makes the system inconsistent
    columns, constant = system(digits, U, ell)
    y = nullspace(columns, ell, len(constant))[0]
    i = next(i for i, a in enumerate(y) if a)
    return columns, constant[:i] + [(constant[i] + 1) % ell] + constant[i + 1:]


lattice._split_system = tampered
group = {r.rszb_label: r for r in _bundled_records()}["4.12.0.1"].group()
try:
    lattice.preimage_rigidity(group)
except CertificateError as exc:
    sys.exit(str(exc))
"""


def test_split_certificate_check_survives_optimize():
    # 4.12.0.1 splits over its first subspace; a wrong constant makes the
    # system claim otherwise, and the certificate fails on the relators
    r = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SPLIT_CHECK],
                       capture_output=True, text=True)
    assert r.returncode == 1
    assert r.stderr.startswith("no-complement certificate over U = ")
    assert r.stderr.endswith("does not hold on the relators\n")


OPTIMIZED_COMPLEMENT_CHECK = """
import sys
from ellimage import lattice
from ellimage.cli import _bundled_records
from ellimage.errors import CertificateError
assert False, "run this under python -O"
solve = lattice._split_solution


def perturbed(digits, U, ell):
    # moving a solution along a coordinate whose column is nonzero leaves
    # the solution space: the lifts no longer satisfy every relator
    columns, _ = lattice._split_system(digits, U, ell)
    a = solve(digits, U, ell)
    i = next(i for i, column in enumerate(columns) if any(column))
    return a[:i] + ((a[i] + 1) % ell,) + a[i + 1:]


lattice._split_solution = perturbed
group = {r.rszb_label: r for r in _bundled_records()}["25.30.0.1"].group()
try:
    result = lattice.preimage_rigidity(group)
except CertificateError as exc:
    sys.exit(str(exc))
print(result.counterexample.gens)
"""


def test_complement_order_check_survives_optimize():
    # lifts off the solution space of 25.30.0.1's first subspace average to
    # values that generate too large a group with N_U; the layer step
    # refuses them, and no witness comes out
    r = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_COMPLEMENT_CHECK],
                       capture_output=True, text=True)
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == ("averaged complement over W = [(1, 0, 0, 0), (0, 1, 0, 0), "
                        "(0, 0, 0, 1)] mod 125 does not have order 1250000\n")


OPTIMIZED_SECTION_CHECK = """
import sys
from ellimage import lattice
from ellimage.cli import _bundled_records
from ellimage.errors import CertificateError
assert False, "run this under python -O"
# without the averaging correction the least lifts are not a homomorphism
lattice.kernel_element = lambda Y, q, m: (1, 0, 0, 1)
group = {r.rszb_label: r for r in _bundled_records()}["49.196.9.1"].group()
try:
    lattice.proper_detsurjective_subgroups(group, 49)
except CertificateError as exc:
    sys.exit(str(exc))
"""


def test_section_order_check_survives_optimize():
    # the uncorrected lifts and I in place of the kernel rows generate a
    # group of the wrong order over the plane of index 7; the layer step
    # refuses it on the structured path
    r = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SECTION_CHECK],
                       capture_output=True, text=True)
    assert r.returncode == 1
    assert r.stderr == ("averaged complement over W = [(0, 1, 0, 0), (0, 0, 1, 0)] mod 49 "
                        "does not have order 3528\n")


def test_section_at_generators_against_all_pairs(record_map, special_records):
    """The Gaschutz average at the generators equals the O(|Q|^2) section
    there, for S = 1: over the layer ell on the structured path (Q = G(ell),
    canonical lifts) and over the layer ell^n of preimage_rigidity (Q = G,
    lifted to itself one level up), each at the canonical generators."""
    compared = set()
    for name, group in _oracle_groups(record_map, special_records, _structured_applies):
        ell, m = group.ell, group.mod.modulus
        filt = group.filtration()
        reps = {mreduce(t, ell): filt.canonical_lift(t) for t in transversal(filt)}
        old = _averaged_section_by_pairs(reps, ell, m, ell)
        complement = _gaschutz_complement(group, 1, _sylow_subgroup(group, 1))
        assert complement(()) == [old[mreduce(g, ell)] for g in filt.generators()], name
        compared.add(name)
    for name, group in _oracle_groups(record_map, special_records,
                                      lambda g: g.order() % g.ell and g.order() <= 200):
        m = group.mod.modulus
        reps = {t: t for t in elements(group)}
        old = _averaged_section_by_pairs(reps, m, m * group.ell, group.ell)
        n = group.mod.exponent
        complement = _gaschutz_complement(group, n, _sylow_subgroup(group, n))
        assert complement(()) == [old[x] for x in group.filtration().generators()], name
        compared.add(name)
    assert {"49.196.9.1", "9.54.1.1", "7.21.0.1", "5.10.0.1", "2.2.0.1"} <= compared


# ---------------------------------------------------------------------------
# Parents that left the brute-force lattice for the structured path

# (index, class size, generators) of each class the brute-force lattice
# printed for these parents of order <= BRUTE_LIMIT
BRUTE_FORCE_REPRESENTATIVES = {
    "9.54.1.1": [(3, 3, "0,2,7,0;0,2,2,0")],
    "9.27.0.1": [(3, 3, "1,4,2,1;1,4,7,8")],
    "split(9)": [(3, 1, "1,0,0,2;8,0,0,2"), (3, 1, "2,0,0,1;2,0,0,8"),
                 (3, 1, "2,0,0,2;2,0,0,7")],
    "split(25)": [(5, 1, "1,0,0,2;7,0,0,2"), (5, 1, "2,0,0,1;2,0,0,7"),
                  (5, 1, "2,0,0,2;2,0,0,11"), (5, 1, "2,0,0,3;2,0,0,4"),
                  (5, 1, "2,0,0,6;2,0,0,8")],
    "split-normalizer(9)": [(3, 3, "0,2,7,0;0,2,2,0")],
    "split-normalizer(25)": [(5, 5, "0,2,11,0;0,2,14,0;0,2,2,0")],
    "nonsplit(9)": [(3, 1, "1,1,5,1"), (3, 1, "1,4,2,1"), (3, 1, "1,8,4,1")],
    "nonsplit(25)": [(5, 1, "1,1,13,1"), (5, 1, "1,9,17,1"), (5, 1, "2,3,14,2"),
                     (5, 1, "2,8,4,2"), (5, 1, "2,18,9,2")],
    "nonsplit-normalizer(9)": [(3, 3, "1,4,2,1;1,4,7,8")],
    "section4-semidirect(9)": [(9, 9, "1,1,8,1;1,1,1,8")],
}


@pytest.mark.parametrize("name", sorted(BRUTE_FORCE_REPRESENTATIVES))
def test_structured_classes_match_brute_force_representatives(name, record_map):
    """Same (index, class size) list as the brute-force lattice printed, and
    each new representative is conjugate in the parent, hence in GL2, to
    exactly one old one of its index and class size."""
    group = _structured_group(name, record_map)
    m, ell = group.mod.modulus, group.ell
    new = proper_detsurjective_subgroups(group, 49)
    old = [(index, size, MatrixGroup(group.mod, [tuple(map(int, g.split(",")))
                                                 for g in gens.split(";")]))
           for index, size, gens in BRUTE_FORCE_REPRESENTATIVES[name]]
    assert ([(c.index_in_parent, c.class_size, c.det_surjective) for c in new]
            == [(index, size, True) for index, size, _ in old])
    inv = {g: minv(g, m, ell) for g in group.gens}
    conj = lambda T, g: frozenset(mmul(mmul(g, x, m), inv[g], m) for x in T)
    matched = []
    for cls in new:
        points = orbit(frozenset(elements(cls.representative)), group.gens, conj)
        hits = [i for i, (index, size, rep) in enumerate(old)
                if (index, size) == (cls.index_in_parent, cls.class_size)
                and frozenset(elements(rep)) in points]
        assert len(hits) == 1, cls
        assert is_conjugate(cls.representative, old[hits[0]][2])[0]
        matched += hits
    assert sorted(matched) == list(range(len(old)))
