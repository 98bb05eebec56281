import random
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

import ellimage.orbits as ORBITS
from ellimage import gl2
from ellimage.errors import EnumerationCapError
from ellimage.gl2 import DEFAULT_CAP, CartanSpec, MatrixGroup, build_cartan, full_gl2
from ellimage import isolated
from ellimage.cli import main
from ellimage.isolated import (ANNOTATIONS, FAMILIES, CandidatePair, analyze, candidate_pairs,
                               filter_genus_zero, filter_riemann_roch)
from ellimage.knownj import GAMMA0_ISOLATED_J, GAMMA1_ISOLATED_J
from ellimage.labelio import parse_report_lines
from ellimage.modarith import PrimePowerModulus
from ellimage.modcurves import map_degree_tower
from ellimage.orbits import orbits

from test_orbits import orbit_degree_tower

M7 = PrimePowerModulus(7, 1)
M49 = PrimePowerModulus(7, 2)
M17 = PrimePowerModulus(17, 1)


def final_pairs(report):
    return sorted((p.level, p.degree) for p in report.final)


def all_pairs(pairs):
    return sorted((p.level, p.degree) for p in pairs)


def test_candidate_pairs_full_image():
    assert all_pairs(candidate_pairs(full_gl2(M7), "gamma1")) == [(1, 1)]
    assert all_pairs(candidate_pairs(full_gl2(M7), "gamma0")) == [(1, 1)]


def test_candidate_pairs_cartan_17():
    m289 = PrimePowerModulus(17, 2)
    pre = build_cartan(CartanSpec("nonsplit-normalizer", M17)).full_preimage(m289)
    assert all_pairs(candidate_pairs(pre, "gamma1")) == [(1, 1)]


def test_candidate_pairs_17722(record_map):
    g = record_map["17.72.1.2"].group()
    assert (17, 4) in all_pairs(candidate_pairs(g, "gamma1"))


def test_riemann_roch_examples():
    mk = lambda a, d, ell: CandidatePair(a, d, ell)
    tagged = filter_riemann_roch([mk(0, 1, 7)], "gamma1")
    assert tagged[0].elimination == "riemann_roch"
    tagged = filter_riemann_roch([mk(2, 168, 7)], "gamma1")
    assert tagged[0].elimination == "riemann_roch"  # 168 > 69
    tagged = filter_riemann_roch([mk(2, 8, 7)], "gamma0")
    assert tagged[0].elimination == "riemann_roch"  # 8 > 1
    tagged = filter_riemann_roch([mk(1, 4, 17)], "gamma1")
    assert tagged[0].elimination is None            # 4 <= 5


def test_genus_zero_examples(record_map):
    mk = lambda a, d, ell: CandidatePair(a, d, ell)
    g = record_map["17.72.1.2"].group()
    tagged = filter_genus_zero([mk(0, 1, 17)], g, "gamma1")
    assert tagged[0].elimination == "genus_zero_image"
    tagged = filter_genus_zero([mk(1, 4, 17)], g, "gamma1")
    assert tagged[0].elimination is None            # the mod-17 curve has genus 1
    g7 = record_map["7.112.1.2"].group()
    # pairs at level 7 for this image die in step 2 already (X1(7) has genus 0),
    # and its own modular curve has genus 1, so step 3 keeps them
    rep = analyze(g7, "gamma1")
    assert not rep.final
    assert all(p.elimination == "riemann_roch" for p in rep.pairs)


def test_analyze_known_images(record_map, image49):
    rep = analyze(record_map["17.72.1.2"].group(), "gamma1")
    assert final_pairs(rep) == [(17, 4)]
    assert any(a.level == 17 and a.degree == 4 for a in rep.annotations)
    assert final_pairs(analyze(image49, "gamma1")) == []
    assert final_pairs(analyze(image49, "gamma0")) == []
    rep = analyze(record_map["37.114.4.1"].group(), "gamma1")
    assert (37, 6) in final_pairs(rep)
    rep = analyze(record_map["37.114.4.2"].group(), "gamma1")
    assert (37, 18) in final_pairs(rep)


def test_eliminated_pairs_keep_recheckable_reasons(record_map):
    from ellimage.modcurves import genus_X1, genus_XG
    g = record_map["37.114.4.1"].group()
    rep = analyze(g, "gamma1")
    for p in rep.pairs:
        if p.elimination == "riemann_roch":
            assert p.degree > genus_X1(p.level)
        elif p.elimination == "genus_zero_image":
            assert genus_XG(g.reduce_to(p.level_exp)).genus == 0


def test_gamma0_final_below_gamma1(record_map):
    for label in ("17.72.1.2", "37.114.4.1", "11.120.1.1"):
        g = record_map[label].group()
        f1 = {p.level: p.degree for p in analyze(g, "gamma1").final}
        f0 = {p.level: p.degree for p in analyze(g, "gamma0").final}
        for level, deg0 in f0.items():
            if level in f1:
                assert deg0 <= f1[level]


def test_level_stability_small():
    for kind, mod in (("nonsplit-normalizer", M7), ("borel", M7)):
        g = build_cartan(CartanSpec(kind, mod))
        pre = g.full_preimage(PrimePowerModulus(7, 2))
        for fam in ("gamma1", "gamma0"):
            assert all_pairs(candidate_pairs(g, fam)) == \
                all_pairs(candidate_pairs(pre, fam))


def test_conjugation_invariance(record_map):
    g = record_map["17.72.1.2"].group()
    conj = g.conjugated_by((1, 5, 3, 2))
    for fam in ("gamma1", "gamma0"):
        assert final_pairs(analyze(g, fam)) == final_pairs(analyze(conj, fam))


def test_non_surjective_det_warns():
    sl2ish = MatrixGroup(M7, [(1, 1, 0, 1), (1, 0, 1, 1)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        candidate_pairs(sl2ish, "gamma1")
    assert any("determinant" in str(w.message) for w in caught)


def test_report_round_trip(record_map):
    rep = analyze(record_map["17.72.1.2"].group(), "gamma1")
    parsed = parse_report_lines(rep.to_text())
    key = ("17.72.1.2", "gamma1")
    assert parsed[key]["final"] == [(17, 4)]
    statuses = {(lv, d): (s, r) for lv, d, s, r in parsed[key]["pairs"]}
    assert statuses[(17, 4)] == ("kept", "none")


def test_provenance_recorded(record_map):
    g = record_map["17.72.1.2"].group()
    pairs = candidate_pairs(g, "gamma1")
    by_key = {(p.level, p.degree): p for p in pairs}
    assert len(by_key[(17, 4)].provenance) >= 1
    for src_level, rep in by_key[(17, 4)].provenance:
        assert src_level == 1


def test_bad_family_rejected():
    with pytest.raises(ValueError):
        candidate_pairs(full_gl2(M7), "gamma2")


def _candidate_pairs_by_tower(group, family, cap=DEFAULT_CAP):
    """Step 1 as it was before the per-level orbit tables: each orbit's
    degrees come from orbit_degree_tower, one fresh BFS per level."""
    ell = group.mod.ell
    found = {}
    top = next(k for k in range(1, group.mod.exponent + 1) if ell ** k >= group.level(cap))
    for k in range(1, top + 1):
        for rec in orbits(group, k, family):
            tower = dict(orbit_degree_tower(group, rec))
            if tower[k] != rec.size:
                raise ArithmeticError("orbit of %r has size %d but tower degree %d"
                                      % (rec.representative, rec.size, tower[k]))
            for a in range(0, k + 1):
                if rec.size == tower[a] * map_degree_tower(family, ell, a, k):
                    found[a, tower[a]] = found.get((a, tower[a]), ()) + ((k, rec.representative),)
                    break
    return [CandidatePair(a, d, ell, provenance=found[a, d]) for (a, d) in sorted(found)]


def _random_group(rng, mod):
    gens = []
    m = mod.modulus
    for _ in range(rng.randrange(1, 4)):
        while True:
            t = tuple(rng.randrange(m) for _ in range(4))
            if (t[0] * t[3] - t[1] * t[2]) % mod.ell:
                gens.append(t)
                break
    return MatrixGroup(mod, gens)


def test_candidate_pairs_match_tower_oracle(records, special_records):
    groups = [rec.group() for rec in records + special_records]
    rng = random.Random(8)
    for pe in ((2, 3), (3, 2), (5, 2), (7, 2)):
        groups += [_random_group(rng, PrimePowerModulus(*pe)) for _ in range(6)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # random groups need not have surjective det
        for g in groups:
            for family in ("gamma1", "gamma0"):
                assert candidate_pairs(g, family) == _candidate_pairs_by_tower(g, family), \
                    (g.label, g.mod, g.gens, family)


def test_one_orbit_bfs_per_orbit_and_level(monkeypatch):
    g = build_cartan(CartanSpec("nonsplit-normalizer", PrimePowerModulus(17, 2)))
    assert g.level() == 289
    for family in ("gamma1", "gamma0"):
        n_orbits = sum(len(orbits(g, k, family)) for k in (1, 2))
        seeds = []

        def counting_orbit(seed, *args, _orbit=gl2.orbit, **kwargs):
            seeds.append(seed)
            return _orbit(seed, *args, **kwargs)

        monkeypatch.setattr(ORBITS, "orbit", counting_orbit)
        candidate_pairs(g, family)
        monkeypatch.undo()
        assert len(seeds) == n_orbits == 2


OPTIMIZED_TABLE_CHECK = """
import sys
from ellimage import isolated
from ellimage.gl2 import CartanSpec, build_cartan
from ellimage.modarith import PrimePowerModulus
assert False, "run this under python -O"
real = isolated.orbits
# a level-7 orbit of 25 points cannot be the image of an orbit of 1176
isolated.orbits = lambda g, k, fam, cap: [r._replace(size=25) if k == 1 else r
                                          for r in real(g, k, fam, cap)]
try:
    g = build_cartan(CartanSpec("nonsplit-normalizer", PrimePowerModulus(7, 2)))
    isolated.candidate_pairs(g, "gamma1")
except ArithmeticError as exc:
    sys.exit("raised: %s" % exc)
"""


def test_table_checks_survive_optimize():
    r = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_TABLE_CHECK],
                       capture_output=True, text=True)
    assert r.returncode == 1, r.stderr
    assert r.stderr.startswith("raised: orbit of (0, 1) has size 1176 but degree 25 at level 7")


def test_genus_at_the_full_level_reuses_the_filtration(record_map, monkeypatch):
    built = []

    class CountingFiltration(gl2.Filtration):
        def __init__(self, *args):
            built.append(args[1])
            super().__init__(*args)

    monkeypatch.setattr(gl2, "Filtration", CountingFiltration)
    analyze(record_map["37.114.4.1"].group(), "gamma1")
    assert built == [PrimePowerModulus(37, 1)]


def test_cap_bounds_the_orbit_classes():
    # the nonsplit-Cartan normalizer mod 17^3 has one gamma1 orbit of 41,616
    # classes at level 17^3, past a cap of 10^4
    group = build_cartan(CartanSpec("nonsplit-normalizer", PrimePowerModulus(17, 3)))
    with pytest.raises(EnumerationCapError):
        candidate_pairs(group, "gamma1", 10 ** 4)
    assert candidate_pairs(group, "gamma1")


# ---------------------------------------------------------------------------
# the paper's tables against the filter's surviving pairs

def _cited_reports(text):
    """(survivors, cites) per record of a batch output: the kept (level,
    degree) pairs and the (pair, text) of each `# cite` line."""
    survivors, cites = set(), []
    for line in text.splitlines():
        fields = line.split("\t")
        if line.startswith("# cite "):
            pair, note = line[len("# cite "):].split(" ", 1)
            cites.append((tuple(int(x) for x in pair.split(":")), note))
        elif len(fields) == 6 and fields[4] == "kept":
            survivors.add((int(fields[2]), int(fields[3])))
        elif fields[0] == "RESULT":
            yield survivors, cites
            survivors, cites = set(), []


def _table_problems(outputs, annotations, tables):
    """How the batch outputs (family -> stdout) disagree with the citation
    table and the known-j tables (family -> rows); [] when they agree."""
    problems = []
    for family, text in outputs.items():
        ours = {(lv, d): entry for (fam, lv, d), entry in annotations.items() if fam == family}
        surviving = set()
        for survivors, cites in _cited_reports(text):
            surviving |= survivors
            # every surviving pair carries exactly one citation, the table's
            if sorted(pair for pair, _ in cites) != sorted(survivors):
                problems.append("%s: cites %s for %s" % (family, cites, sorted(survivors)))
            for pair, note in cites:
                entry = ours.get(pair)
                if entry is None or note != entry[2].format(
                        *(isolated._j_text(*j) for j in entry[1])):
                    problems.append("%s %s: cite %r" % (family, pair, note))
        if set(ours) != surviving:
            problems.append("%s: cited %s, surviving %s"
                            % (family, sorted(ours), sorted(surviving)))
        # the pairs marked isolated are exactly those the non-CM rows sit over
        marked = {pair for pair, entry in ours.items() if entry[0]}
        over = {Fraction(*j): pair for pair, entry in ours.items() for j in entry[1]}
        rows = tables[family]
        non_cm = {r.j_invariant for r in rows if not r.cm}
        if {over.get(j) for j in non_cm} != marked:
            problems.append("%s: non-CM rows over %s, isolated %s" % (family, non_cm, marked))
        # 2 and 6 non-CM rows, and with the 13 CM rows the paper's 15 and 19
        counts = (sum(r.cm for r in rows), len(non_cm), len({r.j_invariant for r in rows}))
        if counts != {"gamma1": (13, 2, 15), "gamma0": (13, 6, 19)}[family]:
            problems.append("%s: CM, non-CM and distinct rows %s" % (family, counts))
    not_isolated = annotations.get(("gamma1", 17, 4), (True,))[0] is False
    if not (not_isolated and "\tgamma1\t17\t4\tkept\t" in outputs["gamma1"]):
        problems.append("gamma1 17:4 does not survive marked not isolated")
    return problems


def test_paper_tables_against_the_filter(tmp_path):
    outputs = {}
    for family in FAMILIES:
        path = tmp_path / family
        assert main(["batch", "--family", family, "--threads", "1", "--out", str(path)]) == 0
        outputs[family] = path.read_text()
    tables = {"gamma1": GAMMA1_ISOLATED_J, "gamma0": GAMMA0_ISOLATED_J}
    assert _table_problems(outputs, ANNOTATIONS, tables) == []
    # removing any row or any citation is caught
    for family, rows in tables.items():
        for i in range(len(rows)):
            fewer = dict(tables, **{family: rows[:i] + rows[i + 1:]})
            assert _table_problems(outputs, ANNOTATIONS, fewer), (family, rows[i])
    for key in ANNOTATIONS:
        fewer = {k: v for k, v in ANNOTATIONS.items() if k != key}
        assert _table_problems(outputs, fewer, tables), key
