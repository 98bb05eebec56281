#!/usr/bin/env python3
"""Build the bundled subgroup catalogs (data/known_images.txt and
data/special_groups.txt).

Every record is constructed from an explicit recipe, its label fields
(level.index.genus.n) are computed by the library itself, and the record is
re-validated before shipping.  Labels carrying a published disambiguator are
pinned and asserted against the computed invariants.  The expected filter
outcome of each record (which family yields survivors) is asserted too, so
the catalog cannot silently drift from the classification results it is
meant to reproduce.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ellimage.gl2 import CartanSpec, MatrixGroup, build_cartan
from ellimage.isolated import analyze
from ellimage.labelio import ImageRecord, serialize_records, validate_record
from ellimage.modarith import PrimePowerModulus

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "ellimage", "data")


def ppm(ell, e):
    return PrimePowerModulus(ell, e)


def grp(mod, gens):
    return MatrixGroup(mod, gens)


def x1_shape(mod):
    "Image of a curve with a rational point of exact order ell^n: [1 *; 0 *]."
    m = mod.modulus
    gens = [(1, 1, 0, 1)]
    from ellimage.gl2 import unit_group_generators
    gens += [(1, 0, 0, u) for u in unit_group_generators(mod)]
    return MatrixGroup(mod, gens)


def borel_char(mod, char_gens):
    "Borel subgroup with constrained diagonal characters."
    gens = [(1, 1, 0, 1)] + list(char_gens)
    return MatrixGroup(mod, gens)


# (recipe name, group, pinned disambiguator or None, expected survivors)
# expected survivors: per family, None (empty) or a set the final pairs
# must equal / contain.
def catalog():
    out = []

    # --- ell = 2 -------------------------------------------------------
    m2, m4, m8, m16 = ppm(2, 1), ppm(2, 2), ppm(2, 3), ppm(2, 4)
    out.append(("index-2 of GL2(F2)", grp(m2, [(0, 1, 1, 1)]), None))
    out.append(("borel mod 2", grp(m2, [(1, 1, 0, 1)]), None))
    out.append(("trivial mod 2", grp(m2, [(1, 0, 0, 1)]), None))
    out.append(("borel mod 4", build_cartan(CartanSpec("borel", m4)), None))
    out.append(("split-normalizer mod 4", build_cartan(CartanSpec("split-normalizer", m4)), None))
    out.append(("borel mod 8", build_cartan(CartanSpec("borel", m8)), None))
    out.append(("split-normalizer mod 8", build_cartan(CartanSpec("split-normalizer", m8)), None))
    out.append(("borel mod 16", build_cartan(CartanSpec("borel", m16)), None))

    # --- ell = 3 -------------------------------------------------------
    m3, m9 = ppm(3, 1), ppm(3, 2)
    for kind in ("borel", "split", "split-normalizer", "nonsplit", "nonsplit-normalizer"):
        out.append(("%s mod 3" % kind, build_cartan(CartanSpec(kind, m3)), None))
    out.append(("borel mod 9", build_cartan(CartanSpec("borel", m9)), None))
    out.append(("split-normalizer mod 9", build_cartan(CartanSpec("split-normalizer", m9)), None))
    out.append(("nonsplit-normalizer mod 9", build_cartan(CartanSpec("nonsplit-normalizer", m9)), None))
    out.append(("torsion shape mod 9", x1_shape(m9), None))

    # --- ell = 5 -------------------------------------------------------
    m5, m25 = ppm(5, 1), ppm(5, 2)
    for kind in ("borel", "split", "split-normalizer", "nonsplit", "nonsplit-normalizer"):
        out.append(("%s mod 5" % kind, build_cartan(CartanSpec(kind, m5)), None))
    out.append(("torsion shape mod 5", x1_shape(m5), None))
    out.append(("borel mod 25", build_cartan(CartanSpec("borel", m25)), None))

    # --- ell = 7 -------------------------------------------------------
    m7, m49 = ppm(7, 1), ppm(7, 2)
    out.append(("borel mod 7", build_cartan(CartanSpec("borel", m7)), None))
    out.append(("split-normalizer mod 7", build_cartan(CartanSpec("split-normalizer", m7)), None))
    out.append(("nonsplit-normalizer mod 7", build_cartan(CartanSpec("nonsplit-normalizer", m7)), None))
    out.append(("torsion shape mod 7", x1_shape(m7), None))
    # exceptional-level subgroups of the split normalizer mod 7
    out.append(("split-sq-diag + involution mod 7",
                grp(m7, [(2, 0, 0, 1), (1, 0, 0, 2), (1, 0, 0, 6)]), "7.112.1.1"))
    out.append(("split-sq-diag + swap mod 7",
                grp(m7, [(2, 0, 0, 1), (1, 0, 0, 2), (0, 1, 1, 0)]), "7.112.1.2"))
    out.append(("mixed half-split-normalizer mod 7",
                grp(m7, [(3, 0, 0, 3), (2, 0, 0, 4), (0, 1, 1, 0)]), None))
    out.append(("exceptional split-normalizer extension mod 49",
                grp(m49, [(31, 0, 0, 1), (1, 0, 0, 31), (0, 1, 1, 0),
                          (8, 0, 0, 8), (1, 7, 0, 1), (1, 0, 7, 1)]), "49.196.9.1"))

    # --- ell = 11 ------------------------------------------------------
    m11 = ppm(11, 1)
    out.append(("isogeny image a mod 11",
                borel_char(m11, [(3, 0, 0, 3), (1, 0, 0, 10)]), None))
    out.append(("isogeny image b mod 11",
                borel_char(m11, [(3, 0, 0, 9), (10, 0, 0, 1)]), None))
    out.append(("nonsplit-normalizer mod 11",
                build_cartan(CartanSpec("nonsplit-normalizer", m11)), None))

    # --- ell = 13 ------------------------------------------------------
    m13 = ppm(13, 1)
    out.append(("borel mod 13", build_cartan(CartanSpec("borel", m13)), None))
    out.append(("borel square-kernel-char mod 13",
                borel_char(m13, [(4, 0, 0, 1), (1, 0, 0, 2)]), None))
    out.append(("borel square-quotient-char mod 13",
                borel_char(m13, [(2, 0, 0, 1), (1, 0, 0, 4)]), None))

    # --- ell = 17 ------------------------------------------------------
    m17 = ppm(17, 1)
    out.append(("isogeny char order 8 mod 17",
                borel_char(m17, [(9, 0, 0, 3), (1, 0, 0, 9)]), "17.72.1.2"))
    out.append(("isogeny char order 16 mod 17",
                borel_char(m17, [(3, 0, 0, 9), (9, 0, 0, 1)]), "17.72.1.4"))

    # --- ell = 37 ------------------------------------------------------
    m37 = ppm(37, 1)
    out.append(("isogeny char order 12 mod 37",
                borel_char(m37, [(8, 0, 0, 1), (1, 0, 0, 2)]), "37.114.4.1"))
    out.append(("isogeny char order 36 mod 37",
                borel_char(m37, [(2, 0, 0, 1), (1, 0, 0, 8)]), "37.114.4.2"))

    return out


# labels expected to survive each family, with their exact/containment pairs
GAMMA1_SURVIVORS = {
    "17.72.1.2": {(17, 4)},
    "37.114.4.1": {(37, 6)},
    "37.114.4.2": {(37, 18)},
}
GAMMA0_SURVIVOR_LEVELS = {
    "11.120.1.1": 11, "11.120.1.2": 11,
    "17.72.1.2": 17, "17.72.1.4": 17,
    "37.114.4.1": 37, "37.114.4.2": 37,
}


def main():
    entries = catalog()
    counters = {}
    records = []
    for name, group, pinned in entries:
        level = group.level()
        index = group.index_in_ambient()
        from ellimage.modcurves import genus_XG
        genus = genus_XG(group).genus
        assert level == group.mod.modulus, \
            "%s: level %d below presentation modulus %d (present at the level)" \
            % (name, level, group.mod.modulus)
        key = (level, index, genus)
        counters.setdefault(key, 0)
        if pinned:
            n, i, g, tie = (int(x) for x in pinned.split("."))
            assert (n, i, g) == key, "%s: computed %s but pinned %s" % (name, key, pinned)
            label = pinned
            counters[key] = max(counters[key], tie)
        else:
            counters[key] += 1
            label = "%d.%d.%d.%d" % (level, index, genus, counters[key])
        rec = ImageRecord(label, group.mod, group.gens)
        rep = validate_record(rec)
        assert rep.ok, (label, rep)
        records.append((name, rec))
        print("%-45s -> %s" % (name, label))

    # filter expectations
    for name, rec in records:
        g = rec.group()
        r1 = analyze(g, "gamma1", label=rec.rszb_label)
        f1 = {(p.level, p.degree) for p in r1.final}
        want = GAMMA1_SURVIVORS.get(rec.rszb_label)
        if want is None:
            assert not f1, "%s unexpectedly survives gamma1: %s" % (rec.rszb_label, f1)
        else:
            assert f1 == want, (rec.rszb_label, f1, want)
        r0 = analyze(g, "gamma0", label=rec.rszb_label)
        f0 = {(p.level, p.degree) for p in r0.final}
        lvl = GAMMA0_SURVIVOR_LEVELS.get(rec.rszb_label)
        if lvl is None:
            assert not f0, "%s unexpectedly survives gamma0: %s" % (rec.rszb_label, f0)
        else:
            assert (lvl, 1) in f0, (rec.rszb_label, f0)
        print("%-14s gamma1=%-12s gamma0=%s"
              % (rec.rszb_label, sorted(f1) or "empty", sorted(f0) or "empty"))

    os.makedirs(OUT_DIR, exist_ok=True)
    header = (
        "# Catalog of prime-power-level ell-adic image subgroups bundled for\n"
        "# batch classification runs.  Grammar: label|modulus|m11,m12,m21,m22;...\n"
        "# Labels are level.index.genus.n with level, index and genus recomputed\n"
        "# by ellimage.labelio.validate_record; regenerate with\n"
        "# scripts/make_known_images.py.\n")
    with open(os.path.join(OUT_DIR, "known_images.txt"), "w", encoding="ascii") as fh:
        fh.write(header)
        fh.write(serialize_records([rec for _, rec in records]))

    # the printed index-49 subgroup used by the lattice certificate
    m49 = ppm(7, 2)
    printed = MatrixGroup(m49, [(1, 0, 37, 48), (20, 4, 18, 21), (31, 17, 3, 23),
                                (22, 0, 0, 22), (34, 26, 19, 16), (33, 26, 19, 15)])
    lvl = printed.level()
    idx = printed.index_in_ambient()
    from ellimage.modcurves import genus_XG
    gns = genus_XG(printed).genus
    label = "%d.%d.%d.1" % (lvl, idx, gns)
    rec = ImageRecord(label, m49, printed.gens)
    assert validate_record(rec).ok
    with open(os.path.join(OUT_DIR, "special_groups.txt"), "w", encoding="ascii") as fh:
        fh.write("# Reference subgroups that are not ell-adic images: the published\n"
                 "# basis of the index-49 subgroup inside 49.196.9.1.\n")
        fh.write(serialize_records([rec]))
    print("special:", label)
    print("wrote %d records" % len(records))


if __name__ == "__main__":
    main()
