"""Label parsing, generator data files and validation.

Generator file grammar (one record per line, `#` starts a comment):

    label|modulus|m11,m12,m21,m22;m11,m12,m21,m22;...

Labels have the shape N.i.g.n (level, index, genus, disambiguator); N must
equal the modulus and be a prime power.  Lines are order-insensitive and
duplicate labels are rejected.  Matrix entries must be reduced
representatives in [0, modulus) and every generator must be invertible; an
empty generator field denotes the trivial group.

Filter reports serialize as tab-separated lines

    label<TAB>family<TAB>level<TAB>degree<TAB>status<TAB>reason
    RESULT<TAB>label<TAB>family<TAB>level:degree,...|empty

and parse back with parse_report_lines (comments pass through).
"""

from collections import namedtuple

from .errors import DataFileError, LabelError
from .gl2 import DEFAULT_CAP, MatrixGroup
from .modarith import PrimePowerModulus, mdet


def parse_label(text):
    "N.i.g.n -> (N, i, g, n); N must be a prime power."
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise LabelError("label %r does not have four dot-separated fields" % (text,))
    try:
        level, i, g, tiebreak = (int(p) for p in parts)
    except ValueError:
        raise LabelError("label %r has non-integer fields" % (text,)) from None
    if level < 1 or i < 1 or g < 0 or tiebreak < 1:
        raise LabelError("label %r has out-of-range fields" % (text,))
    try:
        PrimePowerModulus.from_int(level)
    except ValueError:
        raise LabelError("label level %d is not a prime power" % (level,)) from None
    return level, i, g, tiebreak


class ImageRecord(namedtuple("ImageRecord", "rszb_label modulus generators")):
    "A labelled image: its PrimePowerModulus and a tuple of 4-tuple generators."

    __slots__ = ()

    def group(self):
        return MatrixGroup(self.modulus, list(self.generators), label=self.rszb_label)

    def to_line(self):
        gens = ";".join(",".join(str(e) for e in g) for g in self.generators)
        return "%s|%d|%s" % (self.rszb_label, self.modulus.modulus, gens)


def _parse_record_line(line, lineno):
    fields = line.split("|")
    if len(fields) != 3:
        raise DataFileError("expected 3 |-separated fields, got %d" % len(fields), lineno)
    label, modtext, genstext = (f.strip() for f in fields)
    try:
        n, _, _, _ = parse_label(label)
    except LabelError as exc:
        raise DataFileError(str(exc), lineno) from None
    try:
        modulus = int(modtext)
    except ValueError:
        raise DataFileError("modulus %r is not an integer" % (modtext,), lineno) from None
    if modulus != n:
        raise DataFileError("label level %d does not match modulus %d" % (n, modulus), lineno)
    mod = PrimePowerModulus.from_int(modulus)
    gens = []
    for chunk in genstext.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        entries = chunk.split(",")
        if len(entries) != 4:
            raise DataFileError("matrix %r does not have 4 entries" % (chunk,), lineno)
        try:
            vals = tuple(int(e) for e in entries)
        except ValueError:
            raise DataFileError("non-integer entry in %r" % (chunk,), lineno) from None
        for v in vals:
            if not 0 <= v < modulus:
                raise DataFileError("entry %d out of range [0, %d)" % (v, modulus), lineno)
        if mdet(vals, modulus) % mod.ell == 0:
            raise DataFileError("generator %r is not invertible" % (chunk,), lineno)
        gens.append(vals)
    return ImageRecord(label, mod, tuple(gens))


def read_generators_text(text):
    records = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rec = _parse_record_line(line, lineno)
        if rec.rszb_label in seen:
            raise DataFileError("duplicate label %s" % rec.rszb_label, lineno)
        seen.add(rec.rszb_label)
        records.append(rec)
    return records


def read_generators_file(path):
    with open(path, "r", encoding="ascii") as fh:
        return read_generators_text(fh.read())


def serialize_records(records):
    return "\n".join(r.to_line() for r in records) + "\n"


class ValidationReport(namedtuple("ValidationReport",
                                  "label level_ok index_ok genus_ok computed")):
    "`computed` is (level, index, genus)."

    __slots__ = ()

    @property
    def ok(self):
        return self.level_ok and self.index_ok and self.genus_ok

    def to_line(self):
        status = "ok" if self.ok else "MISMATCH"
        return "%s\t%s\tlevel=%d%s\tindex=%d%s\tgenus=%d%s" % (
            self.label, status,
            self.computed[0], "" if self.level_ok else "!",
            self.computed[1], "" if self.index_ok else "!",
            self.computed[2], "" if self.genus_ok else "!")


def validate_record(rec, cap=DEFAULT_CAP):
    "Recompute level, index and genus and compare with the label fields."
    from .modcurves import genus_XG
    n, i, g, _ = parse_label(rec.rszb_label)
    grp = rec.group()
    level = grp.level(cap)
    index = grp.index_in_ambient(cap)
    genus = genus_XG(grp, cap).genus
    return ValidationReport(rec.rszb_label, level == n, index == i, genus == g,
                            (level, index, genus))


# ---------------------------------------------------------------------------
# filter report round-trip

def parse_report_lines(text):
    """Parse serialized filter reports back into dicts keyed by
    (label, family): {'pairs': [(level, degree, status, reason)],
    'final': [(level, degree)]}."""
    out = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if fields[0] == "RESULT":
            if len(fields) != 4:
                raise DataFileError("malformed RESULT line %r" % (line,))
            _, label, family, pairs = fields
            final = []
            if pairs != "empty":
                for chunk in pairs.split(","):
                    lv, deg = chunk.split(":")
                    final.append((int(lv), int(deg)))
            out.setdefault((label, family), {"pairs": [], "final": None})
            out[(label, family)]["final"] = final
        else:
            if len(fields) != 6:
                raise DataFileError("malformed report line %r" % (line,))
            label, family, level, degree, status, reason = fields
            out.setdefault((label, family), {"pairs": [], "final": None})
            out[(label, family)]["pairs"].append(
                (int(level), int(degree), status, reason))
    return out
