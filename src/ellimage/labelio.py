"""Label parsing, generator data files and validation.

Generator file grammar (one record per line, `#` starts a comment):

    label|modulus|m11,m12,m21,m22;m11,m12,m21,m22;...

Labels have the shape N.i.g.n (level, index, genus, disambiguator); N is 1
or a prime power, and a level other than 1 must equal the modulus.  A
level-1 record (GL2 itself, whose level is 1 at every modulus) may use any
prime-power modulus.  Lines are order-insensitive and duplicate labels are
rejected.  Matrix entries must be reduced representatives in [0, modulus)
and every generator must be invertible; an empty generator field denotes
the trivial group.  read_generators_file is the one reader of every
generator file, the bundled ones and a user's alike, and reads ASCII.

Filter reports serialize as tab-separated lines

    label<TAB>family<TAB>level<TAB>degree<TAB>status<TAB>reason
    RESULT<TAB>label<TAB>family<TAB>level:degree,...|empty

and parse back with parse_report_lines (comments pass through).
"""

from collections import namedtuple

from .errors import DataFileError, LabelError
from .gl2 import DEFAULT_CAP, MatrixGroup
from .modarith import PrimePowerModulus, mdet


def _label_fields(text):
    "N.i.g.n -> (N, i, g, n), each in range; the level is not factored."
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise LabelError("label %r does not have four dot-separated fields" % (text,))
    try:
        level, i, g, tiebreak = (int(p) for p in parts)
    except ValueError:
        raise LabelError("label %r has non-integer fields" % (text,)) from None
    if level < 1 or i < 1 or g < 0 or tiebreak < 1:
        raise LabelError("label %r has out-of-range fields" % (text,))
    return level, i, g, tiebreak


def _level_modulus(level):
    "The PrimePowerModulus of a label level, None for 1; LabelError unless a prime power."
    try:
        return PrimePowerModulus.from_int(level) if level > 1 else None
    except ValueError:
        raise LabelError("label level %d is not a prime power" % (level,)) from None


def parse_label(text):
    "N.i.g.n -> (N, i, g, n); N must be 1 or a prime power."
    fields = _label_fields(text)
    _level_modulus(fields[0])
    return fields


class ImageRecord(namedtuple("ImageRecord", "rszb_label modulus generators")):
    "A labelled image: its PrimePowerModulus and a tuple of 4-tuple generators."

    __slots__ = ()

    def group(self, cap=DEFAULT_CAP):
        "The MatrixGroup of the record, carrying the enumeration cap."
        return MatrixGroup(self.modulus, list(self.generators), self.rszb_label, cap)

    def to_line(self):
        return "%s|%d|%s" % (self.rszb_label, self.modulus.modulus,
                             format_generators(self.generators))


def format_generators(gens):
    "The generator field m11,m12,m21,m22;... of the file grammar."
    return ";".join(",".join(str(e) for e in g) for g in gens)


def _parse_record_line(line):
    "The ImageRecord of one record line; LabelError or ValueError says what is wrong."
    fields = line.split("|")
    if len(fields) != 3:
        raise ValueError("expected 3 |-separated fields, got %d" % len(fields))
    label, modtext, genstext = (f.strip() for f in fields)
    n, _, _, _ = _label_fields(label)
    mod = _level_modulus(n)  # a level other than 1 is the modulus: factored once
    try:
        modulus = int(modtext)
    except ValueError:
        raise ValueError("modulus %r is not an integer" % (modtext,)) from None
    if modulus != n and n != 1:
        raise ValueError("label level %d does not match modulus %d" % (n, modulus))
    mod = mod or PrimePowerModulus.from_int(modulus)
    gens = []
    for chunk in genstext.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        entries = chunk.split(",")
        if len(entries) != 4:
            raise ValueError("matrix %r does not have 4 entries" % (chunk,))
        try:
            vals = tuple(int(e) for e in entries)
        except ValueError:
            raise ValueError("non-integer entry in %r" % (chunk,)) from None
        for v in vals:
            if not 0 <= v < modulus:
                raise ValueError("entry %d out of range [0, %d)" % (v, modulus))
        if mdet(vals, modulus) % mod.ell == 0:
            raise ValueError("generator %r is not invertible" % (chunk,))
        gens.append(vals)
    return ImageRecord(label, mod, tuple(gens))


def read_generators_text(text):
    records = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rec = _parse_record_line(line)
        except (LabelError, ValueError) as exc:
            raise DataFileError(str(exc), lineno) from None
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
    n, i, g, _ = _label_fields(rec.rszb_label)
    if n not in (1, rec.modulus.modulus):  # else the reader checked the level
        parse_label(rec.rszb_label)
    grp = rec.group(cap)
    level = grp.level()
    index = grp.index_in_ambient()
    genus = genus_XG(grp).genus
    return ValidationReport(rec.rszb_label, level == n, index == i, genus == g,
                            (level, index, genus))


# ---------------------------------------------------------------------------
# filter report round-trip

def parse_report_lines(text):
    """Parse serialized filter reports back into dicts keyed by
    (label, family): {'pairs': [(level, degree, status, reason)],
    'final': [(level, degree)]}.  A line with the wrong number of fields or
    a level or degree that is not an integer raises DataFileError."""
    out = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        kind = "RESULT" if fields[0] == "RESULT" else "report"
        try:
            if kind == "RESULT":
                _, label, family, pairs = fields
                final = []
                for chunk in pairs.split(",") if pairs != "empty" else ():
                    lv, deg = chunk.split(":")
                    final.append((int(lv), int(deg)))
                out.setdefault((label, family), {"pairs": [], "final": None})["final"] = final
            else:
                label, family, level, degree, status, reason = fields
                pair = (int(level), int(degree), status, reason)
                out.setdefault((label, family), {"pairs": [], "final": None})["pairs"].append(pair)
        except ValueError:
            raise DataFileError("malformed %s line %r" % (kind, line)) from None
    return out
