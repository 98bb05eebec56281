"""Output checks for every CLI invocation of the benchmark.

Only seed-invariant fields are compared: witnesses and `gens=` strings
change with the conjugating matrices and are not read.  A check returns
{item: reason} for the items that failed, where an item is one record of a
`batch` or `validate` run, or the whole invocation otherwise.  `batch`
exits 0 even when records fail, so every `# error <label>` line counts as a
failed item.
"""

from inputs import BOREL_LABEL, NS_LABEL, SPECIAL_LABEL

# Final (level, degree) sets pinned by acceptance criteria 5 and 6; every
# other catalog record must end empty.  exact=False means "contains".
FINAL = {
    "gamma1": {
        "17.72.1.2": ({(17, 4)}, True),
        "37.114.4.1": ({(37, 6)}, False),
        "37.114.4.2": ({(37, 18)}, False),
    },
    "gamma0": {label: ({(level, 1)}, False) for label, level in (
        ("11.120.1.1", 11), ("11.120.1.2", 11), ("17.72.1.2", 17),
        ("17.72.1.4", 17), ("37.114.4.1", 37), ("37.114.4.2", 37))},
}

CERTIFICATES = {
    "49.196.9.1": (
        ("CLAIM\tsubgroup-classes\tindex_bound=49\tcount=1", True),
        ("CLASS\tindex=49\tclass_size=49\tdet_surjective=true\tgens=", False),
        ("CLAIM\tsplit-normalizer-membership\ttrue\tindex=7\twitness=", False),
        ("CLAIM\tconjugate-to-%s\ttrue" % SPECIAL_LABEL, True),
        ("CLAIM\tpreimage-rigidity\tmodulus=343\trigid=true\t", False),
    ),
    "5.6.0.1": (
        ("CLAIM\tsubgroup-classes\tindex_bound=49\tcount=0", True),
        ("CLAIM\tpreimage-rigidity\tmodulus=25\trigid=false\t", False),
    ),
}

BOREL_INFO = (
    "label: %s" % BOREL_LABEL,
    "modulus: 81",
    "level: 81",
    "order: 236196",
    "index: 108",
    "det image: surjective (54 of 54 units)",
    "contains -I: yes",
    "genus profile: mu=108 nu2=0 nu3=0 nu_inf=12 genus=4",
)


def _final_set(field):
    if field == "empty":
        return set()
    return {tuple(int(x) for x in pair.split(":")) for pair in field.split(",")}


def batch(family, labels):
    "Check of `batch --family <family>` over a file holding `labels`."
    expected = FINAL[family]
    nonempty = len(expected)

    def check(rc, out):
        results, errors, summary = {}, set(), None
        for line in out.splitlines():
            fields = line.split("\t")
            if fields[0] == "RESULT" and len(fields) == 4 and fields[2] == family:
                results.setdefault(fields[1], []).append(fields[3])
            elif fields[0] == "SUMMARY":
                summary = fields
            elif line.startswith("# error "):
                errors.add(line[len("# error "):].split(":", 1)[0])
        want_summary = ["SUMMARY", family, "%d records" % len(labels),
                        "%d nonempty" % nonempty]
        if rc != 0 or summary != want_summary:
            return {label: "exit %d, summary %r" % (rc, summary) for label in labels}
        failed = {label: "# error line" for label in errors.intersection(labels)}
        for label in labels:
            got = results.get(label, [])
            if len(got) != 1:
                failed.setdefault(label, "%d RESULT lines" % len(got))
                continue
            want, exact = expected.get(label, (set(), True))
            final = _final_set(got[0])
            ok = final == want if exact else want <= final
            if not ok:
                failed.setdefault(label, "RESULT %s" % got[0])
        return failed

    return len(labels), check


def _label_fields(label):
    level, index, genus, _ = (int(x) for x in label.split("."))
    return level, index, genus


def validate(labels):
    "Check of `validate` over a file holding `labels`."

    def check(rc, out):
        lines = out.splitlines()
        if rc != 0 or not lines or lines[-1] != (
                "VALIDATED\t%d records\t0 mismatches" % len(labels)):
            return {label: "exit %d, last line %r" % (rc, lines[-1:]) for label in labels}
        seen = {}
        for line in lines[:-1]:
            fields = line.split("\t")
            seen[fields[0]] = fields[1:]
        failed = {}
        for label in labels:
            level, index, genus = _label_fields(label)
            want = ["ok", "level=%d" % level, "index=%d" % index, "genus=%d" % genus]
            if seen.get(label) != want:
                failed[label] = "line %r" % (seen.get(label),)
        return failed

    return len(labels), check


def _whole(name, test):
    "One-item check: the invocation fails as a whole with the reason `test` gives."

    def check(rc, out):
        reason = test(rc, out.splitlines())
        return {name: reason} if reason else {}

    return 1, check


def certificate(label):
    "Check of `lattice-check --label <label>`."
    required = CERTIFICATES[label]

    def test(rc, lines):
        if rc != 0 or lines[:1] != ["CERTIFICATE\t%s" % label] or lines[-1:] != ["RESULT\tcertified"]:
            return "exit %d, first/last lines %r" % (rc, lines[:1] + lines[-1:])
        for text, exact in required:
            if not any(line == text if exact else line.startswith(text) for line in lines):
                return "missing %r" % text
        return None

    return _whole(label, test)


def filter_empty(family):
    "Check of `filter --family <family>` on the level-289 tower record."
    result = "RESULT\t%s\t%s\tempty" % (NS_LABEL, family)

    def test(rc, lines):
        if rc != 0 or lines[-1:] != [result]:
            return "exit %d, last line %r" % (rc, lines[-1:])
        return None

    return _whole("filter-" + family, test)


def borel_info():
    "Check of `info` on the Borel(81) tower record."

    def test(rc, lines):
        if rc != 0 or tuple(lines) != BOREL_INFO:
            return "exit %d, lines %r" % (rc, lines)
        return None

    return _whole("info", test)
