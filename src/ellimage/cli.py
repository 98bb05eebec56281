"""Command-line interface.

Verbs:
    info           print invariants of a subgroup (label or Cartan constructor)
    filter         run the isolated-point candidate filter for one image
    batch          run the filter over a whole generator file
    lattice-check  certify the low-index subgroup classification, split-Cartan
                   membership and preimage rigidity for one image
    validate       recompute label fields for every record in a file

Exit codes: 0 success (filter: empty final set), 10 filter produced a
nonempty final set, 3 certificate failure / search budget exhausted,
4 validation mismatches, 5 batch or validate records that failed (SUMMARY
or VALIDATED then ends with "N failed" and each failure has a "# error"
line; 5 wins over 4), 2 usage errors, 1 other errors.

The enumeration cap and worker count read ELLIMAGE_MAX_ENUM and
ELLIMAGE_THREADS from the environment; command-line flags win.  A value that
is not an integer exits 1 with an error naming the variable, e.g. "error:
ELLIMAGE_THREADS must be an integer, got 'abc'".  The cap is given to each
group the run makes, and every group derived from one carries it on; it
bounds every table of the run.  batch runs in one process
unless a worker count above 1 is asked for: on the bundled catalog a process
pool costs more than the whole batch.
"""

import argparse
import os
import sys
from collections import namedtuple

from .errors import CertificateError, EllimageError, SearchBudgetError
from .gl2 import CARTAN_KINDS, CartanSpec, DEFAULT_CAP, build_cartan, is_conjugate
from .labelio import format_generators, parse_label, read_generators_file, validate_record
from .modarith import PrimePowerModulus


class RunConfig(namedtuple("RunConfig", "cap threads data_path out_path fmt")):
    __slots__ = ()

    def __new__(cls, cap=DEFAULT_CAP, threads=1, data_path=None, out_path=None, fmt="text"):
        if cap < 10 ** 4:
            raise ValueError("enumeration cap must be >= 10^4")
        if threads < 1:
            raise ValueError("thread count must be >= 1")
        return super().__new__(cls, cap, threads, data_path, out_path, fmt)


_DATA = os.path.join(os.path.dirname(__file__), "data")


def _bundled_records(path=None):
    "The records of the generator file at `path`, by default the bundled catalog."
    return read_generators_file(path or os.path.join(_DATA, "known_images.txt"))


def _special_records():
    "The bundled special groups: reference subgroups outside the catalog."
    return read_generators_file(os.path.join(_DATA, "special_groups.txt"))


def _resolve_group(args, config, special=None):
    """The group of --label, looked up in the records and then in `special`
    (the special groups, read here unless given), or of --cartan/--mod."""
    if args.label:
        parse_label(args.label)
        for rec in _bundled_records(config.data_path) + (special or _special_records()):
            if rec.rszb_label == args.label:
                return rec.group(config.cap)
        raise EllimageError("unknown label %s" % args.label)
    if args.cartan:
        if args.mod is None:
            args.usage_error("--cartan needs --mod")
        mod = PrimePowerModulus.from_int(args.mod)
        return build_cartan(CartanSpec(args.cartan, mod, args.eps), config.cap)
    args.usage_error("give --label or --cartan/--mod")


def _emit(text, config):
    if config.out_path:
        with open(config.out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------

def cmd_info(args, config):
    from .modcurves import genus_XG
    group = _resolve_group(args, config)
    dets, surj = group.det_image()
    prof = genus_XG(group)
    lines = [
        "label: %s" % (group.label or "(unlabeled)"),
        "modulus: %d" % group.mod.modulus,
        "level: %d" % group.level(),
        "order: %d" % group.order(),
        "index: %d" % group.index_in_ambient(),
        "det image: %s (%d of %d units)"
        % ("surjective" if surj else "proper", dets.order(), group.mod.unit_count()),
        "contains -I: %s" % ("yes" if group.contains_minus_identity() else "no"),
        "genus profile: mu=%d nu2=%d nu3=%d nu_inf=%d genus=%d"
        % (prof.mu, prof.nu2, prof.nu3, prof.nu_inf, prof.genus),
    ]
    _emit("\n".join(lines) + "\n", config)
    return 0


def cmd_filter(args, config):
    from .isolated import analyze
    group = _resolve_group(args, config)
    report = analyze(group, args.family)
    _emit(report.to_text(comments=config.fmt == "text"), config)
    return 10 if report.final else 0


def _batch_one(payload):
    rec, family, cap, comments = payload
    from .isolated import analyze
    label = rec.rszb_label
    try:
        report = analyze(rec.group(cap), family, label=label)
        final = sorted((p.level, p.degree) for p in report.final)
        return label, report.to_text(comments=comments), final, None
    except Exception as exc:  # per-record errors are collected, not fatal
        return label, "", None, "%s: %s" % (type(exc).__name__, exc)


def cmd_batch(args, config):
    records = _bundled_records(config.data_path)
    payloads = [(rec, args.family, config.cap, config.fmt == "text") for rec in records]
    if config.threads > 1 and len(payloads) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(_batch_one, payloads))
    else:
        results = [_batch_one(p) for p in payloads]
    chunks = []
    summary = []
    errors = []
    for label, text, final, err in results:
        if err is not None:
            errors.append("# error %s: %s" % (label, err))
            continue
        chunks.append(text)
        if final:
            summary.append("%s\t%s" % (label, ",".join("%d:%d" % p for p in final)))
    head = "SUMMARY\t%s\t%d records\t%d nonempty" % (args.family, len(records), len(summary))
    if errors:
        head += "\t%d failed" % len(errors)
    _emit("".join(chunks) + "\n".join([head] + summary + errors) + "\n", config)
    return 5 if errors else 0


def cmd_lattice_check(args, config):
    from .lattice import (preimage_rigidity, proper_detsurjective_subgroups,
                          split_cartan_membership)
    special = _special_records()
    group = _resolve_group(args, config, special)
    label = group.label or args.label or "(unlabeled)"
    lines = ["CERTIFICATE\t%s" % label,
             "VARIANT\tfixed-mod-ell-reduction"]
    try:
        classes = proper_detsurjective_subgroups(group, 49, True)
        lines.append("CLAIM\tsubgroup-classes\tindex_bound=49\tcount=%d" % len(classes))
        for cls in classes:
            lines.append("CLASS\tindex=%d\tclass_size=%d\tdet_surjective=%s\tgens=%s"
                         % (cls.index_in_parent, cls.class_size,
                            str(cls.det_surjective).lower(),
                            format_generators(cls.representative.gens)))
        if classes:
            rep = classes[0].representative
            ok, index, witness = split_cartan_membership(rep)
            w = format_generators([witness]) if witness else "-"
            lines.append("CLAIM\tsplit-normalizer-membership\t%s\tindex=%s\twitness=%s"
                         % (str(ok).lower(), index if ok else "-", w))
            for rec in special:
                if rec.modulus == group.mod:
                    printed = rec.group(config.cap)
                    same, _ = is_conjugate(rep, printed)
                    lines.append("CLAIM\tconjugate-to-%s\t%s"
                                 % (rec.rszb_label, str(same).lower()))
        rig = preimage_rigidity(group)
        target = group.mod.ell ** (group.mod.exponent + 1)
        if rig.rigid:
            lines.append("CLAIM\tpreimage-rigidity\tmodulus=%d\trigid=true\tchecked=%d"
                         % (target, rig.checked_subspaces))
        else:
            lines.append("CLAIM\tpreimage-rigidity\tmodulus=%d\trigid=false\twitness=%s"
                         % (target, format_generators(rig.counterexample.gens)))
        lines.append("RESULT\tcertified")
        _emit("\n".join(lines) + "\n", config)
        return 0
    except (SearchBudgetError, CertificateError) as exc:
        lines.append("RESULT\tFAILED\t%s" % exc)
        _emit("\n".join(lines) + "\n", config)
        return 3


def cmd_validate(args, config):
    records = _bundled_records(config.data_path)
    if not config.data_path:
        records += _special_records()
    lines = []
    errors = []
    bad = 0
    for rec in records:
        try:
            rep = validate_record(rec, config.cap)
        except Exception as exc:  # per-record errors are collected, not fatal
            errors.append("# error %s: %s: %s" % (rec.rszb_label, type(exc).__name__, exc))
            continue
        lines.append(rep.to_line())
        if not rep.ok:
            bad += 1
    head = "VALIDATED\t%d records\t%d mismatches" % (len(records), bad)
    if errors:
        head += "\t%d failed" % len(errors)
    _emit("\n".join(lines + [head] + errors) + "\n", config)
    return 5 if errors else 4 if bad else 0


# ---------------------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(prog="ellimage",
                                description="invariants of GL2(Z_ell) subgroups and "
                                            "the isolated-point candidate filter")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, family=False, label=True, cartan=True):
        if label:
            sp.add_argument("--label", help="subgroup label in the data file")
        if cartan:
            sp.add_argument("--cartan", choices=CARTAN_KINDS,
                            help="named construction instead of a label")
            sp.add_argument("--mod", type=int, help="prime-power modulus for --cartan")
            sp.add_argument("--eps", type=int, default=None,
                            help="quadratic non-residue for the nonsplit kinds and "
                                 "section4-semidirect")
        if label and cartan:
            sp.set_defaults(usage_error=sp.error)
        if family:
            sp.add_argument("--family", choices=("gamma1", "gamma0"), required=True)
        sp.add_argument("--gens-file", help="generator file replacing the bundled data")
        sp.add_argument("--max-enum", type=int, default=None,
                        help="enumeration cap of the run: each group made carries it, "
                             "and it bounds every table that group's computations "
                             "hold (default: ELLIMAGE_MAX_ENUM, else 10^7)")
        sp.add_argument("--threads", type=int, default=None,
                        help="worker processes, used by batch only (default: "
                             "ELLIMAGE_THREADS, else 1: no process pool)")
        sp.add_argument("--format", dest="fmt", choices=("text", "lines"),
                        default="text")
        sp.add_argument("--out", help="write output to a file instead of stdout")

    common(sub.add_parser("info", help="print subgroup invariants"))
    common(sub.add_parser("filter", help="run the candidate filter"), family=True)
    common(sub.add_parser("batch", help="filter every record in the data file"),
           family=True, label=False, cartan=False)
    common(sub.add_parser("lattice-check", help="emit the lattice certificate"))
    common(sub.add_parser("validate", help="revalidate generator file labels"),
           label=False, cartan=False)
    return p


def _setting(flag, name):
    """The flag's value when given, else the integer in environment variable
    `name`, else None."""
    if flag is not None or name not in os.environ:
        return flag
    try:
        return int(os.environ[name])
    except ValueError:
        raise ValueError("%s must be an integer, got %r" % (name, os.environ[name])) from None


def _config_from(args):
    "The RunConfig of the arguments; a setting given nowhere keeps RunConfig's default."
    given = {field: value for field, value in (
        ("cap", _setting(args.max_enum, "ELLIMAGE_MAX_ENUM")),
        ("threads", _setting(args.threads, "ELLIMAGE_THREADS"))) if value is not None}
    return RunConfig(data_path=args.gens_file, out_path=args.out, fmt=args.fmt, **given)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    given = [f for f in ("cartan", "mod", "eps") if getattr(args, f, None) is not None]
    if given and getattr(args, "label", None):
        args.usage_error("argument --label: not allowed with argument --%s" % given[0])
    try:
        config = _config_from(args)
        handler = {
            "info": cmd_info,
            "filter": cmd_filter,
            "batch": cmd_batch,
            "lattice-check": cmd_lattice_check,
            "validate": cmd_validate,
        }[args.verb]
        return handler(args, config)
    except (EllimageError, ValueError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
