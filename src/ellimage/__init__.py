"""Invariants of open subgroups of GL2(Z_ell) acting on prime-power torsion,
and the candidate filter for isolated points on X1(ell^n) and X0(ell^n).

The exported names are resolved on first use (PEP 562), so importing the
package, or one submodule, loads no other submodule."""

import importlib

_EXPORTS = {
    "errors": ("CertificateError", "DataFileError", "EllimageError", "EnumerationCapError",
               "LabelError", "ModulusMismatchError", "NotInvertibleError",
               "SearchBudgetError"),
    "modarith": ("PrimePowerModulus",),
    "gl2": ("CartanSpec", "MatrixGroup", "ambient_order", "build_cartan",
            "conjugate_into", "full_gl2", "is_conjugate"),
    "modcurves": ("GenusProfile", "genus_X0", "genus_X1", "genus_XG", "map_degree",
                  "map_degree_tower"),
    "orbits": ("OrbitRecord", "gamma0_orbits", "gamma1_orbits"),
    "isolated": ("CandidatePair", "FilterReport", "analyze", "candidate_pairs",
                 "filter_genus_zero", "filter_riemann_roch"),
    "knownj": ("GAMMA0_ISOLATED_J", "GAMMA1_ISOLATED_J", "KnownJRecord"),
    "labelio": ("ImageRecord", "parse_label", "parse_report_lines", "read_generators_file",
                "read_generators_text", "serialize_records", "validate_record"),
    "lattice": ("KernelModule", "RigidityResult", "SubgroupClass", "all_subgroups",
                "preimage_rigidity", "proper_detsurjective_subgroups",
                "split_cartan_membership", "verify_counterexample"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(importlib.import_module("." + _MODULE_OF[name], __name__), name)
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))
