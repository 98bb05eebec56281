"""Invariants of open subgroups of GL2(Z_ell) acting on prime-power torsion,
and the candidate filter for isolated points on X1(ell^n) and X0(ell^n)."""

from .errors import (CertificateError, DataFileError, EllimageError,
                     EnumerationCapError, LabelError, ModulusMismatchError,
                     NotInvertibleError, SearchBudgetError)
from .modarith import PrimePowerModulus, ResidueMatrix
from .gl2 import (CartanSpec, MatrixGroup, ambient_order, build_cartan,
                  conjugate_into, full_gl2, is_conjugate)
from .modcurves import (GenusProfile, MapDegreeSpec, genus_X0, genus_X1,
                        genus_XG, map_degree, map_degree_tower)
from .orbits import (CyclicSubmodule, OrbitRecord, TorsionVector,
                     gamma0_orbits, gamma1_orbits)
from .isolated import (CandidatePair, FilterReport, analyze, candidate_pairs,
                       filter_genus_zero, filter_riemann_roch)
from .labelio import (GAMMA0_ISOLATED_J, GAMMA1_ISOLATED_J, ImageRecord,
                      KnownJRecord, parse_label, parse_report_lines,
                      read_generators_file, read_generators_text,
                      serialize_records, validate_record)
from .lattice import (KernelModule, RigidityResult, SubgroupClass,
                      all_subgroups, preimage_rigidity,
                      proper_detsurjective_subgroups, split_cartan_membership,
                      verify_counterexample)

__all__ = [
    "CertificateError", "DataFileError", "EllimageError", "EnumerationCapError",
    "LabelError", "ModulusMismatchError", "NotInvertibleError", "SearchBudgetError",
    "PrimePowerModulus", "ResidueMatrix",
    "CartanSpec", "MatrixGroup", "ambient_order", "build_cartan",
    "conjugate_into", "full_gl2", "is_conjugate",
    "GenusProfile", "MapDegreeSpec", "genus_X0", "genus_X1", "genus_XG",
    "map_degree", "map_degree_tower",
    "CyclicSubmodule", "OrbitRecord", "TorsionVector", "gamma0_orbits",
    "gamma1_orbits",
    "CandidatePair", "FilterReport", "analyze", "candidate_pairs",
    "filter_genus_zero", "filter_riemann_roch",
    "GAMMA0_ISOLATED_J", "GAMMA1_ISOLATED_J", "ImageRecord", "KnownJRecord",
    "parse_label", "parse_report_lines", "read_generators_file",
    "read_generators_text", "serialize_records", "validate_record",
    "KernelModule", "RigidityResult", "SubgroupClass", "all_subgroups",
    "preimage_rigidity", "proper_detsurjective_subgroups",
    "split_cartan_membership", "verify_counterexample",
]
