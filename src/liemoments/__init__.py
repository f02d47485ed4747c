"""Exact moments of trace products and twisted exponential class functions
over the compact classical groups, with a Monte Carlo cross-check harness.
"""

from __future__ import annotations

from .characters import (
    CharacterTable,
    ClassFunction,
    character_table,
    character_value,
    induction_product,
    inner_product,
    irreducible,
    power_sum_expansion,
)
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    ConsistencyError,
    DegeneracyError,
    LieMomentsError,
    ResourceBoundError,
    StableRangeError,
)
from .expectations import expect_trace_product, expect_twisted
from .groups import Family, GroupSpec
from .lr import BranchingTarget, branching_decomposition, lr_coefficient, schur_product
from .matchings import fpf_involutions_lds, g_bruteforce, g_closed
from .montecarlo import (
    CharacterProductObservable,
    MCEstimate,
    PhiObservable,
    RatioEstimate,
    TraceProductObservable,
    TwistedObservable,
    TwistedPhiObservable,
    estimate,
    estimate_many,
    estimate_ratio,
)
from .partitions import Partition, even_partitions_of, partitions_of, sgn, sub_splittings, z
from .szego import (
    FourierData,
    SchurSpecialization,
    expect_phi_series,
    johansson_limit,
    ratio_schur_specialization,
    twisted_asymptotic,
    weyl_dimension,
)

__version__ = "0.1.0"

__all__ = [
    "CharacterProductObservable",
    "CharacterTable",
    "ClassFunction",
    "ConsistencyError",
    "DEFAULT_TOLERANCES",
    "DegeneracyError",
    "Family",
    "FourierData",
    "GroupSpec",
    "LieMomentsError",
    "MCEstimate",
    "Partition",
    "PhiObservable",
    "RatioEstimate",
    "ResourceBoundError",
    "SchurSpecialization",
    "StableRangeError",
    "Tolerances",
    "TraceProductObservable",
    "TwistedObservable",
    "TwistedPhiObservable",
    "BranchingTarget",
    "branching_decomposition",
    "character_table",
    "character_value",
    "estimate",
    "estimate_many",
    "estimate_ratio",
    "even_partitions_of",
    "expect_phi_series",
    "expect_trace_product",
    "expect_twisted",
    "fpf_involutions_lds",
    "g_bruteforce",
    "g_closed",
    "induction_product",
    "inner_product",
    "irreducible",
    "johansson_limit",
    "lr_coefficient",
    "partitions_of",
    "power_sum_expansion",
    "ratio_schur_specialization",
    "schur_product",
    "sgn",
    "sub_splittings",
    "twisted_asymptotic",
    "weyl_dimension",
    "z",
]
