"""Exact moments of trace products and twisted exponential class functions
over the compact classical groups, with a Monte Carlo cross-check harness.

The package root exports the query entry points; everything else is
imported from its module.
"""

from __future__ import annotations

from .characters import character_table
from .expectations import expect_trace_product, expect_twisted
from .groups import Family, GroupSpec
from .lr import branching_decomposition, lr_coefficient
from .matchings import fpf_involutions_lds, g_bruteforce, g_closed
from .montecarlo import (
    CharacterProductObservable,
    PhiObservable,
    TraceProductObservable,
    TwistedObservable,
    TwistedPhiObservable,
    estimate,
    estimate_many,
    estimate_ratio,
)
from .partitions import Partition, partitions_of
from .szego import (
    FourierData,
    SchurSpecialization,
    expect_phi_series,
    johansson_limit,
    twisted_asymptotic,
)

__version__ = "0.1.0"

__all__ = [
    "CharacterProductObservable",
    "Family",
    "FourierData",
    "GroupSpec",
    "Partition",
    "PhiObservable",
    "SchurSpecialization",
    "TraceProductObservable",
    "TwistedObservable",
    "TwistedPhiObservable",
    "branching_decomposition",
    "character_table",
    "estimate",
    "estimate_many",
    "estimate_ratio",
    "expect_phi_series",
    "expect_trace_product",
    "expect_twisted",
    "fpf_involutions_lds",
    "g_bruteforce",
    "g_closed",
    "johansson_limit",
    "lr_coefficient",
    "partitions_of",
    "twisted_asymptotic",
]
