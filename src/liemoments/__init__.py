"""Exact moments of trace products and twisted exponential class functions
over the compact classical groups, with a Monte Carlo cross-check harness.

The package root exports the query entry points; everything else is
imported from its module.  The exact modules run in pure `Fraction`
arithmetic and never load numpy, so the Monte Carlo names resolve on first
access (PEP 562): importing the package or any exact entry point leaves
numpy unloaded until an estimate is asked for.
"""

from __future__ import annotations

from .characters import character_table
from .expectations import expect_trace_product, expect_twisted
from .groups import Family, GroupSpec
from .lr import branching_decomposition, lr_coefficient
from .matchings import fpf_involutions_lds, g_bruteforce, g_closed
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


def __getattr__(name: str):
    # the names of __all__ that the imports above leave unbound are those of
    # `montecarlo`, which imports numpy, so they are bound on first access
    if name in __all__:
        from . import montecarlo

        value = globals()[name] = getattr(montecarlo, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
