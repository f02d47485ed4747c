"""The Monte Carlo redraw thresholds.

A draw whose power traces, eigenvalue pairing or Weyl denominator fails one
of these checks is redrawn.  The values are constants: the estimators read
`DEFAULT_TOLERANCES` each time they run, and `mc-verify` echoes it as
`mc.tolerances` in its JSON output.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Tolerances:
    # a sample is redrawn when any of these checks fails
    trace_imag: float = 1e-8  # imaginary part of a power trace
    pairing: float = 1e-6  # conjugate pairing of the eigenvalues
    denominator_min: float = 1e-12  # floor on the Weyl denominator

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


DEFAULT_TOLERANCES = Tolerances()
