"""Exception hierarchy shared across the package.

Callers that want to distinguish "you asked outside the validity range"
from "the package caught itself being inconsistent" should catch the
specific subclasses; everything here derives from LieMomentsError so a
blanket handler is also possible.
"""

from __future__ import annotations


class LieMomentsError(Exception):
    """Base class for package-specific failures."""


class ResourceBoundError(LieMomentsError):
    """An enumeration or table build was requested beyond its size guard."""


class StableRangeError(LieMomentsError):
    """A second exact route was requested where only one exists.

    Below the range of `GroupSpec.closed_form_holds` King's rule gives
    every average exactly, but at a nonempty label nothing checks it, so
    verification refuses rather than report an unchecked value as verified.
    Route B, the splitting sum, refuses every cell below the range.
    """


class ConsistencyError(LieMomentsError):
    """Two independent computation routes disagreed.

    This always indicates a bug in the package (or a corrupted cache), never
    a user error, which is why it gets its own exit code in the CLI.
    """


class DegeneracyError(LieMomentsError):
    """Monte Carlo sampling hit numerically degenerate configurations too often."""
