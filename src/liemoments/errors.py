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
    """An exact formula was requested outside the rank range where it is valid.

    The closed-form group averages hold only where
    `GroupSpec.closed_form_holds` says so, a matrix size set by the weights
    of the trace product and of the twisting label.  Below that range the
    correct value generally differs, so we refuse rather than silently
    return the stable answer.
    """


class ConsistencyError(LieMomentsError):
    """Two independent computation routes disagreed.

    This always indicates a bug in the package (or a corrupted cache), never
    a user error, which is why it gets its own exit code in the CLI.
    """


class DegeneracyError(LieMomentsError):
    """Monte Carlo sampling hit numerically degenerate configurations too often."""
