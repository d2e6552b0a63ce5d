"""Exception types raised across the engine.

Input and validation problems (bad shapes, bad values, unparseable
documents) are kept distinct from numerical failures (infeasible
calibration rows, degenerate rankings) so the CLI can map them to
different exit codes.
"""

from __future__ import annotations


class CrossImpactError(Exception):
    """Base class for all engine errors."""


class ShapeError(CrossImpactError):
    """Dimensions of matrices/vectors do not agree."""


class DomainError(CrossImpactError):
    """A numeric argument is outside its admissible domain (or non-finite)."""


class SequencingError(CrossImpactError):
    """Timestamps of the inputs do not form the required consecutive chain."""


class InputError(CrossImpactError):
    """A call argument is unusable (too short a series, bad horizon, ...)."""


class ValidationError(CrossImpactError):
    """One or more semantic violations, collected rather than fail-fast."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ParseError(CrossImpactError):
    """A document could not be parsed; the message names the offending
    line/cell where that is known."""


class InfeasibleRowError(CrossImpactError):
    """A calibration row has no solution (all-zero strengths, nonzero target)."""


class DegenerateRankingError(CrossImpactError):
    """The observation matrix carries no variance; all subsystems are tied."""
