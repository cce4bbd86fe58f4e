"""Exception hierarchy shared by every module in the package."""

from __future__ import annotations


class ErgoptError(RuntimeError):
    """Base class for all package-specific errors."""


class ForbiddenTransition(ErgoptError):
    """A symbol was prepended or appended against the transition matrix."""


class NegativeCycle(ErgoptError):
    """Path costs admit a negative cycle, so minimal costs are unbounded."""


class NotTransitive(ErgoptError):
    """Operation requires a strongly connected transition structure."""


class NotSubaction(ErgoptError):
    """A node function violates the defining edge inequality."""


class NotCalibrated(ErgoptError):
    """A node function is a sub-action but not a Bellman fixed point."""


class NonConvergence(ErgoptError):
    """The discount schedule reached its cap k_max before a policy was shown bias-optimal."""


class NotHolonomic(ErgoptError):
    """Measure fails the conservation or anchoring requirements."""


class InfeasibleTarget(ErgoptError):
    """Constraint target lies outside the admissible moment set."""


class NotInOmega(ErgoptError):
    """Point is outside the non-wandering set of the potential."""


class HypothesisFails(ErgoptError):
    """Construction hypothesis not met (e.g. no strictly slack edge)."""


class HorizonTooSmall(ErgoptError):
    """Brute-force enumeration found no admissible path within its horizon."""


class OracleBudgetExceeded(ErgoptError):
    """Brute-force search would expand more states than its budget allows."""


class ClassCountMismatch(ErgoptError):
    """Boundary data does not provide one value per critical class."""


class ConfigError(ErgoptError):
    """Configuration text is malformed; carries line/field diagnostics."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        parts = []
        if line is not None:
            parts.append(f"line {line}")
        if field is not None:
            parts.append(f"field {field!r}")
        full = f"{message} [{', '.join(parts)}]" if parts else message
        super().__init__(full)
        self.line = line
        self.field = field
