"""Exception hierarchy for the toolkit.

Every error that can surface through the CLI maps to a stable exit code so
scripts can branch on failure class. The mapping lives in ``cli.EXIT_CODES``
and is documented in the README. :func:`require_finite` is the one check
the modules share for non-finite and wrongly signed inputs, and
:func:`fixed` the one rule for writing a number in a table or message.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(ToolkitError):
    """Arm description file is malformed, unparseable, or invalid."""


class ValidationError(ConfigError):
    """An arm description violates a model invariant.

    Carries the machine-readable violation list produced by
    :func:`armkit.model.validate_arm`.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(f"{v.code} at {v.path}: {v.message}" for v in self.violations)
        super().__init__(f"arm description failed validation: {lines}")


class ComputationError(ToolkitError):
    """A numeric routine could not produce a result."""


class UnreachableTargetError(ComputationError):
    """IK residual stagnated above tolerance; target is outside the
    reachable set (or unreachable at the requested orientation).

    ``best_residual`` is the best ``(position_m, orientation_rad)`` error
    pair seen across all attempts, or None when the target was rejected
    before iterating (reach-bound precheck).
    """

    def __init__(self, message, best_residual):
        super().__init__(message)
        self.best_residual = best_residual


class NoConvergenceError(ComputationError):
    """Iteration budget exhausted while the residual was still improving, or
    no pose of a payload analysis bounds the payload.

    ``best_residual`` follows the same ``(position_m, orientation_rad)``
    convention as :class:`UnreachableTargetError` for IK.
    """

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class DegenerateFitError(ComputationError):
    """Calibration data does not determine the model (e.g. all speeds equal)."""


class EmptyCloudError(ComputationError):
    """A workspace statistic was requested on an empty point cloud."""


class ResourceLimitError(ToolkitError):
    """Requested sample count exceeds the configured cap."""


class BomDataError(ToolkitError):
    """BOM file is malformed or a stated line total contradicts
    quantity x unit cost."""


class OutputError(ToolkitError):
    """Failed to write a requested output file."""


def require_finite(value, what: str, sign: str = "",
                   error: type = ValueError) -> np.ndarray:
    """``value`` as a float array, if every entry is finite and, for a
    ``sign`` of ``"> 0"`` or ``">= 0"``, has that sign.

    Raises:
        ``error`` with a message naming ``what``.
    """
    import numpy as np

    arr = np.asarray(value, dtype=float)
    ok = np.isfinite(arr)
    if sign:
        ok &= {"> 0": np.greater, ">= 0": np.greater_equal}[sign](arr, 0)
    if not ok.all():
        rule = f" and {sign}" if sign else ""
        raise error(f"{what} must be finite{rule}, got {arr.tolist()!r}")
    return arr


def fixed(value: float, decimals: int, width: int = 0) -> str:
    """``value`` right-aligned in ``width`` columns with ``decimals``
    decimals; or, where fixed point would run to eleven or more digits
    before the point, in exponent form, with as many digits as fit a
    positive value with a three-digit exponent in ``width`` columns (with
    ``decimals`` digits for no width)."""
    if abs(value) >= 1e10:
        return f"{value:>{width}.{width - 7 if width else decimals}e}"
    return f"{value:>{width}.{decimals}f}"
