"""Reduction-stage calculus and joint torque/resolution bookkeeping.

All functions are pure and operate on the immutable model types. The capstan
relations::

    h = t * gamma + delta        (stacked cable height on the sheave)
    s = 1.5 * t                  (groove spacing)
    gamma_rotating   = D / D0    (output pulley turns with the joint)
    gamma_stationary = D / D0 + 1  (sheave orbits a fixed pulley)

use ``D0`` for the small driven sheave and ``D`` for the large pulley,
regardless of how a particular datasheet labels its symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import ComputationError, fixed, require_finite

if TYPE_CHECKING:
    import numpy as np

    from .model import ArmDescription, CapstanGeometry, JointDrive, MotorSpec


class StageKind(NamedTuple):
    """What a reduction stage's ``kind`` means."""

    label: str  # the mechanism's name in the torque table
    capstan_mode: Optional[str]  # a capstan's geometry mode; None: no geometry


#: Every stage kind an arm file may name.
STAGE_KINDS = {
    "capstan_rotating": StageKind("Capstan", "rotating"),
    "capstan_stationary": StageKind("Capstan", "stationary"),
    "belt": StageKind("Belt", None),
    "gear": StageKind("Gear", None),
    "cable": StageKind("Cable", None),
}


@dataclass(frozen=True)
class TorqueTableRow:
    """One joint's torque bookkeeping line.

    ``annotation`` is non-None when the config's ``listed_max_torque``
    disagrees with ``holding_torque x total_reduction``; it carries both
    numbers so downstream tooling can see the conflict machine-readably.
    """

    joint_index: int
    motor: str
    holding_torque: float
    mechanism: str
    total_reduction: float
    max_joint_torque: float
    listed_max_torque: Optional[float] = None
    annotation: Optional[str] = None


def _diameters_ok(geom: CapstanGeometry) -> bool:
    """Whether the diameters obey the one capstan rule, pulley ``D >=``
    sheave ``D0 > 0``, of :func:`capstan_reduction` and
    ``model.validate_arm``."""
    return geom.pulley_diameter >= geom.sheave_diameter > 0


def capstan_reduction(geom: CapstanGeometry) -> float:
    """Reduction ratio of a capstan stage.

    Args:
        geom: capstan geometry; ``mode`` selects the regime.

    Returns:
        D/D0 for a rotating output pulley; D/D0 + 1 when the pulley is
        stationary and the sheave orbits it.

    Raises:
        ComputationError: if the diameters are not ``D >= D0 > 0`` or the
            mode is unknown.
    """
    d0, d = geom.sheave_diameter, geom.pulley_diameter
    if not _diameters_ok(geom):
        raise ComputationError(
            f"invalid capstan geometry: need pulley {d} >= sheave {d0} > 0")
    if geom.mode == "rotating":
        return d / d0
    if geom.mode == "stationary":
        return d / d0 + 1.0
    raise ComputationError(f"unknown capstan mode {geom.mode!r}")


def sheave_height(geom: CapstanGeometry, gamma: float) -> float:
    """Stacked cable height on the sheave: ``t * gamma + delta`` (m)."""
    t, delta = geom.cable_thickness, geom.tolerance
    require_finite(gamma, "gamma", "> 0", ComputationError)
    require_finite(t, "cable thickness", error=ComputationError)
    require_finite(delta, "tolerance", ">= 0", ComputationError)
    return t * gamma + delta


def sheave_spacing(t: float) -> float:
    """Groove spacing for cable thickness ``t``: 1.5 t (m)."""
    require_finite(t, "cable thickness", ">= 0", ComputationError)
    return 1.5 * t


def windings_required(gamma: float, output_range_deg: float) -> float:
    """Cable windings needed on the sheave to cover an output range.

    Returned as a real number; round up when budgeting cable length.
    """
    require_finite(gamma, "gamma", "> 0", ComputationError)
    require_finite(output_range_deg, "output range", "> 0", ComputationError)
    windings = gamma * output_range_deg / 360.0
    if not math.isfinite(windings):
        raise ValueError(f"{output_range_deg} deg at reduction {gamma} needs "
                         f"more windings than a float holds")
    return windings


def total_reduction(drive: JointDrive) -> float:
    """Product of stage ratios; 1.0 for an empty stage list (direct drive)."""
    ratio = 1.0
    for s in drive.stages:
        ratio *= s.ratio
    return ratio


def max_joint_torque(drive: JointDrive) -> float:
    """Static output torque budget: holding torque x total reduction (N.m)."""
    return drive.motor.holding_torque * total_reduction(drive)


def joint_resolution(drive: JointDrive) -> float:
    """Output angle per microstep (degrees), in float arithmetic."""
    steps = float(drive.motor.steps_per_rev) * drive.microstep_factor
    if steps < 1:
        raise ComputationError("steps_per_rev x microstep_factor must be >= 1")
    return 360.0 / (steps * total_reduction(drive))


def listed_torque_conflicts(drive: JointDrive) -> bool:
    """Whether ``drive.listed_max_torque`` is set and differs from holding
    torque x total reduction by more than 5e-5 N.m."""
    listed = drive.listed_max_torque
    return listed is not None and abs(listed - max_joint_torque(drive)) > 5e-5


def motor_torque_at(motor: MotorSpec, rate: float) -> float:
    """Available motor torque at a step rate via the piecewise-linear curve.

    Rates beyond the last knot hold the last value; negative rates clamp to 0.
    Every budget at a rate comes through here, so a NaN or infinite rate is
    refused here, by one scalar test (ValueError).
    """
    import numpy as np

    if not math.isfinite(rate):
        raise ValueError(f"step rate must be finite, got {rate!r}")
    curve = motor.torque_speed_curve
    rates = [p[0] for p in curve]
    torqs = [p[1] for p in curve]
    return float(np.interp(max(rate, 0.0), rates, torqs))


def available_joint_torque(drive: JointDrive, rate: float = 0.0) -> float:
    """Joint-side torque available at a commanded motor step rate (N.m)."""
    return motor_torque_at(drive.motor, rate) * total_reduction(drive)


def _mechanism_label(drive: JointDrive) -> str:
    if not drive.stages:
        return "Direct"
    return " + ".join(STAGE_KINDS[s.kind].label if s.kind in STAGE_KINDS
                      else s.kind for s in drive.stages)


def torque_table(arm: ArmDescription) -> list[TorqueTableRow]:
    """Per-joint torque bookkeeping, ordered by joint index.

    Rows whose configured ``listed_max_torque`` conflicts with the computed
    product carry an annotation naming both values; the computed value is the
    one reported in ``max_joint_torque``. The annotation also names the
    reduction the listed figure implies, where that is a finite number.
    """
    rows = []
    for j in range(1, 7):
        drive = arm.drive(j)
        computed = max_joint_torque(drive)
        listed = drive.listed_max_torque
        annotation = None
        if listed_torque_conflicts(drive):
            chain = listed / drive.motor.holding_torque
            annotation = (
                f"listed value {listed} N.m conflicts with holding x reduction = "
                f"{fixed(computed, 5)} N.m" + (
                    f" (listed figure matches a {fixed(chain, 2)}:1 chain)"
                    if math.isfinite(chain) else ""))
        rows.append(TorqueTableRow(
            joint_index=j,
            motor=drive.motor.name,
            holding_torque=drive.motor.holding_torque,
            mechanism=_mechanism_label(drive),
            total_reduction=total_reduction(drive),
            max_joint_torque=computed,
            listed_max_torque=listed,
            annotation=annotation,
        ))
    return rows


def resolution_table(arm: ArmDescription) -> list[tuple[int, float, float]]:
    """(joint, total reduction, degrees per microstep) per joint."""
    out = []
    for j in range(1, 7):
        d = arm.drive(j)
        out.append((j, total_reduction(d), joint_resolution(d)))
    return out


def microstep_sizes(arm: ArmDescription) -> np.ndarray:
    """Output-side microstep size per joint (radians)."""
    import numpy as np

    return np.array([math.radians(joint_resolution(arm.drive(j)))
                     for j in range(1, 7)])
