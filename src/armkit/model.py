"""Arm data model: load, validate, and serialize a complete arm description.

The arm description is a YAML file with four sections (``dh``, ``limits``,
``drives``, ``mass_model``) plus a required ``schema_version`` key. Angles in
the file may be plain numbers (radians) or strings with an explicit unit
suffix, e.g. ``"90 deg"`` or ``"1.5707 rad"``; everything is stored in
radians/meters/kilograms internally. All other modules treat the loaded
:class:`ArmDescription` as read-only.

Kinematic convention
--------------------
Row ``i`` of the ``dh`` table contributes the link transform

    T_i = Rz(theta_i + theta_offset) * Dz(d) * Dx(a_prev) * Rx(alpha_prev)

composed left to right from the base. Joint ``i`` therefore rotates about the
z-axis of frame ``i-1``. The shipped default chain carries the two roll-link
lengths (forearm and tool) in ``d`` so that those joints spin about their own
links; see the README for the full rationale.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import os
from dataclasses import dataclass, field
from importlib import resources
from typing import TYPE_CHECKING, Optional

import yaml

from . import drivetrain
from .errors import ConfigError, ValidationError, fixed

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger("armkit")

SCHEMA_VERSION = 1
DEFAULT_STEPS_PER_REV = 200
#: Plausibility reference for the total structural + motor mass (kg).
REFERENCE_TOTAL_MASS = 3.5

ENV_ARM_CONFIG = "ARMKIT_ARM_CONFIG"

#: Parses arm YAML: PyYAML's libyaml parser, about 5x faster than the
#: pure-Python ``SafeLoader`` on the shipped arm, where PyYAML was built
#: with it. Both build the same safe types.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DHRow:
    """One row of the kinematic table (radians / meters)."""

    theta_offset: float
    alpha_prev: float
    a_prev: float
    d: float


@dataclass(frozen=True)
class JointLimits:
    """Inclusive joint travel range in radians."""

    min: float
    max: float


@dataclass(frozen=True)
class CapstanGeometry:
    """Cable capstan stage geometry (meters).

    ``sheave_diameter`` is the small driven drum the cable winds around;
    ``pulley_diameter`` is the large output drum. ``tolerance`` is the
    assembly clearance added to the stacked cable height.
    """

    sheave_diameter: float
    pulley_diameter: float
    cable_thickness: float
    tolerance: float = 0.002
    mode: str = "rotating"  # {"rotating", "stationary"}


@dataclass(frozen=True)
class TransmissionStage:
    """One reduction stage: kind, ratio, and geometry for capstan kinds."""

    kind: str
    ratio: float
    geometry: Optional[CapstanGeometry] = None


@dataclass(frozen=True)
class MotorSpec:
    """Stepper motor parameters.

    ``torque_speed_curve`` is a piecewise-linear map from step rate (steps/s)
    to available torque (N.m); it must start at (0, holding_torque) and be
    non-increasing. Rates beyond the last knot hold the last value.
    ``mass_source`` is ``"placeholder"`` until the value is replaced from the
    vendor datasheet; the loader warns while it is a placeholder.
    """

    name: str
    holding_torque: float
    steps_per_rev: int
    torque_speed_curve: tuple[tuple[float, float], ...]
    mass: float
    mass_source: str = "datasheet"
    steps_per_rev_is_default: bool = False


@dataclass(frozen=True)
class JointDrive:
    """Motor plus ordered reduction stages for one joint.

    ``listed_max_torque`` is the output-torque figure recorded in the config
    (vendor-style spec sheet value). When it disagrees with
    ``holding_torque x total reduction`` the loader emits a notice and the
    torque table annotates the row instead of silently using either number.
    """

    joint_index: int
    motor: MotorSpec
    stages: tuple[TransmissionStage, ...]
    microstep_factor: int
    listed_max_torque: Optional[float] = None


@dataclass(frozen=True)
class MassPoint:
    """Point mass riding on link ``frame`` (0 = stationary base).

    ``offset`` is measured in meters from the link's inboard frame origin
    along the link toward the next frame origin (for zero-length links, along
    the frame's z-axis).
    """

    frame: int
    mass: float
    offset: float
    label: str = ""


@dataclass(frozen=True)
class MotorPlacement:
    """Where drive ``drive``'s motor mass sits (same offset convention)."""

    drive: int
    frame: int
    offset: float


@dataclass(frozen=True)
class MassModel:
    """Structural masses, motor placements, payload, and gravity.

    ``reference_total`` (kg), when set, enables the plausibility check that
    structural plus motor mass stays within 10% of it.
    """

    links: tuple[MassPoint, ...]
    motors: tuple[MotorPlacement, ...]
    payload: float = 0.0
    gravity: float = 9.81
    reference_total: Optional[float] = REFERENCE_TOTAL_MASS


@dataclass(frozen=True)
class ArmDescription:
    """Complete parametric model of the arm; immutable after load."""

    name: str
    dh: tuple[DHRow, ...]
    limits: tuple[JointLimits, ...]
    drives: tuple[JointDrive, ...]
    mass_model: MassModel
    schema_version: int = SCHEMA_VERSION
    notices: tuple[str, ...] = ()

    def drive(self, joint_index: int) -> JointDrive:
        """Drive for 1-based ``joint_index``."""
        for d in self.drives:
            if d.joint_index == joint_index:
                return d
        raise KeyError(f"no drive with joint_index {joint_index}")


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by :func:`validate_arm`."""

    code: str
    path: str
    message: str


# --------------------------------------------------------------------------
# parsing helpers
# --------------------------------------------------------------------------

def _angle(value, path: str) -> float:
    """Angle from config: plain number = radians, or "X deg" / "X rad"."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _number(value, path)
    if isinstance(value, str):
        parts = value.strip().split()
        if len(parts) == 2 and parts[1] in ("deg", "rad"):
            try:
                num = float(parts[0])
            except ValueError:
                raise ConfigError(f"{path}: cannot parse angle {value!r}") from None
            return math.radians(num) if parts[1] == "deg" else num
    raise ConfigError(
        f"{path}: angle must be a number (radians) or 'X deg'/'X rad', got {value!r}"
    )


def _number(value, path: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int past the float range
            pass
    raise ConfigError(f"{path}: expected a number, got {value!r}")


def _integer(value, path: str) -> int:
    """A whole number; a fraction or a NaN/infinite value is an error, not
    truncated."""
    num = _number(value, path)
    if not num.is_integer():
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return int(num)


def _mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping")
    return value


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list")
    return value


def _require(mapping, key, path: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ConfigError(f"{path}: missing required key '{key}'")
    return mapping[key]


def _fields(raw, path: str, **parsers) -> dict:
    """Each required key of ``raw``, in order, read by its parser under
    ``f"{path}.{key}"``."""
    return {key: parse(_require(raw, key, path), f"{path}.{key}")
            for key, parse in parsers.items()}


def _optional(raw, path: str, **parsers) -> dict:
    """Like :func:`_fields` for the keys ``raw`` holds; a key it lacks is
    left out, so its dataclass default applies."""
    return {key: parse(raw[key], f"{path}.{key}")
            for key, parse in parsers.items() if key in raw}


def _text(value, path: str) -> str:
    return str(value)


def _flag(value, path: str) -> bool:
    return bool(value)


def _number_or_none(value, path: str) -> Optional[float]:
    return None if value is None else _number(value, path)


# --------------------------------------------------------------------------
# load / dump
# --------------------------------------------------------------------------

def _curve(value, path: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list")
    curve = []
    for k, pair in enumerate(value):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{path}[{k}]: expected [rate, torque]")
        curve.append((_number(pair[0], f"{path}[{k}][0]"),
                      _number(pair[1], f"{path}[{k}][1]")))
    return tuple(curve)


def _parse_motor(raw, path: str) -> tuple[MotorSpec, list[str]]:
    notices: list[str] = []
    fields = _fields(raw, path, torque_speed_curve=_curve, name=_text,
                     holding_torque=_number, mass=_number)
    if "steps_per_rev" in raw:
        fields.update(_optional(raw, path, steps_per_rev=_integer,
                                steps_per_rev_is_default=_flag))
    else:
        fields.update(steps_per_rev=DEFAULT_STEPS_PER_REV,
                      steps_per_rev_is_default=True)
    spec = MotorSpec(**fields, **_optional(raw, path, mass_source=_text))
    if spec.mass_source == "placeholder":
        notices.append(
            f"{path}.mass = {spec.mass} kg is a placeholder; replace it with the "
            "vendor datasheet value for your motors"
        )
    if spec.steps_per_rev_is_default:
        notices.append(
            f"{path}.steps_per_rev uses the {DEFAULT_STEPS_PER_REV} full-steps/rev "
            "default (standard 1.8-degree hybrid steppers); override if your "
            "motors differ"
        )
    return spec, notices


def _parse_stage(raw, path: str) -> TransmissionStage:
    fields = _fields(raw, path, kind=_text, ratio=_number)
    if raw.get("geometry") is not None:
        gp = f"{path}.geometry"
        g = _mapping(raw["geometry"], gp)
        geometry = {
            **_fields(g, gp, sheave_diameter=_number, pulley_diameter=_number,
                      cable_thickness=_number),
            **_optional(g, gp, tolerance=_number, mode=_text)}
        kind = drivetrain.STAGE_KINDS.get(fields["kind"])
        if kind and kind.capstan_mode and not geometry.get("mode"):
            geometry["mode"] = kind.capstan_mode  # no mode: the kind's
        fields["geometry"] = CapstanGeometry(**geometry)
    return TransmissionStage(**fields)


def load_arm_data(data: dict, source: str = "<dict>") -> ArmDescription:
    """Build and validate an :class:`ArmDescription` from parsed config data.

    Raises:
        ConfigError: on schema/shape problems.
        ValidationError: when the assembled model violates invariants.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: top level must be a mapping")
    version = _require(data, "schema_version", source)
    if not isinstance(version, int) or isinstance(version, bool):
        raise ConfigError(f"{source}: schema_version must be an integer")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{source}: unsupported schema_version {version} "
            f"(this toolkit reads version {SCHEMA_VERSION})"
        )

    notices: list[str] = []

    dh_raw = _require(data, "dh", source)
    if not isinstance(dh_raw, list):
        raise ConfigError(f"{source}.dh: expected a list of rows")
    dh = tuple(
        DHRow(**_fields(row, f"dh[{i}]", theta_offset=_angle,
                        alpha_prev=_angle, a_prev=_number, d=_number))
        for i, row in enumerate(dh_raw)
    )

    lim_raw = _list(_require(data, "limits", source), f"{source}.limits")
    limits = tuple(
        JointLimits(**_fields(row, f"limits[{i}]", min=_angle, max=_angle))
        for i, row in enumerate(lim_raw)
    )

    drives_raw = _list(_require(data, "drives", source), f"{source}.drives")
    drives = []
    for i, row in enumerate(drives_raw):
        dp = f"drives[{i}]"
        fields = _fields(row, dp, motor=_parse_motor, stages=_list,
                         joint_index=_integer, microstep_factor=_integer)
        fields["motor"], motor_notices = fields["motor"]
        notices.extend(motor_notices)
        fields["stages"] = tuple(_parse_stage(s, f"{dp}.stages[{k}]")
                                 for k, s in enumerate(fields["stages"]))
        drives.append(JointDrive(**fields, **_optional(
            row, dp, listed_max_torque=_number_or_none)))
    drives = tuple(drives)

    mm_raw = _mapping(_require(data, "mass_model", source),
                      f"{source}.mass_model")
    links = tuple(
        MassPoint(**_fields(row, f"mass_model.links[{i}]", frame=_integer,
                            mass=_number, offset=_number),
                  **_optional(row, f"mass_model.links[{i}]", label=_text))
        for i, row in enumerate(_list(mm_raw.get("links", []),
                                      "mass_model.links"))
    )
    motors = tuple(
        MotorPlacement(**_fields(row, f"mass_model.motors[{i}]",
                                 drive=_integer, frame=_integer,
                                 offset=_number))
        for i, row in enumerate(_list(mm_raw.get("motors", []),
                                      "mass_model.motors"))
    )
    mass_model = MassModel(
        links=links, motors=motors,
        **_optional(mm_raw, "mass_model", payload=_number, gravity=_number,
                    reference_total=_number_or_none))

    notices += [
        f"drive {d.joint_index}: listed_max_torque {d.listed_max_torque} N.m "
        f"is inconsistent with holding_torque x total reduction = "
        f"{fixed(drivetrain.max_joint_torque(d), 5)} N.m; the computed value "
        "is authoritative and the torque table annotates this row"
        for d in drives if drivetrain.listed_torque_conflicts(d)]

    arm = ArmDescription(
        name=str(data.get("name", "arm")),
        dh=dh,
        limits=limits,
        drives=drives,
        mass_model=mass_model,
        schema_version=version,
        notices=tuple(notices),
    )
    violations = validate_arm(arm)
    if violations:
        raise ValidationError(violations)
    for n in notices:
        log.warning("%s: %s", source, n)
    return arm


def load_arm(config_path: str) -> ArmDescription:
    """Load and validate an arm description from a YAML file.

    Args:
        config_path: path to the configuration file.

    Returns:
        Validated, immutable :class:`ArmDescription`. Loader notices
        (placeholder masses, defaulted fields, torque-listing conflicts) are
        attached as ``arm.notices`` and logged at WARNING level.
    """
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_YAML_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read arm config {config_path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{config_path}: YAML parse error: {exc}") from exc
    return load_arm_data(data, source=str(config_path))


def default_arm() -> ArmDescription:
    """The shipped desk-arm description (packaged data file)."""
    ref = resources.files("armkit").joinpath("data/default_arm.yaml")
    data = yaml.load(ref.read_text(encoding="utf-8"), Loader=_YAML_LOADER)
    return load_arm_data(data, source="builtin:default_arm.yaml")


def resolve_arm(selector: Optional[str]) -> tuple[ArmDescription, str]:
    """Resolve an arm per CLI rules: explicit path, else $ARMKIT_ARM_CONFIG,
    else the builtin default. Returns (arm, source label)."""
    if selector and selector != "default":
        return load_arm(selector), selector
    env = os.environ.get(ENV_ARM_CONFIG)
    if env:
        return load_arm(env), env
    return default_arm(), "builtin:default"


class _Dumper(yaml.SafeDumper):
    """Writes a tuple as a YAML list."""


_Dumper.add_representer(tuple, yaml.SafeDumper.represent_list)


def dump_arm(arm: ArmDescription, path: str) -> None:
    """Serialize an arm description to YAML: every dataclass field but
    ``notices``, in field order, ``None`` as ``null``.

    Numbers are written as plain radians/meters via Python float repr, so a
    dump/load round trip reproduces every field bit-exactly.
    """
    data = dataclasses.asdict(arm)
    del data["notices"]  # the loader derives them
    with open(path, "w", encoding="utf-8") as fh:
        yaml.dump(data, fh, Dumper=_Dumper, sort_keys=False)


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

def validate_arm(arm: ArmDescription) -> list[Violation]:
    """Check every model invariant; returns violations (empty = valid)."""
    v: list[Violation] = []

    def bad(code, path, message):
        v.append(Violation(code=code, path=path, message=message))

    def finite(path, value, code="mass.nonfinite"):
        """Records a violation and returns False for a NaN or infinite
        value."""
        ok = math.isfinite(value)
        if not ok:
            bad(code, path, "value must be finite")
        return ok

    if len(arm.dh) != 6:
        bad("dh.count", "dh", f"expected 6 rows, got {len(arm.dh)}")
    for i, row in enumerate(arm.dh):
        for name in ("theta_offset", "alpha_prev", "a_prev", "d"):
            finite(f"dh[{i}].{name}", getattr(row, name), "dh.nonfinite")
        if row.a_prev < 0 or row.d < 0:
            bad("dh.negative_length", f"dh[{i}]",
                "link lengths must be non-negative for this arm")

    if len(arm.limits) != 6:
        bad("limits.count", "limits", f"expected 6 entries, got {len(arm.limits)}")
    for i, lim in enumerate(arm.limits):
        ends = [finite(f"limits[{i}].{end}", getattr(lim, end),
                       "limits.nonfinite") for end in ("min", "max")]
        if all(ends) and not lim.min < lim.max:
            bad("limits.order", f"limits[{i}] (JointLimits)",
                f"min {lim.min} must be < max {lim.max}")

    if len(arm.drives) != 6:
        bad("drive.count", "drives", f"expected 6 drives, got {len(arm.drives)}")
    seen = set()
    for i, d in enumerate(arm.drives):
        dp = f"drives[{i}]"
        if not 1 <= d.joint_index <= 6:
            bad("drive.joint_index.range", dp,
                f"joint_index {d.joint_index} outside 1..6")
        if d.joint_index in seen:
            bad("drive.joint_index.duplicate", dp,
                f"joint_index {d.joint_index} appears more than once")
        seen.add(d.joint_index)
        if d.microstep_factor < 1:
            bad("drive.microstep", f"{dp}.microstep_factor", "must be >= 1")

        m = d.motor
        if d.listed_max_torque is not None:
            finite(f"{dp}.listed_max_torque", d.listed_max_torque,
                   "drive.nonfinite")
        reduction = drivetrain.total_reduction(d)
        if not 0 < m.holding_torque * reduction < math.inf:
            bad("drive.torque_budget", dp,
                "holding_torque x total reduction must be finite and > 0")
        elif m.steps_per_rev >= 1 and d.microstep_factor >= 1 and not (
                0 < 360.0 / (float(m.steps_per_rev) * d.microstep_factor
                             * reduction) < math.inf):
            bad("drive.resolution", dp,
                "degrees per microstep must be finite and > 0")
        if finite(f"{dp}.motor.holding_torque", m.holding_torque,
                  "motor.nonfinite") and not m.holding_torque > 0:
            bad("motor.holding_torque", f"{dp}.motor.holding_torque", "must be > 0")
        if finite(f"{dp}.motor.mass", m.mass) and m.mass < 0:
            bad("motor.mass.negative", f"{dp}.motor.mass (MassModel)",
                "motor mass must be >= 0")
        if m.steps_per_rev < 1:
            bad("motor.steps_per_rev", f"{dp}.motor.steps_per_rev", "must be >= 1")
        curve = m.torque_speed_curve
        cp = f"{dp}.motor.torque_speed_curve"
        if not curve:
            bad("motor.curve.empty", cp, "curve needs at least one point")
        elif all([finite(f"{cp}[{k}][{j}]", x, "motor.nonfinite")
                  for k, point in enumerate(curve)
                  for j, x in enumerate(point)]):
            if abs(curve[0][0]) > 1e-12 or abs(curve[0][1] - m.holding_torque) > 1e-12:
                bad("motor.curve.origin", cp,
                    "curve must start at (0, holding_torque)")
            rates = [p[0] for p in curve]
            torqs = [p[1] for p in curve]
            if any(b <= a for a, b in zip(rates, rates[1:])):
                bad("motor.curve.rates", cp, "rates must be strictly increasing")
            if any(b > a + 1e-12 for a, b in zip(torqs, torqs[1:])):
                bad("motor.curve.increasing", cp,
                    "torque must be non-increasing with rate")

        for k, s in enumerate(d.stages):
            sp = f"{dp}.stages[{k}] (TransmissionStage)"
            kind = drivetrain.STAGE_KINDS.get(s.kind)
            if kind is None:
                bad("stage.kind", sp, f"unknown stage kind {s.kind!r}")
            if finite(f"{dp}.stages[{k}].ratio", s.ratio,
                      "stage.nonfinite") and not s.ratio > 0:
                bad("stage.ratio", sp, "ratio must be > 0")
            expect_mode = kind.capstan_mode if kind else None
            is_capstan = expect_mode is not None
            if is_capstan and s.geometry is None:
                bad("stage.capstan.geometry_missing", sp,
                    "capstan stages require geometry")
            if not is_capstan and s.geometry is not None:
                bad("stage.capstan.geometry_unexpected", sp,
                    "geometry only belongs on capstan stages")
            if is_capstan and s.geometry is not None:
                g = s.geometry
                gp = f"{dp}.stages[{k}].geometry"
                for name in ("sheave_diameter", "pulley_diameter",
                             "cable_thickness", "tolerance"):
                    finite(f"{gp}.{name}", getattr(g, name), "capstan.nonfinite")
                if g.mode != expect_mode:
                    bad("stage.capstan.mode_mismatch", gp,
                        f"geometry mode {g.mode!r} vs stage kind {s.kind!r}")
                if not (g.pulley_diameter > g.sheave_diameter > 0):
                    bad("capstan.diameters", gp,
                        "need pulley_diameter > sheave_diameter > 0")
                if not g.cable_thickness > 0:
                    bad("capstan.thickness", gp, "cable thickness must be > 0")
                if g.tolerance < 0:
                    bad("capstan.tolerance", gp, "tolerance must be >= 0")
                if (g.pulley_diameter > g.sheave_diameter > 0
                        and g.mode == expect_mode):
                    ratio_geom = drivetrain.capstan_reduction(g)
                    if abs(ratio_geom - s.ratio) > 1e-9:
                        bad("stage.capstan.ratio_mismatch", sp,
                            f"stage ratio {s.ratio!r} differs from geometry-derived "
                            f"{ratio_geom!r} by more than 1e-9")

    mm = arm.mass_model
    drive_ids = {d.joint_index for d in arm.drives}
    for i, link in enumerate(mm.links):
        lp = f"mass_model.links[{i}] (MassModel)"
        if finite(f"mass_model.links[{i}].mass", link.mass) and link.mass < 0:
            bad("mass.negative", lp, "link mass must be >= 0")
        finite(f"mass_model.links[{i}].offset", link.offset)
        if not 0 <= link.frame <= 6:
            bad("mass.frame.range", lp, f"frame {link.frame} outside 0..6")
    for i, pl in enumerate(mm.motors):
        pp = f"mass_model.motors[{i}] (MassModel)"
        if pl.drive not in drive_ids:
            bad("mass.motor_placement.drive", pp, f"no drive {pl.drive}")
        if not 0 <= pl.frame <= 6:
            bad("mass.frame.range", pp, f"frame {pl.frame} outside 0..6")
        finite(f"mass_model.motors[{i}].offset", pl.offset)
    if finite("mass_model.payload", mm.payload) and mm.payload < 0:
        bad("mass.negative", "mass_model.payload (MassModel)", "payload must be >= 0")
    if finite("mass_model.gravity", mm.gravity) and not mm.gravity > 0:
        bad("mass.gravity", "mass_model.gravity", "gravity must be > 0")
    if mm.reference_total is not None and len(arm.drives) == 6 and not v:
        total = total_modeled_mass(arm)
        lo, hi = 0.9 * mm.reference_total, 1.1 * mm.reference_total
        if not lo <= total <= hi:
            bad("mass.total_band", "mass_model (MassModel)",
                f"structural+motor mass {fixed(total, 5)} kg outside 10% of the "
                f"reference total {mm.reference_total} kg")
    return v


def total_modeled_mass(arm: ArmDescription) -> float:
    """Sum of structural link masses and placed motor masses (kg)."""
    total = sum(p.mass for p in arm.mass_model.links)
    for pl in arm.mass_model.motors:
        total += arm.drive(pl.drive).motor.mass
    return total


# --------------------------------------------------------------------------
# array views used by the numeric modules
# --------------------------------------------------------------------------

def dh_params(arm: ArmDescription) -> np.ndarray:
    """(6, 4) float64 array of [theta_offset, d, a_prev, alpha_prev] rows."""
    import numpy as np

    return np.array(
        [[r.theta_offset, r.d, r.a_prev, r.alpha_prev] for r in arm.dh],
        dtype=np.float64,
    )


def limits_array(arm: ArmDescription) -> np.ndarray:
    """(6, 2) [min, max] in radians."""
    import numpy as np

    return np.array([[l.min, l.max] for l in arm.limits], dtype=np.float64)
