"""Design and analysis toolkit for a 6-DoF cable/capstan desktop arm.

Covers the rigid kinematics (FK/IK/Jacobian/workspace), drivetrain
reduction and resolution math, static gravity-load and payload analysis,
a seeded Monte-Carlo repeatability simulator, an exact-arithmetic
bill-of-materials engine, and a CLI tying them together.
"""

import importlib

from ._version import __version__
from .errors import (
    BomDataError,
    ComputationError,
    ConfigError,
    DegenerateFitError,
    EmptyCloudError,
    NoConvergenceError,
    OutputError,
    ResourceLimitError,
    ToolkitError,
    UnreachableTargetError,
    ValidationError,
)

#: Physical results quoted for the reference build that a desk-scale
#: software artifact cannot re-derive. They appear in this toolkit only as
#: recorded constants or calibration inputs, never as computed outputs:
#:
#: * the bench payload limit of 0.63 kg (friction and step loss on real
#:   hardware; the statics module predicts the torque-limited capacity,
#:   which is a different quantity; the release gate compares the two
#:   within +-5% as a consistency check, not as a reproduction),
#: * dial-indicator repeatability measurements (0.286-0.587 mm stds,
#:   0.467 mm mean deviation) -- consumed as noise-calibration anchors,
#: * finite-element factors of safety for the printed structure
#:   (4.38 upper arm, 1.57 forearm),
#: * sliced filament weight of 1080.21 g per printed arm -- consumed as
#:   data by the spool budget.
NOT_REPRODUCED_AT_DESK_SCALE = (
    "measured payload limit 0.63 kg",
    "dial-indicator repeatability measurements (0.286-0.587 mm, mean 0.467 mm)",
    "finite-element factors of safety 4.38 (upper arm) and 1.57 (forearm)",
    "sliced filament weight 1080.21 g per printed arm",
)

#: Where each lazily resolved public name lives: its submodule, in the
#: order of ``__all__``.
_EXPORTS = {
    "model": (
        "ArmDescription", "CapstanGeometry", "DHRow", "JointDrive",
        "JointLimits", "MassModel", "MotorSpec", "TransmissionStage",
        "default_arm", "dump_arm", "load_arm", "resolve_arm", "validate_arm"),
    "kinematics": (
        "IKOptions", "Pose", "WorkspaceCloud", "azimuth_span",
        "below_base_fraction", "fk_frames", "forward_kinematics",
        "inverse_kinematics", "jacobian", "max_reach", "sample_workspace"),
    "drivetrain": (
        "TorqueTableRow", "capstan_reduction", "joint_resolution",
        "max_joint_torque", "resolution_table", "sheave_height",
        "sheave_spacing", "torque_table", "total_reduction",
        "windings_required"),
    "statics": (
        "PayloadResult", "StaticLoadReport", "gravity_torques", "max_payload",
        "static_report"),
    "steppersim": (
        "MotionCycle", "NoiseModel", "RepeatabilityResult", "calibrate_noise",
        "default_noise", "repeatability_experiment", "simulate_cycle"),
    "bom": (
        "BillOfMaterials", "BomLine", "batch_total", "cable_budget",
        "default_bom", "filament_spools", "load_bom", "per_arm_cost"),
}

#: The name -> submodule table that :func:`__getattr__` reads; each
#: submodule also resolves under its own name.
_HOME = {**{name: mod for mod, names in _EXPORTS.items() for name in names},
         **{mod: mod for mod in (*_EXPORTS, "_kernels", "_wrist", "cli",
                                 "svgplot")}}

#: The public numeric submodules. Resolving one of them, or a name from
#: one, imports ``cli`` first, and with it every numeric module: what
#: ``import armkit`` loaded before it was lazy, so that a tool wrapping
#: the toolkit's functions module by module (the benchmark's span
#: recorder) finds all of them loaded. ``cli`` takes names from ``model``
#: and ``kinematics`` as it loads, so neither they nor a module they import
#: may bring in one of these with ``from . import``: that would enter
#: ``cli`` while the module is half loaded.
_WITH_CLI = frozenset(("kinematics", "statics", "steppersim"))

__all__ = [
    "__version__",
    "NOT_REPRODUCED_AT_DESK_SCALE",
    # errors
    "ToolkitError", "ConfigError", "ValidationError", "ComputationError",
    "UnreachableTargetError", "NoConvergenceError", "DegenerateFitError",
    "EmptyCloudError", "ResourceLimitError", "BomDataError", "OutputError",
    *(name for names in _EXPORTS.values() for name in names),
    # cli module
    "cli",
]


def __getattr__(name: str):
    """Import the submodule that holds ``name`` on first use and keep the
    resolved value as a module global (PEP 562)."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if home in _WITH_CLI:
        importlib.import_module(".cli", __name__)
    module = importlib.import_module("." + home, __name__)
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
