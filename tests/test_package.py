"""The lazy package: what ``import armkit`` and one CLI call load, the public
names it resolves, and the functions that import numpy where they run."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import armkit
from armkit import drivetrain, model
from armkit.errors import ComputationError, require_finite

_SRC = str(Path(armkit.__file__).resolve().parents[1])

#: Modules that loading an arm must not import.
_NOT_FOR_THE_LOADER = ("numpy", "armkit.kinematics", "armkit.statics",
                       "armkit.steppersim", "armkit._kernels", "armkit._wrist",
                       "armkit.bom", "armkit.svgplot", "armkit.cli")


def _fresh(code: str, *args: str, cwd: Path | None = None) -> str:
    """What ``code`` prints on stdout in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def _loaded(names) -> str:
    """Code that prints which of ``names`` are in ``sys.modules``."""
    return (f"print(sorted(m for m in {tuple(names)!r} "
            f"if m in __import__('sys').modules))")


# ---------------------------------------------------------------------------
# import sets
# ---------------------------------------------------------------------------

def test_loading_an_arm_imports_no_numpy_and_no_compute_module(
        tmp_path: Path) -> None:
    code = ("import sys\nimport armkit\narm = armkit.model.default_arm()\n"
            "armkit.dump_arm(arm, sys.argv[1])\n"
            "assert armkit.load_arm(sys.argv[1]) == arm\n"
            + _loaded(_NOT_FOR_THE_LOADER))
    assert _fresh(code, str(tmp_path / "arm.yaml")) == "[]"


def test_fk_without_out_loads_no_bom_plot_hash_or_json() -> None:
    code = ("from armkit.cli import run\n"
            "assert run(['fk', '--q', '0,0,0,0,0,0']) == 0\n"
            + _loaded(("armkit.bom", "armkit.svgplot", "hashlib", "json")))
    assert _fresh(code).splitlines()[-1] == "[]"


def test_fk_with_out_writes_the_same_manifest(tmp_path: Path) -> None:
    code = ("import sys\nfrom armkit.cli import run\n"
            "sys.exit(run(['fk', '--q', '0,0,0,0,0,0', '--out', 'o']))")
    _fresh(code, cwd=tmp_path)
    expected = {
        "argv": ["fk", "--q", "0,0,0,0,0,0", "--out", "o"],
        "arm_config": "builtin:default",
        "outputs": [{"path": "fk.txt", "sha256": "56282adec9ff8a33a5bdf0e474d"
                                                 "350cadd8a59dc8834ab09c547c7"
                                                 "cb46b555ae"}],
        "schema": "armkit.run/1",
        "seed": 0,
        "subcommand": "fk",
        "toolkit_version": armkit.__version__,
    }
    assert ((tmp_path / "o" / "manifest.json").read_text(encoding="utf-8")
            == json.dumps(expected, indent=2, sort_keys=True) + "\n")


def test_a_numeric_module_loads_the_whole_numeric_toolkit() -> None:
    # what import armkit loaded before it was lazy; a tool that wraps the
    # toolkit's functions module by module expects every one of them
    code = "import armkit\narmkit.kinematics\n" + _loaded(
        f"armkit.{m}" for m in ("model", "_kernels", "kinematics", "statics",
                                "drivetrain", "steppersim", "cli"))
    assert _fresh(code) == str(sorted(
        ["armkit.model", "armkit._kernels", "armkit.kinematics",
         "armkit.statics", "armkit.drivetrain", "armkit.steppersim",
         "armkit.cli"]))


@pytest.mark.parametrize("name", ["_kernels", "_wrist", "bom", "cli",
                                  "drivetrain", "errors", "kinematics",
                                  "model", "statics", "steppersim",
                                  "svgplot"])
def test_each_submodule_imports_first(name: str) -> None:
    # a numeric submodule that reaches cli while cli's own imports are half
    # loaded would fail here with a circular ImportError
    assert _fresh(f"import armkit.{name}\nprint('ok')") == "ok"


# ---------------------------------------------------------------------------
# public names
# ---------------------------------------------------------------------------

_PUBLIC_API = """
import sys
import armkit

assert armkit.cli.run is sys.modules["armkit.cli"].run
assert armkit.model.default_arm is sys.modules["armkit.model"].default_arm
assert set(armkit.__all__) <= set(dir(armkit))
for name in armkit.__all__:
    exec(f"from armkit import {name} as imported")
    assert getattr(armkit, name) is imported, name
    home = getattr(imported, "__module__", None)
    if home is not None:
        assert getattr(sys.modules[home], name) is imported, (name, home)
assert armkit.cli is sys.modules["armkit.cli"]
assert armkit.__version__ == sys.modules["armkit._version"].__version__
try:
    armkit.no_such_name
except AttributeError as exc:
    print(exc)
"""


def test_every_public_name_resolves_to_its_module_object() -> None:
    assert _fresh(_PUBLIC_API) == (
        "module 'armkit' has no attribute 'no_such_name'")


# ---------------------------------------------------------------------------
# functions that import numpy where they run
# ---------------------------------------------------------------------------

def _exact(got: np.ndarray, dtype, shape, values) -> None:
    assert got.dtype == dtype and got.shape == shape
    assert got.tolist() == values


def test_dh_params_and_limits_of_the_shipped_arm(
        arm: model.ArmDescription) -> None:
    half_pi = math.pi / 2
    _exact(model.dh_params(arm), np.float64, (6, 4), [
        [0.0, 0.09353312, 0.0, half_pi], [0.0, 0.0, 0.2, 0.0],
        [0.0, 0.0, 0.034, half_pi], [0.0, 0.173, 0.0, -half_pi],
        [0.0, 0.0, 0.02388, half_pi], [0.0, 0.06745, 0.0, 0.0]])
    _exact(model.limits_array(arm), np.float64, (6, 2),
           [[-math.radians(d), math.radians(d)]
            for d in (165, 105, 90, 180, 90, 180)])


def test_microstep_sizes_of_the_shipped_arm(arm: model.ArmDescription) -> None:
    _exact(drivetrain.microstep_sizes(arm), np.float64, (6,), [
        0.0004908738521234052, 0.00020943951023931956, 0.0015707963267948964,
        0.0011792765216177903, 0.001308996938995747, 0.0011792765216177903])


def test_torque_curve_interpolation_of_the_shipped_motors(
        arm: model.ArmDescription) -> None:
    rates = (-5.0, 0.0, 700.0, 1234.5, 1e9)
    expected = {
        "nema17": [0.157, 0.157, 0.13868333333333333, 0.12469725, 0.0785],
        "nema23": [1.26, 1.26, 1.113, 1.000755, 0.63],
    }
    for j in range(1, 7):
        motor = arm.drive(j).motor
        got = [drivetrain.motor_torque_at(motor, r) for r in rates]
        assert all(type(v) is float for v in got)
        assert got == expected[motor.name], j


def test_require_finite_returns_a_float_array_or_raises() -> None:
    _exact(require_finite([1, 2.5], "x"), np.float64, (2,), [1.0, 2.5])
    _exact(require_finite(3, "x", ">= 0"), np.float64, (), 3.0)
    with pytest.raises(ValueError,
                       match=r"^speeds must be finite and > 0, got \[1\.0, nan\]$"):
        require_finite([1.0, float("nan")], "speeds", "> 0")
    with pytest.raises(ComputationError,
                       match=r"^speeds must be finite and > 0, got \[0\.0\]$"):
        require_finite([0.0], "speeds", "> 0", ComputationError)
