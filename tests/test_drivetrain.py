from __future__ import annotations

import math

import numpy as np
import pytest

from armkit import drivetrain, model
from armkit.errors import ComputationError
from armkit.model import CapstanGeometry, JointDrive, MotorSpec, TransmissionStage


def _geom(sheave_mm: float, pulley_mm: float, mode: str = "rotating",
          thickness_mm: float = 1.0, tolerance_mm: float = 2.0) -> CapstanGeometry:
    return CapstanGeometry(
        sheave_diameter=sheave_mm * 1e-3,
        pulley_diameter=pulley_mm * 1e-3,
        cable_thickness=thickness_mm * 1e-3,
        tolerance=tolerance_mm * 1e-3,
        mode=mode,
    )


# ---------------------------------------------------------------------------
# capstan stage math
# ---------------------------------------------------------------------------

def test_rotating_capstan_reduction() -> None:
    assert drivetrain.capstan_reduction(_geom(19.4, 155.2)) == pytest.approx(8.0, abs=1e-9)


def test_stationary_capstan_reduction_adds_one() -> None:
    got = drivetrain.capstan_reduction(_geom(20.0, 130.0, mode="stationary"))
    assert got == pytest.approx(7.5, abs=1e-9)


def test_equal_diameters_give_identity_rotating_ratio() -> None:
    assert drivetrain.capstan_reduction(_geom(40.0, 40.0)) == pytest.approx(1.0, abs=0.0)


def test_capstan_reduction_is_scale_invariant() -> None:
    base = drivetrain.capstan_reduction(_geom(19.4, 155.2))
    scaled = drivetrain.capstan_reduction(_geom(19.4 * 3.7, 155.2 * 3.7))
    assert scaled == pytest.approx(base, rel=1e-12)


def test_capstan_reduction_rejects_bad_diameters() -> None:
    with pytest.raises(ComputationError):
        drivetrain.capstan_reduction(_geom(50.0, 20.0))
    with pytest.raises(ComputationError):
        drivetrain.capstan_reduction(_geom(0.0, 20.0))


def test_sheave_height_stacks_windings_plus_clearance() -> None:
    geom = _geom(19.4, 155.2, thickness_mm=1.0, tolerance_mm=2.0)
    assert drivetrain.sheave_height(geom, 8.0) * 1e3 == pytest.approx(10.0, abs=1e-9)
    zero_thickness = _geom(19.4, 155.2, thickness_mm=0.0, tolerance_mm=2.0)
    assert drivetrain.sheave_height(zero_thickness, 8.0) * 1e3 == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(ComputationError):
        drivetrain.sheave_height(geom, 0.0)
    for bad in (math.nan, math.inf):
        for g in (_geom(19.4, 155.2, thickness_mm=bad, tolerance_mm=2.0),
                  _geom(19.4, 155.2, thickness_mm=1.0, tolerance_mm=bad)):
            with pytest.raises(ComputationError):
                drivetrain.sheave_height(g, 8.0)
        with pytest.raises(ComputationError):
            drivetrain.sheave_height(geom, bad)
    negative = _geom(19.4, 155.2, thickness_mm=1.0, tolerance_mm=-50.0)
    with pytest.raises(ComputationError):
        drivetrain.sheave_height(negative, 8.0)


def test_sheave_spacing_is_one_and_a_half_thickness() -> None:
    assert drivetrain.sheave_spacing(1.2e-3) == pytest.approx(1.8e-3, abs=1e-15)
    for bad in (-1.0e-3, math.nan, math.inf):
        with pytest.raises(ComputationError):
            drivetrain.sheave_spacing(bad)


def test_windings_required_examples() -> None:
    assert drivetrain.windings_required(8.0, 360.0) == pytest.approx(8.0, abs=0.0)
    assert drivetrain.windings_required(7.5, 210.0) == pytest.approx(4.375, abs=1e-12)
    for gamma, output_range in ((0.0, 360.0), (8.0, math.nan),
                                (8.0, math.inf), (math.inf, 360.0)):
        with pytest.raises(ComputationError):
            drivetrain.windings_required(gamma, output_range)
    with pytest.raises(ValueError, match="windings"):
        drivetrain.windings_required(8.0, 1e308)


# ---------------------------------------------------------------------------
# chained reductions on the built-in arm
# ---------------------------------------------------------------------------

def test_shoulder_pitch_chain_total_reduction(arm: model.ArmDescription) -> None:
    assert drivetrain.total_reduction(arm.drive(2)) == pytest.approx(18.75, abs=1e-9)


def test_total_reduction_of_empty_stage_list_is_direct_drive() -> None:
    motor = MotorSpec(name="m", holding_torque=0.4, steps_per_rev=200,
                      torque_speed_curve=((0.0, 0.4),), mass=0.2)
    drive = JointDrive(joint_index=1, motor=motor, stages=(), microstep_factor=8)
    assert drivetrain.total_reduction(drive) == 1.0
    assert drivetrain.max_joint_torque(drive) == pytest.approx(0.4, abs=0.0)


def test_reduction_is_product_of_stage_ratios() -> None:
    motor = MotorSpec(name="m", holding_torque=0.4, steps_per_rev=200,
                      torque_speed_curve=((0.0, 0.4),), mass=0.2)
    stages = (TransmissionStage(kind="belt", ratio=2.5),
              TransmissionStage(kind="gear", ratio=3.0))
    drive = JointDrive(joint_index=1, motor=motor, stages=stages, microstep_factor=8)
    assert drivetrain.total_reduction(drive) == pytest.approx(7.5, abs=1e-12)


# ---------------------------------------------------------------------------
# torque and resolution tables
# ---------------------------------------------------------------------------

EXPECTED_TORQUES = {1: 1.256, 2: 23.625, 3: 3.15, 4: 0.52281, 5: 0.471, 6: 0.52281}
EXPECTED_REDUCTIONS = {1: 8.0, 2: 18.75, 3: 2.5, 4: 3.33, 5: 3.0, 6: 3.33}


def test_max_joint_torque_per_drive(arm: model.ArmDescription) -> None:
    for j, expected in EXPECTED_TORQUES.items():
        got = drivetrain.max_joint_torque(arm.drive(j))
        assert got == pytest.approx(expected, abs=1e-12), f"joint {j}"


def test_torque_table_values_and_reductions(arm: model.ArmDescription) -> None:
    rows = drivetrain.torque_table(arm)
    assert [r.joint_index for r in rows] == [1, 2, 3, 4, 5, 6]
    for r in rows:
        assert r.total_reduction == pytest.approx(EXPECTED_REDUCTIONS[r.joint_index], abs=1e-9)
        assert r.max_joint_torque == pytest.approx(
            EXPECTED_TORQUES[r.joint_index], abs=1e-12)


def test_torque_table_annotates_only_the_inconsistent_row(arm: model.ArmDescription) -> None:
    rows = {r.joint_index: r for r in drivetrain.torque_table(arm)}
    for j in range(1, 6):
        assert rows[j].annotation is None, f"joint {j} should be clean"
    ann = rows[6].annotation
    assert ann is not None
    assert "1.256" in ann
    assert "0.52281" in ann
    assert "8.00:1" in ann
    assert rows[6].listed_max_torque == pytest.approx(1.256, abs=0.0)
    assert rows[6].max_joint_torque == pytest.approx(0.52281, abs=1e-9)


def test_joint_resolution_examples(arm: model.ArmDescription) -> None:
    # bare motor: 1.8 deg full step / 8 microsteps = 0.225; through the
    # shoulder chain the step shrinks by the 18.75:1 reduction
    assert drivetrain.joint_resolution(arm.drive(2)) == pytest.approx(0.012, abs=1e-12)
    assert drivetrain.joint_resolution(arm.drive(1)) == pytest.approx(0.028125, abs=1e-12)


def test_resolution_table_and_microstep_sizes(arm: model.ArmDescription) -> None:
    table = drivetrain.resolution_table(arm)
    assert [row[0] for row in table] == [1, 2, 3, 4, 5, 6]
    by_joint = {j: res for j, _, res in table}
    assert by_joint[2] == pytest.approx(0.012, abs=1e-12)
    sizes = drivetrain.microstep_sizes(arm)
    assert sizes.shape == (6,)
    assert sizes[1] == pytest.approx(math.radians(0.012), rel=1e-12)


def test_max_torque_is_linear_in_holding_torque(arm: model.ArmDescription) -> None:
    import dataclasses
    d2 = arm.drive(2)
    doubled = dataclasses.replace(
        d2, motor=dataclasses.replace(
            d2.motor, holding_torque=2 * d2.motor.holding_torque,
            torque_speed_curve=((0.0, 2 * d2.motor.holding_torque),)))
    assert drivetrain.max_joint_torque(doubled) == pytest.approx(
        2 * drivetrain.max_joint_torque(d2), rel=1e-12)


# ---------------------------------------------------------------------------
# torque-speed curves
# ---------------------------------------------------------------------------

def test_motor_torque_interpolates_and_clamps() -> None:
    motor = MotorSpec(name="m", holding_torque=1.0, steps_per_rev=200,
                      torque_speed_curve=((0.0, 1.0), (1000.0, 0.5)), mass=0.2)
    assert drivetrain.motor_torque_at(motor, 0.0) == pytest.approx(1.0, abs=0.0)
    assert drivetrain.motor_torque_at(motor, 500.0) == pytest.approx(0.75, abs=1e-12)
    assert drivetrain.motor_torque_at(motor, 5000.0) == pytest.approx(0.5, abs=0.0)
    assert drivetrain.motor_torque_at(motor, -10.0) == pytest.approx(1.0, abs=0.0)


def test_available_joint_torque_declines_with_rate(arm: model.ArmDescription) -> None:
    d2 = arm.drive(2)
    still = drivetrain.available_joint_torque(d2, 0.0)
    fast = drivetrain.available_joint_torque(d2, 2500.0)
    assert still == pytest.approx(drivetrain.max_joint_torque(d2), abs=1e-12)
    assert fast <= still
