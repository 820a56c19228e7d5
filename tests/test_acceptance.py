"""Acceptance gate: one test per release criterion.

Each test asserts exactly the stated tolerance band for its criterion, so
the ``-v`` run shows one pass/fail line per criterion. Tolerances are stated
inline; shared expensive artifacts (the dense workspace cloud, the calibrated
repeatability run) are module-scoped fixtures computed once.
"""
from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

import armkit
from armkit import bom, cli, drivetrain, kinematics, model, statics, steppersim
from armkit.errors import NoConvergenceError, UnreachableTargetError


DENSE_GRID = (25, 25, 25, 5, 5, 5)  # 1,953,125 samples
AZIMUTH_GRID_STEP_DEG = 330.0 / (DENSE_GRID[0] - 1)  # one base-yaw grid step


@pytest.fixture(scope="module")
def dense_cloud(arm: model.ArmDescription) -> kinematics.WorkspaceCloud:
    return kinematics.sample_workspace(arm, DENSE_GRID)


@pytest.fixture(scope="module")
def calibrated_run(arm: model.ArmDescription) -> steppersim.RepeatabilityResult:
    noise = steppersim.calibrate_noise([(500.0, 0.286e-3), (2500.0, 0.587e-3)])
    return steppersim.repeatability_experiment(arm, cycles_per_speed=100,
                                               noise=noise, seed=0)


def test_criterion_01_torque_table_matches_the_reference_budgets(
        arm: model.ArmDescription) -> None:
    """Max joint torque exact to 4 decimals for J1-J5; J6 computes 0.52281
    and carries a machine-readable inconsistency annotation against the
    recorded 1.256 figure."""
    rows = {r.joint_index: r for r in drivetrain.torque_table(arm)}
    expected = {1: 1.256, 2: 23.625, 3: 3.15, 4: 0.52281, 5: 0.471}
    for j, want in expected.items():
        got = rows[j].max_joint_torque
        assert got == pytest.approx(want, abs=0.5e-4), \
            f"J{j}: computed {got!r}, expected {want} to 4 decimals"
    j6 = rows[6]
    assert j6.max_joint_torque == pytest.approx(0.52281, abs=0.5e-4)
    assert j6.listed_max_torque == 1.256
    assert j6.annotation is not None, "J6 inconsistency must be annotated"
    assert "1.256" in j6.annotation and "0.52281" in j6.annotation


def test_criterion_02_reduction_ratios_exact_to_1e_minus_9(
        arm: model.ArmDescription) -> None:
    """Rotating capstan (19.4, 155.2) -> 8.0; stationary (20, 130) -> 7.5;
    shoulder-pitch chain -> 18.75; all exact to 1e-9."""
    rot = model.CapstanGeometry(sheave_diameter=19.4e-3, pulley_diameter=155.2e-3,
                                cable_thickness=1e-3, mode="rotating")
    sta = model.CapstanGeometry(sheave_diameter=20e-3, pulley_diameter=130e-3,
                                cable_thickness=1e-3, mode="stationary")
    assert abs(drivetrain.capstan_reduction(rot) - 8.0) < 1e-9
    assert abs(drivetrain.capstan_reduction(sta) - 7.5) < 1e-9
    assert abs(drivetrain.total_reduction(arm.drive(2)) - 18.75) < 1e-9


def test_criterion_03_bom_totals_within_one_cent_of_the_quoted_costs() -> None:
    """Batch total within $0.01 of 5310.013 and per-arm within $0.01 of
    212.40, computed with exact decimal arithmetic; the independent hand
    summation 5310.01375 is the oracle the totals must hit exactly."""
    from fractions import Fraction
    b = bom.default_bom()
    batch = bom.batch_total(b)
    per = bom.per_arm_cost(b)
    assert batch == Fraction("5310.01375"), f"hand-sum oracle missed: {batch}"
    assert abs(float(batch) - 5310.013) <= 0.01
    assert abs(float(per) - 212.40) <= 0.01
    assert per * 25 == batch


def test_criterion_04_dense_sweep_radial_reach_within_5pct(
        dense_cloud: kinematics.WorkspaceCloud,
        capsys: pytest.CaptureFixture) -> None:
    """>= 1e6 samples; horizontal radial reach within +-5% of 0.467 m; both
    reach metrics are reported and the 0.430-vs-0.467 gap stays visible."""
    assert dense_cloud.points.shape[0] >= 1_000_000
    dist, radial = kinematics.max_reach(dense_cloud)
    assert 0.95 * 0.467 <= radial <= 1.05 * 0.467, f"radial reach {radial!r}"
    assert dist != radial  # both metrics carry information

    rc = cli.run(["reach", "--per-joint-steps", "9,9,9,3,3,3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max_reach_m" in out and "max_radial_reach_m" in out
    assert "0.43" in out and "0.467" in out, \
        "the disagreement between the two reference figures must be visible"


def test_criterion_05_jacobian_fd_check_and_ik_round_trip(
        arm: model.ArmDescription) -> None:
    """Jacobian vs central differences < 1e-6 over 100 random in-limits
    configurations; IK round-trip < 1e-6 m / 1e-6 rad on >= 99% of 1000
    random reachable targets, failures only ever reported as
    no-convergence."""
    rng = np.random.default_rng(12345)
    lim = model.limits_array(arm)

    worst = 0.0
    h = 1e-6
    for q in rng.uniform(lim[:, 0], lim[:, 1], size=(100, 6)):
        J = kinematics.jacobian(arm, q)
        fd = np.zeros((6, 6))
        for k in range(6):
            qp, qm = q.copy(), q.copy()
            qp[k] += h
            qm[k] -= h
            pp = kinematics.forward_kinematics(arm, qp)
            pm = kinematics.forward_kinematics(arm, qm)
            fd[:3, k] = (pp.position - pm.position) / (2 * h)
            dR = pp.orientation @ pm.orientation.T
            fd[3:, k] = [(dR[2, 1] - dR[1, 2]) / (4 * h),
                         (dR[0, 2] - dR[2, 0]) / (4 * h),
                         (dR[1, 0] - dR[0, 1]) / (4 * h)]
        worst = max(worst, float(np.max(np.abs(J - fd))))
    assert worst < 1e-6, f"worst Jacobian-vs-FD error {worst!r}"

    solved = 0
    reported_failures = 0
    for q_true in rng.uniform(lim[:, 0], lim[:, 1], size=(1000, 6)):
        target = kinematics.forward_kinematics(arm, q_true)
        seed = np.clip(q_true + rng.uniform(-0.2, 0.2, size=6),
                       lim[:, 0], lim[:, 1])
        try:
            q = kinematics.inverse_kinematics(arm, target, seed=seed)
        except (NoConvergenceError, UnreachableTargetError):
            reported_failures += 1
            continue
        got = kinematics.forward_kinematics(arm, q)
        pos_err = float(np.linalg.norm(got.position - target.position))
        ori_err = float(np.linalg.norm(
            kinematics._rotation_vector(got.orientation @ target.orientation.T)))
        assert pos_err < 1e-6 and ori_err < 1e-6, \
            "a returned solution misses the target: wrong answers are forbidden"
        solved += 1
    assert solved >= 990, (f"{solved}/1000 solved "
                           f"({reported_failures} reported failures)")


def test_criterion_06_worst_case_payload_within_reference_band(
        arm: model.ArmDescription) -> None:
    """Worst-case max payload within +-5% of the paper's 0.63 kg with the
    default mass model, bound by the wrist pitch J5, and limiting-joint
    utilization in [0.999, 1.0] at the returned payload.

    The band is the paper's figure under criterion 04's +-5% convention, a
    consistency check of the torque-limited capacity against the measured
    one rather than a reproduction of it.
    """
    res = statics.max_payload(arm)
    assert res.limiting_joint in range(1, 7), "limiting joint must be reported"
    assert 0.999 <= res.utilization <= 1.0, f"utilization {res.utilization!r}"
    lever = float(np.hypot(0.02388, 0.06745))
    assert 0.95 * 0.63 <= res.mass <= 1.05 * 0.63, (
        f"worst-case payload computed {res.mass:.5f} kg, bound by J{res.limiting_joint}; "
        f"expected 0.63 kg +-5%. With no structural mass the 0.471 N.m J5 budget "
        f"holds at most 0.471/(9.81*{lever:.4f}) = {0.471 / (9.81 * lever):.3f} kg "
        f"at the tool point, {lever:.4f} m from the J5 axis."
    )
    assert res.limiting_joint == 5, \
        f"worst case bound by J{res.limiting_joint}, expected the wrist pitch J5"


def test_criterion_07_repeatability_stds_in_band_and_speed_dependent(
        arm: model.ArmDescription,
        calibrated_run: steppersim.RepeatabilityResult) -> None:
    """Noise calibrated to (500, 0.286 mm) and (2500, 0.587 mm); per-speed
    stds over >= 100 cycles in [0.2, 0.7] mm; std grows from 500 to 2500
    with statistical significance; bit-reproducible across thread counts."""
    res = calibrated_run
    assert all(len(d) >= 100 for d in res.deviations)
    stds_mm = np.asarray(res.stds) * 1e3
    for speed, s in zip(res.speeds, stds_mm):
        assert 0.2 <= s <= 0.7, f"std at {speed} steps/s = {s:.4f} mm"

    lo = np.asarray(res.deviations[0])
    hi = np.asarray(res.deviations[-1])
    F = float(np.var(hi, ddof=1) / np.var(lo, ddof=1))
    p = float(stats.f.sf(F, len(hi) - 1, len(lo) - 1))
    assert stds_mm[-1] > stds_mm[0]
    assert p < 0.01, f"variance growth not significant: F={F:.3f}, p={p:.3g}"

    script = (
        "import numpy as np\n"
        "from armkit import model, steppersim, kinematics\n"
        "arm = model.default_arm()\n"
        "noise = steppersim.calibrate_noise([(500.0, 0.286e-3), (2500.0, 0.587e-3)])\n"
        "res = steppersim.repeatability_experiment(arm, speeds=(500.0, 2500.0),\n"
        "    cycles_per_speed=25, noise=noise, seed=0)\n"
        "cloud = kinematics.sample_workspace(arm, (9, 9, 9, 5, 5, 5))\n"
        "print(repr([float(v) for d in res.deviations for v in d]))\n"
        "print(repr(float(cloud.points.sum())))\n"
    )
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1], "results must not depend on thread count"


def test_criterion_08_shoulder_resolution_is_0_012_degrees(
        arm: model.ArmDescription) -> None:
    """Default J2 drive yields 0.012 deg/microstep at 8x microstepping;
    cross-checked against the direct formula."""
    d2 = arm.drive(2)
    assert d2.microstep_factor == 8
    got = drivetrain.joint_resolution(d2)
    direct = 1.8 / (8 * 18.75)
    assert got == pytest.approx(0.012, abs=1e-12)
    assert got == pytest.approx(direct, rel=1e-12)


def test_criterion_09_azimuth_span_and_below_base_coverage(
        dense_cloud: kinematics.WorkspaceCloud) -> None:
    """Azimuth span 330 deg within one base-yaw grid step (13.75 deg for the
    25-point grid); the cloud reaches below the base plane."""
    span = kinematics.azimuth_span(dense_cloud)
    assert abs(span - 330.0) <= AZIMUTH_GRID_STEP_DEG + 1e-9, f"span {span!r}"
    assert kinematics.below_base_fraction(dense_cloud) > 0.0
    assert float(dense_cloud.points[:, 2].min()) < 0.0


def test_criterion_10_desk_scale_limits_are_declared() -> None:
    """Physical results that simulation cannot reproduce are declared in one
    machine-readable place rather than silently approximated."""
    declared = "\n".join(armkit.NOT_REPRODUCED_AT_DESK_SCALE).lower()
    assert "0.63 kg" in declared
    assert "dial-indicator" in declared
    assert "4.38" in declared and "1.57" in declared
    assert "1080.21" in declared
