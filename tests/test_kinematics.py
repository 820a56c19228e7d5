from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from armkit import _kernels, cli, kinematics, model
from armkit.errors import (EmptyCloudError, NoConvergenceError,
                           ResourceLimitError, UnreachableTargetError)
from armkit.kinematics import IKOptions, Pose, WorkspaceCloud


def _random_in_limits(arm: model.ArmDescription, rng: np.random.Generator,
                      n: int) -> np.ndarray:
    lim = model.limits_array(arm)
    return rng.uniform(lim[:, 0], lim[:, 1], size=(n, 6))


# ---------------------------------------------------------------------------
# forward kinematics
# ---------------------------------------------------------------------------

def test_home_pose_position(arm: model.ArmDescription) -> None:
    pose = kinematics.forward_kinematics(arm, np.zeros(6))
    assert pose.position[0] == pytest.approx(0.25788, abs=1e-12)
    assert pose.position[1] == pytest.approx(0.0, abs=1e-15)
    assert pose.position[2] == pytest.approx(-0.14691688, abs=1e-12)
    assert float(np.linalg.norm(pose.position)) == pytest.approx(
        0.29679397572884525, abs=1e-12)


def test_home_pose_orientation(arm: model.ArmDescription) -> None:
    R = kinematics.forward_kinematics(arm, np.zeros(6)).orientation
    assert np.allclose(np.diag(R), [1.0, -1.0, -1.0], atol=1e-15)
    off = R - np.diag(np.diag(R))
    assert float(np.max(np.abs(off))) < 1e-15


def test_fk_frames_shape_and_base(arm: model.ArmDescription) -> None:
    frames = kinematics.fk_frames(arm, np.zeros(6))
    assert frames.shape == (7, 4, 4)
    assert np.array_equal(frames[0], np.eye(4))


def test_rotations_stay_orthonormal(arm: model.ArmDescription,
                                    rng: np.random.Generator) -> None:
    for q in _random_in_limits(arm, rng, 50):
        R = kinematics.forward_kinematics(arm, q).orientation
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_wrist_roll_leaves_its_own_origin_fixed(arm: model.ArmDescription) -> None:
    # joint 4 spins about the forearm axis, so the frame-4 origin cannot move
    base_q = np.array([0.3, -0.5, 0.8, 0.0, 0.4, 0.2])
    origins = []
    for j4 in (0.0, math.radians(45), math.radians(90)):
        q = base_q.copy()
        q[3] = j4
        origins.append(kinematics.fk_frames(arm, q)[4][:3, 3])
    assert np.allclose(origins[0], origins[1], atol=1e-14)
    assert np.allclose(origins[0], origins[2], atol=1e-14)


def test_base_yaw_rotates_the_whole_pose(arm: model.ArmDescription,
                                         rng: np.random.Generator) -> None:
    phi = math.radians(25)
    c, s = math.cos(phi), math.sin(phi)
    Rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    for q in _random_in_limits(arm, rng, 10):
        q = q.copy()
        q[0] = min(q[0], model.limits_array(arm)[0, 1] - phi)
        before = kinematics.forward_kinematics(arm, q)
        q2 = q.copy()
        q2[0] += phi
        after = kinematics.forward_kinematics(arm, q2)
        assert np.allclose(after.position, Rz @ before.position, atol=1e-12)
        assert np.allclose(after.orientation, Rz @ before.orientation, atol=1e-12)


def test_chain_reach_bound_value(arm: model.ArmDescription) -> None:
    assert kinematics._chain_reach_bound(arm) == pytest.approx(0.59186312, abs=1e-12)


# ---------------------------------------------------------------------------
# Jacobian
# ---------------------------------------------------------------------------

def _fd_jacobian(arm: model.ArmDescription, q: np.ndarray,
                 h: float = 1e-6) -> np.ndarray:
    J = np.zeros((6, 6))
    for k in range(6):
        qp, qm = q.copy(), q.copy()
        qp[k] += h
        qm[k] -= h
        pp = kinematics.forward_kinematics(arm, qp)
        pm = kinematics.forward_kinematics(arm, qm)
        J[:3, k] = (pp.position - pm.position) / (2 * h)
        dR = pp.orientation @ pm.orientation.T
        J[3:, k] = np.array([dR[2, 1] - dR[1, 2],
                             dR[0, 2] - dR[2, 0],
                             dR[1, 0] - dR[0, 1]]) / (4 * h)
    return J


def test_jacobian_matches_central_differences(arm: model.ArmDescription,
                                              rng: np.random.Generator) -> None:
    worst = 0.0
    for q in _random_in_limits(arm, rng, 100):
        J = kinematics.jacobian(arm, q)
        worst = max(worst, float(np.max(np.abs(J - _fd_jacobian(arm, q)))))
    assert worst < 1e-6


def test_jacobian_base_column_properties(arm: model.ArmDescription) -> None:
    J = kinematics.jacobian(arm, np.zeros(6))
    assert np.allclose(J[3:, 0], [0.0, 0.0, 1.0], atol=1e-15)
    p = kinematics.forward_kinematics(arm, np.zeros(6)).position
    # linear velocity from base yaw is z-hat x p
    assert np.allclose(J[:3, 0], np.cross([0.0, 0.0, 1.0], p), atol=1e-12)


# ---------------------------------------------------------------------------
# inverse kinematics
# ---------------------------------------------------------------------------

def test_ik_fixed_point_returns_the_seed_pose(arm: model.ArmDescription) -> None:
    q0 = np.radians([10.0, -40.0, 50.0, 5.0, 30.0, -15.0])
    target = kinematics.forward_kinematics(arm, q0)
    q = kinematics.inverse_kinematics(arm, target, seed=q0)
    got = kinematics.forward_kinematics(arm, q)
    assert float(np.linalg.norm(got.position - target.position)) < 1e-6
    assert np.allclose(q, q0, atol=1e-6)


def test_ik_round_trip_from_perturbed_seeds(arm: model.ArmDescription,
                                            rng: np.random.Generator) -> None:
    lim = model.limits_array(arm)
    solved = 0
    failures = 0
    for q_true in _random_in_limits(arm, rng, 50):
        target = kinematics.forward_kinematics(arm, q_true)
        seed = np.clip(q_true + rng.uniform(-0.2, 0.2, size=6),
                       lim[:, 0], lim[:, 1])
        try:
            q = kinematics.inverse_kinematics(arm, target, seed=seed)
        except (NoConvergenceError, UnreachableTargetError):
            failures += 1
            continue
        got = kinematics.forward_kinematics(arm, q)
        pos_err = float(np.linalg.norm(got.position - target.position))
        ori_err = float(np.linalg.norm(
            kinematics._rotation_vector(got.orientation @ target.orientation.T)))
        assert pos_err < 1e-6, "solver returned a wrong answer"
        assert ori_err < 1e-6, "solver returned a wrong answer"
        assert np.all(q >= lim[:, 0]) and np.all(q <= lim[:, 1])
        solved += 1
    assert solved >= 49
    assert failures <= 1


def test_ik_rejects_target_beyond_reach_bound(arm: model.ArmDescription) -> None:
    target = Pose(position=[0.9, 0.0, 0.0], orientation=np.eye(3))
    with pytest.raises(UnreachableTargetError):
        kinematics.inverse_kinematics(arm, target, seed=np.zeros(6))


def test_ik_reports_failure_inside_reach_bound(arm: model.ArmDescription) -> None:
    # 0.58 m passes the conservative chain-length precheck (0.5919 m) but
    # exceeds the true maximum reach (0.5407 m): the solver must stagnate
    # and report failure, never return a wrong answer
    target = Pose(position=[0.58, 0.0, 0.0], orientation=np.eye(3))
    opts = IKOptions(restarts=2, max_iters=80)
    with pytest.raises((UnreachableTargetError, NoConvergenceError)) as exc:
        kinematics.inverse_kinematics(arm, target, seed=np.zeros(6), opts=opts)
    pos_res, _ = exc.value.best_residual
    assert pos_res > 1e-6  # genuinely short of the target, not a near miss


def test_ik_restarts_are_deterministic(arm: model.ArmDescription) -> None:
    q_true = np.radians([60.0, -70.0, 80.0, 40.0, -50.0, 90.0])
    target = kinematics.forward_kinematics(arm, q_true)
    bad_seed = np.radians([-60.0, 20.0, -60.0, -40.0, 50.0, -90.0])
    a = kinematics.inverse_kinematics(arm, target, seed=bad_seed)
    b = kinematics.inverse_kinematics(arm, target, seed=bad_seed)
    assert np.array_equal(a, b)


def test_ik_options_reject_negative_budgets() -> None:
    IKOptions(max_iters=0, restarts=0)
    with pytest.raises(ValueError, match="max_iters"):
        IKOptions(max_iters=-1)
    with pytest.raises(ValueError, match="restarts"):
        IKOptions(restarts=-3)


_BAD =[np.nan, 0.0, 0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("call,what", [
    (lambda arm: kinematics.forward_kinematics(arm, _BAD), "joint angles q"),
    (lambda arm: kinematics.jacobian(arm, [0.0, np.inf, 0.0, 0.0, 0.0, 0.0]),
     "joint angles q"),
    (lambda arm: kinematics.inverse_kinematics(
        arm, Pose(_BAD[:3], np.eye(3)), np.zeros(6)), "IK target position"),
    (lambda arm: kinematics.inverse_kinematics(
        arm, Pose([0.2, 0.0, 0.0], np.full((3, 3), np.nan)), np.zeros(6)),
     "IK target orientation"),
    (lambda arm: kinematics.inverse_kinematics(
        arm, Pose([0.2, 0.0, 0.0], np.eye(3)), _BAD), "IK start pose"),
], ids=["fk", "jacobian", "ik-position", "ik-orientation", "ik-start"])
def test_non_finite_inputs_raise_value_error_naming_them(
        arm: model.ArmDescription, call, what: str) -> None:
    with pytest.raises(ValueError, match=what):
        call(arm)


# ---------------------------------------------------------------------------
# workspace sampling
# ---------------------------------------------------------------------------

def test_grid_sampling_counts_and_endpoints(arm: model.ArmDescription) -> None:
    cloud = kinematics.sample_workspace(arm, (2, 2, 2, 2, 2, 2))
    assert cloud.points.shape == (64, 3)
    assert cloud.mode == "grid"
    assert cloud.per_joint_steps == (2, 2, 2, 2, 2, 2)


def test_grid_sampling_respects_cap(arm: model.ArmDescription) -> None:
    with pytest.raises(ResourceLimitError):
        kinematics.sample_workspace(arm, (2000, 2000, 2000, 5, 5, 5))


def test_quasi_sampling_is_seeded(arm: model.ArmDescription) -> None:
    a = kinematics.sample_workspace(arm, (2,) * 6, mode="quasi",
                                    samples=512, seed=7)
    b = kinematics.sample_workspace(arm, (2,) * 6, mode="quasi",
                                    samples=512, seed=7)
    c = kinematics.sample_workspace(arm, (2,) * 6, mode="quasi",
                                    samples=512, seed=8)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)
    assert a.points.shape == (512, 3)
    bound = kinematics._chain_reach_bound(arm)
    assert float(np.max(np.linalg.norm(a.points, axis=1))) <= bound + 1e-12


def test_max_reach_reports_both_metrics() -> None:
    pts = np.array([[0.3, 0.0, 0.4], [0.1, 0.1, 0.0], [0.0, 0.0, -0.2]])
    cloud = WorkspaceCloud(points=pts, per_joint_steps=None, mode="grid")
    dist, radial = kinematics.max_reach(cloud)
    assert dist == pytest.approx(0.5, abs=1e-15)
    assert radial == pytest.approx(0.3, abs=1e-15)


def test_azimuth_span_of_a_known_arc() -> None:
    angles = np.radians(np.arange(-60.0, 60.0 + 1e-9, 5.0))
    pts = np.column_stack([np.cos(angles), np.sin(angles), np.zeros_like(angles)])
    cloud = WorkspaceCloud(points=pts, per_joint_steps=None, mode="grid")
    assert kinematics.azimuth_span(cloud) == pytest.approx(120.0, abs=1e-9)


def test_below_base_fraction_counts_negative_z() -> None:
    pts = np.array([[0.1, 0.0, 0.1], [0.1, 0.0, -0.1],
                    [0.2, 0.0, 0.2], [0.2, 0.0, -0.2]])
    cloud = WorkspaceCloud(points=pts, per_joint_steps=None, mode="grid")
    assert kinematics.below_base_fraction(cloud) == 0.5


def test_empty_cloud_raises() -> None:
    cloud = WorkspaceCloud(points=np.empty((0, 3)), per_joint_steps=None)
    with pytest.raises(EmptyCloudError):
        kinematics.max_reach(cloud)
    with pytest.raises(EmptyCloudError):
        kinematics.azimuth_span(cloud)
    with pytest.raises(EmptyCloudError):
        kinematics.below_base_fraction(cloud)


def test_cloud_csv_round_trips_exact_floats(arm: model.ArmDescription,
                                            tmp_path, capsys,
                                            monkeypatch) -> None:
    # 64 rows in 5-row chunks: full chunks and a short last one
    monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 5)
    assert cli.run(["workspace", "--per-joint-steps", "2,2,2,2,2,2",
                    "--format", "csv", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    cloud = kinematics.sample_workspace(arm, (2,) * 6)
    lines = (tmp_path / "workspace.csv").read_text().splitlines()
    assert lines[0] == "x_m,y_m,z_m"
    assert len(lines) == 1 + cloud.points.shape[0]
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(rows, cloud.points)


def test_reference_reach_constants_disagree_and_both_ship() -> None:
    assert kinematics.REFERENCE_NOMINAL_REACH_M == 0.430
    assert kinematics.REFERENCE_RADIAL_REACH_M == 0.467
    assert kinematics.REFERENCE_NOMINAL_REACH_M != kinematics.REFERENCE_RADIAL_REACH_M


# ---------------------------------------------------------------------------
# batched FK kernels
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(qb=hnp.arrays(np.float64, st.tuples(st.integers(1, 16), st.just(6)),
                     elements=st.floats(-2 * math.pi, 2 * math.pi)))
def test_batched_fk_matches_per_pose_frames(arm: model.ArmDescription,
                                            qb: np.ndarray) -> None:
    rows = model.dh_params(arm)
    ref = np.stack([kinematics.fk_frames(arm, q) for q in qb])
    frames = _kernels.fk_frames_batch(rows, qb)
    points = _kernels.fk_points(rows, qb)
    assert frames.shape == (len(qb), 7, 4, 4)
    assert points.shape == (len(qb), 3)
    assert float(np.max(np.abs(frames - ref))) <= 1e-12
    assert float(np.max(np.abs(points - ref[:, 6, :3, 3]))) <= 1e-12
