from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from armkit import _kernels, _wrist, cli, kinematics, model, statics
from armkit.errors import (EmptyCloudError, NoConvergenceError,
                           ResourceLimitError, UnreachableTargetError)
from armkit.kinematics import IKOptions, Pose, WorkspaceCloud


def _random_in_limits(arm: model.ArmDescription, rng: np.random.Generator,
                      n: int) -> np.ndarray:
    lim = model.limits_array(arm)
    return rng.uniform(lim[:, 0], lim[:, 1], size=(n, 6))


def _ref_frames(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Frames (7, 4, 4) of one pose, written per link: each link matrix from
    ``math.cos``/``math.sin``, multiplied on from the base as ``T @ A``."""
    out = np.empty((7, 4, 4))
    out[0] = T = np.eye(4)
    for i, (offset, d, a, alpha) in enumerate(rows):
        cth, sth = math.cos(q[i] + offset), math.sin(q[i] + offset)
        ca, sa = math.cos(alpha), math.sin(alpha)
        T = out[i + 1] = T @ np.array([[cth, -sth * ca, sth * sa, a * cth],
                                       [sth, cth * ca, -cth * sa, a * sth],
                                       [0.0, sa, ca, d],
                                       [0.0, 0.0, 0.0, 1.0]])
    return out


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
    assert solved == 50
    assert failures == 0


def test_ik_rejects_target_beyond_reach_bound(arm: model.ArmDescription) -> None:
    target = Pose(position=[0.9, 0.0, 0.0], orientation=np.eye(3))
    with pytest.raises(UnreachableTargetError):
        kinematics.inverse_kinematics(arm, target, seed=np.zeros(6))


def test_ik_reports_failure_inside_reach_bound(arm: model.ArmDescription) -> None:
    # 0.58 m passes the conservative chain-length precheck (0.5919 m) but
    # exceeds the true maximum reach (0.5407 m): the solver must stagnate
    # and report failure, never return a wrong answer
    target = Pose(position=[0.58, 0.0, 0.0], orientation=np.eye(3))
    opts = IKOptions(max_iters=80)
    with pytest.raises((UnreachableTargetError, NoConvergenceError)) as exc:
        kinematics.inverse_kinematics(arm, target, seed=np.zeros(6), opts=opts)
    pos_res, _ = exc.value.best_residual
    assert pos_res > 1e-6  # genuinely short of the target, not a near miss


def test_ik_reports_an_exhausted_iteration_budget(
        arm: model.ArmDescription) -> None:
    # one step per start: every start is still improving when it runs out
    target = Pose(position=[0.58, 0.0, 0.0], orientation=np.eye(3))
    with pytest.raises(NoConvergenceError) as exc:
        kinematics.inverse_kinematics(arm, target, seed=np.zeros(6),
                                      opts=IKOptions(max_iters=1))
    assert type(exc.value) is NoConvergenceError
    assert str(exc.value).startswith("IK iteration budget exhausted (")
    pos_res, rot_res = exc.value.best_residual
    assert pos_res > 1e-6 and math.isfinite(rot_res)


def test_ik_restarts_are_deterministic(arm: model.ArmDescription) -> None:
    q_true = np.radians([60.0, -70.0, 80.0, 40.0, -50.0, 90.0])
    target = kinematics.forward_kinematics(arm, q_true)
    bad_seed = np.radians([-60.0, 20.0, -60.0, -40.0, 50.0, -90.0])
    a = kinematics.inverse_kinematics(arm, target, seed=bad_seed)
    b = kinematics.inverse_kinematics(arm, target, seed=bad_seed)
    assert np.array_equal(a, b)


def test_ik_options_reject_negative_budgets() -> None:
    IKOptions(max_iters=0)
    with pytest.raises(ValueError, match="max_iters"):
        IKOptions(max_iters=-1)
    # the tolerances are constants, not fields
    assert (IKOptions().pos_tol, IKOptions().ori_tol) == (1e-6, 1e-6)
    for field in ("pos_tol", "ori_tol"):
        with pytest.raises(TypeError, match=field):
            IKOptions(**{field: 1e-3})


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
# IK: batched pose error and lockstep restarts
# ---------------------------------------------------------------------------

def _ref_rotation_vector(R: np.ndarray) -> np.ndarray:
    """Log map of one rotation matrix, written per pose."""
    c = min(1.0, max(-1.0, (float(np.trace(R)) - 1.0) / 2.0))
    theta = math.acos(c)
    v = 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0],
                        R[1, 0] - R[0, 1]])
    if theta < 1e-10:
        return v
    if math.pi - theta < 1e-6:
        M = (R + np.eye(3)) / 2.0
        axis = np.sqrt(np.maximum(np.diag(M), 0.0))
        k = int(np.argmax(axis))
        if axis[k] > 0:
            axis = M[:, k] / axis[k]
            axis /= np.linalg.norm(axis)
        sign = 1.0 if v @ axis >= 0 else -1.0
        return theta * sign * axis
    return (theta / math.sin(theta)) * v


def _ref_pose_error(target: Pose, frames: np.ndarray):
    """Pose error of one (7, 4, 4) frame stack, written per pose."""
    e_pos = target.position - frames[6][:3, 3]
    e_rot = _ref_rotation_vector(target.orientation @ frames[6][:3, :3].T)
    return (np.concatenate([e_pos, e_rot]), float(np.linalg.norm(e_pos)),
            float(np.linalg.norm(e_rot)))


def _ref_jacobian(frames: np.ndarray) -> np.ndarray:
    """Geometric Jacobian of one (7, 4, 4) frame stack, column by column."""
    J = np.empty((6, 6))
    for i in range(6):
        z = frames[i][:3, 2]
        J[:3, i] = np.cross(z, frames[6][:3, 3] - frames[i][:3, 3])
        J[3:, i] = z
    return J


def _rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    k = axis / np.linalg.norm(axis)
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


_AXES = hnp.arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)).filter(
    lambda a: float(np.linalg.norm(a)) > 1e-3)
#: angles near zero, anywhere, and within 1e-6 rad of a half turn
_ANGLES = st.one_of(st.floats(0.0, 1e-9), st.floats(0.0, math.pi),
                    st.floats(math.pi - 1e-6, math.pi))


@settings(max_examples=60, deadline=None)
@given(qb=hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.just(6)),
                     elements=st.floats(-2 * math.pi, 2 * math.pi)),
       axis=_AXES, angle=_ANGLES,
       rotations=st.lists(st.tuples(_AXES, _ANGLES), min_size=1, max_size=8))
def test_batched_pose_error_and_jacobian_match_per_pose(
        arm: model.ArmDescription, qb: np.ndarray, axis: np.ndarray,
        angle: float, rotations: list) -> None:
    frames = _kernels.fk_frames_batch(model.dh_params(arm), qb)
    # the target turns the first pose by ``angle``, up to a half turn
    target = Pose(position=frames[0, 6, :3, 3] + 0.01,
                  orientation=_rotation(axis, angle) @ frames[0, 6, :3, :3])
    E, pe, re_ = kinematics._pose_error(target, frames)
    J = kinematics._jacobian_from_frames(frames)
    for i, f in enumerate(frames):
        e_ref, pe_ref, re_ref = _ref_pose_error(target, f)
        assert E[i].tobytes() == e_ref.tobytes()
        assert (pe[i], re_[i]) == (pe_ref, re_ref)
        assert J[i].tobytes() == _ref_jacobian(f).tobytes()
    Rs = np.stack([_rotation(a, t) for a, t in rotations])
    vecs = kinematics._rotation_vector(Rs)
    for R, vec in zip(Rs, vecs):
        assert vec.tobytes() == _ref_rotation_vector(R).tobytes()
    assert kinematics._rotation_vector(Rs[0]).tobytes() == vecs[0].tobytes()


def test_jacobian_matches_the_per_pose_columns(
        arm: model.ArmDescription, rng: np.random.Generator) -> None:
    rows = model.dh_params(arm)
    for q in _random_in_limits(arm, rng, 20):
        assert kinematics.jacobian(arm, q).tobytes() == \
            _ref_jacobian(_ref_frames(rows, q)).tobytes()


_UNIT = st.floats(0.0, 1.0)


def _traced_lockstep(arm: model.ArmDescription, target: Pose,
                     starts: np.ndarray, opts: IKOptions,
                     solve=kinematics._lockstep_dls) -> tuple:
    """``solve``'s result and the joint rows of each of its FK calls (one
    call per trial)."""
    rows, lim = model.dh_params(arm), model.limits_array(arm)
    real = _kernels.fk_frames_batch
    trials = []

    def spy(rows, Q):
        trials.append(np.array(Q))
        return real(rows, Q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "fk_frames_batch", spy)
        result = solve(rows, lim, target, starts, opts)
    return result, trials


def _ref_lockstep(rows: np.ndarray, lim: np.ndarray, target: Pose,
                  starts: np.ndarray, opts: IKOptions):
    """The lockstep loop with all ``k`` rows kept in every state array: each
    trial gathers the live rows by index and scatters the accepted ones
    back. ``kinematics._lockstep_dls``, which keeps the live rows only,
    must match it bit for bit."""
    lo, hi = lim[:, 0], lim[:, 1]
    lam_floor = 1e-6
    Q = np.array(starts, dtype=float)
    k = len(Q)
    frames = _kernels.fk_frames_batch(rows, Q)
    E, pe, re_ = kinematics._pose_error(target, frames)
    err = kinematics._row_norms(E)
    J = kinematics._jacobian_from_frames(frames)
    lam = np.full(k, max(kinematics.DAMPING, lam_floor))
    stall = np.zeros(k, dtype=int)
    steps = np.zeros(k, dtype=int)
    rejects = np.zeros(k, dtype=int)
    live = np.ones(k, dtype=bool)
    best = (math.inf, math.inf)
    exhausted = False
    fresh = np.arange(k)  # starts at a new accepted step
    while True:
        if fresh.size:
            i = fresh[np.argmin(pe[fresh])]
            if pe[i] < best[0]:
                best = (float(pe[i]), float(re_[i]))
            done = fresh[(pe[fresh] < opts.pos_tol)
                         & (re_[fresh] < opts.ori_tol)]
            if done.size:
                return Q[done[0]].copy(), best, exhausted
            spent = fresh[steps[fresh] == opts.max_iters]
            live[spent] = False
            exhausted = exhausted or bool(spent.size)
        idx = np.flatnonzero(live)
        if not idx.size:
            return None, best, exhausted
        # one trial step per live start
        dq = kinematics._dls_step(J[idx], E[idx], lam[idx], Q[idx] == lo,
                                  Q[idx] == hi)
        peak = np.max(np.abs(dq), axis=1)
        big = peak > kinematics.STEP_LIMIT
        dq[big] *= (kinematics.STEP_LIMIT / peak[big])[:, None]
        q_new = np.clip(Q[idx] + dq, lo, hi)
        frames = _kernels.fk_frames_batch(rows, q_new)
        e_new, pe_new, re_new = kinematics._pose_error(target, frames)
        err_new = kinematics._row_norms(e_new)
        ok = err_new < err[idx]
        bad = idx[~ok]
        lam[bad] *= 10.0
        rejects[bad] += 1
        live[bad[rejects[bad] == 10]] = False
        a = idx[ok]
        # slow linear tails (limit-pinned or near-singular) are hopeless
        # within budget; count them as stalls
        slow = err_new[ok] > err[a] * (1.0 - 1e-3)
        stall[a] = np.where(slow, stall[a] + 1, 0)
        Q[a], E[a], pe[a], re_[a], err[a] = (
            q_new[ok], e_new[ok], pe_new[ok], re_new[ok], err_new[ok])
        J[a] = kinematics._jacobian_from_frames(frames[ok])
        lam[a] = np.maximum(lam[a] / 3.0, lam_floor)
        steps[a] += 1
        rejects[a] = 0
        live[a[stall[a] >= 12]] = False
        fresh = a[stall[a] < 12]


def _assert_starts_step_as_alone(arm: model.ArmDescription, target: Pose,
                                 starts: np.ndarray, opts: IKOptions) -> None:
    """Each start of the batch steps exactly as it does alone, and the
    batch's answer is the one of the start that converges first alone."""
    alone = [_traced_lockstep(arm, target, s[None], opts) for s in starts]
    (q, best, exhausted, _), trials = _traced_lockstep(arm, target, starts,
                                                       opts)
    converged = [i for i, (res, _) in enumerate(alone) if res[0] is not None]
    if converged:
        first = min(converged, key=lambda i: len(alone[i][1]))
        assert q.tobytes() == alone[first][0][0].tobytes()
        assert len(trials) == len(alone[first][1])
    else:
        assert q is None
        assert len(trials) == max(len(t) for _, t in alone)
        assert best == min((res[1] for res, _ in alone), key=lambda b: b[0])
        assert exhausted == any(res[2] for res, _ in alone)
    # each trial steps exactly the starts still live on their own
    for n, batch in enumerate(trials):
        own = [t[n][0] for _, t in alone if len(t) > n]
        assert sorted(r.tobytes() for r in batch) == \
            sorted(r.tobytes() for r in own)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 5))
def test_lockstep_starts_do_not_depend_on_their_batch(
        arm: model.ArmDescription, seed: int, k: int) -> None:
    # distinct random starts: equal starts would step alike in any batch
    lim = model.limits_array(arm)
    rng = np.random.default_rng(seed)
    q_all = rng.uniform(lim[:, 0], lim[:, 1], size=(k + 1, 6))
    target = kinematics.forward_kinematics(arm, q_all[0])
    _assert_starts_step_as_alone(arm, target, q_all[1:], IKOptions(max_iters=40))


def _pinned_starts(lim: np.ndarray, rng: np.random.Generator,
                   k: int) -> np.ndarray:
    """``k`` random in-limit starts, each with one to three joints set exactly
    on a limit."""
    starts = rng.uniform(lim[:, 0], lim[:, 1], size=(k, 6))
    for s in starts:
        j = rng.choice(6, size=rng.integers(1, 4), replace=False)
        s[j] = lim[j, rng.integers(0, 2, size=len(j))]
    return starts


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4))
def test_lockstep_rows_on_limits_do_not_depend_on_their_batch(
        arm: model.ArmDescription, seed: int, k: int) -> None:
    lim = model.limits_array(arm)
    rng = np.random.default_rng(seed)
    target = kinematics.forward_kinematics(
        arm, rng.uniform(lim[:, 0], lim[:, 1]))
    starts = _pinned_starts(lim, rng, k)
    # one free start among the pinned ones
    starts[rng.integers(0, k)] = rng.uniform(lim[:, 0], lim[:, 1])
    _assert_starts_step_as_alone(arm, target, starts, IKOptions(max_iters=40))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_lockstep_trials_stay_inside_the_limits(
        arm: model.ArmDescription, seed: int) -> None:
    lim = model.limits_array(arm)
    rng = np.random.default_rng(seed)
    target = kinematics.forward_kinematics(
        arm, rng.uniform(lim[:, 0], lim[:, 1]))
    (q, _, _, _), trials = _traced_lockstep(arm, target,
                                            _pinned_starts(lim, rng, 3),
                                            IKOptions(max_iters=60))
    # every accepted q was first a trial
    for Q in trials + ([q[None]] if q is not None else []):
        assert np.all(Q >= lim[:, 0]) and np.all(Q <= lim[:, 1])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 13),
       pinned=st.booleans(), near=st.booleans(),
       max_iters=st.sampled_from([0, 1, 2, 3, 5, 8, 40]))
def test_lockstep_matches_the_reference_loop(
        arm: model.ArmDescription, seed: int, k: int, pinned: bool,
        near: bool, max_iters: int) -> None:
    lim = model.limits_array(arm)
    rng = np.random.default_rng(seed)
    starts = (_pinned_starts(lim, rng, k) if pinned
              else rng.uniform(lim[:, 0], lim[:, 1], size=(k, 6)))
    # near: a target a few steps from one start, so that start converges
    # while the others are still live or already spent
    q_target = (starts[rng.integers(0, k)] + rng.normal(scale=0.05, size=6)
                if near else rng.uniform(lim[:, 0], lim[:, 1]))
    target = kinematics.forward_kinematics(arm, q_target)
    opts = IKOptions(max_iters=max_iters)
    (q, best, exhausted, frames), trials = _traced_lockstep(arm, target,
                                                            starts, opts)
    (q_ref, best_ref, exhausted_ref), trials_ref = _traced_lockstep(
        arm, target, starts, opts, solve=_ref_lockstep)
    assert (None if q is None else q.tobytes()) == \
        (None if q_ref is None else q_ref.tobytes())
    if q is not None:
        # the answer's frames, from its batch, are the ones it has alone
        alone = _kernels.fk_frames_batch(model.dh_params(arm), q[None])[0]
        assert frames.tobytes() == alone.tobytes()
    assert (best, exhausted) == (best_ref, exhausted_ref)
    assert [t.tobytes() for t in trials] == [t.tobytes() for t in trials_ref]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       log_lam=st.floats(-6.0, 0.0))
def test_active_set_step_holds_joints_on_their_limits(
        arm: model.ArmDescription, seed: int, n: int, log_lam: float) -> None:
    rows, lim = model.dh_params(arm), model.limits_array(arm)
    rng = np.random.default_rng(seed)
    Q = _pinned_starts(lim, rng, n)
    J = kinematics._jacobian_from_frames(_kernels.fk_frames_batch(rows, Q))
    JT = J.transpose(0, 2, 1)
    E = rng.normal(scale=0.05, size=(n, 6))
    lam = np.full(n, 10.0 ** log_lam)
    on_lo, on_hi = Q == lim[:, 0], Q == lim[:, 1]
    dq = kinematics._dls_step(J, E, lam, on_lo, on_hi)
    # the plain damped least-squares step, as solved before the active set
    plain = np.linalg.solve(JT @ J + (lam * lam)[:, None, None] * np.eye(6),
                            JT @ E[:, :, None])[:, :, 0]
    # a joint that starts the step on a limit never moves further out
    assert not np.any(on_lo & (dq < 0)) and not np.any(on_hi & (dq > 0))
    for i in range(n):
        alone = kinematics._dls_step(J[i:i + 1], E[i:i + 1], lam[i:i + 1],
                                     on_lo[i:i + 1], on_hi[i:i + 1])
        assert alone.tobytes() == dq[i:i + 1].tobytes()
        pushes = (on_lo[i] & (plain[i] < 0)) | (on_hi[i] & (plain[i] > 0))
        if not pushes.any():
            assert dq[i].tobytes() == plain[i].tobytes()
            continue
        # the held joints stay put; the rest take the damped least-squares
        # step of the problem without them, (Jf.T Jf + lam^2 I)^-1 Jf.T E
        held = (on_lo[i] | on_hi[i]) & (dq[i] == 0.0)
        assert held[pushes].all()
        Jf = J[i][:, ~held]
        ref = np.linalg.solve(Jf.T @ Jf + lam[i] ** 2 * np.eye(len(Jf.T)),
                              Jf.T @ E[i])
        np.testing.assert_allclose(dq[i][~held], ref, rtol=0,
                                   atol=1e-10 * np.abs(ref).max(initial=0))


def test_lockstep_ties_go_to_the_lowest_row(arm: model.ArmDescription) -> None:
    q = np.radians([10.0, -40.0, 50.0, 5.0, 30.0, -15.0])
    target = kinematics.forward_kinematics(arm, q)
    rows, lim = model.dh_params(arm), model.limits_array(arm)
    # both starts already meet the tolerances, so both converge at once
    for starts in ([q, q + 1e-9], [q + 1e-9, q]):
        got, _, _, _ = kinematics._lockstep_dls(rows, lim, target,
                                             np.array(starts), IKOptions())
        assert got.tobytes() == starts[0].tobytes()


def _random_case(arm: model.ArmDescription, seed: int) -> tuple:
    """One random in-limit start (1, 6) and the pose of a random in-limit
    joint vector, drawn from ``default_rng(seed)``."""
    lim = model.limits_array(arm)
    rng = np.random.default_rng(seed)
    start = rng.uniform(lim[:, 0], lim[:, 1], size=(1, 6))
    return start, kinematics.forward_kinematics(
        arm, rng.uniform(lim[:, 0], lim[:, 1]))


def test_lockstep_a_start_stalled_on_a_step_does_not_count_it(
        arm: model.ArmDescription) -> None:
    # this start stops on its twelfth slow step in a row, whose position
    # residual is below every earlier one; a stopped start's step counts
    # for neither the best residual nor convergence
    start, target = _random_case(arm, 5)
    opts = IKOptions()
    (q, best, exhausted, _), trials = _traced_lockstep(arm, target, start,
                                                       opts)
    assert q is None and not exhausted
    frames = _kernels.fk_frames_batch(model.dh_params(arm), trials[-1])
    _, pe_last, _ = kinematics._pose_error(target, frames)
    assert pe_last[0] < best[0]
    (_, best_ref, _), _ = _traced_lockstep(arm, target, start, opts,
                                           solve=_ref_lockstep)
    assert best == best_ref


def test_lockstep_a_start_stalled_on_its_last_step_is_not_exhausted(
        arm: model.ArmDescription) -> None:
    # this start's 36th accepted step is its twelfth slow one in a row: it
    # stops as stalled, not as out of budget
    start, target = _random_case(arm, 0)
    rows, lim = model.dh_params(arm), model.limits_array(arm)
    for max_iters, exhausted in ((35, True), (36, False), (37, False)):
        q, _, got, _ = kinematics._lockstep_dls(
            rows, lim, target, start, IKOptions(max_iters=max_iters))
        assert q is None and got is exhausted, max_iters


def _target_pool(arm: model.ArmDescription) -> np.ndarray:
    """The 60 in-limit joint vectors behind the benchmark's IK targets."""
    lim = model.limits_array(arm)
    return np.random.default_rng(0).uniform(lim[:, 0], lim[:, 1], size=(60, 6))


def _dls_path(arm: model.ArmDescription, target: Pose, seed,
              opts: IKOptions):
    """The answer of the damped-least-squares path alone, or None: the
    attempt from the clipped seed, then the restarts, as
    ``inverse_kinematics`` runs them when no branch of the wrist scan
    converges."""
    rows, lim = model.dh_params(arm), model.limits_array(arm)
    q0 = np.clip(np.reshape(seed, (1, 6)), lim[:, 0], lim[:, 1])
    q = kinematics._lockstep_dls(rows, lim, target, q0, opts)[0]
    if q is None:
        q = kinematics._lockstep_dls(
            rows, lim, target, kinematics._nearest_starts(arm, target),
            opts)[0]
    return q


#: SHA-256 of the damped-least-squares path's 60 answers, concatenated in
#: pool order, as the active-set step in the primal form gives them.
_DLS_POOL_SHA256 = \
    "153ee3499fa6a33ed5a1c8e38f28a36144ca092ca5f70557d74b9c3e9abca9c7"

#: SHA-256 of all 60 answers of ``inverse_kinematics``, concatenated in pool
#: order: each the in-limit branch of the wrist scan nearest the zero start.
_POOL_SHA256 = \
    "faf33c6ed775a9b2139023611893b3d11f04fceac931273857746b31e9dfe108"


def test_ik_solves_a_seeded_target_pool_from_the_zero_start(
        arm: model.ArmDescription) -> None:
    opts = IKOptions()
    rows, lim = model.dh_params(arm), model.limits_array(arm)
    wrist = _wrist.structure(arm)
    answers = hashlib.sha256()
    for q_true in _target_pool(arm):
        target = kinematics.forward_kinematics(arm, q_true)
        q = kinematics.inverse_kinematics(arm, target, np.zeros(6), opts)
        answers.update(q.tobytes())
        # the nearest branch meets the tolerances before any step
        nearest = _wrist.starts(wrist, rows, lim, target,
                                np.zeros((1, 6)))[0]
        assert q.tobytes() == nearest.tobytes()
        got = kinematics.forward_kinematics(arm, q)
        pos_err = float(np.linalg.norm(got.position - target.position))
        assert pos_err < opts.pos_tol
        assert float(np.linalg.norm(kinematics._rotation_vector(
            got.orientation @ target.orientation.T))) < opts.ori_tol
        assert np.all(q >= lim[:, 0]) and np.all(q <= lim[:, 1])
    assert answers.hexdigest() == _POOL_SHA256


def test_dls_path_keeps_its_pool_answers(arm: model.ArmDescription) -> None:
    opts = IKOptions()
    pool = _target_pool(arm)
    # a restart table holding the pool's own joint vectors would solve
    # every target in zero steps
    table, _, _ = kinematics._start_table(arm)
    assert not {r.tobytes() for r in table} & {r.tobytes() for r in pool}
    answers = hashlib.sha256()
    for q_true in pool:
        target = kinematics.forward_kinematics(arm, q_true)
        answers.update(_dls_path(arm, target, np.zeros(6), opts).tobytes())
    assert answers.hexdigest() == _DLS_POOL_SHA256


def _holds(Q: np.ndarray, q: np.ndarray) -> bool:
    """Whether some row of ``Q`` is ``q`` within 1e-8 rad in every joint,
    in whole turns."""
    turns = np.remainder(Q - q + math.pi, 2 * math.pi) - math.pi
    return bool((np.abs(turns).max(axis=1) < 1e-8).any())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(u=hnp.arrays(np.float64, 6, elements=_UNIT))
def test_wrist_branches_are_exact_and_hold_the_drawn_joints(
        arm: model.ArmDescription, u: np.ndarray) -> None:
    rows, lim = model.dh_params(arm), model.limits_array(arm)
    q_true = lim[:, 0] + u * (lim[:, 1] - lim[:, 0])
    tool = _kernels.fk_frames_batch(rows, q_true[None])[0, 6]
    target = Pose(tool[:3, 3], tool[:3, :3])
    Q = _wrist.branches(_wrist.structure(arm), rows, target)
    reached = _kernels.fk_frames_batch(rows, Q)[:, 6]
    assert np.abs(reached - tool).max(initial=0.0) <= 1e-9
    assert _holds(Q, q_true)


def test_wrist_branches_hold_draws_at_the_stretched_elbow(
        arm: model.ArmDescription) -> None:
    # joint 3 within 1.43 deg of its stretched-elbow angle, where the elbow
    # branches meet and pairs of roots close in on a double root; seed 17
    # draws two pairs closer than the scan's samples (draws 51 and 288)
    rows, lim = model.dh_params(arm), model.limits_array(arm)
    wrist = _wrist.structure(arm)
    missed = []
    for seed in (1, 17):
        rng = np.random.default_rng(seed)
        q = rng.uniform(lim[:, 0], lim[:, 1], size=(300, 6))
        q[:, 2] = wrist.beta - rows[2, 0] + rng.uniform(
            -math.radians(1.43), math.radians(1.43), size=300)
        tools = _kernels.fk_frames_batch(rows, q)[:, 6]
        missed += [(seed, n) for n, (q_true, tool) in enumerate(zip(q, tools))
                   if not _holds(_wrist.branches(wrist, rows, Pose(
                       tool[:3, 3], tool[:3, :3])), q_true)]
    assert missed == []


def test_wrist_branches_where_the_elbow_angle_is_constant_on_the_circle(
        arm: model.ArmDescription) -> None:
    # O5 - d1 z0 lies along the tool's z axis, so every point of the wrist
    # circle is as far from the shoulder as the others: the elbow's reach
    # loop shrinks to one value of the elbow angle
    rows = model.dh_params(arm)
    wrist = _wrist.structure(arm)
    R = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    p = np.array([0.2 + wrist.d6, 0.0, wrist.d1])
    Q = _wrist.branches(wrist, rows, Pose(p, R))
    assert len(Q) > 0
    tool = np.eye(4)
    tool[:3, :3], tool[:3, 3] = R, p
    reached = _kernels.fk_frames_batch(rows, Q)[:, 6]
    assert np.abs(reached - tool).max() <= 1e-9


def test_an_arm_without_the_wrist_structure_keeps_the_dls_answers(
        arm: model.ArmDescription, monkeypatch: pytest.MonkeyPatch) -> None:
    # the tool origin off joint 6's axis: O5 no longer follows from the pose
    dh = list(arm.dh)
    dh[5] = dataclasses.replace(dh[5], a_prev=0.005)
    edited = dataclasses.replace(arm, dh=tuple(dh))
    assert _wrist.structure(arm) is not None
    assert _wrist.structure(edited) is None

    def no_scan(*args):
        raise AssertionError("the wrist scan ran")

    monkeypatch.setattr(_wrist, "branches", no_scan)
    opts = IKOptions()
    for q_true in _target_pool(edited)[:12]:
        target = kinematics.forward_kinematics(edited, q_true)
        want = _dls_path(edited, target, np.zeros(6), opts)
        if want is None:
            with pytest.raises((NoConvergenceError, UnreachableTargetError)):
                kinematics.inverse_kinematics(edited, target, np.zeros(6),
                                              opts)
            continue
        got = kinematics.inverse_kinematics(edited, target, np.zeros(6), opts)
        assert got.tobytes() == want.tobytes()


def _criterion_05_draw(arm: model.ArmDescription, n: int) -> tuple:
    """Target ``n`` of acceptance criterion 05 and its perturbed start, as
    that test draws them."""
    lim = model.limits_array(arm)
    rng = np.random.default_rng(12345)
    rng.uniform(lim[:, 0], lim[:, 1], size=(100, 6))
    targets = rng.uniform(lim[:, 0], lim[:, 1], size=(1000, 6))
    for q_true in targets[:n + 1]:
        seed = np.clip(q_true + rng.uniform(-0.2, 0.2, size=6),
                       lim[:, 0], lim[:, 1])
    return q_true, seed


def test_criterion_05_target_840_solves_from_its_perturbed_start(
        arm: model.ArmDescription) -> None:
    q_true, seed = _criterion_05_draw(arm, 840)
    np.testing.assert_allclose(
        np.degrees(q_true), [107.15, -21.79, 84.30, 179.32, -85.19, -131.54],
        atol=0.005)
    target = kinematics.forward_kinematics(arm, q_true)
    # the damped-least-squares path alone ends in a local minimum on the
    # q5 limit
    assert _dls_path(arm, target, seed, IKOptions()) is None
    q = kinematics.inverse_kinematics(arm, target, seed)
    got = kinematics.forward_kinematics(arm, q)
    assert float(np.linalg.norm(got.position - target.position)) < 1e-6
    assert float(np.linalg.norm(kinematics._rotation_vector(
        got.orientation @ target.orientation.T))) < 1e-6
    lim = model.limits_array(arm)
    assert np.all(q >= lim[:, 0]) and np.all(q <= lim[:, 1])


@pytest.mark.parametrize("n", [2, 16])
def test_first_attempts_along_a_limit_end_within_60_trials(
        arm: model.ArmDescription, n: int) -> None:
    # with clamping alone, these first attempts crawled along a limit for
    # 298 and 249 trials before they failed
    target = kinematics.forward_kinematics(arm, _target_pool(arm)[n])
    _, trials = _traced_lockstep(arm, target, np.zeros((1, 6)), IKOptions())
    assert len(trials) <= 60


#: SHA-256 of the restart table's joint vectors for the shipped arm, as
#: the first child stream of seed 0 draws them.
_START_TABLE_SHA256 = \
    "1632798be0ab0a9e55c0a3920b5032cf99045d615a8f66a5f7769ba7ad4e189c"


def test_restart_table_is_seeded_in_limits_and_cached(
        arm: model.ArmDescription) -> None:
    lim = model.limits_array(arm)
    Q, P, R = kinematics._start_table(arm)
    assert Q.shape == (kinematics.START_TABLE_SIZE, 6)
    assert hashlib.sha256(Q.tobytes()).hexdigest() == _START_TABLE_SHA256
    assert np.all(Q >= lim[:, 0]) and np.all(Q <= lim[:, 1])
    assert kinematics._start_table(arm)[0] is Q
    tool = _kernels.fk_frames_batch(model.dh_params(arm), Q[-3:])[:, 6]
    assert np.array_equal(P[-3:], tool[:, :3, 3])
    assert np.array_equal(R[-3:], tool[:, :3, :3])
    assert not any(a.flags.writeable for a in (Q, P, R))
    # another arm with the same limits: its own entry, the same draws
    dh = list(arm.dh)
    dh[5] = dataclasses.replace(dh[5], a_prev=0.005)
    Q2, P2, _ = kinematics._start_table(dataclasses.replace(arm, dh=tuple(dh)))
    assert Q2 is not Q and np.array_equal(Q2, Q)
    assert not np.array_equal(P2, P)


def _after_import(code: str) -> str:
    """What ``code`` prints in a fresh interpreter after ``import armkit``."""
    src = str(Path(kinematics.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", "import armkit\n" + code],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_restart_table_is_not_built_at_import() -> None:
    # nor by an IK call that the wrist scan answers
    assert _after_import(
        "arm = armkit.default_arm()\n"
        "q = armkit.kinematics.inverse_kinematics(\n"
        "    arm, armkit.forward_kinematics(arm, [0.1] * 6), [0.0] * 6)\n"
        "print(hasattr(armkit.model._tables(arm), 'starts'))") == "False"


def test_the_wrist_scan_is_not_imported_with_armkit() -> None:
    # the first IK call imports it; commands that run no IK never do
    assert _after_import("import sys\n"
                         "print('armkit._wrist' in sys.modules)") == "False"


# ---------------------------------------------------------------------------
# the per-arm record
# ---------------------------------------------------------------------------

def _query_bytes(arm, target: Pose) -> list:
    """The bytes of a design query: IK from the zero start, then the
    Jacobian, the static report and the fixed-pose payload cap at the
    answer, each call on the arm that ``arm()`` returns."""
    q = kinematics.inverse_kinematics(arm(), target, np.zeros(6))
    J = kinematics.jacobian(arm(), q)
    report = statics.static_report(arm(), q)
    cap = statics.max_payload(arm(), q)
    return [q.tobytes(), J.tobytes(), report.required.tobytes(),
            report.available.tobytes(), report.utilization.tobytes(),
            report.limiting_joint, cap.mass, cap.limiting_joint,
            cap.utilization, cap.pose.tobytes(), cap.policy]


def test_pool_queries_on_one_arm_match_a_fresh_arm_per_call() -> None:
    warm = model.default_arm()
    for q_true in _target_pool(warm):
        target = kinematics.forward_kinematics(warm, q_true)
        assert _query_bytes(lambda: warm, target) == \
            _query_bytes(model.default_arm, target)


def _cold(fn, q):
    """``fn`` at ``q`` on an arm that has no record yet."""
    return fn(model.default_arm(), q)


def test_the_record_never_serves_a_stale_pose() -> None:
    arm = model.default_arm()
    q1 = np.radians([10.0, -20.0, 30.0, 0.0, 15.0, 5.0])
    q2 = np.radians([-35.0, 40.0, -10.0, 60.0, -25.0, 90.0])
    ulp = q1.copy()
    ulp[2] = np.nextafter(ulp[2], np.inf)
    negative_zero = np.zeros(6)
    negative_zero[3] = -0.0
    dh = list(arm.dh)
    dh[2] = dataclasses.replace(dh[2], a_prev=0.04)
    other = dataclasses.replace(arm, dh=tuple(dh))
    # (arm, pose, frames computed): each arm keeps its own last pose
    queries = [(arm, q1, 1), (arm, q2, 1), (arm, q1, 1), (other, q1, 1),
               (arm, q1, 0), (other, q1, 0), (arm, ulp, 1),
               (arm, np.zeros(6), 1), (arm, negative_zero, 1),
               (arm, negative_zero, 0)]
    calls, real = [], _kernels.fk_frames_batch
    got = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "fk_frames_batch",
                   lambda rows, Q: calls.append(1) or real(rows, Q))
        for a, q, computed in queries:
            before = len(calls)
            got.append((kinematics.jacobian(a, q).tobytes(),
                        statics.gravity_torques(a, q).tobytes()))
            assert len(calls) - before == computed
            assert model._tables(a).pose[0] == q.tobytes()
    for (a, q, _), answer in zip(queries, got):
        cold = dataclasses.replace(a)  # the same arm, without a record
        assert answer == (kinematics.jacobian(cold, q).tobytes(),
                          statics.gravity_torques(cold, q).tobytes())
    assert got[2] != got[3]  # the two arms differ at q1


def test_two_threads_on_one_arm_get_their_own_poses() -> None:
    arm = model.default_arm()
    poses = np.radians([[10.0, -20.0, 30.0, 0.0, 15.0, 5.0],
                        [-35.0, 40.0, -10.0, 60.0, -25.0, 90.0]])
    cold = [(_cold(kinematics.jacobian, q).tobytes(),
             _cold(statics.gravity_torques, q).tobytes()) for q in poses]
    wrong = []

    def work(i: int) -> None:
        for _ in range(3000):
            got = (kinematics.jacobian(arm, poses[i]).tobytes(),
                   statics.gravity_torques(arm, poses[i]).tobytes())
            if got != cold[i]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


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
    # 64 rows, 32 distinct points, in 5-point chunks: full chunks and a
    # short last one
    monkeypatch.setattr(kinematics, "SWEEP_CHUNK_ROWS", 5)
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
                     elements=st.floats(-1e6, 1e6)))
def test_batched_fk_matches_per_pose_frames(arm: model.ArmDescription,
                                            qb: np.ndarray) -> None:
    rows = model.dh_params(arm)
    ref = np.stack([_ref_frames(rows, q) for q in qb])
    frames = _kernels.fk_frames_batch(rows, qb)
    points = _kernels.fk_points(rows, qb)
    assert frames.shape == (len(qb), 7, 4, 4)
    assert points.shape == (len(qb), 3)
    # bit for bit, alone or in a batch: every frames caller uses the kernel
    assert frames.tobytes() == ref.tobytes()
    assert kinematics.fk_frames(arm, qb[0]).tobytes() == ref[0].tobytes()
    assert float(np.max(np.abs(points - ref[:, 6, :3, 3]))) <= 1e-12
