from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from armkit import model, statics
from armkit.errors import NoConvergenceError


FIXED_OUTSTRETCHED = np.radians([0.0, 0.0, 90.0, 0.0, -90.0, 0.0])


# ---------------------------------------------------------------------------
# gravity torques
# ---------------------------------------------------------------------------

def test_massless_arm_needs_no_torque(arm: model.ArmDescription,
                                      rng: np.random.Generator) -> None:
    mm = dataclasses.replace(arm.mass_model, links=(), motors=(),
                             reference_total=None)
    hollow = dataclasses.replace(arm, mass_model=mm)
    lim = model.limits_array(arm)
    for q in rng.uniform(lim[:, 0], lim[:, 1], size=(5, 6)):
        tau = statics.gravity_torques(hollow, q)
        assert np.array_equal(tau, np.zeros(6))


def test_gravity_torque_is_linear_in_payload(arm: model.ArmDescription,
                                             rng: np.random.Generator) -> None:
    lim = model.limits_array(arm)
    for q in rng.uniform(lim[:, 0], lim[:, 1], size=(5, 6)):
        t0 = statics.gravity_torques(arm, q, payload=0.0)
        t1 = statics.gravity_torques(arm, q, payload=1.0)
        t3 = statics.gravity_torques(arm, q, payload=3.0)
        assert np.allclose(t3, t0 + 3.0 * (t1 - t0), rtol=1e-12, atol=1e-12)


def test_base_yaw_torque_is_zero_under_gravity(arm: model.ArmDescription,
                                               rng: np.random.Generator) -> None:
    # gravity is parallel to the base yaw axis, so joint 1 never loads
    lim = model.limits_array(arm)
    for q in rng.uniform(lim[:, 0], lim[:, 1], size=(10, 6)):
        tau = statics.gravity_torques(arm, q, payload=2.0)
        assert tau[0] == pytest.approx(0.0, abs=1e-12)


def test_heavier_payload_needs_monotonically_more_torque(
        arm: model.ArmDescription) -> None:
    q = FIXED_OUTSTRETCHED
    mags = [float(np.max(np.abs(statics.gravity_torques(arm, q, payload=m))))
            for m in (0.0, 0.5, 1.0, 2.0)]
    assert mags == sorted(mags)
    assert mags[0] < mags[-1]


def test_available_torques_match_drivetrain_budget(arm: model.ArmDescription) -> None:
    avail = statics.available_torques(arm)
    assert np.allclose(avail, [1.256, 23.625, 3.15, 0.52281, 0.471, 0.52281],
                       atol=1e-12)


# ---------------------------------------------------------------------------
# static reports
# ---------------------------------------------------------------------------

def test_static_report_shapes_and_overload_detection(arm: model.ArmDescription) -> None:
    rep = statics.static_report(arm, FIXED_OUTSTRETCHED, payload=10.0)
    assert rep.required.shape == (6,)
    assert rep.available.shape == (6,)
    assert rep.utilization.shape == (6,)
    assert float(np.max(rep.utilization)) > 1.0
    assert rep.limiting_joint in range(1, 7)


def test_static_report_utilization_is_ratio(arm: model.ArmDescription) -> None:
    rep = statics.static_report(arm, FIXED_OUTSTRETCHED, payload=0.5)
    assert np.allclose(rep.utilization,
                       np.abs(rep.required) / rep.available,
                       rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# payload capacity
# ---------------------------------------------------------------------------

def test_max_payload_at_outstretched_pose(arm: model.ArmDescription) -> None:
    res = statics.max_payload(arm, pose_policy=FIXED_OUTSTRETCHED)
    assert res.mass == pytest.approx(1.3509407630596943, abs=1e-12)
    assert res.limiting_joint == 3
    assert 0.999 <= res.utilization <= 1.0
    assert np.array_equal(res.pose, FIXED_OUTSTRETCHED)
    assert res.policy == "fixed"


def test_max_payload_worst_case_sweep(arm: model.ArmDescription) -> None:
    res = statics.max_payload(arm)
    assert res.mass == pytest.approx(0.6258164421713137, abs=1e-12)
    assert res.limiting_joint == 5
    assert 0.999 <= res.utilization <= 1.0
    assert np.allclose(np.degrees(res.pose), [0.0, -45.0, 60.0, 0.0, 60.0, 0.0],
                       atol=1e-9)
    assert res.policy == "worst_case_sweep"


def test_max_payload_shoulder_elbow_diagnostic(arm: model.ArmDescription) -> None:
    # constraining only the two pitch joints shows what the capacity would be
    # if the wrist budget were ignored; the wrist is what actually binds
    res = statics.max_payload(arm, constraint_joints=(2, 3))
    assert res.mass == pytest.approx(1.042326553903182, abs=1e-12)
    assert res.limiting_joint == 3
    assert math.degrees(res.pose[1]) == pytest.approx(-105.0, abs=1e-9)
    full = statics.max_payload(arm)
    assert res.mass > full.mass


def test_max_payload_is_deterministic(arm: model.ArmDescription) -> None:
    a = statics.max_payload(arm, grid_deg=30.0)
    b = statics.max_payload(arm, grid_deg=30.0)
    assert a.mass == b.mass
    assert a.limiting_joint == b.limiting_joint


def test_max_payload_unconstrained_axis_diverges(arm: model.ArmDescription) -> None:
    # joint 1 sees no gravity torque, so a J1-only constraint never binds
    with pytest.raises(NoConvergenceError):
        statics.max_payload(arm, pose_policy=FIXED_OUTSTRETCHED,
                            constraint_joints=(1,))
    # forearm roll never loads on the lattice (joints 1, 4 and 6 held at 0)
    with pytest.raises(NoConvergenceError):
        statics.sweep_payload_caps(arm, grid_deg=30.0, constraint_joints=(4,))


def test_constraint_joints_validation(arm: model.ArmDescription) -> None:
    for kwargs in ({"constraint_joints": ()},
                   {"constraint_joints": (0, 3)},
                   {"constraint_joints": (7,)},
                   {"grid_deg": 0.0},
                   {"grid_deg": -15.0},
                   {"grid_deg": math.nan},
                   {"grid_deg": math.inf},
                   {"sweep_joints": (7,)},
                   {"sweep_joints": (0, 2)}):
        for search in (statics.max_payload, statics.sweep_payload_caps):
            with pytest.raises(ValueError):
                search(arm, **kwargs)
        if "constraint_joints" not in kwargs:
            with pytest.raises(ValueError):
                statics.sweep_poses(arm, **kwargs)
    for payload in (-5.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError):
            statics.static_report(arm, FIXED_OUTSTRETCHED, payload=payload)


@settings(max_examples=20, deadline=None)
@given(grid_deg=st.sampled_from([30.0, 45.0, 60.0, 90.0]),
       sweep=st.sets(st.integers(1, 6), min_size=1, max_size=3),
       limit=st.sets(st.integers(1, 6), min_size=1),
       gravity=st.sampled_from([None, 50.0]))
def test_payload_caps_are_the_largest_holdable_mass(
        arm: model.ArmDescription, grid_deg: float, sweep: set, limit: set,
        gravity: float | None) -> None:
    # the definition, through gravity_torques itself: every constrained
    # |torque| holds at the cap and one breaks 1e-9 kg above it; a cap is 0
    # only where the pose is overloaded unloaded (common at 50 m/s^2), and
    # inf exactly where the pose holds 1e6 kg
    if gravity is not None:
        arm = dataclasses.replace(arm, mass_model=dataclasses.replace(
            arm.mass_model, gravity=gravity))
    kwargs = dict(grid_deg=grid_deg, sweep_joints=tuple(sorted(sweep)))
    cols = [j - 1 for j in sorted(limit)]
    avail = statics.available_torques(arm)[cols]

    def holds(q: np.ndarray, m: float) -> bool:
        tau = statics.gravity_torques(arm, q, payload=m)[cols]
        return bool(np.all(np.abs(tau) <= avail))

    poses = statics.sweep_poses(arm, **kwargs)
    try:
        _, caps, _ = statics.sweep_payload_caps(
            arm, constraint_joints=tuple(sorted(limit)), **kwargs)
    except NoConvergenceError:
        caps = np.full(len(poses), np.inf)
    for q, cap in zip(poses, caps.tolist()):
        assert math.isinf(cap) == holds(q, 1e6)
        if math.isfinite(cap):
            assert holds(q, cap) or (cap == 0.0 and not holds(q, 0.0))
            assert not holds(q, cap + 1e-9)


# ---------------------------------------------------------------------------
# pose sweeps
# ---------------------------------------------------------------------------

def test_sweep_poses_lattice_counts(arm: model.ArmDescription) -> None:
    poses = statics.sweep_poses(arm, grid_deg=90.0, sweep_joints=(2, 3))
    lim = model.limits_array(arm)
    expected = 1
    for j in (2, 3):
        lo, hi = lim[j - 1]
        expected *= max(2, int(round(math.degrees(hi - lo) / 90.0)) + 1)
    assert poses.shape == (expected, 6)
    for j in (2, 3):
        col = poses[:, j - 1]
        assert float(col.min()) == pytest.approx(lim[j - 1, 0], abs=1e-12)
        assert float(col.max()) == pytest.approx(lim[j - 1, 1], abs=1e-12)
    swept = {2, 3}
    for col in range(6):
        if col + 1 not in swept:
            assert np.array_equal(poses[:, col], np.zeros(len(poses)))


def test_sweep_payload_caps_alignment(arm: model.ArmDescription) -> None:
    poses, caps, limiting = statics.sweep_payload_caps(arm, grid_deg=60.0)
    assert caps.shape == (len(poses),)
    assert limiting.shape == (len(poses),)
    assert np.all(caps >= 0.0)
    assert set(np.unique(limiting)).issubset({1, 2, 3, 4, 5, 6})
    k = int(np.argmin(caps))
    res = statics.max_payload(arm, grid_deg=60.0)
    # max_payload is the smallest per-pose cap of the same search
    assert res.mass == caps[k]
    assert res.limiting_joint == int(limiting[k])


def test_sweep_payload_caps_marks_unbounded_poses(
        arm: model.ArmDescription) -> None:
    # unrolled or straight wrists never load forearm roll; bent, rolled ones do
    kwargs = dict(grid_deg=45.0, sweep_joints=(3, 4, 5), constraint_joints=(4,))
    _, caps, limiting = statics.sweep_payload_caps(arm, **kwargs)
    unbounded = np.isinf(caps)
    assert unbounded.any() and not unbounded.all()
    assert np.all(limiting == 4)
    assert statics.max_payload(arm, **kwargs).mass == caps.min()


# ---------------------------------------------------------------------------
# batched paths against single-pose ones
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(u=hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.just(6)),
                    elements=st.floats(0.0, 1.0)),
       payload=st.floats(0.0, 5.0))
def test_batched_gravity_torques_match_single_poses(
        arm: model.ArmDescription, u: np.ndarray, payload: float) -> None:
    lim = model.limits_array(arm)
    qb = lim[:, 0] + u * (lim[:, 1] - lim[:, 0])
    batch = statics.gravity_torques(arm, qb, payload=payload)
    single = np.stack([statics.gravity_torques(arm, q, payload=payload)
                       for q in qb])
    assert batch.shape == (len(qb), 6)
    assert float(np.max(np.abs(batch - single))) <= 1e-12
    t0 = statics.gravity_torques(arm, qb, payload=0.0)
    t1 = statics.gravity_torques(arm, qb, payload=1.0)
    assert np.allclose(batch, t0 + payload * (t1 - t0), rtol=1e-12, atol=1e-12)


@settings(max_examples=12, deadline=None)
@given(grid_deg=st.sampled_from([20.0, 30.0, 45.0, 60.0]),
       sweep=st.sets(st.sampled_from([2, 3, 5]), min_size=1),
       limit=st.sets(st.integers(1, 6), min_size=1))
def test_max_payload_is_the_smallest_sweep_cap(
        arm: model.ArmDescription, grid_deg: float, sweep: set,
        limit: set) -> None:
    kwargs = dict(grid_deg=grid_deg, sweep_joints=tuple(sorted(sweep)),
                  constraint_joints=tuple(sorted(limit)))
    try:
        res = statics.max_payload(arm, **kwargs)
    except NoConvergenceError:
        with pytest.raises(NoConvergenceError):
            statics.sweep_payload_caps(arm, **kwargs)
        return
    _, caps, _ = statics.sweep_payload_caps(arm, **kwargs)
    assert res.mass == caps.min()
    assert type(res.mass) is float and type(res.utilization) is float
