"""Gravity-load torques and payload capacity against the drive torque budget.

Gravity acts along -z of the base frame with configurable magnitude
(``mass_model.gravity``). Required torque at a joint is the magnitude of the
gravity moment about that joint's axis from every mass distal to it; the
holding budget is ``holding_torque x total reduction`` per joint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import drivetrain
from .errors import (ComputationError, NoConvergenceError,
                     ResourceLimitError, require_finite)
from ._kernels import fk_frames_batch
from .kinematics import (DEFAULT_SAMPLE_CAP, _joint_angles, _keep_pose,
                         _pose_entry, _row_norms)
from .model import ArmDescription, _mass_entries, _tables, limits_array

#: Default worst-case sweep: 15-degree grid on the gravity-loaded joints
#: (shoulder pitch, elbow pitch, wrist pitch); yaw/roll joints stay at zero.
SWEEP_JOINTS = (2, 3, 5)
SWEEP_GRID_DEG = 15.0

#: Joints whose torque budgets bound a payload by default: all six.
CONSTRAINT_JOINTS = (1, 2, 3, 4, 5, 6)

#: Read only by ``perfbench`` as its payload pin tolerance; the caps are exact.
BISECTION_TOL_KG = 1e-4

#: A pose that holds this payload (kg) has an unbounded (inf) cap.
_CEILING_KG = 1e6

#: Poses per batch of the gravity model; its scratch arrays take about
#: 5 kB per pose, so a chunk stays near 1.3 MB on any lattice.
_POSE_CHUNK = 256


@dataclass(frozen=True)
class StaticLoadReport:
    """Required vs. available torque per joint at one pose."""

    required: np.ndarray     # (6,) N.m, magnitudes
    available: np.ndarray    # (6,) N.m
    utilization: np.ndarray  # (6,) required/available
    limiting_joint: int      # 1-based index of the max-utilization joint


@dataclass(frozen=True)
class PayloadResult:
    """Outcome of a max-payload analysis."""

    mass: float              # kg, exact cap rounded down to utilization <= 1
    limiting_joint: int      # 1-based
    utilization: float       # limiting joint's utilization at ``mass``
    pose: np.ndarray         # binding pose (radians)
    policy: str              # "worst_case_sweep" or "fixed"


def _statics_tables(arm: ArmDescription):
    """The arm's record with the entries of this module filled: ``mass``,
    the read-only arrays of :func:`_gravity_split` over the model's mass
    list (:func:`model._mass_entries`: each entry's frame, the frame its
    link starts at, its mass and offset, and the (entries, 6, 1) mask of
    the joints it loads), and ``budget``, the read-only zero-rate
    :func:`available_torques`."""
    tables = _tables(arm)
    if not hasattr(tables, "budget"):
        table = np.array(_mass_entries(arm), dtype=float).reshape(-1, 3)
        frame, mass, offset = table[:, 0].astype(int), table[:, 1], table[:, 2]
        loads = (frame[:, None] >= np.arange(1, 7)) & (mass[:, None] != 0.0)
        split = (frame, np.maximum(frame - 1, 0), mass, offset,
                 loads[..., None])
        budget = _budget(arm, 0.0)
        for a in (*split, budget):
            a.setflags(write=False)
        tables.mass = split
        tables.budget = budget  # set last: its presence marks both
    return tables


def _gravity_split(arm: ArmDescription, frames: np.ndarray):
    """Structural gravity torque and tool-point lever per pose and joint.

    Each mass entry sits ``offset`` along its link, from the previous frame
    origin toward its own (frame 0, or a zero-length link: along that
    frame's z-axis). Entry moments about joint ``j`` count only for entries
    at or distal to frame ``j`` and are summed in entry order.

    Returns:
        (tau_struct, tool_lever), both (n, 6); a payload at the tool origin
        adds its :func:`_payload_term`.
    """
    # pose axis last, so every elementwise step runs over the poses
    axis, origin = np.ascontiguousarray(
        frames[:, :, :3, 2:].transpose(3, 2, 1, 0))
    frame, prev, mass, offset, loads = _statics_tables(arm).mass
    o_prev = origin[:, prev]
    span = origin[:, frame] - o_prev
    length = _row_norms(span.T).T
    along = length > 1e-12
    u = np.where(along, span / np.where(along, length, 1.0), axis[:, frame])
    points = np.concatenate([o_prev + offset[:, None] * u, origin[:, 6:]], axis=1)
    # moment arm about each joint axis of a unit downward force at each point
    r = points[:2, :, None] - origin[:2, None, :6]
    lever = axis[0, :6] * (-r[1]) + axis[1, :6] * r[0]
    moments = mass[:, None, None] * lever[:-1] * (-arm.mass_model.gravity)
    # summed over the entries one at a time, in entry order
    tau = np.where(loads, moments, 0.0).sum(axis=0)
    return tau.T.copy(), lever[-1].T.copy()


def _payload_term(tau: np.ndarray, m, lever: np.ndarray,
                  g: float) -> np.ndarray:
    """``tau + m * lever * (-g)``: the torques ``tau`` with a payload ``m``
    (kg) at the tool origin of lever ``lever`` under gravity ``g``. The
    one expression of the payload's torque, in this operation order, so
    :func:`gravity_torques` and :func:`_payload_caps` round alike."""
    return tau + m * lever * (-g)


def _torque_split(arm: ArmDescription, q: np.ndarray):
    """:func:`_gravity_split` of one pose ``q`` (a 1-D array) or of a batch
    of poses (n, 6), whose frames come from :func:`fk_frames_batch` in
    chunks of ``_POSE_CHUNK`` poses.

    One pose's split, (1, 6) arrays, is read-only: it is the one kept in
    the arm's last-pose record (``model._Tables.pose``), which checks the
    pose, computed there first if the record lacks it."""
    if q.ndim < 2:
        entry = _pose_entry(arm, q)
        if entry[2] is None:
            split = _gravity_split(arm, entry[1][None])
            for a in split:
                a.setflags(write=False)
            entry = _keep_pose(arm, *entry[:2], split)
        return entry[2]
    rows, q = _tables(arm).rows, q.reshape(-1, 6)
    parts = [_gravity_split(arm, fk_frames_batch(rows, chunk))
             for chunk in np.split(q, range(_POSE_CHUNK, len(q), _POSE_CHUNK))]
    return tuple(np.concatenate(p) for p in zip(*parts))


def gravity_torques(arm: ArmDescription, q, payload: Optional[float] = None
                    ) -> np.ndarray:
    """Signed gravity moment about each joint axis (N.m).

    Args:
        arm: arm description.
        q: joint angles (radians), one (6,) pose or an (n, 6) batch.
        payload: point mass (kg) at the tool frame origin; defaults to the
            mass model's configured payload.

    Returns:
        (6,) array for one pose, (n, 6) for a batch; entry ``j-1`` is the
        moment about joint ``j``'s axis from all masses distal to joint
        ``j`` (links, motors, payload).

    Raises:
        ValueError: negative or non-finite payload, a pose that is not six
            angles or a batch whose last axis is not six long, or a
            non-finite angle.
    """
    payload = arm.mass_model.payload if payload is None else float(payload)
    require_finite(payload, "payload (kg)", ">= 0")
    q = np.asarray(q, dtype=float)
    if q.ndim > 1:  # one pose is checked by the arm's last-pose record
        _joint_angles(q, "joint angles q", batch=True)
    tau, lever = _torque_split(arm, q)
    if payload > 0:
        tau = _payload_term(tau, payload, lever, arm.mass_model.gravity)
    else:
        tau = tau.copy()
    return tau.reshape(q.shape)


def _budget(arm: ArmDescription, rate: float) -> np.ndarray:
    return np.array([drivetrain.available_joint_torque(arm.drive(j), rate)
                     for j in range(1, 7)])


def available_torques(arm: ArmDescription, rate: float = 0.0) -> np.ndarray:
    """Torque budget per joint (N.m) at a motor step rate; the default zero
    rate gives the holding budget, a copy of the one in the arm's record. A
    NaN or infinite rate raises ValueError (in ``drivetrain``)."""
    if rate == 0.0:
        return _statics_tables(arm).budget.copy()
    return _budget(arm, rate)


def _utilization(required: np.ndarray, available: np.ndarray) -> np.ndarray:
    """required/available; a zero budget is 0 when unloaded, else inf."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(available > 0.0,
                        required / np.where(available > 0.0, available, 1.0),
                        np.where(required > 0.0, np.inf, 0.0))


def static_report(arm: ArmDescription, q, payload: Optional[float] = None
                  ) -> StaticLoadReport:
    """Required vs. available torques and utilizations at one pose.

    The pose's frames and gravity split and the holding budget come from
    the arm's record (``model._Tables``), where the split is computed once
    per pose; the report's arrays are fresh copies.
    """
    required = np.abs(gravity_torques(arm, q, payload))
    available = available_torques(arm)
    util = _utilization(required, available)
    limiting = int(np.argmax(util)) + 1
    return StaticLoadReport(required=required, available=available,
                            utilization=util, limiting_joint=limiting)


# --------------------------------------------------------------------------
# payload capacity
# --------------------------------------------------------------------------

def sweep_poses(arm: ArmDescription,
                grid_deg: float = SWEEP_GRID_DEG,
                sweep_joints: Sequence[int] = SWEEP_JOINTS) -> np.ndarray:
    """In-limits pose lattice for the worst-case search.

    Swept joints get an inclusive ``grid_deg`` grid over their limits; the
    remaining joints are held at 0 (they do not change the gravity moment
    about their own axes in this mounting, and zero keeps the lattice small).

    Raises:
        ValueError: ``grid_deg`` not a finite pitch > 0, or a swept joint
            outside 1-6.
        ResourceLimitError: the lattice has more than
            ``kinematics.DEFAULT_SAMPLE_CAP`` poses.
    """
    require_finite(grid_deg, "grid_deg", "> 0")
    if any(int(j) not in range(1, 7) for j in sweep_joints):
        raise ValueError(f"sweep_joints must lie in 1-6, got {tuple(sweep_joints)}")
    lim = limits_array(arm)
    # counted as floats first: a tiny pitch overflows an int conversion
    sizes = [max(2.0, float(np.rint(math.degrees(hi - lo) / grid_deg)) + 1.0)
             if j in sweep_joints else 1.0
             for j, (lo, hi) in enumerate(lim, start=1)]
    if math.prod(sizes) > DEFAULT_SAMPLE_CAP:
        raise ResourceLimitError(
            f"a {grid_deg!r} deg lattice has {math.prod(sizes):.3g} poses, "
            f"over the cap of {DEFAULT_SAMPLE_CAP}")
    axes = [np.linspace(lo, hi, int(n)) if n > 1 else np.array([0.0])
            for (lo, hi), n in zip(lim, sizes)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _payload_caps(arm: ArmDescription, poses: np.ndarray, cols: list):
    """Exact per-pose payload caps over one pose (a 1-D array) or (n, 6)
    poses.

    Constrained torques are linear in the payload, ``tau_s + m * c``, so a
    pose's cap is the least of ``(avail - tau_s) / c`` over c > 0 and
    ``(avail + tau_s) / -c`` over c < 0, stepped down an ulp at a time (a
    few steps at most) until every constrained ``|torque| <= avail``. It is
    0 where the pose is overloaded unloaded and inf where it holds
    ``_CEILING_KG``: joints gravity cannot load keep |c| near 1e-18, not 0.

    Args:
        cols: 0-based columns of the constraint joints.

    Returns:
        (caps, util_at): per-pose caps, and a function giving the
        (n, len(cols)) utilizations at a payload per pose.

    Raises:
        NoConvergenceError: every pose is unbounded.
    """
    tau_s, lever = _torque_split(arm, poses)
    tau_s, lever = tau_s[:, cols], lever[:, cols]
    g = arm.mass_model.gravity
    avail = _statics_tables(arm).budget[cols]

    def torques(m: np.ndarray) -> np.ndarray:
        return np.abs(_payload_term(tau_s, m[:, None], lever, g))

    def fits(m: np.ndarray) -> np.ndarray:
        return (torques(m) <= avail).all(axis=1)

    def util_at(m: np.ndarray) -> np.ndarray:
        return _utilization(torques(m), avail)

    unbounded = fits(np.full(len(tau_s), _CEILING_KG))
    if unbounded.all():
        raise NoConvergenceError(
            f"every pose holds over {_CEILING_KG:g} kg on the constrained joints")
    c = lever * (-g)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bound = np.where(c > 0.0, (avail - tau_s) / c,
                         np.where(c < 0.0, (avail + tau_s) / -c, np.inf))
    caps = np.where(fits(np.zeros(len(tau_s))),
                    np.clip(bound.min(axis=1), 0.0, _CEILING_KG), 0.0)
    over = ~unbounded & (caps > 0.0) & ~fits(caps)
    while over.any():
        caps[over] = np.nextafter(caps[over], 0.0)
        over &= ~fits(caps)
    return np.where(unbounded, np.inf, caps), util_at


def max_payload(arm: ArmDescription,
                pose_policy: Union[str, Sequence[float]] = "worst_case_sweep",
                grid_deg: float = SWEEP_GRID_DEG,
                sweep_joints: Sequence[int] = SWEEP_JOINTS,
                constraint_joints: Sequence[int] = CONSTRAINT_JOINTS
                ) -> PayloadResult:
    """Largest payload (kg) holdable at every joint under the pose policy.

    Args:
        arm: arm description.
        pose_policy: ``"worst_case_sweep"`` (default) checks every pose of
            the :func:`sweep_poses` lattice; six joint angles check that
            fixed pose only, whose gravity split comes from the arm's
            per-arm record (``model._Tables``, on the instance) when it was
            computed there before, as by :func:`static_report` at the same
            pose. A rejected pose leaves the record as it was.
        grid_deg / sweep_joints: sweep lattice controls (worst-case policy).
        constraint_joints: joints whose torque budgets bound the answer
            (default all six). Restricting to (2, 3) answers the
            shoulder/elbow-only question, a useful diagnostic because the
            wrist-pitch budget otherwise dominates.

    Returns:
        :class:`PayloadResult` of the search :func:`_worst_case`: the
        smallest per-pose cap of :func:`sweep_payload_caps` (exact, rounded
        down so the limiting utilization is <= 1), the joint and pose with
        the highest utilization at that mass, and that utilization.

    Raises:
        ComputationError: the limiting utilization overflows a float.
        NoConvergenceError: every pose holds over 1e6 kg.
        ValueError: unknown policy, bad lattice or constraint joints, or a
            fixed pose that is not six finite angles.
    """
    return _worst_case(arm, pose_policy, grid_deg, sweep_joints,
                       constraint_joints)[0]()


def _limiting_joints(cols: list, caps: np.ndarray, util_at) -> np.ndarray:
    """Each pose's 1-based limiting joint at its cap (at 1e6 kg where
    unbounded), from :func:`_payload_caps`' ``caps`` and ``util_at``."""
    util = util_at(np.minimum(caps, _CEILING_KG))
    return np.array(cols)[np.argmax(util, axis=1)] + 1


def _worst_case(arm: ArmDescription,
                pose_policy: Union[str, Sequence[float]],
                grid_deg: float, sweep_joints: Sequence[int],
                constraint_joints: Sequence[int]) -> tuple:
    """The one payload search (of :func:`max_payload`,
    :func:`sweep_payload_caps` and the CLI's ``payload``): the exact caps
    of the :func:`sweep_poses` lattice, or of one fixed pose that the arm's
    last-pose record checks, and two functions of no argument that read
    them. ``result()`` gives :func:`max_payload`'s :class:`PayloadResult`
    and ``per_pose()`` :func:`sweep_payload_caps`' arrays; each computes
    only what it returns. Raises as :func:`max_payload` does."""
    if isinstance(pose_policy, str):
        if pose_policy != "worst_case_sweep":
            raise ValueError(f"unknown pose policy {pose_policy!r}")
        poses = sweep_poses(arm, grid_deg=grid_deg, sweep_joints=sweep_joints)
    else:
        poses = np.asarray(pose_policy, dtype=float).ravel()
        pose_policy = "fixed"
    cols = sorted({int(j) - 1 for j in constraint_joints})  # 0-based
    if not cols or cols[0] < 0 or cols[-1] > 5:
        raise ValueError("constraint_joints must be a non-empty subset of 1-6")
    caps, util_at = _payload_caps(arm, poses, cols)
    poses = poses.reshape(-1, 6)

    def result() -> PayloadResult:
        mass = float(caps.min())
        util = util_at(np.full(len(poses), mass))
        pi, ci = np.unravel_index(int(np.argmax(util)), util.shape)
        if not math.isfinite(util[pi, ci]):
            raise ComputationError(f"joint {cols[ci] + 1}'s utilization "
                                   "overflows a float")
        return PayloadResult(mass=mass, limiting_joint=cols[ci] + 1,
                             utilization=float(util[pi, ci]), pose=poses[pi],
                             policy=pose_policy)

    return result, lambda: (poses, caps, _limiting_joints(cols, caps, util_at))


def sweep_payload_caps(arm: ArmDescription,
                       grid_deg: float = SWEEP_GRID_DEG,
                       sweep_joints: Sequence[int] = SWEEP_JOINTS,
                       constraint_joints: Sequence[int] = CONSTRAINT_JOINTS):
    """Per-pose payload cap over the worst-case lattice (for CSV export).

    The arrays of :func:`max_payload`'s search (:func:`_worst_case`), so
    the smallest cap is exactly ``max_payload(...).mass``.

    Returns:
        (poses, caps, limiting_joints): the lattice (n, 6), each pose's
        largest holdable payload (kg; inf where the pose holds 1e6 kg),
        and its 1-based limiting joint at that payload (at 1e6 kg where
        unbounded).

    Raises:
        NoConvergenceError: every pose holds over 1e6 kg.
    """
    return _worst_case(arm, "worst_case_sweep", grid_deg, sweep_joints,
                       constraint_joints)[1]()
