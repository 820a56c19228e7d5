"""Forward/inverse kinematics, geometric Jacobian, and workspace sampling.

The chain composes, per row ``i`` of the arm's kinematic table,

    T_i = Rz(theta_i + theta_offset) * Dz(d) * Dx(a_prev) * Rx(alpha_prev)

left to right from the base, so joint ``i`` rotates about the z-axis of frame
``i-1``. Positions are meters, angles radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Iterator, Optional, Sequence

import numpy as np

from . import _kernels
from .errors import (
    ComputationError,
    EmptyCloudError,
    NoConvergenceError,
    ResourceLimitError,
    UnreachableTargetError,
    fixed,
    require_finite,
)
from .model import ArmDescription, _tables, dh_params, limits_array

#: Hard cap on workspace sample counts.
DEFAULT_SAMPLE_CAP = 20_000_000

#: Outer-shell fraction for the azimuth-span statistic (see azimuth_span).
DEFAULT_SHELL_FRACTION = 0.98

#: Reach figures recorded for the reference build. The two numbers disagree
#: with each other (a nominal reach vs. the radial reach quoted with the
#: bench payload test); reach reports print both so the discrepancy stays
#: visible instead of being silently resolved.
REFERENCE_NOMINAL_REACH_M = 0.430
REFERENCE_RADIAL_REACH_M = 0.467


@dataclass(frozen=True)
class Pose:
    """Rigid pose: position (m) and rotation matrix, base frame."""

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position",
                           np.asarray(self.position, dtype=float).reshape(3))
        object.__setattr__(self, "orientation",
                           np.asarray(self.orientation, dtype=float).reshape(3, 3))


@dataclass(frozen=True)
class IKOptions:
    """Inverse-kinematics iteration budget, and the fixed tolerances.

    They apply to every damped-least-squares batch of
    :func:`inverse_kinematics`: the exact branches of the wrist scan and
    the fallback, whose other settings are the module constants
    :data:`DAMPING`, :data:`STEP_LIMIT` and :data:`RESTARTS`.

    Raises:
        ValueError: a negative ``max_iters``.
    """

    #: Position (m) and orientation (rad) error every answer is within.
    pos_tol: ClassVar[float] = 1e-6
    ori_tol: ClassVar[float] = 1e-6
    max_iters: int = 200

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")


@dataclass(frozen=True)
class WorkspaceCloud:
    """Sampled end-effector positions plus the sampling recipe."""

    points: np.ndarray  # (n, 3) meters
    per_joint_steps: Optional[tuple[int, ...]]
    mode: str = "grid"
    seed: Optional[int] = None


# --------------------------------------------------------------------------
# forward kinematics
# --------------------------------------------------------------------------

def _keep_pose(arm: ArmDescription, key: bytes, frames: np.ndarray,
               split: Optional[tuple] = None) -> tuple:
    """Make ``(key, frames, split)`` the arm's last-pose record
    (``model._Tables.pose``) in one assignment, so that no reader pairs one
    pose's key with another pose's values; ``frames`` becomes read-only."""
    frames.setflags(write=False)
    entry = _tables(arm).pose = (key, frames, split)
    return entry


def _joint_angles(q, what: str, batch: bool = False) -> np.ndarray:
    """``q`` as float joint angles (radians), checked: one pose of six
    values, returned as a (6,) array, or, for a ``batch``, an array whose
    last axis is six long, returned as it is. ValueError naming ``what``
    unless ``q`` has that shape and every angle is finite. The one check
    of joint angles given from outside: one-pose calls (on a miss of
    :func:`_pose_entry`), the start of :func:`inverse_kinematics`,
    ``statics``' batches and ``steppersim``'s cycle poses."""
    q = np.asarray(q, dtype=float)
    if (q.shape[-1:] if batch else (q.size,)) != (6,):
        raise ValueError(f"{what} must be six values, got {q.tolist()!r}")
    require_finite(q, what)
    return q if batch else q.reshape(6)


def _pose_entry(arm: ArmDescription, q) -> tuple:
    """The arm's last-pose record (``model._Tables.pose``) at one pose
    ``q``: taken as it is when it holds ``q``'s bytes, else replaced by one
    with ``q``'s frame stack and no gravity split yet. Every one-pose call
    reads it (:func:`fk_frames`, :func:`jacobian`, ``statics``' one-pose
    split) and :func:`inverse_kinematics` stores its answer there. A miss
    checks the pose (the record holds a checked one): ValueError unless
    ``q`` is six finite angles (:func:`_joint_angles`), with the record
    left as it was."""
    tables = _tables(arm)
    q = np.asarray(q, dtype=float)
    key = q.tobytes()
    entry = tables.pose
    if entry[0] != key:
        entry = _keep_pose(arm, key, _kernels.fk_frames_batch(
            tables.rows, _joint_angles(q, "joint angles q")[None])[0])
    return entry


def fk_frames(arm: ArmDescription, q) -> np.ndarray:
    """All frame transforms: (7, 4, 4) array, frames[0] = base identity.

    A fresh copy of the frames in the arm's last-pose record (see
    :func:`_pose_entry`). Raises ValueError unless ``q`` is six finite
    angles."""
    return _pose_entry(arm, q)[1].copy()


def forward_kinematics(arm: ArmDescription, q) -> Pose:
    """Pose of the tool frame (frame 6) in the base frame at six joint
    angles ``q`` (radians): position (m) and orientation (rotation matrix).
    Raises ValueError unless ``q`` is six finite angles."""
    T = fk_frames(arm, q)[6]
    return Pose(position=T[:3, 3].copy(), orientation=T[:3, :3].copy())


def _jacobian_from_frames(frames: np.ndarray) -> np.ndarray:
    """Geometric Jacobians (n, 6, 6) of frame stacks (n, 7, 4, 4)."""
    z = frames[:, :6, :3, 2]
    w = frames[:, 6:, :3, 3] - frames[:, :6, :3, 3]
    J = np.empty((len(frames), 6, 6))
    # z x w, term by term as np.cross rounds it
    J[:, 0] = z[..., 1] * w[..., 2] - z[..., 2] * w[..., 1]
    J[:, 1] = z[..., 2] * w[..., 0] - z[..., 0] * w[..., 2]
    J[:, 2] = z[..., 0] * w[..., 1] - z[..., 1] * w[..., 0]
    J[:, 3:] = z.transpose(0, 2, 1)
    return J


def jacobian(arm: ArmDescription, q) -> np.ndarray:
    """Geometric Jacobian (6x6): rows 0-2 linear (m/rad), rows 3-5 angular.

    Column ``i`` is ``(z_{i-1} x (p - p_{i-1}); z_{i-1})`` in the base frame,
    where ``z_{i-1}``/``p_{i-1}`` are joint ``i``'s axis and origin. The
    frames come from the arm's last-pose record (:func:`_pose_entry`).
    Raises ValueError unless ``q`` is six finite angles.
    """
    frames = _pose_entry(arm, q)[1]
    return _jacobian_from_frames(frames[None])[0]


# --------------------------------------------------------------------------
# inverse kinematics
# --------------------------------------------------------------------------

#: Starting lambda of every damped-least-squares start. It adapts
#: multiplicatively (down on accepted steps, up on rejected ones) with a
#: hard floor of 1e-6.
DAMPING = 1e-3

#: Largest move (rad) of any joint in one step.
STEP_LIMIT = 0.5

#: Seeded joint vectors in the per-arm restart table (see _start_table).
START_TABLE_SIZE = 4096

#: Table starts the fallback runs together when its first attempt fails.
RESTARTS = 12

#: Weight (m/rad) of the rotation angle in the distance from a table pose
#: to the target.
START_ROTATION_WEIGHT = 0.1


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis of ``x`` (..., m), each rounded
    like ``np.linalg.norm`` of that vector alone (one dot product each)."""
    return np.sqrt((x[..., None, :] @ x[..., None])[..., 0, 0])


def _rotation_vector(R: np.ndarray) -> np.ndarray:
    """Axis-angle vectors (log map) of rotation matrices (..., 3, 3).

    Each rotation rounds as if taken alone: its angle comes from
    ``math.acos``, which ``np.arccos`` does not match to the last ulp.
    """
    R = np.asarray(R, dtype=float)
    Rn = R.reshape(-1, 3, 3)
    c = ((Rn[:, 0, 0] + Rn[:, 1, 1] + Rn[:, 2, 2] - 1.0) / 2.0).clip(-1.0, 1.0)
    theta = np.array([math.acos(x) for x in c.tolist()])
    # (R21 - R12, R02 - R20, R10 - R01) / 2
    v = 0.5 * (Rn[:, (2, 0, 1), (1, 2, 0)] - Rn[:, (1, 2, 0), (2, 0, 1)])
    # below 1e-10 rad, v itself is first-order accurate
    half = math.pi - theta < 1e-6
    mid = (theta >= 1e-10) & ~half
    scale = np.ones(len(theta))
    scale[mid] = theta[mid] / np.sin(theta[mid])
    out = scale[:, None] * v
    if half.any():
        # near a half turn the skew part vanishes; recover the axis from R + I
        M = (Rn[half] + np.eye(3)) / 2.0
        axis = np.sqrt(np.maximum(np.diagonal(M, axis1=1, axis2=2), 0.0))
        r = np.arange(len(M))
        k = np.argmax(axis, axis=1)
        peak = axis[r, k]
        ok = peak > 0
        axis[ok] = M[r[ok], :, k[ok]] / peak[ok, None]
        axis[ok] /= _row_norms(axis[ok])[:, None]
        along = (v[half][:, None, :] @ axis[:, :, None])[:, 0, 0]
        out[half] = (theta[half] * np.where(along >= 0, 1.0, -1.0))[:, None] \
            * axis
    return out.reshape(R.shape[:-1])


def _chain_reach_bound(arm: ArmDescription) -> float:
    """The sum of the links' lengths, kept in the arm's record."""
    tables = _tables(arm)
    if not hasattr(tables, "reach"):
        rows = tables.rows
        tables.reach = float(np.sum(np.hypot(rows[:, 1], rows[:, 2])))
    return tables.reach


def _pose_error(target: Pose, frames: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Errors of frame stacks (n, 7, 4, 4) against ``target``: the (n, 6)
    twists (position, rotation vector) and the (n,) position and rotation
    residuals."""
    tool = frames[:, 6]
    e_pos = target.position - tool[:, :3, 3]
    e_rot = _rotation_vector(
        target.orientation @ tool[:, :3, :3].transpose(0, 2, 1))
    return (np.concatenate([e_pos, e_rot], axis=1), _row_norms(e_pos),
            _row_norms(e_rot))


def _start_table(arm: ArmDescription
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The restart table: :data:`START_TABLE_SIZE` in-limit joint vectors
    drawn from the first child stream of seed 0 (not the stream of
    ``default_rng(0)``), with their tool positions (n, 3) and rotations
    (n, 3, 3). Built on first use and kept in the arm's record."""
    tables = _tables(arm)
    if not hasattr(tables, "starts"):
        lim = tables.lim
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=0, spawn_key=(0,)))
        Q = rng.uniform(lim[:, 0], lim[:, 1], size=(START_TABLE_SIZE, 6))
        tool = _kernels.fk_frames_batch(tables.rows, Q)[:, 6]
        P, R = tool[:, :3, 3].copy(), tool[:, :3, :3].copy()
        for a in (Q, P, R):
            a.setflags(write=False)
        tables.starts = Q, P, R
    return tables.starts


def _nearest_starts(arm: ArmDescription, target: Pose) -> np.ndarray:
    """The :data:`RESTARTS` table joint vectors whose tool poses lie nearest
    ``target`` (position distance plus :data:`START_ROTATION_WEIGHT` times
    the rotation angle), nearest first."""
    Q, P, R = _start_table(arm)
    cos = (np.einsum("nij,ij->n", R, target.orientation) - 1.0) / 2.0
    dist = (np.linalg.norm(P - target.position, axis=1)
            + START_ROTATION_WEIGHT * np.arccos(np.clip(cos, -1.0, 1.0)))
    return Q[np.argsort(dist, kind="stable")[:RESTARTS]]


#: The identity that :func:`_dls_step` scales by the squared damping.
_EYE6 = np.eye(6)
_EYE6.setflags(write=False)


def _dls_step(J: np.ndarray, E: np.ndarray, lam: np.ndarray,
              on_lo: np.ndarray, on_hi: np.ndarray) -> np.ndarray:
    """Damped-least-squares joint steps (n, 6) with an active set of limits.

    Each row's step solves ``(Jf.T Jf + lam**2 I) dq = Jf.T E``, where
    ``Jf`` is ``J`` with the columns of the held joints zeroed, so that a
    held joint's step is exactly zero; no joint is held at first. A joint
    sitting on a limit (``on_lo``/``on_hi``, (n, 6) masks) that its row's
    step pushes further out is held, and the row is solved again, until no
    such joint is left: the rest take the damped-least-squares step of the
    problem without the held joints (Raunhardt & Boulic 2007). No row
    depends on the others.
    """
    damp = (lam * lam)[:, None, None] * _EYE6
    free = np.ones(E.shape, dtype=bool)
    dq = np.empty(E.shape)
    r = np.arange(len(E))
    while r.size:
        Jf = J[r] * free[r][:, None, :]
        Jt = Jf.transpose(0, 2, 1)
        dq[r] = np.linalg.solve(Jt @ Jf + damp[r],
                                Jt @ E[r][:, :, None])[:, :, 0]
        out = (on_lo[r] & (dq[r] < 0)) | (on_hi[r] & (dq[r] > 0))
        free[r] &= ~out
        r = r[out.any(axis=1)]
    return dq


def _converged(f: np.ndarray, pe: np.ndarray, re_: np.ndarray,
               best: tuple, opts: IKOptions) -> tuple:
    """``best``, the smallest position residual seen with its rotation
    residual, updated with rows ``f`` of the residuals ``pe`` and ``re_``,
    and the first of those rows that meets the tolerances, or None."""
    i = f[np.argmin(pe[f])]
    if pe[i] < best[0]:
        best = (float(pe[i]), float(re_[i]))
    done = f[(pe[f] < opts.pos_tol) & (re_[f] < opts.ori_tol)]
    return best, (done[0] if done.size else None)


def _lockstep_dls(rows: np.ndarray, lim: np.ndarray, target: Pose,
                  starts: np.ndarray, opts: IKOptions):
    """Damped least squares from each row of ``starts`` (k, 6), in lockstep.

    Every start runs its own iteration with its own damping, stall count,
    accepted-step count and rejections in a row: an iteration tries steps,
    raising the damping tenfold after each one that does not lower the
    error, and gives up after ten. A start stops when it converges, uses
    up ``opts.max_iters`` steps, cannot improve, or stalls (twelve steps in
    a row that each cut the error by under 0.1%). A step comes from
    :func:`_dls_step`, so a joint held on a limit does not push against it.
    It is then scaled down so that no joint moves by more than
    :data:`STEP_LIMIT`, and clipped to the limits.

    A start that meets the tolerances as given answers at once, before
    any Jacobian or state array is built. The state arrays hold the live
    starts only, in their order in ``starts``: a start that stops loses
    its row. Each trial computes the step, FK and the new Jacobian for all
    rows at once, then keeps each row's new state or its old one by whether
    its error fell. No start's numbers depend on the others in its batch.

    Returns:
        ``(q, best, exhausted, frames)``: the joint vector of the first
        start to converge (ties to the lowest row) or None; the smallest
        position residual seen with its rotation residual; whether a start
        used up its iterations; and ``q``'s frame stack (7, 4, 4), which
        the last trial computed, or None.
    """
    lo, hi = lim[:, 0], lim[:, 1]
    lam_floor = 1e-6
    Q = np.array(starts, dtype=float)
    k = len(Q)
    frames = _kernels.fk_frames_batch(rows, Q)
    E, pe, re_ = _pose_error(target, frames)
    # a start that meets the tolerances answers before any state is built
    best, done = _converged(np.arange(k), pe, re_, (math.inf, math.inf), opts)
    if done is not None:
        return Q[done].copy(), best, False, frames[done]
    err = _row_norms(E)
    J = _jacobian_from_frames(frames)
    lam = np.full(k, DAMPING)
    stall = np.zeros(k, dtype=int)
    steps = np.zeros(k, dtype=int)
    rejects = np.zeros(k, dtype=int)
    exhausted = False
    fresh = np.ones(k, dtype=bool)  # rows at a new accepted step
    while True:
        spent = fresh & (steps == opts.max_iters)
        exhausted = exhausted or bool(spent.any())
        live = (rejects < 10) & (stall < 12) & ~spent
        if not live.all():
            if not live.any():
                return None, best, exhausted, None
            Q, E, pe, re_, err, J, lam, stall, steps, rejects = (
                x[live] for x in (Q, E, pe, re_, err, J, lam, stall, steps,
                                  rejects))
        # one trial step per live start
        dq = _dls_step(J, E, lam, Q == lo, Q == hi)
        peak = np.abs(dq).max(axis=1)
        big = peak > STEP_LIMIT
        dq[big] *= (STEP_LIMIT / peak[big])[:, None]
        q_new = (Q + dq).clip(lo, hi)
        frames = _kernels.fk_frames_batch(rows, q_new)
        e_new, pe_new, re_new = _pose_error(target, frames)
        err_new = _row_norms(e_new)
        J_new = _jacobian_from_frames(frames)
        ok = err_new < err
        # slow linear tails (limit-pinned or near-singular) are hopeless
        # within budget; count them as stalls
        slow = err_new > err * (1.0 - 1e-3)
        row = ok[:, None]
        Q = np.where(row, q_new, Q)
        E = np.where(row, e_new, E)
        pe = np.where(ok, pe_new, pe)
        re_ = np.where(ok, re_new, re_)
        err = np.where(ok, err_new, err)
        J = np.where(ok[:, None, None], J_new, J)
        lam = np.where(ok, np.maximum(lam / 3.0, lam_floor), lam * 10.0)
        stall = np.where(ok, np.where(slow, stall + 1, 0), stall)
        steps = steps + ok
        rejects = np.where(ok, 0, rejects + 1)
        fresh = ok & (stall < 12)
        f = fresh.nonzero()[0]
        if f.size:
            best, done = _converged(f, pe, re_, best, opts)
            if done is not None:
                return Q[done].copy(), best, exhausted, frames[done]


def inverse_kinematics(arm: ArmDescription, target: Pose, seed,
                       opts: IKOptions = IKOptions()) -> np.ndarray:
    """Solve for joint angles reaching ``target``.

    For an arm whose table has the structure of :func:`_wrist.structure`
    (the shipped one does), every exact solution comes first, from one scan
    of the wrist circle (:func:`_wrist.branches`). Each joint of each
    solution is moved by whole turns to its in-limit value nearest the
    seed clipped to the limits (a joint a rounding slack past a limit is
    clipped onto it, see :func:`_wrist.starts`), and the in-limit
    solutions, nearest the clipped seed first (Euclidean joint distance),
    run as one damped-least-squares batch: an exact one meets the
    tolerances before any step, the nearest of those answers, and a
    near-root that does not is polished by the steps.

    If none converges, or the arm lacks the structure, damped-least-squares
    iteration runs as the fallback: first from ``seed`` alone and, if that
    fails, from the :data:`RESTARTS` starts of a fixed seeded table whose
    tool poses lie nearest the target (see :func:`_nearest_starts`), run
    together; the first of those to converge gives the answer.
    A joint on a limit that a step pushes further out is held there, and
    the other joints take the step solved without it. The returned vector
    is always within limits and satisfies the pose tolerances in ``opts``.

    The arm's tables come from its per-arm record (``model._Tables``, kept
    in the instance's ``__dict__``): the DH rows and limits, the chain
    reach bound, the wrist constants and the restart table. The answer's
    frame stack, which the last step computed, replaces the record's last
    pose, so :func:`jacobian` and ``statics`` at the answer reuse it.

    Args:
        arm: arm description.
        target: desired tool pose.
        seed: starting joint vector (radians).
        opts: solver settings.

    Raises:
        UnreachableTargetError: the fallback's residual stagnated above
            tolerance (the target lies outside the reachable set, or
            outside it at the requested orientation); carries the best
            residual the fallback saw.
        NoConvergenceError: the fallback's iteration budget was exhausted
            while still improving.
        ValueError: a NaN or infinite entry in ``target`` or ``seed``, or a
            ``seed`` that is not six values.
    """
    require_finite(target.position, "IK target position")
    require_finite(target.orientation, "IK target orientation")
    seed = _joint_angles(seed, "IK start pose")
    tables = _tables(arm)
    rows, lim = tables.rows, tables.lim
    distance, bound = (float(np.linalg.norm(target.position)),
                       _chain_reach_bound(arm))
    if distance > bound:
        raise UnreachableTargetError(
            f"target at {fixed(distance, 4)} m exceeds the chain's "
            f"{fixed(bound, 4)} m reach bound", best_residual=None)

    def answer(q, frames):
        _keep_pose(arm, q.tobytes(), frames.copy())
        return q

    q0 = np.clip(seed[None], lim[:, 0], lim[:, 1])
    from . import _wrist  # loaded by the first IK call, not by the import
    structure = _wrist.structure(arm)
    if structure is not None:
        starts = _wrist.starts(structure, rows, lim, target, q0)
        if len(starts):
            q, _, _, frames = _lockstep_dls(rows, lim, target, starts, opts)
            if q is not None:
                return answer(q, frames)
    q, best, exhausted, frames = _lockstep_dls(rows, lim, target, q0, opts)
    if q is None:
        q, best_r, exhausted_r, frames = _lockstep_dls(
            rows, lim, target, _nearest_starts(arm, target), opts)
        best = min(best, best_r, key=lambda b: b[0])
        exhausted = exhausted or exhausted_r
    if q is not None:
        return answer(q, frames)

    best_pos, best_rot = best
    detail = (f"best residual {best_pos:.3e} m / {best_rot:.3e} rad after "
              f"{1 + RESTARTS} attempts")
    if exhausted:
        raise NoConvergenceError(
            f"IK iteration budget exhausted ({detail})",
            best_residual=best)
    raise UnreachableTargetError(
        f"IK residual stagnated above tolerance ({detail})",
        best_residual=best)


# --------------------------------------------------------------------------
# workspace sampling and statistics
# --------------------------------------------------------------------------

#: Most distinct tool points per chunk of a workspace sweep: a quasi chunk
#: holds this many, a grid chunk the lattice slice that fits (15,625 points
#: on the default grid, one q1 value). On the 2-core host a quasi ``reach``
#: of 262,144 samples peaked at 42 MB with this size and at 57 MB with
#: 65,536.
SWEEP_CHUNK_ROWS = 16_384


def _fixed_tail(rows: np.ndarray) -> int:
    """How many trailing joints cannot move the tool point.

    Joint ``j`` turns the links after it about its z axis. Its angle reaches
    the tool point only through the link's x offset (``a_prev``) and, when a
    later link offsets the point along z (``d``), through the link's twist
    (``alpha_prev``). A joint with ``a_prev = 0`` and either no twist or no
    later ``d``, whose later joints are all fixed too, leaves every bit of
    :func:`_kernels.fk_points`' result unchanged, except the sign of a
    coordinate that is exactly zero.
    """
    fixed, later_d = 0, False
    for d, a, alpha in rows[::-1, 1:]:
        if a != 0.0 or (later_d and math.sin(alpha) != 0.0):
            break
        fixed += 1
        later_d = later_d or d != 0.0
    return fixed


class WorkspaceSweep:
    """A validated workspace sampling recipe, walked in chunks.

    ``samples`` rows are sampled in order: the ``ij`` lattice of
    ``per_joint_steps`` over the joint limits (grid mode) or a seeded
    scrambled-Sobol sequence (quasi mode). Grid joints that cannot move the
    tool point (:func:`_fixed_tail`) are the lattice's fastest axes, so each
    tool point fills ``repeat`` consecutive rows; :meth:`chunks` computes
    each of them once. ``notices`` holds the recipe's caveats, one line each.

    Raises:
        ResourceLimitError: requested samples exceed
            :data:`DEFAULT_SAMPLE_CAP`.
        ComputationError: bad step counts or mode, or a negative quasi seed.
    """

    def __init__(self, arm: ArmDescription, per_joint_steps: Sequence[int],
                 mode: str = "grid", samples: Optional[int] = None,
                 seed: int = 0):
        self.rows = dh_params(arm)
        self.lim = limits_array(arm)
        self.mode = mode
        self.seed = seed
        self.per_joint_steps: Optional[tuple[int, ...]] = None
        self.repeat = 1
        self.notices: tuple[str, ...] = ()
        if mode == "grid":
            steps = tuple(int(s) for s in per_joint_steps)
            if len(steps) != 6 or any(s < 2 for s in steps):
                raise ComputationError(
                    f"per_joint_steps needs six entries >= 2, got {steps}")
            total = math.prod(steps)
            if total > DEFAULT_SAMPLE_CAP:
                raise ResourceLimitError(f"grid of {total} samples exceeds "
                                         f"the cap of {DEFAULT_SAMPLE_CAP}")
            self.per_joint_steps = steps
            self.samples = total
            self._moving = 6 - _fixed_tail(self.rows)
            self.repeat = math.prod(steps[self._moving:])
        elif mode == "quasi":
            if not samples or samples < 1:
                raise ComputationError("quasi mode requires samples >= 1")
            if samples > DEFAULT_SAMPLE_CAP:
                raise ResourceLimitError(f"{samples} samples exceeds the cap "
                                         f"of {DEFAULT_SAMPLE_CAP}")
            if seed < 0:
                raise ComputationError(
                    f"quasi mode requires seed >= 0, got {seed}")
            self.samples = samples
            if samples & (samples - 1):
                self.notices = (f"{samples} quasi samples: Sobol' points keep "
                                "their balance only at a power-of-two count",)
        else:
            raise ComputationError(f"unknown sampling mode {mode!r}")

    def chunks(self) -> Iterator[np.ndarray]:
        """Yield (m, 3) tool points in row order, each for ``repeat`` rows.

        A chunk holds at most :data:`SWEEP_CHUNK_ROWS` points. A grid chunk
        is one slice of the lattice of distinct points (see
        :func:`_lattice_slices`), computed by :func:`_kernels.fk_lattice`.
        """
        if self.mode == "grid":
            lim = self.lim
            axes = [np.linspace(lim[j, 0], lim[j, 1], s)
                    for j, s in enumerate(self.per_joint_steps)]
            for part in _lattice_slices(axes, self._moving, SWEEP_CHUNK_ROWS):
                yield _kernels.fk_lattice(self.rows, part)
            return
        n = self.samples
        lim = self.lim
        sob = _kernels.ScrambledSobol(self.seed)
        for start in range(0, n, SWEEP_CHUNK_ROWS):
            m = min(SWEEP_CHUNK_ROWS, n - start)
            qb = lim[:, 0] + sob.random(m) * (lim[:, 1] - lim[:, 0])
            yield _kernels.fk_points(self.rows, qb)


def _lattice_slices(axes: list, moving: int, cap: int
                    ) -> Iterator[list]:
    """Six axes per slice, whose ``ij`` lattices tile that of the distinct
    tool points in row order: ``axes[:moving]`` in full and the first value
    of each later axis.

    A slice is the largest trailing sub-lattice of the moving axes that
    holds at most ``cap`` points, at one value of each axis before it. An
    innermost axis longer than ``cap`` is cut into ranges of ``cap``
    values instead.
    """
    fixed = [ax[:1] for ax in axes[moving:]]
    if not moving:
        yield fixed
        return
    steps = [len(ax) for ax in axes[:moving]]
    # axes[a] is cut into ranges of ``span`` values; the ``inner`` points of
    # the axes after it come whole
    a, inner = moving - 1, 1
    while a and inner * steps[a] * steps[a - 1] <= cap:
        inner *= steps[a]
        a -= 1
    span = min(steps[a], cap // inner)
    tail = axes[a + 1:moving] + fixed
    for outer in np.ndindex(*steps[:a]):
        head = [ax[i:i + 1] for ax, i in zip(axes, outer)]
        for r in range(0, steps[a], span):
            yield head + [axes[a][r:r + span]] + tail


def sample_workspace(arm: ArmDescription,
                     per_joint_steps: Sequence[int],
                     mode: str = "grid",
                     samples: Optional[int] = None,
                     seed: int = 0) -> WorkspaceCloud:
    """Sample reachable tool positions over the joint limits.

    The cloud holds every row of a :class:`WorkspaceSweep`, whose chunks it
    concatenates; a sweep's statistics need no cloud (see
    :class:`CloudStats`).

    Args:
        arm: arm description.
        per_joint_steps: grid steps per joint (each >= 2); used by grid mode.
        mode: "grid" (default, reproducible lattice including the limit
            endpoints) or "quasi" (seeded scrambled-Sobol sweep of ``samples``
            points).
        samples: point count for quasi mode.
        seed: quasi-mode scramble seed (recorded in the cloud either way).

    Raises:
        ResourceLimitError: requested samples exceed
            :data:`DEFAULT_SAMPLE_CAP`.
        ComputationError: bad step counts or mode.
    """
    sweep = WorkspaceSweep(arm, per_joint_steps, mode=mode, samples=samples,
                           seed=seed)
    points = np.empty((sweep.samples, 3))
    stop = 0
    for pts in sweep.chunks():
        start, stop = stop, stop + len(pts) * sweep.repeat
        points[start:stop] = np.repeat(pts, sweep.repeat, axis=0)
    return WorkspaceCloud(points=points, per_joint_steps=sweep.per_joint_steps,
                          mode=mode, seed=seed)


class CloudStats:
    """Workspace statistics of a cloud fed in chunks of tool points.

    :meth:`add` folds in a chunk whose points each stand for ``repeat``
    rows. The results do not depend on the chunking: maxima, a minimum, a
    row count, and the outer shell's azimuths, kept for points at or above
    ``shell_fraction`` of the running radial maximum and pruned as it rises.

    Raises:
        ComputationError: ``shell_fraction`` outside (0, 1], or from
            :meth:`add`, a distance or height that overflows a float.
    """

    def __init__(self, shell_fraction: float = DEFAULT_SHELL_FRACTION):
        if not 0.0 < shell_fraction <= 1.0:
            raise ComputationError("shell_fraction must lie in (0, 1]")
        self.shell_fraction = shell_fraction
        self.count = 0
        self.below = 0
        self.max_reach = -math.inf
        self.max_radial = -math.inf
        self.min_z = math.inf
        self._shell_radial = np.empty(0)
        self._shell_az = np.empty(0)

    def add(self, pts: np.ndarray, repeat: int = 1) -> None:
        """Fold in (m, 3) points, each standing for ``repeat`` rows."""
        radial = np.hypot(pts[:, 0], pts[:, 1])
        self.count += len(pts) * repeat
        self.below += int(np.count_nonzero(pts[:, 2] < 0.0)) * repeat
        with np.errstate(over="ignore"):  # refused below
            self.max_reach = float(np.maximum(
                self.max_reach, np.max(np.linalg.norm(pts, axis=1))))
        self.min_z = float(np.minimum(self.min_z, np.min(pts[:, 2])))
        rmax = float(np.maximum(self.max_radial, np.max(radial)))
        require_finite((self.max_reach, rmax, self.min_z),
                       "workspace extremes", error=ComputationError)
        cut = self.shell_fraction * rmax
        if rmax > self.max_radial:
            keep = self._shell_radial >= cut
            self._shell_radial = self._shell_radial[keep]
            self._shell_az = self._shell_az[keep]
        self.max_radial = rmax
        shell = radial >= cut
        self._shell_radial = np.concatenate([self._shell_radial,
                                             radial[shell]])
        self._shell_az = np.concatenate([self._shell_az, np.degrees(
            np.arctan2(pts[shell, 1], pts[shell, 0]))])

    def azimuth_span(self) -> float:
        """Azimuth span (degrees) of the outer shell; see :func:`azimuth_span`."""
        if self.max_radial <= 0.0:
            return 0.0
        az = np.sort(self._shell_az)
        gaps = np.diff(np.concatenate([az, [az[0] + 360.0]]))
        return float(360.0 - np.max(gaps))

    def below_base_fraction(self) -> float:
        """Fraction of rows strictly below the base plane (z < 0)."""
        return self.below / self.count


def _cloud_stats(cloud: WorkspaceCloud, what: str,
                 shell_fraction: float = DEFAULT_SHELL_FRACTION) -> CloudStats:
    """:class:`CloudStats` of a whole cloud, fed as one chunk."""
    pts = np.asarray(cloud.points)
    if pts.size == 0:
        raise EmptyCloudError(f"cannot take {what} of an empty cloud")
    stats = CloudStats(shell_fraction)
    stats.add(pts)
    return stats


def max_reach(cloud: WorkspaceCloud) -> tuple[float, float]:
    """(max Euclidean distance from base, max horizontal xy radius), meters.

    The two metrics differ for this arm; report both rather than choosing.
    """
    stats = _cloud_stats(cloud, "max reach")
    return stats.max_reach, stats.max_radial


def azimuth_span(cloud: WorkspaceCloud,
                 shell_fraction: float = DEFAULT_SHELL_FRACTION) -> float:
    """Azimuth span (degrees) of the cloud's outer shell about base z.

    The raw cloud covers every azimuth for any articulated arm whose elbow
    can fold the tool behind the shoulder, so the span statistic is measured
    on the outer boundary: points whose horizontal radius is at least
    ``shell_fraction`` of the maximum. That matches the top-view workspace
    outline (the swept outer arc), where the yaw travel is what bounds
    coverage. Coverage is 360 minus the largest angular gap between shell
    points.
    """
    return _cloud_stats(cloud, "azimuth span", shell_fraction).azimuth_span()


def below_base_fraction(cloud: WorkspaceCloud) -> float:
    """Fraction of sampled points strictly below the base plane (z < 0)."""
    return _cloud_stats(cloud, "statistics").below_base_fraction()
