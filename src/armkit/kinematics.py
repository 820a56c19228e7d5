"""Forward/inverse kinematics, geometric Jacobian, and workspace sampling.

The chain composes, per row ``i`` of the arm's kinematic table,

    T_i = Rz(theta_i + theta_offset) * Dz(d) * Dx(a_prev) * Rx(alpha_prev)

left to right from the base, so joint ``i`` rotates about the z-axis of frame
``i-1``. Positions are meters, angles radians.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import _kernels
from .errors import (
    ComputationError,
    EmptyCloudError,
    NoConvergenceError,
    ResourceLimitError,
    UnreachableTargetError,
)
from .model import ArmDescription, dh_params, limits_array

#: Hard cap on workspace sample counts (overridable per call).
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
    """Inverse-kinematics solver settings.

    ``damping`` is the starting damped-least-squares lambda; the solver
    adapts it multiplicatively (down on accepted steps, up on rejected
    ones) with a hard floor of 1e-6. ``restarts`` extra seeded attempts are
    made from deterministic random in-limits seeds when the provided seed
    fails; ``restart_seed`` controls that sequence, so results are
    reproducible.
    """

    pos_tol: float = 1e-6
    ori_tol: float = 1e-6
    max_iters: int = 200
    damping: float = 1e-3
    restarts: int = 12
    restart_seed: int = 0
    step_limit: float = 0.5  # max joint step per iteration (rad)

    def __post_init__(self):
        if self.max_iters < 0 or self.restarts < 0:
            raise ValueError("max_iters and restarts must be >= 0")


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

def _link_transform(theta: float, d: float, a: float, alpha: float) -> np.ndarray:
    ct, st = math.cos(theta), math.sin(theta)
    ca, sa = math.cos(alpha), math.sin(alpha)
    return np.array([
        [ct, -st * ca, st * sa, a * ct],
        [st, ct * ca, -ct * sa, a * st],
        [0.0, sa, ca, d],
        [0.0, 0.0, 0.0, 1.0],
    ])


def fk_frames(arm: ArmDescription, q) -> np.ndarray:
    """All frame transforms: (7, 4, 4) array, frames[0] = base identity."""
    q = np.asarray(q, dtype=float).reshape(6)
    rows = dh_params(arm)
    out = np.empty((7, 4, 4))
    out[0] = np.eye(4)
    T = out[0]
    for i in range(6):
        A = _link_transform(q[i] + rows[i, 0], rows[i, 1], rows[i, 2], rows[i, 3])
        T = T @ A
        out[i + 1] = T
    return out


def _finite(values, what: str) -> np.ndarray:
    """``values`` as a float array; ValueError naming ``what`` if any entry
    is NaN or infinite (the per-pose ``fk_frames`` inside IK never checks)."""
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite, got {arr.tolist()}")
    return arr


def forward_kinematics(arm: ArmDescription, q) -> Pose:
    """Pose of the tool frame (frame 6) in the base frame.

    Args:
        arm: arm description.
        q: six joint angles (radians).

    Returns:
        :class:`Pose` with position (m) and orientation (rotation matrix).

    Raises:
        ValueError: an angle in ``q`` is NaN or infinite.
    """
    T = fk_frames(arm, _finite(q, "joint angles q"))[6]
    return Pose(position=T[:3, 3].copy(), orientation=T[:3, :3].copy())


def _jacobian_from_frames(frames: np.ndarray) -> np.ndarray:
    p = frames[6][:3, 3]
    J = np.empty((6, 6))
    for i in range(6):
        z = frames[i][:3, 2]
        o = frames[i][:3, 3]
        J[:3, i] = np.cross(z, p - o)
        J[3:, i] = z
    return J


def jacobian(arm: ArmDescription, q) -> np.ndarray:
    """Geometric Jacobian (6x6): rows 0-2 linear (m/rad), rows 3-5 angular.

    Column ``i`` is ``(z_{i-1} x (p - p_{i-1}); z_{i-1})`` in the base frame,
    where ``z_{i-1}``/``p_{i-1}`` are joint ``i``'s axis and origin.
    Raises ValueError if an angle in ``q`` is NaN or infinite.
    """
    return _jacobian_from_frames(fk_frames(arm, _finite(q, "joint angles q")))


# --------------------------------------------------------------------------
# inverse kinematics
# --------------------------------------------------------------------------

def _rotation_vector(R: np.ndarray) -> np.ndarray:
    """Axis-angle vector of a rotation matrix (log map)."""
    tr = float(np.trace(R))
    c = min(1.0, max(-1.0, (tr - 1.0) / 2.0))
    theta = math.acos(c)
    v = 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if theta < 1e-10:
        return v  # first-order accurate near identity
    if math.pi - theta < 1e-6:
        # near a half turn the skew part vanishes; recover the axis from R + I
        M = (R + np.eye(3)) / 2.0
        axis = np.sqrt(np.maximum(np.diag(M), 0.0))
        k = int(np.argmax(axis))
        if axis[k] > 0:
            axis = M[:, k] / axis[k]
            axis /= np.linalg.norm(axis)
        sign = 1.0 if v @ axis >= 0 else -1.0
        return theta * sign * axis
    return (theta / math.sin(theta)) * v


def _chain_reach_bound(arm: ArmDescription) -> float:
    rows = dh_params(arm)
    return float(np.sum(np.hypot(rows[:, 1], rows[:, 2])))


def _pose_error(target: Pose, frames: np.ndarray) -> tuple[np.ndarray, float, float]:
    p = frames[6][:3, 3]
    R = frames[6][:3, :3]
    e_pos = target.position - p
    e_rot = _rotation_vector(target.orientation @ R.T)
    return np.concatenate([e_pos, e_rot]), float(np.linalg.norm(e_pos)), float(
        np.linalg.norm(e_rot))


def inverse_kinematics(arm: ArmDescription, target: Pose, seed,
                       opts: IKOptions = IKOptions()) -> np.ndarray:
    """Solve for joint angles reaching ``target``.

    Damped-least-squares iteration with per-iteration joint-limit clamping.
    The returned vector is always within limits and satisfies the pose
    tolerances in ``opts``.

    Args:
        arm: arm description.
        target: desired tool pose.
        seed: starting joint vector (radians).
        opts: solver settings.

    Raises:
        UnreachableTargetError: the residual stagnated above tolerance (the
            target lies outside the reachable set, or outside it at the
            requested orientation); carries the best residual seen.
        NoConvergenceError: iteration budget exhausted while still improving.
        ValueError: a NaN or infinite entry in ``target`` or ``seed``.
    """
    _finite(target.position, "IK target position")
    _finite(target.orientation, "IK target orientation")
    seed = _finite(seed, "IK start pose")
    lim = limits_array(arm)
    if float(np.linalg.norm(target.position)) > _chain_reach_bound(arm):
        raise UnreachableTargetError(
            f"target at {np.linalg.norm(target.position):.4f} m exceeds the "
            f"chain's {_chain_reach_bound(arm):.4f} m reach bound",
            best_residual=None,
        )

    lam_floor = 1e-6
    eye6 = np.eye(6)
    best_pos = math.inf
    best_rot = math.inf
    budget_exhausted = False

    q_start = np.clip(np.asarray(seed, dtype=float).reshape(6), lim[:, 0], lim[:, 1])
    for attempt in range(opts.restarts + 1):
        if attempt == 0:
            q = q_start.copy()
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=opts.restart_seed,
                                       spawn_key=(attempt,)))
            q = rng.uniform(lim[:, 0], lim[:, 1])
        frames = fk_frames(arm, q)
        e, pe, re_ = _pose_error(target, frames)
        err = float(np.linalg.norm(e))
        lam = max(opts.damping, lam_floor)
        stall = 0
        for it in range(opts.max_iters + 1):
            if pe < best_pos:
                best_pos, best_rot = pe, re_
            if pe < opts.pos_tol and re_ < opts.ori_tol:
                return q
            if it == opts.max_iters:
                budget_exhausted = True
                break
            # one accepted step; the damping rises until a trial improves
            J = _jacobian_from_frames(frames)
            JJT = J @ J.T
            improved = False
            for _ in range(10):
                dq = J.T @ np.linalg.solve(JJT + (lam * lam) * eye6, e)
                peak = float(np.max(np.abs(dq)))
                if peak > opts.step_limit:
                    dq *= opts.step_limit / peak
                q_new = np.clip(q + dq, lim[:, 0], lim[:, 1])
                frames_new = fk_frames(arm, q_new)
                e_new, pe_new, re_new = _pose_error(target, frames_new)
                err_new = float(np.linalg.norm(e_new))
                if err_new < err:
                    # slow linear tails (limit-pinned or near-singular) are
                    # hopeless within budget; count them as stalls
                    stall = stall + 1 if err_new > err * (1.0 - 1e-3) else 0
                    q, e, pe, re_, err = q_new, e_new, pe_new, re_new, err_new
                    frames = frames_new
                    lam = max(lam / 3.0, lam_floor)
                    improved = True
                    break
                lam *= 10.0
            if not improved or stall >= 12:
                break  # stagnated in this basin; restart elsewhere

    detail = (f"best residual {best_pos:.3e} m / {best_rot:.3e} rad after "
              f"{opts.restarts + 1} attempts")
    if budget_exhausted:
        raise NoConvergenceError(
            f"IK iteration budget exhausted ({detail})",
            best_residual=(best_pos, best_rot))
    raise UnreachableTargetError(
        f"IK residual stagnated above tolerance ({detail})",
        best_residual=(best_pos, best_rot))


# --------------------------------------------------------------------------
# workspace sampling and statistics
# --------------------------------------------------------------------------

#: Distinct tool points per chunk of a workspace sweep. A power of two, so
#: scipy's Sobol balance warning fires only for the sweep's own count.
SWEEP_CHUNK_ROWS = 65_536


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
    each of them once.

    Raises:
        ResourceLimitError: requested samples exceed ``cap``.
        ComputationError: bad step counts or mode.
    """

    def __init__(self, arm: ArmDescription, per_joint_steps: Sequence[int],
                 mode: str = "grid", samples: Optional[int] = None,
                 seed: int = 0, cap: int = DEFAULT_SAMPLE_CAP):
        self.rows = dh_params(arm)
        self.lim = limits_array(arm)
        self.mode = mode
        self.seed = seed
        self.per_joint_steps: Optional[tuple[int, ...]] = None
        self.repeat = 1
        if mode == "grid":
            steps = tuple(int(s) for s in per_joint_steps)
            if len(steps) != 6 or any(s < 2 for s in steps):
                raise ComputationError(
                    f"per_joint_steps needs six entries >= 2, got {steps}")
            total = math.prod(steps)
            if total > cap:
                raise ResourceLimitError(
                    f"grid of {total} samples exceeds the cap of {cap}")
            self.per_joint_steps = steps
            self.samples = total
            self._moving = 6 - _fixed_tail(self.rows)
            self.repeat = math.prod(steps[self._moving:])
        elif mode == "quasi":
            if not samples or samples < 1:
                raise ComputationError("quasi mode requires samples >= 1")
            if samples > cap:
                raise ResourceLimitError(
                    f"{samples} samples exceeds the cap of {cap}")
            self.samples = samples
        else:
            raise ComputationError(f"unknown sampling mode {mode!r}")

    def chunks(self) -> Iterator[np.ndarray]:
        """Yield (m, 3) tool points in row order, each for ``repeat`` rows.

        A chunk holds at most :data:`SWEEP_CHUNK_ROWS` points.
        """
        n = self.samples // self.repeat
        lim = self.lim
        if self.mode == "quasi":
            from scipy.stats import qmc

            sob = qmc.Sobol(d=6, scramble=True, seed=self.seed)
            if n > SWEEP_CHUNK_ROWS and n & (n - 1):
                # a one-call draw warns here; the first chunk's draw does not
                warnings.warn("The balance properties of Sobol' points "
                              "require n to be a power of 2.", stacklevel=2)

            def joints(start: int, m: int) -> np.ndarray:
                return lim[:, 0] + sob.random(m) * (lim[:, 1] - lim[:, 0])
        else:
            steps, moving = self.per_joint_steps, self._moving
            axes = [np.linspace(lim[j, 0], lim[j, 1], s)
                    for j, s in enumerate(steps)]

            def joints(start: int, m: int) -> np.ndarray:
                qb = np.empty((m, 6))
                rest = np.arange(start, start + m)
                for j in range(moving - 1, -1, -1):
                    rest, i = np.divmod(rest, steps[j])
                    qb[:, j] = axes[j][i]
                qb[:, moving:] = [ax[0] for ax in axes[moving:]]
                return qb

        for start in range(0, n, SWEEP_CHUNK_ROWS):
            qb = joints(start, min(SWEEP_CHUNK_ROWS, n - start))
            yield _kernels.fk_points(self.rows, qb)


def sample_workspace(arm: ArmDescription,
                     per_joint_steps: Sequence[int],
                     mode: str = "grid",
                     samples: Optional[int] = None,
                     seed: int = 0,
                     cap: int = DEFAULT_SAMPLE_CAP) -> WorkspaceCloud:
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
        cap: resource guard on the total sample count.

    Raises:
        ResourceLimitError: requested samples exceed ``cap``.
        ComputationError: bad step counts or mode.
    """
    sweep = WorkspaceSweep(arm, per_joint_steps, mode=mode, samples=samples,
                           seed=seed, cap=cap)
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
        ComputationError: ``shell_fraction`` outside (0, 1].
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
        self.max_reach = float(np.maximum(
            self.max_reach, np.max(np.linalg.norm(pts, axis=1))))
        self.min_z = float(np.minimum(self.min_z, np.min(pts[:, 2])))
        rmax = float(np.maximum(self.max_radial, np.max(radial)))
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
