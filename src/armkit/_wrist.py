"""Exact inverse kinematics of a wrist with two intersecting axes.

For an arm whose kinematic table has the structure that :func:`structure`
checks, every joint vector that reaches a tool pose comes from one scalar
scan: the wrist point lies on a circle about a point the pose fixes, and at
each angle on it the first three joints have a closed form. This is the
"two intersecting axes, 1-D search" case of IK-Geo (Elias & Wen 2022,
arXiv 2211.05737). :func:`armkit.kinematics.inverse_kinematics` imports
this module on its first call.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional

import numpy as np

from . import _kernels
from .kinematics import Pose, _row_norms
from .model import ArmDescription, dh_params


#: Intervals of the scan of the wrist circle (see :func:`branches`).
SCAN_POINTS = 512
SCAN_STEP = 2.0 * math.pi / SCAN_POINTS

#: Scan steps from a fold of the elbow that its fan replaces, and the
#: fan's angles (see :func:`_elbow_reach`).
FOLD_SPAN = 6
FOLD_FAN = 16

#: Most refinement steps of a root.
REFINE_STEPS = 16

#: The residual within which a root counts as exact.
ROOT_TOL = 1e-14


def _circle(phi: np.ndarray) -> np.ndarray:
    """Rows cos(phi), sin(phi) (2, n): the points of the wrist circle at
    angles ``phi`` (n,), as :func:`_residual` takes them."""
    return np.stack([np.cos(phi), np.sin(phi)])


#: The scan's angles: one step before 0 to 2 pi, so that each interval and
#: each sample's two neighbours lie in one slice.
_PHI = (np.arange(SCAN_POINTS + 2) - 1.0) * SCAN_STEP
_SCAN_CIRCLE = _circle(_PHI)
#: Shoulder and elbow signs that broadcast to the scan's (2, 2, n) residual,
#: and the signs of each row of its (4, n) view.
_SHOULDER = np.array([1.0, -1.0])[:, None, None]
_ELBOW = np.array([1.0, -1.0])[:, None]
_BRANCH_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
for _a in (_PHI, _SCAN_CIRCLE, _SHOULDER, _ELBOW, _BRANCH_SIGNS):
    _a.setflags(write=False)


class Wrist(NamedTuple):
    """The constants of an arm's branch scan; see :func:`structure`."""

    d1: float
    ca1: float
    sa1: float
    h: float  # O4 off the plane of joints 2 and 3
    a2: float
    L: float  # O4's distance from joint 3's axis
    beta: float  # joint 3's angle at the stretched elbow
    ca3: float
    sa3: float
    ca4: float
    sa4: float
    a5: float
    ca5: float
    sa5: float
    d6: float


@functools.lru_cache(maxsize=8)
def structure(arm: ArmDescription) -> Optional[Wrist]:
    """The branch scan's constants, or None if ``arm`` lacks its structure.

    The scan needs three things of the table (rows 1-6 of [d, a, alpha]):

    * joint 1's axis meets joint 2's (a1 = 0, sin alpha1 != 0) and joints
      2 and 3 are parallel (alpha2 = 0), so joints 1-3 place the wrist
      point O4 = O3 + d4 z3 in closed form, with a shoulder and an elbow
      branch (2 a2 L != 0: a2 != 0, and O4 off joint 3's axis);
    * joint 5's axis meets joint 4's at O4 (a4 = 0, sin alpha4 != 0,
      d5 = 0), so O5 = O4 + a5 x5;
    * the tool origin lies on joint 6's axis (a6 = 0, alpha6 = 0), so
      O5 = p - d6 z_tool is known and x5 is normal to z_tool.
    """
    rows = dh_params(arm)
    _, d, a, alpha = rows.T.tolist()
    ca, sa = _kernels._twists(rows).tolist()
    b = d[3] * sa[2]
    L = math.hypot(a[2], b)
    if not (a[0] == 0.0 and sa[0] != 0.0 and alpha[1] == 0.0
            and 2.0 * a[1] * L != 0.0 and a[3] == 0.0 and sa[3] != 0.0
            and d[4] == 0.0 and a[5] == 0.0 and alpha[5] == 0.0):
        return None
    return Wrist(d[0], ca[0], sa[0], d[1] + d[2] + d[3] * ca[2], a[1], L,
                 math.atan2(b, a[2]), ca[2], sa[2], ca[3], sa[3], a[4],
                 ca[4], sa[4], d[5])


def _residual(g: Wrist, M: np.ndarray, circle: np.ndarray, xs: np.ndarray,
              es: np.ndarray, angles: bool = False):
    """The scan's residual at the wrist circle's points ``circle`` (see
    :func:`_circle`), on the branches of shoulder signs ``xs`` and elbow
    signs ``es``; the three broadcast.

    ``M`` (6, 3) maps (1, cos(phi), sin(phi)) to O4 - d1 z0 and to the
    axis z4 that joint 5 needs there. Joints 1-3 reach O4 in closed form, and
    the residual z3 . z4 - cos(alpha4) is zero where joint 4 can turn z3's
    frame onto z4. Where O4 lies beyond the stretched elbow or inside the
    shoulder offset, the closed form takes the nearest pose it has. With
    ``angles``, returns the first three joint angles (offsets included)
    instead.
    """
    # elementwise, not a matmul, whose rounding would follow the BLAS
    wx, wy, wz, zx, zy, zz = M[:, :1] + M[:, 1:2] * circle[0] \
        + M[:, 2:] * circle[1]
    # O4 in frame 1: +-sqrt(XX) along the arm, Y up it, k off its plane
    Y = (wz - g.ca1 * g.h) / g.sa1
    k = g.ca1 * Y - g.sa1 * g.h
    r2 = wx * wx + wy * wy
    XX = np.maximum(r2 - k * k, 0.0)
    X = xs * np.sqrt(XX)
    # the elbow angle gamma = t3 - beta, by its cosine and sine
    D2 = XX + Y * Y
    ll, l2 = g.a2 * g.a2 + g.L * g.L, 2.0 * g.a2 * g.L
    cg = np.minimum(np.maximum((D2 - ll) / l2, -1.0), 1.0)
    sg = es * np.sqrt(1.0 - cg * cg)
    if angles:
        return (np.arctan2(wy, wx) - np.arctan2(k, X),
                np.arctan2(Y, X) - np.arctan2(g.L * sg, g.a2 + g.L * cg),
                np.arctan2(sg, cg) + g.beta)
    # t2 + t3 is the angle of (X + iY) (L + a2 e^(i gamma)) e^(i beta) = c + is
    cb, sb = math.cos(g.beta), math.sin(g.beta)
    A = (g.L * cb + (g.a2 * cb) * cg) - (g.a2 * sb) * sg
    B = (g.L * sb + (g.a2 * sb) * cg) + (g.a2 * cb) * sg
    c, s = X * A - Y * B, X * B + Y * A
    # joint 1 turns z3 in frame 1, (sa3 sin t23, -sa3 cos t23, ca3), by
    # alpha1 and then by t1, whose cosine and sine are
    # (wx X + wy k, wy X - wx k) / r2; f is linear in c and s
    P, Q = wx * zx + wy * zy, wx * zy - wy * zx
    U, V = (X * P - k * Q) / r2, (X * Q + k * P) / r2
    return (s * (g.sa3 * U) - c * (g.sa3 * (g.ca1 * V + g.sa1 * zz))) \
        / np.sqrt(D2 * (ll + l2 * cg)) \
        + (g.ca3 * (g.ca1 * zz - g.sa1 * V) - g.ca4)


def _elbow_reach(g: Wrist, M: np.ndarray):
    """Where the scan's sign changes hold, and a fan of angles into each
    fold of the elbow.

    O4 - d1 z0 = W0 + Wc cos(phi) + Ws sin(phi), with Wc and Ws orthogonal
    and of length a5, so the squared distance D2 = |O4 - d1 z0|^2 - h^2 of
    :func:`_residual` and cos(gamma) are sinusoids in phi. The elbow
    reaches O4 where |cos(gamma)| <= 1. Its two branches meet at the folds,
    where cos(gamma) = +-1, and near a fold gamma grows as the square root
    of the distance in phi, faster than the scan resolves. So the scan
    intervals from each fold to :data:`FOLD_SPAN` samples into the reached
    side give way to a fan of :data:`FOLD_FAN` angles, even in the elbow's
    turn from the fold.

    Returns:
        ``(open_, fans)``: which scan intervals [_PHI[k], _PHI[k + 1]]
        (k < n) the elbow reaches at both ends outside any fan, and a list
        of ``(s, angles)``: the sample at a fan's far end and the fan's
        angles, the fold first, in the turn of ``_PHI[s]``.
    """
    w, wc, ws = M[:3].T.tolist()
    ll, l2 = g.a2 * g.a2 + g.L * g.L, 2.0 * g.a2 * g.L
    m = (math.fsum(v * v for v in w) + g.a5 * g.a5 - g.h * g.h - ll) / l2
    p = 2.0 * math.fsum(u * v for u, v in zip(w, wc)) / l2
    q = 2.0 * math.fsum(u * v for u, v in zip(w, ws)) / l2
    cg = m + p * _SCAN_CIRCLE[0] + q * _SCAN_CIRCLE[1]
    reached = np.abs(cg) <= 1.0
    n = SCAN_POINTS
    open_ = reached[:n] & reached[1:n + 1]
    rho, psi = math.hypot(p, q), math.atan2(q, p)
    fans = []
    for b in (1.0, -1.0):
        if not abs(b - m) < rho:
            continue
        for side in (1.0, -1.0):
            fold = psi + side * math.acos((b - m) / rho)
            # the interval [_PHI[k], _PHI[k + 1]) that holds the fold, and
            # its reached end s, moved away from the fold while reached
            k = min(int((fold + SCAN_STEP) % (2.0 * math.pi)
                        / SCAN_STEP), n - 1)
            if reached[k] == reached[k + 1]:
                continue
            away = 1 if reached[k + 1] else -1
            s = k + (away > 0)
            for _ in range(FOLD_SPAN - 1):
                if not reached[(s + away - 1) % n + 1]:
                    break
                s += away
            open_[np.arange(min(k, s), max(k + 1, s)) % n] = False
            s = (s - 1) % n + 1
            turn = math.acos(min(1.0, b * float(cg[s])))
            fan = psi + side * np.arccos(np.clip(
                (b * np.cos(turn / FOLD_FAN * np.arange(FOLD_FAN)) - m)
                / rho, -1.0, 1.0))
            fans.append((s, _PHI[s] + np.remainder(
                fan - _PHI[s] + math.pi, 2.0 * math.pi) - math.pi))
    return open_, fans


def _dips(f: np.ndarray, x: np.ndarray, ok: np.ndarray) -> tuple:
    """The dips of sample runs ``f`` (4, p, l) at angles ``x`` (p, l), one
    run per branch of each row of ``x``.

    A dip is a sample nearer zero than its two neighbours, all three of one
    sign, whose parabola through them comes within 1% of the sample's value
    of zero or crosses it: the sign of a double root, or of two roots
    closer than the samples. ``ok`` (p, l - 2) masks the middle samples
    that may be one.

    Returns:
        ``(branch, x0, x1, x2, f0, f1, f2)``, one entry per dip, x0 < x2.
    """
    a = np.abs(f)
    br, r, i = np.nonzero((a[..., 1:-1] < a[..., :-2])
                          & (a[..., 1:-1] <= a[..., 2:]) & ok)
    f0, f1, f2 = f[br, r, i], f[br, r, i + 1], f[br, r, i + 2]
    x0, x1, x2 = x[r, i], x[r, i + 1], x[r, i + 2]
    down = x0 > x2
    x0, x2 = np.where(down, x2, x0), np.where(down, x0, x2)
    f0, f2 = np.where(down, f2, f0), np.where(down, f0, f2)
    # the parabola's slope at x1 and its curvature
    d0, d1 = (f1 - f0) / (x1 - x0), (f2 - f1) / (x2 - x1)
    curv = (d1 - d0) / (x2 - x0)
    slope = d0 + curv * (x1 - x0)
    peak = f1 - slope * slope / (4.0 * curv)
    dip = (f1 * f0 > 0.0) & (f1 * f2 > 0.0) & (peak * f1 < 0.01 * f1 * f1)
    return tuple(v[dip] for v in (br, x0, x1, x2, f0, f1, f2))


def _refine_dips(g: Wrist, M: np.ndarray, br: np.ndarray, x0: np.ndarray,
                 x1: np.ndarray, x2: np.ndarray, f0: np.ndarray,
                 f1: np.ndarray, f2: np.ndarray) -> tuple:
    """Brackets of the roots at the dips ``br``, ``x0``-``x2``,
    ``f0``-``f2`` of :func:`_dips`.

    Each dip is refined by successive parabolic interpolation, all at once,
    until its new point crosses zero (a bracket on each side) or lies
    within :data:`ROOT_TOL` of it (a double root, as a bracket of
    zero width). A dip that does neither has no root.

    Returns:
        ``(branch, lo, f_lo, hi, f_hi)`` arrays of the brackets.
    """
    xs, es = _BRANCH_SIGNS[br].T
    done = np.zeros(len(br), dtype=bool)
    for _ in range(REFINE_STEPS):
        a, b = (x1 - x0) * (f1 - f2), (x1 - x2) * (f1 - f0)
        v = np.where(done, x1,
                     x1 - 0.5 * ((x1 - x0) * a - (x1 - x2) * b) / (a - b))
        fv = _residual(g, M, _circle(v), xs, es)
        stop = ~done & (((fv > 0.0) != (f1 > 0.0))
                        | (np.abs(fv) <= ROOT_TOL))
        # otherwise v replaces the middle point if it is nearer zero, else
        # the end point on its side
        mid = ~done & ~stop & (np.abs(fv) < np.abs(f1))
        end = ~done & ~stop & ~mid
        left = v < x1
        x0, f0 = (np.where(mid & ~left, x1, np.where(end & left, v, x0)),
                  np.where(mid & ~left, f1, np.where(end & left, fv, f0)))
        x2, f2 = (np.where(mid & left, x1, np.where(end & ~left, v, x2)),
                  np.where(mid & left, f1, np.where(end & ~left, fv, f2)))
        x1, f1 = np.where(mid | stop, v, x1), np.where(mid | stop, fv, f1)
        done |= stop
        if done.all():
            break
    # a middle point across zero brackets a root on each side; a double
    # root is its own bracket
    two = (f1 > 0.0) != (f0 > 0.0)
    one = done & ~two
    return (np.concatenate([br[two], br[two], br[one]]),
            np.concatenate([x0[two], x1[two], x1[one]]),
            np.concatenate([f0[two], f1[two], f1[one]]),
            np.concatenate([x1[two], x2[two], x1[one]]),
            np.concatenate([f1[two], f2[two], f1[one]]))


def branches(g: Wrist, rows: np.ndarray, target: Pose) -> np.ndarray:
    """Every joint vector that reaches ``target`` on a wrist of structure
    ``g``, from one scan of the wrist circle.

    O4 lies on the circle of radius a5 about O5 = p - d6 z_tool, normal to
    z_tool: O4 = O5 - a5 x5 with x5 = cos(phi) x_tool + sin(phi) y_tool.
    :func:`_residual` is sampled at :data:`SCAN_POINTS` angles on the four
    shoulder/elbow branches at once, with a fan into each fold of the elbow
    (:func:`_elbow_reach`). Its sign changes and its dips (:func:`_dips`,
    :func:`_refine_dips`) bracket the roots, which Illinois regula falsi
    refines, all in one batch. Joints 4 and 5 then follow by ``atan2``, and
    joint 6 is -phi.

    Returns:
        The joint vectors (m, 6), in no set turn. A root that the steps
        leave above :data:`ROOT_TOL` is a near-root, left for the caller's
        tolerance test.
    """
    R = target.orientation
    x, y, z = R[:, 0], R[:, 1], R[:, 2]
    o = target.position - g.d6 * z
    o[2] -= g.d1
    M = np.stack([np.concatenate([o, g.ca5 * z]),
                  np.concatenate([-g.a5 * x, g.sa5 * y]),
                  np.concatenate([-g.a5 * y, -g.sa5 * x])], axis=1)
    n = SCAN_POINTS
    with np.errstate(divide="ignore", invalid="ignore"):
        f = _residual(g, M, _SCAN_CIRCLE, _SHOULDER, _ELBOW)
        f = f.reshape(4, n + 2)
        open_, fans = _elbow_reach(g, M)
        up = f > 0.0
        br, i = np.nonzero((up[:, :n] != up[:, 1:n + 1]) & open_)
        brackets = [(br, _PHI[i], f[br, i], _PHI[i + 1], f[br, i + 1])]
        dips = [_dips(f[:, None], _PHI[None],
                      (open_ & np.roll(open_, -1))[None])]
        if fans:
            # each fan runs on into the sample at its far end
            ends = np.array([e for e, _ in fans])
            at = np.stack([a for _, a in fans])
            f_at = _residual(g, M, _circle(at.ravel()), _SHOULDER,
                             _ELBOW).reshape(4, *at.shape)
            seq = np.concatenate([f_at, f[:, ends, None]], axis=2)
            at = np.concatenate([at, _PHI[ends, None]], axis=1)
            up = seq > 0.0
            br, i, j = np.nonzero(up[:, :, :-1] != up[:, :, 1:])
            brackets.append((br, at[i, j], seq[br, i, j], at[i, j + 1],
                             seq[br, i, j + 1]))
            dips.append(_dips(seq, at, np.ones((len(ends), FOLD_FAN - 1),
                                               dtype=bool)))
        dips = [np.concatenate(p) for p in zip(*dips)]
        if dips[0].size:
            brackets.append(_refine_dips(g, M, *dips))
        br, lo, flo, hi, fhi = (np.concatenate(p) for p in zip(*brackets))
        xs, es = _BRANCH_SIGNS[br].T
        for _ in range(REFINE_STEPS):
            todo = np.abs(fhi) > ROOT_TOL
            if not todo.any():
                break
            c = np.where(todo, hi - fhi * (hi - lo) / (fhi - flo), hi)
            fc = _residual(g, M, _circle(c), xs, es)
            flip = (fc > 0.0) != (fhi > 0.0)
            lo, flo = np.where(flip, hi, lo), np.where(flip, fhi, 0.5 * flo)
            hi, fhi = c, fc
        t1, t2, t3 = _residual(g, M, _circle(hi), xs, es, angles=True)
    T = np.zeros((len(hi), 6))
    T[:, 0], T[:, 1], T[:, 2] = t1, t2, t3
    R3 = _kernels.fk_frames_batch(rows, T - rows[:, 0])[:, 3, :3, :3]
    x3, y3, z3 = R3[:, :, 0], R3[:, :, 1], R3[:, :, 2]
    c, s = np.cos(hi)[:, None], np.sin(hi)[:, None]
    x5 = c * x + s * y
    z4 = g.ca5 * z + g.sa5 * (c * y - s * x)
    # z4 = R3 Rz(t4) (0, -sa4, ca4) and x5 = R4 (cos t5, sin t5, 0)
    t4 = np.arctan2(g.sa4 * (x3 * z4).sum(axis=1),
                    -g.sa4 * (y3 * z4).sum(axis=1))
    c4, s4 = np.cos(t4)[:, None], np.sin(t4)[:, None]
    x4 = c4 * x3 + s4 * y3
    y4 = g.ca4 * (c4 * y3 - s4 * x3) + g.sa4 * z3
    T[:, 3] = t4
    T[:, 4] = np.arctan2((y4 * x5).sum(axis=1), (x4 * x5).sum(axis=1))
    T[:, 5] = -hi
    return T - rows[:, 0]


def starts(g: Wrist, rows: np.ndarray, lim: np.ndarray, target: Pose,
           q0: np.ndarray) -> np.ndarray:
    """The in-limit branches of :func:`branches`, each joint moved by
    whole turns to its in-limit value nearest ``q0`` (1, 6), nearest
    ``q0`` first (Euclidean joint distance)."""
    Q = branches(g, rows, target)
    tau = 2.0 * math.pi
    turns = np.round((q0 - Q) / tau)
    alt = Q + tau * (turns + np.array([0.0, -1.0, 1.0])[:, None, None])
    inside = (alt >= lim[:, 0]) & (alt <= lim[:, 1])
    pick = np.where(inside, np.abs(alt - q0), np.inf).argmin(axis=0)
    Q = np.take_along_axis(alt, pick[None], axis=0)[0]
    Q = Q[inside.any(axis=0).all(axis=1)]
    return Q[np.argsort(_row_norms(Q - q0), kind="stable")]
