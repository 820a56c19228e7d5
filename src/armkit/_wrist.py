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

import math
from typing import NamedTuple, Optional

import numpy as np

from . import _kernels
from .kinematics import Pose, _row_norms
from .model import ArmDescription, _tables


#: Intervals of the scan per turn of the elbow's reach loop (see
#: :func:`branches`).
SCAN_POINTS = 512

#: Most refinement steps of a root.
REFINE_STEPS = 16

#: The residual within which a root counts as exact.
ROOT_TOL = 1e-14

#: The scan's half-angles tau / 2 (see :func:`_loop`): one step before 0 to
#: two turns of tau, so that each interval and each sample's two neighbours
#: lie in one slice.
_HALF = (np.arange(2 * SCAN_POINTS + 2) - 1.0) * (math.pi / SCAN_POINTS)
#: Shoulder signs that broadcast to the scan's (2, loops n) residual.
_SHOULDER = np.array([1.0, -1.0])[:, None]
for _a in (_HALF, _SHOULDER):
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

    Worked out once per arm and kept in its record (``model._Tables``).
    """
    tables = _tables(arm)
    if not hasattr(tables, "wrist"):
        tables.wrist = _structure(tables.rows)
    return tables.wrist


def _structure(rows: np.ndarray) -> Optional[Wrist]:
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


def _residual(g: Wrist, M: np.ndarray, circle: tuple, cg: np.ndarray,
              sg: np.ndarray, xs: np.ndarray, angles: bool = False):
    """The scan's residual at the wrist circle's points ``circle``, the pair
    (cos(phi), sin(phi)), where the elbow angle gamma has cosine ``cg`` and
    sine ``sg`` (see :func:`_loop`), on the branches of shoulder signs
    ``xs``; all broadcast.

    ``M`` (6, 3) maps (1, cos(phi), sin(phi)) to O4 - d1 z0 and to the
    axis z4 that joint 5 needs there. Joints 1-3 reach O4 in closed form, and
    the residual z3 . z4 - cos(alpha4) is zero where joint 4 can turn z3's
    frame onto z4. Where O4 lies inside the shoulder offset, the closed form
    takes the nearest pose it has. With ``angles``, returns the first three
    joint angles (offsets included) and phi instead.
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
    if angles:
        return (np.arctan2(wy, wx) - np.arctan2(k, X),
                np.arctan2(Y, X) - np.arctan2(g.L * sg, g.a2 + g.L * cg),
                np.arctan2(sg, cg) + g.beta, np.arctan2(circle[1], circle[0]))
    D2 = XX + Y * Y
    ll, l2 = g.a2 * g.a2 + g.L * g.L, 2.0 * g.a2 * g.L
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


def _loop(g: Wrist, M: np.ndarray):
    """The points of the wrist circle that the elbow reaches, as loops of
    one smooth parameter tau.

    O4 - d1 z0 = W0 + Wc cos(phi) + Ws sin(phi), with Wc and Ws orthogonal
    and of length a5, so the squared distance D2 = |O4 - d1 z0|^2 - h^2 of
    :func:`_residual` and cos(gamma) = m + rho cos(phi - psi) are sinusoids
    in phi. The elbow reaches O4 where |cos(gamma)| <= 1, so cos(gamma)
    runs over [lo, hi] = [max(-1, m - rho), min(1, m + rho)]. Let
    cos(gamma) = hi - a^2 = lo + b^2, with a = c sin(tau / 2),
    b = c cos(tau / 2) and c^2 = hi - lo. Then 1 - cos(gamma) =
    (1 - hi) + a^2 and rho - (cos(gamma) - m) = (m + rho - hi) + a^2, and
    one of the two constant terms is zero; likewise 1 + lo and rho - m + lo
    at the other end, with b. So sin(gamma) and rho sin(phi - psi) are each
    a product of two square roots, one per end, and taking a or b with its
    sign where its term is zero makes both smooth in tau, even at a fold of
    the elbow (cos(gamma) = +-1), where gamma grows as the square root of
    the distance in phi.

    With one fold (m + rho > 1 or m - rho < -1), tau in [0, 4 pi) runs
    round one loop that holds both elbow branches. Otherwise tau in
    [0, 2 pi) runs round each of two loops, which a sign tells apart: the
    two elbow branches (no fold) or the two sides of psi (two folds).

    Returns:
        ``(loops, at)``: the number of loops, 0 if the elbow reaches no
        point of the circle, and ``at(half, sign)``: the circle's points
        (cos(phi), sin(phi)), cos(gamma) and sin(gamma) at tau = 2 ``half``
        on the loop of sign ``sign`` (1 on a lone loop); the two broadcast.
    """
    w, wc, ws = M[:3].T.tolist()
    ll, l2 = g.a2 * g.a2 + g.L * g.L, 2.0 * g.a2 * g.L
    m = (math.fsum(v * v for v in w) + g.a5 * g.a5 - g.h * g.h - ll) / l2
    p = 2.0 * math.fsum(u * v for u, v in zip(w, wc)) / l2
    q = 2.0 * math.fsum(u * v for u, v in zip(w, ws)) / l2
    rho = math.hypot(p, q)
    top, bottom = m + rho > 1.0, m - rho < -1.0
    # hi - m and lo - m
    hm, lm = (1.0 - m if top else rho), (-1.0 - m if bottom else -rho)
    if not hm >= lm:
        return 0, None
    hi, c = 1.0 if top else m + rho, math.sqrt(hm - lm)
    # the constant term that does not vanish at each end
    th, tl = abs(m + rho - 1.0), abs(m - rho + 1.0)
    psi = math.atan2(q, p)
    cp, sp = math.cos(psi), math.sin(psi)

    def at(half, sign):
        s, t = np.sin(half), np.cos(half)
        a, b = c * s, c * t
        aa = a * a
        # on two loops, the sign falls on the product of two positive roots
        ra, rb = np.sqrt(th + aa), sign * np.sqrt(tl + b * b)
        sg = (a if top else ra) * (b if bottom else rb)
        if top or bottom:
            # cos(phi - psi) and sin(phi - psi)
            cd = (hm - aa) / rho
            sd = (ra if top else a) * (rb if bottom else b) / rho
        else:
            # phi - psi = tau, even where rho = 0 and gamma is constant
            cd, sd = t * t - s * s, 2.0 * s * t
        return (cd * cp - sd * sp, sd * cp + cd * sp), hi - aa, sg

    return 1 if top != bottom else 2, at


def _dips(f: np.ndarray, x: np.ndarray) -> tuple:
    """The dips of sample runs ``f`` (r, l), one per row, at increasing
    ``x`` (l,).

    A dip is a sample nearer zero than its two neighbours, all three of one
    sign, whose parabola through them turns nearer zero than 95% of the
    sample's value, or across it: the sign of a double root, or of two
    roots closer than the samples.

    Returns:
        ``(row, x0, x2, f0, f2)``, one entry per dip: its two outer samples.
    """
    a = np.abs(f)
    br, i = np.nonzero((a[:, 1:-1] < a[:, :-2]) & (a[:, 1:-1] <= a[:, 2:]))
    f0, f1, f2 = f[br, i], f[br, i + 1], f[br, i + 2]
    x0, x1, x2 = x[i], x[i + 1], x[i + 2]
    # the parabola's slope at x1 and its curvature
    d0, d1 = (f1 - f0) / (x1 - x0), (f2 - f1) / (x2 - x1)
    curv = (d1 - d0) / (x2 - x0)
    slope = d0 + curv * (x1 - x0)
    peak = f1 - slope * slope / (4.0 * curv)
    dip = (f1 * f0 > 0.0) & (f1 * f2 > 0.0) & (peak * f1 < 0.95 * f1 * f1)
    return tuple(v[dip] for v in (br, x0, x2, f0, f2))


def _illinois(residual, lo: np.ndarray, flo: np.ndarray, hi: np.ndarray,
              fhi: np.ndarray) -> np.ndarray:
    """The roots of ``residual`` in the brackets [``lo``, ``hi``], where it
    takes the values ``flo`` and ``fhi``, by Illinois regula falsi, all at
    once: each bracket's newest point once ``residual`` there is within
    :data:`ROOT_TOL` of zero, or after :data:`REFINE_STEPS` steps."""
    for _ in range(REFINE_STEPS):
        todo = np.abs(fhi) > ROOT_TOL
        if not todo.any():
            break
        c = np.where(todo, hi - fhi * (hi - lo) / (fhi - flo), hi)
        fc = residual(c)
        flip = (fc > 0.0) != (fhi > 0.0)
        lo, flo = np.where(flip, hi, lo), np.where(flip, fhi, 0.5 * flo)
        hi, fhi = c, fc
    return hi


def _refine_dips(residual, br: np.ndarray, x0: np.ndarray, x2: np.ndarray,
                 f0: np.ndarray, f2: np.ndarray) -> tuple:
    """Brackets of the roots at the dips ``br``, ``x0``, ``x2``, ``f0``,
    ``f2`` of :func:`_dips`, where ``residual(r)`` is the residual on scan
    rows ``r`` as a function of the half-angle.

    A dip's turning point is a root of the residual's slope, here the
    central difference f(x + e) - f(x - e) with e = 1e-6 (x2 - x0), which
    :func:`_illinois` finds in [x0, x2] for each dip whose slope changes
    sign there. At its turning point a dip crosses zero (a bracket on each
    side), lies within :data:`ROOT_TOL` of it (a double root, as a bracket
    of zero width), or has no root.

    Returns:
        ``(row, lo, f_lo, hi, f_hi)`` arrays of the brackets.
    """
    e = 1e-6 * (x2 - x0)
    f = residual(br)
    s0, s2 = f(x0 + e) - f(x0 - e), f(x2 + e) - f(x2 - e)
    turns = (s0 > 0.0) != (s2 > 0.0)
    br, x0, x2, f0, f2, s0, s2, e = (
        v[turns] for v in (br, x0, x2, f0, f2, s0, s2, e))
    f = residual(br)
    x = _illinois(lambda x: f(x + e) - f(x - e), x0, s0, x2, s2)
    fx = f(x)
    # a turning point across zero brackets a root on each side; a double
    # root is its own bracket
    two = (fx > 0.0) != (f0 > 0.0)
    one = ~two & (np.abs(fx) <= ROOT_TOL)
    return (np.concatenate([br[two], br[two], br[one]]),
            np.concatenate([x0[two], x[two], x[one]]),
            np.concatenate([f0[two], fx[two], fx[one]]),
            np.concatenate([x[two], x2[two], x[one]]),
            np.concatenate([fx[two], f2[two], fx[one]]))


def branches(g: Wrist, rows: np.ndarray, target: Pose) -> np.ndarray:
    """Every joint vector that reaches ``target`` on a wrist of structure
    ``g``, from one scan of the wrist circle.

    O4 lies on the circle of radius a5 about O5 = p - d6 z_tool, normal to
    z_tool: O4 = O5 - a5 x5 with x5 = cos(phi) x_tool + sin(phi) y_tool.
    :func:`_residual` is sampled on both shoulder branches at
    :data:`SCAN_POINTS` points per turn of the parameter tau of the
    elbow's reach loops (:func:`_loop`), 2 :data:`SCAN_POINTS` in all. Its
    sign changes and its dips (:func:`_dips`, :func:`_refine_dips`), each
    across a loop's seam too, bracket the roots, which :func:`_illinois`
    refines in tau, all in one batch. Joints 4 and 5 then follow by
    ``atan2``, and joint 6 is -phi.

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
    loops, at = _loop(g, M)
    if not loops:
        return np.zeros((0, 6))
    n = 2 * SCAN_POINTS // loops
    half = _HALF[:n + 2]

    def residual(r):
        # row r of the scan is on loop r % loops, with shoulder sign
        # _SHOULDER[r // loops]
        ls, xs = 1.0 - 2.0 * (r % loops), 1.0 - 2.0 * (r // loops)
        return lambda h, angles=False: _residual(g, M, *at(h, ls), xs,
                                                 angles)

    with np.errstate(divide="ignore", invalid="ignore"):
        f = _residual(g, M, *at(np.tile(half[1:-1], loops),
                                np.repeat([1.0, -1.0][:loops], n)),
                      _SHOULDER).reshape(2 * loops, n)
        # each loop closes: its last sample comes before its first
        f = np.concatenate([f[:, -1:], f, f[:, :1]], axis=1)
        up = f > 0.0
        br, i = np.nonzero(up[:, 1:-1] != up[:, 2:])
        brackets = [(br, half[i + 1], f[br, i + 1], half[i + 2],
                     f[br, i + 2])]
        dips = _dips(f, half)
        if dips[0].size:
            brackets.append(_refine_dips(residual, *dips))
        br, lo, flo, hi, fhi = (np.concatenate(p) for p in zip(*brackets))
        res = residual(br)
        t1, t2, t3, phi = res(_illinois(res, lo, flo, hi, fhi), True)
    T = np.zeros((len(phi), 6))
    T[:, 0], T[:, 1], T[:, 2] = t1, t2, t3
    R3 = _kernels.fk_frames_batch(rows, T - rows[:, 0])[:, 3, :3, :3]
    x3, y3, z3 = R3[:, :, 0], R3[:, :, 1], R3[:, :, 2]
    c, s = np.cos(phi)[:, None], np.sin(phi)[:, None]
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
    T[:, 5] = -phi
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
