"""Batched forward kinematics over (n, 6) joint vectors.

One link model, :func:`_links`, yields each link transform's entries as
(n,) arrays, and two products consume it:

* :func:`fk_points` multiplies the chain out element by element and keeps
  only nine rotation and three position arrays, so the workspace sweep
  builds neither frames nor (n, 3, 3) temporaries;
* :func:`fk_frames_batch` keeps every frame. It multiplies (n, 4, 4) link
  matrices with a stacked matmul, which rounds exactly like the per-pose
  ``T @ A`` of ``kinematics.fk_frames``, so batched statics reproduce the
  single-pose results bit for bit.
"""

from __future__ import annotations

import math

import numpy as np


#: (row, col) of each entry :func:`_links` yields.
_ENTRIES = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3),
            (2, 1), (2, 2), (2, 3))


def _links(rows: np.ndarray, qb: np.ndarray):
    """Yield each link transform ``Rz(th) Dz(d) Dx(a) Rx(al)`` over the batch.

    Entries come row-major without the constant ones: ``a00 a01 a02 a03 a10
    a11 a12 a13 a21 a22 d`` (``a20`` is 0), each an (n,) array or a float.
    """
    for i in range(6):
        th = qb[:, i] + rows[i, 0]
        d, a, al = rows[i, 1], rows[i, 2], rows[i, 3]
        ct, st = np.cos(th), np.sin(th)
        ca, sa = math.cos(al), math.sin(al)
        yield (ct, -st * ca, st * sa, a * ct,
               st, ct * ca, -ct * sa, a * st,
               sa, ca, d)


def _as_batch(rows, qb):
    return (np.ascontiguousarray(rows, dtype=np.float64),
            np.ascontiguousarray(qb, dtype=np.float64).reshape(-1, 6))


def fk_points(rows: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Tool-frame positions for a batch of joint vectors.

    Args:
        rows: (6, 4) float64 array of [theta_offset, d, a, alpha] per joint.
        qb: (n, 6) joint angles in radians.

    Returns:
        (n, 3) positions in meters.
    """
    rows, qb = _as_batch(rows, qb)
    r00, r01, r02 = 1.0, 0.0, 0.0
    r10, r11, r12 = 0.0, 1.0, 0.0
    r20, r21, r22 = 0.0, 0.0, 1.0
    px = py = pz = 0.0
    for a00, a01, a02, a03, a10, a11, a12, a13, a21, a22, d in _links(rows, qb):
        px = px + (r00 * a03 + r01 * a13 + r02 * d)
        py = py + (r10 * a03 + r11 * a13 + r12 * d)
        pz = pz + (r20 * a03 + r21 * a13 + r22 * d)
        r00, r01, r02 = (r00 * a00 + r01 * a10,
                         r00 * a01 + r01 * a11 + r02 * a21,
                         r00 * a02 + r01 * a12 + r02 * a22)
        r10, r11, r12 = (r10 * a00 + r11 * a10,
                         r10 * a01 + r11 * a11 + r12 * a21,
                         r10 * a02 + r11 * a12 + r12 * a22)
        r20, r21, r22 = (r20 * a00 + r21 * a10,
                         r20 * a01 + r21 * a11 + r22 * a21,
                         r20 * a02 + r21 * a12 + r22 * a22)
    return np.stack([px, py, pz], axis=1)


def fk_frames_batch(rows: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Every frame transform for a batch of joint vectors.

    Args:
        rows: (6, 4) float64 array of [theta_offset, d, a, alpha] per joint.
        Q: (n, 6) joint angles in radians.

    Returns:
        (n, 7, 4, 4) array; ``[:, 0]`` is the base identity and ``[:, i]``
        the frame after link ``i``, as in ``kinematics.fk_frames``.
    """
    rows, Q = _as_batch(rows, Q)
    out = np.empty((Q.shape[0], 7, 4, 4))
    out[:, 0] = np.eye(4)
    A = np.zeros((Q.shape[0], 4, 4))
    A[:, 3, 3] = 1.0
    for i, link in enumerate(_links(rows, Q)):
        for (r, c), v in zip(_ENTRIES, link):
            A[:, r, c] = v
        # a stacked matmul rounds like kinematics.fk_frames' T @ A
        np.matmul(out[:, i], A, out=out[:, i + 1])
    return out


def active_path() -> str:
    """Name of the kernel path in use (always "numpy")."""
    return "numpy"
