"""Batched forward kinematics over (n, 6) joint vectors.

One link model, :func:`_link_entries`, gives each link transform's entries
elementwise, and two products consume it:

* :func:`fk_points` takes one link at a time as (n,) arrays, multiplies the
  chain out element by element and keeps only nine rotation and three
  position arrays, so the workspace sweep builds neither frames nor
  (n, 3, 3) temporaries;
* :func:`fk_frames_batch` keeps every frame. It writes all six links'
  matrices at once into the frame slots they multiply into, so a small
  batch costs few numpy calls and no buffer beyond the frames, and
  multiplies them out with a stacked matmul, which rounds exactly like the
  per-pose ``T @ A`` of ``kinematics.fk_frames``, so batched statics and
  IK reproduce the single-pose results bit for bit.

:class:`ScrambledSobol` draws the quasi workspace sweep's joint samples.
"""

from __future__ import annotations

import math

import numpy as np


#: (row, col) of each entry :func:`_link_entries` gives.
_ENTRIES = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3),
            (2, 1), (2, 2), (2, 3))


def _link_entries(th, d, a, ca, sa, out=(None,) * 8):
    """Entries of the link transforms ``Rz(th) Dz(d) Dx(a) Rx(al)``.

    Row-major without the constant ones: ``a00 a01 a02 a03 a10 a11 a12 a13
    a21 a22 d`` (``a20`` is 0), elementwise over arrays that broadcast,
    with ``ca``/``sa`` the cosine and sine of the twist ``al``. The first
    eight entries, which depend on ``th``, go into the arrays of ``out``
    where it gives them.
    """
    ct = np.cos(th, out=out[0])
    st = np.sin(th, out=out[4])
    return (ct, np.multiply(-st, ca, out=out[1]),
            np.multiply(st, sa, out=out[2]), np.multiply(a, ct, out=out[3]),
            st, np.multiply(ct, ca, out=out[5]),
            np.multiply(-ct, sa, out=out[6]), np.multiply(a, st, out=out[7]),
            sa, ca, d)


def _twists(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and sine of each link's twist (6,), from ``math``."""
    return (np.array([math.cos(al) for al in rows[:, 3]]),
            np.array([math.sin(al) for al in rows[:, 3]]))


def _links(rows: np.ndarray, qb: np.ndarray):
    """Yield each link's :func:`_link_entries` over the batch, each an (n,)
    array or a float."""
    ca, sa = _twists(rows)
    for i in range(6):
        # th lives until the next link: freed among the link's temporaries,
        # it fragments the heap and lifts the workspace sweep's peak RSS
        th = qb[:, i] + rows[i, 0]
        yield _link_entries(th, rows[i, 1], rows[i, 2],
                            float(ca[i]), float(sa[i]))


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
    for i, link in enumerate(_links(rows, qb)):
        a00, a01, a02, a03, a10, a11, a12, a13, a21, a22, d = link
        px = px + (r00 * a03 + r01 * a13 + r02 * d)
        py = py + (r10 * a03 + r11 * a13 + r12 * d)
        pz = pz + (r20 * a03 + r21 * a13 + r22 * d)
        if i == 5:
            break  # no position reads the tool frame's rotation
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
    out = np.zeros((Q.shape[0], 7, 4, 4))
    out[:, 0] = np.eye(4)
    # each frame slot first holds its link matrix, all six filled at once
    out[:, 1:, 3, 3] = 1.0
    ca, sa = _twists(rows)
    entries = _link_entries(Q + rows[:, 0], rows[:, 1], rows[:, 2], ca, sa,
                            out=[out[:, 1:, r, c] for r, c in _ENTRIES[:8]])
    for (r, c), v in zip(_ENTRIES[8:], entries[8:]):
        out[:, 1:, r, c] = v
    for i in range(6):
        # frame i times link i + 1, in place (numpy copies the overlapping
        # link first); a stacked matmul rounds like kinematics.fk_frames'
        # T @ A
        np.matmul(out[:, i], out[:, i + 1], out=out[:, i + 1])
    return out


#: Primitive polynomials and initial direction numbers of the first six
#: Sobol' dimensions (Joe & Kuo 2008), as scipy.stats.qmc.Sobol ships them.
_SOBOL_POLY = (1, 3, 7, 11, 13, 19)
_SOBOL_VINIT = ((1,), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3))
#: Bits per coordinate; a sequence holds at most 2**30 points.
_SOBOL_BITS = 30


def _sobol_directions() -> np.ndarray:
    """(6, 30) uint32 direction numbers, column ``j`` shifted left ``29 - j``.

    Dimension 0 is all ones; each later one extends its initial numbers
    with the Bratley-Fox recurrence of its polynomial.
    """
    table = [[1] * _SOBOL_BITS]
    for p, init in zip(_SOBOL_POLY[1:], _SOBOL_VINIT[1:]):
        m = p.bit_length() - 1
        v = list(init)
        for j in range(m, _SOBOL_BITS):
            new = v[j - m]
            for k in range(m):
                if p >> (m - 1 - k) & 1:
                    new ^= v[j - k - 1] << (k + 1)
            v.append(new)
        table.append(v)
    shifts = np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)
    return np.array(table, dtype=np.uint32) << shifts


class ScrambledSobol:
    """A six-dimensional scrambled Sobol' sequence, drawn in order.

    Byte for byte the points of ``scipy.stats.qmc.Sobol(d=6, scramble=True,
    seed=seed)``: Matousek's linear matrix scramble of the direction numbers
    plus a digital shift, both drawn from ``np.random.default_rng(seed)``.
    Successive :meth:`random` calls continue one sequence, so how a draw is
    split does not change its points.
    """

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        k = np.arange(_SOBOL_BITS, dtype=np.uint32)
        pow2 = 2 ** k
        shift = rng.integers(2, size=(6, _SOBOL_BITS), dtype=np.uint32) @ pow2
        ltm = np.tril(rng.integers(2, size=(6, _SOBOL_BITS, _SOBOL_BITS),
                                   dtype=np.uint32))
        ltm[:, k, k] = 1
        # bit 29 - p of scrambled direction j is the parity of
        # ltm[d, p, ::-1] . bits(v[d, j])
        bits = _sobol_directions()[:, :, None] >> k & 1
        parity = bits @ ltm[:, :, ::-1].transpose(0, 2, 1) & 1
        # row j is direction j; the last row, which index -1 picks, is the
        # shift, point 0
        self._rows = np.vstack([(parity @ pow2[::-1]).T, shift])
        self._last = np.zeros(6, dtype=np.uint32)
        self._next = 0

    def random(self, m: int) -> np.ndarray:
        """The next ``m`` points, an (m, 6) float64 array in [0, 1)."""
        if self._next + m > 1 << _SOBOL_BITS:
            raise ValueError(f"at most 2**{_SOBOL_BITS} Sobol' points")
        k = np.arange(self._next, self._next + m)
        # point k is point k - 1 XOR direction ctz(k); frexp(0) gives -1
        x = self._rows[np.frexp(k & -k)[1] - 1]
        if m:
            x[0] ^= self._last
            np.bitwise_xor.accumulate(x, axis=0, out=x)
            self._last = x[-1].copy()
        self._next += m
        return x * 2.0 ** -_SOBOL_BITS


def active_path() -> str:
    """Name of the kernel path in use (always "numpy")."""
    return "numpy"
