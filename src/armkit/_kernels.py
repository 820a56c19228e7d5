"""Batched forward kinematics over (n, 6) joint vectors.

One link model, :func:`_link_entries`, gives each link transform's entries
elementwise, and three products consume it:

* :func:`fk_points` takes one link at a time as (n,) arrays, multiplies the
  chain out element by element and keeps only nine rotation and three
  position arrays, so the quasi workspace sweep builds neither frames nor
  (n, 3, 3) temporaries;
* :func:`fk_lattice` runs the same links (:func:`_links`) and elementwise
  chain step, :func:`_chain_link`, over the ``ij`` lattice of six joint
  axes, which the grid sweep walks: each link's entries are taken once per
  axis value, and the chain grows by an outer product per link, so the
  first links cost what their own axes cost;
* :func:`fk_frames_batch` keeps every frame and is the one frames path:
  single-pose FK and Jacobians, gravity torques and IK all call it, so
  one pose gives the same bits alone or in any batch. It writes all six
  links' matrices at once into an (n, 6, 4, 4) buffer of their own, so a
  small batch costs few numpy calls, and multiplies them out from the
  base with one stacked matmul per link, straight into the frames.

:class:`ScrambledSobol` draws the quasi workspace sweep's joint samples, and
:func:`repr_bytes` writes the CSV's floats.
"""

from __future__ import annotations

import math

import numpy as np


#: (row, col) of each entry :func:`_link_entries` gives.
_ENTRIES = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3),
            (2, 1), (2, 2), (2, 3))

#: The base frame of every :func:`fk_frames_batch` stack.
_EYE4 = np.eye(4)
_EYE4.setflags(write=False)


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


def _twists(rows: np.ndarray) -> np.ndarray:
    """Cosine and sine of each link's twist, from ``math``: a (2, 6) array
    that unpacks as ``ca, sa``."""
    al = rows[:, 3].tolist()
    return np.array([[math.cos(a) for a in al], [math.sin(a) for a in al]])


def _links(rows: np.ndarray, angles):
    """Yield each link's :func:`_link_entries` at its joint's angles, the
    1-D sequence ``angles[i]`` for link ``i``: each entry an array of their
    length or a float."""
    ca, sa = _twists(rows)
    for i, q in enumerate(angles):
        # th lives until the next link: freed among the link's temporaries,
        # it fragments the heap and lifts the workspace sweep's peak RSS
        th = np.asarray(q, dtype=np.float64) + rows[i, 0]
        yield _link_entries(th, rows[i, 1], rows[i, 2],
                            float(ca[i]), float(sa[i]))


def _as_batch(rows, qb):
    return (np.ascontiguousarray(rows, dtype=np.float64),
            np.ascontiguousarray(qb, dtype=np.float64).reshape(-1, 6))


#: The chain state of :func:`_chain_link` at the base: the identity's
#: rotation entries, row-major, then the origin's position entries.
_BASE = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)


def _chain_link(s: list, link, last: bool) -> None:
    """Carry the chain state ``s`` one link further, in place.

    ``s`` holds the nine rotation entries, row-major, and the three
    position entries, elementwise over arrays that broadcast with the
    link's :func:`_link_entries`. ``last`` skips the rotation, which no
    position reads after the tool link. Each row of the rotation replaces
    the old one as soon as it is made: holding a whole old rotation next to
    the new one lifts the sweep's peak RSS.
    """
    a00, a01, a02, a03, a10, a11, a12, a13, a21, a22, d = link
    for i in range(3):
        x, y, z = s[3 * i:3 * i + 3]
        s[9 + i] = s[9 + i] + (x * a03 + y * a13 + z * d)
    if last:
        return
    for i in range(3):
        x, y, z = s[3 * i:3 * i + 3]
        s[3 * i:3 * i + 3] = (x * a00 + y * a10,
                              x * a01 + y * a11 + z * a21,
                              x * a02 + y * a12 + z * a22)


def fk_points(rows: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Tool-frame positions for a batch of joint vectors.

    Args:
        rows: (6, 4) float64 array of [theta_offset, d, a, alpha] per joint.
        qb: (n, 6) joint angles in radians.

    Returns:
        (n, 3) positions in meters.
    """
    rows, qb = _as_batch(rows, qb)
    s = list(_BASE)
    for i, link in enumerate(_links(rows, qb.T)):
        _chain_link(s, link, i == 5)
    return np.stack(s[9:], axis=1)


def fk_lattice(rows: np.ndarray, axes) -> np.ndarray:
    """Tool-frame positions over the ``ij`` lattice of six joint axes.

    The same bits as :func:`fk_points` of the lattice's rows (joint 0
    slowest, joint 5 fastest), by the same :func:`_chain_link` on the same
    operands: after link ``i`` the chain holds a column, one entry per
    point of the lattice of axes ``0..i``, and link ``i + 1``'s entries,
    one per value of its axis, broadcast against it as a row.

    Args:
        rows: (6, 4) float64 array of [theta_offset, d, a, alpha] per joint.
        axes: six 1-D sequences of joint angles in radians.

    Returns:
        (prod(len(axes[j])), 3) positions in meters.
    """
    s = list(_BASE)
    for i, link in enumerate(_links(
            np.ascontiguousarray(rows, dtype=np.float64), axes)):
        _chain_link(s, link, i == 5)
        # (points so far, values of axis i) in C order is the ij lattice
        s = [np.reshape(x, (-1, 1)) for x in s]
    return np.concatenate(s[9:], axis=1)


def fk_frames_batch(rows: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Every frame transform for a batch of joint vectors.

    The six link matrices are written at once into an (n, 6, 4, 4) buffer
    of their own, then multiplied out from the base with one stacked matmul
    per link, each straight into its frame slot. No matmul operand overlaps
    its output, which would make numpy copy it first.

    Args:
        rows: (6, 4) float64 array of [theta_offset, d, a, alpha] per joint.
        Q: (n, 6) joint angles in radians.

    Returns:
        (n, 7, 4, 4) array; ``[:, 0]`` is the base identity and ``[:, i]``
        the frame after link ``i``.
    """
    rows, Q = _as_batch(rows, Q)
    n = Q.shape[0]
    links = np.zeros((n, 6, 4, 4))
    links[:, :, 3, 3] = 1.0
    ca, sa = _twists(rows)
    entries = _link_entries(Q + rows[:, 0], rows[:, 1], rows[:, 2], ca, sa,
                            out=[links[:, :, r, c] for r, c in _ENTRIES[:8]])
    for (r, c), v in zip(_ENTRIES[8:], entries[8:]):
        links[:, :, r, c] = v
    out = np.empty((n, 7, 4, 4))
    out[:, 0] = _EYE4
    for i in range(6):
        np.matmul(out[:, i], links[:, i], out=out[:, i + 1])
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


#: ``fl(10**k)`` for k = -4..16: the fast range of :func:`repr_bytes`, in
#: which ``repr`` writes no exponent. Each is the nearest float at or above
#: ``10**k``, so a float is ``>= 10**k`` exactly when it is ``>=`` the entry.
_REPR_POW10 = np.array([float(f"1e{k}") for k in range(-4, 17)])
_REPR_WIDTH = 24  # the longest repr: "-2.2250738585072014e-308"
_POW5 = 5 ** np.arange(21, dtype=np.int64)
_POW10 = 10 ** np.arange(18, dtype=np.int64)
#: floor(log10) of 2**(e - 1023) and the next power of ten, for the biased
#: exponents e of the fast range
_EXP0 = 1009
_EXP_LOG10 = np.searchsorted(
    _REPR_POW10, 2.0 ** (np.arange(_EXP0, 1077) - 1023), "right") - 5
_EXP_NEXT10 = _REPR_POW10[np.minimum(_EXP_LOG10 + 5, 20)]
#: per word of a 24-byte row: the mask keeping its first ``n`` bytes
_KEEP = np.tril(np.full((_REPR_WIDTH + 1, _REPR_WIDTH), 0xFF, np.uint8),
                -1).view(np.uint64).T.copy()
_U64 = np.uint64


def _shortest(bits: np.ndarray):
    """Shortest round-trip digits of positive doubles in the fast range.

    ``a * 10**k`` (``k`` = 16 - floor(log10 a)) is ``m * 5**k / 2**s`` for
    the 53-bit mantissa ``m``: its integer part ``whole`` has 17 digits and
    its fraction is the low ``s`` bits of the exact product ``m * 5**k``
    (under 2**100, two uint64 limbs). The integers within half a float gap
    of it are the 17-digit candidates; the one with the most trailing zeros
    (``j``), nearest the value, is what ``repr`` prints (Steele & White,
    as in Ryu, Adams 2018).

    Returns ``(c, k, j, bad)``: the value is ``c * 10**-k`` with ``c`` a
    multiple of ``10**j``, and ``bad`` marks the exact ties between two
    candidates, which ``repr`` rounds half to even.

    ``c`` stays below 10**17: 10**(17 - k) is a candidate only for the
    float nearest it from below, and every power of ten of the fast range
    is a float or rounds up to one (``_REPR_POW10``). An end of the half-gap
    interval, which an even mantissa would admit, is never shorter than the
    candidates inside: it is an odd multiple of 2**(e - 1) for the float's
    exponent e <= 1, so either its decimal digits run past 17 (e <= 0) or it
    is an odd integer next to an even one (e = 1). A power of two's lower
    gap is half its upper one; the interval is taken symmetric anyway,
    which admits no wrong candidate for the 67 powers of two in the range
    (``tests/test_repr_bytes.py`` checks each).
    """
    bexp = (bits >> _U64(52)).astype(np.int64)
    m = (bits & _U64((1 << 52) - 1)) | _U64(1 << 52)
    e = bexp - _EXP0
    k = 16 - _EXP_LOG10[e] - (bits.view(np.float64) >= _EXP_NEXT10[e])
    s = 1075 - bexp - k
    # m * 5**k = hi * 2**64 + lo, from 32-bit halves
    f = _POW5[k].astype(np.uint64)
    mh, ml = m >> _U64(32), m & _U64(0xFFFFFFFF)
    fh, fl = f >> _U64(32), f & _U64(0xFFFFFFFF)
    ll = ml * fl
    mid = mh * fl + ml * fh
    lo = ll + (mid << _U64(32))
    hi = mh * fh + (mid >> _U64(32)) + (lo < ll)
    # split at bit s: the integer part and the fraction, in units of
    # 2**-(s + 2); s is -2..46
    frac = s > 0
    sr = np.where(frac, s, 1).astype(np.uint64)
    whole = np.where(frac, (hi << (_U64(64) - sr)) | (lo >> sr),
                     lo << np.where(frac, 0, -s).astype(np.uint64))
    whole = whole.astype(np.int64)
    f4 = np.where(frac, lo & ((_U64(1) << sr) - _U64(1)),
                  _U64(0)).astype(np.int64) << 2
    sh = s + 2
    unit = np.left_shift(1, sh)
    half_gap = _POW5[k] << 1
    # integers c with |c - value| < half_gap / unit: |(c - whole) unit - f4|
    low = whole - ((half_gap - f4 - 1) >> sh)
    high = whole + ((f4 + half_gap - 1) >> sh)
    # j: the most trailing zeros of an integer in [low, high]
    j = np.zeros(len(bits), np.int64)
    act = np.flatnonzero(high // 10 != (low - 1) // 10)
    for jj in range(1, 17):
        if not len(act):
            break
        j[act] = jj
        p = _POW10[jj + 1]
        act = act[high[act] // p != (low[act] - 1) // p]
    # the candidate nearest the value: a multiple of 10 for j = 1, the
    # nearer integer for j = 0, the only multiple of 10**j for j > 1
    q = whole // 10
    r = whole - q * 10
    below = (r << sh) + f4
    above = ((10 - r) << sh) - f4
    c = q * 10 + 10 * (above < below)
    bad = above == below
    at0 = np.flatnonzero(j == 0)
    up = unit[at0] - f4[at0]
    c[at0] = whole[at0] + (up < f4[at0])
    bad[at0] = up == f4[at0]
    far = np.flatnonzero(j > 1)
    c[far] = high[far] - high[far] % _POW10[j[far]]
    return c, k, j, bad


def _swar8(x: np.ndarray) -> np.ndarray:
    """The 8 ASCII digits of each ``x < 10**8``, first digit in the low byte:
    halves, quarters and eighths split within the word's lanes, dividing by
    multiply and shift."""
    hi = x // _U64(10_000)
    v = hi | ((x - hi * _U64(10_000)) << _U64(32))
    q = ((v * _U64(5243)) >> _U64(19)) & _U64(0x0000007F0000007F)  # / 100
    v = q | ((v - q * _U64(100)) << _U64(16))
    q = ((v * _U64(103)) >> _U64(10)) & _U64(0x000F000F000F000F)   # / 10
    return q | ((v - q * _U64(10)) << _U64(8)) | _U64(0x3030303030303030)


def _layout(key: int) -> list:
    """Row of :func:`repr_bytes`' digit table columns that spells a value
    ``c * 10**-k`` of sign ``sg`` (``key = 2k + sg``): columns 0..16 hold
    the 17 digits of ``c``, 17 ``.``, 18 ``-`` and 19 ``0``."""
    k, sg = divmod(key, 2)
    cols = [18] * sg + ([19] if k > 16 else list(range(17 - k))) + [17]
    cols += [19] * max(k - 17, 0) + list(range(max(17 - k, 0), 17))
    return (cols + [19] * _REPR_WIDTH)[:_REPR_WIDTH]


def repr_bytes(values) -> np.ndarray:
    """``repr(float(v)).encode()`` for every element of ``values``.

    Returns an ``S24`` array of the flattened values. Elements in
    ``1e-4 <= |v| < 1e16``, which ``repr`` writes without an exponent, are
    formatted from :func:`_shortest`'s digits; ``repr`` itself writes the
    rest (exponent form, zeros, subnormals, NaN and infinities) and the ties
    ``_shortest`` flags.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    out = np.zeros((x.size, _REPR_WIDTH), np.uint8)
    bits = x.view(np.uint64)
    a = np.abs(x)
    idx = np.flatnonzero((a >= _REPR_POW10[0]) & (a < _REPR_POW10[-1]))
    neg = (bits[idx] >> _U64(63)).astype(np.int64)
    c, k, j, bad = _shortest(a[idx].view(np.uint64))
    length = neg + np.maximum(17 - k, 1) + 1 + np.maximum(k - j, 1)
    # digit table: 7 spare bytes, the 17 digits of c, then ".-0"
    hd = c.astype(np.uint64) // _U64(10**16)
    rest = c.astype(np.uint64) - hd * _U64(10**16)
    mid = rest // _U64(10**8)
    tab = np.empty((len(c), 4), "<u8")
    tab[:, 0] = (hd + _U64(48)) << _U64(56)
    tab[:, 1] = _swar8(mid)
    tab[:, 2] = _swar8(rest - mid * _U64(10**8))
    tab[:, 3] = 0x302D2E
    # one column gather per (k, sign), over rows sorted by it
    key = 2 * k + neg
    order = np.argsort(key.astype(np.int8), kind="stable")
    tab = np.take(tab, order, axis=0).view(np.uint8)[:, 7:]
    body = np.empty((len(c), _REPR_WIDTH), np.uint8)
    start = 0
    for kk, stop in enumerate(np.cumsum(np.bincount(key))):
        if stop > start:
            np.take(tab[start:stop], _layout(kk), axis=1,
                    out=body[start:stop])
        start = stop
    words, ends = body.view(np.uint64), length[order]
    for w, keep in enumerate(_KEEP):
        words[:, w] &= keep[ends]
    row = f"V{_REPR_WIDTH}"
    out.view(row).reshape(-1)[idx[order]] = body.view(row).reshape(-1)
    slow = np.ones(x.size, bool)
    slow[idx[~bad]] = False
    slow = np.flatnonzero(slow)
    text = np.array([repr(v).encode() for v in x[slow].tolist()],
                    f"S{_REPR_WIDTH}")
    out[slow] = text.view(np.uint8).reshape(-1, _REPR_WIDTH)
    return out.view(f"S{_REPR_WIDTH}").reshape(-1)


def active_path() -> str:
    """Name of the kernel path in use (always "numpy")."""
    return "numpy"
