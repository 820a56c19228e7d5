"""``_kernels.repr_bytes`` against ``repr``, and the CSV it writes.

The formatter must give the bytes of ``repr(float(v))`` for every double:
raw 64-bit patterns reach every exponent, sign, subnormal and NaN payload,
and ``st.floats()`` favours the boundary values. The CSV's float blocks must
equal the plain ``",".join(map(repr, row))`` rendering, also where a block
reuses the text of the last column it shares with the block before it, and
the default grid's files keep their pinned SHA-256.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from armkit import _kernels, cli

_EDGES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-4,
          9.999999999999999e-05, 0.1, 0.5, 0.9999999999999999, 1.0, 1e16,
          1e22, math.nan, math.inf, -math.inf]


def _reprs(values) -> list:
    return _kernels.repr_bytes(np.array(values, dtype=np.float64)).tolist()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
@example([struct.unpack("<Q", struct.pack("<d", v))[0] for v in _EDGES])
def test_repr_bytes_of_raw_bit_patterns(patterns: list) -> None:
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert _reprs(values) == [repr(v).encode() for v in values.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), max_size=40))
@example(_EDGES)
@example([-v for v in _EDGES])
# just below a decade, integers past 2**52, and exact ties between two
# 17-digit (and two 16-digit) candidates, which repr rounds half to even
@example([0.09999999999999999, 9.999999999999998, 99999.99999999999,
          9999999999999998.0, 9007199254740994.0, 4503599627370497.0,
          0.0018301010131835938, 0.0007734298706054688])
def test_repr_bytes_of_floats(values: list) -> None:
    assert _reprs(values) == [repr(v).encode() for v in values]


def test_repr_bytes_of_many_decades(rng: np.random.Generator) -> None:
    values = np.concatenate([
        rng.random(20_000) * 10.0 ** rng.integers(-6, 18, 20_000),
        -rng.random(20_000),
        rng.integers(1, 10**6, 20_000) / 10.0 ** rng.integers(0, 9, 20_000),
    ])
    assert _reprs(values) == [repr(v).encode() for v in values.tolist()]


def test_repr_bytes_of_every_power_of_two_without_exponent() -> None:
    # the only floats whose lower gap is half the upper one
    powers = 2.0 ** np.arange(-13, 54)
    assert _reprs(powers) == [repr(v).encode() for v in powers.tolist()]
    assert _reprs(-powers) == [repr(-v).encode() for v in powers.tolist()]


def test_fast_range_edges_round_up() -> None:
    # a float at or above each edge is at or above the power of ten itself
    for k, edge in zip(range(-4, 17), _kernels._REPR_POW10):
        assert Fraction(edge) >= Fraction(10) ** k
        assert Fraction(np.nextafter(edge, 0.0)) < Fraction(10) ** k


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(st.floats(), min_size=3, max_size=3),
                     min_size=1, max_size=30),
       repeat=st.integers(2, 7), split=st.integers(0, 30))
@example(rows=[[0.0, -0.0, 1.0], [-0.0, 0.0, 1e-300]], repeat=2, split=1)
def test_csv_blocks_equal_the_repr_join(rows: list, repeat: int,
                                        split: int) -> None:
    block = np.array(rows, dtype=np.float64)
    got = b"".join(cli._csv(None, iter([block[:split], block[split:]]),
                            repeat))
    assert got == "".join((",".join(map(repr, row)) + "\n") * repeat
                          for row in block.tolist()).encode()


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(st.floats(), min_size=3, max_size=3),
                     min_size=1, max_size=12),
       others=st.lists(st.floats(), min_size=48, max_size=48),
       change=st.sampled_from(["none", "zero sign", "ulp", "nan"]),
       at=st.integers(0, 11), repeat=st.integers(1, 4),
       lines=st.integers(1, 9))
@example(rows=[[1.0, 2.0, 0.0]], others=[3.0] * 48, change="zero sign",
         at=0, repeat=2, lines=9)
def test_csv_blocks_sharing_their_last_column_equal_the_repr_join(
        rows: list, others: list, change: str, at: int, repeat: int,
        lines: int) -> None:
    # three blocks: the second and third share their last column, which
    # equals the first's bit for bit, or differs from it in one value's
    # zero sign or last bit; "nan" puts the same NaN in both columns
    first = np.array(rows, dtype=np.float64)
    n, i = len(first), at % len(first)
    if change in ("zero sign", "nan"):
        first[i, -1] = 0.0 if change == "zero sign" else math.nan
    second, third = first.copy(), first.copy()
    second[:, :-1] = np.reshape(others[:2 * n], (n, 2))
    third[:, :-1] = np.reshape(others[-2 * n:], (n, 2))
    flip = {"zero sign": 1 << 63, "ulp": 1}.get(change, 0)
    for block in (second, third):
        block.view(np.uint64)[i, -1] ^= np.uint64(flip)
    with pytest.MonkeyPatch.context() as mp:
        # parts of a few lines each, so a part starts inside its block
        mp.setattr(cli, "_CSV_CHUNK_LINES", lines)
        got = b"".join(cli._csv(None, iter([first, second, third]), repeat))
    assert got == "".join(
        (",".join(map(repr, row)) + "\n") * repeat
        for row in np.concatenate([first, second, third]).tolist()).encode()


def test_a_grid_formats_each_distinct_z_column_once(tmp_path: Path) -> None:
    # four lattice slices of 25 x 25 x 5 x 5 points, one per q1 value,
    # each its own chunk; joint 1 turns about the base z axis, so the four
    # share their z column bit for bit
    steps = (4, 25, 25, 5, 5, 3)
    formatted = []
    repr_bytes = _kernels.repr_bytes
    with pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(_kernels, "repr_bytes", lambda values: formatted.append(
            np.shape(values)) or repr_bytes(values))
        assert cli.run(["workspace", "--per-joint-steps",
                        ",".join(map(str, steps)), "--format", "csv",
                        "--out", str(tmp_path)]) == 0
    distinct = math.prod(steps[:5])
    assert [s for s in formatted if len(s) == 1] == [(distinct // 4,)]
    assert sum(math.prod(s) for s in formatted) == 2 * distinct + distinct // 4
    # the header and every row
    assert (tmp_path / "workspace.csv").read_bytes().count(b"\n") == \
        1 + math.prod(steps)


def test_default_grid_outputs_keep_their_bytes(tmp_path: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["workspace", "--format", "csv",
                        "--out", str(tmp_path)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("workspace.csv", "workspace.txt")}
    assert digests == {
        "workspace.csv":
            "c93204d5884c898510d3b470beecc363561c7c6b186ad31ecddd6acd6eb2da29",
        "workspace.txt":
            "4700e8679e323b73ea22cffd0908a4101e619ac42483f94c0f961e82f6fa6a11",
    }
