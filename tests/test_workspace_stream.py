"""The streamed workspace pass against the whole-cloud reference.

``workspace`` and ``reach`` walk a sweep once, in chunks of distinct tool
points, folding each chunk into running statistics, the CSV text and the
SVG's stride picks. Every output must equal what the whole in-memory cloud
gives: ``sample_workspace``'s points (pinned here to FK of the full lattice
or of one Sobol draw), the statistics' whole-cloud formulas, a plain
one-line-per-row CSV rendering and ``svgplot.workspace_svg`` of the cloud.
The grid's lattice kernel is pinned to FK of the expanded lattice, the
quasi sweep's own scrambled-Sobol generator to scipy's bytes, and a quasi
run must not import scipy. The CSV's formatter pool must give the same
bytes at any pool size and leave no thread behind when a stage fails, and
the CSV text in memory must not grow with the rows.
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import io
import itertools
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import qmc

from armkit import _kernels, cli, kinematics, model, svgplot
from armkit.errors import ComputationError, OutputError


def _variant(arm: model.ArmDescription, name: str) -> model.ArmDescription:
    """The default arm ("default": q6 cannot move the tool point), with an
    x offset on the tool link ("offset": every joint moves it) or with a
    straight, untwisted wrist link ("wrist": neither q5 nor q6 moves it)."""
    dh = list(arm.dh)
    if name == "offset":
        dh[5] = dataclasses.replace(dh[5], a_prev=0.011)
    elif name == "wrist":
        dh[4] = dataclasses.replace(dh[4], a_prev=0.0, alpha_prev=0.0, d=0.02)
    return dataclasses.replace(arm, dh=tuple(dh))


def _grid_axes(arm, steps) -> list:
    lim = model.limits_array(arm)
    return [np.linspace(lim[j, 0], lim[j, 1], s) for j, s in enumerate(steps)]


def _lattice_rows(axes) -> np.ndarray:
    """The (n, 6) rows of the ``ij`` lattice of six axes."""
    return np.stack([m.reshape(-1) for m in
                     np.meshgrid(*axes, indexing="ij")], axis=1)


def _full_cloud(arm, steps, mode, samples, seed) -> np.ndarray:
    """FK of every row at once: the meshgrid lattice or one Sobol draw."""
    rows, lim = model.dh_params(arm), model.limits_array(arm)
    if mode == "grid":
        qb = _lattice_rows(_grid_axes(arm, steps))
    else:
        u = qmc.Sobol(d=6, scramble=True, seed=seed).random(samples)
        qb = lim[:, 0] + u * (lim[:, 1] - lim[:, 0])
    return _kernels.fk_points(rows, qb)


def _whole_cloud_stats(pts: np.ndarray, shell_fraction: float) -> dict:
    radial = np.hypot(pts[:, 0], pts[:, 1])
    rmax = float(radial.max())
    span = 0.0
    if rmax > 0.0:
        shell = pts[radial >= shell_fraction * rmax]
        az = np.sort(np.degrees(np.arctan2(shell[:, 1], shell[:, 0])))
        span = float(360.0 - np.max(np.diff(np.concatenate(
            [az, [az[0] + 360.0]]))))
    return {
        "samples": float(len(pts)),
        "max_reach_m": float(np.max(np.linalg.norm(pts, axis=1))),
        "max_radial_reach_m": rmax,
        "min_z_m": float(np.min(pts[:, 2])),
        "below_base_fraction": float(np.mean(pts[:, 2] < 0.0)),
        "azimuth_span_deg": span,
    }


def _printed_stats(text: str) -> dict:
    found = dict(re.findall(r"^(\w+)[^:\n]*: (\S+)", text, re.MULTILINE))
    found.pop("note")
    return {k: float(v) for k, v in found.items()}


def _cli(argv: list) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.run(argv) == 0
    return buf.getvalue()


_steps = st.lists(st.integers(2, 4), min_size=6, max_size=6)


@pytest.mark.filterwarnings("ignore:The balance properties of Sobol")
@settings(max_examples=20, deadline=None)
@given(variant=st.sampled_from(["default", "offset", "wrist"]),
       mode=st.sampled_from(["grid", "quasi"]), steps=_steps,
       samples=st.integers(1, 2000), seed=st.integers(0, 2**16),
       chunk=st.integers(1, 50), shell_fraction=st.floats(0.05, 1.0),
       workers=st.sampled_from([1, 2]))
# over the SVG's 20,000-point decimation: a stride of 2 against chunks of 7
# distinct points, each five rows long
@example(variant="default", mode="grid", steps=[7, 6, 6, 4, 4, 5],
         samples=1, seed=0, chunk=7, shell_fraction=0.98, workers=2)
@example(variant="offset", mode="quasi", steps=[2] * 6, samples=20_011,
         seed=5, chunk=1024, shell_fraction=0.98, workers=2)
@example(variant="default", mode="grid", steps=[3, 2, 4, 3, 4, 2],
         samples=1, seed=0, chunk=5, shell_fraction=0.98, workers=1)
def test_streamed_outputs_equal_the_whole_cloud_reference(
        arm: model.ArmDescription, variant: str, mode: str, steps: list,
        samples: int, seed: int, chunk: int, shell_fraction: float,
        workers: int) -> None:
    arm = _variant(arm, variant)
    args = ["--per-joint-steps", ",".join(map(str, steps)), "--mode", mode,
            "--samples", str(samples), "--seed", str(seed),
            "--shell-fraction", repr(shell_fraction)]
    with pytest.MonkeyPatch.context() as mp, \
            tempfile.TemporaryDirectory() as tmp:
        mp.setattr(kinematics, "SWEEP_CHUNK_ROWS", chunk)
        mp.setattr(cli, "_CSV_WORKERS", workers)
        mp.setattr(cli, "resolve_arm", lambda selector: (arm, "test"))
        out = Path(tmp)
        text = _cli(["workspace", *args, "--format", "csv",
                     "--out", str(out / "csv")])
        assert _cli(["reach", *args]) == text
        assert _cli(["workspace", *args, "--format", "svg",
                     "--out", str(out / "svg")]) == text
        csv = (out / "csv" / "workspace.csv").read_bytes()
        svg = (out / "svg" / "workspace.svg").read_text(encoding="utf-8")

        cloud = kinematics.sample_workspace(arm, steps, mode=mode,
                                            samples=samples, seed=seed)
    pts = cloud.points
    assert np.array_equal(pts, _full_cloud(arm, steps, mode, samples, seed))
    assert _printed_stats(text) == _whole_cloud_stats(pts, shell_fraction)
    assert csv == ("x_m,y_m,z_m\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in pts.tolist())).encode()
    assert svg == svgplot.workspace_svg(pts)


@settings(max_examples=30, deadline=None)
@given(variant=st.sampled_from(["default", "offset", "wrist"]),
       steps=st.lists(st.integers(2, 9), min_size=6, max_size=6),
       single=st.lists(st.booleans(), min_size=6, max_size=6))
@example(variant="default", steps=[9] * 6, single=[False] * 6)
def test_lattice_kernel_equals_fk_of_the_expanded_lattice(
        arm: model.ArmDescription, variant: str, steps: list,
        single: list) -> None:
    # an axis cut to one value stands for a sweep chunk's outer and
    # fixed joints
    arm = _variant(arm, variant)
    rows = model.dh_params(arm)
    axes = [ax[:1] if one else ax
            for ax, one in zip(_grid_axes(arm, steps), single)]
    got = _kernels.fk_lattice(rows, axes)
    want = _kernels.fk_points(rows, _lattice_rows(axes))
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("steps, chunk, sizes", [
    # the default grid: one q1 value per chunk, 25 x 25 x 5 x 5 points
    ((25, 25, 25, 5, 5, 5), 65_536, [15_625] * 25),
    # an innermost moving axis longer than a chunk is cut into ranges
    ((2, 2, 2, 2, 300, 2), 64, [64, 64, 64, 64, 44] * 16),
    ((3, 2, 2, 4, 5, 6), 9, [5] * 48),
    ((3, 2, 2, 4, 5, 6), 1, [1] * 240),
    ((2, 2, 2, 2, 2, 2), 65_536, [32]),
])
def test_grid_chunks_are_lattice_slices(
        arm: model.ArmDescription, monkeypatch: pytest.MonkeyPatch,
        steps: tuple, chunk: int, sizes: list) -> None:
    monkeypatch.setattr(kinematics, "SWEEP_CHUNK_ROWS", chunk)
    sweep = kinematics.WorkspaceSweep(arm, steps)
    parts = list(sweep.chunks())
    assert [len(p) for p in parts] == sizes
    # q6 cannot move the default arm's tool point: the sweep holds it at
    # its first value, the lower limit
    axes = _grid_axes(arm, steps[:5] + (1,))
    assert np.concatenate(parts).tobytes() == _kernels.fk_points(
        model.dh_params(arm), _lattice_rows(axes)).tobytes()


def test_a_tool_point_no_joint_moves_is_one_chunk_of_one_point(
        arm: model.ArmDescription) -> None:
    # no offsets and no twists: the tool point stays on the base z axis
    arm = dataclasses.replace(arm, dh=tuple(
        dataclasses.replace(row, a_prev=0.0, alpha_prev=0.0)
        for row in arm.dh))
    steps = (2, 3, 2, 2, 2, 2)
    sweep = kinematics.WorkspaceSweep(arm, steps)
    assert (sweep.samples, sweep.repeat) == (96, 96)
    parts = list(sweep.chunks())
    assert [len(p) for p in parts] == [1]
    assert np.array_equal(
        kinematics.sample_workspace(arm, steps).points,
        _full_cloud(arm, steps, "grid", None, 0))


def test_repeat_count_comes_from_the_dh_table(arm: model.ArmDescription) -> None:
    steps = (3, 3, 3, 4, 5, 6)
    for variant, repeat in (("default", 6), ("offset", 1), ("wrist", 30)):
        sweep = kinematics.WorkspaceSweep(_variant(arm, variant), steps)
        assert sweep.repeat == repeat, variant
    quasi = kinematics.WorkspaceSweep(arm, steps, mode="quasi", samples=99)
    assert quasi.repeat == 1


@pytest.mark.filterwarnings("ignore:The balance properties of Sobol")
@settings(max_examples=25, deadline=None)
@given(seed=st.one_of(st.sampled_from([0, 2**63 - 1, 2**64 + 1]),
                      st.integers(0, 2**80)),
       n=st.one_of(st.sampled_from([1, 2, 3, 65_535, 65_536, 65_537,
                                    131_073]), st.integers(0, 5000)))
@example(seed=0, n=131_073)
@example(seed=2**63 - 1, n=65_537)
@example(seed=2**64 + 1, n=65_535)
@example(seed=2**64 + 1, n=1)
def test_sobol_matches_scipy_byte_for_byte(seed: int, n: int) -> None:
    expected = qmc.Sobol(d=6, scramble=True, seed=seed).random(n)
    got = _kernels.ScrambledSobol(seed).random(n)
    assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**70),
       sizes=st.lists(st.integers(0, 3000), max_size=8))
@example(seed=0, sizes=[65_535, 1, 65_537])
def test_sobol_draw_does_not_depend_on_its_split(seed: int,
                                                 sizes: list) -> None:
    split = _kernels.ScrambledSobol(seed)
    parts = [split.random(m) for m in sizes]
    whole = _kernels.ScrambledSobol(seed).random(sum(sizes))
    assert np.concatenate([np.empty((0, 6)), *parts]).tobytes() == \
        whole.tobytes()


def test_sobol_stops_at_two_to_the_thirty() -> None:
    sob = _kernels.ScrambledSobol(0)
    sob._next = 2**30 - 1
    assert sob.random(1).shape == (1, 6)
    with pytest.raises(ValueError, match="2\\*\\*30"):
        sob.random(1)


@pytest.mark.parametrize("samples", [1000, 200_001])
def test_odd_quasi_counts_warn_once_at_the_caller(
        arm: model.ArmDescription, samples: int) -> None:
    sweep = kinematics.WorkspaceSweep(arm, (2,) * 6, mode="quasi",
                                      samples=samples)
    with pytest.warns(UserWarning, match="require n to be a power of 2") \
            as caught:
        for _ in sweep.chunks():
            pass
    assert [w.filename for w in caught] == [__file__]


@pytest.mark.parametrize("samples", [65_536, 262_144])
def test_power_of_two_quasi_counts_do_not_warn(
        arm: model.ArmDescription, samples: int) -> None:
    sweep = kinematics.WorkspaceSweep(arm, (2,) * 6, mode="quasi",
                                      samples=samples)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in sweep.chunks():
            pass


def test_negative_quasi_seed_is_refused_up_front(
        arm: model.ArmDescription) -> None:
    with pytest.raises(ComputationError, match="got -3"):
        kinematics.WorkspaceSweep(arm, (2,) * 6, mode="quasi", samples=8,
                                  seed=-3)
    assert kinematics.WorkspaceSweep(arm, (2,) * 6, seed=-3).samples == 64


_NO_SCIPY = """
import sys
from armkit import cli
assert cli.run(["reach", "--mode", "quasi", "--samples", "4096"]) == 0
assert cli.run(["workspace", "--mode", "quasi", "--samples", "5000",
                "--format", "csv", "--out", sys.argv[1]]) == 0
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"),
      file=sys.stderr)
"""


def test_quasi_runs_do_not_import_scipy(tmp_path: Path) -> None:
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(tmp_path)],
                           env=env, capture_output=True, text=True,
                           timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stderr.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "workspace.csv").stat().st_size > 0


# The peak RSS of this process image alone: ru_maxrss also counts the
# parent's RSS at the fork, so under a large test runner it reads the same
# for any run smaller than the runner.
_PEAK_HWM = """
import re, sys
from pathlib import Path
from armkit import cli, kinematics
kinematics.SWEEP_CHUNK_ROWS = 4096
code = cli.run(sys.argv[1:])
status = Path("/proc/self/status").read_text()
print(re.search(r"VmHWM:\\s*(\\d+) kB", status).group(1), file=sys.stderr)
sys.exit(code)
"""


def _csv_peaks_kib(tmp_path: Path, grids: tuple) -> list:
    """The peak RSS (KiB) of a child process writing the workspace CSV of
    each grid, in chunks of 4,096 distinct points."""
    peaks = []
    for steps in grids:
        child = subprocess.run(
            [sys.executable, "-c", _PEAK_HWM, "workspace", "--per-joint-steps",
             steps, "--format", "csv", "--out", str(tmp_path / steps)],
            capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        peaks.append(int(child.stderr.strip().splitlines()[-1]))
    return peaks


_NEEDS_PROC_STATUS = pytest.mark.skipif(
    not Path("/proc/self/status").exists(),
    reason="reads the peak RSS from /proc/self/status")


@_NEEDS_PROC_STATUS
def test_workspace_csv_peak_rss_does_not_grow_with_samples(
        tmp_path: Path) -> None:
    # both grids span several chunks; the larger has 8x the rows (640,000)
    small, large = _csv_peaks_kib(tmp_path, ("10,10,10,4,4,5",
                                             "20,20,20,4,4,5"))
    assert large <= small + 16 * 1024, f"peak RSS {small} -> {large} KiB"


@_NEEDS_PROC_STATUS
def test_workspace_csv_peak_rss_does_not_grow_with_the_repeat(
        tmp_path: Path) -> None:
    # q6 cannot move the tool point, so its steps repeat each line: the
    # same 16,384 distinct points in 4 chunks, each line written 5 or 60
    # times (983,040 rows)
    small, large = _csv_peaks_kib(tmp_path, ("4,4,4,16,16,5",
                                             "4,4,4,16,16,60"))
    assert large <= small + 16 * 1024, f"peak RSS {small} -> {large} KiB"


def _run_within(seconds: float, argv: list) -> int:
    """``cli.run(argv)`` on a thread of its own, which must end in time."""
    codes = []
    runner = threading.Thread(target=lambda: codes.append(cli.run(argv)),
                              daemon=True)
    runner.start()
    runner.join(timeout=seconds)
    assert not runner.is_alive(), f"cli.run {argv} hangs"
    return codes[0]


def test_csv_bytes_do_not_depend_on_thread_scheduling(
        arm: model.ArmDescription, capsys: pytest.CaptureFixture,
        monkeypatch: pytest.MonkeyPatch, tmp_path: Path) -> None:
    # more formatting threads than cores, switching every microsecond,
    # against one thread at the default interval; 24 chunks of 60 points
    monkeypatch.setattr(kinematics, "SWEEP_CHUNK_ROWS", 60)
    steps = "6,4,5,3,4,5"
    interval = sys.getswitchinterval()
    for workers, switch in ((1, interval), (4, 1e-6)):
        monkeypatch.setattr(cli, "_CSV_WORKERS", workers)
        sys.setswitchinterval(switch)
        try:
            assert _run_within(60, [
                "workspace", "--per-joint-steps", steps, "--format", "csv",
                "--out", str(tmp_path / str(workers))]) == 0
        finally:
            sys.setswitchinterval(interval)
    capsys.readouterr()
    cloud = kinematics.sample_workspace(
        arm, [int(s) for s in steps.split(",")])
    want = ("x_m,y_m,z_m\n" + "".join(",".join(map(repr, row)) + "\n"
                                      for row in cloud.points.tolist()))
    for workers in (1, 4):
        got = (tmp_path / str(workers) / "workspace.csv").read_text()
        assert got == want, workers


class _FullDisk:
    """A binary file whose writes fail with ENOSPC after ``room`` writes.

    The failing write takes a while first, so the formatting threads are
    ahead of the write when it fails."""

    def __init__(self, fh, room: int):
        self.fh, self.room = fh, room

    def write(self, data) -> int:
        self.room -= 1
        if self.room < 0:
            time.sleep(0.2)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.fh.close()


def _fail_on_call(fn, call: int, exc: Exception):
    """``fn``, except that call number ``call`` (from 0) raises ``exc``."""
    calls = itertools.count()

    def failing(*args, **kwargs):
        if next(calls) == call:
            raise exc
        return fn(*args, **kwargs)

    return failing


@pytest.mark.parametrize("stage, code", [
    ("writer", 7), ("formatter", 7), ("producer", 4)])
def test_a_failing_stream_stage_exits_cleanly(
        capsys: pytest.CaptureFixture, monkeypatch: pytest.MonkeyPatch,
        tmp_path: Path, stage: str, code: int) -> None:
    # 100 chunks of 160 distinct points, each five rows long
    monkeypatch.setattr(kinematics, "SWEEP_CHUNK_ROWS", 200)
    made = []  # one entry per chunk the sweep computes
    lattice = _kernels.fk_lattice
    monkeypatch.setattr(_kernels, "fk_lattice",
                        lambda *args: made.append(1) or lattice(*args))
    if stage == "writer":
        monkeypatch.setattr(cli, "open", lambda path, mode: _FullDisk(
            open(path, mode), room=5), raising=False)
    elif stage == "formatter":
        monkeypatch.setattr(cli, "_csv_part", _fail_on_call(
            cli._csv_part, 7, OSError(errno.EIO, "formatter failed")))
    else:
        monkeypatch.setattr(_kernels, "fk_lattice", _fail_on_call(
            _kernels.fk_lattice, 9, ComputationError("producer failed")))
    before = threading.active_count()
    rc = _run_within(60, ["workspace", "--per-joint-steps", "10,10,10,4,4,5",
                          "--format", "csv", "--out", str(tmp_path)])
    assert threading.active_count() == before
    out, err = capsys.readouterr()
    assert (rc, out) == (code, "")
    assert "Traceback" not in err
    assert err.startswith({7: "output error", 4: "computation error"}[code])
    assert not (tmp_path / cli.MANIFEST_NAME).exists()
    # the sweep stops at the failure, not at its end
    assert len(made) < 20


def test_a_failed_write_stops_the_formatting_threads(
        monkeypatch: pytest.MonkeyPatch, tmp_path: Path) -> None:
    # checked while the error, and so the failed write's frame with its
    # chunk generator, is still alive
    monkeypatch.setattr(cli, "open", lambda path, mode: _FullDisk(
        open(path, mode), room=2), raising=False)
    blocks = (np.full((4_000, 3), float(i)) for i in range(10))
    with pytest.raises(OutputError, match="No space left") as failed:
        cli._Outputs(str(tmp_path)).write("x.csv", cli._csv(None, blocks))
    assert not [t for t in threading.enumerate()
                if t.name.startswith("armkit-csv")], failed.value
