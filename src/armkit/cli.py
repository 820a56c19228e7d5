"""Command-line interface: every analysis as a subcommand.

Angles cross this boundary in degrees and are converted to radians
immediately; lengths are meters except where a flag says otherwise
(capstan geometry is entered in millimeters, matching how such hardware
is specified). Output files are only written when ``--out DIR`` is given:
``<subcommand>.txt`` (the stdout text) always, plus the ``--format csv|svg``
file where the subcommand has one. A ``manifest.json`` recording the
subcommand, arm source, seed, full argv, and the SHA-256 of every written
file lands next to them, and :func:`replay` re-executes a manifest's argv.

Exit codes (also in the README): 0 success, 2 usage, 3 arm-config,
4 computation, 5 resource limit, 6 BOM data, 7 output I/O.
"""

from __future__ import annotations

import argparse
import collections
import math
import os
import re
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

import numpy as np

from . import _kernels, drivetrain, kinematics, statics, steppersim
from ._version import __version__
from .errors import (
    BomDataError,
    ComputationError,
    ConfigError,
    OutputError,
    ResourceLimitError,
    fixed,
)
from .kinematics import (
    IKOptions,
    Pose,
    REFERENCE_NOMINAL_REACH_M,
    REFERENCE_RADIAL_REACH_M,
)
from .model import ENV_ARM_CONFIG, CapstanGeometry, resolve_arm

MANIFEST_SCHEMA = "armkit.run/1"
MANIFEST_NAME = "manifest.json"

EXIT_CODES = {
    "ok": 0,
    "usage": 2,
    "config": 3,
    "computation": 4,
    "resource": 5,
    "bom-data": 6,
    "output": 7,
}

class CliUsageError(Exception):
    """Flag combination or value the parser alone cannot reject."""


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------

def _floats(text: str, n: Optional[int], what: str) -> np.ndarray:
    try:
        vals = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise CliUsageError(f"{what}: expected comma-separated numbers, "
                            f"got {text!r}") from None
    if n is not None and vals.size != n:
        raise CliUsageError(f"{what}: expected {n} values, got {vals.size}")
    return vals


def _ints(text: str, n: Optional[int], what: str) -> Tuple[int, ...]:
    vals = _floats(text, n, what)
    if not np.all(np.isfinite(vals) & (vals == np.round(vals))):
        raise CliUsageError(f"{what}: expected integers, got {text!r}")
    return tuple(int(v) for v in vals)


def _rpy_matrix(rpy_deg: np.ndarray) -> np.ndarray:
    """ZYX convention: R = Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    r, p, y = (math.radians(v) for v in rpy_deg)
    cr, sr = math.cos(r), math.sin(r)
    cp, sp = math.cos(p), math.sin(p)
    cy, sy = math.cos(y), math.sin(y)
    rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1.0]])
    ry = np.array([[cp, 0, sp], [0, 1.0, 0], [-sp, 0, cp]])
    rx = np.array([[1.0, 0, 0], [0, cr, -sr], [0, sr, cr]])
    return rz @ ry @ rx


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v.replace(",", ";")
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def _csv(header: Optional[str], rows, repeat: int = 1) -> Iterator[bytes]:
    """Render one CSV table as UTF-8 chunks; every CSV file the CLI writes
    comes from here.

    ``header`` is the first line (None: no header). ``rows`` is a list of
    rows of cells: None -> empty, str -> ``,`` replaced by ``;``, int ->
    decimal, anything else -> ``repr(float(v))``. Or it is an iterable of
    float ndarrays (a streamed workspace sweep), formatted by
    :func:`_csv_stream` with each row's line written ``repeat`` times, so a
    cloud is never held as text all at once.
    """
    if header is not None:
        yield (header + "\n").encode()
    if isinstance(rows, list):
        yield "".join(",".join(map(_cell, row)) + "\n" for row in rows).encode()
    else:
        yield from _csv_stream(rows, repeat)


#: Lines per part of CSV text, once repeated; bounds the formatting's
#: working memory, of which a streamed CSV has a few parts' worth at once.
#: On the 2-core host, the default-grid run peaked at about 60 MB with
#: 32,768 lines per part and at 75-78 MB with 65,536, at the same speed.
_CSV_CHUNK_LINES = 32_768

#: Threads that format a streamed CSV, and so the most parts in formatting
#: at once.
_CSV_WORKERS = 2


def _csv_part(rows: np.ndarray, repeat: int) -> bytes:
    """The lines of a 2-D float array, ``repr`` of each value, each line
    ``repeat`` times.

    Each distinct value (bit pattern, so -0.0 is not 0.0) is formatted once
    by :func:`_kernels.repr_bytes`. A line is its cells' NUL-padded bytes
    with a separator after each, and dropping the NULs packs the lines, so
    the text does not depend on how the rows are sliced.
    """
    bits = np.ascontiguousarray(rows, dtype=np.float64).view(np.uint64)
    distinct, inverse = np.unique(bits.reshape(-1), return_inverse=True)
    text = _kernels.repr_bytes(distinct.view(np.float64))
    n, cols = bits.shape
    width = text.dtype.itemsize
    lines = np.empty((n, cols, width + 1), np.uint8)
    lines[:, :, :width] = text.take(inverse).view(np.uint8).reshape(
        n, cols, width)
    lines[:, :, width] = np.frombuffer(b"," * (cols - 1) + b"\n", np.uint8)
    part = np.repeat(lines.reshape(n, cols * (width + 1)), repeat, axis=0)
    return part[part != 0].tobytes()


def _csv_stream(blocks, repeat: int) -> Iterator[bytes]:
    """:func:`_csv_part` of each of ``blocks``, in order, cut into parts of
    rows whose lines, each written ``repeat`` times, make at most
    :data:`_CSV_CHUNK_LINES` lines (one row if its line alone makes more).

    The parts are formatted on :data:`_CSV_WORKERS` threads, at most that
    many at once, while the caller writes the part before them and this
    generator makes the next one; the formatting is numpy work that
    releases the GIL. Closing the generator waits for the parts in
    formatting.
    """
    from concurrent.futures import ThreadPoolExecutor

    step = max(1, _CSV_CHUNK_LINES // repeat)
    window: collections.deque = collections.deque()
    with ThreadPoolExecutor(_CSV_WORKERS,
                            thread_name_prefix="armkit-csv") as pool:
        for block in blocks:
            for start in range(0, len(block), step):
                window.append(pool.submit(_csv_part, block[start:start + step],
                                          repeat))
                if len(window) > _CSV_WORKERS:
                    yield window.popleft().result()
        while window:
            yield window.popleft().result()


class _Outputs:
    """Collects output files for one run and records their hashes. The
    directory is created by the first write, so a run that fails before
    writing anything leaves none behind."""

    def __init__(self, directory: str):
        self.dir = Path(directory)
        self.records: List[dict] = []

    def write(self, name: str, content) -> None:
        """Write ``content``, text or a generator of UTF-8 chunks, to
        ``name``, hashing each chunk as it goes out. The generator is closed
        however the write ends, which stops a streamed CSV's formatting
        threads."""
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise OutputError(f"cannot create output dir {self.dir}: {exc}")
        import hashlib

        digest = hashlib.sha256()
        try:
            with open(self.dir / name, "wb") as fh:
                for chunk in ((content.encode("utf-8"),)
                              if isinstance(content, str) else content):
                    digest.update(chunk)
                    fh.write(chunk)
        except OSError as exc:
            raise OutputError(f"cannot write {self.dir / name}: {exc}")
        finally:
            if not isinstance(content, str):
                content.close()
        self.records.append({"path": name, "sha256": digest.hexdigest()})

    def write_manifest(self, subcommand: str, arm_source: str, seed: int,
                       argv: List[str]) -> None:
        import json

        text_name = _stem(subcommand) + ".txt"
        doc = {
            "schema": MANIFEST_SCHEMA,
            "toolkit_version": __version__,
            "subcommand": subcommand,
            "arm_config": arm_source,
            "seed": seed,
            "argv": list(argv),
            # the stdout copy first, whichever file was written first
            "outputs": sorted(self.records,
                              key=lambda r: r["path"] != text_name),
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        try:
            (self.dir / MANIFEST_NAME).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise OutputError(f"cannot write manifest: {exc}")


def _stem(subcommand: str) -> str:
    """Name stem of a subcommand's output files."""
    return subcommand.replace("-", "_")


# --------------------------------------------------------------------------
# subcommand handlers: ``(args, arm) -> (stdout lines, artifacts)``, where
# ``artifacts`` maps a --format to a zero-argument callable returning the
# file's content; run() calls it only when that file is written, and names
# the file by the subcommand's table row. run() reads the lines after
# writing the artifact, so a handler may return a generator: the workspace
# CSV streams the sweep its lines sum up.
# --------------------------------------------------------------------------

def _vec(values) -> str:
    """Floats as ``repr`` joined by spaces."""
    return " ".join(repr(float(v)) for v in values)


def _handle_fk(args, arm):
    q = np.radians(_floats(args.q, 6, "--q"))
    pose = kinematics.forward_kinematics(arm, q)
    lines = [f"q_deg: {args.q}",
             "position_m: " + _vec(pose.position),
             "rotation:"]
    for row in pose.orientation:
        lines.append("  " + _vec(row))
    return lines, {"csv": lambda: _csv("x_m,y_m,z_m", [pose.position])}


def _handle_ik(args, arm):
    target = Pose(position=_floats(args.target, 3, "--target"),
                  orientation=_rpy_matrix(_floats(args.rpy, 3, "--rpy")))
    q0 = (np.radians(_floats(args.q0, 6, "--q0")) if args.q0
          else np.zeros(6))
    q = kinematics.inverse_kinematics(arm, target, q0,
                                      IKOptions(max_iters=args.max_iters))
    reached = kinematics.forward_kinematics(arm, q)
    err = float(np.linalg.norm(reached.position - target.position))
    q_deg = np.degrees(q)
    return [
        "q_deg: " + _vec(q_deg),
        "position_m: " + _vec(reached.position),
        f"position_error_m: {err!r}",
    ], {"csv": lambda: _csv("q1_deg,q2_deg,q3_deg,q4_deg,q5_deg,q6_deg",
                            [q_deg])}


def _handle_jacobian(args, arm):
    q = np.radians(_floats(args.q, 6, "--q"))
    J = kinematics.jacobian(arm, q)
    lines = [f"q_deg: {args.q}",
             "jacobian (rows: vx vy vz wx wy wz; columns: joints 1-6):"]
    for row in J:
        lines.append("  " + _vec(row))
    return lines, {"csv": lambda: _csv(None, list(J))}


def _sweep(args, arm):
    """The requested workspace sweep and its still empty statistics."""
    steps = _ints(args.per_joint_steps, 6, "--per-joint-steps")
    sweep = kinematics.WorkspaceSweep(arm, steps, mode=args.mode,
                                      samples=args.samples, seed=args.seed)
    return sweep, kinematics.CloudStats(args.shell_fraction)


def _walk(sweep, stats, picks: list):
    """Yield the sweep's chunks, folding each into ``stats`` and appending
    the rows ``svgplot.workspace_svg`` would keep of the whole cloud to
    ``picks``."""
    from . import svgplot

    stride = svgplot.decimation_stride(sweep.samples)
    start = 0
    for pts in sweep.chunks():
        stats.add(pts, sweep.repeat)
        stop = start + len(pts)
        first = -(-start * sweep.repeat // stride) * stride
        rows = np.arange(first, stop * sweep.repeat, stride)
        picks.append(pts[rows // sweep.repeat - start])
        start = stop
        yield pts


def _reach_lines(args, sweep, stats) -> List[str]:
    """The workspace/reach summary of a walked sweep."""
    radial = stats.max_radial
    recipe = (f"grid steps={','.join(map(str, sweep.per_joint_steps))}"
              if sweep.mode == "grid" else f"quasi seed={sweep.seed}")

    def percent(reference: float) -> str:
        text = fixed(100.0 * (radial / reference - 1.0), 1)
        return text if text.startswith("-") else "+" + text

    return [
        f"samples: {sweep.samples} ({recipe})",
        f"max_reach_m: {stats.max_reach!r}",
        f"max_radial_reach_m: {radial!r}",
        f"min_z_m: {stats.min_z!r}",
        f"below_base_fraction: {stats.below_base_fraction()!r}",
        f"azimuth_span_deg (outer shell >= {args.shell_fraction:g} of max "
        f"radial): {stats.azimuth_span()!r}",
        f"note: the recorded reach figures disagree with each other "
        f"(nominal {REFERENCE_NOMINAL_REACH_M} m vs {REFERENCE_RADIAL_REACH_M} m "
        f"quoted with the payload test); computed max radial "
        f"{fixed(radial, 5)} m is {percent(REFERENCE_NOMINAL_REACH_M)}% of "
        f"the former and {percent(REFERENCE_RADIAL_REACH_M)}% of the latter.",
    ]


def _handle_workspace(args, arm):
    sweep, stats = _sweep(args, arm)
    picks: list = []
    chunks = _walk(sweep, stats, picks)

    def lines():
        collections.deque(chunks, maxlen=0)  # walk what no artifact streamed
        yield from _reach_lines(args, sweep, stats)

    def svg():
        from . import svgplot

        collections.deque(chunks, maxlen=0)
        return svgplot.workspace_svg(np.concatenate(picks))

    return lines(), {
        "csv": lambda: _csv("x_m,y_m,z_m", chunks, sweep.repeat),
        "svg": svg,
    }


def _handle_reach(args, arm):
    sweep, stats = _sweep(args, arm)
    collections.deque(_walk(sweep, stats, []), maxlen=0)
    return _reach_lines(args, sweep, stats), {"csv": lambda: _csv(
        "metric,value", [
            ("max_reach_m", stats.max_reach),
            ("max_radial_reach_m", stats.max_radial),
            ("nominal_reference_m", REFERENCE_NOMINAL_REACH_M),
            ("radial_reference_m", REFERENCE_RADIAL_REACH_M)])}


def _handle_capstan(args, arm):
    geom = CapstanGeometry(sheave_diameter=args.small_diameter * 1e-3,
                           pulley_diameter=args.large_diameter * 1e-3,
                           cable_thickness=args.cable_thickness * 1e-3,
                           tolerance=args.tolerance * 1e-3,
                           mode=args.mode)
    gamma = drivetrain.capstan_reduction(geom)
    windings = drivetrain.windings_required(gamma, args.output_range)
    height_mm = drivetrain.sheave_height(geom, gamma) * 1e3
    spacing_mm = drivetrain.sheave_spacing(geom.cable_thickness) * 1e3
    for what, mm in (("sheave height", height_mm),
                     ("groove spacing", spacing_mm)):
        if not math.isfinite(mm):
            raise ComputationError(
                f"{what} overflows a float at --cable-thickness "
                f"{args.cable_thickness:g} mm (reduction {gamma!r}, "
                f"--tolerance {args.tolerance:g} mm)")
    return [
        f"mode: {args.mode}",
        f"reduction_ratio: {gamma!r}",
        f"windings_for_{args.output_range:g}_deg: {windings!r}",
        f"sheave_height_mm: {height_mm!r}",
        f"groove_spacing_mm: {spacing_mm!r}",
    ], {"csv": lambda: _csv(
        "metric,value", [("reduction_ratio", gamma),
                         ("windings", windings),
                         ("sheave_height_mm", height_mm),
                         ("groove_spacing_mm", spacing_mm)])}


def _handle_torque_table(args, arm):
    rows = drivetrain.torque_table(arm)
    header = (f"{'joint':>5} {'motor':<14} {'mechanism':<16} "
              f"{'reduction':>9} {'holding':>8} {'max_torque':>10} "
              f"{'listed':>8}  note")
    lines = [header]
    for r in rows:
        listed = "" if r.listed_max_torque is None else f"{r.listed_max_torque:g}"
        lines.append(
            f"{r.joint_index:>5} {r.motor:<14} {r.mechanism:<16} "
            f"{fixed(r.total_reduction, 4, 9)} {fixed(r.holding_torque, 3, 8)} "
            f"{fixed(r.max_joint_torque, 5, 10)} {listed:>8}  "
            f"{r.annotation or ''}"
        )
    return lines, {"csv": lambda: _csv(
        "joint,motor,mechanism,total_reduction,holding_torque_nm,"
        "max_joint_torque_nm,listed_max_torque_nm,annotation",
        [(r.joint_index, r.motor, r.mechanism, r.total_reduction,
          r.holding_torque, r.max_joint_torque, r.listed_max_torque,
          r.annotation) for r in rows])}


def _handle_resolution(args, arm):
    rows = drivetrain.resolution_table(arm)
    lines = [f"{'joint':>5} {'reduction':>9} {'deg_per_microstep':>18}"]
    for j, red, deg in rows:
        lines.append(f"{j:>5} {fixed(red, 4, 9)} {fixed(deg, 6, 18)}")
    return lines, {"csv": lambda: _csv(
        "joint,total_reduction,deg_per_microstep", rows)}


def _handle_payload(args, arm):
    sweep_joints = _ints(args.sweep_joints, None, "--sweep-joints")
    limit_joints = _ints(args.limit_joints, None, "--limit-joints")
    if args.policy == "fixed":
        if not args.q:
            raise CliUsageError("--policy fixed requires --q")
        q = np.radians(_floats(args.q, 6, "--q"))
        report = statics.static_report(arm, q, payload=args.payload_kg)
        if not np.all(np.isfinite(report.required)):
            raise ComputationError(
                f"required joint torque overflows a float at "
                f"--payload-kg {args.payload_kg:g}")
        result = statics.max_payload(arm, q, constraint_joints=limit_joints)
        lines = [f"pose_deg: {args.q}", f"payload_kg: {args.payload_kg:g}",
                 f"{'joint':>5} {'required':>10} {'available':>10} "
                 f"{'utilization':>11}"]
        for j in range(6):
            lines.append(f"{j + 1:>5} {fixed(report.required[j], 5, 10)} "
                         f"{fixed(report.available[j], 5, 10)} "
                         f"{fixed(report.utilization[j], 5, 11)}")
        lines.append(f"limiting_joint: {report.limiting_joint}")
        lines.append(f"max_payload_kg_at_pose: {result.mass!r} "
                     f"(limiting joint {result.limiting_joint}, "
                     f"utilization {fixed(result.utilization, 5)})")
        return lines, {}

    result = statics.max_payload(arm, "worst_case_sweep",
                                 grid_deg=args.grid_deg,
                                 sweep_joints=sweep_joints,
                                 constraint_joints=limit_joints)
    pose_deg = ",".join(f"{math.degrees(v):g}" for v in result.pose)
    lines = [
        f"policy: worst_case_sweep (grid {args.grid_deg:g} deg over "
        f"joints {','.join(map(str, sweep_joints))}, others at 0; "
        f"budgets checked on joints "
        f"{','.join(map(str, limit_joints))})",
        f"max_payload_kg: {result.mass!r}",
        f"limiting_joint: {result.limiting_joint}",
        f"limiting_utilization: {result.utilization!r}",
        f"binding_pose_deg: {pose_deg}",
    ]

    def sweep_csv():
        poses, caps, limiting = statics.sweep_payload_caps(
            arm, grid_deg=args.grid_deg, sweep_joints=sweep_joints,
            constraint_joints=limit_joints)
        return _csv(
            "q1_deg,q2_deg,q3_deg,q4_deg,q5_deg,q6_deg,cap_kg,limiting_joint",
            [(*p, c, lj) for p, c, lj in zip(np.degrees(poses).tolist(),
                                             caps.tolist(), limiting.tolist())])

    return lines, {"csv": sweep_csv}


def _handle_repeat_sim(args, arm):
    speeds = _floats(args.speeds, None, "--speeds")
    if (args.sigma0_mm is None) != (args.k_mm_s_per_step is None):
        raise CliUsageError("--sigma0-mm and --k-mm-s-per-step go together")
    if args.sigma0_mm is not None:
        noise = steppersim.NoiseModel(sigma0=args.sigma0_mm * 1e-3,
                                      k=args.k_mm_s_per_step * 1e-3)
    else:
        noise = steppersim.default_noise()
    probe = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0),
             "z": (0.0, 0.0, 1.0), "norm": None}[args.probe]
    result = steppersim.repeatability_experiment(
        arm, speeds=tuple(float(s) for s in speeds),
        cycles_per_speed=args.cycles, noise=noise, seed=args.seed,
        payload=args.payload_kg, probe=probe)
    lines = [
        f"noise: sigma0={noise.sigma0 * 1e3:g} mm, "
        f"k={noise.k * 1e3:g} mm per step/s (calibrated anchors, "
        f"not independent predictions)",
        f"cycles_per_speed: {args.cycles}  seed: {args.seed}",
        f"{'speed':>8} {'std_mm':>12}",
    ]
    for speed, std in zip(result.speeds, result.stds):
        lines.append(f"{speed:>8g} {fixed(std * 1e3, 6, 12)}")
    lines.append(f"grand_mean_abs_deviation_mm: {result.grand_mean * 1e3!r}")

    def svg():
        from . import svgplot

        return svgplot.box_plot_svg(
            [f"{s:g}" for s in result.speeds],
            [d * 1e3 for d in result.deviations], "deviation (mm)")

    return lines, {
        "csv": lambda: _csv(
            "speed_steps_per_s,cycle,deviation_mm",
            [(speed, ci, d * 1e3)
             for speed, devs in zip(result.speeds, result.deviations)
             for ci, d in enumerate(devs.tolist())]),
        "svg": svg,
    }


def _handle_bom(args, arm):
    from . import bom as bom_mod

    if args.file:
        bill = bom_mod.load_bom(args.file, batch_size=args.batch)
    else:
        bill = bom_mod.default_bom()
        if args.batch != bill.batch_size:
            bill = bom_mod.BillOfMaterials(lines=bill.lines,
                                           batch_size=args.batch)
    total = bom_mod.format_usd(bom_mod.batch_total(bill))
    per_arm = bom_mod.format_usd(bom_mod.per_arm_cost(bill))
    fil = bom_mod.filament_report(bill)
    cable = bom_mod.cable_budget(bom_mod.CABLE_LENGTHS_MM, bill.batch_size)
    subtotals = [(cat, bom_mod.format_usd(sub))
                 for cat, sub in bom_mod.category_subtotals(bill).items()]

    lines = [f"{cat}: ${sub}" for cat, sub in subtotals]
    lines.append(f"batch_total_usd ({bill.batch_size} arms): {total}")
    lines.append(f"per_arm_usd: {per_arm}")
    spool_note = ""
    if fil.mismatch:
        spool_note = (f" -- parts list orders {fil.listed_spools}, "
                      f"short of the ceiling rule")
    lines.append(
        f"filament: {bom_mod.FILAMENT_GRAMS_PER_ARM:g} g/arm x {fil.batch} "
        f"arms -> {fil.computed_spools} x {bom_mod.SPOOL_GRAMS:g} g spools"
        f"{spool_note}")
    ft = float(cable.total_ft)
    lines.append(
        f"cable: {','.join(f'{v:g}' for v in bom_mod.CABLE_LENGTHS_MM)} mm "
        f"per arm x {bill.batch_size} -> {float(cable.total_mm):g} mm "
        f"({fixed(ft, 3)} ft)")
    return lines, {"csv": lambda: _csv(
        "category,subtotal_usd",
        subtotals + [("batch_total", total), ("per_arm", per_arm)])}


#: A subcommand's handler, whether it loads an arm, whether it has a
#: --format svg file, and the stem of its --format file where that is not
#: the stem of its text.
_Command = collections.namedtuple("_Command", "handler loads_arm can_plot "
                                  "artifact", defaults=(True, False, ""))


_COMMANDS = {
    "fk": _Command(_handle_fk),
    "ik": _Command(_handle_ik),
    "jacobian": _Command(_handle_jacobian),
    "workspace": _Command(_handle_workspace, can_plot=True),
    "reach": _Command(_handle_reach),
    "capstan": _Command(_handle_capstan, loads_arm=False),
    "torque-table": _Command(_handle_torque_table),
    "resolution": _Command(_handle_resolution),
    "payload": _Command(_handle_payload, artifact="payload_sweep"),
    "repeat-sim": _Command(_handle_repeat_sim, can_plot=True),
    "bom": _Command(_handle_bom, loads_arm=False),
}

SUBCOMMANDS = tuple(_COMMANDS)


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

#: A word that starts like a negative number. No option of this CLI does.
_NEGATIVE = re.compile(r"-\.?\d")


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes a negative comma list as a value.

    argparse reads a word that starts with ``-`` as an option unless it is
    one plain number, so ``--q -10,0,0,0,0,0`` would fail with "expected one
    argument". This parser joins such a word to the one-value option before
    it, as ``--q=-10,0,0,0,0,0``, which argparse does read. Subparsers are
    of the same class, so every subcommand's options are covered.
    """

    def __init__(self, *args, **kwargs):
        self._one_value = set()  # option strings that take exactly one value
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.nargs is None:
            self._one_value.update(action.option_strings)
        return action

    def parse_known_args(self, args=None, namespace=None):
        joined = []
        for word in sys.argv[1:] if args is None else args:
            if joined and joined[-1] in self._one_value \
                    and _NEGATIVE.match(word):
                joined[-1] += "=" + word
            else:
                joined.append(word)
        return super().parse_known_args(joined, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="armkit",
        description="Design and analysis toolkit for a 6-DoF cable/capstan "
                    "driven desktop arm.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                metavar="{" + ",".join(SUBCOMMANDS) + "}")

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_, description=help_)
        sp.add_argument("--arm", metavar="PATH", default=None,
                        help="arm description YAML (default: "
                             f"${ENV_ARM_CONFIG} or the built-in arm)")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for stochastic steps (default 0)")
        sp.add_argument("--out", metavar="DIR", default=None,
                        help="write output files and manifest.json here "
                             "(default: stdout only)")
        sp.add_argument("--format", choices=("text", "csv", "svg"),
                        default="text",
                        help="artifact format when --out is given")
        return sp

    sp = add("fk", "forward kinematics of one joint vector")
    sp.add_argument("--q", required=True, metavar="D1,...,D6",
                    help="joint angles, degrees")

    sp = add("ik", "inverse kinematics to a position + roll/pitch/yaw target")
    sp.add_argument("--target", required=True, metavar="X,Y,Z",
                    help="tool position target, meters")
    sp.add_argument("--rpy", required=True, metavar="R,P,Y",
                    help="tool orientation target, ZYX roll/pitch/yaw degrees")
    sp.add_argument("--q0", default=None, metavar="D1,...,D6",
                    help="starting joint angles, degrees (default zeros); "
                         "the exact solution nearest them answers")
    sp.add_argument("--max-iters", type=int, default=200,
                    help="iterations per attempt (default 200)")

    sp = add("jacobian", "geometric Jacobian at one joint vector")
    sp.add_argument("--q", required=True, metavar="D1,...,D6",
                    help="joint angles, degrees")

    for name, help_ in (("workspace",
                         "sample the reachable workspace and report metrics"),
                        ("reach", "reach metrics of a workspace sweep")):
        sp = add(name, help_)
        sp.add_argument("--per-joint-steps", default="25,25,25,5,5,5",
                        metavar="N1,...,N6",
                        help="grid steps per joint (default 25,25,25,5,5,5 "
                             "= 1953125 samples)")
        sp.add_argument("--mode", choices=("grid", "quasi"), default="grid",
                        help="sampling mode (default grid)")
        sp.add_argument("--samples", type=int, default=None,
                        help="sample count for quasi mode")
        sp.add_argument("--shell-fraction", type=float,
                        default=kinematics.DEFAULT_SHELL_FRACTION,
                        help="outer-shell cut for the azimuth span "
                             "(default %(default)s)")

    sp = add("capstan", "capstan stage design numbers from diameters")
    sp.add_argument("--small-diameter", type=float, required=True,
                    metavar="MM", help="driven sheave diameter, mm")
    sp.add_argument("--large-diameter", type=float, required=True,
                    metavar="MM", help="output pulley diameter, mm")
    sp.add_argument("--mode", choices=("rotating", "stationary"),
                    default="rotating",
                    help="pulley rotates with the output (rotating) or is "
                         "fixed while the sheave orbits (stationary)")
    sp.add_argument("--cable-thickness", type=float, default=1.0,
                    metavar="MM", help="cable thickness, mm (default 1.0)")
    sp.add_argument("--tolerance", type=float, default=2.0, metavar="MM",
                    help="sheave height clearance, mm (default 2.0)")
    sp.add_argument("--output-range", type=float, default=360.0,
                    metavar="DEG",
                    help="output travel for the winding count (default 360)")

    add("torque-table", "per-joint reduction and torque budget table")
    add("resolution", "degrees per microstep for every joint")

    sp = add("payload", "static payload capacity against the torque budget")
    sp.add_argument("--policy", choices=("worst", "fixed"), default="worst",
                    help="worst-case sweep (default) or a fixed pose")
    sp.add_argument("--q", default=None, metavar="D1,...,D6",
                    help="pose for --policy fixed, degrees")
    sp.add_argument("--payload-kg", type=float, default=0.0,
                    help="payload for the fixed-pose load report (default 0)")
    sp.add_argument("--grid-deg", type=float, default=statics.SWEEP_GRID_DEG,
                    help="sweep grid pitch, degrees (default %(default)s)")
    sp.add_argument("--sweep-joints", default="2,3,5", metavar="J,...",
                    help="joints swept in the worst-case search "
                         "(default 2,3,5)")
    sp.add_argument("--limit-joints", default="1,2,3,4,5,6", metavar="J,...",
                    help="joints whose torque budgets constrain the answer "
                         "(default all six; 2,3 isolates the shoulder/elbow "
                         "budget as a diagnostic)")

    sp = add("repeat-sim", "Monte-Carlo repeatability experiment")
    sp.add_argument("--speeds", default="500,1000,1500,2000,2500",
                    metavar="S1,...", help="motor step rates, steps/s")
    sp.add_argument("--cycles", type=int, default=10,
                    help="motion cycles per speed (default 10)")
    sp.add_argument("--sigma0-mm", type=float, default=None,
                    help="jitter std at zero rate, mm (default: calibrated)")
    sp.add_argument("--k-mm-s-per-step", type=float, default=None,
                    help="jitter std slope, mm per step/s "
                         "(default: calibrated)")
    sp.add_argument("--payload-kg", type=float, default=0.0,
                    help="carried payload, kg (default 0)")
    sp.add_argument("--probe", choices=("x", "y", "z", "norm"), default="x",
                    help="deviation measurement axis (default x, like a "
                         "dial indicator; norm = 3D distance)")

    sp = add("bom", "bill-of-materials rollup")
    sp.add_argument("--file", default=None, metavar="PATH",
                    help="BOM CSV (default: the shipped parts list)")
    sp.add_argument("--batch", type=int, default=25,
                    help="arms the quantities cover (default 25)")

    return parser


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------

def run(argv: Optional[List[str]] = None) -> int:
    """Execute one CLI invocation; returns the exit code (never raises)."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else EXIT_CODES["usage"]

    try:
        command = _COMMANDS[args.subcommand]
        if args.format == "svg" and not command.can_plot:
            raise CliUsageError(
                "--format svg is only available for " + ", ".join(
                    name for name, c in _COMMANDS.items() if c.can_plot))
        arm = None
        arm_source = "n/a"
        if command.loads_arm:
            arm, arm_source = resolve_arm(args.arm)
        out = _Outputs(args.out) if args.out else None
        stem = _stem(args.subcommand)
        # an overflow or NaN is refused where it matters, by a finite check
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            lines, artifacts = command.handler(args, arm)
            # files land before stdout, so a failed artifact prints nothing
            if out is not None and args.format in artifacts:
                out.write(f"{command.artifact or stem}.{args.format}",
                          artifacts[args.format]())
            text = "".join(line + "\n" for line in lines)
        if out is not None:
            out.write(stem + ".txt", text)
        sys.stdout.write(text)
        if out is not None:
            out.write_manifest(args.subcommand, arm_source, args.seed, argv)
        return EXIT_CODES["ok"]
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES["usage"]
    except ConfigError as exc:
        print(f"arm config error: {exc}", file=sys.stderr)
        return EXIT_CODES["config"]
    except BomDataError as exc:
        print(f"BOM data error: {exc}", file=sys.stderr)
        return EXIT_CODES["bom-data"]
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_CODES["resource"]
    except (OutputError, OSError) as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CODES["output"]
    except (ComputationError, ValueError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_CODES["computation"]


def replay(manifest_path, out_dir: Optional[str] = None) -> int:
    """Re-run a recorded manifest's argv and return its exit code; it
    compares no hashes.

    Args:
        manifest_path: path to a ``manifest.json`` written by :func:`run`.
        out_dir: redirect outputs (defaults to the manifest's own --out).
    """
    import json

    with open(manifest_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != MANIFEST_SCHEMA:
        raise ConfigError(f"unrecognized manifest schema {doc.get('schema')!r}")
    argv = list(doc["argv"])
    if out_dir is not None:
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(out_dir)
        else:
            argv += ["--out", str(out_dir)]
    return run(argv)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
