"""Span recorder for the traced run, applied from outside ``armkit``.

:meth:`Recorder.install` replaces every module binding of each function in
:data:`TIMED` (``fk_frames`` is also bound as ``statics.fk_frames`` and
``steppersim.fk_frames``; ``armkit/__init__`` re-exports most names) with a
wrapper that records a span. Spans nest by parent: each call's self time is
its duration minus the time of the spans it caused. Per-pose leaf calls are
not kept one by one; they are aggregated per (parent, name) into a call
count, total time, self time and error count, kept in memory and written
out once by the process that recorded them.

The source tree is never edited; :meth:`Recorder.uninstall` restores every
binding so untraced passes in the same process run the original code.
"""

from __future__ import annotations

import functools
import os
import resource
import sys
from typing import Callable, Dict, List, Tuple

from harness import clock

#: Public functions timed per module (methods as ``Class.method``).
TIMED: Dict[str, Tuple[str, ...]] = {
    "armkit.model": ("default_arm",),
    "armkit._kernels": ("fk_points",),
    "armkit.kinematics": ("fk_frames", "forward_kinematics", "jacobian",
                          "inverse_kinematics", "sample_workspace",
                          "max_reach", "azimuth_span", "below_base_fraction"),
    "armkit.statics": ("gravity_torques", "available_torques", "static_report",
                       "sweep_poses", "max_payload", "sweep_payload_caps"),
    "armkit.drivetrain": ("available_joint_torque", "microstep_sizes"),
    "armkit.steppersim": ("simulate_cycle", "repeatability_experiment"),
    "armkit.cli": ("run", "_Outputs.write", "_Outputs.write_manifest"),
}

#: Name of the pseudo-span that covers ``import armkit`` in a traced process.
IMPORT_SPAN = "import armkit"
#: Pseudo-span of a traced CLI process outside armkit: interpreter start-up
#: before ``import armkit`` plus interpreter exit after the CLI returned.
PROCESS_SPAN = "interpreter start-up and exit"


class Recorder:
    """In-memory span aggregate for one process."""

    def __init__(self) -> None:
        self._stack: List[list] = []  # [name, child seconds] per open span
        # (parent, name) -> [calls, total s, self s, errors]
        self.agg: Dict[Tuple[str, str], list] = {}
        self.counters: Dict[str, float] = {}
        self._patches: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def add(self, name: str, seconds: float) -> None:
        """Record a top-level span measured by the caller."""
        self._close("", name, seconds, seconds, False)

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def _close(self, parent, name, dur, self_s, failed) -> None:
        a = self.agg.get((parent, name))
        if a is None:
            a = self.agg[(parent, name)] = [0, 0.0, 0.0, 0]
        a[0] += 1
        a[1] += dur
        a[2] += self_s
        a[3] += failed

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        counters = _COUNTERS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            failed = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                dur = clock() - t0
                stack.pop()
                parent = ""
                if stack:
                    stack[-1][1] += dur
                    parent = stack[-1][0]
                self._close(parent, name, dur, dur - frame[1], failed)
                if counters is not None and not failed:
                    counters(self, args, result)

        if name == "sample_workspace":
            return _peak_memory(self, span)
        return span

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every :data:`TIMED` function."""
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None
                  and (n == "armkit" or n.startswith("armkit."))]
        for mod_name, names in TIMED.items():
            mod = sys.modules[mod_name]
            for qual in names:
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(mod, cls_name)
                    orig = owner.__dict__[attr]
                    self._patch(owner, attr, orig, self.wrap(attr, orig))
                    continue
                orig = getattr(mod, qual)
                wrapped = self.wrap(qual, orig)
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, attr, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def snapshot(self) -> dict:
        """JSON-ready aggregate: one row per (parent, name)."""
        return {
            "spans": [[p, n, *v] for (p, n), v in sorted(self.agg.items())],
            "counters": dict(self.counters),
        }


def _peak_memory(rec: Recorder, span: Callable) -> Callable:
    """Record how far ``span`` raises the process's peak resident set.

    The peak-RSS rise covers numpy buffers as they are touched and costs
    nothing per allocation. (tracemalloc slowed the lazy ``scipy.stats``
    import inside quasi sampling about eightfold, which would distort the
    span times recorded in the same run.)
    """

    @functools.wraps(span)
    def measured(*args, **kwargs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        try:
            return span(*args, **kwargs)
        finally:
            rise = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    - before) * 1024
            cur = rec.counters.get("sample_workspace.peak_bytes", 0.0)
            rec.counters["sample_workspace.peak_bytes"] = max(cur, rise)

    return measured


def _fk_points_counts(rec: Recorder, args, result) -> None:
    rows, qb = args[0], args[1]
    rec.count("fk_points.samples", result.shape[0])
    # computed bytes: joint rows and angles read, positions written
    rec.count("fk_points.bytes", rows.size * 8 + qb.size * 8 + result.nbytes)


def _write_counts(rec: Recorder, args, result) -> None:
    outputs, name = args[0], args[1]
    rec.count("cli.bytes_written", os.path.getsize(outputs.dir / name))


def _manifest_counts(rec: Recorder, args, result) -> None:
    rec.count("cli.bytes_written",
              os.path.getsize(args[0].dir / "manifest.json"))


_COUNTERS = {
    "fk_points": _fk_points_counts,
    "write": _write_counts,
    "write_manifest": _manifest_counts,
}


# --------------------------------------------------------------------------
# per-layer metrics from merged snapshots
# --------------------------------------------------------------------------

def add_process_span(snap: dict, child) -> None:
    """Add :data:`PROCESS_SPAN` to a traced CLI snapshot: the time from
    spawn to the child's first clock reading plus the time from its last
    reading to the reaped exit (``child`` is a :class:`harness.ChildRun`)."""
    d = (snap["started"] - child.started) + (child.ended - snap["ended"])
    snap["spans"].append(["", PROCESS_SPAN, 1, d, d, 0])


def merge(snapshots) -> dict:
    """Sum several process snapshots into one."""
    agg: Dict[Tuple[str, str], list] = {}
    counters: Dict[str, float] = {}
    for snap in snapshots:
        for p, n, calls, total, self_s, errors in snap["spans"]:
            a = agg.setdefault((p, n), [0, 0.0, 0.0, 0])
            a[0] += calls
            a[1] += total
            a[2] += self_s
            a[3] += errors
        for k, v in snap["counters"].items():
            if k.endswith("peak_bytes"):
                counters[k] = max(counters.get(k, 0.0), v)
            else:
                counters[k] = counters.get(k, 0.0) + v
    return {"agg": agg, "counters": counters}


def layer_metrics(merged: dict, processes: int) -> Dict[str, float]:
    """Per-layer metric values (see perfbench/README.md) for one pass."""
    agg, ctr = merged["agg"], merged["counters"]

    def by_name(name: str, field: int) -> float:
        return sum(v[field] for (p, n), v in agg.items() if n == name)

    def calls(name):
        return by_name(name, 0)

    def total(name):
        return by_name(name, 1)

    def self_s(name):
        return by_name(name, 2)

    samples = ctr.get("fk_points.samples", 0.0)
    solves = calls("inverse_kinematics")
    ik_fk = sum(v[0] for (p, n), v in agg.items()
                if p == "inverse_kinematics" and n == "fk_frames")
    cycles = calls("simulate_cycle")
    return {
        "process.start_exit_s": total(PROCESS_SPAN),
        "model.import_s": total(IMPORT_SPAN) / max(processes, 1),
        "model.default_arm_s": total("default_arm") / max(processes, 1),
        "kinematics.sample_gen_s": self_s("sample_workspace"),
        "kinematics.cloud_stats_s": (total("max_reach") + total("azimuth_span")
                                     + total("below_base_fraction")),
        "kinematics.sample_workspace_peak_mb":
            ctr.get("sample_workspace.peak_bytes", 0.0) / 2**20,
        "kernels.fk_points_s": total("fk_points"),
        "kernels.fk_ns_per_sample":
            total("fk_points") / samples * 1e9 if samples else 0.0,
        "kernels.fk_bytes_computed": ctr.get("fk_points.bytes", 0.0),
        "kinematics.fk_frames_calls": calls("fk_frames"),
        "kinematics.fk_frames_self_s": self_s("fk_frames"),
        "kinematics.jacobian_self_s": self_s("jacobian"),
        "kinematics.ik_solve_s": total("inverse_kinematics"),
        "kinematics.ik_fk_calls_per_solve": ik_fk / solves if solves else 0.0,
        "kinematics.ik_failed": by_name("inverse_kinematics", 3),
        "statics.gravity_torques_calls": calls("gravity_torques"),
        "statics.gravity_torques_self_s": self_s("gravity_torques"),
        "statics.max_payload_self_s": self_s("max_payload"),
        "statics.sweep_payload_caps_s": total("sweep_payload_caps"),
        "statics.static_report_s": total("static_report"),
        "drivetrain.available_joint_torque_calls":
            calls("available_joint_torque"),
        "drivetrain.available_joint_torque_self_s":
            self_s("available_joint_torque"),
        "steppersim.simulate_cycle_calls": cycles,
        "steppersim.simulate_cycle_self_s": self_s("simulate_cycle"),
        "steppersim.us_per_cycle":
            total("simulate_cycle") / cycles * 1e6 if cycles else 0.0,
        "cli.render_s": self_s("run"),
        "cli.write_s": total("write") + total("write_manifest"),
        "cli.bytes_written": ctr.get("cli.bytes_written", 0.0),
    }


def attributed_s(merged: dict) -> float:
    """Sum of the self times of every recorded span: the listed layers plus,
    for CLI processes, interpreter start-up and exit."""
    return sum(v[2] for v in merged["agg"].values())
