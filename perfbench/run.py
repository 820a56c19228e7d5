"""armkit benchmark: three closed-loop workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; armkit is imported from its ``src/``.
Workloads (one caller at a time, no extra threads; see perfbench/README.md):

* ``workspace_grid``  CLI ``workspace`` grid cloud written as CSV, then CLI
  ``reach`` on a seeded quasi-random cloud;
* ``payload_sweep``   three CLI ``payload`` worst-case searches;
* ``design_session``  one process running IK/Jacobian/statics queries and
  the Monte-Carlo repeatability experiment.

A run repeats its workload's pass until ``--seconds`` is used up and
reports medians over passes. Every pass's outputs are checked. With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` passes alternate untraced and traced (spans recorded from
outside armkit by perfbench/spans.py) and it holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

import checks
import spans
from harness import (ARMKIT, BENCH, OUT, ROOT, SRC, ChildFailed, clock,
                     environment, median, repeat_for, run_child, tail)

#: Fresh interpreters timed for ``setup_s``: this many before every
#: untraced CLI pass, or before and after the session process, so the
#: samples spread over the whole run.
SETUP_PER_PASS = 3
SETUP_CODE = "import armkit; armkit.model.default_arm()"
#: Whole-run limit; each child gets what is left of it.
RUN_LIMIT_S = 170.0

#: workspace_grid sizes: the CLI's default grid, whose sampling working set
#: is well above a 300 MiB L3, and a quasi cloud well below it (see
#: working_set_bytes).
GRID_STEPS = (25, 25, 25, 5, 5, 5)
GRID_SAMPLES = math.prod(GRID_STEPS)
QUASI_SAMPLES = 262_144
#: Size of the in-process sampling probe behind working_set_bytes.
PROBE_STEPS = (8, 8, 8, 4, 4, 4)
#: payload_sweep: fine lattice pitch (per-pose Python loop dominates).
FINE_GRID_DEG = 10.0

_START = clock()


def remaining_s() -> float:
    return max(5.0, RUN_LIMIT_S - (clock() - _START))


# --------------------------------------------------------------------------
# pass results
# --------------------------------------------------------------------------

@dataclass
class Pass:
    """One pass of a workload."""

    traced: bool
    wall_s: float
    items: int = 0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: List[str] = field(default_factory=list)
    unusable: List[str] = field(default_factory=list)
    spans: Optional[dict] = None       # merged span aggregate (traced)
    processes: int = 0
    extra: dict = field(default_factory=dict)

    def record(self, v: checks.Verdict) -> None:
        self.attempted += 1
        self.failed += v.failed
        self.wrong += v.wrong_msgs
        self.unusable += v.unusable_msgs


# --------------------------------------------------------------------------
# CLI workloads
# --------------------------------------------------------------------------

@dataclass
class Invocation:
    name: str
    args: List[str]                     # "{out}" becomes the output dir
    items: int                          # samples or lattice poses
    check: Callable                     # (verdict, stdout, out_dir) -> None


class SetupFailed(Exception):
    """``import armkit`` or loading the default arm failed."""


def setup_probes(ctx, n: int) -> None:
    """Time ``n`` fresh interpreters that import armkit and load the arm."""
    for _ in range(n):
        child = run_child([sys.executable, "-c", SETUP_CODE], remaining_s(),
                          capture_dir=OUT / "setup")
        if child.returncode != 0:
            raise SetupFailed(f"exit code {child.returncode}")
        ctx.setup.append(child.wall_s)


def cli_step(ctx, invocations: List[Invocation], index: int) -> List[Pass]:
    """One untraced pass; with tracing, also a traced pass whose invocations
    each run right after their untraced twin, so both see the same machine.
    """
    setup_probes(ctx, SETUP_PER_PASS)
    modes = (False, True) if ctx.trace else (False,)
    passes = {m: Pass(traced=m, wall_s=0.0) for m in modes}
    snaps = []
    for k, inv in enumerate(invocations):
        for traced in modes:
            work = OUT / f"pass{index}-{k}-{int(traced)}"
            out_dir = work / "out"
            args = [a.replace("{out}", str(out_dir)) for a in inv.args]
            spans_path = work / "spans.json"
            if traced:
                work.mkdir(parents=True, exist_ok=True)
                argv = [sys.executable, str(BENCH / "traced_cli.py"),
                        str(spans_path), "--", *args]
            else:
                argv = ARMKIT + args
            child = run_child(argv, remaining_s(), capture_dir=work)
            p = passes[traced]
            p.wall_s += child.wall_s
            p.items += inv.items
            p.peak_rss_mb = max(p.peak_rss_mb, child.maxrss_mb)
            v = checks.Verdict(inv.name)
            if child.returncode != 0:
                tail_line = (child.stderr.strip().splitlines() or [""])[-1]
                v.wrong(f"exit code {child.returncode}: {tail_line}")
            else:
                inv.check(v, child.stdout, out_dir)
            p.record(v)
            if traced:
                snap = json.loads(spans_path.read_text("utf-8"))
                spans.add_process_span(snap, child)
                snaps.append(snap)
            shutil.rmtree(work)
    if ctx.trace:
        passes[True].spans = spans.merge(snaps)
        passes[True].processes = len(invocations)
    return list(passes.values())


def workspace_invocations(ctx) -> List[Invocation]:
    return [
        Invocation(
            "workspace grid csv",
            ["workspace", "--per-joint-steps", ",".join(map(str, GRID_STEPS)),
             "--format", "csv", "--out", "{out}"],
            GRID_SAMPLES,
            lambda v, out, d: checks.check_workspace(
                v, out, d, ctx.rows, ctx.lim, GRID_STEPS, ctx.seed)),
        Invocation(
            "reach quasi",
            ["reach", "--mode", "quasi", "--samples", str(QUASI_SAMPLES),
             "--seed", str(ctx.seed)],
            QUASI_SAMPLES,
            lambda v, out, d: checks.check_reach(
                v, out, ctx.rows, ctx.lim, QUASI_SAMPLES, ctx.seed)),
    ]


def payload_invocations(ctx) -> List[Invocation]:
    statics = ctx.armkit.statics
    fine = statics.sweep_poses(ctx.arm, grid_deg=FINE_GRID_DEG).shape[0]
    coarse = statics.sweep_poses(ctx.arm).shape[0]
    tol = statics.BISECTION_TOL_KG
    return [
        Invocation("payload fine grid",
                   ["payload", "--grid-deg", f"{FINE_GRID_DEG:g}"], fine,
                   lambda v, out, d: checks.check_payload_grid(v, out, tol)),
        # max_payload and sweep_payload_caps each search the lattice
        Invocation("payload csv",
                   ["payload", "--format", "csv", "--out", "{out}"],
                   2 * coarse,
                   lambda v, out, d: checks.check_payload_csv(v, out, d, tol)),
        Invocation("payload limit 2,3",
                   ["payload", "--limit-joints", "2,3"], coarse,
                   lambda v, out, d: checks.check_payload_limit23(v, out,
                                                                  tol)),
    ]


def run_cli_workload(ctx, invocations) -> List[Pass]:
    # two untraced passes at least, so a median never rests on one pass
    steps = repeat_for(ctx.seconds, lambda i: cli_step(ctx, invocations, i),
                       at_least=1 if ctx.trace else 2)
    return [p for step in steps for p in step]


# --------------------------------------------------------------------------
# design_session
# --------------------------------------------------------------------------

class SessionFailed(Exception):
    """The design_session process did not finish normally."""


def run_session(ctx) -> List[Pass]:
    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / "session.json"
    argv = [sys.executable, str(BENCH / "session.py"), str(result_path),
            "--seed", str(ctx.seed), "--seconds", str(ctx.seconds),
            "--trace", str(ctx.trace)]
    setup_probes(ctx, SETUP_PER_PASS)
    child = run_child(argv, remaining_s(), capture_dir=OUT / "session")
    setup_probes(ctx, SETUP_PER_PASS)
    if child.returncode != 0:
        raise SessionFailed(f"session process exited {child.returncode}:\n"
                            + child.stderr[-2000:])
    doc = json.loads(result_path.read_text(encoding="utf-8"))
    passes = []
    for d in doc["passes"]:
        p = Pass(traced=d["traced"], wall_s=d["wall_s"], items=d["queries"],
                 peak_rss_mb=child.maxrss_mb, attempted=d["attempted"],
                 failed=d["failed"], wrong=d["wrong"], unusable=d["unusable"],
                 extra=d)
        if d["spans"] is not None:
            p.spans = spans.merge([d["spans"]])
            p.processes = 1
        passes.append(p)
    ctx.session_process = {k: doc[k] for k in
                           ("import_s", "default_arm_s", "pool_seed",
                            "pool_size")}
    return passes


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(ctx, passes: List[Pass], setup: List[float]) -> dict:
    """Bounded metrics (every workload) plus the workload-specific ones."""
    walls = [p.wall_s for p in passes]
    if ctx.workload == "design_session":
        rates = [p.items / p.extra["ik_wall_s"] for p in passes]
    else:
        rates = [p.items / p.wall_s for p in passes]
    values = {
        "setup_s": median(setup),
        "wall_s": median(walls),
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
    }
    units = ctx.units["end_to_end"]
    if set(values) != set(units):
        raise AssertionError("end-to-end metrics differ from BENCHMARK.json: "
                             f"{sorted(set(values) ^ set(units))}")
    common = {k: metric(values[k], units[k]) for k in units}
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    specific = {"failed_frac": metric(failed / attempted, "ratio")}
    if ctx.workload == "workspace_grid":
        specific["samples_per_s"] = metric(median(rates), "samples/s")
    elif ctx.workload == "payload_sweep":
        specific["poses_per_s"] = metric(median(rates), "poses/s")
    else:
        lat = [x for p in passes for x in p.extra["latencies"]]
        pct, value, n = tail(lat)
        specific["query_p50_s"] = metric(median(lat), "s")
        specific["query_tail_s"] = dict(metric(value, "s"), percentile=pct,
                                        samples=n)
        specific["queries_per_s"] = metric(median(rates), "1/s")
        specific["mc_cycles_per_s"] = metric(
            median([p.extra["cycles"] / p.extra["mc_wall_s"] for p in passes]),
            "cycles/s")
    return common, specific


def per_layer(ctx, passes: List[Pass]) -> dict:
    """Span metrics (medians over traced passes) plus the tracing account.

    Traced runs alternate untraced and traced passes, so each traced pass
    has an untraced twin run just before it on the same machine state. The
    tracing overhead is the median over these pairs of traced minus
    untraced wall; ``trace.unaccounted_s`` is the median over pairs of the
    untraced wall minus the span self times of its traced twin.
    """
    pairs = list(zip(passes[0::2], passes[1::2]))
    assert pairs and all(not u.traced and t.traced for u, t in pairs)
    rows = [spans.layer_metrics(t.spans, t.processes) for _, t in pairs]
    values = {k: median([r[k] for r in rows]) for k in rows[0]}
    if ctx.session_process:
        # the session imports and loads once, outside its timed passes
        values["model.import_s"] = ctx.session_process["import_s"]
        values["model.default_arm_s"] = ctx.session_process["default_arm_s"]
    values.update({
        "trace.wall_s": median([t.wall_s for _, t in pairs]),
        "trace.untraced_wall_s": median([u.wall_s for u, _ in pairs]),
        "trace.overhead_s": median([t.wall_s - u.wall_s for u, t in pairs]),
        "trace.unaccounted_s": median([u.wall_s - spans.attributed_s(t.spans)
                                       for u, t in pairs]),
    })
    units = ctx.units["per_layer"]
    if set(values) != set(units):
        raise AssertionError("per-layer metrics differ from BENCHMARK.json: "
                             f"{sorted(set(values) ^ set(units))}")
    return {k: metric(float(values[k]), units[k]) for k in units}


def working_set_bytes(ak, arm, l3_bytes) -> dict:
    """Sampling working set of each workspace size, next to L3.

    Computed as the tracemalloc peak per sample of an in-process
    ``sample_workspace`` call on :data:`PROBE_STEPS` samples (after a
    warm-up call, so lazy imports are not counted), times each size.
    """
    import tracemalloc

    n = math.prod(PROBE_STEPS)
    per_sample = {}
    for mode in ("grid", "quasi"):
        def call():
            ak.kinematics.sample_workspace(arm, PROBE_STEPS, mode=mode,
                                           samples=n)
        call()
        tracemalloc.start()
        try:
            call()
            per_sample[mode] = tracemalloc.get_traced_memory()[1] / n
        finally:
            tracemalloc.stop()
    return {
        f"workspace grid {GRID_SAMPLES}":
            round(per_sample["grid"] * GRID_SAMPLES),
        f"reach quasi {QUASI_SAMPLES}":
            round(per_sample["quasi"] * QUASI_SAMPLES),
        "l3": l3_bytes,
    }


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: int
    armkit: object = None
    arm: object = None
    rows: object = None
    lim: object = None
    session_process: Optional[dict] = None
    setup: List[float] = field(default_factory=list)
    units: dict = field(default_factory=dict)   # per section, from BENCHMARK.json


WORKLOADS = ("workspace_grid", "payload_sweep", "design_session")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "armkit" / "__init__.py").is_file():
        print(f"error: no armkit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import logging

    import armkit
    if Path(armkit.__file__).resolve().parent != (SRC / "armkit").resolve():
        print(f"error: armkit imported from {armkit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    logging.getLogger("armkit").setLevel(logging.ERROR)

    ctx = Context(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, armkit=armkit,
                  units={sec: {m["name"]: m["unit"] for m in spec[sec]}
                         for sec in ("end_to_end", "per_layer")})
    ctx.arm = armkit.model.default_arm()
    ctx.rows = armkit.model.dh_params(ctx.arm)
    ctx.lim = armkit.model.limits_array(ctx.arm)

    env = environment()
    env["kernel_path"] = armkit._kernels.active_path()
    env["working_set_bytes"] = working_set_bytes(armkit, ctx.arm,
                                                 env["l3_bytes"])

    shutil.rmtree(OUT, ignore_errors=True)
    try:
        if args.workload == "workspace_grid":
            passes = run_cli_workload(ctx, workspace_invocations(ctx))
        elif args.workload == "payload_sweep":
            passes = run_cli_workload(ctx, payload_invocations(ctx))
        else:
            passes = run_session(ctx)
    except SetupFailed as exc:
        print(f"error: importing armkit or loading the default arm failed "
              f"({exc})", file=sys.stderr)
        return 1
    except (ChildFailed, SessionFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT, ignore_errors=True)

    untraced = [p for p in passes if not p.traced]
    common, specific = end_to_end(ctx, untraced, ctx.setup)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wrong = [m for p in passes for m in p.wrong]
    unusable = [m for p in passes for m in p.unusable]

    print(f"armkit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    if ctx.session_process:
        print(f"query pool: {ctx.session_process['pool_size']} targets from "
              f"fixed seed {ctx.session_process['pool_seed']}; --seed orders "
              f"queries and seeds the Monte-Carlo")
    print(f"passes: {len(untraced)} untraced, {len(passes) - len(untraced)} "
          f"traced; walls " + ", ".join(f"{p.wall_s:.3f}" for p in passes))
    for name, m in {**common, **specific}.items():
        extra = ""
        if "percentile" in m:
            extra = f"  (p{m['percentile']} of {m['samples']} queries)"
        print(f"  {name:<16} {m['value']!r:>24} {m['unit']}{extra}")
    print(f"operations: {attempted} attempted, {failed} failed")
    for msg in sorted(set(wrong)):
        print(f"  WRONG: {msg}")
    for msg in sorted(set(unusable)):
        print(f"  FAILED: {msg}")

    if args.trace:
        metrics = per_layer(ctx, passes)
        for name, m in metrics.items():
            print(f"  {name:<42} {m['value']!r:>24} {m['unit']}")
        overhead = metrics["trace.overhead_s"]["value"]
        rest = metrics["trace.unaccounted_s"]["value"]
        met = abs(rest) <= overhead
        print(f"span self times account for the untraced wall to "
              f"{rest:+.3f} s; tracing overhead {overhead:+.3f} s: "
              f"{'within' if met else 'NOT within'} the overhead")
    else:
        metrics = common
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
