"""The design_session workload: one process, a closed loop of queries.

    python3 perfbench/session.py RESULT.json --seed N --seconds S --trace 0|1

Imports armkit once, then runs passes until ``--seconds`` is used up. A pass
is the query loop followed by the Monte-Carlo phase:

* each query solves IK from the CLI-default zero start (CLI-default
  ``IKOptions``) to a reachable target, then takes the Jacobian, the static
  load report and the fixed-pose maximum payload at the solution;
* ``repeatability_experiment`` over the default speed ladder at 0 kg and at
  0.6 kg (where the 2500 steps/s leg misses steps), seeded with ``--seed``.

The targets are the tool poses of :data:`POOL_SIZE` in-limit joint vectors
drawn from a fixed generator (:data:`POOL_SEED`); ``--seed`` shuffles the
query order of every pass and seeds the Monte-Carlo draws. The pool does not
follow ``--seed`` because IK cost depends on the target with a heavy tail
(2 ms to 0.6 s per solve): sets of 128 seed-drawn targets differ by about
20% in total solve time, more than any bound on the end-to-end metrics
allows. Targets that the solver fails on stay in the pool and count as
failed operations.

With ``--trace 1`` passes alternate untraced and traced, so the result holds
the tracing overhead next to the span aggregate. RESULT.json is written at
the end.
"""

from __future__ import annotations

import time

# Timed first, so numpy's import counts as it does for a CLI process.
_T0 = time.monotonic()  # harness.clock
import armkit as ak  # noqa: E402
IMPORT_S = time.monotonic() - _T0

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from checks import (Verdict, check_fixed_payload, check_static_report,
                    reference_fk, rotation_error)
from harness import Timer, clock, repeat_for
from spans import Recorder

POOL_SEED = 0
POOL_SIZE = 60
MC_CYCLES_PER_SPEED = 200
MC_PAYLOADS_KG = (0.0, 0.6)
WARMUP_QUERIES = 5


def make_pool(arm):
    """Target tool transforms (n, 4, 4) of the fixed query pool."""
    lim = ak.model.limits_array(arm)
    q = np.random.default_rng(POOL_SEED).uniform(lim[:, 0], lim[:, 1],
                                                 size=(POOL_SIZE, 6))
    return reference_fk(ak.model.dh_params(arm), q)


def run_pass(arm, targets, order, seed,
             cycles_per_speed=MC_CYCLES_PER_SPEED):
    """One timed pass; returns timings and raw outputs for the checks."""
    kin, statics, steppersim = ak.kinematics, ak.statics, ak.steppersim
    opts = kin.IKOptions()
    q0 = np.zeros(6)
    timer = Timer()
    latencies, answers = [], []
    t_pass = clock()
    with timer.phase("ik"):
        for i in order:
            T = targets[i]
            t0 = clock()
            try:
                sol = kin.inverse_kinematics(
                    arm, kin.Pose(position=T[:3, 3], orientation=T[:3, :3]),
                    q0, opts)
            except (ak.NoConvergenceError, ak.UnreachableTargetError) as exc:
                latencies.append(clock() - t0)
                answers.append((i, exc))
                continue
            J = kin.jacobian(arm, sol)
            report = statics.static_report(arm, sol)
            cap = statics.max_payload(arm, sol)
            latencies.append(clock() - t0)
            answers.append((i, (sol, J, report, cap)))
    with timer.phase("mc"):
        sims = [steppersim.repeatability_experiment(
                    arm, cycles_per_speed=cycles_per_speed, seed=seed,
                    payload=m)
                for m in MC_PAYLOADS_KG]
    wall = clock() - t_pass
    return {"wall_s": wall, "ik_wall_s": timer.totals["ik"],
            "mc_wall_s": timer.totals["mc"], "latencies": latencies,
            "queries": len(order),
            "cycles": len(steppersim.DEFAULT_SPEEDS) * cycles_per_speed
            * len(MC_PAYLOADS_KG)}, answers, sims


def check_pass(arm, targets, answers, sims):
    """(attempted, failed, wrong messages, unusable messages)."""
    opts = ak.kinematics.IKOptions()
    rows = ak.model.dh_params(arm)
    lim = ak.model.limits_array(arm)
    available = ak.statics.available_torques(arm)
    tol_kg = ak.statics.BISECTION_TOL_KG
    attempted = failed = 0
    wrong, unusable = [], []
    for i, ans in answers:
        attempted += 1
        v = Verdict(f"query {i}")
        if isinstance(ans, Exception):
            v.unusable(f"{type(ans).__name__} on a reachable target")
        else:
            sol, J, report, cap = ans
            v.expect(bool(np.all(sol >= lim[:, 0] - 1e-12)
                          & np.all(sol <= lim[:, 1] + 1e-12)),
                     "IK solution outside the joint limits")
            T = reference_fk(rows, sol)[0]
            pos_err = float(np.linalg.norm(T[:3, 3] - targets[i][:3, 3]))
            rot_err = rotation_error(T[:3, :3], targets[i][:3, :3])
            v.expect(pos_err <= opts.pos_tol + 1e-12,
                     f"IK position error {pos_err:.3e} m")
            v.expect(rot_err <= opts.ori_tol + 1e-12,
                     f"IK orientation error {rot_err:.3e} rad")
            v.expect(J.shape == (6, 6) and bool(np.all(np.isfinite(J))),
                     "Jacobian not a finite 6x6")
            check_static_report(v, arm, sol, report)
            check_fixed_payload(v, arm, sol, cap, available, tol_kg)
        failed += v.failed
        wrong += v.wrong_msgs
        unusable += v.unusable_msgs
    for m, sim in zip(MC_PAYLOADS_KG, sims):
        attempted += 1
        v = Verdict(f"repeatability at {m:g} kg")
        stds = sim.stds
        v.expect(len(stds) == len(ak.steppersim.DEFAULT_SPEEDS)
                 and bool(np.all(np.isfinite(stds)) & np.all(stds > 0)),
                 f"per-speed stds {stds!r} not finite and positive")
        failed += v.failed
        wrong += v.wrong_msgs
    return attempted, failed, wrong, unusable


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("result")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    logging.getLogger("armkit").setLevel(logging.ERROR)
    t0 = clock()
    arm = ak.model.default_arm()
    default_arm_s = clock() - t0

    targets = make_pool(arm)
    rng = np.random.default_rng(args.seed)
    # untimed warm-up, so lazy first-call set-up does not land in one pass
    run_pass(arm, targets[:WARMUP_QUERIES], range(WARMUP_QUERIES), args.seed,
             cycles_per_speed=2)

    def one(traced: bool) -> dict:
        order = rng.permutation(POOL_SIZE)
        rec = Recorder() if traced else None
        if rec:
            rec.install()
        try:
            timing, answers, sims = run_pass(arm, targets, order, args.seed)
        finally:
            if rec:
                rec.uninstall()
        attempted, failed, wrong, unusable = check_pass(
            arm, targets, answers, sims)
        timing.update(traced=traced, attempted=attempted, failed=failed,
                      wrong=wrong, unusable=unusable,
                      spans=rec.snapshot() if rec else None)
        return timing

    if args.trace:
        pairs = repeat_for(args.seconds, lambda i: (one(False), one(True)))
        passes = [p for pair in pairs for p in pair]
    else:
        passes = repeat_for(args.seconds, lambda i: one(False))

    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump({"import_s": IMPORT_S, "default_arm_s": default_arm_s,
                   "pool_seed": POOL_SEED, "pool_size": POOL_SIZE,
                   "passes": passes}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
