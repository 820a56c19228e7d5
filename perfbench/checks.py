"""Output checks for every operation a workload runs.

Checks are tolerance-based, not byte hashes: a kernel change may move the
last ulp of a float (a stated, allowed change), but not a reported figure.

Each check fills a :class:`Verdict` with two kinds of finding:

* ``wrong``: a value is incorrect or missing. The run reports
  ``"correct": false``.
* ``unusable``: every value is right but the output cannot be consumed as
  documented (a CSV cell that is not a plain float). The operation counts
  as failed in ``failed``/``failed_frac``; ``correct`` is not affected.

Positions are checked against :func:`reference_fk`, an independent 4x4
product of the link transforms, and joint torques against
:func:`reference_gravity_torques` (cross products on the reference frames),
not against armkit's own kernels.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path
from typing import Dict, List

import numpy as np

#: |position| agreement with the reference product (kernel parity bound).
FK_TOL_M = 1e-12
#: |torque| agreement with the reference gravity moments (N.m).
TORQUE_TOL_NM = 1e-9
#: Payload reported by the 15-degree worst-case sweep, all joints.
PAYLOAD_15DEG_KG = 0.62579345703125
PAYLOAD_15DEG_JOINT = 5
PAYLOAD_15DEG_POSES = 2535
#: Payload reported by the 10-degree worst-case sweep, all joints.
PAYLOAD_10DEG_KG = 0.62225341796875
PAYLOAD_10DEG_JOINT = 5
#: Payload reported by the 15-degree sweep with joints 2 and 3 budgeted.
PAYLOAD_J23_KG = 1.04229736328125
PAYLOAD_J23_JOINT = 3
#: Rows checked against the reference FK in each workspace CSV.
CSV_SPOT_ROWS = 2000

_NP_SCALAR = re.compile(r"^np\.float64\((.*)\)$")


class Verdict:
    """Findings for one operation."""

    def __init__(self, op: str) -> None:
        self.op = op
        self.wrong_msgs: List[str] = []
        self.unusable_msgs: List[str] = []

    def wrong(self, msg: str) -> None:
        self.wrong_msgs.append(f"{self.op}: {msg}")

    def unusable(self, msg: str) -> None:
        self.unusable_msgs.append(f"{self.op}: {msg}")

    def expect(self, ok: bool, msg: str) -> bool:
        if not ok:
            self.wrong(msg)
        return ok

    @property
    def failed(self) -> bool:
        return bool(self.wrong_msgs or self.unusable_msgs)


# --------------------------------------------------------------------------
# reference kinematics
# --------------------------------------------------------------------------

def reference_frames(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Frame transforms (n, 7, 4, 4) for joint vectors ``q`` (n, 6), radians;
    frame 0 is the base, frame 6 the tool.

    ``rows`` is ``model.dh_params``: [theta_offset, d, a_prev, alpha_prev]
    per joint; each link is Rz(theta) Dz(d) Dx(a) Rx(alpha), base to tool.
    """
    q = np.atleast_2d(q)
    n = q.shape[0]
    frames = np.empty((n, 7, 4, 4))
    frames[:, 0] = np.eye(4)
    for i in range(6):
        th = q[:, i] + rows[i, 0]
        d, a, al = rows[i, 1], rows[i, 2], rows[i, 3]
        ct, st = np.cos(th), np.sin(th)
        ca, sa = math.cos(al), math.sin(al)
        A = np.zeros((n, 4, 4))
        A[:, 0, :] = np.stack([ct, -st * ca, st * sa, a * ct], axis=1)
        A[:, 1, :] = np.stack([st, ct * ca, -ct * sa, a * st], axis=1)
        A[:, 2, 1], A[:, 2, 2], A[:, 2, 3] = sa, ca, d
        A[:, 3, 3] = 1.0
        frames[:, i + 1] = frames[:, i] @ A
    return frames


def reference_fk(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Tool transforms (n, 4, 4) for joint vectors ``q`` (n, 6), radians."""
    return reference_frames(rows, q)[:, 6]


def reference_gravity_torques(arm, q: np.ndarray,
                              payload: float) -> np.ndarray:
    """Signed holding torque (n, 6) about each joint axis, N.m: the torque
    each joint applies to balance gravity (armkit's sign convention).

    Every mass of ``arm.mass_model`` (links, motors) plus ``payload`` at the
    tool origin hangs on its frame; its centre sits ``offset`` from the
    inboard frame origin toward the frame's own origin (along the frame's
    z-axis for zero-length links and the base). Joint j holds
    -z_{j-1} . ((c - o_{j-1}) x (0, 0, -m g)) summed over the masses distal
    to joint j.
    """
    from armkit.model import dh_params

    frames = reference_frames(dh_params(arm), q)
    origin, z = frames[:, :, :3, 3], frames[:, :, :3, 2]
    mm = arm.mass_model
    masses = [(p.frame, p.mass, p.offset) for p in mm.links]
    masses += [(p.frame, arm.drive(p.drive).motor.mass, p.offset)
               for p in mm.motors]
    centres = []
    for frame, mass, offset in masses:
        if frame == 0:
            c = origin[:, 0] + offset * z[:, 0]
        else:
            span = origin[:, frame] - origin[:, frame - 1]
            length = np.linalg.norm(span, axis=1, keepdims=True)
            u = np.where(length > 1e-12, span / np.maximum(length, 1e-300),
                         z[:, frame])
            c = origin[:, frame - 1] + offset * u
        centres.append((frame, mass, c))
    centres.append((6, payload, origin[:, 6]))
    tau = np.zeros((q.shape[0], 6))
    for frame, mass, c in centres:
        weight = np.array([0.0, 0.0, -mass * mm.gravity])
        for j in range(1, frame + 1):
            moment = np.cross(c - origin[:, j - 1], weight)
            tau[:, j - 1] -= np.einsum("ni,ni->n", z[:, j - 1], moment)
    return tau


def grid_joints(lim: np.ndarray, steps, index: np.ndarray) -> np.ndarray:
    """Joint vectors of lattice rows ``index`` (C order, with endpoints)."""
    axes = [np.linspace(lim[j, 0], lim[j, 1], steps[j]) for j in range(6)]
    idx = np.unravel_index(index, tuple(steps))
    return np.stack([axes[j][idx[j]] for j in range(6)], axis=1)


def rotation_error(Ra: np.ndarray, Rb: np.ndarray) -> float:
    """Angle (rad) of the rotation taking Rb to Ra."""
    # ||Ra - Rb||_F = 2 sqrt(2) sin(theta / 2), exact near zero
    s = float(np.linalg.norm(Ra - Rb)) / (2.0 * math.sqrt(2.0))
    return 2.0 * math.asin(min(1.0, s))


# --------------------------------------------------------------------------
# CLI text
# --------------------------------------------------------------------------

def fields(stdout: str) -> Dict[str, str]:
    """``key: value`` lines of a CLI report."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def number(v: Verdict, report: Dict[str, str], key: str):
    try:
        return float(report[key].split()[0])
    except (KeyError, ValueError, IndexError):
        v.wrong(f"no number for {key!r}")
        return None


def _manifest_matches(v: Verdict, out_dir: Path, name: str,
                      data: bytes) -> None:
    try:
        doc = json.loads((out_dir / "manifest.json").read_text("utf-8"))
        digests = {r["path"]: r["sha256"] for r in doc["outputs"]}
    except (OSError, ValueError, KeyError) as exc:
        v.wrong(f"unreadable manifest: {exc}")
        return
    v.expect(digests.get(name) == hashlib.sha256(data).hexdigest(),
             f"manifest sha256 of {name} does not match the file")


# --------------------------------------------------------------------------
# workspace_grid
# --------------------------------------------------------------------------

def check_workspace(v: Verdict, stdout: str, out_dir: Path, rows: np.ndarray,
                    lim: np.ndarray, steps, seed: int) -> None:
    """Grid cloud: CSV rows = sample count, CSV max radius = reported one,
    and a seeded spot sample of rows matches the reference FK."""
    report = fields(stdout)
    n_expect = int(np.prod(steps))
    v.expect(report.get("samples", "").split(" ")[0] == str(n_expect),
             f"samples line {report.get('samples')!r}, expected {n_expect}")
    radial = number(v, report, "max_radial_reach_m")
    try:
        data = (out_dir / "workspace.csv").read_bytes()
    except OSError as exc:
        v.wrong(f"workspace.csv missing: {exc}")
        return
    _manifest_matches(v, out_dir, "workspace.csv", data)
    header = data.partition(b"\n")[0]
    v.expect(header == b"x_m,y_m,z_m", f"header {header[:40]!r}")
    try:
        pts = np.loadtxt(out_dir / "workspace.csv", delimiter=",",
                         skiprows=1, ndmin=2)
    except ValueError as exc:
        v.wrong(f"workspace.csv does not parse: {exc}")
        return
    if not v.expect(pts.shape[0] == n_expect,
                    f"{pts.shape[0]} CSV rows, expected {n_expect}"):
        return
    if radial is not None:
        csv_radial = float(np.max(np.hypot(pts[:, 0], pts[:, 1])))
        v.expect(abs(csv_radial - radial) <= FK_TOL_M,
                 f"CSV max radius {csv_radial!r} != reported {radial!r}")
    pick = np.random.default_rng(seed).choice(n_expect, CSV_SPOT_ROWS,
                                              replace=False)
    ref = reference_fk(rows, grid_joints(lim, steps, pick))[:, :3, 3]
    err = float(np.max(np.abs(ref - pts[pick])))
    v.expect(err <= FK_TOL_M,
             f"CSV rows differ from reference FK by {err:.3e} m")


def check_reach(v: Verdict, stdout: str, rows: np.ndarray, lim: np.ndarray,
                samples: int, seed: int) -> None:
    """Quasi cloud: sample count and both reach figures match the reference
    FK of the same scrambled-Sobol sample."""
    from scipy.stats import qmc

    report = fields(stdout)
    v.expect(report.get("samples", "").split(" ")[0] == str(samples),
             f"samples line {report.get('samples')!r}, expected {samples}")
    dist = number(v, report, "max_reach_m")
    radial = number(v, report, "max_radial_reach_m")
    below = number(v, report, "below_base_fraction")
    if None in (dist, radial, below):
        return
    u = qmc.Sobol(d=6, scramble=True, seed=seed).random(samples)
    pts = reference_fk(rows, lim[:, 0] + u * (lim[:, 1] - lim[:, 0]))[:, :3, 3]
    ref_dist = float(np.max(np.linalg.norm(pts, axis=1)))
    ref_radial = float(np.max(np.hypot(pts[:, 0], pts[:, 1])))
    ref_below = float(np.mean(pts[:, 2] < 0.0))
    v.expect(abs(ref_dist - dist) <= FK_TOL_M,
             f"max_reach_m {dist!r}, reference {ref_dist!r}")
    v.expect(abs(ref_radial - radial) <= FK_TOL_M,
             f"max_radial_reach_m {radial!r}, reference {ref_radial!r}")
    v.expect(abs(ref_below - below) <= 1.0 / samples,
             f"below_base_fraction {below!r}, reference {ref_below!r}")


# --------------------------------------------------------------------------
# payload_sweep
# --------------------------------------------------------------------------

def _payload_head(v: Verdict, stdout: str):
    report = fields(stdout)
    mass = number(v, report, "max_payload_kg")
    util = number(v, report, "limiting_utilization")
    joint = report.get("limiting_joint")
    if util is not None:
        v.expect(0.999 < util <= 1.0,
                 f"limiting utilization {util!r} not just below 1")
    return mass, joint


def _pinned(v: Verdict, stdout: str, tol_kg: float, kg: float,
            joint: str) -> None:
    """A deterministic lattice search: the recorded mass and joint."""
    mass, got = _payload_head(v, stdout)
    v.expect(mass is not None and abs(mass - kg) <= tol_kg,
             f"max_payload_kg {mass!r}, expected {kg}")
    v.expect(got == joint, f"limiting joint {got!r}, expected {joint}")


def check_payload_grid(v: Verdict, stdout: str, tol_kg: float) -> None:
    """10-degree worst-case sweep: the recorded mass bound by joint 5."""
    _pinned(v, stdout, tol_kg, PAYLOAD_10DEG_KG, str(PAYLOAD_10DEG_JOINT))


def check_payload_csv(v: Verdict, stdout: str, out_dir: Path,
                      tol_kg: float) -> None:
    """15-degree sweep: the stated mass and joint, and a per-pose CSV whose
    minimum cap agrees with it."""
    _pinned(v, stdout, tol_kg, PAYLOAD_15DEG_KG, str(PAYLOAD_15DEG_JOINT))
    try:
        text = (out_dir / "payload_sweep.csv").read_text(encoding="utf-8")
    except OSError as exc:
        v.wrong(f"payload_sweep.csv missing: {exc}")
        return
    _manifest_matches(v, out_dir, "payload_sweep.csv", text.encode("utf-8"))
    table = list(csv.reader(text.splitlines()))
    if not v.expect(len(table) == PAYLOAD_15DEG_POSES + 1,
                    f"{len(table) - 1} CSV rows, expected "
                    f"{PAYLOAD_15DEG_POSES}"):
        return
    caps, limiting, not_plain = [], [], 0
    for row in table[1:]:
        cell = row[6]
        try:
            caps.append(float(cell))
        except ValueError:
            m = _NP_SCALAR.match(cell)
            if m is None:
                v.wrong(f"cap_kg cell {cell!r} is not a number")
                return
            not_plain += 1
            caps.append(float(m.group(1)))
        limiting.append(row[7])
    if not_plain:
        v.unusable(f"{not_plain} of {len(caps)} cap_kg cells are not plain "
                   f"floats (e.g. {table[1][6]!r})")
    i = int(np.argmin(caps))
    v.expect(abs(caps[i] - PAYLOAD_15DEG_KG) <= tol_kg,
             f"minimum cap_kg {caps[i]!r} not within {tol_kg} of "
             f"{PAYLOAD_15DEG_KG}")
    v.expect(limiting[i] == str(PAYLOAD_15DEG_JOINT),
             f"minimum cap limited by joint {limiting[i]!r}")


def check_payload_limit23(v: Verdict, stdout: str, tol_kg: float) -> None:
    """Shoulder/elbow-only budgets: the recorded mass bound by joint 3."""
    _pinned(v, stdout, tol_kg, PAYLOAD_J23_KG, str(PAYLOAD_J23_JOINT))


# --------------------------------------------------------------------------
# design_session
# --------------------------------------------------------------------------

def check_static_report(v: Verdict, arm, q: np.ndarray, report) -> None:
    """Required torques equal the reference holding torques at the arm's
    configured payload; utilization and limiting joint follow from them."""
    ref = np.abs(reference_gravity_torques(arm, q.reshape(1, 6),
                                           arm.mass_model.payload)[0])
    err = float(np.max(np.abs(report.required - ref)))
    v.expect(err <= TORQUE_TOL_NM,
             f"static report torques differ from reference by {err:.3e} N.m")
    util = ref / report.available
    util_tol = TORQUE_TOL_NM / float(np.min(report.available))
    err = float(np.max(np.abs(report.utilization - util)))
    v.expect(err <= util_tol,
             f"static report utilization differs from reference by {err:.3e}")
    v.expect(util[report.limiting_joint - 1] >= np.max(util) - util_tol,
             f"static report limiting joint {report.limiting_joint}")


def check_fixed_payload(v: Verdict, arm, q: np.ndarray, cap,
                        available: np.ndarray, tol_kg: float) -> None:
    """Fixed-pose payload: feasible under the reference torques, infeasible
    one bisection tolerance above, bound by the reference's worst joint."""
    q = q.reshape(1, 6)
    base = reference_gravity_torques(arm, q, 0.0)[0]
    per_kg = reference_gravity_torques(arm, q, 1.0)[0] - base

    def util(m: float) -> np.ndarray:
        return np.abs(base + m * per_kg) / available

    v.expect(cap.policy == "fixed", f"payload policy {cap.policy!r}")
    v.expect(bool(np.all(util(cap.mass) <= 1.0 + 1e-9)),
             f"payload {cap.mass!r} kg overloads a joint")
    if cap.mass > 0.0 or np.all(util(0.0) <= 1.0):
        v.expect(bool(np.any(util(cap.mass + 1.01 * tol_kg) > 1.0)),
                 f"payload {cap.mass!r} kg is not the largest within "
                 f"{tol_kg} kg")
    at_cap = util(cap.mass)
    v.expect(at_cap[cap.limiting_joint - 1] >= np.max(at_cap) - 1e-9,
             f"payload limiting joint {cap.limiting_joint}")
