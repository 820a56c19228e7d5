"""Monte-Carlo simulation of microstepped motion cycles.

Models three effects on top of the rigid kinematics:

* quantization of every joint move to whole microsteps (with residue carry,
  so repeated legs do not accumulate rounding drift),
* missed steps when the gravity torque required at the commanded pose
  exceeds the motor's torque-speed-curve budget at the commanded rate,
* per-cycle positional jitter whose std grows affinely with step rate,
  sigma(v) = sigma0 + k*v, calibrated against bench measurements.

The jitter model is a calibration, not a physical claim: the default anchors
(0.286 mm at 500 steps/s, 0.587 mm at 2500 steps/s) come from dial-indicator
measurements of a real build and are used to pin sigma0 and k, so simulated
spreads at those rates are fitted, not independently predicted.

Deviations are measured as signed displacement along a fixed probe axis,
mimicking a dial indicator; pass ``probe=None`` for the full 3D norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import drivetrain, statics
from .errors import DegenerateFitError, require_finite
from .kinematics import fk_frames
from .model import ArmDescription, limits_array

#: Measured (step rate, deviation std in meters) anchor points used to
#: calibrate the default noise model.
DEFAULT_CALIBRATION: Tuple[Tuple[float, float], ...] = (
    (500.0, 0.286e-3),
    (2500.0, 0.587e-3),
)

#: Step-rate ladder for the repeatability experiment (motor steps/s).
DEFAULT_SPEEDS: Tuple[float, ...] = (500.0, 1000.0, 1500.0, 2000.0, 2500.0)

#: Reference and excursion poses (radians) for the default out-and-back cycle.
DEFAULT_REFERENCE_Q = tuple(math.radians(v) for v in (0, 30, -30, 0, -30, 0))
DEFAULT_TARGET_Q = tuple(math.radians(v) for v in (25, 60, -60, 15, -60, 10))

#: Dial-indicator probe direction (base-frame +x).
DEFAULT_PROBE = (1.0, 0.0, 0.0)

MARGIN_RULES = ("proportional", "full_stall")


@dataclass(frozen=True)
class NoiseModel:
    """Affine step-rate noise plus the missed-step margin rule.

    ``sigma(v) = sigma0 + k * v`` is the std (meters) of the per-cycle
    positional jitter at motor step rate ``v``. ``margin_rule`` selects how
    torque overload converts to missed steps: ``"proportional"`` drops the
    deficit fraction of the leg's steps, ``"full_stall"`` drops the whole leg.
    """

    sigma0: float
    k: float
    margin_rule: str = "proportional"

    def __post_init__(self):
        require_finite(self.sigma0, "sigma0", ">= 0")
        require_finite(self.k, "k", ">= 0")
        if self.margin_rule not in MARGIN_RULES:
            raise ValueError(f"margin_rule must be one of {MARGIN_RULES}")

    def sigma(self, rate: float) -> float:
        sigma = self.sigma0 + self.k * rate
        if not math.isfinite(sigma):
            raise ValueError(f"jitter std at {rate} steps/s is not finite")
        return sigma


ZERO_NOISE = NoiseModel(sigma0=0.0, k=0.0)


def default_noise() -> NoiseModel:
    """Noise model calibrated to the default measurement anchors."""
    return calibrate_noise(DEFAULT_CALIBRATION)


@dataclass(frozen=True)
class MotionCycle:
    """Out-and-back joint trajectory.

    ``waypoints`` is a sequence of (joint target in radians, commanded motor
    step rate in steps/s) legs executed from ``reference``; when
    ``return_to_reference`` is set a final leg back to ``reference`` at the
    last commanded rate is appended.
    """

    reference: Tuple[float, ...]
    waypoints: Tuple[Tuple[Tuple[float, ...], float], ...]
    return_to_reference: bool = True

    def legs(self):
        """Expanded (target q, rate) legs including the return move."""
        out = [(np.asarray(q, dtype=float), float(rate))
               for q, rate in self.waypoints]
        if self.return_to_reference and out:
            out.append((np.asarray(self.reference, dtype=float), out[-1][1]))
        return out


def default_cycle(rate: float) -> MotionCycle:
    """Single-excursion cycle between the default reference/target poses."""
    return MotionCycle(reference=DEFAULT_REFERENCE_Q,
                       waypoints=((DEFAULT_TARGET_Q, float(rate)),),
                       return_to_reference=True)


@dataclass(frozen=True)
class CycleResult:
    deviation: float        # m, signed along the probe axis (or 3D norm)
    missed_steps: int       # whole microsteps dropped across all legs/joints
    final_q: np.ndarray     # achieved joint angles (radians)


@dataclass(frozen=True)
class RepeatabilityResult:
    speeds: Tuple[float, ...]
    deviations: Tuple[np.ndarray, ...]  # per speed, one deviation per cycle
    stds: np.ndarray                    # per speed, ddof=1 (m)
    grand_mean: float                   # mean |deviation| over all cycles (m)
    seed: int
    missed_steps: Tuple[int, ...]       # per speed, summed over its cycles


def _settle(arm: ArmDescription, cycle: MotionCycle, payload: float,
            noise: NoiseModel):
    """Deterministic part of one cycle: everything but the jitter draw.

    Each leg's joint moves are quantized to whole microsteps against a
    running per-joint step tally, so rounding residue carries between legs
    and the commanded total never drifts more than half a microstep from the
    exact trajectory. At each leg the gravity torque required at the leg
    target is compared to the torque available at the commanded rate;
    overloads drop whole microsteps per the margin rule, always against the
    direction of motion. A leg rate that is not finite and > 0, a target
    that is not six in-limit angles, or a payload whose required torque
    overflows a float raises ValueError.

    Returns (delta, missed, achieved, sigma): the tool-point displacement
    from the reference (m), the missed microsteps, the achieved joint angles
    and the jitter std at the last leg's rate.
    """
    lim = limits_array(arm)
    micro = drivetrain.microstep_sizes(arm)  # rad per microstep, (6,)
    ref = np.asarray(cycle.reference, dtype=float)
    commanded = np.zeros(6, dtype=np.int64)  # whole microsteps from reference
    lost = np.zeros(6, dtype=np.int64)       # signed missed steps
    missed_total = 0
    legs = cycle.legs()
    for target, rate in legs:
        require_finite(rate, "commanded step rate", "> 0")
        if target.shape != (6,):
            raise ValueError("cycle targets must have six joint angles")
        if (np.any(target < lim[:, 0] - 1e-12)
                or np.any(target > lim[:, 1] + 1e-12)):
            raise ValueError("cycle target outside joint limits")
        exact_total = (target - ref) / micro
        n_leg = np.rint(exact_total).astype(np.int64) - commanded
        commanded += n_leg

        with np.errstate(over="ignore"):  # refused just below
            required = np.abs(statics.gravity_torques(arm, target, payload))
        require_finite(required, f"required joint torque at {payload:g} kg")
        avail = statics.available_torques(arm, rate)
        for j in range(6):
            steps = int(abs(n_leg[j]))
            if steps == 0 or required[j] <= avail[j]:
                continue
            if noise.margin_rule == "full_stall" or avail[j] <= 0:
                miss = steps
            else:
                deficit = 1.0 - avail[j] / required[j]
                miss = min(steps, int(math.ceil(steps * deficit)))
            missed_total += miss
            lost[j] += miss * (1 if n_leg[j] > 0 else -1)

    achieved = ref + micro * (commanded - lost)
    delta = fk_frames(arm, achieved)[6][:3, 3] - fk_frames(arm, ref)[6][:3, 3]
    sigma = noise.sigma(legs[-1][1]) if legs else 0.0
    return delta, missed_total, achieved, sigma


def _deviation(delta: np.ndarray, sigma: float,
               probe: Optional[Sequence[float]], seed) -> float:
    """Settled displacement ``delta`` plus one seeded jitter draw of std
    ``sigma``, measured along ``probe`` (or as a 3D norm when None)."""
    rng = np.random.default_rng(seed)
    if probe is not None:
        axis = np.asarray(probe, dtype=float)
        axis = axis / np.linalg.norm(axis)
        return float(delta @ axis) + sigma * rng.standard_normal()
    jitter = sigma / math.sqrt(3.0) * rng.standard_normal(3)
    return float(np.linalg.norm(delta + jitter))


def simulate_cycle(arm: ArmDescription,
                   cycle: MotionCycle,
                   payload: float = 0.0,
                   noise: NoiseModel = ZERO_NOISE,
                   seed=0,
                   probe: Optional[Sequence[float]] = DEFAULT_PROBE
                   ) -> CycleResult:
    """Execute one cycle and measure the end deviation from the reference.

    The legs settle as in :func:`_settle`; the final pose's displacement from
    the reference is measured along ``probe`` (or as a 3D norm when ``probe``
    is None) and one seeded jitter draw at the last leg's rate is added.
    """
    delta, missed, achieved, sigma = _settle(arm, cycle, payload, noise)
    return CycleResult(deviation=_deviation(delta, sigma, probe, seed),
                       missed_steps=missed, final_q=achieved)


def repeatability_experiment(arm: ArmDescription,
                             speeds: Sequence[float] = DEFAULT_SPEEDS,
                             cycles_per_speed: int = 10,
                             noise: Optional[NoiseModel] = None,
                             seed: int = 0,
                             payload: float = 0.0,
                             probe: Optional[Sequence[float]] = DEFAULT_PROBE
                             ) -> RepeatabilityResult:
    """Seeded Monte-Carlo sweep of :func:`default_cycle` over a speed ladder.

    Cycles restart from the reference pose, so each speed is settled once
    and its cycles differ only by their jitter draw. Every (speed, cycle)
    pair draws from its own child seed spawned from ``seed`` by index, so
    each deviation equals :func:`simulate_cycle`'s with that child seed, bit
    for bit, whatever the execution order.

    Args:
        speeds: motor step rates (steps/s); must be non-empty.
        cycles_per_speed: Monte-Carlo cycles per speed; must be >= 2 so the
            sample std is defined.
        noise: jitter model; defaults to the calibrated :func:`default_noise`.
    """
    if len(speeds) == 0:
        raise ValueError("speeds must be non-empty")
    if cycles_per_speed < 2:
        raise ValueError("cycles_per_speed must be >= 2")
    if noise is None:
        noise = default_noise()

    all_devs, missed = [], []
    for si, speed in enumerate(speeds):
        delta, miss, _, sigma = _settle(arm, default_cycle(speed), payload,
                                        noise)
        all_devs.append(np.array([
            _deviation(delta, sigma, probe,
                       np.random.SeedSequence(entropy=seed, spawn_key=(si, ci)))
            for ci in range(cycles_per_speed)]))
        missed.append(miss * cycles_per_speed)

    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        stds = np.array([np.std(d, ddof=1) for d in all_devs])
        grand = float(np.mean(np.abs(np.concatenate(all_devs))))
    if not (np.all(np.isfinite(stds)) and math.isfinite(grand)):
        raise ValueError(f"deviation statistics overflow: stds {stds.tolist()}"
                         f" m, mean |deviation| {grand} m")
    return RepeatabilityResult(speeds=tuple(float(s) for s in speeds),
                               deviations=tuple(all_devs), stds=stds,
                               grand_mean=grand, seed=seed,
                               missed_steps=tuple(missed))


def calibrate_noise(samples: Sequence[Tuple[float, float]]) -> NoiseModel:
    """Least-squares fit of ``sigma(v) = sigma0 + k*v`` to (rate, std) pairs.

    Args:
        samples: at least two (step rate, deviation std in meters) pairs.

    Raises:
        DegenerateFitError: fewer than two samples, or all rates equal, so
            the affine coefficients are not identifiable.

    Negative fitted coefficients (possible when the data trend downward) are
    clamped to zero to keep the model a valid std.
    """
    pts = [(float(v), float(s)) for v, s in samples]
    if len(pts) < 2:
        raise DegenerateFitError("need at least two (rate, std) samples")
    rates = np.array([p[0] for p in pts])
    stds = np.array([p[1] for p in pts])
    if np.ptp(rates) == 0.0:
        raise DegenerateFitError("all sample rates are equal; slope is "
                                 "unidentifiable")
    design = np.column_stack([np.ones_like(rates), rates])
    (sigma0, k), *_ = np.linalg.lstsq(design, stds, rcond=None)
    return NoiseModel(sigma0=max(float(sigma0), 0.0),
                      k=max(float(k), 0.0))
