from __future__ import annotations

import math

import numpy as np
import pytest

from armkit import cli, drivetrain, kinematics, model, steppersim
from armkit.errors import DegenerateFitError
from armkit.steppersim import (DEFAULT_CALIBRATION, MotionCycle, NoiseModel,
                               ZERO_NOISE)


# ---------------------------------------------------------------------------
# noise model and calibration
# ---------------------------------------------------------------------------

def test_noise_model_is_affine_in_rate() -> None:
    noise = NoiseModel(sigma0=1e-4, k=2e-7)
    assert noise.sigma(0.0) == pytest.approx(1e-4, abs=0.0)
    assert noise.sigma(1000.0) == pytest.approx(3e-4, rel=1e-12)


def test_noise_model_rejects_negative_parameters() -> None:
    with pytest.raises(ValueError):
        NoiseModel(sigma0=-1e-4, k=0.0)
    with pytest.raises(ValueError):
        NoiseModel(sigma0=0.0, k=-1e-7)


def test_calibration_solves_the_two_point_anchors_exactly() -> None:
    noise = steppersim.calibrate_noise(DEFAULT_CALIBRATION)
    assert noise.sigma0 == pytest.approx(0.21075e-3, rel=1e-9)
    assert noise.k == pytest.approx(1.505e-7, rel=1e-9)
    # the fitted line reproduces both anchor points
    for rate, sigma in DEFAULT_CALIBRATION:
        assert noise.sigma(rate) == pytest.approx(sigma, rel=1e-9)


def test_default_noise_uses_the_shipped_anchors() -> None:
    a = steppersim.default_noise()
    b = steppersim.calibrate_noise(DEFAULT_CALIBRATION)
    assert a.sigma0 == b.sigma0
    assert a.k == b.k


def test_calibration_rejects_degenerate_samples() -> None:
    with pytest.raises(DegenerateFitError):
        steppersim.calibrate_noise([(500.0, 0.3e-3)])
    with pytest.raises(DegenerateFitError):
        steppersim.calibrate_noise([(500.0, 0.3e-3), (500.0, 0.4e-3)])


def test_calibration_clamps_negative_slope_to_zero() -> None:
    noise = steppersim.calibrate_noise([(500.0, 0.5e-3), (2500.0, 0.2e-3)])
    assert noise.k == 0.0
    assert noise.sigma0 >= 0.0


# ---------------------------------------------------------------------------
# single cycles
# ---------------------------------------------------------------------------

def test_noise_free_out_and_back_returns_exactly(arm: model.ArmDescription) -> None:
    cycle = steppersim.default_cycle(1500.0)
    out = steppersim.simulate_cycle(arm, cycle, noise=ZERO_NOISE, seed=0)
    assert out.deviation == 0.0
    assert out.missed_steps == 0
    assert np.array_equal(out.final_q, np.asarray(steppersim.DEFAULT_REFERENCE_Q))


def test_commanded_steps_quantize_to_half_microstep(arm: model.ArmDescription) -> None:
    ref = np.asarray(steppersim.DEFAULT_REFERENCE_Q)
    target = np.asarray(steppersim.DEFAULT_TARGET_Q)
    cycle = MotionCycle(reference=ref, waypoints=((target, 800.0),),
                        return_to_reference=False)
    out = steppersim.simulate_cycle(arm, cycle, noise=ZERO_NOISE, seed=0)
    micro = drivetrain.microstep_sizes(arm)
    err = np.abs(out.final_q - target)
    assert np.all(err <= micro / 2 + 1e-15)


def test_overload_sheds_steps_and_drifts(arm: model.ArmDescription) -> None:
    cycle = steppersim.default_cycle(1500.0)
    out = steppersim.simulate_cycle(arm, cycle, payload=5.0, noise=ZERO_NOISE,
                                    seed=0)
    assert out.missed_steps == 515
    assert out.deviation > 0.0


def test_full_stall_rule_sheds_at_least_as_many_steps(arm: model.ArmDescription) -> None:
    cycle = steppersim.default_cycle(1500.0)
    prop = steppersim.simulate_cycle(arm, cycle, payload=5.0, noise=ZERO_NOISE)
    hard_noise = NoiseModel(sigma0=0.0, k=0.0, margin_rule="full_stall")
    hard = steppersim.simulate_cycle(arm, cycle, payload=5.0, noise=hard_noise)
    assert hard.missed_steps >= prop.missed_steps > 0


def test_cycle_validation_rejects_bad_commands(arm: model.ArmDescription) -> None:
    ref = np.asarray(steppersim.DEFAULT_REFERENCE_Q)
    bad_rate = MotionCycle(reference=ref, waypoints=((ref, 0.0),))
    with pytest.raises(ValueError):
        steppersim.simulate_cycle(arm, bad_rate)
    lim = model.limits_array(arm)
    outside = lim[:, 1] + 0.5
    bad_target = MotionCycle(reference=ref, waypoints=((outside, 500.0),))
    with pytest.raises(ValueError):
        steppersim.simulate_cycle(arm, bad_target)


def test_probe_axis_none_uses_euclidean_norm(arm: model.ArmDescription) -> None:
    cycle = steppersim.default_cycle(1000.0)
    out = steppersim.simulate_cycle(arm, cycle, noise=ZERO_NOISE, seed=0,
                                    probe=None)
    assert out.deviation == 0.0


# ---------------------------------------------------------------------------
# repeatability experiments
# ---------------------------------------------------------------------------

def test_experiment_is_bit_reproducible(arm: model.ArmDescription) -> None:
    a = steppersim.repeatability_experiment(arm, cycles_per_speed=5, seed=42)
    b = steppersim.repeatability_experiment(arm, cycles_per_speed=5, seed=42)
    assert np.array_equal(a.deviations, b.deviations)
    assert np.array_equal(a.stds, b.stds)
    c = steppersim.repeatability_experiment(arm, cycles_per_speed=5, seed=43)
    assert not np.array_equal(a.deviations, c.deviations)


def test_experiment_layout_and_std_definition(arm: model.ArmDescription) -> None:
    res = steppersim.repeatability_experiment(arm, speeds=(500.0, 2500.0),
                                              cycles_per_speed=6, seed=3)
    assert res.speeds == (500.0, 2500.0)
    assert len(res.deviations) == 2
    assert all(d.shape == (6,) for d in res.deviations)
    assert res.stds.shape == (2,)
    assert res.stds[0] == pytest.approx(float(np.std(res.deviations[0], ddof=1)),
                                        rel=1e-12)
    assert res.grand_mean == pytest.approx(
        float(np.mean(np.abs(res.deviations))), rel=1e-12)
    assert res.seed == 3


def test_zero_noise_experiment_has_zero_spread(arm: model.ArmDescription) -> None:
    res = steppersim.repeatability_experiment(arm, speeds=(500.0, 1500.0),
                                              cycles_per_speed=4,
                                              noise=ZERO_NOISE, seed=0)
    assert np.array_equal(res.deviations, np.zeros((2, 4)))
    assert np.array_equal(res.stds, np.zeros(2))


def test_experiment_validates_arguments(arm: model.ArmDescription) -> None:
    with pytest.raises(ValueError):
        steppersim.repeatability_experiment(arm, speeds=())
    with pytest.raises(ValueError):
        steppersim.repeatability_experiment(arm, cycles_per_speed=1)


def test_spread_grows_with_commanded_speed(arm: model.ArmDescription) -> None:
    res = steppersim.repeatability_experiment(arm, speeds=(500.0, 2500.0),
                                              cycles_per_speed=60, seed=0)
    assert float(res.stds[1]) > float(res.stds[0])


def test_csv_export_round_trips(arm: model.ArmDescription,
                                capsys: pytest.CaptureFixture,
                                tmp_path) -> None:
    rc = cli.run(["repeat-sim", "--speeds", "500,1000", "--cycles", "3",
                  "--seed", "1", "--format", "csv", "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    res = steppersim.repeatability_experiment(arm, speeds=(500.0, 1000.0),
                                              cycles_per_speed=3, seed=1)
    text = (tmp_path / "repeat_sim.csv").read_text(encoding="utf-8")
    lines = text.strip().splitlines()
    assert lines[0] == "speed_steps_per_s,cycle,deviation_mm"
    assert len(lines) == 1 + 2 * 3
    speed, cycle, dev_mm = lines[1].split(",")
    assert float(speed) == 500.0
    assert int(cycle) == 0
    assert float(dev_mm) == pytest.approx(float(res.deviations[0][0]) * 1e3,
                                          rel=1e-15)
