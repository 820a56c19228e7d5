from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from armkit import cli, kinematics, model, statics, steppersim
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
    with pytest.raises(ValueError, match="not finite"):
        NoiseModel(sigma0=1e308, k=1e308).sigma(10.0)


def test_noise_model_rejects_negative_parameters() -> None:
    with pytest.raises(ValueError):
        NoiseModel(sigma0=-1e-4, k=0.0)
    with pytest.raises(ValueError):
        NoiseModel(sigma0=0.0, k=-1e-7)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            NoiseModel(sigma0=bad, k=0.0)
        with pytest.raises(ValueError):
            NoiseModel(sigma0=1e-4, k=bad)


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


def test_cycles_always_return_and_overloads_shed_the_deficit() -> None:
    # neither the whole-leg margin rule nor a one-way cycle is settable
    with pytest.raises(TypeError, match="margin_rule"):
        NoiseModel(sigma0=0.0, k=0.0, margin_rule="full_stall")
    ref = steppersim.DEFAULT_REFERENCE_Q
    with pytest.raises(TypeError, match="return_to_reference"):
        MotionCycle(reference=ref, waypoints=(), return_to_reference=False)
    legs = steppersim.default_cycle(800.0).legs()
    assert [rate for _, rate in legs] == [800.0, 800.0]
    assert legs[-1][0].tolist() == list(ref)


def test_overload_sheds_steps_and_drifts(arm: model.ArmDescription) -> None:
    cycle = steppersim.default_cycle(1500.0)
    out = steppersim.simulate_cycle(arm, cycle, payload=5.0, noise=ZERO_NOISE,
                                    seed=0)
    assert out.missed_steps == 515
    assert out.deviation > 0.0


def test_cycle_validation_rejects_bad_commands(arm: model.ArmDescription) -> None:
    ref = np.asarray(steppersim.DEFAULT_REFERENCE_Q)
    for rate in (0.0, math.nan, math.inf):
        bad_rate = MotionCycle(reference=ref, waypoints=((ref, rate),))
        with pytest.raises(ValueError):
            steppersim.simulate_cycle(arm, bad_rate)
    lim = model.limits_array(arm)
    outside = lim[:, 1] + 0.5
    bad_target = MotionCycle(reference=ref, waypoints=((outside, 500.0),))
    with pytest.raises(ValueError):
        steppersim.simulate_cycle(arm, bad_target)


@pytest.mark.parametrize("probe", [(0.0, 0.0, 0.0), (math.nan, 0.0, 0.0),
                                   (math.inf, 0.0, 0.0), (1.0, 0.0)],
                         ids=["zero", "nan", "inf", "two-values"])
def test_a_bad_probe_raises_naming_it(arm: model.ArmDescription,
                                      probe: tuple) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^probe must be three finite"):
            steppersim.simulate_cycle(arm, steppersim.default_cycle(500.0),
                                      probe=probe)
        with pytest.raises(ValueError, match="^probe must be three finite"):
            steppersim.repeatability_experiment(arm, cycles_per_speed=2,
                                                probe=probe)


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


_PROBES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), None)


@settings(max_examples=30, deadline=None)
@given(speeds=st.lists(st.sampled_from(steppersim.DEFAULT_SPEEDS)
                       | st.floats(100.0, 3000.0), min_size=1, max_size=3),
       cycles=st.integers(2, 5),
       payload=st.floats(0.0, 6.0),
       probe=st.sampled_from(_PROBES),
       seed=st.integers(0, 2**32 - 1))
def test_experiment_matches_the_per_cycle_reference(
        arm: model.ArmDescription, speeds, cycles, payload, probe,
        seed) -> None:
    noise = steppersim.default_noise()
    res = steppersim.repeatability_experiment(
        arm, speeds=speeds, cycles_per_speed=cycles, noise=noise, seed=seed,
        payload=payload, probe=probe)
    every = []
    for si, speed in enumerate(speeds):
        ref = [steppersim.simulate_cycle(
                   arm, steppersim.default_cycle(speed), payload=payload,
                   noise=noise, probe=probe,
                   seed=np.random.SeedSequence(entropy=seed, spawn_key=(si, ci)))
               for ci in range(cycles)]
        devs = [r.deviation for r in ref]
        assert res.deviations[si].tolist() == devs
        assert res.stds[si] == np.std(devs, ddof=1)
        assert res.missed_steps[si] == sum(r.missed_steps for r in ref)
        every += devs
    assert res.grand_mean == float(np.mean(np.abs(every)))


def test_experiment_settles_each_speed_once(arm: model.ArmDescription,
                                            monkeypatch) -> None:
    calls = []
    real = statics.gravity_torques

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(statics, "gravity_torques", counted)
    speeds = (500.0, 2500.0, 1500.0)
    for cycles in (2, 9):
        calls.clear()
        steppersim.repeatability_experiment(arm, speeds=speeds,
                                            cycles_per_speed=cycles,
                                            payload=0.6)
        # one call per leg of the out-and-back cycle, once per speed
        assert len(calls) == 2 * len(speeds)


def _per_cycle_reference(arm, speeds, cycles, seed, payload=0.0,
                         noise=None, probe=steppersim.DEFAULT_PROBE):
    """Each speed's deviations from :func:`simulate_cycle`, one child seed
    per cycle."""
    noise = steppersim.default_noise() if noise is None else noise
    return [[steppersim.simulate_cycle(
                 arm, steppersim.default_cycle(speed), payload=payload,
                 noise=noise, probe=probe,
                 seed=np.random.SeedSequence(entropy=seed, spawn_key=(si, ci))
             ).deviation for ci in range(cycles)]
            for si, speed in enumerate(speeds)]


def test_experiments_at_one_seed_share_their_draws(
        arm: model.ArmDescription) -> None:
    steppersim._jitter_normals.cache_clear()
    seed, speeds, cycles = 21, (500.0, 1500.0, 2500.0), 4
    other = NoiseModel(sigma0=1e-4, k=3e-7)
    runs = [dict(payload=0.0), dict(payload=0.6),
            dict(payload=0.6, noise=other),
            dict(payload=0.6, probe=None),
            dict(payload=0.6, speeds=speeds[:2])]
    for kw in runs:
        kw = {"speeds": speeds, **kw}
        res = steppersim.repeatability_experiment(
            arm, cycles_per_speed=cycles, seed=seed, **kw)
        ref = _per_cycle_reference(arm, cycles=cycles, seed=seed, **kw)
        assert [d.tolist() for d in res.deviations] == ref, kw
    # the second payload and the other noise model drew nothing
    info = steppersim._jitter_normals.cache_info()
    assert (info.hits, info.misses) == (2, 3)
    z = steppersim._jitter_normals(seed, len(speeds), cycles, 1)
    assert z.shape == (3, 4, 1) and not z.flags.writeable
    with pytest.raises(ValueError):
        z[0, 0, 0] = 0.0


def test_seeds_other_than_int_are_drawn_afresh(
        arm: model.ArmDescription) -> None:
    steppersim._jitter_normals.cache_clear()
    speeds = (500.0, 2500.0)
    for probe in (steppersim.DEFAULT_PROBE, None):
        res = steppersim.repeatability_experiment(
            arm, speeds=speeds, cycles_per_speed=3, seed=[3, 4], probe=probe)
        assert [d.tolist() for d in res.deviations] == _per_cycle_reference(
            arm, speeds, 3, [3, 4], probe=probe)
    # seed=None takes fresh OS entropy for every experiment
    a, b = (steppersim.repeatability_experiment(arm, speeds=speeds,
                                                cycles_per_speed=3, seed=None)
            for _ in range(2))
    assert not np.array_equal(a.deviations, b.deviations)
    assert steppersim._jitter_normals.cache_info().currsize == 0


def test_writing_into_deviations_leaves_the_next_experiment(
        arm: model.ArmDescription) -> None:
    first = steppersim.repeatability_experiment(arm, cycles_per_speed=3,
                                                seed=8)
    for probe in (steppersim.DEFAULT_PROBE, None):
        res = steppersim.repeatability_experiment(arm, cycles_per_speed=3,
                                                  seed=8, probe=probe)
        for d in res.deviations:
            d[:] = 1.0
    again = steppersim.repeatability_experiment(arm, cycles_per_speed=3,
                                                seed=8)
    assert np.array_equal(again.deviations, first.deviations)
    assert again.deviations[0].tolist() != [1.0] * 3


def test_seeds_numpy_refuses_still_raise(arm: model.ArmDescription,
                                         capsys: pytest.CaptureFixture) -> None:
    for _ in range(2):  # a failed draw is not cached
        with pytest.raises(ValueError, match="expected non-negative integer"):
            steppersim.repeatability_experiment(arm, cycles_per_speed=2,
                                                seed=-1)
    # the first speed settles before the draw, the second after it
    with pytest.raises(ValueError, match="commanded step rate"):
        steppersim.repeatability_experiment(arm, speeds=(math.inf, 500.0),
                                            cycles_per_speed=2, seed=-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        steppersim.repeatability_experiment(arm, speeds=(500.0, math.inf),
                                            cycles_per_speed=2, seed=-1)
    # a float seed equal to the cached int seed is still refused
    steppersim.repeatability_experiment(arm, cycles_per_speed=2, seed=1)
    with pytest.raises(TypeError):
        steppersim.repeatability_experiment(arm, cycles_per_speed=2,
                                            seed=1.0)
    # the CLI refuses a negative seed before any draw, naming the flag
    assert cli.run(["repeat-sim", "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --seed must be >= 0, got -1\n"


def test_experiment_keeps_the_missed_step_totals(arm: model.ArmDescription) -> None:
    res = steppersim.repeatability_experiment(arm, cycles_per_speed=3,
                                              payload=0.6)
    assert res.missed_steps == (0, 0, 0, 0, 11 * 3)
    res = steppersim.repeatability_experiment(arm, speeds=(1500.0,),
                                              cycles_per_speed=4, payload=5.0)
    assert res.missed_steps == (515 * 4,)


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
