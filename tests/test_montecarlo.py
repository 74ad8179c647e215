import math

import numpy as np
import pytest

from qfog import (
    DetectionSpec,
    McConfig,
    McResult,
    PhasePoint,
    SpuriousCount,
    WindowMode,
    phase_shift_spurious,
    rng_stream,
    shot_noise,
    simulate_experiment,
    simulate_uncorrelated,
    spurious_coincidences_per_detector,
)
from qfog import montecarlo
from qfog.montecarlo import EXPERIMENT_BLOCK


def test_rng_stream_is_reproducible():
    a = rng_stream(1234, 7).random(1000)
    b = rng_stream(1234, 7).random(1000)
    assert np.array_equal(a, b)
    c = rng_stream(1234, 8).random(1000)
    assert not np.array_equal(a, c)


def test_rng_streams_look_independent():
    x = rng_stream(99, 0).random(100_000)
    y = rng_stream(99, 1).random(100_000)
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.01


def test_zero_rates_give_zero_coincidences():
    # Both detectors silent, then one: empty streams count zero in either mode.
    for mode in WindowMode:
        for rates in ([0.0, 0.0], [0.0, 2000.0]):
            result = simulate_uncorrelated(rates, DetectionSpec(1e-9, 1.0, mode), McConfig(seed=1, trials=20))
            assert np.all(result.per_trial == 0.0), (mode, rates)
            assert result.analytic_prediction == 0.0
            assert result.z_score == 0.0


def test_vanishing_window_kills_coincidences():
    # 1e13 windows, inside the draw-resolution limit; expectation 2.5e-8 per trial.
    det = DetectionSpec(1e-13, 1.0)
    result = simulate_uncorrelated([500.0, 500.0], det, McConfig(seed=2, trials=20))
    assert result.per_trial.sum() == 0.0


def test_binned_mean_tracks_prediction():
    # Desk-scale rates: expectation ~40 per trial.
    det = DetectionSpec(1e-6, 10.0)
    result = simulate_uncorrelated([2000.0, 2000.0], det, McConfig(seed=3, trials=60))
    assert result.analytic_prediction == pytest.approx(40.0, rel=1e-9)
    assert 0.9 < result.mean_coincidences / result.analytic_prediction < 1.1
    assert abs(result.z_score) < 4.0


def test_benchmark_half_hour_oracle():
    # Direct event-stream check of the product formula at the published
    # operating point: 19 kHz per detector, 156 ps windows, 1800 s.
    det = DetectionSpec(156e-12, 1800.0)
    result = simulate_uncorrelated([19e3, 19e3], det, McConfig(seed=5, trials=6))
    assert result.analytic_prediction == pytest.approx(101.37, rel=1e-3)
    se = math.sqrt(max(result.variance, result.analytic_prediction) / 6)
    assert abs(result.mean_coincidences - result.analytic_prediction) < 3.0 * se


@pytest.mark.parametrize("jitter_s, t_meas_s, mode", [
    (156e-12, 18000.0, WindowMode.BINNED),
    (1e-18, 1.0, WindowMode.BINNED),
    (1e-18, 1.0, WindowMode.SLIDING),
], ids=["binned-156ps-18000s", "binned-1e-18s-1s", "sliding-1e-18s-1s"])
def test_window_count_guard(jitter_s, t_meas_s, mode):
    # Beyond 2**46 windows the uniform draw no longer resolves one window.
    det = DetectionSpec(jitter_s, t_meas_s, mode)
    with pytest.raises(ValueError, match="window count"):
        simulate_uncorrelated([1.0, 1.0], det, McConfig(seed=1, trials=1))


def test_memory_guard_refuses_before_drawing():
    # 2e13 arrivals per trial: petabytes as an event list, refused up front.
    det = DetectionSpec(1e-3, 10.0)
    with pytest.raises(ValueError, match="memory"):
        simulate_uncorrelated([1e12, 1e12], det, McConfig(seed=1, trials=1))


def test_sliding_exceeds_binned_on_identical_streams():
    # One default McConfig for both runs: the detection spec alone picks the mode.
    mc = McConfig(seed=7, trials=40)
    binned = simulate_uncorrelated([2000.0, 2000.0], DetectionSpec(1e-6, 10.0, WindowMode.BINNED), mc)
    sliding = simulate_uncorrelated([2000.0, 2000.0], DetectionSpec(1e-6, 10.0, WindowMode.SLIDING), mc)
    assert np.all(sliding.per_trial >= binned.per_trial)
    # Two detectors: the sliding window roughly doubles the count.
    ratio = sliding.mean_coincidences / binned.mean_coincidences
    assert 1.7 < ratio < 2.3


def test_disagreeing_mc_window_mode_rejected():
    det = DetectionSpec(1e-6, 10.0, WindowMode.SLIDING)
    with pytest.raises(ValueError, match="window_mode.*'binned'.*'sliding'"):
        simulate_uncorrelated([1.0, 1.0], det, McConfig(seed=1, trials=1, window_mode=WindowMode.BINNED))
    agreeing = McConfig(seed=1, trials=1, window_mode=WindowMode.SLIDING)
    assert simulate_uncorrelated([1.0, 1.0], det, agreeing).per_trial.size == 1


@pytest.mark.parametrize("counts, z", [([0, 0], 0.0), ([1, 1], math.inf), ([1, 0], 1.0)])
def test_from_counts_with_zero_prediction(counts, z):
    # Equal counts fall back to the zero Poisson variance of the prediction.
    assert McResult.from_counts(np.array(counts), 0.0).z_score == z


def test_three_detector_rate_scaling():
    # Tripling every rate must scale the mean as k**3 (within noise).
    det = DetectionSpec(1e-5, 10.0)
    mc = McConfig(seed=11, trials=200)
    low = simulate_uncorrelated([1000.0] * 3, det, mc)
    high = simulate_uncorrelated([2000.0] * 3, det, mc)
    assert high.analytic_prediction == pytest.approx(8 * low.analytic_prediction, rel=1e-9)
    n = mc.trials
    se_diff = math.sqrt(high.variance / n + 64.0 * low.variance / n)
    assert abs(high.mean_coincidences - 8.0 * low.mean_coincidences) < 3.0 * se_diff


def test_doubling_jitter_doubles_two_detector_mean():
    mc = McConfig(seed=13, trials=200)
    base = simulate_uncorrelated([5000.0, 5000.0], DetectionSpec(1e-6, 10.0), mc)
    double = simulate_uncorrelated([5000.0, 5000.0], DetectionSpec(2e-6, 10.0), mc)
    n = mc.trials
    se_diff = math.sqrt(double.variance / n + 4.0 * base.variance / n)
    assert abs(double.mean_coincidences - 2.0 * base.mean_coincidences) < 3.0 * se_diff


def test_workers_do_not_change_results():
    det = DetectionSpec(1e-6, 5.0)
    mc = McConfig(seed=17, trials=16)
    serial = simulate_uncorrelated([3000.0, 3000.0], det, mc, workers=1)
    parallel = simulate_uncorrelated([3000.0, 3000.0], det, mc, workers=3)
    assert np.array_equal(serial.per_trial, parallel.per_trial)
    assert serial.mean_coincidences == parallel.mean_coincidences
    assert serial.z_score == parallel.z_score


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in this process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.mark.parametrize("workers, trials, size", [(500, 2, 2), (3, 16, 3), (2, 1, None)])
def test_pool_is_sized_by_trials_in_flight(monkeypatch, workers, trials, size):
    # A pool starts all its processes at once: never more than there are trials.
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", _SerialPool)
    det, mc = DetectionSpec(1e-6, 1.0), McConfig(seed=41, trials=trials)
    pooled = simulate_uncorrelated([3000.0, 3000.0], det, mc, workers=workers)
    assert _SerialPool.sizes == ([] if size is None else [size])
    serial = simulate_uncorrelated([3000.0, 3000.0], det, mc)
    assert np.array_equal(pooled.per_trial, serial.per_trial)


def test_prediction_uses_generalized_product():
    det = DetectionSpec(1e-6, 10.0)
    rates = [1000.0, 4000.0]
    result = simulate_uncorrelated(rates, det, McConfig(seed=19, trials=2))
    by_hand = spurious_coincidences_per_detector([r * 10.0 for r in rates], det).delta_pcc
    assert result.analytic_prediction == pytest.approx(by_hand, rel=1e-12)


def test_experiment_unbiased_at_quadrature():
    mc = McConfig(seed=23, trials=400)
    result = simulate_experiment(1e6, PhasePoint(math.pi / 4), 2, 1.0,
                                 SpuriousCount(0.0, 0.0), mc)
    assert result.n_failures == 0
    predicted_spread = shot_noise(2, noon_pairs=1e6)
    assert result.spread_rad == pytest.approx(predicted_spread, rel=0.10)
    assert abs(result.bias_rad) < 3.0 * result.spread_rad / math.sqrt(mc.trials)


def test_experiment_bias_matches_inversion():
    pairs, count = 7.2e6, SpuriousCount.from_count(101.3, 1800.0)
    mc = McConfig(seed=29, trials=400)
    result = simulate_experiment(pairs, PhasePoint(math.pi / 4), 2, 1.0, count, mc)
    predicted = phase_shift_spurious(pairs, math.pi / 4, 2, count).value_rad
    assert predicted == pytest.approx(-1.41e-5, rel=0.02)
    se = result.spread_rad / math.sqrt(mc.trials - result.n_failures)
    assert abs(result.bias_rad - predicted) < 3.0 * se


def test_experiment_reports_failures_at_maximum_cusp():
    mc = McConfig(seed=31, trials=100)
    result = simulate_experiment(1e5, PhasePoint(0.0), 2, 1.0,
                                 SpuriousCount.from_count(5.0, 1.0), mc)
    assert result.n_failures > 0
    assert result.failure_fraction == result.n_failures / 100
    finite = np.isfinite(result.estimates_rad).sum()
    assert finite + result.n_failures == mc.trials


def test_experiment_deterministic_and_worker_invariant():
    mc = McConfig(seed=37, trials=50)
    runs = [simulate_experiment(1e5, PhasePoint(math.pi / 4), 2, 0.98,
                                SpuriousCount.from_count(3.0, 1.0), mc, workers=w)
            for w in (1, 1, 4)]
    assert np.array_equal(runs[0].estimates_rad, runs[1].estimates_rad, equal_nan=True)
    assert np.array_equal(runs[0].estimates_rad, runs[2].estimates_rad, equal_nan=True)


def test_experiment_trial_depends_only_on_seed_and_index(monkeypatch):
    # Trials 0..9 agree whether the run ends inside the first block or after
    # a block boundary, and for any worker count; one generator per block.
    blocks = []
    monkeypatch.setattr(montecarlo, "rng_stream", lambda seed, b: blocks.append(b) or rng_stream(seed, b))
    count, point = SpuriousCount.from_count(3.0, 1.0), PhasePoint(math.pi / 4)
    runs = [simulate_experiment(1e5, point, 2, 0.98, count, McConfig(seed=43, trials=trials), workers=w)
            for trials in (10, EXPERIMENT_BLOCK + 7) for w in (1, 3)]
    assert blocks == [0, 0, 0, 1, 0, 1]
    assert runs[2].estimates_rad.size == EXPERIMENT_BLOCK + 7
    for run in runs[1:]:
        assert np.array_equal(run.estimates_rad[:10], runs[0].estimates_rad, equal_nan=True)


def _invert_fringe(k: float, m: int, coherence: float, order: int,
                   true_scaled: float) -> float:
    """Reference estimator: one count through the ideal fringe, branch by branch."""
    arg = (2.0 * k / m - 1.0) / coherence
    if abs(arg) > 1.0:
        return math.nan
    theta = math.acos(arg)
    best = math.nan
    for sign in (1.0, -1.0):
        n = round((true_scaled - sign * theta) / (2.0 * math.pi))
        cand = sign * theta + 2.0 * math.pi * n
        if math.isnan(best) or abs(cand - true_scaled) < abs(best - true_scaled):
            best = cand
    return best / order


@pytest.mark.parametrize("pairs, phase, coherence, delta_pcc, seed, trials", [
    (1e6, math.pi / 4, 1.0, 0.0, 23, 400),
    (1e5, 0.0, 1.0, 5.0, 31, 100),  # most trials fail
    (1e5, math.pi / 4, 0.98, 3.0, 37, 50),
    (1e5, math.pi / 4, 0.98, 3.0, 37, EXPERIMENT_BLOCK + 7),  # a cut second block
], ids=["quadrature", "maximum_cusp", "partial_coherence", "two_blocks"])
def test_experiment_matches_per_trial_reference(pairs, phase, coherence, delta_pcc, seed, trials):
    order, m = 2, int(round(pairs))
    result = simulate_experiment(pairs, PhasePoint(phase), order, coherence,
                                 SpuriousCount.from_count(delta_pcc, 1.0),
                                 McConfig(seed=seed, trials=trials))
    prob = 0.5 * (1.0 + coherence * math.cos(order * phase))
    # Trial i is entry i % B of block i // B; a block draws B binomials, then B Poissons.
    counts = []
    for block in range((trials + EXPERIMENT_BLOCK - 1) // EXPERIMENT_BLOCK):
        rng = rng_stream(seed, block)
        binomials = rng.binomial(m, prob, EXPERIMENT_BLOCK)
        poissons = rng.poisson(delta_pcc, EXPERIMENT_BLOCK)
        counts += [int(b) + int(q) for b, q in zip(binomials, poissons)]
    for i, estimate in enumerate(result.estimates_rad):
        expected = _invert_fringe(float(counts[i]), m, coherence, order, order * phase)
        assert math.isnan(estimate) == math.isnan(expected)
        if not math.isnan(expected):
            assert estimate == pytest.approx(expected, abs=1e-12)


def test_experiment_validation():
    mc = McConfig(seed=1, trials=2)
    with pytest.raises(ValueError, match="pairs"):
        simulate_experiment(0.0, PhasePoint(0.1), 2, 1.0, SpuriousCount(0.0, 0.0), mc)
    with pytest.raises(ValueError, match="coherence"):
        simulate_experiment(100.0, PhasePoint(0.1), 2, 0.0, SpuriousCount(0.0, 0.0), mc)


def test_mc_config_validation():
    with pytest.raises(ValueError, match="trials"):
        McConfig(seed=1, trials=0)
    with pytest.raises(ValueError, match="seed"):
        McConfig(seed="abc", trials=1)
