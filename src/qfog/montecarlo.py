"""Stochastic oracle for the accidental-coincidence and phase-error model.

Simulates Poisson photon arrival streams at each detector and counts
N-fold coincidences the way real counting electronics would, providing an
independent empirical check of the analytic accidental-count formula and
of the phase bias it induces.

Determinism contract: every draw depends only on ``(seed, trial_index)``,
so results are bit-identical for a given seed no matter how trials are
distributed over workers.  An event-stream trial i draws from
``rng_stream(seed, i)``; experiment trial i is entry ``i % B`` of block
``i // B``, drawn from ``rng_stream(seed, i // B)``, B = ``EXPERIMENT_BLOCK``.
Aggregation uses only order-insensitive reductions.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import DetectionSpec, PhasePoint, WindowMode, _require, _require_finite, _require_memory
from .sagnac import coincidence_probability
from .spurious import SpuriousCount, _minimal_branch, spurious_coincidences_per_detector

# Largest window count t_meas/jitter the uniform draw resolves; see
# simulate_uncorrelated.
MAX_WINDOWS = 2**46

# Peak memory per arrival of one in-flight trial: the measured growth of
# peak RSS is 32-34 bytes per event in either window mode, rounded up.
BYTES_PER_EVENT = 40

# Experiment trials per generator: building one costs far more than a trial's draws.
EXPERIMENT_BLOCK = 1024


@dataclass(frozen=True)
class McConfig:
    """Trial count and seed.  The detection spec decides the window mode;
    ``window_mode``, if given, only asserts that mode and is due to be deleted."""

    seed: int
    trials: int
    window_mode: WindowMode | None = None

    def __post_init__(self) -> None:
        _require(isinstance(self.seed, int) and not isinstance(self.seed, bool),
                 "seed", f"must be an integer, got {self.seed!r}")
        _require(isinstance(self.trials, int) and self.trials >= 1,
                 "trials", f"must be a positive integer, got {self.trials!r}")
        _require(self.window_mode is None or isinstance(self.window_mode, WindowMode),
                 "window_mode", f"must be a WindowMode or None, got {self.window_mode!r}")


@dataclass(frozen=True, eq=False)
class McResult:
    """Per-trial coincidence counts with their analytic reference.

    ``z_score`` compares the trial mean against ``analytic_prediction``
    using the empirical standard error; when the trials show zero variance
    the Poisson variance of the prediction is used instead so the score
    stays finite.
    """

    mean_coincidences: float
    variance: float
    per_trial: np.ndarray
    analytic_prediction: float
    z_score: float

    @classmethod
    def from_counts(cls, counts: np.ndarray, prediction: float) -> "McResult":
        counts = np.asarray(counts, dtype=float)
        mean = float(counts.mean())
        variance = float(counts.var(ddof=1)) if counts.size >= 2 else 0.0
        se = math.sqrt(variance / counts.size) if variance > 0.0 else 0.0
        if se == 0.0:
            se = math.sqrt(max(prediction, 0.0) / counts.size)
        z = 0.0 if mean == prediction else (mean - prediction) / se if se > 0.0 else math.inf
        return cls(mean, variance, counts, float(prediction), z)


@dataclass(frozen=True, eq=False)
class PhaseEstimateResult:
    """Empirical distribution of naive (accidentals-blind) phase estimates.

    ``estimates_rad`` holds one estimate per trial, NaN where the observed
    count fell outside the ideal fringe model and no estimate exists.
    Bias and spread are computed over the successful trials only; failures
    are counted, never hidden.
    """

    estimates_rad: np.ndarray
    true_total_phase_rad: float
    bias_rad: float
    spread_rad: float
    n_trials: int
    n_failures: int

    @property
    def failure_fraction(self) -> float:
        return self.n_failures / self.n_trials


def rng_stream(seed: int, trial_index: int) -> np.random.Generator:
    """Deterministic generator of one trial, or one experiment block, from (seed, trial_index).

    Streams for different indices are statistically independent, and the
    same pair always yields the same stream, so any partition of trials
    over workers reproduces identical results.
    """
    entropy = (seed & 0xFFFFFFFFFFFFFFFF, trial_index)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _binned_count(fractions: list[np.ndarray], n_windows: float) -> float:
    """Windows (out of n_windows) holding at least one arrival per detector.

    The occupied windows of each detector are found by sorting and
    dropping adjacent repeats; ``np.unique`` gives the same array but, on
    unsorted int64 input, takes tens of times longer on numpy 2.4.
    """
    common: np.ndarray | None = None
    for u in fractions:
        idx = (u * n_windows).astype(np.int64)
        idx.sort()
        first = np.ones(idx.size, dtype=bool)
        np.not_equal(idx[1:], idx[:-1], out=first[1:])
        idx = idx[first]
        common = idx if common is None else np.intersect1d(common, idx, assume_unique=True)
    return float(common.size)


def _sliding_count(fractions: list[np.ndarray], t_meas: float, tau: float) -> float:
    """N-fold groups (one arrival per detector) with spread <= tau.

    Each qualifying group is counted once, anchored at its earliest
    arrival; ties have probability zero for continuous arrival times.
    """
    times = [np.sort(u) * t_meas for u in fractions]
    total = 0.0
    for d, anchors in enumerate(times):
        group_products = np.ones(anchors.size)
        for d2, other in enumerate(times):
            if d2 == d:
                continue
            in_window = (np.searchsorted(other, anchors + tau, side="right")
                         - np.searchsorted(other, anchors, side="left"))
            group_products *= in_window
        total += float(group_products.sum())
    return total


def _uncorrelated_trial(seed, rates, t_meas, tau, binned, index) -> float:
    rng = rng_stream(seed, index)
    fractions = [rng.random(rng.poisson(r * t_meas)) for r in rates]
    if binned:
        return _binned_count(fractions, t_meas / tau)
    return _sliding_count(fractions, t_meas, tau)


def simulate_uncorrelated(singles_rate_per_detector, det: DetectionSpec, mc: McConfig,
                          workers: int = 1) -> McResult:
    """Simulate uncorrelated arrival streams and count spurious coincidences.

    Parameters
    ----------
    singles_rate_per_detector : sequence of float
        One Poisson rate (Hz) per detector; at least two detectors.
    det : DetectionSpec
        Jitter window, measurement time and window mode (binned or sliding).
    mc : McConfig
        Seed and trial count; a ``window_mode`` given there must equal the spec's.
    workers : int
        Process count for trial execution, capped at ``trials``; does not
        affect results, but each extra process holds one more trial in memory.

    Notes
    -----
    Arrivals are generated as sparse event streams, never as materialized
    windows.  The stored prediction is each mode's mean for mean counts m_j:
    binned, ``m_1 * prod_{j>=2} (m_j * tau / T)``; sliding, which anchors
    each group at its earliest arrival, ``sum_d m_d * prod_{j!=d} (m_j *
    tau / T)``, N times the binned mean, less an O(tau / T) edge term.

    Memory is ``BYTES_PER_EVENT`` times the expected arrivals per trial,
    ``sum(rate) * t_meas``, times the trials in flight, ``min(workers,
    trials)``, which is also the pool's process count (a pool starts them
    all at once); a run above the physical memory is refused before any draw.

    In either mode the window count ``t_meas / jitter`` may not exceed
    ``MAX_WINDOWS`` = 2**46.  Arrival fractions come from ``rng.random()``,
    which has 2**53 levels, so every window spans at least 128 of them:
    window indices and sliding arrival times are uniform to 1/128 per
    window, and the relative bias of the expected count is at most
    ``C(N,2) / (4 * 128**2)`` (1.5e-5 for two detectors).  Beyond the limit
    the draw no longer resolves single windows; shorten the measurement
    time instead.
    """
    rates = tuple(float(r) for r in singles_rate_per_detector)
    _require(len(rates) >= 2, "singles_rate_per_detector", "need at least two detectors")
    for i, r in enumerate(rates):
        _require_finite(r, f"singles_rate_per_detector[{i}]")
        _require(r >= 0.0, f"singles_rate_per_detector[{i}]", "must be >= 0")
    t_meas, tau = det.measurement_time_s, det.jitter_s
    if mc.window_mode not in (None, det.window_mode):
        raise ValueError(f"window_mode: McConfig {mc.window_mode.value!r} != spec {det.window_mode.value!r}")
    binned = det.window_mode is WindowMode.BINNED
    _require(t_meas / tau <= MAX_WINDOWS, "measurement_time_s",
             f"window count {t_meas / tau:.3e} exceeds 2**46, the most the uniform "
             "draw resolves; scale the measurement time down")
    events, in_flight = sum(rates) * t_meas, max(1, min(workers, mc.trials))
    _require_memory(events * BYTES_PER_EVENT * in_flight, "singles_rate_per_detector",
                    f"{in_flight} trial(s) in flight of {events:.3e} expected arrivals each")

    trial = partial(_uncorrelated_trial, mc.seed, rates, t_meas, tau, binned)
    if in_flight == 1:
        counts = [trial(i) for i in range(mc.trials)]
    else:
        with ProcessPoolExecutor(max_workers=in_flight) as pool:
            counts = list(pool.map(trial, range(mc.trials), chunksize=max(1, mc.trials // (4 * in_flight))))
    binned_prediction = spurious_coincidences_per_detector([r * t_meas for r in rates], det).delta_pcc
    return McResult.from_counts(np.array(counts), binned_prediction * (1 if binned else len(rates)))


def simulate_experiment(pairs: float, phase: PhasePoint, order: int, coherence: float,
                        count: SpuriousCount, mc: McConfig,
                        workers: int = 1) -> PhaseEstimateResult:
    """Empirical phase-estimate distribution with accidental contamination.

    Per trial the observed coincidence count is drawn as
    ``Binomial(round(pairs), (1 + C*cos(N*phi))/2) + Poisson(delta_pcc)``
    and inverted through the ideal fringe model, deliberately ignoring the
    accidental contribution.  Away from the cusps the resulting bias
    matches the analytic phase-shift inversion and the spread matches the
    quantum shot noise.  ``pairs`` is the instrument's pair count, not a
    coherence-scaled one: the visibility ``C`` enters once, through
    ``coherence``, in the fringe and in its inversion.  Trials whose count
    falls outside the fringe model produce no estimate and are tallied as
    failures.  Each block of trials draws all its binomials, then all its
    Poissons (see the determinism contract).  ``workers`` is ignored, kept
    only because the benchmark's ``qbench/workloads.py`` still passes it.
    """
    _require_finite(pairs, "pairs")
    _require(pairs > 0.0, "pairs", "must be > 0")
    m = int(round(pairs))
    _require(m >= 1, "pairs", "must round to at least one pair")
    _require(order >= 1, "order", f"must be >= 1, got {order}")
    _require_finite(coherence, "coherence")
    _require(0.0 < coherence <= 1.0, "coherence",
             "must lie in (0, 1] (the fringe inversion divides by it)")

    true_total = phase.total_rad
    true_scaled = order * true_total
    prob = coincidence_probability(1.0, phase, order, coherence)
    n = EXPERIMENT_BLOCK
    blocks = (rng_stream(mc.seed, b) for b in range(-(-mc.trials // n)))
    observed = np.concatenate([r.binomial(m, prob, n) + r.poisson(count.delta_pcc, n) for r in blocks])
    # Invert each count (last block cut to length) on the fringe branch nearest the truth.
    arg = (2.0 * observed[:mc.trials] / m - 1.0) / coherence
    shift, _ = _minimal_branch(np.arccos(np.clip(arg, -1.0, 1.0)), true_scaled)
    estimates = np.where(np.abs(arg) <= 1.0, (true_scaled + shift) / order, np.nan)

    good = estimates[~np.isnan(estimates)]
    n_failures = int(mc.trials - good.size)
    bias = float(good.mean() - true_total) if good.size else math.nan
    spread = float(good.std(ddof=1)) if good.size >= 2 else math.nan
    return PhaseEstimateResult(estimates, true_total, bias, spread, mc.trials, n_failures)
