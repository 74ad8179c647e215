"""Stochastic oracle for the accidental-coincidence and phase-error model.

Simulates Poisson photon arrival streams at each detector and counts
N-fold coincidences the way real counting electronics would, providing an
independent empirical check of the analytic accidental-count formula and
of the phase bias it induces.  Both window modes count on the arrivals
with a close neighbour, found chunk by chunk by ``_survivor_keys``, which
walks each chunk on its own: a trial holds one chunk plus its survivors.

Determinism contract: every draw depends only on ``(seed, trial_index)``,
so results are bit-identical for a given seed no matter how trials are
distributed over workers.  An event-stream trial i draws from
``rng_stream(seed, i)``, first its arrivals per chunk of a time grid that
depends only on the rates and the record length (see ``_chunk_grid``),
then each chunk's arrival times in time order; experiment trial i is entry
``i % B`` of block ``i // B``, drawn from ``rng_stream(seed, i // B)``,
B = ``EXPERIMENT_BLOCK``.  Aggregation uses only order-insensitive reductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import DetectionSpec, PhasePoint, WindowMode, _integer, _order, _require, _require_finite, _require_memory
from .sagnac import coincidence_probability
from .spurious import SpuriousCount, _minimal_branch, _window_factor, spurious_coincidences_per_detector

# Ticks per record: arrival times are integers t < TICKS, the fraction t / TICKS.
TICKS = 2**53

# Largest window count t_meas/jitter the tick lattice resolves; see simulate_uncorrelated.
MAX_WINDOWS = 2**46

# Most expected arrivals per chunk of a trial's record; see _chunk_grid.  It fixes
# the draw, which is made chunk by chunk, so changing it moves every count.  Of
# 2**13 ... 2**18, 2**15 counted fastest in both modes: chunks this small sort in cache.
CHUNK_EVENTS = 2**15

# Peak memory per arrival charged, a chunk's and the expected survivors, rounded up
# from 1.5e5- to 7e6-event trials, each holding one chunk: 22-23 bytes per chunk
# arrival (traced peak) where the screen skips most chunks and 36 where each chunk is
# walked whole; 36-40 per binned and 64 per sliding survivor (peak RSS growth of a
# trial where all survive).
BYTES_PER_EVENT = 80

# Experiment trials per generator: building one costs far more than a trial's draws.
EXPERIMENT_BLOCK = 1024

# Peak memory per experiment trial: the measured growth of peak RSS is
# 59-63 bytes per trial at 1e6-4e6 trials, rounded up.
BYTES_PER_TRIAL = 72


@dataclass(frozen=True)
class McConfig:
    """Trial count and seed.  The detection spec decides the window mode;
    ``window_mode``, if given, only asserts that mode and is due to be deleted."""

    seed: int
    trials: int
    window_mode: WindowMode | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        object.__setattr__(self, "trials", _integer(self.trials, "trials", 1))
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
            poisson = max(prediction, 0.0)
            se = math.sqrt(poisson / counts.size) or math.sqrt(poisson) / math.sqrt(counts.size)
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


def _chunk_grid(rates: tuple[float, ...], t_meas: float) -> int:
    """K = 2**m equal chunks of the record, m the least for which the expected
    arrivals per chunk, ``sum(rates) * t_meas / K``, are at most ``CHUNK_EVENTS``
    (capped at ``TICKS`` chunks, far beyond what the memory guard admits)."""
    events, chunks = sum(rates) * t_meas, 1
    while events > CHUNK_EVENTS * chunks and chunks < TICKS:
        chunks *= 2
    return chunks


def _chunk_counts(rng: np.random.Generator, rates: tuple[float, ...], t_meas: float) -> np.ndarray:
    """Arrivals per chunk and detector, shape (K, N), drawn first in a trial; K is ``_chunk_grid``'s."""
    chunks = _chunk_grid(rates, t_meas)
    return rng.poisson(np.array(rates) * (t_meas / chunks), size=(chunks, len(rates)))


def _chunk_ticks(rng: np.random.Generator, counts: np.ndarray):
    """Yield each chunk's arrivals in time order: one int64 tick array per detector.

    Tick t is the fraction ``t / TICKS`` of the record, the lattice of
    ``rng.random()``; chunk c holds the ticks in ``[c * span, (c + 1) * span)``.
    """
    span = TICKS // len(counts)
    for c, row in enumerate(counts):
        yield [rng.integers(c * span, (c + 1) * span, n, dtype=np.int64) for n in row]


def _cells(ticks, s: int, out: np.ndarray) -> np.ndarray:
    """Write each arrival's cell ``t >> s``, truncated to 32 bits, into ``out``, detector by detector."""
    start = 0
    for t in ticks:
        np.right_shift(t, s, out=out[start:start + t.size], casting="unsafe")
        start += t.size
    return out


def _has_neighbour(keys: np.ndarray, reach: int) -> np.ndarray:
    """Mask of the sorted ``keys`` that have a neighbour within ``reach``."""
    close = np.diff(keys) <= reach
    keep = np.zeros(keys.size, dtype=bool)
    keep[1:] = close
    keep[:-1] |= close
    return keep


def _survivor_keys(chunks, width: float, span: int) -> tuple[np.ndarray, int, int]:
    """Sorted keys ``t << b | d`` of the arrivals with a merged neighbour within reach; b; N.

    ``chunks`` yields each chunk's ticks per detector d, in time order, one
    aligned power-of-two ``span`` each, as ``_chunk_ticks`` does; b bits
    label d.  Reach is ``steps << b``, steps = ceil(min(w, 1) * 2**53) + 7
    for a window w = ``width`` of the record.  Sliding, w = tau/T: two
    arrivals that both pass one anchor's float test t_a <= t <= t_a + tau
    differ by at most ceil(w * 2**53) + 6 ticks, as u*T, t_a + tau and w
    each round by at most 2**-53 relative, u < 1 (beyond w = 1 every
    arrival is within reach).  Binned, w = 1/n_windows: t * (n_windows /
    2**53) rounds by at most 2**-53 * n_windows, one tick, so two ticks in
    one window differ by at most 2**53 / n_windows + 2, and w rounds by
    under one tick.  One more tick covers the detector bits of a key
    difference; the cap keeps reach inside int64.

    Each chunk is walked on its own.  Its cells ``t >> s``, s = max((steps
    - 1).bit_length(), log2(span) - 32), are sorted as uint32: a cell of
    2**s ticks covers the reach, so keys within reach lie in cells at most
    1 apart, and a span holds at most 2**32 cells, so truncation drops only
    bits the chunk shares.  Edge-cell rule: cells and spans are aligned
    powers of two, so only arrivals in the span's first and last cells (the
    whole span, if a cell is wider) can have a neighbour in another chunk.
    The candidates are the arrivals in cells with a neighbour cell within 1
    and in the edge cells (beyond 16 the whole chunk, as picking costs a
    pass per candidate); a chunk without any adds nothing.  They are keyed
    and sorted, and those with a neighbour within reach or in an edge cell
    kept.  One more pass of that filter over all kept keys leaves the
    survivors, as every merged pair within reach is kept whole.
    """
    steps = math.ceil(min(width, 1.0) * TICKS) + 7
    s = max((steps - 1).bit_length(), span.bit_length() - 33)
    parts, buffer = [np.empty(0, dtype=np.int64)], np.empty(0, dtype=np.uint32)
    for ticks in chunks:  # at least one chunk
        n, b = len(ticks), max(1, (len(ticks) - 1).bit_length())
        reach = min(steps << b, 2**63 - 1)
        size = sum(t.size for t in ticks)
        if not size:
            continue
        if buffer.size < size:
            buffer = np.empty(size, dtype=np.uint32)
        cells = _cells(ticks, s, buffer[:size])
        cells.sort()
        base = next(int(t[0]) for t in ticks if t.size) // span * span
        edges = (base >> s) & 0xFFFFFFFF, (base + span - 1 >> s) & 0xFFFFFFFF  # the span's first and last cells
        in_first = int(np.searchsorted(cells, edges[0], "right")) if cells[0] == edges[0] else 0
        in_last = size - int(np.searchsorted(cells, edges[1])) if cells[-1] == edges[1] else 0
        if not (in_first or in_last or (np.diff(cells) <= 1).any()):
            continue
        pick = _has_neighbour(cells, 1)
        pick[:in_first] = pick[size - in_last:] = True
        if np.count_nonzero(pick) <= 16:  # a pass per candidate; keying the whole chunk costs a sort
            wanted = cells[pick]
            mask = np.isin(_cells(ticks, s, cells), wanted, kind="sort")  # the pass per candidate, not "table"
            ticks = [t[m] for t, m in zip(ticks, np.split(mask, np.cumsum([t.size for t in ticks[:-1]])))]
        keys, start = np.empty(sum(t.size for t in ticks), dtype=np.int64), 0
        for d, t in enumerate(ticks):
            key, start = keys[start:start + t.size], start + t.size
            np.left_shift(t, b, out=key)
            if d:
                key |= d
        keys.sort()
        keep = _has_neighbour(keys, reach)
        keep[:in_first] = keep[keys.size - in_last:] = True
        parts.append(keys[keep])
    keys = np.concatenate(parts)
    return keys[_has_neighbour(keys, reach)], b, n


def _binned_count(chunks, n_windows: float, span: int) -> float:
    """Windows (out of n_windows) holding at least one arrival per detector.

    An arrival in a shared window has a merged neighbour there, so only the
    survivors of ``_survivor_keys`` share windows.  Their keys ``w << b | d``,
    w = int(t * n_windows / 2**53), sorted and deduplicated, make a window
    full when N consecutive keys share it, the partial last one included.
    """
    keys, b, n = _survivor_keys(chunks, 1.0 / n_windows, span)
    # t.astype(float) * scale = t * scale, whose mixed-type loop is slower; scale is exact.
    windows = ((keys >> b).astype(float) * (n_windows / TICKS)).astype(np.int64)
    keys = np.sort(windows << b | keys & ((1 << b) - 1))
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    windows = keys[first] >> b
    return float(np.count_nonzero(windows[n - 1:] == windows[:max(0, windows.size - n + 1)]))


def _sliding_count(chunks, t_meas: float, tau: float, span: int) -> float:
    """N-fold groups (one arrival per detector) with spread <= tau.

    Inside a group's span every gap between consecutive merged arrivals is
    at most tau, so only the survivors of ``_survivor_keys`` can be in a
    group.  Decoded bit for bit, they give ``_searchsorted_count`` its count
    on every arrival; a detector left without survivors means no group.
    """
    keys, b, n = _survivor_keys(chunks, tau / t_meas, span)
    labels, draws = keys & ((1 << b) - 1), (keys >> b) / TICKS
    survivors = [draws[labels == d] for d in range(n)]
    if any(s.size == 0 for s in survivors):
        return 0.0
    return _searchsorted_count(survivors, t_meas, tau)


def _searchsorted_count(fractions: list[np.ndarray], t_meas: float, tau: float) -> float:
    """Exact sliding count: each group is counted once, anchored at its earliest arrival.

    Ties have probability zero for continuous arrival times.
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
    counts = _chunk_counts(rng, rates, t_meas)
    chunks, span = _chunk_ticks(rng, counts), TICKS // len(counts)
    if binned:
        return _binned_count(chunks, t_meas / tau, span)
    return _sliding_count(chunks, t_meas, tau, span)


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
        Process count for trial execution, at least 1 and capped at
        ``trials``; a process pool starts only for more than one.  Does not
        affect results, but each extra process holds one more trial in memory.

    Notes
    -----
    Arrivals are generated as sparse event streams, never as materialized
    windows: integer ticks ``t < 2**53``, the fraction ``t / 2**53`` of the
    record, drawn chunk by chunk in time order over 2**m equal chunks, m the
    least that keeps the expected arrivals per chunk at most
    ``CHUNK_EVENTS``.  Both modes consume the same draw.  The stored
    prediction is each mode's mean for mean counts m_j: binned, ``m_1 *
    prod_{j>=2} (m_j * tau / T)``, and N times that sliding (see ``_window_factor``).

    Both modes count on the arrivals with a merged neighbour within one
    jitter, found by ``_survivor_keys``, whose 10-bit detector label beside
    a 53-bit tick caps either mode at 1024 detectors.

    A trial holds its K x N chunk counts, one chunk and the survivors,
    about ``events * (1 - exp(-2 * sum(rate) * tau))`` of its
    ``events = sum(rate) * t_meas``.  The guard charges 8 bytes per chunk
    count and ``BYTES_PER_EVENT`` per expected arrival held, times the
    trials in flight, ``min(workers, trials)`` (a pool starts them all at
    once); a run above the physical memory is refused before any draw.

    In either mode the window count ``t_meas / jitter`` may not exceed
    ``MAX_WINDOWS`` = 2**46.  Arrival times have 2**53 levels (the lattice
    of ``rng.random()``), so every window spans at least 128 of them:
    window indices and sliding arrival times are uniform to 1/128 per
    window, and the relative bias of the expected count is at most
    ``C(N,2) / (4 * 128**2)`` (1.5e-5 for two detectors).  Beyond the limit
    the draw no longer resolves single windows; shorten the measurement
    time instead.
    """
    rates = list(singles_rate_per_detector)
    _require(len(rates) >= 2, "singles_rate_per_detector", "need at least two detectors")
    for i, r in enumerate(rates):
        rates[i] = _require_finite(r, f"singles_rate_per_detector[{i}]")
        _require(rates[i] >= 0.0, f"singles_rate_per_detector[{i}]", "must be >= 0")
    rates = tuple(rates)
    t_meas, tau = det.measurement_time_s, det.jitter_s
    if mc.window_mode not in (None, det.window_mode):
        raise ValueError(f"window_mode: McConfig {mc.window_mode.value!r} != spec {det.window_mode.value!r}")
    binned = det.window_mode is WindowMode.BINNED
    _require(len(rates) <= 1024, "singles_rate_per_detector",
             "an arrival's key holds its 53-bit tick and a 10-bit detector label, "
             f"so at most 1024 detectors are counted, got {len(rates)}")
    _require(t_meas / tau <= MAX_WINDOWS, "measurement_time_s",
             f"window count {t_meas / tau:.3e} exceeds 2**46, the most the uniform "
             "draw resolves; scale the measurement time down")
    workers = _integer(workers, "workers", 1)
    events, in_flight = sum(rates) * t_meas, min(workers, mc.trials)
    chunks = _chunk_grid(rates, t_meas)
    held = events / chunks - events * math.expm1(-2.0 * sum(rates) * tau)
    _require_memory((8 * chunks * len(rates) + BYTES_PER_EVENT * held) * in_flight,
                    "singles_rate_per_detector", f"{in_flight} trial(s) of {events:.3e} arrivals in flight")

    trial = partial(_uncorrelated_trial, mc.seed, rates, t_meas, tau, binned)
    if in_flight == 1:
        counts = [trial(i) for i in range(mc.trials)]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=in_flight) as pool:
            counts = list(pool.map(trial, range(mc.trials), chunksize=max(1, mc.trials // (4 * in_flight))))
    binned_prediction = spurious_coincidences_per_detector([r * t_meas for r in rates], det).delta_pcc
    return McResult.from_counts(np.array(counts), binned_prediction * _window_factor(len(rates), det))


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
    pairs = _require_finite(pairs, "pairs")
    _require(pairs > 0.0, "pairs", "must be > 0")
    m = int(round(pairs))
    _require(m >= 1, "pairs", "must round to at least one pair")
    order = _order(order)
    coherence = _require_finite(coherence, "coherence")
    _require(0.0 < coherence <= 1.0, "coherence",
             "must lie in (0, 1] (the fringe inversion divides by it)")
    _require_memory(mc.trials * BYTES_PER_TRIAL, "trials", f"{mc.trials} experiment trials")

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
