import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from qfog.montecarlo import EXPERIMENT_BLOCK, TICKS


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
    # 2e16 arrivals per trial over 2**40 chunks: the K x N chunk counts alone take
    # 16 TiB, more than any host has, so the run is refused up front.  Rates whose
    # sum overflows to inf stop the chunk grid at 2**53 chunks, refused alike.
    det = DetectionSpec(1e-3, 10.0)
    for rates in ([1e15, 1e15], [1e308, 1e308]):
        with pytest.raises(ValueError, match="memory"):
            simulate_uncorrelated(rates, det, McConfig(seed=1, trials=1))


@pytest.mark.parametrize("mode", list(WindowMode), ids=lambda m: m.value)
def test_memory_guard_charges_what_a_streamed_trial_holds(monkeypatch, mode):
    # 4e8 arrivals per trial: 15 GiB as a whole-record event list, but a trial holds
    # 2**14 x 2 chunk counts, one chunk of 2.4e4 arrivals and 1.6e6 survivors.
    monkeypatch.setattr(montecarlo, "_uncorrelated_trial", lambda *args: 0.0)
    result = simulate_uncorrelated([1e6, 1e6], DetectionSpec(1e-9, 200.0, mode), McConfig(seed=1, trials=1))
    assert result.per_trial.tolist() == [0.0]


def _sliding(fractions, t_meas, tau):
    """``_sliding_count`` on arrival fractions of the 2**-53 lattice, as the ticks of one chunk."""
    ticks = [(np.asarray(u, dtype=float) * 2.0**53).astype(np.int64) for u in fractions]
    return montecarlo._sliding_count([ticks], t_meas, tau, TICKS)


def _whole_record_binned_count(ticks, n_windows):
    """Unchunked oracle: windows of the whole record occupied by every detector."""
    common = None
    for t in ticks:
        idx = np.unique((t * (n_windows / 2.0**53)).astype(np.int64))
        common = idx if common is None else np.intersect1d(common, idx)
    return float(common.size)


def _draw(seed, rates, t_meas):
    """One trial's chunk counts and the tick arrays of every chunk, as a trial draws them."""
    rng = np.random.default_rng(seed)
    counts = montecarlo._chunk_counts(rng, rates, t_meas)
    return counts, list(montecarlo._chunk_ticks(rng, counts))


@pytest.mark.parametrize("rate_tau, events", [(1e-6, 2e4), (0.1, 2e3)], ids=["sparse", "dense"])
def test_sliding_filter_matches_searchsorted_count(rate_tau, events):
    # The neighbour filter drops only arrivals that belong to no group.  Five
    # groups planted on the 2**-53 grid of rng.random() give the sparse draws
    # something to keep.
    rng = np.random.default_rng(61)
    for _ in range(12):
        n, t_meas = int(rng.integers(2, 6)), float(rng.uniform(0.5, 20.0))
        tau = rate_tau * t_meas / events
        starts = rng.uniform(0.0, 1.0 - tau / t_meas, 5)
        fractions = [np.concatenate([rng.random(rng.poisson(events * rng.uniform(0.5, 1.0))),
                                     np.floor((starts + rng.uniform(0.0, tau / t_meas, 5)) * 2.0**53) * 2.0**-53])
                     for _ in range(n)]
        exact = montecarlo._searchsorted_count(fractions, t_meas, tau)
        assert exact >= 5.0
        assert _sliding(fractions, t_meas, tau) == exact


_K = 2.0**-53  # one step of rng.random(); with T = 2**53 s an arrival's time is its step count


@pytest.mark.parametrize("steps, expected", [
    ([[100, 104], [108]], 2),             # chain a1, a2, b within tau: two groups
    ([[200], [200]], 2),                  # tied across detectors: anchored at each
    ([[300], [310]], 1),                  # gap of exactly tau
    ([[300], [311]], 0),                  # one step beyond tau
    ([[600], [605], [610]], 1),           # three detectors spanning exactly tau
    ([[], []], 0),                        # every detector empty
    ([[], [5]], 0),                       # one arrival in all
    ([[700, 1000], [705, 1400], []], 0),  # a silent detector
], ids=["chain", "tie", "gap-tau", "gap-beyond", "three", "empty", "single", "silent"])
def test_sliding_count_edge_cases(steps, expected):
    fractions = [np.array(s, dtype=float) * _K for s in steps]
    assert montecarlo._searchsorted_count(fractions, 2.0**53, 10.0) == expected
    assert _sliding(fractions, 2.0**53, 10.0) == expected


@pytest.mark.parametrize("t_meas, tau", [(7.3, 1.3e-9), (1800.0, 156e-12), (0.37, 2.9e-3)])
def test_sliding_filter_keeps_pairs_at_the_rounding_edge(t_meas, tau):
    # Pairs whose draws differ by ceil(tau/T * 2**53) - 4 ... + 9 steps, near u = 0,
    # 1/2 and 1, straddle the float test t_o <= t_a + tau on both sides of the anchor.
    span = math.ceil(tau / t_meas * 2.0**53)
    first, second = [], []
    for base in (2**20, 2**52, 2**53 - 60 * (span + 16)):
        for j, extra in enumerate(range(-4, 10)):
            anchor = base + j * 4 * (span + 16)
            first.append(anchor)
            second.append(anchor + span + extra)
    for fractions in ([np.array(first) * _K, np.array(second) * _K],
                      [np.array(second) * _K, np.array(first) * _K]):
        exact = montecarlo._searchsorted_count(fractions, t_meas, tau)
        assert _sliding(fractions, t_meas, tau) == exact


def test_sliding_window_longer_than_record():
    # tau > T: every arrival shares a window with every other, one group per combination.
    rng = np.random.default_rng(67)
    fractions = [rng.random(7), rng.random(5), rng.random(3)]
    assert montecarlo._searchsorted_count(fractions, 3.0, 5.0) == 105.0
    assert _sliding(fractions, 3.0, 5.0) == 105.0


def test_sliding_skips_the_exact_count_without_survivors(monkeypatch):
    # 256 detectors at 10 Hz, 1 ns windows: the filter leaves some detector empty,
    # so no group exists and the N*(N-1) searchsorted passes are never made.
    monkeypatch.setattr(montecarlo, "_searchsorted_count", lambda *a: pytest.fail("counted without survivors"))
    result = simulate_uncorrelated([10.0] * 256, DetectionSpec(1e-9, 1.0, WindowMode.SLIDING),
                                   McConfig(seed=1, trials=1))
    assert result.per_trial.tolist() == [0.0]


@pytest.mark.parametrize("rates, t_meas, chunks", [
    ((0.0, 0.0), 1.0, 1),
    ((3.0, 5.0), 1e3, 1),                    # 8000 expected, within one chunk
    ((2.0**14, 2.0**14), 1.0, 1),            # exactly CHUNK_EVENTS
    ((2.0**14, 2.0**14 + 1.0), 1.0, 2),
    ((19.05e3, 19.05e3), 180.0, 256),        # the 180 s benchmark record
])
def test_chunk_grid_is_the_least_power_of_two(rates, t_meas, chunks):
    # The grid depends on the rates and the record length only, never on the draw.
    assert montecarlo.CHUNK_EVENTS == 2**15
    counts, ticks = _draw(3, rates, t_meas)
    assert counts.shape == (chunks, len(rates))
    span = montecarlo.TICKS // chunks
    for c, chunk in enumerate(ticks):
        for t, n in zip(chunk, counts[c]):
            assert t.dtype == np.int64 and t.size == n
            assert np.all((c * span <= t) & (t < (c + 1) * span))


def _random_case(rng, dense, detectors=(2, 5)):
    """Rates, record length and a non-integer window count T/tau, sparse or dense per window."""
    n, t_meas = int(rng.integers(*detectors)), float(rng.uniform(0.5, 20.0))
    per_detector = rng.uniform(100.0, 1000.0, n)
    occupancy = rng.uniform(0.5, 50.0) if dense else rng.uniform(0.01, 0.05)
    n_windows = float(per_detector.mean() / occupancy)
    assert n_windows % 1.0 != 0.0
    return tuple(per_detector / t_meas), t_meas, t_meas / n_windows


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_chunked_binned_count_matches_whole_record(monkeypatch, dense):
    # Dense windows span many chunks, so pairs across chunk edges are exercised
    # through long runs of them; 1 to 2048 chunks per record.
    rng = np.random.default_rng(71 + dense)
    found = 0.0
    for seed in range(24):
        monkeypatch.setattr(montecarlo, "CHUNK_EVENTS", 2 ** int(rng.integers(1, 12)))
        rates, t_meas, tau = _random_case(rng, dense)
        counts, ticks = _draw(seed, rates, t_meas)
        whole = [np.concatenate(per_detector) for per_detector in zip(*ticks)]
        exact = _whole_record_binned_count(whole, t_meas / tau)
        assert montecarlo._binned_count(iter(ticks), t_meas / tau, TICKS // len(counts)) == exact
        found += exact
    assert found > 0.0


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_chunked_sliding_count_matches_searchsorted_count(monkeypatch, dense):
    # Per-chunk slice sorts leave the merged keys sorted; the count is the whole-record one.
    rng = np.random.default_rng(73 + dense)
    found = 0.0
    for seed in range(16):
        monkeypatch.setattr(montecarlo, "CHUNK_EVENTS", 2 ** int(rng.integers(1, 12)))
        rates, t_meas, tau = _random_case(rng, dense)
        counts, ticks = _draw(seed, rates, t_meas)
        whole = [np.concatenate(per_detector) * 2.0**-53 for per_detector in zip(*ticks)]
        exact = montecarlo._searchsorted_count(whole, t_meas, tau)
        assert montecarlo._sliding_count(iter(ticks), t_meas, tau, TICKS // len(counts)) == exact
        found += exact
    assert found > 0.0


# The chunked binned counter as it stood before binned mode counted on the sliding
# walk's survivors, kept verbatim as an oracle: it windows, dedupes and counts every
# arrival of every chunk, and carries the boundary window's keys.
def _chunk_keys(carried: np.ndarray, xs: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """The carried keys and one chunk's keys ``x << b | d``, sorted, and b.

    ``xs[d]`` holds detector d's ticks (sliding) or windows (binned); b bits label d.
    """
    b = max(1, (len(xs) - 1).bit_length())
    keys = np.empty(carried.size + sum(x.size for x in xs), dtype=np.int64)
    keys[:carried.size] = carried
    start = carried.size
    for d, x in enumerate(xs):
        key = keys[start:start + x.size]
        start += x.size
        np.left_shift(x, b, out=key)
        key |= d
    keys.sort()
    return keys, b


def _binned_count(chunks, span: int, n_windows: float) -> float:
    """Windows (out of n_windows) holding at least one arrival per detector.

    ``chunks`` yields the tick arrays of consecutive chunks of ``span`` ticks.
    A chunk's keys hold each arrival's window and detector; sorted with the
    carried keys, repeats dropped, a window is full when N consecutive keys
    share it.  Windows below the window of the next chunk's first tick are
    final and counted, the other keys carried.  The last chunk counts all,
    the partial last window included.
    """
    scale = n_windows / TICKS  # exact: TICKS is a power of two
    total, carried = 0, np.empty(0, dtype=np.int64)
    for c, ticks in enumerate(chunks, 1):
        # t.astype(float) * scale = t * scale, whose mixed-type loop is slower.
        keys, b = _chunk_keys(carried, [(t.astype(float) * scale).astype(np.int64) for t in ticks])
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        cut = np.searchsorted(keys, int(c * span * scale) << b) if c * span < TICKS else keys.size
        windows, n = keys[:cut] >> b, len(ticks)
        total += int(np.count_nonzero(windows[n - 1:] == windows[:max(0, cut - n + 1)]))
        carried = keys[cut:]
    return float(total)


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_trial_counts_match_the_oracles_in_both_modes(monkeypatch, dense):
    # Each trial redrawn from its own stream: binned against the chunked oracle above,
    # sliding against the exact count on the whole record; 2 to 6 detectors, 1 to 4096 chunks.
    rng = np.random.default_rng(79 + dense)
    found = {mode: 0.0 for mode in WindowMode}
    for seed in range(20):
        monkeypatch.setattr(montecarlo, "CHUNK_EVENTS", 2 ** int(rng.integers(1, 12)))
        rates, t_meas, tau = _random_case(rng, dense, detectors=(2, 7))
        for mode in WindowMode:
            result = simulate_uncorrelated(rates, DetectionSpec(tau, t_meas, mode), McConfig(seed=seed, trials=2))
            for i, count in enumerate(result.per_trial):
                rng_i = rng_stream(seed, i)
                ticks = list(montecarlo._chunk_ticks(rng_i, montecarlo._chunk_counts(rng_i, rates, t_meas)))
                if mode is WindowMode.BINNED:
                    expected = _binned_count(iter(ticks), TICKS // len(ticks), t_meas / tau)
                else:
                    whole = [np.concatenate(per_detector) * 2.0**-53 for per_detector in zip(*ticks)]
                    expected = montecarlo._searchsorted_count(whole, t_meas, tau)
                assert count == expected, (seed, mode, i)
                found[mode] += expected
    assert min(found.values()) > 0.0


def _window_edges(w, n_windows):
    """The least and the greatest tick whose float window ``int(t * n_windows / 2**53)`` is w."""
    def window(t):
        return int(float(t) * (n_windows / 2.0**53))
    lo = max(0, math.floor(w * 2.0**53 / n_windows) - 4)
    hi = min(TICKS - 1, math.floor((w + 1) * 2.0**53 / n_windows) + 4)
    assert (lo == 0 or window(lo) < w) and (hi == TICKS - 1 or window(hi) > w)
    while window(lo) < w:
        lo += 1
    while window(hi) > w:
        hi -= 1
    return lo, hi


@pytest.mark.parametrize("n_windows", [2.0**46 - 0.37, 2.0**46 * (1 - 2**-30), 2.0 - 2**-40, 2.0 + 2**-40, 2.5])
def test_binned_walk_keeps_pairs_at_the_rounding_edge(n_windows):
    # Two arrivals at the two extreme ticks of one window, near u = 0, 1/2 and 1, are
    # the farthest pair the walk must keep; one tick further out, they share no window.
    # Records of 1, 2 and 4 chunks put the window near 1/2 across a chunk edge.
    for u in (0.0, 0.5, 1.0):
        w = int(min(u * 2.0**53, TICKS - 1) * (n_windows / 2.0**53))
        lo, hi = _window_edges(w, n_windows)
        for first, second, expected in ((lo, hi, 1), (hi, lo, 1), (lo - 1, hi, 0), (lo, hi + 1, 0)):
            if not (0 <= first < TICKS and 0 <= second < TICKS):
                continue
            ticks = [np.array([first], dtype=np.int64), np.array([second], dtype=np.int64)]
            for chunks in (1, 2, 4):
                span = TICKS // chunks
                per_chunk = [[t[(c * span <= t) & (t < (c + 1) * span)] for t in ticks] for c in range(chunks)]
                assert _binned_count(iter(per_chunk), span, n_windows) == expected
                counted = montecarlo._binned_count(iter(per_chunk), n_windows, span)
                assert counted == expected, (u, first, second, chunks)


_T = 2**53  # ticks per record


@pytest.mark.parametrize("fractions, n_windows, chunks, expected", [
    # 10.5 windows: the last one, [10/10.5, 1), is partial and still counted.
    ([[0.99], [0.995]], 10.5, 4, 1),
    ([[0.99], [0.94]], 10.5, 4, 0),
    # Window 1 of 3, [1/3, 2/3), straddles the edge at 1/2 and is held on both sides.
    ([[0.4, 0.6], [0.45, 0.55]], 3.0, 2, 1),
    ([[0.4], [0.6]], 3.0, 2, 1),
    # One window over eight chunks, its arrivals in the first and the last.
    ([[0.01], [0.99], [0.5]], 1.0, 8, 1),
    ([[0.01], [0.99], []], 1.0, 8, 0),
    # Five detectors, window 1 of 3 straddling the edge: the first chunk's final
    # window 0 holds 0, 2 or 3 keys, fewer than N - 1, or all 5.
    ([[0.4], [0.45], [0.55], [0.6], [0.65]], 3.0, 2, 1),
    ([[0.1, 0.4], [0.2, 0.45], [0.55], [0.6], [0.65]], 3.0, 2, 1),
    ([[0.1, 0.4], [0.2, 0.45], [0.3, 0.55], [0.6], [0.65]], 3.0, 2, 1),
    ([[0.1], [0.15], [0.2], [0.25], [0.3]], 3.0, 2, 1),
], ids=["partial-last", "partial-last-missed", "straddle-both-sides", "straddle", "eight-chunks",
        "eight-chunks-silent", "five-none-final", "five-two-final", "five-three-final", "five-full-final"])
def test_binned_count_at_chunk_edges(fractions, n_windows, chunks, expected):
    span = _T // chunks
    ticks = [(np.array(u, dtype=float) * 2.0**53).astype(np.int64) for u in fractions]
    per_chunk = [[t[(c * span <= t) & (t < (c + 1) * span)] for t in ticks] for c in range(chunks)]
    assert _whole_record_binned_count(ticks, n_windows) == expected
    assert montecarlo._binned_count(iter(per_chunk), n_windows, span) == expected


# The survivor walk as it stood before the coarse-cell screen, kept verbatim as an
# oracle: it builds and sorts the keys of every arrival of every chunk.
def _survivor_keys(chunks, width: float) -> tuple[np.ndarray, int, int]:
    """Sorted keys ``t << b | d`` of the arrivals with a merged neighbour within reach; b; N.

    ``chunks`` yields each chunk's ticks per detector d, in time order; b
    bits label d.  Each chunk's keys follow the previous chunk's last key.
    Reach is ``steps << b``, steps = ceil(min(w, 1) * 2**53) + 7 for a
    window w = ``width`` of the record.  Sliding, w = tau/T: two arrivals
    that both pass one anchor's float test t_a <= t <= t_a + tau differ by
    at most ceil(w * 2**53) + 6 ticks, as u*T, t_a + tau and w each round by
    at most 2**-53 relative, u < 1 (beyond w = 1 every arrival is within
    reach).  Binned, w = 1/n_windows: t * (n_windows / 2**53) rounds by at
    most 2**-53 * n_windows, one tick, so two ticks in one window differ by
    at most 2**53 / n_windows + 2, and w rounds by under one tick.  One more
    tick covers the detector bits of a key difference; the cap keeps reach
    inside int64.
    """
    steps = math.ceil(min(width, 1.0) * TICKS) + 7
    parts, last, held = [np.empty(0, dtype=np.int64)], None, False
    for ticks in chunks:  # at least one chunk
        n, b = len(ticks), max(1, (len(ticks) - 1).bit_length())
        keys, start = np.empty(sum(t.size for t in ticks), dtype=np.int64), 0
        for d, t in enumerate(ticks):
            key, start = keys[start:start + t.size], start + t.size
            np.left_shift(t, b, out=key)
            if d:
                key |= d
        if not keys.size:
            continue
        keys.sort()
        reach = min(steps << b, 2**63 - 1)
        joined = last is not None and keys[0] - last[0] <= reach
        if held or joined:
            parts.append(last)
        close, held = np.diff(keys) <= reach, False
        if joined or close.any():  # rarely: most chunks hold no pair within reach
            keep = np.zeros(keys.size, dtype=bool)
            keep[1:], keep[0] = close, joined
            keep[:-1] |= close
            parts.append(keys[:-1][keep[:-1]])
            held = bool(keep[-1])
        last = keys[-1:].copy()
    return np.concatenate(parts + [last] * held), b, n


def _screened(chunks, width, span):
    """The screened walk and the oracle on the same chunks: equal keys, b and N, returned."""
    chunks = list(chunks)
    keys, b, n = montecarlo._survivor_keys(iter(chunks), width, span)
    expected = _survivor_keys(iter(chunks), width)
    assert keys.dtype == np.int64 and np.array_equal(keys, expected[0]) and (b, n) == expected[1:]
    return keys


def _cut(ticks, cuts):
    """Whole-record ticks per detector, cut into chunks at the sorted tick values ``cuts``."""
    edges = [0, *cuts, TICKS]
    return [[t[(lo <= t) & (t < hi)] for t in ticks] for lo, hi in zip(edges[:-1], edges[1:])]


def test_screened_walk_matches_the_unscreened_walk(monkeypatch):
    # 2 to 6 detectors (one silent in some), 2**1 to 2**11 expected arrivals per chunk, so
    # many chunks are empty, and windows from 1e-16 of the record to twice it: sparse,
    # dense and every arrival within reach.  Each draw is walked at its aligned span.
    rng = np.random.default_rng(83)
    survivors = 0
    for case in range(160):
        monkeypatch.setattr(montecarlo, "CHUNK_EVENTS", 2 ** int(rng.integers(1, 12)))
        n = int(rng.integers(2, 7))
        rates = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(1.0, 3.3) * (rng.random(n) > 0.1)
        width = 2.0 * 10.0 ** rng.uniform(-16.0, 0.0)
        counts, ticks = _draw(case, tuple(rates), 1.0)
        survivors += _screened(ticks, width, TICKS // len(counts)).size
    assert survivors > 0


def _steps_cell(width):
    """The walk's reach in ticks and its cell shift s at one span for the record."""
    steps = math.ceil(min(width, 1.0) * TICKS) + 7
    return steps, max((steps - 1).bit_length(), 21)


_ON_CELL = (2.0**30 - 7) / 2.0**53  # steps = 2**30, one cell at one span for the record


@pytest.mark.parametrize("gap, detectors, survive", [
    (0, (0, 1), True),
    (2**30, (0, 0), True),        # steps ticks apart, the later key's label not above
    (2**30, (1, 0), True),
    (2**30, (0, 1), False),       # steps ticks and one label: one beyond reach
    (2**30 + 1, (0, 0), False),
    (2**31 - 1, (0, 1), False),   # adjacent cells, far ends
], ids=["tie", "steps", "steps-label-down", "steps-label-up", "steps-plus-one", "adjacent-cells"])
def test_screen_keeps_pairs_at_the_cell_edge(gap, detectors, survive):
    # Pairs across a cell edge, one of them on the edge's last or first tick: the
    # screen passes adjacent cells to the exact walk, which keeps a pair within reach.
    steps, s = _steps_cell(_ON_CELL)
    assert (steps, s) == (2**30, 30)
    for first in (5 << s, (5 << s) - 1, (6 << s) - 1 - gap // 2, (7 << s) - 1 - gap):
        ticks = [np.empty(0, dtype=np.int64) for _ in range(2)]
        for d, t in zip(detectors, (first, first + gap)):
            ticks[d] = np.append(ticks[d], np.int64(t))
        keys = _screened([ticks], _ON_CELL, TICKS)
        assert keys.size == 2 * survive, (first, gap, detectors)


@pytest.mark.parametrize("gap, survive", [(2**30, True), (2**30 + 1, False)])
@pytest.mark.parametrize("chunks", [2, 4, 2**20])
def test_screen_keeps_a_pair_across_a_screened_chunk_edge(chunks, gap, survive):
    # The first chunk holds two arrivals six cells apart, the later one just below the
    # edge, in its last cell: the edge-cell rule walks the chunk and keeps that key.  The
    # later arrival's label is not above the earlier one's, so a gap of steps ticks is
    # within reach.
    span = TICKS // chunks
    first = span - 1 - gap // 3
    ticks = [np.array([first + gap, first + gap + 3 * 2**31], dtype=np.int64),
             np.array([first - 3 * 2**31, first], dtype=np.int64)]
    # The chunks after the second are empty: cut there only once.
    keys = _screened(_cut(ticks, [c * span for c in range(1, min(chunks, 3))]), _ON_CELL, span)
    assert sorted((keys >> 1).tolist()) == ([first, first + gap] if survive else [])


def test_screen_counts_1024_detectors():
    # A 10-bit label beside each tick: planted pairs between the first and the last
    # detectors, and among random ones, across a few aligned chunks.
    rng = np.random.default_rng(89)
    ticks = [rng.integers(0, TICKS, 3, dtype=np.int64) for _ in range(1024)]
    for d, e in [(0, 1023), (1023, 0), (17, 900), (512, 513)]:
        t = int(rng.integers(0, TICKS - 2**31))
        ticks[d] = np.append(ticks[d], np.int64(t))
        ticks[e] = np.append(ticks[e], np.int64(t + int(rng.integers(0, 2**30))))
    for chunks in (1, 4, 64):
        span = TICKS // chunks
        per_chunk = _cut(ticks, [c * span for c in range(1, chunks)])
        keys = _screened(per_chunk, _ON_CELL, span)
        assert keys.size >= 8 and set((keys & 1023).tolist()) >= {0, 1023, 17, 900, 512, 513}


@pytest.mark.parametrize("detectors", [2, 1024])
@pytest.mark.parametrize("chunks", [2, 4, 2**20])
def test_edge_cells_keep_only_pairs_within_reach(chunks, detectors):
    # A pair split across the first chunk edge, steps - 1 ticks apart, survives; lone
    # arrivals in the first chunk's first cell and the second chunk's last cell, edge
    # cells with no neighbour within reach, are dropped.  Later chunks are empty.
    span, last = TICKS // chunks, detectors - 1
    ticks = [np.empty(0, dtype=np.int64) for _ in range(detectors)]
    ticks[0] = np.array([5, span + 2**29 - 1], dtype=np.int64)
    ticks[last] = np.array([span - 2**29, 2 * span - 1], dtype=np.int64)
    keys = _screened(_cut(ticks, [span, 2 * span][:min(chunks, 3) - 1]), _ON_CELL, span)
    assert sorted((keys >> max(1, last.bit_length())).tolist()) == [span - 2**29, span + 2**29 - 1]


@pytest.mark.parametrize("detectors", [2, 1024])
def test_cell_wider_than_the_span_keeps_every_arrival(detectors):
    # Width 0.5 over 4 chunks: a cell of 2**53 ticks covers each span, so every arrival
    # lies in an edge cell.  One arrival per chunk leaves no two cells within 1 in any
    # chunk, and consecutive arrivals, under two spans apart, are all within reach.
    rng = np.random.default_rng(97)
    span = TICKS // 4
    ticks = [np.empty(0, dtype=np.int64) for _ in range(detectors)]
    for c in range(4):
        d = int(rng.integers(detectors))
        ticks[d] = np.append(ticks[d], np.int64(c * span + int(rng.integers(span))))
    keys = _screened(_cut(ticks, [span, 2 * span, 3 * span]), 0.5, span)
    assert keys.size == 4


@pytest.mark.parametrize("mode", list(WindowMode), ids=lambda m: m.value)
def test_trial_holds_one_chunk(mode):
    # The 180 s benchmark record, 2 x 3.4e6 arrivals: 111 to 167 MB traced as one
    # event list, a chunk of 2**15 arrivals (and a few survivors) when streamed.
    det = DetectionSpec(156e-12, 180.0, mode)
    tracemalloc.start()
    try:
        simulate_uncorrelated([19.05e3, 19.05e3], det, McConfig(seed=811, trials=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("mode", list(WindowMode), ids=lambda m: m.value)
@pytest.mark.parametrize("jitter_s, t_meas_s", [(156e-12, 18.0), (1e-6, 4.0), (1e-3, 4.0)],
                         ids=["156ps-18s", "1us-4s", "1ms-4s"])
def test_trial_peak_stays_within_the_memory_guard(monkeypatch, mode, jitter_s, t_meas_s):
    # The guard charges 8 bytes per chunk count and BYTES_PER_EVENT per arrival held, a
    # chunk's and the expected survivors'.  Sparse windows skip most chunks and at 1 ms
    # every arrival survives; either way a trial holds one chunk beside its survivors.
    simulate_uncorrelated([1.0, 1.0], DetectionSpec(1e-6, 1.0, mode), McConfig(seed=1, trials=1))  # imports
    charged = []
    monkeypatch.setattr(montecarlo, "_require_memory", lambda nbytes, *args: charged.append(nbytes))
    tracemalloc.start()
    try:
        simulate_uncorrelated([19.05e3] * 2, DetectionSpec(jitter_s, t_meas_s, mode), McConfig(seed=5, trials=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(charged) == 1 and 0 < peak <= charged[0]


@pytest.mark.parametrize("field, value", [
    ("seed", True), ("seed", 3.0), ("seed", "3"),
    ("trials", True), ("trials", 2.0), ("trials", np.int64(0)),
    ("workers", 2.5), ("workers", "2"), ("workers", True), ("workers", np.int64(0)),
], ids=["seed-bool", "seed-float", "seed-text", "trials-bool", "trials-float", "trials-numpy-zero",
        "workers-float", "workers-text", "workers-bool", "workers-numpy-zero"])
def test_integer_fields_refuse_bools_floats_and_text(monkeypatch, field, value):
    # Refused by name before any draw, and before a pool could start.
    monkeypatch.setattr(montecarlo, "rng_stream", lambda seed, i: pytest.fail("drew before the check"))
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", lambda **kw: pytest.fail("started a pool"))
    args = {"seed": 1, "trials": 2, "workers": 2, field: value}
    with pytest.raises(ValueError, match=f"^{field}: must be an integer"):
        simulate_uncorrelated([1.0, 1.0], DetectionSpec(1e-6, 1.0),
                              McConfig(seed=args["seed"], trials=args["trials"]), workers=args["workers"])


def test_integer_fields_take_numpy_integers():
    mc = McConfig(seed=np.int64(3), trials=np.int32(2))
    assert (type(mc.seed), type(mc.trials), mc) == (int, int, McConfig(seed=3, trials=2))
    det = DetectionSpec(1e-6, 1.0)
    counts = simulate_uncorrelated([3000.0, 3000.0], det, mc, workers=np.int64(1)).per_trial
    assert np.array_equal(counts, simulate_uncorrelated([3000.0, 3000.0], det, McConfig(seed=3, trials=2)).per_trial)


@pytest.mark.parametrize("mode", list(WindowMode), ids=lambda m: m.value)
def test_refuses_more_than_1024_detectors(monkeypatch, mode):
    # A key holds a 53-bit tick and a 10-bit detector label; refused before any draw.
    monkeypatch.setattr(montecarlo, "rng_stream", lambda seed, i: pytest.fail("drew before the guard"))
    with pytest.raises(ValueError, match="singles_rate_per_detector.*1024"):
        simulate_uncorrelated([1.0] * 1025, DetectionSpec(1e-6, 1.0, mode), McConfig(seed=1, trials=1))


@pytest.mark.parametrize("mode", list(WindowMode), ids=lambda m: m.value)
def test_float32_spec_gives_the_float64_counts(mode):
    # A float32 jitter or record length once drew and windowed in single precision.
    single = DetectionSpec(np.float32(3e-6), np.float32(2.0), mode)
    double = DetectionSpec(float(np.float32(3e-6)), float(np.float32(2.0)), mode)
    mc = McConfig(seed=4, trials=3)
    counts = [simulate_uncorrelated([30e3] * 3, det, mc).per_trial for det in (single, double)]
    assert np.array_equal(*counts)


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


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(0, 2**53), st.integers(1, 64), st.floats(0.0, 1e16, exclude_min=True))
def test_zero_variance_z_score_is_finite_and_signed(count, trials, prediction):
    # Constant counts fall back to the Poisson variance of a positive prediction,
    # subnormal predictions included.
    z = McResult.from_counts(np.full(trials, count), prediction).z_score
    assert math.isfinite(z)
    assert (z > 0.0, z < 0.0) == (count > prediction, count < prediction)


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


@pytest.mark.parametrize("mode", list(WindowMode), ids=lambda m: m.value)
def test_workers_do_not_change_results(mode):
    det = DetectionSpec(1e-6, 5.0, mode)
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
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _SerialPool)
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


def test_experiment_memory_guard_refuses_before_drawing(monkeypatch):
    # 1e12 trials: tens of terabytes of counts and estimates, refused before any generator is built.
    monkeypatch.setattr(montecarlo, "rng_stream", lambda seed, b: pytest.fail("drew before the guard"))
    with pytest.raises(ValueError, match="trials.*memory"):
        simulate_experiment(1e5, PhasePoint(math.pi / 4), 2, 1.0, SpuriousCount(0.0, 0.0),
                            McConfig(seed=1, trials=10**12))


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
