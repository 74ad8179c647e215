"""Accidental-coincidence phase errors and safe phase-bias windows.

Uncorrelated single photons that happen to arrive at all N detectors
within one jitter window mimic genuine N-fold coincidences.  This module
computes the expected accidental count, converts it into the equivalent
shift of the inferred interferometer phase, maps out the cusps where that
shift blows up, and finds the bias windows where it stays below a chosen
noise floor.

Phase conventions: ``phase_total_rad`` is always the combined rotation
plus bias phase.  The fringe has period ``2*pi/N``; the error magnitude
peaks in sharp cusps at multiples of ``pi/N``.  Around the cusps where the
coincidence count is maximal there is a finite interval in which no real
phase shift can reproduce the accidental count at all; such points are
reported as undefined, never clamped.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

from .model import DetectionSpec, WindowMode, _order, _require, _require_finite, _require_memory
from .sagnac import shot_noise

# Residual of |dphi| - threshold, in rad, at which bisection accepts a crossing.
CROSSING_RESIDUAL_RAD = 1e-9

# Lattice density of bias_zone_scan, in points per pi of range.  The lattice
# is never evaluated as a whole: it only seeds the bisection bracket inside a
# segment that holds a crossing, and is kept so that the pinned output bytes
# hold until the benchmark's digests are captured again.
SCAN_POINTS_PER_PI = 4096

# Peak memory of bias_zone_scan per half-period pi/N of range, measured up to
# 787 bytes with two crossings of each of two thresholds in every one.
SCAN_BYTES_PER_CELL = 800

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SpuriousCount:
    """Expected accidental coincidences over one measurement interval."""

    delta_pcc: float
    rate_hz: float

    def __post_init__(self) -> None:
        for name in ("delta_pcc", "rate_hz"):
            object.__setattr__(self, name, _require_finite(getattr(self, name), name))
            _require(getattr(self, name) >= 0.0, name, "must be >= 0")

    @classmethod
    def from_count(cls, delta_pcc: float, measurement_time_s: float) -> "SpuriousCount":
        return cls(delta_pcc, delta_pcc / measurement_time_s)


class PhaseShiftSolution(namedtuple("PhaseShiftSolution", "value_rad branch_sign branch_index defined")):
    """The least-magnitude count -> phase-shift inversion, as an immutable named tuple.

    ``value_rad`` is the signed shift; ``branch_sign`` is the sign of the
    arccosine branch it lies on and ``branch_index`` the fringe index n, so
    that ``N*(phase + value_rad) = sign*acos(...) + 2*pi*n``.  When
    ``defined`` is False the accidental count exceeds what any real shift
    could add at this bias, ``value_rad`` is NaN and sign and index are 0.
    """

    __slots__ = ()


@dataclass(frozen=True)
class BiasZoneReport:
    """Landscape of the accidental-count phase error over a bias range.

    All intervals are sorted, disjoint and clipped to the scanned range.
    ``undefined_intervals`` are the analytic cores at the coincidence
    maxima; a core narrower than the float spacing at its centre is not
    listed.  ``above_shot_noise_intervals`` are the neighborhoods of each
    cusp where the error magnitude exceeds the shot noise (undefined cores
    included); ``safe_windows`` is the complement of the undefined and
    above-safe-threshold regions.  ``crossings_rad`` lists the bisected
    shot-noise crossing points themselves.
    """

    cusp_locations: tuple[float, ...]
    undefined_intervals: tuple[tuple[float, float], ...]
    above_shot_noise_intervals: tuple[tuple[float, float], ...]
    safe_windows: tuple[tuple[float, float], ...]
    optimal_bias_points: tuple[float, ...]
    shot_noise_rad: float
    safe_threshold_rad: float
    crossings_rad: tuple[float, ...]


def spurious_coincidences(singles_total: float, order: int, det: DetectionSpec,
                          dark_rate_hz: float = 0.0) -> SpuriousCount:
    """Expected accidental N-fold coincidences from uncorrelated photons.

    Parameters
    ----------
    singles_total : float
        Uncorrelated photon count over the measurement time, summed across
        all N detectors; each detector sees ``singles_total / N``.
    order : int
        Entangled order N, equal to the number of detectors.
    det : DetectionSpec
        Supplies the jitter window and measurement time.
    dark_rate_hz : float
        Background rate per detector, added to each detector's count.

    Returns
    -------
    SpuriousCount
        ``(m_1 * ... * m_N) * (jitter / t_meas)**(N-1)`` with per-detector
        counts ``m_i = singles_total/N + dark_rate_hz * t_meas``.  For two
        detectors and no dark counts this is ``f**2 * jitter / 4 * t_meas``
        in terms of the total singles rate f.
    """
    singles_total = _require_finite(singles_total, "singles_total")
    _require(singles_total >= 0.0, "singles_total", "must be >= 0")
    order = _order(order, 2)
    dark_rate_hz = _require_finite(dark_rate_hz, "dark_rate_hz")
    _require(dark_rate_hz >= 0.0, "dark_rate_hz", "must be >= 0")
    per_detector = singles_total / order + dark_rate_hz * det.measurement_time_s
    return spurious_coincidences_per_detector([per_detector] * order, det)


def spurious_coincidences_per_detector(counts, det: DetectionSpec) -> SpuriousCount:
    """Generalized accidental count for unequal per-detector counts.

    Accumulated as ``m_1 * prod_{i>=2} (m_i * jitter / t_meas)`` so that
    large N stays in floating-point range wherever the count itself does.
    """
    _require(len(counts) >= 2, "counts", "need at least two detectors")
    ratio = det.jitter_s / det.measurement_time_s
    for i, m in enumerate(counts):
        m = _require_finite(m, f"counts[{i}]")
        _require(m >= 0.0, f"counts[{i}]", "must be >= 0")
        count = m if i == 0 else count * (m * ratio)
    return SpuriousCount.from_count(count, det.measurement_time_s)


def _window_factor(order: int, det: DetectionSpec) -> int:
    """Accidentals in ``det``'s window mode per binned product: 1, or N sliding, where each
    group is anchored at its earliest arrival (less an O(jitter / t_meas) edge term)."""
    return order if det.window_mode is WindowMode.SLIDING else 1


def coincidence_shift_forward(pairs: float, phase_total_rad: float, order: int,
                              dphi_rad: float) -> float:
    """Change in the expected coincidence count under a phase shift.

    Evaluates ``(pairs/2) * {cos(N*phi)(cos(N*dphi) - 1) - sin(N*phi)sin(N*dphi)}``
    via the cancellation-free product form
    ``-pairs * sin(N*phi + N*dphi/2) * sin(N*dphi/2)``.  This is the exact
    forward map inverted by :func:`phase_shift_spurious` and serves as its
    round-trip oracle.
    """
    half = 0.5 * order * dphi_rad
    return -pairs * math.sin(order * phase_total_rad + half) * math.sin(half)


def _minimal_branch(theta, scaled):
    """Least-magnitude ``sign*theta + 2*pi*n - scaled`` over both signs and all n.

    ``theta`` is the arccosine of the target fringe value and ``scaled`` the
    current N*phi; either may be a float or an array.  Returns the signed
    scaled shift N*dphi, wrapped into [-pi, pi), and whether the +theta
    branch gave it; ties go to +theta.  Scalars take the plain ``if``, Python
    floats before any ``ndim`` probe, so the scalar inversion stays cheap.
    """
    plus = (theta - scaled + math.pi) % TWO_PI - math.pi
    minus = (-theta - scaled + math.pi) % TWO_PI - math.pi
    use_plus = abs(plus) <= abs(minus)
    if use_plus.__class__ is bool or not getattr(use_plus, "ndim", 0):
        return (plus if use_plus else minus), use_plus
    import numpy as np
    return np.where(use_plus, plus, minus), use_plus


def phase_shift_spurious(pairs: float, phase_total_rad: float, order: int,
                         count: SpuriousCount) -> PhaseShiftSolution:
    """Phase shift that reproduces an accidental-count excess.

    Solves ``delta_pcc = P_cc(phi + dphi) - P_cc(phi)`` for ``dphi``:
    ``dphi = (sign*acos(2*dpcc/pairs + cos(N*phi)) + 2*pi*n)/N - phi``.
    Of all arccosine signs and fringe indices n the smallest-magnitude
    solution is returned, with the sign and index it came from.
    :func:`coincidence_shift_forward` maps it back to the accidental count.
    When the arccosine argument exceeds one (near a coincidence-maximum
    cusp) no real solution exists and the result carries ``defined=False``.
    Full validation, with the same messages, runs only if a fast in-range float test fails.
    """
    if not (pairs.__class__ is float and phase_total_rad.__class__ is float and 0.0 < pairs < math.inf
            and -math.inf < phase_total_rad < math.inf and order.__class__ is int and order >= 1):
        pairs = _require_finite(pairs, "pairs")
        _require(pairs > 0.0, "pairs", "must be > 0")
        phase_total_rad = _require_finite(phase_total_rad, "phase_total_rad")
        order = _order(order)
    scaled = order * phase_total_rad
    acos_arg = 2.0 * count.delta_pcc / pairs + math.cos(scaled)
    if acos_arg > 1.0:
        return PhaseShiftSolution(math.nan, 0, 0, False)
    theta = math.acos(max(acos_arg, -1.0))
    shift, plus = _minimal_branch(theta, scaled)
    sign = 1 if plus else -1
    index = round((scaled + shift - sign * theta) / TWO_PI)
    return PhaseShiftSolution(shift / order, sign, index, True)


def phase_shift_cusp(pairs: float, order: int, count: SpuriousCount) -> float:
    """Peak phase error at a cusp, ``(2/N) * sqrt(delta_pcc / pairs)``.

    Small-shift limit of the inversion at the cusps; also equals (to second
    order) the half-width of the undefined interval around a
    coincidence-maximum cusp.
    """
    pairs = _require_finite(pairs, "pairs")
    _require(pairs > 0.0, "pairs", "must be > 0")
    return 2.0 / _order(order) * math.sqrt(count.delta_pcc / pairs)


def undefined_half_width(pairs: float, order: int, count: SpuriousCount) -> float:
    """Half-width of the no-solution interval around coincidence maxima.

    Exact arccosine-domain boundary ``acos(1 - 2*dpcc/pairs) / N``, written
    as ``2*asin(sqrt(dpcc/pairs)) / N`` so that it keeps its digits however
    small the accidental fraction; the full half-period ``pi/N`` once the
    accidental count reaches the pair count (no bias angle can absorb it
    anywhere).
    """
    pairs = _require_finite(pairs, "pairs")
    _require(pairs > 0.0, "pairs", "must be > 0")
    order = _order(order)
    fraction = count.delta_pcc / pairs
    if fraction >= 1.0:
        return math.pi / order
    return 2.0 * math.asin(math.sqrt(fraction)) / order


def phase_shift_profile(pairs: float, phase_total_rad, order: int,
                        count: SpuriousCount):
    """Smallest-magnitude phase shift over an array of bias points.

    Returns ``(signed, defined)`` arrays: the signed minimal solution (NaN
    where undefined) and a boolean mask of where a real solution exists.
    The same inversion as :func:`phase_shift_spurious`, evaluated with
    NumPy over the whole array at once.
    """
    import numpy as np
    pairs = _require_finite(pairs, "pairs")
    _require(pairs > 0.0, "pairs", "must be > 0")
    phases = np.asarray(phase_total_rad, dtype=float)
    scaled = _order(order) * phases
    acos_arg = 2.0 * count.delta_pcc / pairs + np.cos(scaled)
    defined = acos_arg <= 1.0
    theta = np.arccos(np.clip(acos_arg, -1.0, 1.0))
    shift, _ = _minimal_branch(theta, scaled)
    signed = np.where(defined, shift / order, np.nan)
    return signed, defined


def _bisect_crossing(f, level: float, lo: float, hi: float) -> float:
    """Bisect where ``f`` crosses ``level`` in (lo, hi): the first midpoint
    within ``CROSSING_RESIDUAL_RAD`` of it, else the midpoint of the bracket
    collapsed to the float spacing."""
    above_lo = f(lo) > level
    while hi - lo > 1e-15 * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid - level) < CROSSING_RESIDUAL_RAD:
            return mid
        if (f_mid > level) == above_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _merge_intervals(intervals):
    # Touching within the float spacing joins, as saturated cores' shared edges do.
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1] + 1e-15 * max(1.0, abs(out[-1][1])):
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def _hot_intervals(magnitude, threshold, point, n, ends, values, cores):
    """Maximal intervals where the error magnitude exceeds ``threshold``.

    ``ends`` are the sorted bias points between which the magnitude is
    monotone and ``values`` the magnitude there.  So a segment between
    consecutive ends holds a crossing only when its end values straddle the
    threshold.  A binary search over the lattice ``point(0) ... point(n - 1)``
    then finds the cell that holds it: lattice points at or beyond the
    segment's ends take the side of that end, only points inside it are
    inverted, and bisection starts from the cell clipped to the segment.
    The range ends bound intervals that reach them.  The pairs are merged
    with ``cores``, the listed undefined intervals.  Returns (intervals,
    crossing_points).
    """
    hot = [v > threshold for v in values]
    crossings = []
    for a, b, left, right in zip(ends, ends[1:], hot, hot[1:]):
        if left == right:
            continue
        i, j = 0, n - 1
        while j - i > 1:
            mid = (i + j) // 2
            x = point(mid)
            if x <= a or (x < b and (magnitude(x) > threshold) == left):
                i = mid
            else:
                j = mid
        crossings.append(_bisect_crossing(magnitude, threshold, max(point(i), a), min(point(j), b)))
    edges = ([ends[0]] if hot[0] else []) + crossings + ([ends[-1]] if hot[-1] else [])
    return _merge_intervals([*zip(edges[::2], edges[1::2]), *cores]), crossings


def _complement(intervals, lo, hi):
    out = []
    cursor = lo
    for a, b in intervals:
        a, b = max(a, lo), min(b, hi)
        if a > cursor:
            out.append((cursor, a))
        cursor = max(cursor, b)
    if cursor < hi:
        out.append((cursor, hi))
    return [(a, b) for a, b in out if b - a > 1e-14]


def bias_zone_scan(pairs: float, order: int, count: SpuriousCount,
                   shot_noise_rad: float, phase_range: tuple[float, float] = (0.0, math.pi),
                   safe_threshold_rad: float | None = None) -> BiasZoneReport:
    """Map cusps, undefined zones, noisy zones and safe bias windows.

    Parameters
    ----------
    pairs, order, count :
        Entangled-pair count over the measurement interval, entangled
        order, and the accidental-coincidence count to absorb.
    shot_noise_rad : float
        Quantum phase noise used for the above-shot-noise intervals.
    phase_range : (float, float)
        Total-phase range to scan.
    safe_threshold_rad : float, optional
        Threshold defining the safe windows; defaults to the shot noise.
        Pass a tenth of the shot noise for the stricter landscape.

    |dphi| rises to exactly the undefined half-width w at every cusp, so
    with w in the undefined cores it is continuous.  Between two cusps it
    falls to one minimum, at ``(k + 1/2)*pi/N +- asin(dpcc/pairs)/N`` (+ for
    even k).  It is evaluated at the range ends, the cusps, the optimal
    points and the minima; only a segment between these whose ends straddle
    a threshold holds a crossing, bisected to a residual below
    ``CROSSING_RESIDUAL_RAD`` from the cell of the ``SCAN_POINTS_PER_PI``
    lattice, clipped to the segment, that holds it.  So a safe window
    narrower than a lattice cell around a minimum is listed too.  The cores
    ``2*k*pi/N -+ w``, clipped to the range, are listed where their ends
    differ as floats: a core narrower than the float spacing at its centre
    is not listed.  ``order`` must be >= 1 and both range ends finite; a
    range needing more than the physical memory at ``SCAN_BYTES_PER_CELL``
    per half-period is refused before any listing.
    """
    order = _order(order)
    lo, hi = phase_range
    _require(hi > lo, "phase_range", "must be an increasing (lo, hi) pair")
    lo, hi = _require_finite(lo, "phase_range"), _require_finite(hi, "phase_range")
    shot_noise_rad = _require_finite(shot_noise_rad, "shot_noise_rad")
    _require(shot_noise_rad > 0.0, "shot_noise_rad", "must be > 0")
    if safe_threshold_rad is None:
        safe_threshold_rad = shot_noise_rad
    safe_threshold_rad = _require_finite(safe_threshold_rad, "safe_threshold_rad")
    _require(safe_threshold_rad > 0.0, "safe_threshold_rad", "must be > 0")

    cell = math.pi / order
    cells = (hi - lo) / cell
    _require_memory(cells * SCAN_BYTES_PER_CELL, "phase_range", f"a scan of {cells:.3g} half-periods")
    cusps = [k * cell for k in range(math.ceil(lo / cell - 1e-12), math.floor(hi / cell + 1e-12) + 1)]
    optimal = [0.5 * cell + k * cell
               for k in range(math.ceil((lo - 0.5 * cell) / cell - 1e-12),
                              math.floor((hi - 0.5 * cell) / cell + 1e-12) + 1)]

    pairs = _require_finite(pairs, "pairs")
    # Undefined cores at the coincidence maxima; saturated (w = pi/N) they tile the range.
    width = undefined_half_width(pairs, order, count)
    clipped = [(max(2.0 * cell * k - width, lo), min(2.0 * cell * k + width, hi))
               for k in range(math.floor(lo / (2.0 * cell)), math.ceil(hi / (2.0 * cell)) + 1)]
    undefined = _merge_intervals((a, b) for a, b in clipped if a < b)

    def magnitude(phi):
        solution = phase_shift_spurious(pairs, phi, order, count)
        return abs(solution.value_rad) if solution.defined else width

    # Each minimum is an optimal point moved by asin(dpcc/pairs)/N toward the coincidence minimum.
    shift = math.asin(min(count.delta_pcc / pairs, 1.0)) / order
    dips = (d for k in range(math.floor(lo / cell) - 1, math.ceil(hi / cell) + 1)
            if lo < (d := (k + 0.5) * cell + (shift if k % 2 == 0 else -shift)) < hi)
    ends = sorted({lo, hi, *(min(max(x, lo), hi) for x in cusps + optimal), *dips})
    values = [magnitude(x) for x in ends]
    # The lattice np.linspace(lo, hi, n), point by point.
    n = max(2, int(math.ceil((hi - lo) / math.pi * SCAN_POINTS_PER_PI)) + 1)
    step = (hi - lo) / (n - 1)

    def point(i):
        return hi if i == n - 1 else i * step + lo

    above_shot, crossings = _hot_intervals(magnitude, shot_noise_rad, point, n, ends, values, undefined)
    above_safe = (above_shot if safe_threshold_rad == shot_noise_rad
                  else _hot_intervals(magnitude, safe_threshold_rad, point, n, ends, values, undefined)[0])

    return BiasZoneReport(
        cusp_locations=tuple(cusps),
        undefined_intervals=tuple(undefined),
        above_shot_noise_intervals=tuple(above_shot),
        safe_windows=tuple(_complement(above_safe, lo, hi)),
        optimal_bias_points=tuple(optimal),
        shot_noise_rad=shot_noise_rad,
        safe_threshold_rad=safe_threshold_rad,
        crossings_rad=tuple(crossings),
    )


def max_singles_flux(pairs_rate_hz: float, order: int, det: DetectionSpec) -> float:
    """Largest uncorrelated flux tolerable at the optimal bias points.

    At the optimal bias (quadrature, where the fringe slope is maximal)
    the accidental count maps to a phase shift of magnitude
    ``asin(2*dpcc/pairs)/N``.  This solves ``|dphi| = shot_noise`` for the
    total singles rate, so running below the returned rate keeps the
    accidental-count error under the quantum noise at those bias points.
    Grows as the jitter shrinks.  The count is that of ``det``'s window mode.
    """
    pairs_rate_hz = _require_finite(pairs_rate_hz, "pairs_rate_hz")
    _require(pairs_rate_hz >= 0.0, "pairs_rate_hz", "must be >= 0")
    order = _order(order, 2)
    if pairs_rate_hz == 0.0:
        return 0.0
    t = det.measurement_time_s
    pairs = pairs_rate_hz * t
    target_shift = shot_noise(order, noon_pairs=pairs)
    # Exact inversion at quadrature, as a binned product; saturates at the largest reachable shift.
    binned = 0.5 * pairs * math.sin(min(order * target_shift, 0.5 * math.pi)) / _window_factor(order, det)
    # Split into two roots so that (t/jitter)**(N-1) cannot overflow at large N.
    per_detector = binned ** (1.0 / order) * (t / det.jitter_s) ** ((order - 1) / order)
    return order * per_detector / t
