import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qfog import (
    DetectionSpec,
    PhaseShiftSolution,
    SourceSpec,
    SpuriousCount,
    WindowMode,
    bias_zone_scan,
    coincidence_shift_forward,
    max_singles_flux,
    phase_shift_cusp,
    phase_shift_profile,
    phase_shift_spurious,
    shot_noise,
    spurious_coincidences,
    spurious_coincidences_per_detector,
    undefined_half_width,
)
from qfog import spurious
from qfog.cli import assemble_budget
from qfog.config import load_config
from qfog.spurious import (
    CROSSING_RESIDUAL_RAD,
    SCAN_POINTS_PER_PI,
    _bisect_crossing,
    _complement,
    _merge_intervals,
)

# Two-photon half-hour benchmark: 4 kHz pair flux, 38 kHz uncorrelated flux,
# 156 ps jitter.
PAIRS = 7.2e6
COUNT = SpuriousCount.from_count(101.3, 1800.0)
DET = DetectionSpec(jitter_s=156e-12, measurement_time_s=1800.0)
SHOT = shot_noise(2, noon_pairs=PAIRS)


def expanded_shift_forward(pairs, phi, order, dphi):
    """Independent oracle: the trig-expanded form of the forward map."""
    return 0.5 * pairs * (math.cos(order * phi) * (math.cos(order * dphi) - 1.0)
                          - math.sin(order * phi) * math.sin(order * dphi))


def test_spurious_count_zero_without_photons():
    result = spurious_coincidences(0.0, 2, DET, dark_rate_hz=0.0)
    assert result.delta_pcc == 0.0
    assert result.rate_hz == 0.0


def test_spurious_rate_benchmark():
    singles = 38.1e3 * DET.measurement_time_s
    result = spurious_coincidences(singles, 2, DET)
    assert result.rate_hz == pytest.approx(0.0566, rel=0.05)
    # For N=2 the rate form is f**2 * tau / 4.
    assert result.rate_hz == pytest.approx(38.1e3 ** 2 * 156e-12 / 4.0, rel=1e-12)


def test_spurious_rate_projected_link():
    det = DetectionSpec(jitter_s=200e-12, measurement_time_s=1800.0)
    result = spurious_coincidences(40e3 * det.measurement_time_s, 2, det)
    assert result.rate_hz == pytest.approx(0.08, rel=0.02)


def test_half_hour_integration_count():
    singles = 38.1e3 * DET.measurement_time_s
    count = spurious_coincidences(singles, 2, DET).delta_pcc
    assert 50.0 < count < 200.0  # order 1e2


def test_dark_counts_enter_per_detector():
    singles = 38e3 * DET.measurement_time_s
    bright = spurious_coincidences(singles, 2, DET).delta_pcc
    dark_only = spurious_coincidences(0.0, 2, DET, dark_rate_hz=1e3).delta_pcc
    # A kHz-scale dark rate on its own sits about two orders of magnitude
    # below the uncorrelated-photon effect.
    assert dark_only / bright == pytest.approx((1.0 / 19.0) ** 2, rel=1e-9)
    assert 1e-3 < dark_only / bright < 1e-2
    # Included alongside the singles it only ever increases the count.
    combined = spurious_coincidences(singles, 2, DET, dark_rate_hz=1e3).delta_pcc
    assert combined > bright


def test_per_detector_product_matches_equal_split():
    singles = 3.0e7
    equal = spurious_coincidences(singles, 3, DET).delta_pcc
    product = spurious_coincidences_per_detector([singles / 3] * 3, DET).delta_pcc
    assert product == pytest.approx(equal, rel=1e-12)
    lopsided = spurious_coincidences_per_detector([2e7, 0.5e7, 0.5e7], DET).delta_pcc
    assert lopsided != pytest.approx(equal, rel=1e-3)
    # At two detectors the equal split runs the product's operations: equal to the last bit.
    for singles, dark in ((6.84e7, 0.0), (3.3e5, 17.0), (1e-3, 2.5e3)):
        m = singles / 2 + dark * DET.measurement_time_s
        assert spurious_coincidences(singles, 2, DET, dark) == spurious_coincidences_per_detector([m, m], DET)
    # 1e9 per detector: m**N leaves float range from N = 35 on, the count does not.
    for order in range(2, 41):
        equal = spurious_coincidences(1e9 * order, order, DET).delta_pcc
        product = spurious_coincidences_per_detector([1e9] * order, DET).delta_pcc
        assert equal == pytest.approx(product, rel=1e-12)


def test_equal_split_holds_no_list_of_n_counts():
    tracemalloc.start()
    try:
        spurious_coincidences(1e9, 10**6, DET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("order", [2, 3, 40])
def test_equal_split_overflow_reaches_the_count_as_inf(order):
    with pytest.raises(ValueError, match=r"^delta_pcc: must be a finite number, got inf$"):
        spurious_coincidences(1e300, order, DET)


def test_forward_map_zero_and_periodic():
    assert coincidence_shift_forward(PAIRS, 0.4, 2, 0.0) == 0.0
    full_period = coincidence_shift_forward(PAIRS, 0.4, 2, math.pi)  # 2*pi/N
    assert full_period == pytest.approx(0.0, abs=1e-6 * PAIRS)


def test_forward_map_linearization_at_quadrature():
    # Small shift at quadrature adds counts at the full fringe slope.
    value = coincidence_shift_forward(PAIRS, math.pi / 4, 2, -1.41e-5)
    assert value == pytest.approx(101.0, rel=0.02)


def test_forward_map_matches_expanded_form():
    rng = np.random.default_rng(17)
    for _ in range(300):
        pairs = float(rng.uniform(1.0, 1e8))
        phi = float(rng.uniform(-6.0, 6.0))
        order = int(rng.integers(2, 7))
        dphi = float(rng.uniform(-0.5, 0.5))
        ours = coincidence_shift_forward(pairs, phi, order, dphi)
        oracle = expanded_shift_forward(pairs, phi, order, dphi)
        assert ours == pytest.approx(oracle, abs=1e-9 * pairs)


def test_phase_shift_zero_count_is_zero_shift():
    solution = phase_shift_spurious(PAIRS, 0.37, 2, SpuriousCount(0.0, 0.0))
    assert solution.defined
    assert abs(solution.value_rad) < 1e-12


def test_phase_shift_at_quadrature():
    solution = phase_shift_spurious(PAIRS, math.pi / 4, 2, COUNT)
    assert solution.defined
    assert solution.value_rad == pytest.approx(-1.41e-5, rel=0.02)


def test_phase_shift_at_coincidence_minimum():
    # At a fringe minimum the exact solution approaches the cusp formula.
    solution = phase_shift_spurious(PAIRS, math.pi / 2, 2, COUNT)
    assert solution.defined
    assert abs(solution.value_rad) == pytest.approx(3.75e-3, rel=0.02)
    assert abs(solution.value_rad) == pytest.approx(
        phase_shift_cusp(PAIRS, 2, COUNT), rel=1e-3)


def test_phase_shift_undefined_near_maximum():
    solution = phase_shift_spurious(PAIRS, 1e-4, 2, COUNT)
    assert not solution.defined
    assert math.isnan(solution.value_rad)


def test_phase_shift_rejects_zero_pairs():
    with pytest.raises(ValueError, match="pairs"):
        phase_shift_spurious(0.0, 0.3, 2, COUNT)


@pytest.mark.parametrize("args, message", [
    ((0.0, 0.3, 2), "pairs: must be > 0"),
    ((-1.0, 0.3, 2), "pairs: must be > 0"),
    ((-1, 0.3, 2), "pairs: must be > 0"),
    ((math.nan, 0.3, 2), "pairs: must be a finite number, got nan"),
    ((math.inf, 0.3, 2), "pairs: must be a finite number, got inf"),
    ((-math.inf, 0.3, 2), "pairs: must be a finite number, got -inf"),
    (("x", 0.3, 2), "pairs: must be a finite number, got 'x'"),
    ((None, 0.3, 2), "pairs: must be a finite number, got None"),
    ((PAIRS, math.nan, 2), "phase_total_rad: must be a finite number, got nan"),
    ((PAIRS, math.inf, 2), "phase_total_rad: must be a finite number, got inf"),
    ((PAIRS, -math.inf, 2), "phase_total_rad: must be a finite number, got -inf"),
    ((PAIRS, 0.3, 0), "order: must be >= 1, got 0"),
    ((math.nan, math.nan, 0), "pairs: must be a finite number, got nan"),
])
def test_phase_shift_error_texts(args, message):
    # The combined fast test only decides whether the field-by-field checks run.
    with pytest.raises(ValueError) as raised:
        phase_shift_spurious(*args, COUNT)
    assert str(raised.value) == message


@pytest.mark.parametrize("call, expected", [
    (lambda: phase_shift_spurious(PAIRS, 0.3, 2.5, COUNT), "order: must be an integer, got 2.5"),
    (lambda: bias_zone_scan(PAIRS, 2.5, COUNT, SHOT), "order: must be an integer, got 2.5"),
    (lambda: shot_noise(True, noon_pairs=1e6), "order: must be an integer, got True"),
    (lambda: undefined_half_width(PAIRS, 0, COUNT), "order: must be >= 1, got 0"),
    (lambda: phase_shift_cusp(PAIRS, 0, COUNT), "order: must be >= 1, got 0"),
    (lambda: spurious_coincidences(1e3, 2.5, DET), "order: must be an integer, got 2.5"),
    (lambda: type(SourceSpec(np.int64(3), 4000.0, 0.95).noon_order), int),
    (lambda: type(phase_shift_spurious(PAIRS, 0.3, np.int64(2), COUNT).value_rad), float),
], ids=["shift-fraction", "scan-fraction", "shot-noise-bool", "half-width-zero", "cusp-zero",
        "accidentals-fraction", "source-numpy", "shift-numpy"])
def test_every_order_passes_one_integer_check(call, expected):
    # Fractional and bool orders are refused by name, an order of 0 before any division;
    # NumPy integers are taken and become Python ints.
    if isinstance(expected, str):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == expected
    else:
        assert call() is expected


PAIRS_CALLS = {
    "undefined_half_width": lambda p: undefined_half_width(p, 2, COUNT),
    "phase_shift_profile": lambda p: phase_shift_profile(p, [0.3], 2, COUNT),
    "bias_zone_scan": lambda p: bias_zone_scan(p, 2, COUNT, SHOT),
}


@pytest.mark.parametrize("pairs", [math.inf, math.nan, "x"], ids=["inf", "nan", "text"])
@pytest.mark.parametrize("name", sorted(PAIRS_CALLS))
def test_every_pair_count_passes_one_finite_check(name, pairs):
    # As in phase_shift_cusp.  An infinite count once gave a zero half-width and an all-defined
    # profile of zeros, NaN was refused as "must be > 0" and text raised a TypeError.
    with pytest.raises(ValueError) as raised:
        PAIRS_CALLS[name](pairs)
    assert str(raised.value) == f"pairs: must be a finite number, got {pairs!r}"


@pytest.mark.parametrize("phi", [0.0, 1e-4, 0.3, math.pi / 4, math.pi / 2, 2.0, -7.5])
def test_phase_shift_takes_numpy_and_int_inputs_like_floats(phi):
    expected = phase_shift_spurious(PAIRS, phi, 2, COUNT)
    for pairs, phase, order in [(np.float64(PAIRS), phi, 2), (PAIRS, np.float64(phi), 2),
                                (np.float64(PAIRS), np.float64(phi), np.int64(2)), (int(PAIRS), phi, 2)]:
        assert phase_shift_spurious(pairs, phase, order, COUNT) == expected
    if phi == round(phi):
        assert phase_shift_spurious(PAIRS, int(phi), 2, COUNT) == expected


# NumPy 2 keeps a float32 operand's single precision against Python floats,
# so each entry point converts the scalars it validated.  Each value is named
# as its call's errors name it.
FLOAT32_CALLS = {
    "phase_shift_spurious": (lambda p, phi: phase_shift_spurious(p, phi, 2, COUNT)[:1],
                             dict(pairs=PAIRS, phase_total_rad=0.3)),
    "coincidence_shift_forward": (lambda p, phi, d: (coincidence_shift_forward(p, phi, 2, d),),
                                  dict(pairs=PAIRS, phase_total_rad=0.3, dphi_rad=-1.41e-5)),
    "phase_shift_cusp": (lambda p: (phase_shift_cusp(p, 2, COUNT),), dict(pairs=PAIRS)),
    "undefined_half_width": (lambda p: (undefined_half_width(p, 2, COUNT),), dict(pairs=PAIRS)),
    "phase_shift_profile": (lambda p, phi: tuple(phase_shift_profile(p, [phi], 2, COUNT)[0].tolist()),
                            dict(pairs=PAIRS, phase_total_rad=0.3)),
    "spurious_coincidences": (lambda s, d: tuple(vars(spurious_coincidences(s, 2, DET, d)).values()),
                              dict(singles_total=6.84e7, dark_rate_hz=0.3)),
    "spurious_coincidences_per_detector":
        (lambda a, b: tuple(vars(spurious_coincidences_per_detector([a, b], DET)).values()),
         {"counts[0]": 3.4e7, "counts[1]": 3.3e7}),
    "SpuriousCount": (lambda d, r: tuple(vars(SpuriousCount(d, r)).values()), dict(delta_pcc=101.3, rate_hz=0.3)),
    "SpuriousCount.from_count": (lambda d, t: tuple(vars(SpuriousCount.from_count(d, t)).values()),
                                 dict(delta_pcc=101.3, measurement_time_s=1800.0)),
    "max_singles_flux": (lambda r: (max_singles_flux(r, 2, DET),), dict(pairs_rate_hz=4000.3)),
    "bias_zone_scan": (lambda p, lo, s: (lambda r: r.crossings_rad + r.cusp_locations + r.optimal_bias_points
                                         + (r.shot_noise_rad, r.safe_threshold_rad))(
        bias_zone_scan(p, 2, COUNT, s, phase_range=(lo, 3.0))),
                       dict(pairs=PAIRS, phase_range=0.1, shot_noise_rad=SHOT)),
}


@pytest.mark.parametrize("name", sorted(FLOAT32_CALLS))
def test_float32_inputs_give_the_float64_results_as_python_floats(name):
    call, values = FLOAT32_CALLS[name]
    single = [np.float32(v) for v in values.values()]
    got, expected = call(*single), call(*map(float, single))
    assert got == expected
    assert all(type(x) is float for x in got)


@pytest.mark.parametrize("bad", [True, 10**400], ids=["True", "10**400"])
@pytest.mark.parametrize("name", sorted(FLOAT32_CALLS))
def test_real_arguments_refuse_a_bool_or_an_int_past_the_float_range_by_name(name, bad):
    call, values = FLOAT32_CALLS[name]
    for i, arg in enumerate(values):
        with pytest.raises(ValueError) as err:
            call(*(bad if j == i else v for j, v in enumerate(values.values())))
        assert str(err.value).startswith(f"{arg}: ") and len(str(err.value)) < 100, str(err.value)


def test_phase_shift_solution_is_an_immutable_record():
    solution = phase_shift_spurious(PAIRS, math.pi / 4, 2, COUNT)
    assert repr(solution) == ("PhaseShiftSolution(value_rad=-1.4069444446374035e-05, branch_sign=1, "
                              "branch_index=0, defined=True)")
    assert repr(phase_shift_spurious(PAIRS, 1e-4, 2, COUNT)) == (
        "PhaseShiftSolution(value_rad=nan, branch_sign=0, branch_index=0, defined=False)")
    assert solution == PhaseShiftSolution(value_rad=-1.4069444446374035e-05, branch_sign=1,
                                          branch_index=0, defined=True)
    assert solution == phase_shift_spurious(PAIRS, math.pi / 4, 2, COUNT)
    assert solution != phase_shift_spurious(PAIRS, math.pi / 4 + 1e-3, 2, COUNT)
    for field in ("value_rad", "branch_sign", "branch_index", "defined", "extra"):
        with pytest.raises(AttributeError):
            setattr(solution, field, 0)


def _random_defined_samples(rng, size):
    """(pairs, phi, order, count) tuples with a real solution guaranteed.

    Phases cover one fringe period (the inversion is periodic) and
    accidental fractions stay above 1e-5; below that the recovered count
    is limited by float cancellation in the tiny shift, not by the
    inversion itself.
    """
    out = []
    while len(out) < size:
        order = int(rng.choice([2, 3, 4, 6]))
        pairs = float(10.0 ** rng.uniform(2.0, 8.0))
        fraction = float(10.0 ** rng.uniform(-5.0, math.log10(0.25)))
        phi = float(rng.uniform(0.0, 2.0 * math.pi / order))
        if 2.0 * fraction + math.cos(order * phi) <= 1.0 - 1e-9:
            out.append((pairs, phi, order, SpuriousCount.from_count(fraction * pairs, 1.0)))
    return out


def test_inversion_round_trip():
    rng = np.random.default_rng(23)
    for pairs, phi, order, count in _random_defined_samples(rng, 2000):
        solution = phase_shift_spurious(pairs, phi, order, count)
        assert solution.defined
        recovered = coincidence_shift_forward(pairs, phi, order, solution.value_rad)
        assert abs(recovered - count.delta_pcc) <= 1e-9 * count.delta_pcc
        # The reported branch reproduces the shift: N*(phi + dphi) = sign*acos + 2*pi*n.
        theta = math.acos(2.0 * count.delta_pcc / pairs + math.cos(order * phi))
        residual = (order * (phi + solution.value_rad) - solution.branch_sign * theta
                    - 2.0 * math.pi * solution.branch_index)
        assert abs(residual) <= 1e-9


def test_profile_matches_scalar_solver():
    grid = np.linspace(-0.5, math.pi + 0.5, 601)
    signed, defined = phase_shift_profile(PAIRS, grid, 2, COUNT)
    for phi, value, ok in zip(grid, signed, defined):
        solution = phase_shift_spurious(PAIRS, float(phi), 2, COUNT)
        assert solution.defined == bool(ok)
        if solution.defined:
            assert value == pytest.approx(solution.value_rad, abs=1e-12)


def test_shift_sign_alternates_between_cusps():
    grid = np.linspace(0.02, math.pi - 0.02, 500)
    signed, defined = phase_shift_profile(PAIRS, grid, 2, COUNT)
    first_half = signed[defined & (grid > 0.01) & (grid < math.pi / 2 - 0.01)]
    second_half = signed[defined & (grid > math.pi / 2 + 0.01) & (grid < math.pi - 0.01)]
    assert (first_half < 0).all()
    assert (second_half > 0).all()


def test_shift_scales_inversely_with_order():
    # With the accidental fraction and the scaled phase held fixed,
    # N * |dphi| is the same for every order.
    rng = np.random.default_rng(29)
    for _ in range(50):
        fraction = float(10.0 ** rng.uniform(-6.0, -2.0))
        scaled_phi = float(rng.uniform(0.3, math.pi - 0.3))
        reference = None
        for order in (2, 3, 4, 6):
            pairs = 1e6
            count = SpuriousCount.from_count(fraction * pairs, 1.0)
            solution = phase_shift_spurious(pairs, scaled_phi / order, order, count)
            assert solution.defined
            product = order * abs(solution.value_rad)
            if reference is None:
                reference = product
            assert product == pytest.approx(reference, rel=1e-3)


def test_cusp_formula():
    assert phase_shift_cusp(PAIRS, 2, SpuriousCount(0.0, 0.0)) == 0.0
    assert phase_shift_cusp(PAIRS, 2, COUNT) == pytest.approx(3.75e-3, rel=0.01)


def test_cusp_formula_low_flux_benchmark():
    # 20 ms records, ~1956 pairs each, 16000 singles, 100 ps jitter: the
    # cusp-level error stays below the 0.0207 rad classical shot noise.
    det = DetectionSpec(jitter_s=100e-12, measurement_time_s=0.02)
    count = spurious_coincidences(16000.0, 2, det)
    assert count.delta_pcc == pytest.approx(0.32, rel=1e-9)
    peak = phase_shift_cusp(1956.0, 2, count)
    assert peak == pytest.approx(0.013, rel=0.05)
    assert peak < 0.0207


def test_undefined_half_width_matches_cusp_formula():
    rng = np.random.default_rng(31)
    for _ in range(200):
        pairs = float(10.0 ** rng.uniform(2.0, 8.0))
        fraction = float(10.0 ** rng.uniform(-8.0, math.log10(0.05)))
        order = int(rng.choice([2, 3, 4, 6]))
        count = SpuriousCount.from_count(fraction * pairs, 1.0)
        width = undefined_half_width(pairs, order, count)
        assert width == pytest.approx(phase_shift_cusp(pairs, order, count), rel=0.01)
    assert undefined_half_width(PAIRS, 2, COUNT) == pytest.approx(3.75e-3, rel=0.01)


def test_undefined_half_width_saturates():
    swamped = SpuriousCount.from_count(2.0 * PAIRS, 1.0)
    assert undefined_half_width(PAIRS, 2, swamped) == math.pi / 2


def test_scan_with_zero_count_is_all_safe():
    report = bias_zone_scan(PAIRS, 2, SpuriousCount(0.0, 0.0), SHOT)
    assert report.undefined_intervals == ()
    assert report.above_shot_noise_intervals == ()
    assert report.safe_windows == ((0.0, math.pi),)
    assert report.crossings_rad == ()


@pytest.fixture(scope="module")
def benchmark_scan():
    # Widened range so every cusp keeps both of its crossings in view.
    return bias_zone_scan(PAIRS, 2, COUNT, SHOT, phase_range=(-0.5, math.pi + 0.5))


def test_scan_crossing_residuals(benchmark_scan):
    for phi in benchmark_scan.crossings_rad:
        solution = phase_shift_spurious(PAIRS, phi, 2, COUNT)
        assert solution.defined
        assert abs(abs(solution.value_rad) - SHOT) < 1e-9


def test_scan_crossings_symmetric_about_cusps(benchmark_scan):
    offsets = {}
    for phi in benchmark_scan.crossings_rad:
        cusp = min(benchmark_scan.cusp_locations, key=lambda c: abs(c - phi))
        offsets.setdefault(round(cusp, 9), []).append(abs(phi - cusp))
    for cusp, pair in offsets.items():
        assert len(pair) == 2
        assert abs(pair[0] - pair[1]) < 1e-6
    # Same-parity cusps (maxima vs maxima, minima vs minima) agree too.
    by_kind = {0: set(), 1: set()}
    for cusp, pair in offsets.items():
        kind = round(2 * cusp / math.pi) % 2
        by_kind[kind].update(round(off, 7) for off in pair)
    assert len(by_kind[0]) == 1
    assert len(by_kind[1]) == 1


def test_scan_undefined_intervals_match_analytic(benchmark_scan):
    width = undefined_half_width(PAIRS, 2, COUNT)
    for lo, hi in benchmark_scan.undefined_intervals:
        center = 0.5 * (lo + hi)
        assert center == pytest.approx(round(center / math.pi) * math.pi, abs=1e-9)
        assert hi - lo == pytest.approx(2.0 * width, rel=1e-9)


def test_scan_optimal_points_inside_safe_windows(benchmark_scan):
    assert benchmark_scan.safe_windows
    for point in benchmark_scan.optimal_bias_points:
        assert any(lo < point < hi for lo, hi in benchmark_scan.safe_windows)


def test_scan_intervals_sorted_disjoint_in_range(benchmark_scan):
    for intervals in (benchmark_scan.undefined_intervals,
                      benchmark_scan.above_shot_noise_intervals,
                      benchmark_scan.safe_windows):
        for lo, hi in intervals:
            assert -0.5 - 1e-12 <= lo < hi <= math.pi + 0.5 + 1e-12
        for (_, hi1), (lo2, _) in zip(intervals, intervals[1:]):
            assert hi1 <= lo2 + 1e-12


def test_scan_tenth_threshold_shrinks_safe_windows(benchmark_scan):
    strict = bias_zone_scan(PAIRS, 2, COUNT, SHOT, phase_range=(-0.5, math.pi + 0.5),
                            safe_threshold_rad=0.1 * SHOT)
    assert strict.above_shot_noise_intervals == benchmark_scan.above_shot_noise_intervals
    span = sum(hi - lo for lo, hi in strict.safe_windows)
    loose_span = sum(hi - lo for lo, hi in benchmark_scan.safe_windows)
    assert span < loose_span
    for point in strict.optimal_bias_points:
        assert any(lo < point < hi for lo, hi in strict.safe_windows)


def test_scan_threshold_above_cusp_peak_leaves_only_undefined_zones():
    # No bias point reaches the threshold, so nothing crosses it and the
    # hot intervals are the analytic undefined cores alone.
    threshold = 1.5 * undefined_half_width(PAIRS, 2, COUNT)
    report = bias_zone_scan(PAIRS, 2, COUNT, threshold, phase_range=(-0.5, math.pi + 0.5))
    assert report.crossings_rad == ()
    assert len(report.undefined_intervals) == 2
    assert report.above_shot_noise_intervals == report.undefined_intervals


def test_scan_profile_nearly_antiperiodic_by_half_cell():
    # Translating the bias by pi/N flips the sign of the minimal solution;
    # the magnitudes agree to first order in the accidental fraction.
    pairs = 1e6
    count = SpuriousCount.from_count(1e-6 * pairs, 1.0)
    grid = np.linspace(0.3, math.pi / 2 - 0.3, 50)
    base, ok1 = phase_shift_profile(pairs, grid, 2, count)
    shifted, ok2 = phase_shift_profile(pairs, grid + math.pi / 2, 2, count)
    assert ok1.all() and ok2.all()
    assert np.all(np.sign(shifted) == -np.sign(base))
    assert np.allclose(np.abs(shifted), np.abs(base), rtol=1e-3)


def test_scan_with_overwhelming_count():
    report = bias_zone_scan(PAIRS, 2, SpuriousCount.from_count(3.0 * PAIRS, 1.0), SHOT)
    assert report.undefined_intervals == ((0.0, math.pi),)
    assert report.safe_windows == ()
    # The saturated cores tile any range, also where their shared edges,
    # computed from two centres, differ in the last bit.
    far = bias_zone_scan(PAIRS, 34, SpuriousCount.from_count(PAIRS, 1.0), SHOT, phase_range=(-26.8, -19.1))
    assert far.undefined_intervals == far.above_shot_noise_intervals == ((-26.8, -19.1),)


def test_max_flux_zero_pairs():
    assert max_singles_flux(0.0, 2, DET) == 0.0


def test_max_flux_names_the_rate_and_time_whose_product_overflows():
    with pytest.raises(ValueError) as err:
        max_singles_flux(1e308, 2, DetectionSpec(1e-10, 1800.0))
    assert str(err.value) == "pairs_rate_hz: 1e+308 Hz times measurement_time_s 1800.0 s overflows"


def test_max_flux_monotone_in_inverse_jitter():
    tight = DetectionSpec(jitter_s=50e-12, measurement_time_s=1800.0)
    loose = DetectionSpec(jitter_s=500e-12, measurement_time_s=1800.0)
    assert max_singles_flux(4000.0, 2, tight) > max_singles_flux(4000.0, 2, loose)


def test_max_flux_back_substitution():
    rate = max_singles_flux(4000.0, 2, DET)
    assert rate > 0.0
    count = spurious_coincidences(rate * DET.measurement_time_s, 2, DET)
    pairs = 4000.0 * DET.measurement_time_s
    solution = phase_shift_spurious(pairs, math.pi / 4, 2, count)
    assert solution.defined
    target = shot_noise(2, noon_pairs=pairs)
    assert abs(abs(solution.value_rad) - target) / target < 1e-6


@pytest.mark.parametrize("order", [2, 3, 5])
def test_max_flux_back_substitution_in_the_sliding_mode(order):
    # Sliding windows count N times the binned product, so the tolerable flux is
    # N**(-1/N) of the binned one and the shift at quadrature is still the shot noise.
    sliding = DetectionSpec(156e-12, 1800.0, WindowMode.SLIDING)
    rate = max_singles_flux(4000.0, order, sliding)
    assert rate == pytest.approx(max_singles_flux(4000.0, order, DET) * order ** (-1.0 / order), rel=1e-12)
    binned = spurious_coincidences(rate * sliding.measurement_time_s, order, sliding)
    count = SpuriousCount.from_count(order * binned.delta_pcc, sliding.measurement_time_s)
    pairs = 4000.0 * sliding.measurement_time_s
    solution = phase_shift_spurious(pairs, math.pi / (2 * order), order, count)
    target = shot_noise(order, noon_pairs=pairs)
    assert solution.defined and abs(abs(solution.value_rad) - target) / target < 1e-6


def test_sub_shot_noise_cusp_condition_is_quarter_count():
    # At a cusp the error beats the shot noise exactly when the accidental
    # count stays below 1/4, independent of the pair count and order.
    rng = np.random.default_rng(37)
    for _ in range(100):
        pairs = float(10.0 ** rng.uniform(2.0, 9.0))
        order = int(rng.integers(2, 8))
        boundary = SpuriousCount.from_count(0.25, 1.0)
        cusp = phase_shift_cusp(pairs, order, boundary)
        noise = shot_noise(order, noon_pairs=pairs)
        assert cusp == pytest.approx(noise, rel=1e-12)
        assert phase_shift_cusp(pairs, order, SpuriousCount.from_count(0.2499, 1.0)) < noise


def test_scan_counts_cores_narrower_than_its_grid_above_shot_noise():
    # At N = 3 and an accidental fraction of 1e-11 the undefined core at
    # 2*pi/3 is 4e-6 rad wide, and no point of the 7.7e-4 rad grid lands in it.
    count = SpuriousCount.from_count(1e-11 * PAIRS, 1800.0)
    report = bias_zone_scan(PAIRS, 3, count, shot_noise(3, noon_pairs=PAIRS))
    assert len(report.undefined_intervals) == 2
    for lo, hi in report.undefined_intervals:
        assert any(a <= lo and hi <= b for a, b in report.above_shot_noise_intervals)


@pytest.mark.parametrize("order", [2, 3, 40])
def test_undefined_half_width_keeps_digits_at_small_fractions(order):
    # Second order in the fraction x, the half-width is the cusp formula
    # times 1 + x/6, so below x = 1e-12 the two agree to 1e-12.
    for exponent in range(-12, -301, -1):
        count = SpuriousCount.from_count(10.0 ** exponent * PAIRS, 1800.0)
        assert undefined_half_width(PAIRS, order, count) == pytest.approx(
            phase_shift_cusp(PAIRS, order, count), rel=1e-12)


def test_scan_finds_hot_cusps_narrower_than_its_grid():
    # At N = 3 and half the cusp peak the hot intervals around the
    # coincidence minima at pi/3 and pi are about 7e-5 rad wide, well inside
    # one 7.7e-4 rad grid cell, and the shoulders of the cores at 0 and 2*pi/3
    # are as narrow: one crossing at each range end, two at each inner cusp.
    count = SpuriousCount.from_count(1e-8 * PAIRS, 1800.0)
    threshold = 0.5 * undefined_half_width(PAIRS, 3, count)
    report = bias_zone_scan(PAIRS, 3, count, threshold)
    assert len(report.crossings_rad) == 6
    for cusp in report.cusp_locations:
        assert any(lo < cusp < hi or lo == cusp == 0.0 or hi == cusp == math.pi
                   for lo, hi in report.above_shot_noise_intervals)
    for (_, hi1), (lo2, _) in zip(report.above_shot_noise_intervals, report.safe_windows):
        assert hi1 == lo2


def _oracle_case(i):
    """Seeded scan i: N up to 40 (every fourth at 40), a threshold above the
    cusp peak (every third), an accidental count at or above the pair count
    (every sixth) and a range that does not start at 0."""
    rng = np.random.default_rng([20251019, i])
    order = 40 if i % 4 == 0 else int(rng.integers(2, 40))
    pairs = float(10.0 ** rng.uniform(2.0, 9.0))
    fraction = float(rng.uniform(1.0, 3.2) if i % 6 == 1 else 10.0 ** rng.uniform(-14.0, -0.5))
    count = SpuriousCount.from_count(fraction * pairs, 1800.0)
    if i % 3 == 0:
        threshold = 1.5 * undefined_half_width(pairs, order, count)
    else:
        threshold = shot_noise(order, noon_pairs=pairs) * float(10.0 ** rng.uniform(-1.0, 1.5))
    lo = float(rng.uniform(-1.0, 1.0))
    safe = None if i % 2 else threshold * float(10.0 ** rng.uniform(-1.0, 0.5))
    return pairs, order, count, threshold, (lo, lo + float(rng.uniform(0.5, 4.0))), safe


@pytest.mark.parametrize("case", range(96))
def test_scan_agrees_with_a_denser_offset_grid(case):
    # Every point of an independent grid, three times denser and offset from
    # the scan's, is listed exactly where the inversion puts it: above the
    # threshold when undefined or |dphi| exceeds it, safe when below the safe
    # threshold.  Points within 1e-6 rad of an edge, or whose |dphi| lies
    # within the crossing residual of the threshold, may fall either way.
    pairs, order, count, threshold, phase_range, safe = _oracle_case(case)
    report = bias_zone_scan(pairs, order, count, threshold, phase_range, safe)
    lo, hi = phase_range
    n = int(math.ceil((hi - lo) / math.pi * 3 * 4096))
    grid = lo + (np.arange(n) + 0.3183) * (hi - lo) / n
    signed, defined = phase_shift_profile(pairs, grid, order, count)
    magnitude = np.where(defined, np.abs(signed), np.inf)
    for level, intervals, truth in (
            (threshold, report.above_shot_noise_intervals, magnitude > threshold),
            (report.safe_threshold_rad, report.safe_windows, magnitude < report.safe_threshold_rad),
            (np.inf, report.undefined_intervals, ~defined)):
        edges = np.sort([lo, hi, *(edge for interval in intervals for edge in interval)])
        j = np.clip(np.searchsorted(edges, grid), 1, len(edges) - 1)
        far = np.minimum(grid - edges[j - 1], edges[j] - grid) > 1e-6
        clear = ~defined | (np.abs(np.abs(signed) - level) >= CROSSING_RESIDUAL_RAD)
        listed = np.zeros(n, dtype=bool)
        for a, b in intervals:
            listed |= (grid > a) & (grid < b)
        assert np.array_equal(listed[far & clear], truth[far & clear])
    for phi in report.crossings_rad:
        solution = phase_shift_spurious(pairs, phi, order, count)
        assert solution.defined
        assert abs(abs(solution.value_rad) - threshold) < CROSSING_RESIDUAL_RAD


def _shipped_case(name, tenth):
    b = assemble_budget(load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"))
    return (b.effective_pairs, b.noon_order, b.spurious, b.shot_noise_rad, (0.0, math.pi),
            0.1 * b.shot_noise_rad if tenth else None)


def _grid_hot_intervals(pairs, order, count, threshold, phase_range, report):
    """The bracket rule of the whole-lattice grid scan: the profile on
    np.linspace plus the inserted cusp and optimal points, bisection in every
    lattice cell where it crosses the threshold."""
    lo, hi = phase_range
    width = undefined_half_width(pairs, order, count)
    grid = np.linspace(lo, hi, max(2, int(math.ceil((hi - lo) / math.pi * SCAN_POINTS_PER_PI)) + 1))
    extra = np.clip(sorted(report.cusp_locations + report.optimal_bias_points), lo, hi)
    grid = np.insert(grid, np.searchsorted(grid, extra), extra)
    signed, defined = phase_shift_profile(pairs, grid, order, count)
    hot = np.where(defined, np.abs(signed), width) > threshold

    def magnitude(phi):
        solution = phase_shift_spurious(pairs, phi, order, count)
        return abs(solution.value_rad) if solution.defined else width

    crossings = [_bisect_crossing(magnitude, threshold, grid[i], grid[i + 1])
                 for i in np.flatnonzero(hot[1:] != hot[:-1])]
    edges = ([float(grid[0])] if hot[0] else []) + crossings + ([float(grid[-1])] if hot[-1] else [])
    return _merge_intervals([*zip(edges[::2], edges[1::2]), *report.undefined_intervals]), crossings


# At N = 13 and an accidental fraction of 0.278 the least |dphi| lies 0.022
# rad past each optimal point, below the safe threshold where the optimal
# point itself is above it: the safe windows sit off the optimal points.
FAR_DIPS = (230.42923911190485, 13, SpuriousCount.from_count(64.03601114364973, 1800.0),
            0.12813606169741876, (0.9588037580181199, 1.6305276509189048), 0.04505325187322489)


@pytest.mark.parametrize("case", [*range(96), "silvestri2024", "silvestri2024-tenth",
                                  "projected2025", "projected2025-tenth", "far-dips"])
def test_scan_keeps_the_grid_scans_brackets(case):
    # Searching only the segments whose ends straddle the threshold finds
    # the same lattice cells as the whole-lattice profile, so bisection
    # starts from the same brackets and every reported float is equal.
    if case == "far-dips":
        pairs, order, count, threshold, phase_range, safe = FAR_DIPS
    elif isinstance(case, str):
        pairs, order, count, threshold, phase_range, safe = _shipped_case(*case.partition("-")[::2])
    else:
        pairs, order, count, threshold, phase_range, safe = _oracle_case(case)
    report = bias_zone_scan(pairs, order, count, threshold, phase_range, safe)
    above, crossings = _grid_hot_intervals(pairs, order, count, threshold, phase_range, report)
    above_safe, _ = _grid_hot_intervals(pairs, order, count, report.safe_threshold_rad, phase_range, report)
    assert report.crossings_rad == tuple(crossings)
    assert report.above_shot_noise_intervals == tuple(above)
    assert report.safe_windows == tuple(_complement(above_safe, *phase_range))
    if case == "far-dips":
        assert len(report.safe_windows) == 3
        assert not any(lo < x < hi for x in report.optimal_bias_points for lo, hi in report.safe_windows)


def test_scan_inverts_only_around_its_crossings(monkeypatch):
    calls = []
    inversion = spurious.phase_shift_spurious

    def counted(*args):
        calls.append(args[1])
        return inversion(*args)

    monkeypatch.setattr(spurious, "phase_shift_spurious", counted)
    pairs, order, count, shot, _, _ = _shipped_case("silvestri2024", False)
    report = bias_zone_scan(pairs, order, count, shot, phase_range=(-0.5, math.pi + 0.5))
    assert len(report.crossings_rad) == 6
    # The lattice has about 5.4e3 points.
    assert len(calls) < 200, len(calls)


def _closed_form_crossings(pairs, order, count, level):
    """Every phi in [0, pi] where |dphi| = level, each with the slope of
    |dphi| there.  On the forward map, sin(N*phi + N*t/2) = -dpcc/(P*sin(N*t/2))
    with t = +-level; a root counts where the minimal branch gives |t|."""
    ratio = count.delta_pcc / (pairs * math.sin(0.5 * order * level))
    roots = []
    for t in (level, -level):
        base = math.asin(-math.copysign(ratio, t))
        for scaled in (base, math.pi - base):
            for k in range(-1, order + 1):
                phi = (scaled - 0.5 * order * t + 2.0 * math.pi * k) / order
                solution = phase_shift_spurious(pairs, phi, order, count) if 0.0 <= phi <= math.pi else None
                if solution and solution.defined and abs(solution.value_rad - t) < 1e-12:
                    slope = abs(2.0 * math.cos(order * (phi + 0.5 * t)) * math.sin(0.5 * order * t)
                                / math.sin(order * (phi + t)))
                    roots.append((phi, slope))
    return roots


def test_scan_lists_safe_windows_narrower_than_a_lattice_cell():
    # At N = 40 and an accidental fraction of 0.3 a safe threshold 1.5e-6 rad
    # above the least |dphi| leaves one safe window, about 0.91 lattice cell
    # wide, around each of the 40 minima.  Around 8 of them both lattice
    # points are above the threshold; each such window is still listed.
    pairs, order = 1e6, 40
    count = SpuriousCount.from_count(0.3 * pairs, 1.0)
    least = 2.0 * math.asin(0.3) / order
    threshold = least * (1.0 + 1e-4)
    report = bias_zone_scan(pairs, order, count, shot_noise(order, noon_pairs=pairs), (0.0, math.pi), threshold)
    cell = math.pi / order
    minima = [(k + 0.5) * cell + (1 if k % 2 == 0 else -1) * math.asin(0.3) / order for k in range(order)]
    assert len(report.safe_windows) == len(minima)
    for (a, b), dip in zip(report.safe_windows, minima):
        assert a < dip < b

    def magnitude(phi):
        return abs(phase_shift_spurious(pairs, float(phi), order, count).value_rad)

    lattice = np.linspace(0.0, math.pi, SCAN_POINTS_PER_PI + 1)
    blind = [i for i, dip in enumerate(minima)
             if all(magnitude(x) > threshold for x in lattice[np.searchsorted(lattice, dip) - 1:][:2])]
    assert len(blind) == 8
    for i in blind:
        a, b = report.safe_windows[i]
        assert b - a < math.pi / SCAN_POINTS_PER_PI
    roots = _closed_form_crossings(pairs, order, count, threshold)
    assert len(roots) == 2 * len(minima)
    for edge in (x for window in report.safe_windows for x in window):
        phi, slope = min(roots, key=lambda root: abs(root[0] - edge))
        assert abs(edge - phi) < max(1e-6, 2e-9 / slope), (edge, phi, slope)


@pytest.mark.parametrize("order", [0, -2])
def test_scan_rejects_orders_below_one(order):
    with pytest.raises(ValueError) as raised:
        bias_zone_scan(1e6, order, SpuriousCount(1.0, 1.0), 1e-3)
    assert str(raised.value) == f"order: must be >= 1, got {order}"


@pytest.mark.parametrize("phase_range", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan),
                                         (0.0, 1e300), (-1e300, 0.0), (-1.7e308, 1.7e308)])
def test_scan_refuses_unbounded_ranges_before_listing_cusps(phase_range):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^phase_range: "):
            bias_zone_scan(PAIRS, 2, COUNT, SHOT, phase_range=phase_range)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
