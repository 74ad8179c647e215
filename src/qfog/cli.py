"""Batch command-line front end.

Subcommands: ``budget`` (full noise budget for one config), ``sweep``
(phase sweep of the accidental phase error to CSV), ``zones`` (cusp /
undefined / safe bias-window table), ``mc`` (Monte Carlo validation run)
and ``omega-min`` (rotation sensitivity floor).  Configs are strict JSON;
see :mod:`qfog.config`.

Exit codes: 0 success (undefined results are reported, flagged and still
count as success), 2 config parse failure, 3 config validation failure,
4 computation or output failure (including an allocation too large to make).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace

from .config import ConfigParseError, ConfigValidationError, InstrumentConfig, load_config
from .dispersion import chromatic_delay, coherence_factor, coherence_time, pmd_delay, pump_drift_phase_error
from .model import EARTH_RATE_RAD_PER_S, PhasePoint, _require_finite, _require_memory
from .propagation import (
    PhotonPopulations,
    fiber_transmission,
    noon_ratio,
    propagate_populations,
    singles_rate_from_ratio,
)
from .sagnac import omega_min, sagnac_phase, shot_noise
from .spurious import (
    PhaseShiftSolution,
    SpuriousCount,
    bias_zone_scan,
    max_singles_flux,
    phase_shift_cusp,
    phase_shift_profile,
    phase_shift_spurious,
    spurious_coincidences,
    undefined_half_width,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATE = 3
EXIT_COMPUTE = 4

# Previously published crossing estimate for the two-photon benchmark
# regime, printed next to the computed value for comparison only; the
# computed offsets come from bisection on the exact inversion and are the
# authoritative output.
REFERENCE_CROSSING_MRAD = 14.0

SWEEP_COLUMNS = ("phase_total_rad", "abs_dphi_p_rad", "defined_flag",
                 "shot_noise_rad", "shot_noise_tenth_rad", "dphi_p0_rad")

# Peak memory per sweep row: the grid, the profile, its values as Python
# floats and the CSV text (77 bytes of it) measured 319 bytes per row at
# 1e6 rows and up to 358 at 1e5, rounded up.
SWEEP_BYTES_PER_ROW = 360


def _e(x: float) -> str:
    # Locale-independent scientific notation, nine significant digits.
    return f"{x:.8e}"


def _table(rows, width=None) -> str:
    """Render ``(label, value)`` rows as ``label  value`` lines.

    A float value prints through ``_e``, a tuple as its floats
    comma-joined, and anything else through ``str``; a ``None`` value
    prints the label alone, for headings and list items.  Labels are
    left-aligned to ``width`` (default: the widest label).
    """
    def text(value):
        if isinstance(value, float):
            return _e(value)
        return ", ".join(map(_e, value)) if isinstance(value, tuple) else str(value)

    if width is None:
        width = max(len(label) for label, _ in rows)
    return "\n".join(label if value is None else f"{label:<{width}}  {text(value)}"
                     for label, value in rows)


@dataclass(frozen=True)
class NoiseBudget:
    """Assembled noise report for one instrument configuration.

    ``rows`` is the report itself, ordered ``(label, value)`` pairs that
    :func:`format_budget` renders; the named fields are the values that
    the other commands compute from.
    """

    rows: tuple
    noon_order: int
    noon_pairs: float
    singles_rate_hz: float
    spurious: SpuriousCount
    effective_pairs: float
    coherence_total: float
    shot_noise_rad: float
    sagnac_phase_rad: float
    total_phase_rad: float
    phase_shift: PhaseShiftSolution
    cusp_shift_rad: float
    undefined_half_width_rad: float
    omega_min_rad_per_s: float


def _floor_rows(omega_min_rad_per_s: float) -> list:
    """The rotation-floor rows that close both ``budget`` and ``omega-min``."""
    return [("minimum resolvable rotation [rad/s]", omega_min_rad_per_s),
            ("earth rotation rate [rad/s]", EARTH_RATE_RAD_PER_S),
            ("resolves earth rate", "yes" if omega_min_rad_per_s < EARTH_RATE_RAD_PER_S else "no")]


def assemble_budget(cfg: InstrumentConfig) -> NoiseBudget:
    """Run the full analysis pipeline for one configuration."""
    geom, src, path, det = cfg.geometry, cfg.source, cfg.path, cfg.detection
    order = src.noon_order
    t_meas = det.measurement_time_s
    if src.pair_rate_hz <= 0.0:
        raise ValueError("pair_rate_hz: budget needs a nonzero entangled-pair rate")

    transmission = fiber_transmission(path, geom.fiber_length_m)
    initial = PhotonPopulations(src.initial_noon_fraction, 1.0 - src.initial_noon_fraction)
    at_detector = propagate_populations(initial, transmission)
    fraction = noon_ratio(at_detector)

    noon_pairs = src.pair_rate_hz * t_meas
    singles_rate = singles_rate_from_ratio(src.pair_rate_hz, fraction)
    singles_count = singles_rate * t_meas
    # The config is validated, so only a count that overflows fails here.
    try:
        spurious = spurious_coincidences(singles_count, order, det, src.dark_rate_hz)
    except ValueError:
        raise ValueError(f"accidental count: overflows at order {order}, singles rate {_e(singles_rate)} Hz, "
                         f"dark rate {_e(src.dark_rate_hz)} Hz, jitter {_e(det.jitter_s)} s, "
                         f"measurement time {_e(t_meas)} s") from None
    dark_free = spurious_coincidences(singles_count, order, det, 0.0)
    dark_only = spurious_coincidences(0.0, order, det, src.dark_rate_hz)

    tau = coherence_time(cfg.spectrum)
    dt_chr = chromatic_delay(cfg.dispersion, geom.fiber_length_m, cfg.spectrum)
    dt_pmd = pmd_delay(cfg.dispersion, geom.fiber_length_m)
    c_chr = coherence_factor(dt_chr, tau)
    c_pmd = coherence_factor(dt_pmd, tau)
    c_rec = coherence_factor(cfg.dispersion.reciprocal_delay_s, tau)
    c_total = cfg.base_coherence * c_chr * c_pmd * c_rec
    # Reduced visibility makes the same accidental count cost more phase,
    # so the inversion runs against the coherence-scaled pair count.
    effective_pairs = c_total * noon_pairs
    if not effective_pairs > 0.0:
        raise ValueError(f"coherence factor: total {_e(c_total)} (chromatic {_e(c_chr)}, pmd {_e(c_pmd)}, "
                         f"reciprocal {_e(c_rec)}) leaves no fringe visibility to invert")

    phi_sl = sagnac_phase(cfg.rotation_rad_per_s, geom)
    point = PhasePoint(phi_sl, cfg.bias_phase_rad)
    shift = phase_shift_spurious(effective_pairs, point.total_rad, order, spurious)
    if shift.defined:
        shift_text = (f"{_e(shift.value_rad)}  "
                      f"(branch sign {shift.branch_sign:+d}, index {shift.branch_index})")
    else:
        shift_text = "undefined (bias sits inside an excluded zone; no real shift reproduces the count)"
    drift_rel, drift_abs = pump_drift_phase_error(
        cfg.dispersion.pump_drift_nm_per_degc, cfg.dispersion.pump_temp_stability_degc,
        cfg.spectrum, phi_sl)
    shot = shot_noise(order, noon_pairs=noon_pairs)
    cusp = phase_shift_cusp(effective_pairs, order, spurious)
    half_width = undefined_half_width(effective_pairs, order, spurious)
    floor = omega_min(geom, order, noon_pairs=noon_pairs)

    rows = (
        ("entangled order N", order),
        ("single-photon transmission T", transmission),
        ("pair fraction at detectors R", fraction),
        ("populations per source state (pairs, singles)", (at_detector.noon_pairs, at_detector.singles)),
        ("pair rate at detectors [Hz]", src.pair_rate_hz),
        ("uncorrelated singles rate [Hz]", singles_rate),
        ("entangled pairs over t_meas", noon_pairs),
        ("accidental coincidence rate [Hz]", spurious.rate_hz),
        ("accidental count over t_meas", spurious.delta_pcc),
        ("dark-count contribution to count", spurious.delta_pcc - dark_free.delta_pcc),
        ("dark-only accidental count", dark_only.delta_pcc),
        ("shot-noise phase [rad]", shot),
        ("rotation phase [rad]", phi_sl),
        ("total phase rotation+bias [rad]", point.total_rad),
        ("accidental phase shift at bias [rad]", shift_text),
        ("cusp peak phase error [rad]", cusp),
        ("undefined half-width at maxima [rad]", half_width),
        ("coherence time [s]", tau),
        ("chromatic delay [s]", dt_chr),
        ("pmd delay [s]", dt_pmd),
        ("coherence factor: chromatic", c_chr),
        ("coherence factor: pmd", c_pmd),
        ("coherence factor: reciprocal", c_rec),
        ("coherence factor: base (measured)", cfg.base_coherence),
        ("coherence factor: total", c_total),
        ("effective pairs (coherence-scaled)", effective_pairs),
        ("pump-drift relative phase error", drift_rel),
        ("pump-drift absolute error [rad]", drift_abs),
        *_floor_rows(floor),
        ("max tolerable singles flux [Hz]", max_singles_flux(src.pair_rate_hz, order, det)),
    )
    return NoiseBudget(
        rows=rows, noon_order=order, noon_pairs=noon_pairs, singles_rate_hz=singles_rate,
        spurious=spurious, effective_pairs=effective_pairs, coherence_total=c_total,
        shot_noise_rad=shot, sagnac_phase_rad=phi_sl, total_phase_rad=point.total_rad,
        phase_shift=shift, cusp_shift_rad=cusp, undefined_half_width_rad=half_width,
        omega_min_rad_per_s=floor)


def format_budget(b: NoiseBudget) -> str:
    return _table(b.rows)


def sweep_rows(cfg: InstrumentConfig, from_rad: float, to_rad: float, points: int) -> str:
    """CSV text of the accidental phase error over a total-phase range.

    Columns are fixed (see ``SWEEP_COLUMNS``); undefined grid points carry
    an empty error field and a 0 flag.  Output is locale-independent and
    bit-stable across runs.  ``points`` is bounded by the physical memory
    at ``SWEEP_BYTES_PER_ROW`` per row (about 2.4e7 rows per 8 GiB), and a
    larger count is refused before anything is allocated.
    """
    import numpy as np
    if points < 2:
        raise ValueError(f"points: need at least 2, got {points}")
    _require_memory(points * SWEEP_BYTES_PER_ROW, "points", f"{points} sweep rows")
    _require_finite(from_rad, "--from")
    _require_finite(to_rad, "--to")
    if not to_rad > from_rad:
        raise ValueError("sweep range: --from must be strictly below --to")
    b = assemble_budget(cfg)
    grid = np.linspace(from_rad, to_rad, points)
    signed, defined = phase_shift_profile(b.effective_pairs, grid, b.noon_order, b.spurious)
    # Shot noise, its tenth and the cusp error are the same on every row.
    constants = f"{_e(b.shot_noise_rad)},{_e(0.1 * b.shot_noise_rad)},{_e(b.cusp_shift_rad)}"
    lines = [",".join(SWEEP_COLUMNS)]
    lines += [f"{phi:.8e},{abs(value):.8e},1,{constants}" if ok else f"{phi:.8e},,0,{constants}"
              for phi, value, ok in zip(grid.tolist(), signed.tolist(), defined.tolist())]
    return "\n".join(lines) + "\n"


def _write_sweep(cfg: InstrumentConfig, args) -> str:
    text = sweep_rows(cfg, args.from_rad, args.to_rad, args.points)
    try:
        with open(args.out, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write sweep CSV to {args.out}: {exc}") from exc
    return f"wrote {args.points} rows to {args.out}"


def format_zones(cfg: InstrumentConfig, threshold: str = "shot") -> str:
    """Cusp, undefined, noisy and safe-window table over total phase [0, pi]."""
    b = assemble_budget(cfg)
    order = b.noon_order
    safe_threshold = b.shot_noise_rad if threshold == "shot" else 0.1 * b.shot_noise_rad
    report = bias_zone_scan(b.effective_pairs, order, b.spurious, b.shot_noise_rad,
                            safe_threshold_rad=safe_threshold)
    rows = [
        ("total-phase range scanned [rad]", f"[{_e(0.0)}, {_e(math.pi)}]"),
        ("shot-noise threshold [rad]", report.shot_noise_rad),
        ("safe-window threshold [rad]", f"{_e(report.safe_threshold_rad)} ({threshold})"),
        ("cusps (k*pi/N) [rad]:", None),
    ]
    for cusp in report.cusp_locations:
        kind = "coincidence maximum" if round(order * cusp / math.pi) % 2 == 0 else "coincidence minimum"
        rows.append((f"  {_e(cusp)}  {kind}", None))
    offsets = []
    if report.crossings_rad and report.cusp_locations:
        mrad = sorted({f"{abs(c - min(report.cusp_locations, key=lambda k: abs(k - c))) * 1e3:.4f}"
                       for c in report.crossings_rad})
        offsets = [(f"computed crossing offsets from cusps [mrad]: {', '.join(mrad)}", None),
                   (f"published estimate for this regime [mrad]: "
                    f"{REFERENCE_CROSSING_MRAD:.1f} (for comparison, not asserted)", None)]
    for heading, intervals, after in (
            ("undefined intervals (no real solution) [rad]:", report.undefined_intervals, []),
            ("above-shot-noise intervals [rad]:", report.above_shot_noise_intervals, offsets),
            ("safe windows (|dphi| < threshold) [rad]:", report.safe_windows, [])):
        rows.append((heading, None))
        rows += [(f"  [{_e(lo)}, {_e(hi)}]", None) for lo, hi in intervals] or [("  (none)", None)]
        rows += after
    rows.append(("optimal bias points (pi/2N + k*pi/N) [rad]:", None))
    rows += [(f"  {_e(point)}", None) for point in report.optimal_bias_points]
    return _table(rows, width=37)


def format_mc(cfg: InstrumentConfig, trials: int, seed: int, scale: float,
              workers: int = 1) -> str:
    from .montecarlo import McConfig, simulate_experiment, simulate_uncorrelated
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale: must lie in (0, 1], got {scale}")
    det = cfg.detection
    scaled_det = replace(det, measurement_time_s=det.measurement_time_s * scale)
    b = assemble_budget(replace(cfg, detection=scaled_det))
    order = b.noon_order
    mc = McConfig(seed=seed, trials=trials)

    rates = [b.singles_rate_hz / order] * order
    coincidences = simulate_uncorrelated(rates, scaled_det, mc, workers=workers)
    point = PhasePoint(b.sagnac_phase_rad, cfg.bias_phase_rad)
    estimate = simulate_experiment(b.noon_pairs, point, order, b.coherence_total, b.spurious, mc)

    return _table([
        ("window mode", det.window_mode.value),
        ("trials / seed", f"{trials} / {seed}"),
        ("scaled measurement time [s]", scaled_det.measurement_time_s),
        ("per-detector singles rate [Hz]", rates[0]),
        ("uncorrelated-coincidence run:", None),
        ("  mean count", coincidences.mean_coincidences),
        ("  variance", coincidences.variance),
        ("  analytic prediction", coincidences.analytic_prediction),
        ("  z-score", f"{coincidences.z_score:+.6f}"),
        (f"phase-estimate run at total phase {_e(b.total_phase_rad)} rad:", None),
        ("  inversion failures", f"{estimate.n_failures} of {estimate.n_trials}"),
        ("  empirical bias [rad]", estimate.bias_rad),
        ("  predicted bias [rad]", b.phase_shift.value_rad if b.phase_shift.defined
         else "undefined (excluded bias zone)"),
        ("  empirical spread [rad]", estimate.spread_rad),
        ("  shot-noise spread [rad]", b.shot_noise_rad),
    ], width=34)


def format_omega_min(cfg: InstrumentConfig) -> str:
    b = assemble_budget(cfg)
    return _table([
        ("entangled order N", b.noon_order),
        ("photon budget M = N*pairs", b.noon_order * b.noon_pairs),
        ("shot-noise phase [rad]", b.shot_noise_rad),
        *_floor_rows(b.omega_min_rad_per_s),
    ])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfog",
        description="Noise budgeting for entangled-photon fiber optic gyroscopes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON instrument config")
        p.set_defaults(handler=handler)
        return p

    add("budget", lambda cfg, a: format_budget(assemble_budget(cfg)), "full noise budget report")

    p = add("sweep", _write_sweep, "accidental phase error vs total phase, to CSV")
    p.add_argument("--from", dest="from_rad", type=float, required=True,
                   help="start of the total-phase range [rad]")
    p.add_argument("--to", dest="to_rad", type=float, required=True,
                   help="end of the total-phase range [rad]")
    p.add_argument("--points", type=int, required=True, help="number of rows")
    p.add_argument("--out", required=True, help="output CSV path")

    p = add("zones", lambda cfg, a: format_zones(cfg, threshold=a.threshold),
            "cusp, undefined and safe-bias-window table")
    p.add_argument("--threshold", choices=("shot", "tenth"), default="shot",
                   help="safe-window threshold: shot noise or a tenth of it")

    p = add("mc", lambda cfg, a: format_mc(cfg, a.trials, a.seed, a.scale, a.workers),
            "Monte Carlo validation of the coincidence model")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=20240901)
    p.add_argument("--scale", type=float, default=0.01,
                   help="measurement-time scale factor to bound runtime")
    p.add_argument("--workers", type=int, default=1,
                   help="process count of the uncorrelated run; results are identical for any value")

    add("omega-min", lambda cfg, a: format_omega_min(cfg), "rotation sensitivity floor vs earth rate")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigParseError as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigValidationError as exc:
        print(f"config validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATE
    try:
        text = args.handler(cfg, args)
    except (ValueError, ArithmeticError, MemoryError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    print(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
