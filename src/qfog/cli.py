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

import numpy as np

from .config import ConfigParseError, ConfigValidationError, InstrumentConfig, load_config
from .dispersion import chromatic_delay, coherence_factor, coherence_time, pmd_delay, pump_drift_phase_error
from .model import EARTH_RATE_RAD_PER_S, PhasePoint, _require_memory
from .montecarlo import McConfig, simulate_experiment, simulate_uncorrelated
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

# Peak memory per sweep row: the grid, the profile and the CSV text
# (77 bytes of it) measured 316-322 bytes per row, rounded up.
SWEEP_BYTES_PER_ROW = 330


@dataclass(frozen=True)
class NoiseBudget:
    """Assembled noise report for one instrument configuration."""

    noon_order: int
    transmission: float
    detector_populations: PhotonPopulations
    detector_noon_fraction: float
    pair_rate_hz: float
    singles_rate_hz: float
    noon_pairs: float
    spurious: SpuriousCount
    dark_free_count: float
    dark_only_count: float
    shot_noise_rad: float
    sagnac_phase_rad: float
    total_phase_rad: float
    phase_shift: PhaseShiftSolution
    cusp_shift_rad: float
    undefined_half_width_rad: float
    omega_min_rad_per_s: float
    coherence_time_s: float
    chromatic_delay_s: float
    pmd_delay_s: float
    coherence_chromatic: float
    coherence_pmd: float
    coherence_reciprocal: float
    base_coherence: float
    coherence_total: float
    effective_pairs: float
    pump_drift_relative: float
    pump_drift_abs_rad: float
    max_singles_flux_hz: float


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
    spurious = spurious_coincidences(singles_count, order, det, src.dark_rate_hz)
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

    phi_sl = sagnac_phase(cfg.rotation_rad_per_s, geom)
    point = PhasePoint(phi_sl, cfg.bias_phase_rad)
    shift = phase_shift_spurious(effective_pairs, point.total_rad, order, spurious)
    drift_rel, drift_abs = pump_drift_phase_error(
        cfg.dispersion.pump_drift_nm_per_degc, cfg.dispersion.pump_temp_stability_degc,
        cfg.spectrum, phi_sl)

    return NoiseBudget(
        noon_order=order,
        transmission=transmission,
        detector_populations=at_detector,
        detector_noon_fraction=fraction,
        pair_rate_hz=src.pair_rate_hz,
        singles_rate_hz=singles_rate,
        noon_pairs=noon_pairs,
        spurious=spurious,
        dark_free_count=dark_free.delta_pcc,
        dark_only_count=dark_only.delta_pcc,
        shot_noise_rad=shot_noise(order, noon_pairs=noon_pairs),
        sagnac_phase_rad=phi_sl,
        total_phase_rad=point.total_rad,
        phase_shift=shift,
        cusp_shift_rad=phase_shift_cusp(effective_pairs, order, spurious),
        undefined_half_width_rad=undefined_half_width(effective_pairs, order, spurious),
        omega_min_rad_per_s=omega_min(geom, order, noon_pairs=noon_pairs),
        coherence_time_s=tau,
        chromatic_delay_s=dt_chr,
        pmd_delay_s=dt_pmd,
        coherence_chromatic=c_chr,
        coherence_pmd=c_pmd,
        coherence_reciprocal=c_rec,
        base_coherence=cfg.base_coherence,
        coherence_total=c_total,
        effective_pairs=effective_pairs,
        pump_drift_relative=drift_rel,
        pump_drift_abs_rad=drift_abs,
        max_singles_flux_hz=max_singles_flux(src.pair_rate_hz, order, det),
    )


def _e(x: float) -> str:
    # Locale-independent scientific notation, nine significant digits.
    return f"{x:.8e}"


def _table(rows, width=None) -> str:
    """Render ``(label, value)`` rows as ``label  value`` lines.

    Labels are left-aligned to ``width`` (default: the widest label); a
    ``None`` value prints the label alone, for headings and list items.
    """
    if width is None:
        width = max(len(label) for label, _ in rows)
    return "\n".join(label if value is None else f"{label:<{width}}  {value}"
                     for label, value in rows)


def format_budget(b: NoiseBudget) -> str:
    if b.phase_shift.defined:
        shift_line = (f"{_e(b.phase_shift.value_rad)}  "
                      f"(branch sign {b.phase_shift.branch_sign:+d}, index {b.phase_shift.branch_index})")
    else:
        shift_line = "undefined (bias sits inside an excluded zone; no real shift reproduces the count)"
    return _table([
        ("entangled order N", str(b.noon_order)),
        ("single-photon transmission T", _e(b.transmission)),
        ("pair fraction at detectors R", _e(b.detector_noon_fraction)),
        ("populations per source state (pairs, singles)",
         f"{_e(b.detector_populations.noon_pairs)}, {_e(b.detector_populations.singles)}"),
        ("pair rate at detectors [Hz]", _e(b.pair_rate_hz)),
        ("uncorrelated singles rate [Hz]", _e(b.singles_rate_hz)),
        ("entangled pairs over t_meas", _e(b.noon_pairs)),
        ("accidental coincidence rate [Hz]", _e(b.spurious.rate_hz)),
        ("accidental count over t_meas", _e(b.spurious.delta_pcc)),
        ("dark-count contribution to count", _e(b.spurious.delta_pcc - b.dark_free_count)),
        ("dark-only accidental count", _e(b.dark_only_count)),
        ("shot-noise phase [rad]", _e(b.shot_noise_rad)),
        ("rotation phase [rad]", _e(b.sagnac_phase_rad)),
        ("total phase rotation+bias [rad]", _e(b.total_phase_rad)),
        ("accidental phase shift at bias [rad]", shift_line),
        ("cusp peak phase error [rad]", _e(b.cusp_shift_rad)),
        ("undefined half-width at maxima [rad]", _e(b.undefined_half_width_rad)),
        ("coherence time [s]", _e(b.coherence_time_s)),
        ("chromatic delay [s]", _e(b.chromatic_delay_s)),
        ("pmd delay [s]", _e(b.pmd_delay_s)),
        ("coherence factor: chromatic", _e(b.coherence_chromatic)),
        ("coherence factor: pmd", _e(b.coherence_pmd)),
        ("coherence factor: reciprocal", _e(b.coherence_reciprocal)),
        ("coherence factor: base (measured)", _e(b.base_coherence)),
        ("coherence factor: total", _e(b.coherence_total)),
        ("effective pairs (coherence-scaled)", _e(b.effective_pairs)),
        ("pump-drift relative phase error", _e(b.pump_drift_relative)),
        ("pump-drift absolute error [rad]", _e(b.pump_drift_abs_rad)),
        ("minimum resolvable rotation [rad/s]", _e(b.omega_min_rad_per_s)),
        ("earth rotation rate [rad/s]", _e(EARTH_RATE_RAD_PER_S)),
        ("resolves earth rate", "yes" if b.omega_min_rad_per_s < EARTH_RATE_RAD_PER_S else "no"),
        ("max tolerable singles flux [Hz]", _e(b.max_singles_flux_hz)),
    ])


def sweep_rows(cfg: InstrumentConfig, from_rad: float, to_rad: float, points: int) -> str:
    """CSV text of the accidental phase error over a total-phase range.

    Columns are fixed (see ``SWEEP_COLUMNS``); undefined grid points carry
    an empty error field and a 0 flag.  Output is locale-independent and
    bit-stable across runs.  ``points`` is bounded by the physical memory
    at ``SWEEP_BYTES_PER_ROW`` per row (about 2.6e7 rows per 8 GiB), and a
    larger count is refused before anything is allocated.
    """
    if points < 2:
        raise ValueError(f"points: need at least 2, got {points}")
    _require_memory(points * SWEEP_BYTES_PER_ROW, "points", f"{points} sweep rows")
    if not to_rad > from_rad:
        raise ValueError("sweep range: --from must be strictly below --to")
    b = assemble_budget(cfg)
    grid = np.linspace(from_rad, to_rad, points)
    signed, defined = phase_shift_profile(b.effective_pairs, grid, b.noon_order, b.spurious)
    # Shot noise, its tenth and the cusp error are the same on every row.
    constants = f"{_e(b.shot_noise_rad)},{_e(0.1 * b.shot_noise_rad)},{_e(b.cusp_shift_rad)}"
    lines = [",".join(SWEEP_COLUMNS)]
    for phi, value, ok in zip(grid, signed, defined):
        err = _e(abs(value)) if ok else ""
        lines.append(f"{_e(float(phi))},{err},{1 if ok else 0},{constants}")
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
        ("shot-noise threshold [rad]", _e(report.shot_noise_rad)),
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
    predicted_line = (_e(b.phase_shift.value_rad) if b.phase_shift.defined
                      else "undefined (excluded bias zone)")

    return _table([
        ("window mode", det.window_mode.value),
        ("trials / seed", f"{trials} / {seed}"),
        ("scaled measurement time [s]", _e(scaled_det.measurement_time_s)),
        ("per-detector singles rate [Hz]", _e(rates[0])),
        ("uncorrelated-coincidence run:", None),
        ("  mean count", _e(coincidences.mean_coincidences)),
        ("  variance", _e(coincidences.variance)),
        ("  analytic prediction", _e(coincidences.analytic_prediction)),
        ("  z-score", f"{coincidences.z_score:+.6f}"),
        (f"phase-estimate run at total phase {_e(b.total_phase_rad)} rad:", None),
        ("  inversion failures", f"{estimate.n_failures} of {estimate.n_trials}"),
        ("  empirical bias [rad]", _e(estimate.bias_rad)),
        ("  predicted bias [rad]", predicted_line),
        ("  empirical spread [rad]", _e(estimate.spread_rad)),
        ("  shot-noise spread [rad]", _e(b.shot_noise_rad)),
    ], width=34)


def format_omega_min(cfg: InstrumentConfig) -> str:
    b = assemble_budget(cfg)
    return _table([
        ("entangled order N", str(b.noon_order)),
        ("photon budget M = N*pairs", _e(b.noon_order * b.noon_pairs)),
        ("shot-noise phase [rad]", _e(b.shot_noise_rad)),
        ("minimum resolvable rotation [rad/s]", _e(b.omega_min_rad_per_s)),
        ("earth rotation rate [rad/s]", _e(EARTH_RATE_RAD_PER_S)),
        ("resolves earth rate", "yes" if b.omega_min_rad_per_s < EARTH_RATE_RAD_PER_S else "no"),
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
