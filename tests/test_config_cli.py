import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfog
from qfog import bias_zone_scan
from qfog.cli import assemble_budget, main, sweep_rows
from qfog.config import (
    ConfigParseError,
    ConfigValidationError,
    config_from_dict,
    config_to_dict,
    dump_config,
    load_config,
)

REPO = Path(__file__).resolve().parents[1]
BENCH_CONFIG = REPO / "configs" / "silvestri2024.json"
PROJECTED_CONFIG = REPO / "configs" / "projected2025.json"


@pytest.fixture()
def bench_dict():
    return json.loads(BENCH_CONFIG.read_text())


def _write(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_bundled_configs_load():
    for path in (BENCH_CONFIG, PROJECTED_CONFIG):
        cfg = load_config(path)
        assert cfg.source.noon_order == 2
        assert dump_config(cfg) == path.read_text()


def test_config_round_trip(bench_dict):
    cfg = config_from_dict(bench_dict)
    assert config_from_dict(config_to_dict(cfg)) == cfg
    assert config_from_dict(json.loads(dump_config(cfg))) == cfg


def _in(lo, hi):
    return st.floats(lo, hi, exclude_min=True)


DISPERSION_KEYS = ("chromatic_coeff_ps_per_km_nm", "pmd_coeff_ps_per_sqrt_km", "reciprocal_delay_s",
                   "pump_drift_nm_per_degc", "pump_temp_stability_degc")
# The keys that have a default, by path; a generated config may leave any out.
OPTIONAL_KEYS = [("source", "dark_rate_hz"), ("path", "lumped_loss_db"), ("detection", "window_mode"),
                 ("dispersion",), ("base_coherence",), ("bias_phase_rad",), ("rotation_rad_per_s",),
                 *(("dispersion", key) for key in DISPERSION_KEYS)]


@st.composite
def valid_config_dicts(draw):
    jitter, center = draw(_in(0.0, 1e-3)), draw(_in(1e-7, 1e-5))
    nonneg = st.floats(0.0, 1e6)
    data = {
        "geometry": {"fiber_length_m": draw(_in(0.0, 1e6)), "coil_radius_m": draw(_in(0.0, 10.0)),
                     "wavelength_m": draw(st.floats(1e-7, 1e-5, exclude_min=True, exclude_max=True))},
        "source": {"noon_order": draw(st.integers(2, 64)), "pair_rate_hz": draw(nonneg),
                   "initial_noon_fraction": draw(_in(0.0, 1.0)), "dark_rate_hz": draw(nonneg)},
        "path": {"fiber_loss_db_per_km": draw(nonneg), "lumped_loss_db": draw(nonneg)},
        "detection": {"jitter_s": jitter, "measurement_time_s": draw(_in(jitter, 1e6)),
                      "window_mode": draw(st.sampled_from(["binned", "sliding"]))},
        "spectrum": {"center_wavelength_m": center,
                     "linewidth_m": draw(st.floats(0.0, center, exclude_min=True, exclude_max=True))},
        "dispersion": {key: draw(nonneg) for key in DISPERSION_KEYS},
        "base_coherence": draw(_in(0.0, 1.0)),
        "bias_phase_rad": draw(st.floats(-10.0, 10.0)),
        "rotation_rad_per_s": draw(st.floats(-1.0, 1.0)),
    }
    for path in draw(st.sets(st.sampled_from(OPTIONAL_KEYS))):
        (data if len(path) == 1 else data.get(path[0], {})).pop(path[-1], None)
    return data


@settings(max_examples=150, deadline=None, database=None)
@given(valid_config_dicts())
def test_config_round_trip_property(data):
    cfg = config_from_dict(data)
    assert config_from_dict(config_to_dict(cfg)) == cfg
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(dump_config(cfg))
        assert load_config(path) == cfg


def test_unknown_top_level_key_rejected(bench_dict):
    bench_dict["detectorz"] = {}
    with pytest.raises(ConfigValidationError, match="detectorz"):
        config_from_dict(bench_dict)


def test_unknown_section_key_rejected(bench_dict):
    bench_dict["geometry"]["coil_diameter_m"] = 0.8
    with pytest.raises(ConfigValidationError, match="coil_diameter_m"):
        config_from_dict(bench_dict)


def test_missing_section_rejected(bench_dict):
    del bench_dict["spectrum"]
    with pytest.raises(ConfigValidationError, match="spectrum"):
        config_from_dict(bench_dict)


def test_missing_section_key_rejected(bench_dict):
    del bench_dict["geometry"]["coil_radius_m"]
    with pytest.raises(ConfigValidationError,
                       match=r"geometry: missing required key\(s\) \['coil_radius_m'\]"):
        config_from_dict(bench_dict)


def test_integer_beyond_float_range_rejected(bench_dict):
    bench_dict["detection"]["jitter_s"] = 10**400
    with pytest.raises(ConfigValidationError, match="detection.jitter_s") as info:
        config_from_dict(bench_dict)
    assert len(str(info.value)) < 100


def test_invalid_physics_rejected(bench_dict):
    bench_dict["detection"]["jitter_s"] = -1.0
    with pytest.raises(ConfigValidationError, match="jitter_s"):
        config_from_dict(bench_dict)


def test_bad_window_mode_rejected(bench_dict):
    bench_dict["detection"]["window_mode"] = "rolling"
    with pytest.raises(ConfigValidationError, match="window_mode"):
        config_from_dict(bench_dict)


def test_non_integer_order_rejected(bench_dict):
    bench_dict["source"]["noon_order"] = 2.5
    with pytest.raises(ConfigValidationError, match="noon_order"):
        config_from_dict(bench_dict)


def test_parse_errors_are_distinct(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigParseError):
        load_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigParseError):
        load_config(bad)
    # Longer than the interpreter's integer-string limit (4300 digits).
    bad.write_text('{"base_coherence": 1' + "0" * 5000 + "}")
    with pytest.raises(ConfigParseError):
        load_config(bad)


def test_cli_exit_codes(tmp_path, bench_dict, capsys):
    assert main(["budget", "--config", str(BENCH_CONFIG)]) == 0
    assert main(["budget", "--config", str(tmp_path / "missing.json")]) == 2
    bench_dict["source"]["initial_noon_fraction"] = 0.0
    assert main(["budget", "--config", _write(tmp_path, bench_dict)]) == 3
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(BENCH_CONFIG), "--from", "1.0",
                 "--to", "0.0", "--points", "5", "--out", str(out)]) == 4
    # 10**15 rows: refused by the memory bound before anything is allocated.
    assert main(["sweep", "--config", str(BENCH_CONFIG), "--from", "0.0",
                 "--to", "1.0", "--points", str(10**15), "--out", str(out)]) == 4
    assert "points" in capsys.readouterr().err


SWEEP_ARGS = ["--from", "0.0", "--to", "1.0", "--points", "5"]


@pytest.mark.parametrize("command", ["budget", "zones", "omega-min", "sweep", "mc"])
def test_zero_pair_rate_exits_4(command, tmp_path, bench_dict, capsys):
    bench_dict["source"]["pair_rate_hz"] = 0
    extra = SWEEP_ARGS + ["--out", str(tmp_path / "s.csv")] if command == "sweep" else []
    assert main([command, "--config", _write(tmp_path, bench_dict), *extra]) == 4
    assert "pair_rate_hz" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["budget", "zones", "omega-min", "sweep", "mc"])
def test_coherence_underflow_exits_4_naming_the_total_factor(command, tmp_path, bench_dict, capsys):
    # A 1.5 um linewidth over 2 km: the chromatic and PMD factors
    # exp(-3.5*(dt/tau)**2) underflow to 0, so no pair is left to invert.
    bench_dict["spectrum"]["linewidth_m"] = 1.5e-6
    extra = SWEEP_ARGS + ["--out", str(tmp_path / "s.csv")] if command == "sweep" else []
    assert main([command, "--config", _write(tmp_path, bench_dict), *extra]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "coherence factor: total 0.00000000e+00" in captured.err


@pytest.mark.parametrize("command", ["budget", "zones", "omega-min", "sweep", "mc"])
def test_accidental_count_overflow_exits_4_naming_its_inputs(command, tmp_path, bench_dict, capsys):
    # A pair fraction of 1e-200 implies about 1e204 singles per second, and
    # the product of the two detectors' counts overflows.
    bench_dict["source"]["initial_noon_fraction"] = 1e-200
    extra = SWEEP_ARGS + ["--out", str(tmp_path / "s.csv")] if command == "sweep" else []
    assert main([command, "--config", _write(tmp_path, bench_dict), *extra]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("computation error: accidental count: overflows at order 2, singles rate ")
    for named in ("dark rate 0.00000000e+00 Hz", "jitter 1.56000000e-10 s", "measurement time "):
        assert named in captured.err


@pytest.mark.parametrize("args, named", [
    (["sweep", "--from", "0.0", "--to", "1.0", "--points", "1", "--out", "s.csv"], "points"),
    (["sweep", *SWEEP_ARGS, "--out", "."], "cannot write sweep CSV"),
    (["mc", "--scale", "0"], "scale"),
    (["mc", "--scale", "1.5"], "scale"),
    (["sweep", "--from", "0.0", "--to", "inf", "--points", "5", "--out", "s.csv"], "--to:"),
    (["sweep", "--from=-inf", "--to", "1.0", "--points", "5", "--out", "s.csv"], "--from:"),
    (["sweep", "--from", "nan", "--to", "1.0", "--points", "5", "--out", "s.csv"], "--from:"),
    (["mc", "--workers", "0"], "workers"),
    (["mc", "--workers", "-3"], "workers"),
], ids=["sweep-one-point", "sweep-out-is-directory", "mc-scale-zero", "mc-scale-above-one",
        "sweep-to-inf", "sweep-from-minus-inf", "sweep-from-nan", "mc-workers-zero", "mc-workers-negative"])
def test_bad_command_arguments_exit_4(args, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([args[0], "--config", str(BENCH_CONFIG), *args[1:]]) == 4
    assert named in capsys.readouterr().err


# The modules a command loads of those that cost start-up time: the analytic
# reports need no NumPy, and a process pool starts only for --workers > 1.
HEAVY_MODULES = ("numpy", "qfog.montecarlo", "concurrent.futures.process")
LOADED = {"budget": set(), "omega-min": set(), "zones": set(), "sweep": {"numpy"},
          "mc": {"numpy", "qfog.montecarlo"}}
IMPORT_PROBE = """import contextlib, io, sys
from qfog.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sys.modules)
"""


def test_commands_import_only_what_they_compute_with(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    extra = {"sweep": [*SWEEP_ARGS, "--out", str(tmp_path / "s.csv")], "mc": ["--trials", "2", "--workers", "1"]}
    for command, loaded in LOADED.items():
        argv = [command, "--config", str(BENCH_CONFIG), *extra.get(command, [])]
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        code, *modules = proc.stdout.split()
        assert code == "0", proc.stderr
        assert {m for m in HEAVY_MODULES if m in modules} == loaded, command
    assert all(hasattr(qfog, name) for name in qfog.__all__)
    assert qfog.simulate_uncorrelated is qfog.montecarlo.simulate_uncorrelated


# Values that sit at or past the edge of what some config key accepts.
# Free integers are never drawn: noon_order sizes per-detector lists.
EDGE_VALUES = [0, -1, 2, 40, 1000, 2.5, True, None, "x", [], 1e308, 10**400, "sliding"]
_BENCH = json.loads(BENCH_CONFIG.read_text())
BENCH_KEYS = [(key,) for key in _BENCH] + [
    (section, key) for section, body in _BENCH.items() if isinstance(body, dict) for key in body]


@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(st.tuples(st.sampled_from(BENCH_KEYS), st.sampled_from(EDGE_VALUES)),
                min_size=1, max_size=3))
def test_cli_exits_cleanly_on_edge_values(edits):
    data = json.loads(BENCH_CONFIG.read_text())
    for path, value in edits:
        target = data if len(path) == 1 else data[path[0]]
        if isinstance(target, dict):
            target[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(data))
        for command in ("budget", "omega-min", "zones"):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert main([command, "--config", str(path)]) in (0, 2, 3, 4)


def _budget_value(text: str, label: str) -> str:
    for line in text.splitlines():
        if line.startswith(label):
            return line[len(label):].strip()
    raise AssertionError(f"no line starting with {label!r}")


def test_budget_benchmark_values(capsys):
    assert main(["budget", "--config", str(BENCH_CONFIG)]) == 0
    out = capsys.readouterr().out
    assert float(_budget_value(out, "single-photon transmission T")) == pytest.approx(0.1, rel=1e-9)
    assert float(_budget_value(out, "pair fraction at detectors R")) == pytest.approx(0.095, abs=1e-9)
    rate = float(_budget_value(out, "accidental coincidence rate [Hz]"))
    assert rate == pytest.approx(0.06, rel=0.08)
    shot = float(_budget_value(out, "shot-noise phase [rad]"))
    assert shot == pytest.approx(0.19e-3, rel=0.02)


def test_budget_projected_values(capsys):
    assert main(["budget", "--config", str(PROJECTED_CONFIG)]) == 0
    out = capsys.readouterr().out
    assert float(_budget_value(out, "single-photon transmission T")) == pytest.approx(0.216, rel=0.005)
    assert float(_budget_value(out, "pair fraction at detectors R")) == pytest.approx(0.205, abs=0.005)
    rate = float(_budget_value(out, "accidental coincidence rate [Hz]"))
    assert rate == pytest.approx(0.08, rel=0.10)


def test_budget_zero_rotation(tmp_path, bench_dict, capsys):
    bench_dict["rotation_rad_per_s"] = 0.0
    assert main(["budget", "--config", _write(tmp_path, bench_dict)]) == 0
    out = capsys.readouterr().out
    assert float(_budget_value(out, "rotation phase [rad]")) == 0.0
    for label in ("accidental phase shift at bias [rad]",
                  "minimum resolvable rotation [rad/s]",
                  "max tolerable singles flux [Hz]",
                  "pump-drift absolute error [rad]"):
        assert _budget_value(out, label)


def test_budget_flags_undefined_bias_and_succeeds(tmp_path, bench_dict, capsys):
    # Sitting exactly on a coincidence-maximum cusp: no real phase shift
    # reproduces the accidental count; the report says so and exits 0.
    bench_dict["bias_phase_rad"] = 0.0
    bench_dict["rotation_rad_per_s"] = 0.0
    assert main(["budget", "--config", _write(tmp_path, bench_dict)]) == 0
    out = capsys.readouterr().out
    assert "undefined" in _budget_value(out, "accidental phase shift at bias [rad]")


def test_budget_large_order_stays_finite(tmp_path, bench_dict, capsys):
    # (t_meas/jitter)**(N-1) alone exceeds float range at N = 40.
    bench_dict["source"]["noon_order"] = 40
    assert main(["budget", "--config", _write(tmp_path, bench_dict)]) == 0
    out = capsys.readouterr().out
    for label in ("accidental count over t_meas",
                  "accidental phase shift at bias [rad]",
                  "cusp peak phase error [rad]",
                  "max tolerable singles flux [Hz]"):
        assert math.isfinite(float(_budget_value(out, label).split()[0]))


def test_sweep_trivial_two_points(tmp_path, bench_dict):
    # Lossless path with a pure source: no uncorrelated flux at all.
    bench_dict["path"] = {"fiber_loss_db_per_km": 0.0, "lumped_loss_db": 0.0}
    bench_dict["source"]["initial_noon_fraction"] = 1.0
    cfg = config_from_dict(bench_dict)
    text = sweep_rows(cfg, 0.3, 0.9, 2)
    lines = text.strip().splitlines()
    assert lines[0] == "phase_total_rad,abs_dphi_p_rad,defined_flag,shot_noise_rad,shot_noise_tenth_rad,dphi_p0_rad"
    for row in lines[1:]:
        cells = row.split(",")
        assert cells[2] == "1"
        assert float(cells[1]) == 0.0


@settings(max_examples=200, deadline=None, database=None)
@given(valid_config_dicts(), st.floats(-20.0, 20.0), st.floats(0.0, 40.0), st.integers(-1, 50))
def test_sweep_rows_on_edge_configs(data, from_rad, span, points):
    # Either the CSV text with one flagged row per point, or a ValueError.
    try:
        text = sweep_rows(config_from_dict(data), from_rad, from_rad + span, points)
    except ValueError:
        return
    lines = text.splitlines()
    assert len(lines) == points + 1
    for row in lines[1:]:
        cells = row.split(",")
        assert len(cells) == 6
        assert cells[2] in ("0", "1")
        assert (cells[1] == "") == (cells[2] == "0")


def test_sweep_benchmark_structure(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(BENCH_CONFIG), "--from", "0.0",
                 "--to", f"{math.pi}", "--points", "4097", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 4097
    cfg = load_config(BENCH_CONFIG)
    budget = assemble_budget(cfg)
    peak = 0.0
    for row in rows:
        cells = row.split(",")
        phi, flag = float(cells[0]), cells[2]
        if flag == "0":
            assert cells[1] == ""
            near_maximum = min(abs(phi), abs(phi - math.pi))
            assert near_maximum <= budget.undefined_half_width_rad * 1.0001
        else:
            peak = max(peak, float(cells[1]))
        assert float(cells[3]) == pytest.approx(budget.shot_noise_rad, rel=1e-9)
        assert float(cells[4]) == pytest.approx(0.1 * budget.shot_noise_rad, rel=1e-9)
    # Defined peaks stay within the cusp formula (a hair above at the
    # coincidence minima, where the formula is a second-order estimate).
    assert peak <= budget.cusp_shift_rad * 1.001


def test_sweep_cells_use_nine_significant_digits(tmp_path, bench_dict):
    import re
    cfg = config_from_dict(bench_dict)
    text = sweep_rows(cfg, 0.3, 0.9, 3)
    cell = text.splitlines()[1].split(",")[0]
    assert re.fullmatch(r"-?\d\.\d{8}e[+-]\d{2}", cell)


def test_sweep_is_deterministic(tmp_path, capsys):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert main(["sweep", "--config", str(BENCH_CONFIG), "--from", "0.0",
                     "--to", "1.0", "--points", "257", "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_zones_output(capsys):
    assert main(["zones", "--config", str(BENCH_CONFIG)]) == 0
    out = capsys.readouterr().out
    assert "coincidence maximum" in out
    assert "computed crossing offsets from cusps [mrad]" in out
    assert "14.0" in out  # previously published figure, printed for comparison
    assert "7.85398163e-01" in out  # pi/4 optimal bias point
    assert main(["zones", "--config", str(BENCH_CONFIG), "--threshold", "tenth"]) == 0
    capsys.readouterr()


def test_zones_list_only_cores_the_floats_resolve(tmp_path, bench_dict, capsys):
    # At N = 40 the half-width w is 1.7e-135 rad: every core but the one at 0
    # is narrower than the float spacing at its centre, so [0, w] is the one
    # undefined interval and the safe window is not split.
    bench_dict["source"]["noon_order"] = 40
    path = _write(tmp_path, bench_dict)
    b = assemble_budget(load_config(path))
    w = b.undefined_half_width_rad
    assert f"{w:.8e}" == "1.74827832e-135"
    report = bias_zone_scan(b.effective_pairs, 40, b.spurious, b.shot_noise_rad)
    assert report.undefined_intervals == ((0.0, w),)
    assert report.above_shot_noise_intervals == ((0.0, w),)
    assert report.safe_windows == ((w, math.pi),)
    assert main(["zones", "--config", path]) == 0
    assert ("undefined intervals (no real solution) [rad]:\n  [0.00000000e+00, 1.74827832e-135]\n"
            "above-shot-noise intervals [rad]:\n  [0.00000000e+00, 1.74827832e-135]\n"
            "safe windows (|dphi| < threshold) [rad]:\n  [1.74827832e-135, 3.14159265e+00]\n"
            "optimal bias points") in capsys.readouterr().out


def test_zones_trivial_config(tmp_path, bench_dict, capsys):
    bench_dict["path"] = {"fiber_loss_db_per_km": 0.0, "lumped_loss_db": 0.0}
    bench_dict["source"]["initial_noon_fraction"] = 1.0
    assert main(["zones", "--config", _write(tmp_path, bench_dict)]) == 0
    out = capsys.readouterr().out
    assert "undefined intervals (no real solution) [rad]:\n  (none)" in out


def test_omega_min_reference_geometry(tmp_path, bench_dict, capsys):
    # 1 km coil, 0.4 m radius, a one-second budget of 1e6 photons total.
    bench_dict["geometry"]["fiber_length_m"] = 1000.0
    bench_dict["detection"]["measurement_time_s"] = 1.0
    bench_dict["source"]["pair_rate_hz"] = 5e5
    assert main(["omega-min", "--config", _write(tmp_path, bench_dict)]) == 0
    out = capsys.readouterr().out
    assert float(_budget_value(out, "photon budget M = N*pairs")) == pytest.approx(1e6)
    floor = float(_budget_value(out, "minimum resolvable rotation [rad/s]"))
    assert floor == pytest.approx(6.5e-5, rel=0.02)
    assert _budget_value(out, "resolves earth rate") == "yes"

    bench_dict["source"]["pair_rate_hz"] = 4 * 5e5
    assert main(["omega-min", "--config", _write(tmp_path, bench_dict)]) == 0
    quadrupled = float(_budget_value(capsys.readouterr().out,
                                     "minimum resolvable rotation [rad/s]"))
    assert quadrupled == pytest.approx(0.5 * floor, rel=1e-9)


def test_mc_command_deterministic(tmp_path, bench_dict, capsys):
    path = _write(tmp_path, bench_dict)
    outputs = []
    for _ in range(2):
        assert main(["mc", "--config", path, "--trials", "20", "--seed", "99",
                     "--scale", "0.0001"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "analytic prediction" in outputs[0]


def test_mc_accepts_tenth_of_benchmark_record(capsys):
    # 180 s of 156 ps windows: 1.15e12 windows, within the 2**46 draw limit.
    assert main(["mc", "--config", str(BENCH_CONFIG), "--trials", "2", "--scale", "0.1"]) == 0
    capsys.readouterr()


def test_mc_experiment_applies_coherence_once(tmp_path, bench_dict, capsys):
    # Visibility C scales the fringe slope once, so the estimate spreads
    # as shot noise / C (4x here), not shot noise / C**1.5 (8x).
    bench_dict["base_coherence"] = 0.25
    assert main(["mc", "--config", _write(tmp_path, bench_dict), "--trials", "400",
                 "--seed", "1", "--scale", "0.001"]) == 0
    out = capsys.readouterr().out
    spread = float(_budget_value(out, "  empirical spread [rad]"))
    shot = float(_budget_value(out, "  shot-noise spread [rad]"))
    assert 3.5 <= spread / shot <= 4.5


# sha256 of the stdout of each report on the shipped configs; the text
# layout of every report is pinned byte for byte.
CLI_DIGESTS = {
    ("silvestri2024", "budget"): "3a9e746c2b7764a6b9492514feba744bcea707574a204fb9e9307352ca730f54",
    ("silvestri2024", "omega-min"): "00ee8720b68abbff82e3130377f5a152044711c64f93bb265c1ae074c505fe16",
    ("silvestri2024", "zones"): "933e2b650aef48c75556adad211d7d426f53108c67d063e9d751014ff05db2a7",
    ("silvestri2024", "zones --threshold tenth"):
        "05fbf75f0f8c2f363c7be24403c030bb28faf149bce5ce9a78d45aaf89fb5dc5",
    ("projected2025", "budget"): "909c3147c95bd9c710a1bbb6cd203ba6643c0e2b5b1e0702d00a3ff7f8d8ee2b",
    ("projected2025", "omega-min"): "35592e88fced4b2cc7b2427a1fddf690ce7a5c67b51edf058ce02495b003f677",
    ("projected2025", "zones"): "d6dfe2e8a9aab3960422b4abe36a0d4ea8bd1ba8e0d6263364f1af0cfcdbf910",
    ("projected2025", "zones --threshold tenth"):
        "2661ca3ca187750ae4a6c3fcc0f8284c5fa86d31bf5cfdd9992a47139206f343",
}


@pytest.mark.parametrize("config, command", sorted(CLI_DIGESTS))
def test_report_text_is_pinned(config, command, capsys):
    name, *options = command.split()
    path = REPO / "configs" / f"{config}.json"
    assert main([name, "--config", str(path), *options]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_DIGESTS[config, command]
