"""Self-tests of the qfog benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest qbench -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads as wls  # noqa: E402
from qfog import cli, montecarlo, spurious  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# End-to-end metrics each workload must print, besides the common ones.
E2E = {
    "mc_binned_long": ["events_per_s", "trials_per_s"],
    "mc_sliding_pool": ["events_per_s", "trials_per_s", "experiment_trials_per_s"],
    "analytic_landscape": ["analysis_p50_ms", "analysis_tail_ms", "analyses_per_s"],
    "cli_batch": ["command_p50_ms", "command_tail_ms"],
}
COMMON_E2E = ["setup_s", "wall_s", "round_p50_s", "peak_rss_mb", "failure_ratio"]

# Per-layer metrics each traced workload must report, besides BENCHMARK.json's.
MC_LAYERS = ["montecarlo.simulate_uncorrelated.ns_per_event", "montecarlo.draw.ns_per_event",
             "montecarlo.count.ns_per_event", "montecarlo.bytes_per_event", "montecarlo.rng_stream.us_per_call"]
LAYERS = {
    "mc_binned_long": MC_LAYERS,
    "mc_sliding_pool": MC_LAYERS + ["montecarlo.simulate_experiment.us_per_trial",
                                    "montecarlo.parallel_efficiency", "montecarlo.experiment_failure_ratio"],
    "analytic_landscape": ["spurious.bias_zone_scan.ms_per_call", "spurious.phase_shift_spurious.calls_per_scan",
                           "spurious.phase_shift_profile.ns_per_point", "spurious.bias_zone_scan.max_asymmetry_rad"],
    "cli_batch": ["cli.sweep_rows.us_per_row", "cli.format_zones.self_ms", "cli.format_budget.self_us",
                  "cli.format_mc.self_s", "spurious.bias_zone_scan.ms_per_call",
                  "spurious.phase_shift_profile.ns_per_point"]
                 + [f"cli.{c}.{m}" for c in ("budget", "omega-min", "zones", "sweep", "mc")
                    for m in ("p50_ms", "stdout_bytes")],
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), "--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", str(trace), "--tiny"], capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(E2E))
def test_workload_runs_and_prints_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
                                 for m in wanted}
    printed = {}
    for line in lines[:-1]:
        match = re.match(r"\s+(\S+)\s+(\S+) (\S+)\s+\(n=(\d+)", line)
        if match:
            printed[match[1]] = match[3]
    expected = COMMON_E2E + E2E[workload] + ([m["name"] for m in SPEC["per_layer"]]
                                             + ["tracing_overhead_s"] + LAYERS[workload] if trace else [])
    for name in expected:
        assert name in printed, f"{name} not printed"
    record = json.loads((HERE / "results" / f"{workload}-seed3-trace{trace}.json").read_text())
    assert record["provenance"]["nproc"] >= 1 and record["provenance"]["src_qfog_lines"] > 0
    assert record["end_to_end"]["failure_ratio"]["note"].endswith(f"of {result['attempted']} operations")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "qbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("analytic_landscape", 0, cwd=tmp_path, script=tmp_path / "qbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("shift", [25.0, 1000.0])
def test_shifted_mc_mean_is_a_failed_operation(tmp_path, monkeypatch, shift):
    real = montecarlo.simulate_uncorrelated

    def shifted(*args, **kwargs):
        res = real(*args, **kwargs)
        return montecarlo.McResult.from_counts(res.per_trial + shift, res.analytic_prediction)

    wl = wls.McBinnedLong(3, wls.TINY, tmp_path)
    wl.round(0)
    assert (wl.ledger.attempted, wl.ledger.failed) == (1, 0)
    monkeypatch.setattr(montecarlo, "simulate_uncorrelated", shifted)
    wl.round(1)
    assert (wl.ledger.attempted, wl.ledger.failed) == (2, 1)
    assert "differs from" in wl.ledger.messages[0]


def test_grossly_wrong_mc_counts_fail_at_once():
    # One detector's windows (3.4e6) instead of their intersection at the
    # paper's operating point (a mean near 10), and a counter that finds none.
    assert wls.poisson_mean_problems(3.4e6, 10.0, 1) != []
    assert wls.poisson_mean_problems(0.0, 200.0, 3) != []
    assert wls.poisson_mean_problems(10.0, 10.0, 1) == []


def test_traced_rounds_stay_out_of_end_to_end_metrics(tmp_path):
    wl = wls.McBinnedLong(3, wls.TINY, tmp_path)
    extras = wl.run_traced(0.4, tracing.Tracer())
    assert len(wl.sim_walls) == len(extras["walls"]) and extras["traced"]
    assert wl.ledger.attempted == len(extras["walls"]) + len(extras["traced"])


def test_altered_cli_bytes_are_a_failed_operation(tmp_path):
    def altered(argv):
        code, out = wls.run_cli_in_process(argv)
        return code, out + b" " if argv[0] == "budget" else out

    wl = wls.CliBatch(3, wls.TINY, tmp_path)
    wl.round(0, runner=altered)
    wl.finish()
    configs = len(wl.configs)
    assert wl.ledger.attempted == 5 * configs
    assert wl.ledger.failed == configs
    assert all("budget" in m for m in wl.ledger.messages)


def test_moved_crossing_and_experiment_bias_fail_their_checks():
    cfg = wls.config.load_config(wls.SHIPPED["silvestri2024"])
    b = cli.assemble_budget(cfg)
    report = spurious.bias_zone_scan(b.effective_pairs, 2, b.spurious, b.shot_noise_rad, phase_range=wls.SCAN_RANGE)
    assert wls.scan_problems(report, b.effective_pairs, 2, b.spurious, *wls.SCAN_RANGE)[0] == []
    xs = list(report.crossings_rad)
    xs[0] += 1e-5
    moved = type(report)(**{**report.__dict__, "crossings_rad": tuple(xs)})
    problems, _ = wls.scan_problems(moved, b.effective_pairs, 2, b.spurious, *wls.SCAN_RANGE)
    assert any("residual" in p for p in problems) and any("mirror" in p for p in problems)
    assert wls.experiment_problems(1e-5, 1e-3, 10_000, 1e-5, 1e-3) == []
    assert wls.experiment_problems(1e-4, 1e-3, 10_000, 1e-5, 1e-3) != []
    assert wls.experiment_problems(1e-5, 1.2e-3, 10_000, 1e-5, 1e-3) != []


def test_worker_count_mismatch_is_a_failure():
    res = montecarlo.McResult.from_counts(np.array([1.0, 2.0]), 1.0)
    est = type("Est", (), {"estimates_rad": np.array([0.1, math.nan])})()
    other = montecarlo.McResult.from_counts(np.array([1.0, 3.0]), 1.0)
    assert wls._invariance_problems((res, est), (res, est)) == []
    assert wls._invariance_problems((res, est), (other, est)) != []


def test_span_self_times_sum_to_traced_wall(tmp_path):
    wl = wls.AnalyticLandscape(3, wls.TINY, tmp_path)
    tracer = tracing.Tracer()
    extras = wl.run_traced(0.5, tracer)
    assert len(wl.latencies) == wls.TINY.variants * len(extras["walls"])
    assert len(wl.fastest) == wls.TINY.variants
    assert sum(wl.fastest.values()) <= min(extras["walls"])
    by, calls, budget = tracing.aggregate(tracer)
    self_s = (sum(a.self_ns for a in by.values()) - by["bench.setup"].total_ns) * 1e-9
    assert self_s == pytest.approx(sum(extras["traced"]), rel=0.03)
    assert calls[("spurious.bias_zone_scan", "spurious.phase_shift_spurious")] > 0
    assert calls[("cli.assemble_budget", "spurious.phase_shift_spurious")] > 0
    assert budget["sagnac"] > 0 and budget["propagation"] > 0 and budget["dispersion"] > 0
    assert not hasattr(spurious.bias_zone_scan, "__wrapped__")
    assert not hasattr(cli.phase_shift_spurious, "__wrapped__")
