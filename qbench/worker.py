"""Run one qfog benchmark workload inside this fresh process.

``run.py`` starts this script with ``src`` on ``PYTHONPATH``; it prints one
JSON object as the last line of its standard output.  With
``--setup-only`` it prints ``ready`` once the workload's set-up is done and
exits; ``run.py`` times that to get ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np
from tracing import Tracer, aggregate
from workloads import (FULL, POOL_WORKERS, TINY, WORKLOADS, AnalyticLandscape, CliBatch, McSlidingPool, closed_loop,
                       metric)

RESULTS = Path(__file__).resolve().parent / "results"


def maxrss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def layer_metrics(tracer: Tracer, extras: dict, wl, growth_mb: float) -> dict:
    """Per-layer metrics from the spans of the traced rounds."""
    by, calls, budget = aggregate(tracer)
    out: dict = {}

    def per_call(key, span, attr, scale, unit, denominator=None, note=""):
        a = by.get(span)
        if a is not None and a.count:
            out[key] = metric(getattr(a, attr) * scale / (denominator or a.count), unit, a.count, note)

    per_call("config.load_config.us_per_call", "config.load_config", "total_ns", 1e-3, "us")
    per_call("cli.assemble_budget.self_us", "cli.assemble_budget", "self_ns", 1e-3, "us")
    n_budget = by["cli.assemble_budget"].count if "cli.assemble_budget" in by else 0
    for layer in ("sagnac", "propagation", "dispersion"):
        if n_budget:
            out[f"{layer}.self_us_per_budget"] = metric(budget.get(layer, 0) * 1e-3 / n_budget, "us", n_budget)
    for fn in ("spurious_coincidences", "max_singles_flux", "phase_shift_spurious"):
        per_call(f"spurious.{fn}.us_per_call", f"spurious.{fn}", "self_ns", 1e-3, "us")

    sim = by.get("montecarlo.simulate_uncorrelated")
    if sim is not None and sim.work:
        per_call("montecarlo.simulate_uncorrelated.ns_per_event", "montecarlo.simulate_uncorrelated",
                 "self_ns", 1.0, "ns/event", sim.work, "self time")
    if "draw_s" in extras:
        draw = extras["draw_s"] * 1e9 / extras["draw_events"]
        out["montecarlo.draw.ns_per_event"] = metric(draw, "ns/event", 1, "public rng_stream, Poisson and uniform")
        out["montecarlo.count.ns_per_event"] = metric(
            sim.self_ns / sim.work - draw, "ns/event", sim.count, "derived: simulate_uncorrelated self minus draw")
        out["montecarlo.bytes_per_event"] = metric(growth_mb * 2**20 / wl.events_per_trial, "B/event", 1,
                                                   f"peak RSS growth {growth_mb:.1f} MB over the post-import baseline")
    per_call("montecarlo.rng_stream.us_per_call", "montecarlo.rng_stream", "total_ns", 1e-3, "us")
    exp = by.get("montecarlo.simulate_experiment")
    if exp is not None and exp.work:
        per_call("montecarlo.simulate_experiment.us_per_trial", "montecarlo.simulate_experiment", "total_ns",
                 1e-3, "us", exp.work)
    if "pooled" in extras:
        out["montecarlo.parallel_efficiency"] = metric(
            statistics.median(extras["untraced"]) / (POOL_WORKERS * statistics.median(extras["pooled"])), "ratio",
            len(extras["pooled"]), f"workers=1 round time / ({POOL_WORKERS} x workers={POOL_WORKERS} round time)")
    if isinstance(wl, McSlidingPool) and wl.exp_trials:
        out["montecarlo.experiment_failure_ratio"] = metric(
            wl.exp_failures / wl.exp_trials, "ratio", wl.exp_trials, f"{wl.exp_failures} of {wl.exp_trials} trials")

    scan = by.get("spurious.bias_zone_scan")
    if scan is not None:
        per_call("spurious.bias_zone_scan.ms_per_call", "spurious.bias_zone_scan", "self_ns", 1e-6, "ms")
        inversions = calls.get(("spurious.bias_zone_scan", "spurious.phase_shift_spurious"), 0)
        out["spurious.phase_shift_spurious.calls_per_scan"] = metric(inversions / scan.count, "count", scan.count,
                                                                     f"{inversions} inversions in {scan.count} scans")
    if isinstance(wl, AnalyticLandscape):
        out["spurious.bias_zone_scan.max_asymmetry_rad"] = metric(
            wl.max_asymmetry, "rad", wl.ledger.attempted, "largest crossing-to-mirror gap seen by the checks")
    profile = by.get("spurious.phase_shift_profile")
    if profile is not None and profile.work:
        per_call("spurious.phase_shift_profile.ns_per_point", "spurious.phase_shift_profile", "self_ns", 1.0,
                 "ns/point", profile.work)
    rows = by.get("cli.sweep_rows")
    if rows is not None and rows.work:
        per_call("cli.sweep_rows.us_per_row", "cli.sweep_rows", "self_ns", 1e-3, "us/row", rows.work)
    per_call("cli.format_zones.self_ms", "cli.format_zones", "self_ns", 1e-6, "ms")
    per_call("cli.format_budget.self_us", "cli.format_budget", "self_ns", 1e-3, "us")
    per_call("cli.format_mc.self_s", "cli.format_mc", "self_ns", 1e-9, "s")
    if isinstance(wl, CliBatch):
        for command, values in wl.latencies.items():
            out[f"cli.{command}.p50_ms"] = metric(1e3 * statistics.median(values), "ms", len(values), "subprocess")
            out[f"cli.{command}.stdout_bytes"] = metric(wl.stdout_bytes[command], "count", len(values))

    traced, untraced = extras["traced"], extras["untraced"]
    out["tracing_overhead_s"] = metric(statistics.median(traced) - statistics.median(untraced), "s", len(traced),
                                       "traced wall_s minus untraced wall_s")
    setup_ns = by["bench.setup"].total_ns if "bench.setup" in by else 0
    self_ns = sum(a.self_ns for a in by.values()) - setup_ns
    out["trace.self_time_share"] = metric(self_ns * 1e-9 / sum(traced), "ratio", len(tracer),
                                          "sum of span self times / traced wall")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", help=".npz file for the spans of a traced run")
    args = parser.parse_args(argv)

    baseline_mb = maxrss_mb(resource.RUSAGE_SELF)  # after import qfog
    sizes = TINY if args.tiny else FULL
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix=f"{args.workload}-") as tmp:
        wl = WORKLOADS[args.workload](args.seed, sizes, Path(tmp))
        if args.setup_only:
            print("ready", flush=True)
            return 0
        if args.trace:
            tracer = Tracer()
            extras = wl.run_traced(args.seconds, tracer)
            walls = extras["walls"]
        else:
            walls = closed_loop(args.seconds, wl.round)
        peak_mb = max(maxrss_mb(resource.RUSAGE_SELF), maxrss_mb(resource.RUSAGE_CHILDREN))
        wl.finish()

    ledger = wl.ledger
    e2e = {
        "wall_s": wl.wall(walls),
        "round_p50_s": metric(statistics.median(walls), "s", len(walls), "median round"),
        **wl.e2e(walls),
        "peak_rss_mb": metric(peak_mb, "MB", 1, f"baseline after import {baseline_mb:.1f} MB"),
        "failure_ratio": metric(ledger.failed / ledger.attempted, "ratio", ledger.attempted,
                                f"{ledger.failed} of {ledger.attempted} operations"),
    }
    result = {"e2e": e2e, "attempted": ledger.attempted, "failed": ledger.failed,
              "failures": ledger.messages[:50], "numpy": np.__version__}
    if args.trace:
        result["layers"] = layer_metrics(tracer, extras, wl, peak_mb - baseline_mb)
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
