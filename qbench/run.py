"""qfog benchmark: run one workload in a fresh process and report its metrics.

Usage, from the root of a checkout:

    python3 qbench/run.py --workload analytic_landscape --seed 1 --seconds 30 --trace 0

Workloads: mc_binned_long, mc_sliding_pool, analytic_landscape, cli_batch
(see BENCHMARK.json for why each exists, and qbench/README.md for the
per-layer metrics and the end-to-end metric each should move).

The report prints every metric by name with its unit and sample count,
records the full result set with its provenance under qbench/results/,
and ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
the metrics named in BENCHMARK.json (end-to-end ones with ``--trace 0``,
per-layer ones with ``--trace 1``).  The run fails without a result when
the qfog sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("mc_binned_long", "mc_sliding_pool", "analytic_landscape", "cli_batch")
SETUP_REPEATS = 9
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def time_process(argv: list[str], env: dict, until_line: str | None = None) -> float:
    """Seconds from spawning ``argv`` to its exit, or to it printing ``until_line``."""
    t0 = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline().strip() if until_line else None
        ready = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line != until_line:
        raise RuntimeError(f"{argv[1:]} exited with {proc.returncode} after printing {line!r}")
    return ready if until_line else perf_counter() - t0


def median_time(argv, env, repeats=SETUP_REPEATS, until_line=None) -> tuple[float, int]:
    return statistics.median(time_process(argv, env, until_line) for _ in range(repeats)), repeats


def provenance(seed: int, numpy_version: str) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    caches = {}
    try:
        proc = subprocess.run(["getconf", "-a"], capture_output=True, text=True)
        for line in proc.stdout.splitlines():
            key, _, value = line.partition(" ")
            if key in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE") and value.strip():
                caches[key.lower()] = int(value.strip())
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "qfog").glob("*.py")))
    return {"commit": commit, "seed": seed, "nproc": len(os.sched_getaffinity(0)), **caches,
            "python": platform.python_version(), "numpy": numpy_version,
            "src_qfog_lines": src_lines}


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        note = f"; {m['note']}" if m.get("note") else ""
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']:<9} (n={m['n']}{note})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes (not the benchmark)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qfog" / "__init__.py").is_file():
        print(f"qbench: no qfog sources under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = child_env()
    t_start = perf_counter()
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])

    setup_s, repeats = median_time([sys.executable, str(WORKER), *common, "--seconds", "0", "--setup-only"],
                                   env, until_line="ready")
    layers_outside = {}
    if args.trace:
        interp, n = median_time([sys.executable, "-c", "pass"], env)
        imp, _ = median_time([sys.executable, "-c", "import qfog"], env)
        layers_outside = {
            "cli.interpreter_s": {"value": interp, "unit": "s", "n": n, "note": "python -c pass"},
            "cli.import_s": {"value": imp, "unit": "s", "n": n, "note": "python -c 'import qfog'"},
        }

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker_argv = [sys.executable, str(WORKER), *common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        worker_argv += ["--spans-out", str(results_dir / f"{stem}-spans.npz")]
    try:
        proc = subprocess.run(worker_argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
                              timeout=RUN_LIMIT_S - (perf_counter() - t_start))
    except subprocess.TimeoutExpired:
        print(f"qbench: worker did not finish within {RUN_LIMIT_S:g} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"qbench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    e2e = {"setup_s": {"value": setup_s, "unit": "s", "n": repeats, "note": "median fresh set-up"},
           **result["e2e"]}
    layers = {**layers_outside, **result.get("layers", {})}
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
              "provenance": provenance(args.seed, result["numpy"]), "end_to_end": e2e, "per_layer": layers,
              "attempted": result["attempted"], "failed": result["failed"], "failures": result["failures"]}
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    p = record["provenance"]
    print(f"qbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in p.items() if k != "seed")
          + " (src_qfog_lines is informational)")
    print_metrics("end-to-end:", e2e)
    if args.trace:
        print_metrics("per-layer (traced run):", layers)
    for message in result["failures"]:
        print(f"FAILED {message}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    pool = layers if args.trace else e2e
    missing = [m["name"] for m in wanted if m["name"] not in pool]
    if missing:
        print(f"qbench: metrics not measured on {args.workload}: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": pool[m["name"]]["value"], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
