"""The four qfog benchmark workloads, their timed operations and output checks.

A workload builds all of its inputs from the workload seed in its
constructor; that is the set-up which ``setup_s`` times.  It then runs
closed-loop rounds: each operation starts when the previous one finished.
Every call into qfog goes through a module attribute
(``montecarlo.simulate_uncorrelated``, ``cli.assemble_budget``, ...) so
that a traced run sees it.  Output checks run outside the timed region.
A failed check, an exception or a nonzero exit marks the operation as
failed; inputs are never filtered, resized or re-seeded to pass a check.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import math
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from qfog import cli, config, montecarlo, sagnac, spurious
from qfog.model import PhasePoint, WindowMode

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = {"silvestri2024": ROOT / "configs" / "silvestri2024.json",
           "projected2025": ROOT / "configs" / "projected2025.json"}
REFERENCE = Path(__file__).resolve().parent / "reference.json"

Z_LIMIT = 5.0             # standard errors a statistical check allows
CROSSING_RESIDUAL = 1e-9  # rad, |dphi| - threshold at a reported crossing
SYMMETRY_TOL = 1e-6       # rad, mirror image of a crossing about its cusp
SCAN_RANGE = (-0.5, math.pi + 0.5)
ORDERS = (2, 3, 4, 6)
POOL_WORKERS = 2          # at most nproc of the reference host
PROFILE_POINTS = 4097     # phase_shift_profile grid per variant
SCALAR_POINTS = 64        # phase_shift_spurious bias points per variant
MC_TRIALS, MC_SCALE = 30, 0.001  # the CLI ``mc`` command
CLI_VARIANTS = 1         # seeded variant config files for the CLI


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is the benchmark, ``TINY`` the self-tests."""

    binned_record_s: float = 180.0
    binned_trials: int = 1
    sliding_record_s: float = 18.0
    sliding_trials: int = 16
    experiment_trials: int = 10_000
    variants: int = 128
    sweep_points: int = 100_000


FULL = Sizes()
TINY = Sizes(binned_record_s=0.5, binned_trials=2, sliding_record_s=0.2, sliding_trials=4,
             experiment_trials=400, variants=4, sweep_points=1000)


@dataclass
class Ledger:
    """Operations attempted and failed, with one message per failed check."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(f"{what}: {p}" for p in problems)


def timed(tracer, name: str, fn, *args, **kwargs):
    """Run one operation; returns ``(result, seconds, error or None)``."""
    scope = tracer.operation(name) if tracer is not None else contextlib.nullcontext()
    t0 = perf_counter()
    try:
        with scope:
            out = fn(*args, **kwargs)
    except Exception:  # a library error is a failed operation, not a crash
        return None, perf_counter() - t0, traceback.format_exc(limit=3).strip().splitlines()[-1]
    return out, perf_counter() - t0, None


def derive_seed(seed: int, *parts: int) -> int:
    return int(np.random.SeedSequence([seed % 2**63, *parts]).generate_state(1, np.uint64)[0] >> 1)


def percentile_tail(values) -> tuple[str, float]:
    """Highest standard percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - p) / 100.0 >= 10.0:
            return f"p{p:g}", float(np.percentile(values, p))
    return "p50", float(np.median(values))


def metric(value, unit: str, n: int, note: str = "") -> dict:
    return {"value": float(value), "unit": unit, "n": int(n), "note": note}


# --- checks -----------------------------------------------------------------

def poisson_tail(total: int, mu: float) -> float:
    """One-sided tail probability of ``total`` under Poisson(mu), on its own side of mu.

    At or below mu that is P(X <= total), at most mu + 1 terms; above it,
    P(X >= total), summed until the terms, which fall from there on, no
    longer add to it or underflow to zero.  The other side is never small.
    """
    if mu <= 0.0:
        return 1.0 if total == 0 else 0.0

    def term(k):
        return math.exp(k * math.log(mu) - mu - math.lgamma(k + 1))

    if total <= mu:
        return math.fsum(term(k) for k in range(total + 1))
    upper, k = 0.0, total
    while True:
        t = term(k)
        upper += t
        if t == 0.0 or t < 1e-18 * upper:
            return upper
        k += 1


def poisson_mean_problems(mean: float, expected: float, trials: int) -> list[str]:
    """Trial-mean count against a prediction, at a fixed number of Poisson SE.

    The summed count is Poisson with mean ``trials * expected``; the check
    fails when its tail probability is below that of ``Z_LIMIT`` standard
    errors ``sqrt(expected / trials)`` of a normal, which is exact for the
    few counts per record of the short runs, where a normal tail is not.
    """
    total = round(mean * trials)
    if poisson_tail(total, trials * expected) < 0.5 * math.erfc(Z_LIMIT / math.sqrt(2.0)):
        se = math.sqrt(expected / trials)
        return [f"mean {mean:.6g} differs from {expected:.6g} beyond {Z_LIMIT:g} Poisson SE ({se:.3g})"]
    return []


def experiment_problems(bias: float, spread: float, good: int, predicted: float | None,
                        shot: float) -> list[str]:
    """Empirical phase bias and spread against the inversion and shot noise."""
    if predicted is None:
        return ["predicted bias undefined at the operating point"]
    if good < 2 or not math.isfinite(spread):
        return [f"only {good} successful trials"]
    problems = []
    se = spread / math.sqrt(good)
    if abs(bias - predicted) > Z_LIMIT * se:
        problems.append(f"bias {bias:.4e} vs predicted {predicted:.4e} (SE {se:.2e})")
    rel = Z_LIMIT / math.sqrt(2.0 * (good - 1))
    if abs(spread / shot - 1.0) > rel:
        problems.append(f"spread {spread:.4e} vs shot noise {shot:.4e} (tolerance {rel:.1%})")
    return problems


def scan_problems(report, pairs: float, order: int, count, lo: float, hi: float) -> tuple[list[str], float]:
    """Crossing residuals through the scalar inversion, and mirror symmetry.

    The scan promises a residual below ``CROSSING_RESIDUAL`` in |dphi|, which
    fixes a crossing's position only to ``CROSSING_RESIDUAL / slope`` on a
    shallow flank.  So the mirror image of each crossing about its cusp must
    itself meet the residual, and a reported crossing must lie within the
    position precision of two crossings, ``2 * CROSSING_RESIDUAL / slope``,
    and never further than ``SYMMETRY_TOL`` where the flank is steep.
    Returns the problems and the largest positional asymmetry seen.
    """
    problems, worst = [], 0.0
    xs = report.crossings_rad
    cell = math.pi / order

    def excess(phi):
        sol = spurious.phase_shift_spurious(pairs, phi, order, count)
        return abs(sol.value_rad) - report.shot_noise_rad if sol.defined else math.inf

    for c in xs:
        if not abs(excess(c)) < CROSSING_RESIDUAL:
            problems.append(f"crossing {c:.12f}: residual {excess(c):.3e} rad")
        mirror = 2.0 * round(c / cell) * cell - c
        if not lo < mirror < hi:
            continue
        if not abs(excess(mirror)) < CROSSING_RESIDUAL:
            problems.append(f"crossing {c:.12f}: mirror image {mirror:.12f} is not a crossing")
        h = 1e-7
        slope = abs(excess(c + h) - excess(c - h)) / (2.0 * h)
        tol = max(SYMMETRY_TOL, 2.0 * CROSSING_RESIDUAL / slope) if slope > 0.0 else SYMMETRY_TOL
        gap = min(abs(mirror - x) for x in xs)
        worst = max(worst, gap)
        if not gap <= tol:
            problems.append(f"crossing {c:.12f}: nearest mirror crossing {gap:.3e} rad away (tolerance {tol:.2e})")
    return problems, worst


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- shared inputs ------------------------------------------------------------

def make_variants(bases: list, seed: int, count: int, salt: int, vary_flux: bool = True) -> list:
    """Seeded instrument variants around the shipped configs.

    Orders cycle through ``ORDERS``.  Within each order the pair rate,
    jitter and fiber length scale by a factor in [1/2, 2] and the bias sits
    in the middle half of a fringe cell, away from the cusps where the
    Monte Carlo phase checks hold.  The factors form a Latin hypercube per
    order (every stratum used once), so the total work barely depends on
    the seed while the variants themselves do.  With ``vary_flux`` false
    the pair rate and fiber length keep their base values: a few variants
    fill too few strata to even out the event count, which sets the cost of
    a Monte Carlo run on them.
    """
    rng = np.random.default_rng([seed % 2**63, salt])
    per = math.ceil(count / len(ORDERS))
    cube = {order: (np.argsort(rng.random((4, per)), axis=1) + rng.random((4, per))) / per for order in ORDERS}
    out = []
    for i in range(count):
        order, j = ORDERS[i % len(ORDERS)], i // len(ORDERS)
        base = bases[j % len(bases)]
        u_rate, u_jitter, u_length, u_bias = (float(x) for x in cube[order][:, j])
        if not vary_flux:
            u_rate = u_length = 0.5
        out.append(replace(
            base,
            geometry=replace(base.geometry, fiber_length_m=base.geometry.fiber_length_m * 2.0 ** (2 * u_length - 1)),
            source=replace(base.source, noon_order=order,
                           pair_rate_hz=base.source.pair_rate_hz * 2.0 ** (2 * u_rate - 1)),
            detection=replace(base.detection, jitter_s=base.detection.jitter_s * 2.0 ** (2 * u_jitter - 1)),
            bias_phase_rad=(0.25 + 0.5 * u_bias) * math.pi / order))
    return out


def window_cap(record_s: float, jitter_s: float) -> dict:
    """Admit the paper's 180 s binned record where the API caps the window count."""
    if "max_windows" in inspect.signature(montecarlo.simulate_uncorrelated).parameters:
        return {"max_windows": 2.0 * record_s / jitter_s}
    return {}


def closed_loop(seconds: float, run_round) -> list[float]:
    """Run rounds until the next one would overrun ``seconds``; at least one.

    ``run_round(r)`` returns the timed wall of round r (checks excluded).
    """
    walls, t_start, r = [], perf_counter(), 0
    while True:
        walls.append(run_round(r))
        r += 1
        if perf_counter() - t_start + statistics.median(walls) > seconds:
            return walls


class Workload:
    name = ""
    events_per_trial = 0.0

    def __init__(self, seed: int, sizes: Sizes, workdir: Path) -> None:
        self.seed, self.sizes, self.workdir = seed, sizes, workdir
        self.ledger = Ledger()
        self.fastest: dict = {}  # operation of a round -> its fastest recorded time

    def keep_fastest(self, op, seconds: float) -> None:
        self.fastest[op] = min(seconds, self.fastest.get(op, math.inf))

    def round(self, r: int, tracer=None, record: bool = True) -> float:
        """Run round r; only recorded rounds feed the end-to-end metrics."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks deferred to the end of the run."""

    def wall(self, walls: list[float]) -> dict:
        """``wall_s``: one round's operations, each at its fastest in the run.

        Every round repeats the same operations, so their fastest times add
        up to the round's work at the best host speed seen in the run, which
        drifts less between runs than the median round does.
        """
        return metric(sum(self.fastest.values()), "s", len(walls),
                      f"{len(self.fastest)} operations, each at its fastest of the rounds")

    def e2e(self, walls: list[float]) -> dict:
        return {}

    def run_traced(self, seconds: float, tracer) -> dict:
        """Untraced rounds, then the same rounds traced; returns extras.

        The traced share is a quarter of the run, which bounds span memory.
        """
        plain = closed_loop(seconds / 2, self.round)
        with tracer.installed():
            with tracer.operation("bench.setup"):
                type(self)(self.seed, self.sizes, self.workdir)
            traced = closed_loop(seconds / 4, lambda r: self.round(r, tracer, record=False))
        return {"walls": plain, "untraced": plain, "traced": traced}


# --- Monte Carlo --------------------------------------------------------------

class _McWorkload(Workload):
    mode = WindowMode.BINNED

    def _setup(self, cfg, trials: int) -> None:
        self.cfg, self.trials = cfg, trials
        self.sim_walls: list[float] = []
        self.budget, rates = self._budget()
        self.events_per_trial = sum(rates) * cfg.detection.measurement_time_s

    def _budget(self):
        b = cli.assemble_budget(self.cfg)
        return b, [b.singles_rate_hz / b.noon_order] * b.noon_order

    def _uncorrelated(self, r: int, workers: int):
        """Budget at the operating point, then one simulation; returns (result, sim seconds)."""
        _, rates = self._budget()
        det = self.cfg.detection
        mc = montecarlo.McConfig(seed=derive_seed(self.seed, r), trials=self.trials, window_mode=self.mode)
        t0 = perf_counter()
        res = montecarlo.simulate_uncorrelated(rates, det, mc, workers=workers,
                                               **window_cap(det.measurement_time_s, det.jitter_s))
        return res, perf_counter() - t0

    def _run_uncorrelated(self, r: int, workers: int, tracer, record: bool):
        out, dt, err = timed(tracer, "bench.uncorrelated", self._uncorrelated, r, workers)
        if record:
            self.keep_fastest("uncorrelated", dt)
        if err:
            self.ledger.record(f"uncorrelated round {r}", [err])
            return None, dt
        res, sim_s = out
        if record:
            self.sim_walls.append(sim_s)
        self.ledger.record(f"uncorrelated round {r}", self._check_uncorrelated(res))
        return res, dt

    def _check_uncorrelated(self, res) -> list[str]:
        det = self.cfg.detection
        b = self.budget
        expected = spurious.spurious_coincidences(b.singles_rate_hz * det.measurement_time_s,
                                                  b.noon_order, det).delta_pcc
        factor = 2.0 if self.mode is WindowMode.SLIDING else 1.0
        return poisson_mean_problems(res.mean_coincidences, factor * expected, self.trials)

    def draw_reference(self) -> dict:
        """Draw round 0's event streams with public calls only; the counting floor."""
        det = self.cfg.detection
        _, rates = self._budget()
        seed = derive_seed(self.seed, 0)
        t0 = perf_counter()
        for i in range(self.trials):
            rng = montecarlo.rng_stream(seed, i)
            for rate in rates:
                rng.random(rng.poisson(rate * det.measurement_time_s))
        seconds = perf_counter() - t0
        return {"draw_s": seconds, "draw_events": self.events_per_trial * self.trials}

    def e2e(self, walls):
        sims = self.sim_walls
        if not sims:
            return {}
        return {
            "events_per_s": metric(self.events_per_trial * self.trials * len(sims) / sum(sims), "1/s",
                                   len(sims), f"{self.events_per_trial:.4g} events per trial"),
            "trials_per_s": metric(self.trials * len(sims) / sum(sims), "1/s", len(sims),
                                   f"{self.trials} trials per call"),
        }


class McBinnedLong(_McWorkload):
    """Binned counting of 3.4e6-event streams at the paper's operating point."""

    name = "mc_binned_long"

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        base = config.load_config(SHIPPED["silvestri2024"])
        self._setup(replace(base, detection=replace(base.detection, measurement_time_s=sizes.binned_record_s,
                                                    window_mode=WindowMode.BINNED)), sizes.binned_trials)

    def round(self, r, tracer=None, record=True):
        return self._run_uncorrelated(r, 1, tracer, record)[1]

    def run_traced(self, seconds, tracer):
        extras = super().run_traced(seconds, tracer)
        return {**extras, **self.draw_reference()}


class McSlidingPool(_McWorkload):
    """Short sliding-window trials and a 1e4-trial experiment over a worker pool."""

    name = "mc_sliding_pool"
    mode = WindowMode.SLIDING

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        base = config.load_config(SHIPPED["silvestri2024"])
        quadrature = math.pi / (2 * base.source.noon_order)
        self._setup(replace(base, bias_phase_rad=quadrature,
                            detection=replace(base.detection, measurement_time_s=sizes.sliding_record_s,
                                              window_mode=WindowMode.SLIDING)), sizes.sliding_trials)
        self.exp_walls: list[float] = []
        self.exp_trials = self.exp_failures = 0
        self.last = None

    def _experiment(self, r: int, workers: int):
        b = self.budget
        mc = montecarlo.McConfig(seed=derive_seed(self.seed, r, 1), trials=self.sizes.experiment_trials)
        point = PhasePoint(b.sagnac_phase_rad, self.cfg.bias_phase_rad)
        return montecarlo.simulate_experiment(b.effective_pairs, point, b.noon_order, b.coherence_total,
                                              b.spurious, mc, workers=workers)

    def _check_experiment(self, est) -> list[str]:
        b = self.budget
        point = PhasePoint(b.sagnac_phase_rad, self.cfg.bias_phase_rad)
        sol = spurious.phase_shift_spurious(b.effective_pairs, point.total_rad, b.noon_order, b.spurious)
        shot = sagnac.shot_noise(b.noon_order, noon_pairs=b.noon_pairs)
        good = est.n_trials - est.n_failures
        return experiment_problems(est.bias_rad, est.spread_rad, good,
                                   sol.value_rad if sol.defined else None, shot)

    def round(self, r, tracer=None, workers=None, record=True):
        workers = POOL_WORKERS if workers is None else workers
        res, dt1 = self._run_uncorrelated(r, workers, tracer, record)
        est, dt2, err = timed(tracer, "bench.experiment", self._experiment, r, workers)
        if record:
            self.keep_fastest("experiment", dt2)
        if est is not None and record:
            self.exp_walls.append(dt2)
            self.exp_trials += est.n_trials
            self.exp_failures += est.n_failures
        self.ledger.record(f"experiment round {r}", [err] if err else self._check_experiment(est))
        self.last = (res, est)
        return dt1 + dt2

    def run_traced(self, seconds, tracer):
        """Per round: untraced with the pool, untraced and traced with one worker.

        The traced single-worker results must equal the pooled ones exactly
        (the determinism contract); spans from pool children would be lost.
        Throughput metrics describe the pooled calls only.
        """
        pooled, single, traced = [], [], []
        t_start, r = perf_counter(), 0
        with tracer.installed():
            with tracer.operation("bench.setup"):
                type(self)(self.seed, self.sizes, self.workdir)
        while True:
            pooled.append(self.round(r))
            pooled_out = self.last
            single.append(self.round(r, workers=1, record=False))
            with tracer.installed():
                traced.append(self.round(r, tracer, workers=1, record=False))
            self.ledger.record(f"worker invariance round {r}", _invariance_problems(pooled_out, self.last))
            r += 1
            per_round = statistics.median(a + b + c for a, b, c in zip(pooled, single, traced))
            if perf_counter() - t_start + per_round > seconds:
                break
        return {"walls": pooled, "untraced": single, "traced": traced, "pooled": pooled,
                **self.draw_reference()}

    def e2e(self, walls):
        out = super().e2e(walls)
        if not self.exp_walls:
            return out
        out["experiment_trials_per_s"] = metric(
            self.sizes.experiment_trials * len(self.exp_walls) / sum(self.exp_walls), "1/s",
            len(self.exp_walls), f"{self.sizes.experiment_trials} trials per call")
        return out


def _invariance_problems(a, b) -> list[str]:
    if a is None or b is None or a[0] is None or b[0] is None or a[1] is None or b[1] is None:
        return ["a run to compare failed"]
    problems = []
    if not np.array_equal(a[0].per_trial, b[0].per_trial):
        problems.append("coincidence counts differ between worker counts")
    if not np.array_equal(a[1].estimates_rad, b[1].estimates_rad, equal_nan=True):
        problems.append("phase estimates differ between worker counts")
    return problems


# --- analytic landscape -------------------------------------------------------

class AnalyticLandscape(Workload):
    """Budget, two bias-zone scans, a profile and scalar inversions per variant."""

    name = "analytic_landscape"

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        bases = [config.load_config(p) for p in SHIPPED.values()]
        self.variants = make_variants(bases, seed, sizes.variants, salt=1)
        self.grid = np.linspace(*SCAN_RANGE, PROFILE_POINTS)
        self.bias_points = [float(x) for x in np.linspace(*SCAN_RANGE, SCALAR_POINTS)]
        self.latencies: list[float] = []
        self.max_asymmetry = 0.0

    def analyse(self, cfg):
        b = cli.assemble_budget(cfg)
        order = b.noon_order
        scans = [spurious.bias_zone_scan(b.effective_pairs, order, b.spurious, b.shot_noise_rad,
                                         phase_range=SCAN_RANGE, safe_threshold_rad=k * b.shot_noise_rad)
                 for k in (1.0, 0.1)]
        profile = spurious.phase_shift_profile(b.effective_pairs, self.grid, order, b.spurious)
        shifts = [spurious.phase_shift_spurious(b.effective_pairs, phi, order, b.spurious)
                  for phi in self.bias_points]
        return b, scans, profile, shifts

    def check(self, out) -> list[str]:
        b, scans, (values, defined), shifts = out
        order = b.noon_order
        problems = []
        for scan in scans:
            found, asymmetry = scan_problems(scan, b.effective_pairs, order, b.spurious, *SCAN_RANGE)
            problems += found
            self.max_asymmetry = max(self.max_asymmetry, asymmetry)
        if values.shape != self.grid.shape or not np.isfinite(values[defined]).all():
            problems.append("profile has non-finite values where defined")
        ref, ref_ok = spurious.phase_shift_profile(b.effective_pairs, np.array(self.bias_points), order, b.spurious)
        for phi, sol, v, ok in zip(self.bias_points, shifts, ref, ref_ok):
            if sol.defined != bool(ok) or (ok and abs(sol.value_rad - v) > CROSSING_RESIDUAL):
                problems.append(f"scalar inversion at {phi:.6f} disagrees with the profile")
        return problems

    def round(self, r, tracer=None, record=True):
        wall = 0.0
        for i, cfg in enumerate(self.variants):
            out, dt, err = timed(tracer, "bench.analysis", self.analyse, cfg)
            wall += dt
            if record:
                self.latencies.append(dt)
                self.keep_fastest(i, dt)
            self.ledger.record(f"variant {i} round {r}", [err] if err else self.check(out))
        return wall

    def e2e(self, walls):
        lat = self.latencies
        label, tail = percentile_tail(lat)
        return {
            "analysis_p50_ms": metric(1e3 * statistics.median(lat), "ms", len(lat)),
            "analysis_tail_ms": metric(1e3 * tail, "ms", len(lat), label),
            "analyses_per_s": metric(len(lat) / sum(walls), "1/s", len(lat)),
        }


# --- CLI batch ----------------------------------------------------------------

SWEEP_RANGE = ("-0.5", repr(math.pi + 0.5))


def cli_commands(sizes: Sizes) -> dict[str, list[str]]:
    """The five commands; ``{out}`` and ``{seed}`` are filled per call."""
    return {
        "budget": ["budget"],
        "omega-min": ["omega-min"],
        "zones": ["zones", "--threshold", "tenth"],
        "sweep": ["sweep", "--from", SWEEP_RANGE[0], "--to", SWEEP_RANGE[1],
                  "--points", str(sizes.sweep_points), "--out", "{out}"],
        "mc": ["mc", "--trials", str(MC_TRIALS), "--scale", repr(MC_SCALE), "--seed", "{seed}"],
    }


def reference_key(config_name: str, command: str, sizes: Sizes) -> str:
    return f"{config_name} {command} {sizes.sweep_points}" if command == "sweep" else f"{config_name} {command}"


def run_cli_subprocess(argv: list[str]) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, "-m", "qfog.cli", *argv], capture_output=True, cwd=ROOT,
                          timeout=120)
    return proc.returncode, proc.stdout


def run_cli_in_process(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue().encode()


def parse_mc(text: str) -> dict[str, str]:
    """``label -> value`` for the indented ``label   value`` lines of ``mc``."""
    fields = {}
    for line in text.splitlines():
        label, _, value = line.strip().partition("  ")
        fields[label] = value.strip()
    return fields


def mc_output_problems(text: str) -> list[str]:
    """Statistical check of ``mc`` stdout; its bytes depend on the random draws."""
    f = parse_mc(text)
    try:
        trials = int(f["trials / seed"].split("/")[0])
        mean, expected = float(f["mean count"]), float(f["analytic prediction"])
        failures, n = (int(x) for x in f["inversion failures"].split(" of "))
        bias, spread = float(f["empirical bias [rad]"]), float(f["empirical spread [rad]"])
        shot = float(f["shot-noise spread [rad]"])
        predicted = f["predicted bias [rad]"]
    except (KeyError, ValueError) as exc:
        return [f"unparseable mc output ({exc!r})"]
    factor = 2.0 if f.get("window mode") == "sliding" else 1.0
    problems = poisson_mean_problems(mean, factor * expected, trials)
    pred = None if predicted.startswith("undefined") else float(predicted)
    return problems + experiment_problems(bias, spread, n - failures, pred, shot)


class CliBatch(Workload):
    """The five CLI commands as subprocesses on shipped and variant configs."""

    name = "cli_batch"

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.configs = {name: str(path) for name, path in SHIPPED.items()}
        bases = [config.load_config(p) for p in SHIPPED.values()]
        for i, cfg in enumerate(make_variants(bases, seed, CLI_VARIANTS, salt=2, vary_flux=False)):
            path = workdir / f"variant{i}.json"
            path.write_text(config.dump_config(cfg))
            self.configs[f"variant{i}"] = str(path)
        self.commands = cli_commands(sizes)
        self.records: list = []  # (config, command, exit code, output digest, mc stdout)
        self.latencies: dict[str, list[float]] = {c: [] for c in self.commands}
        self.stdout_bytes: dict[str, int] = {}
        self.reference = json.loads(REFERENCE.read_text())

    def _argv(self, command: str, path: str, r: int, k: int) -> list[str]:
        out = str(self.workdir / "sweep.csv")
        seed = str(derive_seed(self.seed, r, k) % 2**31)
        return [a.format(out=out, seed=seed) for a in self.commands[command]] + ["--config", path]

    def round(self, r, tracer=None, runner=run_cli_subprocess, record=True):
        wall = 0.0
        for k, (name, path) in enumerate(self.configs.items()):
            for command in self.commands:
                argv = self._argv(command, path, r, k)
                out, dt, err = timed(tracer, f"bench.cli.{command}", runner, argv)
                wall += dt
                if err:
                    self.ledger.record(f"{name} {command} round {r}", [err])
                    continue
                code, stdout = out
                output = stdout
                if command == "sweep" and code == 0:
                    csv = self.workdir / "sweep.csv"
                    output = csv.read_bytes()
                    csv.unlink()
                if record:
                    self.latencies[command].append(dt)
                    self.stdout_bytes[command] = len(stdout)
                self.records.append((name, command, code, digest(output), stdout.decode() if command == "mc" else ""))
        return wall

    def finish(self):
        expected = {}
        for name, path in self.configs.items():
            if name in SHIPPED:
                for command in self.commands:
                    expected[(name, command)] = self.reference.get(reference_key(name, command, self.sizes))
            else:
                cfg = config.load_config(path)
                expected[(name, "budget")] = digest((cli.format_budget(cli.assemble_budget(cfg)) + "\n").encode())
                expected[(name, "omega-min")] = digest((cli.format_omega_min(cfg) + "\n").encode())
                expected[(name, "zones")] = digest((cli.format_zones(cfg, threshold="tenth") + "\n").encode())
                expected[(name, "sweep")] = digest(cli.sweep_rows(
                    cfg, float(SWEEP_RANGE[0]), float(SWEEP_RANGE[1]), self.sizes.sweep_points).encode())
        for name, command, code, out_digest, mc_text in self.records:
            if code != 0:
                problems = [f"exit code {code}"]
            elif command == "mc":
                problems = mc_output_problems(mc_text)
            elif expected.get((name, command)) is None:
                problems = ["no reference output"]
            else:
                problems = [] if out_digest == expected[(name, command)] else ["output bytes differ from reference"]
            self.ledger.record(f"{name} {command}", problems)
        self.records.clear()

    def run_traced(self, seconds, tracer):
        """Subprocess rounds, then in-process rounds untraced and traced."""
        subprocess_walls = closed_loop(seconds / 3, self.round)
        plain = closed_loop(seconds / 3, lambda r: self.round(r, runner=run_cli_in_process, record=False))
        with tracer.installed():
            with tracer.operation("bench.setup"):
                type(self)(self.seed, self.sizes, self.workdir)
            traced = closed_loop(seconds / 3, lambda r: self.round(r, tracer, run_cli_in_process, False))
        return {"walls": subprocess_walls, "untraced": plain, "traced": traced}

    def wall(self, walls):
        """The median round: each command runs only three to five times in a
        run, too few for a steady fastest time."""
        return metric(statistics.median(walls), "s", len(walls), "median round")

    def e2e(self, walls):
        lat = [x for values in self.latencies.values() for x in values]
        if not lat:
            return {}
        label, tail = percentile_tail(lat)
        return {
            "command_p50_ms": metric(1e3 * statistics.median(lat), "ms", len(lat)),
            "command_tail_ms": metric(1e3 * tail, "ms", len(lat), label),
        }


WORKLOADS = {w.name: w for w in (McBinnedLong, McSlidingPool, AnalyticLandscape, CliBatch)}
