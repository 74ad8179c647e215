"""Span recording around the public functions of the qfog modules.

Tracing is installed only for a traced run.  It replaces every public
function of each traced module by a wrapper that records a span, both as
the module attribute and wherever another qfog module (or the package
namespace) bound the function by ``from ... import``.  Calls between
layers therefore nest as child spans, for example the scalar inversions
that ``bias_zone_scan`` makes.  Only calls made inside a benchmark
operation are recorded, so output checks stay out of the trace.  Spans
stay in memory until the run ends.

A span is ``(name, start_ns, end_ns, parent, op, work)``: ``parent`` is
the index of the enclosing span (-1 for a root), ``op`` the operation id
of the benchmark operation that caused it, and ``work`` a size used to
normalise the span (events, trials, grid points, rows) or 0.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

LAYERS = ("montecarlo", "spurious", "sagnac", "propagation", "dispersion", "config", "cli")


def _events(a) -> float:
    return sum(a["singles_rate_per_detector"]) * a["det"].measurement_time_s * a["mc"].trials


# Work units of the spans that are normalised by their input size.
WORK = {
    "montecarlo.simulate_uncorrelated": _events,
    "montecarlo.simulate_experiment": lambda a: a["mc"].trials,
    "spurious.phase_shift_profile": lambda a: np.size(a["phase_total_rad"]),
    "cli.sweep_rows": lambda a: a["points"],
}


class Tracer:
    """In-memory span recorder for one single-threaded process.

    Spans are stored column-wise in typed arrays (about 40 bytes each), so
    a traced run can hold millions of them.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {"name": array("i"), "start_ns": array("q"), "end_ns": array("q"),
                     "parent": array("i"), "op": array("i"), "work": array("d")}
        self._stack: list[int] = []
        self._next_op = 0
        self._op = -1

    def __len__(self) -> int:
        return len(self.cols["name"])

    def _open(self, name: str, work: float) -> int:
        c = self.cols
        sid = len(c["name"])
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        c["name"].append(self._ids[name])
        c["parent"].append(self._stack[-1] if self._stack else -1)
        c["op"].append(self._op)
        c["work"].append(work)
        c["end_ns"].append(0)
        self._stack.append(sid)
        c["start_ns"].append(perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.cols["end_ns"][sid] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def operation(self, name: str):
        """Root span of one benchmark operation, with a fresh operation id."""
        self._op, self._next_op = self._next_op, self._next_op + 1
        sid = self._open(name, 0)
        try:
            yield
        finally:
            self._close(sid)
            self._op = -1

    def wrap(self, name: str, fn):
        sizer = WORK.get(name)
        signature = inspect.signature(fn) if sizer else None

        def traced(*args, **kwargs):
            if self._op < 0:  # outside a benchmark operation, e.g. an output check
                return fn(*args, **kwargs)
            work = 0
            if sizer is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                work = sizer(bound.arguments)
            sid = self._open(name, work)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    @contextmanager
    def installed(self):
        """Wrap every public qfog layer function while the block runs."""
        modules = [importlib.import_module(f"qfog.{m}") for m in LAYERS]
        wrappers = {}
        for mod in modules:
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and not attr.startswith("_") and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self.wrap(f"{mod.__name__[5:]}.{attr}", fn))
        patched = []
        for mod in modules + [importlib.import_module("qfog")]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)][1])
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def write(self, path) -> None:
        """Save the spans as a compressed ``.npz``: one array per column plus ``names``."""
        np.savez_compressed(path, names=np.array(self.names),
                            **{k: np.frombuffer(v, dtype=v.typecode) for k, v in self.cols.items()})


@dataclass
class Agg:
    count: int = 0
    total_ns: int = 0
    self_ns: int = 0
    work: float = 0.0


def aggregate(tracer: Tracer) -> tuple[dict, dict, dict]:
    """Per-name totals, self times and work; child-call counts; budget shares.

    A span's self time is its duration minus the time its direct children
    cover.  Children of one span never overlap, because spans come from a
    single call stack.  Returns ``(by_name, child_counts, under_budget)``:
    ``child_counts[(parent_name, child_name)]`` counts direct calls and
    ``under_budget[layer]`` sums the self time of that layer's spans made
    inside ``cli.assemble_budget``.
    """
    c = tracer.cols
    n = len(tracer)
    names = tracer.names
    budget_id = tracer._ids.get("cli.assemble_budget", -1)
    name_ids, parents = c["name"], c["parent"]
    dur = [e - s for s, e in zip(c["start_ns"], c["end_ns"])]
    child_ns = [0] * n
    in_budget = [False] * n
    child_counts: dict = defaultdict(int)
    for sid in range(n):
        parent = parents[sid]
        if parent >= 0:
            child_ns[parent] += dur[sid]
            child_counts[(names[name_ids[parent]], names[name_ids[sid]])] += 1
            in_budget[sid] = in_budget[parent] or name_ids[parent] == budget_id
    by_name: dict[str, Agg] = defaultdict(Agg)
    under_budget: dict[str, int] = defaultdict(int)
    for sid in range(n):
        name = names[name_ids[sid]]
        agg = by_name[name]
        own = dur[sid] - child_ns[sid]
        agg.count += 1
        agg.total_ns += dur[sid]
        agg.self_ns += own
        agg.work += c["work"][sid]
        if in_budget[sid]:
            under_budget[name.split(".")[0]] += own
    return dict(by_name), dict(child_counts), dict(under_budget)
