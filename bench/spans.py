"""Span tracing of dropctrl's layers, installed from outside the package.

``Tracer.install()`` wraps every public function of the layer modules and
rebinds each name wherever a dropctrl module imported it, so calls
between modules are seen too; ``uninstall()`` restores the originals.
Spans (id, parent, call, name, layer, start, end) stay in memory; ``call``
is the id of the span one level below the root, which is one timed
analysis call.  Counters are taken at the same boundaries.  Self time is a span's duration minus its
children's; summed over all spans it equals the root span's duration.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from dropctrl import automata, lqr, serialize, signals, simplex, solvers, systems, worstcase

LAYERS = {
    "automata": automata,
    "signals": signals,
    "worstcase": worstcase,
    "systems": systems,
    "simplex": simplex,
    "solvers": solvers,
    "lqr": lqr,
    "serialize": serialize,
}

# functions whose inclusive time is reported under their own metric name
TIMED = {
    "minimal_signals_bfs": "automata.bfs_s",
    "enumerate_admissible": "automata.enumerate_s",
    "minimal_filter": "signals.filter_s",
    "candidate_signals": "worstcase.candidates_s",
    "controllability_matrix": "systems.ctrb_s",
    "numerical_rank": "systems.rank_s",
    "reachability_gramian": "systems.gramian_s",
    "solve_standard_lp": "simplex.lp_s",
    "min_inf_norm": "solvers.inf_norm_s",
    "min_fuel": "solvers.fuel_s",
    "min_energy": "solvers.energy_s",
    "riccati_backward": "lqr.riccati_s",
    "degraded_cost": "lqr.rollout_s",
    "report": "serialize.report_s",
}
CALLS = {
    "minimal_signals_bfs": "automata.bfs_calls",
    "candidate_signals": "worstcase.candidate_calls",
    "controllability_matrix": "systems.ctrb_calls",
    "numerical_rank": "systems.svd_calls",  # one SVD per call
    "solve_standard_lp": "simplex.lp_calls",
    "riccati_backward": "lqr.riccati_calls",
    "degraded_cost": "lqr.rollout_calls",
}

PER_LAYER_METRICS = (
    [(name, "s") for name in TIMED.values()]
    + [(name, "count") for name in CALLS.values()]
    + [(f"{layer}.self_s", "s") for layer in (*LAYERS, "bench")]
    + [
        ("automata.words", "count"),
        ("signals.filter_pairs", "count"),
        ("worstcase.candidate_distinct", "count"),
        ("worstcase.subproblems", "count"),
        ("worstcase.prefix_steps", "count"),
        ("worstcase.prefix_distinct", "count"),
        ("simplex.pivots", "count"),
        ("simplex.non_optimal", "count"),
        ("solvers.uncertified", "count"),
        ("solvers.lp_per_signal", "ratio"),
        ("serialize.bytes", "B"),
        ("trace.run_s", "s"),
        ("trace.untraced_run_s", "s"),
        ("trace.overhead", "ratio"),
    ]
)


def _constraint_key(constraint):
    if isinstance(constraint, automata.Automaton):
        return (constraint.edges, constraint.start_nodes)
    return constraint


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.candidate_keys: set = set()
        self._stack: list[int] = []
        self._next = 0
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, layer: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        call = self._stack[1] if len(self._stack) > 1 else sid
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, call, name, layer, start, end))

    def _wrap(self, fn, layer: str):
        name = fn.__name__
        counter = _COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name, layer):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer, module in LAYERS.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(fn, layer)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dropctrl" and not mod_name.startswith("dropctrl."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def reset(self) -> None:
        self.spans = []
        self.counts.clear()
        self.candidate_keys.clear()

    # -- aggregation -----------------------------------------------------

    def layer_metrics(self, reports: list) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _call, _name, _layer, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        names = {sid: name for sid, _p, _c, name, _l, _s, _e in self.spans}
        out: dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER_METRICS}
        lp_in_ii = 0
        for sid, parent, call, name, layer, start, end in self.spans:
            duration = end - start
            out[f"{layer}.self_s"] += duration - child_time[sid]
            if name in TIMED:
                out[TIMED[name]] += duration
            if name in CALLS:
                out[CALLS[name]] += 1
            if name == "solve_standard_lp" and names.get(call) == "II":
                lp_in_ii += 1
            if parent is None:
                out["trace.run_s"] += duration
        for key, value in self.counts.items():
            out[key] += value
        out["worstcase.candidate_distinct"] = len(self.candidate_keys)
        ii_signals = 0
        for problem, report in reports:
            bits = [e.signal.bits for e in report.per_signal]
            out["worstcase.subproblems"] += len(bits)
            if bits:
                T = len(bits[0])
                out["worstcase.prefix_steps"] += len(bits) * T
                out["worstcase.prefix_distinct"] += len(
                    {b[: t + 1] for b in bits for t in range(T)}
                )
            if problem == "II":
                ii_signals += len(bits)
        if ii_signals:
            out["solvers.lp_per_signal"] = lp_in_ii / ii_signals
        return out


def write_spans(path, spans) -> None:
    """Write spans as gzip-compressed JSON rows."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fields = ["id", "parent", "call", "name", "layer", "start", "end"]
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        json.dump({"fields": fields, "spans": spans}, fh)


# -- counters taken at the wrapped boundaries ----------------------------

def _count_lp(tracer, args, kwargs, result):
    tracer.counts["simplex.pivots"] += result.iterations
    tracer.counts["simplex.non_optimal"] += result.status != "optimal"


def _count_solver(tracer, args, kwargs, result):
    # optimal verdicts whose own residual misses the requested tolerance
    if result.status != solvers.OPTIMAL or result.residual is None:
        return
    target = np.asarray(args[1], dtype=float).ravel()
    feas_tol = kwargs.get("feas_tol", 1e-9)
    if result.residual > feas_tol * float(np.linalg.norm(target)):
        tracer.counts["solvers.uncertified"] += 1


def _count_words(tracer, args, kwargs, result):
    tracer.counts["automata.words"] += len(result)


def _count_filter(tracer, args, kwargs, result):
    tracer.counts["signals.filter_pairs"] += len(args[0]) ** 2


def _count_candidates(tracer, args, kwargs, result):
    constraint, T = args[0], args[1]
    mode = args[2] if len(args) > 2 else kwargs.get("mode", worstcase.MINIMAL)
    tracer.candidate_keys.add((_constraint_key(constraint), T, mode))


_COUNTERS = {
    "solve_standard_lp": _count_lp,
    "min_inf_norm": _count_solver,
    "min_fuel": _count_solver,
    "min_energy": _count_solver,
    "minimal_signals_bfs": _count_words,
    "enumerate_admissible": _count_words,
    "minimal_filter": _count_filter,
    "candidate_signals": _count_candidates,
}
