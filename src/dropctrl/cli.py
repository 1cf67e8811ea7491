"""Command-line front end.

Subcommands cover signal enumeration (admissible, minimal), the six
worst-case analyses, and the randomized validation study.  Exit codes:
0 success, 1 malformed input or arguments, 2 study discard rate above
the configured threshold.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import serialize
from .automata import (
    CapExceeded,
    build_k_constraint_automaton,
    enumerate_admissible,
    minimal_signals_bfs,
)
from .lqr import LqrWeights
from .signals import minimal_filter
from .study import GENERATOR_NAME, StudyConfig, run_study
from .worstcase import (
    DEFAULT_EXHAUSTIVE_CAP,
    polytope_reachable,
    worst_control_time,
    worst_energy,
    worst_estimation_time,
    worst_fixed_input_lqr,
    worst_fuel,
    worst_fuel_energy,
    worst_lqr,
)


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


_GLOBAL_DEFAULTS = {
    "out": "text",
    "tol_rank": None,
    "tol_feas": 1e-9,
    "exhaustive_cap": DEFAULT_EXHAUSTIVE_CAP,
}


def _global_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", choices=["text", "json", "csv"], default=argparse.SUPPRESS)
    p.add_argument("--tol-rank", type=float, dest="tol_rank", default=argparse.SUPPRESS)
    p.add_argument("--tol-feas", type=float, dest="tol_feas", default=argparse.SUPPRESS)
    p.add_argument("--exhaustive-cap", type=int, dest="exhaustive_cap", default=argparse.SUPPRESS)
    p.add_argument("--config", default=argparse.SUPPRESS, help="JSON file mirroring flags")


def _constraint_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=argparse.SUPPRESS)
    p.add_argument("--automaton", default=argparse.SUPPRESS)
    p.add_argument("--T", type=int, dest="T", default=argparse.SUPPRESS)
    p.add_argument("--mode", choices=["minimal", "exhaustive"], default=argparse.SUPPRESS)


def build_parser() -> _Parser:
    root = _Parser(prog="dropctrl", description=__doc__)
    sub = root.add_subparsers(dest="command", required=True)

    def cmd(name, **kw):
        p = sub.add_parser(name, **kw)
        _global_flags(p)
        return p

    p = cmd("admissible", help="enumerate the admissible signals of length T")
    _constraint_flags(p)

    p = cmd("minimal", help="enumerate the minimal signals of length T")
    _constraint_flags(p)
    p.add_argument("--method", choices=["bfs", "filter"], default=argparse.SUPPRESS)

    p = cmd("estimate-time", help="worst time to recover the state from outputs")
    _constraint_flags(p)
    p.add_argument("--system", default=argparse.SUPPRESS)

    p = cmd("control-time", help="worst time to park the state at the origin")
    _constraint_flags(p)
    p.add_argument("--system", default=argparse.SUPPRESS)
    p.add_argument("--x0", default=argparse.SUPPRESS)

    for name, extra in (("fuel", True), ("energy", False)):
        p = cmd(name, help=f"worst minimum-{name} input design")
        _constraint_flags(p)
        p.add_argument("--system", default=argparse.SUPPRESS)
        p.add_argument("--xf", default=argparse.SUPPRESS)
        if extra:
            p.add_argument("--input-bound", type=float, dest="input_bound", default=argparse.SUPPRESS)

    p = cmd("fuel-energy", help="worst combined 1-norm + 2-norm input design")
    _constraint_flags(p)
    p.add_argument("--system", default=argparse.SUPPRESS)
    p.add_argument("--xf", default=argparse.SUPPRESS)
    p.add_argument("--gamma1", type=float, default=argparse.SUPPRESS)
    p.add_argument("--gamma2", type=float, default=argparse.SUPPRESS)

    p = cmd("reach", help="check a polytope against all unit-energy reachable sets")
    _constraint_flags(p)
    p.add_argument("--system", default=argparse.SUPPRESS)
    p.add_argument("--polytope", default=argparse.SUPPRESS)

    for name in ("lqr-maxmin", "lqr-fixed"):
        p = cmd(name, help=f"worst {'re-optimized' if name == 'lqr-maxmin' else 'fixed-gain'} quadratic cost")
        _constraint_flags(p)
        p.add_argument("--system", default=argparse.SUPPRESS)
        p.add_argument("--x0", default=argparse.SUPPRESS)
        p.add_argument("--weights", default=argparse.SUPPRESS, help="JSON with Q/R/Qf/T")

    p = cmd("study", help="randomized validation study")
    p.add_argument("--problem", choices=["I", "II", "III", "V", "VI"], default=argparse.SUPPRESS)
    p.add_argument("--k", type=int, default=argparse.SUPPRESS)
    p.add_argument("--states", type=int, default=argparse.SUPPRESS)
    p.add_argument("--inputs", type=int, default=argparse.SUPPRESS)
    p.add_argument("--samples", type=int, default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--T", type=int, dest="T", default=argparse.SUPPRESS)
    p.add_argument("--mode", choices=["minimal", "exhaustive"], default=argparse.SUPPRESS)
    p.add_argument("--gamma1", type=float, default=argparse.SUPPRESS)
    p.add_argument("--gamma2", type=float, default=argparse.SUPPRESS)
    p.add_argument("--max-discard-frac", type=float, dest="max_discard_frac", default=argparse.SUPPRESS)
    return root


class _Options:
    """Flag resolution: explicit argv > config file > defaults."""

    def __init__(self, ns: argparse.Namespace):
        self.ns = vars(ns)
        self.config = {}
        path = self.ns.get("config")
        if path:
            with open(path) as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict):
                raise CliError(f"config file {path} must hold a JSON object")
            self.config = {str(k).replace("-", "_"): v for k, v in doc.items()}

    def get(self, name, default=None):
        if name in self.ns:
            return self.ns[name]
        if name in self.config:
            return self.config[name]
        if name in _GLOBAL_DEFAULTS:
            return _GLOBAL_DEFAULTS[name]
        return default


def _resolve_constraint(opt: _Options):
    k = opt.get("k")
    path = opt.get("automaton")
    if (k is None) == (path is None):
        raise CliError("give exactly one of --k or --automaton")
    return int(k) if k is not None else serialize.load_automaton(path)


def _load_vec(source: str, n: int) -> np.ndarray:
    if source == "ones":
        return np.ones(n)
    v = serialize.load_vector(source)
    if v.size != n:
        raise CliError(f"vector in {source} has dimension {v.size}, expected {n}")
    return v


def _print_signals(strings, opt: _Options, T: int) -> None:
    out = opt.get("out")
    if out == "json":
        print(json.dumps({"T": T, "count": len(strings), "signals": list(strings)}))
    elif out == "csv":
        print("signal")
        for s in strings:
            print(s)
    else:
        for s in strings:
            print(s)


def _print_report(report, opt: _Options) -> None:
    out = opt.get("out")
    if out == "json":
        print(json.dumps(serialize.report_to_dict(report)))
    elif out == "csv":
        sys.stdout.write(serialize.report_csv(report))
    else:
        worst = report.worst_value
        shown = "inf" if math.isinf(worst) else f"{worst:.12g}"
        print(f"problem {report.problem} ({report.mode} mode over {len(report.per_signal)} signals)")
        print(f"worst value: {shown}")
        if report.argmax_signal is not None:
            print(f"worst signal: {report.argmax_signal}")
        for key, val in report.info.items():
            print(f"{key}: {val}")
        print(f"wallclock: {report.wallclock:.6f}s")


def _signal_strings(constraint, T: int, minimal: bool, method: str | None, cap: int):
    if isinstance(constraint, int):
        automaton = build_k_constraint_automaton(constraint)
    else:
        automaton = constraint
        if minimal and method == "bfs":
            raise CliError("--method bfs needs --k (automaton constraints use --method filter)")
    if not minimal:
        return enumerate_admissible(automaton, T, cap=cap).to_strings()
    if isinstance(constraint, int) and (method is None or method == "bfs"):
        return minimal_signals_bfs(constraint, T).to_strings()
    return minimal_filter(enumerate_admissible(automaton, T, cap=cap)).to_strings()


def _require_T(opt: _Options) -> int:
    T = opt.get("T")
    if T is None:
        raise CliError("--T is required")
    return int(T)


def _run_command(ns: argparse.Namespace) -> int:
    opt = _Options(ns)
    command = ns.command
    mode = opt.get("mode", "minimal")
    cap = int(opt.get("exhaustive_cap"))
    kw = {
        "rank_tol": opt.get("tol_rank"),
        "feas_tol": float(opt.get("tol_feas")),
    }

    if command in ("admissible", "minimal"):
        constraint = _resolve_constraint(opt)
        strings = _signal_strings(
            constraint, _require_T(opt), command == "minimal", opt.get("method"), cap
        )
        _print_signals(strings, opt, _require_T(opt))
        return 0

    if command == "study":
        problem = opt.get("problem")
        if problem is None:
            raise CliError("--problem is required")
        cfg = StudyConfig(
            problem=problem,
            k=int(opt.get("k", 1)),
            n=int(opt.get("states", 10)),
            m=int(opt.get("inputs", 7)),
            samples=int(opt.get("samples", 50)),
            T=int(opt.get("T", 12)),
            seed=int(opt.get("seed", 0)),
            mode=opt.get("mode", "minimal"),
            gamma1=float(opt.get("gamma1", 1.0)),
            gamma2=float(opt.get("gamma2", 0.0)),
            feas_tol=float(opt.get("tol_feas")),
            rank_tol=opt.get("tol_rank"),
            exhaustive_cap=cap,
        )
        result = run_study(cfg)
        _print_study(result, opt)
        threshold = float(opt.get("max_discard_frac", 0.5))
        if result.discarded_samples > threshold * cfg.samples:
            return 2
        return 0

    system_path = opt.get("system")
    if system_path is None:
        raise CliError("--system is required")
    sys_model = serialize.load_system(system_path)
    constraint = _resolve_constraint(opt)

    if command == "estimate-time":
        report = worst_estimation_time(
            sys_model, constraint, _require_T(opt), mode=mode, cap=cap,
            rank_tol=kw["rank_tol"],
        )
    elif command == "control-time":
        x0 = _load_vec(opt.get("x0", "ones"), sys_model.n)
        report = worst_control_time(
            sys_model, constraint, _require_T(opt), x0, mode=mode, cap=cap, **kw
        )
    elif command == "fuel":
        xf = _load_vec(opt.get("xf", "ones"), sys_model.n)
        report = worst_fuel(
            sys_model, constraint, _require_T(opt), xf, mode=mode, cap=cap,
            input_bound=opt.get("input_bound"), **kw,
        )
    elif command == "energy":
        xf = _load_vec(opt.get("xf", "ones"), sys_model.n)
        report = worst_energy(
            sys_model, constraint, _require_T(opt), xf, mode=mode, cap=cap, **kw
        )
    elif command == "fuel-energy":
        xf = _load_vec(opt.get("xf", "ones"), sys_model.n)
        report = worst_fuel_energy(
            sys_model, constraint, _require_T(opt), xf,
            float(opt.get("gamma1", 1.0)), float(opt.get("gamma2", 1.0)),
            mode=mode, cap=cap, **kw,
        )
    elif command == "reach":
        poly_path = opt.get("polytope")
        if poly_path is None:
            raise CliError("--polytope is required")
        poly = serialize.load_polytope(poly_path)
        reachable, report = polytope_reachable(
            sys_model, constraint, _require_T(opt), poly, mode=mode, cap=cap,
            tol=kw["feas_tol"],
        )
    elif command in ("lqr-maxmin", "lqr-fixed"):
        wpath = opt.get("weights")
        if wpath is not None:
            weights = serialize.load_weights(wpath)
        else:
            weights = LqrWeights.identity(sys_model.n, sys_model.m, _require_T(opt))
        x0 = _load_vec(opt.get("x0", "ones"), sys_model.n)
        fn = worst_lqr if command == "lqr-maxmin" else worst_fixed_input_lqr
        report = fn(sys_model, constraint, weights, x0, mode=mode, cap=cap)
    else:  # pragma: no cover
        raise CliError(f"unknown command {command}")

    _print_report(report, opt)
    return 0


def _print_study(result, opt: _Options) -> None:
    out = opt.get("out")
    if out == "json":
        doc = {
            "generator": result.generator,
            "problem": result.config.problem,
            "avg_rpd_percent": result.avg_rpd,
            "avg_time_fast": result.avg_time_fast,
            "avg_time_filter": result.avg_time_filter,
            "discarded_samples": result.discarded_samples,
            "retained_samples": result.retained,
            "rows": [
                {
                    "sample_id": r.sample_id,
                    "method": r.method,
                    "rpd_percent": r.rpd_percent,
                    "nominal": r.nominal,
                    "worst": r.worst,
                    "argmax_signal": r.argmax_signal,
                    "status": r.status,
                }
                for r in result.rows
            ],
            "reports": [
                None if rep is None else serialize.report_to_dict(rep)
                for rep in result.reports
            ],
        }
        print(json.dumps(doc))
    elif out == "csv":
        print("sample_id,method,rpd_percent,nominal,worst,argmax_signal,status")
        for r in result.rows:
            cells = [
                str(r.sample_id),
                r.method,
                "" if r.rpd_percent is None else repr(r.rpd_percent),
                "" if r.nominal is None else repr(r.nominal),
                "" if r.worst is None else repr(r.worst),
                r.argmax_signal or "",
                r.status,
            ]
            print(",".join(cells))
    else:
        print(f"problem {result.config.problem}: {result.retained} retained, "
              f"{result.discarded_samples} discarded (generator {result.generator})")
        if result.avg_rpd is not None:
            print(f"avg RPD: {result.avg_rpd:.6g}%")
        print(f"avg minimal-signal time (bfs): {result.avg_time_fast:.6f}s")
        print(f"avg minimal-signal time (filter): {result.avg_time_filter:.6f}s")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return _run_command(ns)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
