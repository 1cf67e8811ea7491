"""Command-line front end.

Subcommands cover signal enumeration (admissible, minimal), the six
worst-case analyses, and the randomized validation study.  The analysis
subcommands are the rows of worstcase.PROBLEMS: each row's arguments
name its flags, and one lookup runs it.  Exit codes: 0 success, 1
malformed input or arguments, 2 study discard rate above the configured
threshold.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, asdict, astuple, fields
from typing import get_type_hints

import numpy as np

from . import serialize
from .automata import (
    CapExceeded,
    build_k_constraint_automaton,
    enumerate_admissible,
    minimal_admissible,
)
from .lqr import LqrWeights
from .study import PROBLEM_LABELS, SampleRow, StudyConfig, run_study
from .worstcase import DEFAULT_EXHAUSTIVE_CAP, EXHAUSTIVE, MINIMAL, PROBLEMS


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _global_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", choices=["text", "json", "csv"], default="text")
    p.add_argument(
        "--exhaustive-cap", type=int, default=DEFAULT_EXHAUSTIVE_CAP,
        help="most words an exhaustive enumeration may hold (minimal mode ignores it)",
    )
    p.add_argument("--config", help="JSON object of flag values; explicit flags win")


def _constraint_flags(p: argparse.ArgumentParser, T_required: bool = True) -> None:
    constraint = p.add_mutually_exclusive_group(required=True)
    constraint.add_argument("--k", type=int)
    constraint.add_argument("--automaton")
    p.add_argument("--T", type=int, required=T_required)


def _weights(ns: argparse.Namespace, plant) -> LqrWeights:
    """The --weights file, whose horizon --T may repeat, or identity weights over --T."""
    if ns.weights is not None:
        weights = serialize.load_weights(ns.weights)
        if ns.T is not None and ns.T != weights.T:
            raise CliError(f"--T {ns.T} disagrees with T = {weights.T} in {ns.weights}")
        return weights
    if ns.T is None:
        raise CliError("--T is required without --weights")
    return LqrWeights.identity(plant.n, plant.m, ns.T)


# each argument of a worstcase.PROBLEMS row: its flag and add_argument options
# (--T comes with the constraint flags, required when the row takes T), and
# its value, read from the parsed flags and the loaded system
_ARGUMENTS = {
    "T": (None, {}, lambda ns, _: ns.T),
    "x0": ("--x0", {"default": "ones"}, lambda ns, plant: _load_vec(ns.x0, plant.n)),
    "x_f": ("--xf", {"default": "ones"}, lambda ns, plant: _load_vec(ns.xf, plant.n)),
    "poly": ("--polytope", {"required": True}, lambda ns, _: serialize.load_polytope(ns.polytope)),
    "input_bound": ("--input-bound", {"type": float}, lambda ns, _: ns.input_bound),
    "gamma1": ("--gamma1", {"type": float, "default": 1.0}, lambda ns, _: ns.gamma1),
    "gamma2": ("--gamma2", {"type": float, "default": 1.0}, lambda ns, _: ns.gamma2),
    "weights": ("--weights", {"help": "JSON with Q/R/Qf/T; without it --T is required"}, _weights),
}


def build_parser() -> _Parser:
    root = _Parser(prog="dropctrl", description=__doc__)
    modes = [MINIMAL, EXHAUSTIVE]
    sub = root.add_subparsers(dest="command", required=True)

    def cmd(name, **kw):
        p = sub.add_parser(name, **kw)
        _global_flags(p)
        return p

    p = cmd("admissible", help="enumerate the admissible signals of length T")
    _constraint_flags(p)

    p = cmd("minimal", help="enumerate the minimal signals of length T")
    _constraint_flags(p)

    for command, problem in PROBLEMS.items():
        p = cmd(command, help=problem.summary)
        _constraint_flags(p, T_required="T" in problem.args)
        p.add_argument("--mode", choices=modes, default=MINIMAL)
        p.add_argument("--system", required=True)
        for name in problem.args:
            flag, options, _ = _ARGUMENTS[name]
            if flag is not None:
                p.add_argument(flag, **options)

    p = cmd("study", help="randomized validation study")
    # one flag per StudyConfig field, of its type and default; the global
    # --exhaustive-cap sets exhaustive_cap
    types = get_type_hints(StudyConfig)
    for f in fields(StudyConfig):
        if f.name != "exhaustive_cap":
            p.add_argument(
                {"n": "--states", "m": "--inputs"}.get(f.name, f"--{f.name}"), dest=f.name,
                type=types[f.name], choices={"problem": PROBLEM_LABELS, "mode": modes}.get(f.name),
                default=f.default, required=f.default is MISSING,
            )
    p.add_argument("--max-discard-frac", type=float, default=0.5)
    return root


def _config_tokens(argv: list[str]) -> list[str]:
    """The --config file's entries as `--key=value` flags (null entries are left out)."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return []
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    return [f"--{key.replace('_', '-')}={value}" for key, value in doc.items() if value is not None]


def _constraint(ns: argparse.Namespace):
    return ns.k if ns.k is not None else serialize.load_automaton(ns.automaton)


def _load_vec(source: str, n: int) -> np.ndarray:
    if source == "ones":
        return np.ones(n)
    v = serialize.load_vector(source)
    if v.size != n:
        raise CliError(f"vector in {source} has dimension {v.size}, expected {n}")
    return v


def _print_signals(strings, out: str, T: int) -> None:
    if out == "json":
        print(json.dumps({"T": T, "count": len(strings), "signals": list(strings)}))
    elif out == "csv":
        print("signal")
        for s in strings:
            print(s)
    else:
        for s in strings:
            print(s)


def _print_report(report, out: str) -> None:
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


def _signal_strings(ns: argparse.Namespace) -> tuple[str, ...]:
    """The listed words; an empty language lists nothing."""
    constraint = _constraint(ns)
    if isinstance(constraint, int):
        constraint = build_k_constraint_automaton(constraint)
    if ns.command == "minimal":
        # the minimal candidates every analysis scans
        return minimal_admissible(constraint, ns.T).to_strings()
    return enumerate_admissible(constraint, ns.T, cap=ns.exhaustive_cap).to_strings()


def _run_command(ns: argparse.Namespace) -> int:
    command = ns.command
    if command in ("admissible", "minimal"):
        _print_signals(_signal_strings(ns), ns.out, ns.T)
        return 0

    if command == "study":
        if not 0.0 <= ns.max_discard_frac <= 1.0:
            raise CliError(f"--max-discard-frac must lie in [0, 1], got {ns.max_discard_frac}")
        cfg = StudyConfig(**{f.name: getattr(ns, f.name) for f in fields(StudyConfig)})
        result = run_study(cfg)
        _print_study(result, ns.out)
        if result.discarded_samples > ns.max_discard_frac * cfg.samples:
            return 2
        return 0

    sys_model = serialize.load_system(ns.system)
    constraint = _constraint(ns)

    problem = PROBLEMS[command]
    values = {name: _ARGUMENTS[name][2](ns, sys_model) for name in problem.args}
    report = problem.run(sys_model, constraint, mode=ns.mode, cap=ns.exhaustive_cap, **values)
    _print_report(report, ns.out)
    return 0


def _print_study(result, out: str) -> None:
    if out == "json":
        doc = {
            "generator": result.generator,
            "problem": result.config.problem,
            "config": asdict(result.config),
            "avg_rpd_percent": result.avg_rpd,
            "discarded_samples": result.discarded_samples,
            "retained_samples": result.retained,
            "rows": [asdict(r) for r in result.rows],
            "reports": [
                None if rep is None else serialize.report_to_dict(rep)
                for rep in result.reports
            ],
        }
        print(json.dumps(doc))
    elif out == "csv":
        # str of a float is its repr, so CSV values round-trip exactly
        print(",".join(f.name for f in fields(SampleRow)))
        for r in result.rows:
            print(",".join("" if v is None else str(v) for v in astuple(r)))
    else:
        print(f"problem {result.config.problem}: {result.retained} retained, "
              f"{result.discarded_samples} discarded (generator {result.generator})")
        if result.avg_rpd is not None:
            print(f"avg RPD: {result.avg_rpd:.6g}%")


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # config entries go straight after the subcommand, so explicit flags,
        # parsed later, win; argparse checks both alike
        ns = parser.parse_args(argv[:1] + _config_tokens(argv) + argv[1:])
        return _run_command(ns)
    except (CliError, ValueError, OSError, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
