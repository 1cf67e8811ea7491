"""File formats: matrices, automata, polytopes, systems and weights in; reports out.

Matrices are read as JSON {"rows": n, "cols": m, "data": [...]} (row
major), as nested lists of rows, or as plain CSV, and every entry must be
finite: JSON null reads as NaN, which is refused.  Report floats are
written with repr, the shortest decimal that round-trips binary64 exactly.  Non-finite worst-case values appear as the
strings "inf" / "-inf" / "nan" in JSON and CSV so the documents stay standard.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Any

import numpy as np

from .automata import Automaton, Edge
from .lqr import LqrWeights
from .systems import SwitchedLinearSystem, _finite
from .worstcase import Polytope, WorstCaseReport, _columns

__all__ = [
    "matrix_from_dict",
    "matrix_from_csv",
    "vector_from_any",
    "load_vector",
    "automaton_from_dict",
    "load_automaton",
    "polytope_from_dict",
    "load_polytope",
    "system_from_dict",
    "load_system",
    "weights_from_dict",
    "load_weights",
    "report_to_dict",
    "report_csv",
    "REPORT_CSV_HEADER",
]

REPORT_CSV_HEADER = ["problem", "mode", "worst_value", "argmax_signal", "wallclock"]


def _float_cell(x: float) -> str:
    # repr writes the non-finite floats as inf, -inf and nan
    return repr(float(x))


def _json_value(x: float | None) -> Any:
    if x is None:
        return None
    return float(x) if math.isfinite(x) else str(float(x))


def matrix_from_dict(d: dict) -> np.ndarray:
    try:
        rows, cols, data = int(d["rows"]), int(d["cols"]), d["data"]
        if len(data) != rows * cols:
            raise ValueError(f"matrix data has {len(data)} entries, expected {rows * cols}")
        return _finite(data, "matrix data").reshape(rows, cols)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"matrix object needs rows/cols/data fields: {exc}") from exc


def matrix_from_csv(text: str) -> np.ndarray:
    rows = []
    for lineno, line in enumerate(text.strip().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = [float(cell) for cell in line.split(",")]
        except ValueError as exc:
            raise ValueError(f"CSV line {lineno}: {exc}") from exc
        rows.append(_finite(row, f"CSV line {lineno}"))
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("CSV matrix must be rectangular and nonempty")
    return np.array(rows, dtype=float)


def _coerce_matrix(obj, name: str) -> np.ndarray:
    # a nested list of rows or a rows/cols/data object
    return matrix_from_dict(obj) if isinstance(obj, dict) else _finite(obj, name, ndim=2)


def vector_from_any(obj) -> np.ndarray:
    """Accept the matrix dict, a nested list, or a flat list; return 1-D."""
    if isinstance(obj, dict):
        return matrix_from_dict(obj).ravel()
    try:
        return _finite(obj, "vector").ravel()
    except TypeError as exc:
        raise ValueError(f"vector must be numbers or a rows/cols/data object: {exc}") from exc


def load_vector(path: str) -> np.ndarray:
    with open(path) as fh:
        text = fh.read()
    if str(path).endswith(".csv"):
        return matrix_from_csv(text).ravel()
    return vector_from_any(json.loads(text))


def automaton_from_dict(d: dict) -> Automaton:
    try:
        edges = [Edge(int(e["from"]), int(e["to"]), str(e["label"])) for e in d["edges"]]
        return Automaton(d["nodes"], edges, d["start"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"automaton object needs nodes/start/edges fields: {exc}") from exc


def load_automaton(path: str) -> Automaton:
    with open(path) as fh:
        return automaton_from_dict(json.load(fh))


def polytope_from_dict(d: dict) -> Polytope:
    try:
        return Polytope(d["vertices"] if isinstance(d, dict) else d)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"polytope needs vertex rows or a 'vertices' field: {exc}") from exc


def load_polytope(path: str) -> Polytope:
    with open(path) as fh:
        return polytope_from_dict(json.load(fh))


def system_from_dict(d: dict) -> SwitchedLinearSystem:
    try:
        return SwitchedLinearSystem(*(_coerce_matrix(d[name], name) for name in "ABC"))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"system object needs A/B/C fields: {exc}") from exc


def load_system(path: str) -> SwitchedLinearSystem:
    with open(path) as fh:
        return system_from_dict(json.load(fh))


def weights_from_dict(d: dict) -> LqrWeights:
    try:
        return LqrWeights(
            _coerce_matrix(d["Q"], "Q"),
            _coerce_matrix(d["R"], "R"),
            _coerce_matrix(d["Qf"], "Qf"),
            d["T"],
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"weights object needs Q/R/Qf/T fields: {exc}") from exc


def load_weights(path: str) -> LqrWeights:
    with open(path) as fh:
        return weights_from_dict(json.load(fh))


def report_to_dict(report: WorstCaseReport) -> dict:
    words, values, statuses = _columns(report.per_signal)
    return {
        "problem": report.problem,
        "mode": report.mode,
        "worst_value": _json_value(report.worst_value),
        "argmax_signal": None if report.argmax_signal is None else str(report.argmax_signal),
        "feasible": report.feasible,
        "wallclock": report.wallclock,
        "info": {k: _json_value(v) if isinstance(v, float) else v for k, v in report.info.items()},
        # _json_value inlined: a report may carry thousands of entries
        "per_signal": [
            {"signal": w, "value": v if math.isfinite(v) else str(v), "status": st}
            for w, v, st in zip(words, values, statuses)
        ],
    }


def report_csv(report: WorstCaseReport, per_signal: bool = False) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(REPORT_CSV_HEADER)
    writer.writerow(
        [
            report.problem,
            report.mode,
            _float_cell(report.worst_value),
            "" if report.argmax_signal is None else str(report.argmax_signal),
            repr(report.wallclock),
        ]
    )
    if per_signal:
        writer.writerow([])
        writer.writerow(["signal", "value", "status"])
        words, values, statuses = _columns(report.per_signal)
        writer.writerows(zip(words, map(_float_cell, values), statuses))
    return buf.getvalue()
