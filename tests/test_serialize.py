import copy
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from dropctrl import Automaton, LqrWeights, Polytope, Signal, SwitchedLinearSystem, worst_fuel
from dropctrl.worstcase import PROBLEMS, PerSignal, WorstCaseReport
from dropctrl import serialize as ser


def test_matrix_dict_round_trip():
    M = np.array([[1.5, -2.25], [1.0 / 3.0, 1e-17]])
    d = {"rows": 2, "cols": 2, "data": M.ravel().tolist()}
    back = ser.matrix_from_dict(json.loads(json.dumps(d)))
    assert np.array_equal(back, M)  # bit-exact through JSON


def test_matrix_csv_round_trip_exact():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((4, 3)) * 10.0 ** rng.integers(-12, 12, size=(4, 3))
    # repr writes the shortest decimal that reads back as the same binary64
    text = "\n".join(",".join(map(repr, row)) for row in M.tolist())
    back = ser.matrix_from_csv(text)
    assert np.array_equal(back, M)


def test_matrix_errors():
    with pytest.raises(ValueError):
        ser.matrix_from_dict({"rows": 2, "cols": 2, "data": [1.0]})
    with pytest.raises(ValueError):
        ser.matrix_from_dict({"rows": 2})
    with pytest.raises(ValueError):
        ser.matrix_from_csv("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError) as err:
        ser.matrix_from_csv("1.0,x\n")
    assert "line 1" in str(err.value)
    with pytest.raises(ValueError, match="CSV line 2 has a non-finite entry"):
        ser.matrix_from_csv("1.0\nnan\n")


def test_vector_coercion():
    assert np.array_equal(ser.vector_from_any([1.0, 2.0]), [1.0, 2.0])
    assert np.array_equal(ser.vector_from_any([[1.0], [2.0]]), [1.0, 2.0])
    assert np.array_equal(
        ser.vector_from_any({"rows": 2, "cols": 1, "data": [3.0, 4.0]}), [3.0, 4.0]
    )


def test_automaton_round_trip(tmp_path):
    a = Automaton([1, 2], [(1, 2, "10"), (2, 1, "1")], [1])
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"nodes": [1, 2], "start": [1], "edges": [
        {"from": 1, "to": 2, "label": "10"}, {"from": 2, "to": 1, "label": "1"}]}))
    b = ser.load_automaton(str(path))
    assert b.nodes == a.nodes
    assert b.start_nodes == a.start_nodes
    assert b.edges == a.edges


def test_automaton_errors():
    with pytest.raises(ValueError):
        ser.automaton_from_dict({"nodes": [1]})


def test_system_and_weights_loading(tmp_path):
    doc = {
        "A": [[2.0]],
        "B": {"rows": 1, "cols": 1, "data": [1.0]},
        "C": [[1.0]],
    }
    p = tmp_path / "sys.json"
    p.write_text(json.dumps(doc))
    sys = ser.load_system(str(p))
    assert isinstance(sys, SwitchedLinearSystem)
    assert sys.A[0, 0] == 2.0
    wdoc = {"Q": [[1.0]], "R": [[1.0]], "Qf": [[2.0]], "T": 3}
    pw = tmp_path / "w.json"
    pw.write_text(json.dumps(wdoc))
    w = ser.load_weights(str(pw))
    assert isinstance(w, LqrWeights)
    assert w.T == 3
    with pytest.raises(ValueError):
        ser.system_from_dict({"A": [[1.0]]})
    with pytest.raises(ValueError):
        ser.system_from_dict({"A": [1.0], "B": [[1.0]], "C": [[1.0]]})


def test_polytope_loading(tmp_path):
    p = tmp_path / "poly.json"
    p.write_text(json.dumps({"vertices": [[1.0, 0.0], [0.0, 1.0]]}))
    poly = ser.load_polytope(str(p))
    assert poly.vertices.shape == (2, 2)
    with pytest.raises(ValueError):
        ser.polytope_from_dict({"points": []})


def test_report_serialization_with_inf():
    sys = SwitchedLinearSystem([[2.0]], [[1.0]], [[1.0]])
    a = Automaton([1], [(1, 1, "0"), (1, 1, "1")], [1])
    rep = worst_fuel(sys, a, 2, [1.0], mode="exhaustive")  # 00 signal infeasible
    doc = ser.report_to_dict(rep)
    text = json.dumps(doc)  # must be strict JSON even with inf values
    assert "Infinity" not in text
    assert doc["worst_value"] == "inf"
    per = {e["signal"]: e["value"] for e in doc["per_signal"]}
    assert per["00"] == "inf"
    assert per["10"] == 0.5
    csv_text = ser.report_csv(rep)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "problem,mode,worst_value,argmax_signal,wallclock"
    assert lines[1].startswith("III,exhaustive,inf,00,")
    detailed = ser.report_csv(rep, per_signal=True)
    assert "signal,value,status" in detailed


def test_report_serialization_with_nan():
    # NaN is written as "nan" in JSON, as the CSV writes it, not as "-inf"
    nan = float("nan")
    rep = WorstCaseReport(
        "V", "minimal", nan, None, [PerSignal(Signal("01"), nan, "optimal")], 0.0, False,
        {"bound": nan},
    )
    assert ser._json_value(nan) == "nan"
    doc = ser.report_to_dict(rep)
    assert "NaN" not in json.dumps(doc)
    assert (doc["worst_value"], doc["info"]["bound"]) == ("nan", "nan")
    assert doc["per_signal"] == [{"signal": "01", "value": "nan", "status": "optimal"}]
    lines = ser.report_csv(rep, per_signal=True).strip().splitlines()
    assert lines[1].startswith("V,minimal,nan,,")
    assert lines[-1] == "01,nan,optimal"


# --- a scan's report is its columns until per_signal is read ----------------

PLANT = SwitchedLinearSystem([[0.9, 0.3], [0.0, 1.1]], np.eye(2), np.eye(2))
ROW_ARGS = {
    "T": 6,
    "weights": LqrWeights.identity(2, 2, 6),
    "x0": np.ones(2),
    "x_f": np.ones(2),
    "poly": Polytope(0.5 * np.vstack([np.eye(2), -np.eye(2)])),
    "input_bound": 1.5,
    "gamma1": 1.0,
    "gamma2": 1.0,
}
# A'PA overflows to inf - inf: every cost is NaN, a solver failure
OVERFLOW = SwitchedLinearSystem(np.diag([1e30, 1e30]), [[1.0], [0.0]], np.eye(2))
# every table row; fuel-energy's zero-weight branch, which scales energy's
# report; and a report whose every signal failed
ROWS = {command: (command, {}) for command in PROBLEMS} | {
    "fuel-energy-pure": ("fuel-energy", {"gamma1": 0.0, "gamma2": 2.0}),
    "lqr-maxmin-failed": ("lqr-maxmin", {"sys": OVERFLOW, "weights": LqrWeights.identity(2, 1, 6)}),
}


def run_row(command, overrides):
    problem = PROBLEMS[command]
    values = {name: overrides.get(name, ROW_ARGS[name]) for name in problem.args}
    return problem.run(overrides.get("sys", PLANT), 1, mode="exhaustive", **values)


def outputs(rep):
    return json.dumps(ser.report_to_dict(rep)), ser.report_csv(rep, per_signal=True)


@pytest.fixture
def built(monkeypatch):
    """Counts the PerSignal entries built from here on."""
    count = [0]
    init = PerSignal.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(PerSignal, "__init__", counting)
    return count


@pytest.mark.parametrize("row", list(ROWS))
def test_report_serializes_its_columns_until_read(row, built):
    rep = run_row(*ROWS[row])
    assert len(rep.per_signal) == 21  # the k=1, T=6 language
    before = outputs(rep)
    assert built[0] == 0  # nothing read: the scan's result, len and both writers built no entry
    entries = list(rep.per_signal)
    assert built[0] == 21
    assert outputs(rep) == before
    assert rep.per_signal[0] is rep.per_signal[0] and rep.per_signal[-1] is entries[-1]
    assert built[0] == 21  # built once and kept
    # worst value, argmax and failed signals agree with the entries
    values = [e.value for e in entries]
    assert rep.worst_value == max(values)
    assert rep.argmax_signal == entries[values.index(max(values))].signal
    failed = [str(e.signal) for e in entries if e.status == "max_iterations"]
    assert rep.info.get("failed_signals", []) == failed
    assert (row == "lqr-maxmin-failed") == (len(failed) == 21)
    doc = json.loads(before[0])
    assert [(d["signal"], d["value"], d["status"]) for d in doc["per_signal"]] == [
        (str(e.signal), e.value if math.isfinite(e.value) else str(e.value), e.status)
        for e in entries
    ]
    # an entry cannot be edited, so the writers' columns stay the scan's
    with pytest.raises(AttributeError):
        entries[0].value = 123.5
    with pytest.raises(AttributeError):
        entries[0].status = "edited"
    assert outputs(rep) == before
    # a list a caller puts in the report is what the writers write
    rest = dataclasses.replace(rep, per_signal=list(rep.per_signal)[1:])
    assert ser.report_to_dict(rest)["per_signal"] == doc["per_signal"][1:]
    table = ser.report_csv(rest, per_signal=True).split("signal,value,status\r\n")[1]
    assert table == before[1].split("signal,value,status\r\n")[1].split("\r\n", 1)[1]
    # and so is a list of replaced entries
    entries[0] = dataclasses.replace(entries[0], value=123.5, status="edited")
    edited = dataclasses.replace(rep, per_signal=entries)
    assert ser.report_to_dict(edited)["per_signal"][0] == {
        "signal": str(entries[0].signal), "value": 123.5, "status": "edited"
    }
    assert f"\n{entries[0].signal},123.5,edited\r\n" in ser.report_csv(edited, per_signal=True)


@pytest.mark.parametrize("how", ["pickle", "deepcopy"])
@pytest.mark.parametrize("row", list(ROWS))
def test_report_survives_pickle_and_deepcopy(row, how):
    rep = run_row(*ROWS[row])
    before = outputs(rep)
    back = pickle.loads(pickle.dumps(rep)) if how == "pickle" else copy.deepcopy(rep)
    assert outputs(back) == before  # written from the restored columns
    entries = back.per_signal
    assert not entries.values.flags.writeable
    assert not entries.signals.to_array().flags.writeable
    with pytest.raises(ValueError):
        entries.values[0] = 0.0
    assert back == rep
    with pytest.raises(AttributeError):
        entries[0].value = 0.0
    with pytest.raises(AttributeError):
        back.argmax_signal._text = "0"
    # a report whose entries were read round-trips the same
    again = pickle.loads(pickle.dumps(back)) if how == "pickle" else copy.deepcopy(back)
    assert again == rep and outputs(again) == before
