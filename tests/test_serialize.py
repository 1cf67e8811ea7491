import json

import numpy as np
import pytest

from dropctrl import Automaton, LqrWeights, Signal, SwitchedLinearSystem, worst_fuel
from dropctrl.worstcase import PerSignal, WorstCaseReport
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
