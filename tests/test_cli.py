import argparse
import json
import math
from dataclasses import asdict, fields

import numpy as np
import pytest

from dropctrl import (
    EXHAUSTIVE,
    LqrWeights,
    Polytope,
    minimal_signals_bfs,
    polytope_reachable,
    serialize,
    worst_control_time,
    worst_energy,
    worst_estimation_time,
    worst_fixed_input_lqr,
    worst_fuel,
    worst_fuel_energy,
    worst_lqr,
)
from dropctrl import cli
from dropctrl.cli import build_parser, main
from dropctrl.study import PROBLEM_LABELS, StudyConfig, run_study
from dropctrl.worstcase import PROBLEMS


@pytest.fixture
def scalar_system(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"A": [[2.0]], "B": [[1.0]], "C": [[1.0]]}))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_minimal_listing(capsys):
    code, out, _ = run_cli(capsys, "minimal", "--k", "1", "--T", "4")
    assert code == 0
    assert out.split() == ["0101", "0110", "1010"]


def test_admissible_language(capsys):
    code, out, _ = run_cli(capsys, "admissible", "--k", "1", "--T", "4")
    assert code == 0
    words = set(out.split())
    assert words == {w for w in ("".join(b) for b in __import__("itertools").product("01", repeat=4)) if "00" not in w}


def test_admissible_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "admissible", "--k", "1", "--T", "3", "--out", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == len(doc["signals"]) == 5
    code, out, _ = run_cli(capsys, "admissible", "--k", "1", "--T", "3", "--out", "csv")
    assert out.splitlines()[0] == "signal"


def test_automaton_file_constraint(capsys, tmp_path):
    doc = {
        "nodes": [1, 2],
        "start": [1, 2],
        "edges": [
            {"from": 1, "to": 1, "label": "1"},
            {"from": 1, "to": 2, "label": "0"},
            {"from": 2, "to": 1, "label": "1"},
        ],
    }
    path = tmp_path / "a.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "admissible", "--automaton", str(path), "--T", "2")
    assert code == 0
    assert set(out.split()) == {"01", "10", "11"}
    code, out, _ = run_cli(capsys, "minimal", "--automaton", str(path), "--T", "2")
    assert set(out.split()) == {"01", "10"}


def test_minimal_automaton_listing_needs_no_language(capsys, tmp_path):
    # the k=1 counter automaton: its T=30 language has 2.2M words, more
    # than the default cap, but the minimal words are generated directly
    doc = {
        "nodes": [1, 2],
        "start": [1, 2],
        "edges": [
            {"from": 1, "to": 1, "label": "1"},
            {"from": 1, "to": 2, "label": "0"},
            {"from": 2, "to": 1, "label": "1"},
        ],
    }
    path = tmp_path / "k1.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "minimal", "--automaton", str(path), "--T", "30")
    assert code == 0, err
    assert tuple(out.split()) == minimal_signals_bfs(1, 30).to_strings()
    assert len(out.split()) == 4410
    # the cap bounds exhaustive enumeration only
    cap = ["--exhaustive-cap", "64"]
    code, out, _ = run_cli(capsys, "minimal", "--automaton", str(path), "--T", "30", *cap)
    assert code == 0 and len(out.split()) == 4410
    code, _, err = run_cli(capsys, "admissible", "--automaton", str(path), "--T", "30", *cap)
    assert code == 1
    assert "cap" in err


def test_missing_flags_exit_1(capsys):
    code, _, err = run_cli(capsys, "minimal", "--k", "1")
    assert code == 1
    assert "--T" in err
    code, _, err = run_cli(capsys, "minimal", "--T", "3")
    assert code == 1
    code, _, err = run_cli(capsys, "minimal", "--k", "1", "--automaton", "x.json", "--T", "3")
    assert code == 1


def test_malformed_json_exit_1_with_diagnostic(capsys, tmp_path):
    bad = tmp_path / "sys.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "estimate-time", "--system", str(bad), "--k", "1", "--T", "3")
    assert code == 1
    assert "line" in err or "char" in err


def test_malformed_matrix_exit_1(capsys, tmp_path):
    bad = tmp_path / "sys.json"
    bad.write_text(json.dumps({"A": [[1.0]], "B": {"rows": 2, "cols": 1, "data": [1.0]}, "C": [[1.0]]}))
    code, _, err = run_cli(capsys, "estimate-time", "--system", str(bad), "--k", "1", "--T", "3")
    assert code == 1
    assert "entries" in err


@pytest.mark.parametrize(
    "argv, doc",
    [
        pytest.param(["minimal", "--T", "3", "--automaton"], {"nodes": 5, "start": [0], "edges": []},
                     id="automaton-nodes-number"),
        pytest.param(["minimal", "--T", "3", "--automaton"], {"nodes": [0], "start": 0, "edges": []},
                     id="automaton-start-number"),
        pytest.param(["estimate-time", "--k", "1", "--T", "3", "--system"], [[2.0]], id="system-list"),
        pytest.param(["estimate-time", "--k", "1", "--T", "3", "--system"],
                     {"A": {"rows": 1, "cols": 1, "data": 2.0}, "B": [[1.0]], "C": [[1.0]]},
                     id="system-matrix-data-number"),
        pytest.param(["lqr-maxmin", "--k", "1", "--system", "SYS", "--weights"], [[1.0]],
                     id="weights-list"),
        pytest.param(["lqr-maxmin", "--k", "1", "--system", "SYS", "--weights"],
                     {"Q": [[1.0]], "R": [[1.0]], "Qf": [[1.0]], "T": [3]}, id="weights-T-list"),
        pytest.param(["energy", "--k", "1", "--T", "3", "--system", "SYS", "--xf"],
                     {"rows": 1, "cols": 1, "data": 1.0}, id="xf-matrix-data-number"),
        pytest.param(["energy", "--k", "1", "--T", "3", "--system", "SYS", "--xf"], [{}],
                     id="xf-object-entry"),
        pytest.param(["reach", "--k", "1", "--T", "3", "--system", "SYS", "--polytope"],
                     {"vertices": {"x": 1.0}}, id="polytope-vertices-object"),
        # non-finite entries, JSON null reading as NaN
        pytest.param(["energy", "--k", "1", "--T", "3", "--system", "SYS", "--xf"], None, id="xf-null"),
        pytest.param(["energy", "--k", "1", "--T", "3", "--system", "SYS", "--xf"], [math.nan],
                     id="xf-nan"),
        pytest.param(["energy", "--k", "1", "--T", "3", "--system", "SYS", "--xf"],
                     {"rows": 1, "cols": 1, "data": [None]}, id="xf-matrix-data-null"),
        pytest.param(["energy", "--k", "1", "--T", "3", "--system"],
                     {"A": [[math.nan]], "B": [[1.0]], "C": [[1.0]]}, id="system-A-nan"),
        pytest.param(["energy", "--k", "1", "--T", "3", "--system"],
                     {"A": [[2.0]], "B": [[math.inf]], "C": [[1.0]]}, id="system-B-inf"),
        pytest.param(["lqr-maxmin", "--k", "1", "--system", "SYS", "--weights"],
                     {"Q": [[None]], "R": [[1.0]], "Qf": [[1.0]], "T": 3}, id="weights-Q-null"),
        pytest.param(["reach", "--k", "1", "--T", "3", "--system", "SYS", "--polytope"],
                     {"vertices": [[math.nan]]}, id="polytope-vertex-nan"),
    ],
)
def test_malformed_documents_exit_1(capsys, scalar_system, tmp_path, argv, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [scalar_system if a == "SYS" else a for a in argv]
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_malformed_arguments_exit_1(capsys, scalar_system, tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps([["k", 1]]))
    code, _, err = run_cli(capsys, "minimal", "--T", "3", "--config", str(config))
    assert code == 1 and "must hold a JSON object" in err
    xf = tmp_path / "xf.json"
    xf.write_text(json.dumps([1.0, 2.0]))
    code, _, err = run_cli(capsys, "energy", "--system", scalar_system, "--k", "1", "--T", "3", "--xf", str(xf))
    assert code == 1 and "has dimension 2, expected 1" in err
    code, _, err = run_cli(capsys, "lqr-maxmin", "--system", scalar_system, "--k", "1")
    assert code == 1 and "--T is required without --weights" in err


@pytest.mark.parametrize("flag", ["--gamma1", "--gamma2"])
@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_non_finite_weights_exit_1(capsys, scalar_system, flag, weight):
    # refused before any solve: no report of failed signals, no RuntimeWarning
    argv = ["fuel-energy", "--system", scalar_system, "--k", "1", "--T", "4", flag, weight]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {flag[2:]} must be finite") and "Traceback" not in err


def test_estimate_time(capsys, scalar_system):
    code, out, _ = run_cli(capsys, "estimate-time", "--system", scalar_system, "--k", "1", "--T", "4")
    assert code == 0
    assert "worst value: 1" in out
    assert "worst signal: 0101" in out


def test_control_time_with_vector_file(capsys, scalar_system, tmp_path):
    x0 = tmp_path / "x0.json"
    x0.write_text(json.dumps([0.0]))
    code, out, _ = run_cli(
        capsys, "control-time", "--system", scalar_system, "--k", "1", "--T", "3", "--x0", str(x0)
    )
    assert code == 0
    assert "worst value: 0" in out


def test_control_time_json_carries_the_decision_counters(capsys, scalar_system, tmp_path):
    # x(t+1) = 2 x(t) + u(t) from 0.4: 1010 parks at once with u = -0.8, and
    # after a first dropout no unit input parks 0.8 or more
    x0 = tmp_path / "x0.json"
    x0.write_text(json.dumps([0.4]))
    code, out, _ = run_cli(
        capsys, "control-time", "--system", scalar_system, "--k", "1", "--T", "4",
        "--x0", str(x0), "--out", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert [(e["signal"], e["value"]) for e in doc["per_signal"]] == [
        ("0101", "inf"), ("0110", "inf"), ("1010", 0.0),
    ]
    # 0110 reuses the verdicts of the prefixes 0 and 01 that 0101 decided
    assert doc["info"]["counters"] == {
        "prefixes": 7, "memo_hits": 2,
        "off_range": 1, "upper_screen": 1, "lower_screen": 5, "lp_solves": 0, "iterations": 0,
    }


def test_trie_counters_in_json_and_text(capsys, scalar_system):
    # k=1, T=4: the minimal words 0101, 0110, 1010
    common = ("--system", scalar_system, "--k", "1", "--T", "4")
    code, out, _ = run_cli(capsys, "estimate-time", *common, "--out", "json")
    assert code == 0
    # 0101 and 0110 share the rank test of 01
    assert json.loads(out)["info"]["counters"] == {"prefixes": 2, "memo_hits": 1}
    code, out, _ = run_cli(capsys, "lqr-maxmin", *common, "--out", "json")
    assert code == 0
    # suffixes 1, 01, 101, 0101; 0, 10, 110, 0110; of 1010 only 010 and 1010 are new
    assert json.loads(out)["info"]["counters"] == {"nodes": 10, "row_steps": 12}
    code, out, _ = run_cli(capsys, "lqr-fixed", *common, "--out", "json")
    assert code == 0
    # prefixes 0, 01, 010, 0101, 011, 0110, 1, 10, 101, 1010
    assert json.loads(out)["info"]["counters"] == {"nodes": 10, "row_steps": 12}
    code, out, _ = run_cli(capsys, "lqr-fixed", *common)
    assert code == 0
    assert "counters: {'nodes': 10, 'row_steps': 12}" in out


def test_factor_counters_in_json_and_text(capsys, scalar_system, tmp_path):
    # k=2, T=2 admits 00, 01, 10 and 11: a chunk for each count of
    # successful steps, and 00 has rank 0, the one matrix that takes the SVD
    xf = tmp_path / "xf.json"
    xf.write_text(json.dumps([1.0]))
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"vertices": [[0.5], [-0.5]]}))
    common = ("--system", scalar_system, "--k", "2", "--T", "2", "--mode", "exhaustive")
    counters = {"chunks": 3, "rank_deficient": 1, "svd_rows": 1}
    for command, target in (("energy", ("--xf", str(xf))), ("reach", ("--polytope", str(poly)))):
        code, out, _ = run_cli(capsys, command, *common, *target, "--out", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["info"]["counters"] == counters, command
        assert doc["per_signal"][0]["signal"] == "00" and doc["per_signal"][0]["value"] == "inf"
        code, out, _ = run_cli(capsys, command, *common, *target)
        assert code == 0
        assert f"counters: {counters}" in out, command


def test_fuel_energy_commands(capsys, scalar_system, tmp_path):
    xf = tmp_path / "xf.json"
    xf.write_text(json.dumps({"rows": 1, "cols": 1, "data": [1.0]}))
    code, out, _ = run_cli(capsys, "fuel", "--system", scalar_system, "--k", "1", "--T", "2", "--xf", str(xf))
    assert code == 0 and "worst value: 1" in out
    code, out, _ = run_cli(capsys, "energy", "--system", scalar_system, "--k", "1", "--T", "2", "--xf", str(xf))
    assert code == 0 and "worst value: 1" in out
    code, out, _ = run_cli(
        capsys, "fuel-energy", "--system", scalar_system, "--k", "1", "--T", "2",
        "--xf", str(xf), "--gamma1", "1", "--gamma2", "0",
    )
    assert code == 0 and "worst value: 1" in out
    code, out, _ = run_cli(
        capsys, "fuel", "--system", scalar_system, "--k", "1", "--T", "2", "--xf", str(xf), "--out", "csv"
    )
    assert out.startswith("problem,mode,worst_value,argmax_signal,wallclock")


def test_reach_command(capsys, tmp_path):
    sysp = tmp_path / "sys2.json"
    sysp.write_text(json.dumps({"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[1.0, 0.0], [0.0, 1.0]], "C": [[1.0, 0.0]]}))
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"vertices": [[0.5, 0.5]]}))
    code, out, _ = run_cli(capsys, "reach", "--system", str(sysp), "--k", "1", "--T", "3", "--polytope", str(poly))
    assert code == 0
    assert "reachable: True" in out


def test_lqr_commands(capsys, scalar_system, tmp_path):
    code, out, _ = run_cli(capsys, "lqr-maxmin", "--system", scalar_system, "--k", "1", "--T", "1")
    assert code == 0 and "worst value: 5" in out
    code, out, _ = run_cli(
        capsys, "lqr-fixed", "--system", scalar_system, "--k", "1", "--T", "1", "--mode", "exhaustive"
    )
    assert code == 0 and "worst value: 6" in out
    w = tmp_path / "w.json"
    w.write_text(json.dumps({"Q": [[1.0]], "R": [[1.0]], "Qf": [[1.0]], "T": 1}))
    code, out, _ = run_cli(
        capsys, "lqr-maxmin", "--system", scalar_system, "--k", "1", "--weights", str(w)
    )
    assert code == 0 and "worst value: 5" in out


def test_lqr_overflow_is_reported_without_warnings(capsys, tmp_path):
    # A'PA overflows to inf - inf: the costs are inf or NaN, and the report,
    # not numpy's warnings on stderr, says so
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"A": [[1e30, 0.0], [0.0, 1e30]], "B": [[1.0], [0.0]], "C": [[1.0, 0.0]]}))
    words = ["010101", "010110", "011010", "101010", "101101"]
    common = ("--system", str(path), "--k", "1", "--T", "6", "--out", "json")
    code, out, err = run_cli(capsys, "lqr-maxmin", *common)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["info"]["failed_signals"] == words
    assert doc["feasible"] is False
    code, out, err = run_cli(capsys, "lqr-fixed", *common)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert [e["signal"] for e in doc["per_signal"]] == words
    assert {e["value"] for e in doc["per_signal"]} == {"inf"}
    # an overflowed cost is no certified value
    assert {e["status"] for e in doc["per_signal"]} == {"max_iterations"}
    assert doc["info"]["failed_signals"] == words


@pytest.mark.parametrize("command", ["lqr-maxmin", "lqr-fixed"])
def test_lqr_weights_horizon_must_match_T(capsys, scalar_system, tmp_path, command):
    w = tmp_path / "w.json"
    w.write_text(json.dumps({"Q": [[1.0]], "R": [[1.0]], "Qf": [[1.0]], "T": 6}))
    code, out, err = run_cli(
        capsys, command, "--system", scalar_system, "--k", "1", "--T", "3", "--weights", str(w)
    )
    assert code == 1 and out == ""
    assert "--T 3" in err and "T = 6" in err
    code, out, _ = run_cli(
        capsys, command, "--system", scalar_system, "--k", "1", "--T", "6", "--weights", str(w)
    )
    assert code == 0 and "worst signal: 010101\n" in out  # a 6-bit word

def test_study_command_and_csv(capsys):
    code, out, _ = run_cli(
        capsys, "study", "--problem", "I", "--k", "1", "--states", "4", "--inputs", "3",
        "--samples", "3", "--seed", "7", "--T", "6",
    )
    assert code == 0
    assert "avg RPD: 100%" in out
    code, out, _ = run_cli(
        capsys, "study", "--problem", "I", "--k", "1", "--states", "4", "--inputs", "3",
        "--samples", "3", "--seed", "7", "--T", "6", "--out", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sample_id,method,rpd_percent,nominal,worst,argmax_signal,status"
    assert len(lines) == 4


def test_study_json_deterministic(capsys):
    args = ["study", "--problem", "I", "--k", "1", "--states", "3", "--inputs", "2",
            "--samples", "2", "--seed", "3", "--T", "5", "--out", "json"]
    code, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    assert a["rows"] == b["rows"]
    assert a["generator"] == "numpy-pcg64/seedseq-spawn-per-sample"


@pytest.mark.parametrize("label", PROBLEM_LABELS)
def test_study_flags_default_to_the_config_fields(label):
    ns = build_parser().parse_args(["study", "--problem", label])
    parsed = {f.name: getattr(ns, f.name) for f in fields(StudyConfig)}
    expected = asdict(StudyConfig(problem=label))
    assert parsed == expected
    assert list(map(type, parsed.values())) == list(map(type, expected.values()))


def test_study_json_carries_its_config(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "run_study", lambda cfg: built.append(cfg) or run_study(cfg))
    code, out, _ = run_cli(
        capsys, "study", "--problem", "III", "--k", "2", "--states", "3", "--inputs", "2",
        "--samples", "2", "--seed", "4", "--T", "5", "--mode", "exhaustive", "--gamma1", "0",
        "--gamma2", "2", "--exhaustive-cap", "1000", "--max-discard-frac", "1", "--out", "json",
    )
    assert code == 0
    config = StudyConfig(**json.loads(out)["config"])
    assert config == built[0] == StudyConfig(
        problem="III", k=2, n=3, m=2, samples=2, T=5, seed=4, mode="exhaustive",
        gamma1=0.0, gamma2=2.0, exhaustive_cap=1000,
    )


def test_config_file_supplies_flags(capsys, tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"k": 1, "T": 4, "out": "json"}))
    code, out, _ = run_cli(capsys, "minimal", "--config", str(cfgp))
    assert code == 0
    assert json.loads(out)["signals"] == ["0101", "0110", "1010"]
    # explicit argv beats the config file
    code, out, _ = run_cli(capsys, "minimal", "--config", str(cfgp), "--T", "3")
    assert json.loads(out)["signals"] == ["010", "101"]


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"parallel": 4}, "unrecognized arguments"),
        ({"out": "xml"}, "invalid choice: 'xml'"),
        ({"k": 4.0}, "invalid int value: '4.0'"),
        ({"tol_feas": 1e-8}, "unrecognized arguments"),
    ],
)
def test_config_values_get_flag_checks(capsys, tmp_path, doc, message):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "admissible", "--k", "1", "--T", "3", "--config", str(cfgp))
    assert code == 1
    assert out == ""
    assert message in err


def test_config_null_leaves_flag_default(capsys, tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"k": 1, "T": 3, "out": None}))
    code, out, _ = run_cli(capsys, "admissible", "--config", str(cfgp))
    assert code == 0
    assert out.split() == ["010", "011", "101", "110", "111"]


@pytest.mark.parametrize("command", ["admissible", "minimal"])
def test_empty_language_listing(capsys, tmp_path, command):
    # every word of this automaton has even length, so none has length 3
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"nodes": [1], "start": [1], "edges": [{"from": 1, "to": 1, "label": "10"}]}))
    code, out, _ = run_cli(capsys, command, "--automaton", str(path), "--T", "3", "--out", "json")
    assert code == 0
    assert json.loads(out) == {"T": 3, "count": 0, "signals": []}


def test_exhaustive_cap_flag(capsys):
    code, _, err = run_cli(
        capsys, "admissible", "--k", "2", "--T", "12", "--exhaustive-cap", "5"
    )
    assert code == 1
    assert "cap" in err


@pytest.mark.parametrize(
    "extra", [["--bogus"], ["--tol-rank", "1e-6"], ["--tol-feas", "1e-8"]], ids=" ".join
)
def test_unknown_argument_exit_1(capsys, extra):
    code, _, err = run_cli(capsys, "minimal", "--k", "1", "--T", "4", *extra)
    assert code == 1
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("command", ["admissible", "minimal"])
def test_listings_refuse_mode(capsys, tmp_path, command):
    # neither listing reads --mode, so neither accepts it
    code, _, err = run_cli(capsys, command, "--k", "1", "--T", "4", "--mode", "exhaustive")
    assert code == 1
    assert "unrecognized arguments" in err
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"mode": "minimal"}))
    code, _, err = run_cli(capsys, command, "--k", "1", "--T", "4", "--config", str(config))
    assert code == 1
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("frac", ["-1", "1.5", "nan"])
def test_study_refuses_discard_frac_outside_unit_interval(capsys, frac):
    code, out, err = run_cli(
        capsys, "study", "--problem", "I", "--states", "3", "--inputs", "2",
        "--samples", "1", "--T", "4", "--max-discard-frac", frac,
    )
    assert code == 1 and out == ""
    assert "--max-discard-frac" in err

def test_study_discard_threshold_exit_2(capsys):
    # bounded-input transfer is infeasible for these draws; every sample
    # is discarded, tripping the default 0.5 threshold
    code, out, _ = run_cli(
        capsys, "study", "--problem", "II", "--k", "1", "--states", "4",
        "--inputs", "1", "--samples", "3", "--seed", "1", "--T", "6",
    )
    assert code == 2
    assert "3 discarded" in out


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_study_refuses_cap_below_one(capsys, cap):
    # not exit 2 with every sample discarded: no cap below 1 holds the nominal's word
    code, out, err = run_cli(
        capsys, "study", "--problem", "I", "--states", "3", "--inputs", "2",
        "--samples", "3", "--T", "6", "--seed", "7", "--exhaustive-cap", cap,
    )
    assert code == 1 and out == ""
    assert f"cap must be >= 1, got {cap}" in err


X0, XF = np.array([0.4]), np.array([0.7])
POLY = Polytope([[0.5], [-0.25]])
WEIGHTS = LqrWeights(np.eye(1), 2 * np.eye(1), 3 * np.eye(1), 4)

# the direct call each analysis subcommand stands for, with the values of table_flags
DIRECT = {
    "estimate-time": lambda sys: worst_estimation_time(sys, 1, 4, EXHAUSTIVE),
    "control-time": lambda sys: worst_control_time(sys, 1, 4, X0, EXHAUSTIVE),
    "fuel": lambda sys: worst_fuel(sys, 1, 4, XF, EXHAUSTIVE, 1.5),
    "energy": lambda sys: worst_energy(sys, 1, 4, XF, EXHAUSTIVE),
    "fuel-energy": lambda sys: worst_fuel_energy(sys, 1, 4, XF, 0.5, 2.0, EXHAUSTIVE),
    "reach": lambda sys: polytope_reachable(sys, 1, 4, POLY, EXHAUSTIVE)[1],
    "lqr-maxmin": lambda sys: worst_lqr(sys, 1, WEIGHTS, X0, EXHAUSTIVE),
    "lqr-fixed": lambda sys: worst_fixed_input_lqr(sys, 1, WEIGHTS, X0, EXHAUSTIVE),
}


@pytest.fixture
def table_flags(tmp_path):
    """The flags of each table argument, none of them at its default."""
    def dump(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return {
        "T": ["--T", "4"],
        "x0": ["--x0", dump("x0.json", X0.tolist())],
        "x_f": ["--xf", dump("xf.json", XF.tolist())],
        "poly": ["--polytope", dump("poly.json", {"vertices": POLY.vertices.tolist()})],
        "input_bound": ["--input-bound", "1.5"],
        "gamma1": ["--gamma1", "0.5"],
        "gamma2": ["--gamma2", "2"],
        "weights": [
            "--weights", dump("w.json", {"Q": [[1.0]], "R": [[2.0]], "Qf": [[3.0]], "T": 4})
        ],
    }


@pytest.mark.parametrize("command", list(PROBLEMS))
def test_every_table_row_runs_its_direct_call(capsys, scalar_system, table_flags, command):
    flags = [token for name in PROBLEMS[command].args for token in table_flags[name]]
    code, out, err = run_cli(
        capsys, command, "--system", scalar_system, "--k", "1", "--mode", "exhaustive",
        "--out", "json", *flags,
    )
    assert code == 0, err
    doc = json.loads(out)
    report = DIRECT[command](serialize.load_system(scalar_system))
    expected = json.loads(json.dumps(serialize.report_to_dict(report)))
    del doc["wallclock"], expected["wallclock"]
    assert doc == expected


def test_subcommands_and_study_problems_are_the_table_rows():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == ["admissible", "minimal", *PROBLEMS, "study"]
    labels = [row.label for row in PROBLEMS.values()]
    assert sorted(set(labels)) == ["I", "II", "III", "IV", "V", "VI"]
    study = next(a for a in sub.choices["study"]._actions if a.dest == "problem")
    # the study supplies every argument but IV's polytope
    assert list(study.choices) == ["I", "II", "III", "V", "VI"]
    for label in labels:
        if label in study.choices:
            StudyConfig(problem=label)
        else:
            with pytest.raises(ValueError, match="problem must be one of"):
                StudyConfig(problem=label)
