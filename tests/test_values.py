"""Value types are frozen: they survive pickle and deepcopy, and no attribute can be set."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from dropctrl import (
    Automaton,
    Edge,
    LqrWeights,
    Polytope,
    Signal,
    SignalSet,
    StudyConfig,
    SwitchedLinearSystem,
    build_k_constraint_automaton,
    run_study,
)
from dropctrl.worstcase import PerSignal

ROUND_TRIPS = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
}

VALUES = {
    "Signal": Signal("0110"),
    "SignalSet": SignalSet(["011", "110", "101"]),
    "empty SignalSet": SignalSet([]),
    "Edge": Edge(1, 2, "10"),
    "Automaton": build_k_constraint_automaton(2),
    "SwitchedLinearSystem": SwitchedLinearSystem(np.diag([0.5, 2.0]), np.eye(2), [[1.0, 0.0]]),
    "LqrWeights": LqrWeights(np.eye(2), [[2.0]], 3 * np.eye(2), 4),
    "Polytope": Polytope([[0.5, 0.0], [0.0, -0.5]]),
    "PerSignal": PerSignal(Signal("01"), 2.5, "optimal"),
}


def assert_same_fields(a, b):
    """a and b hold equal fields; arrays equal in dtype and entries."""
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


@pytest.mark.parametrize("how", list(ROUND_TRIPS))
@pytest.mark.parametrize("name", list(VALUES))
def test_values_survive_pickle_and_copy(name, how):
    value = VALUES[name]
    back = ROUND_TRIPS[how](value)
    assert_same_fields(back, value)
    if name != "LqrWeights":  # which keeps object's repr, its address
        assert repr(back) == repr(value)
    if name in ("Signal", "SignalSet", "Edge", "PerSignal"):  # these compare by value
        assert back == value
    if name in ("Signal", "Edge", "PerSignal"):
        assert hash(back) == hash(value)
    if isinstance(value, SignalSet):
        assert not back.to_array().flags.writeable
        assert back.to_strings() == value.to_strings() and list(back) == list(value)
    if isinstance(value, Automaton):
        assert all(back.out_edges(n) == value.out_edges(n) for n in value.nodes)


@pytest.mark.parametrize("how", list(ROUND_TRIPS))
@pytest.mark.parametrize("name", list(VALUES))
def test_no_attribute_can_be_set(name, how):
    for value in (VALUES[name], ROUND_TRIPS[how](VALUES[name])):
        for attr in [f.name for f in dataclasses.fields(value)] + ["extra"]:
            with pytest.raises(AttributeError):
                setattr(value, attr, None)
            with pytest.raises(AttributeError):
                delattr(value, attr)


def test_signal_keeps_slots():
    s = Signal("0101")
    assert not hasattr(s, "__dict__")
    with pytest.raises(AttributeError):
        s.bits = (1, 1)


def test_signal_set_rows_stay_read_only():
    ss = SignalSet(["01", "10"])
    for rows in (ss.to_array(), copy.deepcopy(ss).to_array(), pickle.loads(pickle.dumps(ss)).to_array()):
        with pytest.raises(ValueError):
            rows[0, 0] = True


def test_automaton_keeps_its_tuple_edges():
    a = Automaton([1, 2], [(1, 2, "0"), Edge(2, 1, "1")], [1])
    assert a.edges == (Edge(1, 2, "0"), Edge(2, 1, "1"))
    assert a.nodes == frozenset({1, 2}) and a.start_nodes == frozenset({1})
    assert a.out_edges(1) == ((2, "0"),)


def test_study_result_survives_pickle_and_copy():
    res = run_study(StudyConfig(problem="III", k=1, n=3, m=2, samples=2, T=6, seed=5))
    assert res.reports and all(rep is not None for rep in res.reports)
    for how in ROUND_TRIPS.values():
        back = how(res)
        assert back == res
        for rep in back.reports:
            assert not rep.per_signal.values.flags.writeable
            assert not rep.per_signal.signals.to_array().flags.writeable
            with pytest.raises(AttributeError):
                rep.per_signal[0].value = 0.0
