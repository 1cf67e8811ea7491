import itertools

import numpy as np
import pytest

from dropctrl import Signal, SignalSet
from oracles import dominates, is_minimal_k, minimal_filter


def all_signals(T):
    return [Signal(bits) for bits in itertools.product((0, 1), repeat=T)]


def test_signal_construction_and_str():
    s = Signal("0110")
    assert s.bits == (0, 1, 1, 0)
    assert str(s) == "0110"
    assert len(s) == 4
    assert s.count_ones() == 2
    assert Signal([1, 0]) == Signal("10")


def test_signal_string_is_kept_from_construction():
    for bits in ("0110", (0, 1, 1, 0), [False, True, True, False], np.array([0, 1, 1, 0])):
        s = Signal(bits)
        assert str(s) == "0110" and repr(s) == "Signal('0110')"
        assert str(s) is str(s)
    with pytest.raises(AttributeError):
        Signal("01")._text = "10"


def test_signal_rejects_bad_input():
    with pytest.raises(ValueError):
        Signal("")
    with pytest.raises(ValueError):
        Signal("012")
    with pytest.raises(ValueError):
        Signal("1x0")
    with pytest.raises(ValueError):
        Signal([])
    with pytest.raises(ValueError):
        Signal([2, 0])


def test_signal_immutable_and_hashable():
    s = Signal("01")
    with pytest.raises(AttributeError):
        s.bits = (1, 1)
    assert len({Signal("01"), Signal("01"), Signal("10")}) == 2


def test_signalset_dedups_and_sorts():
    ss = SignalSet([Signal("10"), Signal("01"), Signal("10")])
    assert ss.to_strings() == ("01", "10")
    assert np.array_equal(ss.to_array(), [[False, True], [True, False]])
    assert ss.to_array().dtype == bool
    assert SignalSet([]).to_array().shape == (0, 0)
    assert Signal("01") in ss
    assert "10" in ss
    assert ss.length == 2


def test_signalset_from_trusted_array():
    strings = ["0011", "0101", "0110", "1001", "1111"]
    bits = np.array([[c == "1" for c in w] for w in strings])
    ss = SignalSet._from_array(bits)
    assert ss == SignalSet(strings)
    assert ss.to_strings() == tuple(strings)
    assert all(isinstance(s, Signal) for s in ss)
    assert ss.length == 4
    kept = ss.to_array()
    assert np.array_equal(kept, bits) and np.shares_memory(kept, bits)
    assert not kept.flags.writeable  # the set's rows cannot be changed through it
    assert "0110" in ss and Signal("1111") in ss
    assert "0111" not in ss
    empty = SignalSet._from_array(np.zeros((0, 4), dtype=bool))
    assert len(empty) == 0 and empty == SignalSet([])
    assert empty.to_array().shape == (0, 4)


def test_signalset_is_its_read_only_array():
    ss = SignalSet(["10", Signal("01"), (1, 1)])
    kept = ss.to_array()
    assert kept is ss.to_array()
    assert not kept.flags.writeable
    with pytest.raises(ValueError):
        kept[0, 0] = True
    trusted = SignalSet._from_array(np.array(kept))
    assert trusted == ss
    assert list(trusted) == list(ss) == [Signal("01"), Signal("10"), Signal("11")]
    assert trusted.signals == ss.signals
    assert SignalSet._from_array(np.zeros((0, 3), dtype=bool)) == SignalSet._from_array(np.zeros((0, 5), dtype=bool))


def test_signalset_rejects_mixed_lengths():
    with pytest.raises(ValueError):
        SignalSet([Signal("10"), Signal("100")])


def test_dominates_examples():
    assert dominates(Signal("0101"), Signal("0111"))
    s = Signal("0110")
    assert dominates(s, s)
    assert not dominates(Signal("0110"), Signal("0101"))
    with pytest.raises(ValueError):
        dominates(Signal("01"), Signal("011"))


def test_partial_order_laws_exhaustive_pairs():
    # reflexivity and antisymmetry over every pair at T = 10 via bit masks
    T = 10
    codes = np.arange(2**T, dtype=np.uint64)
    assert np.all((codes & ~codes) == 0)  # a <= a for all a
    A = codes[:, None]
    B = codes[None, :]
    both = ((A & ~B) == 0) & ((B & ~A) == 0)
    assert np.array_equal(np.nonzero(both)[0], np.nonzero(both)[1])


def test_partial_order_transitive():
    # exhaustive triples at T = 5, sampled triples at T = 10
    for T, triples in ((5, None), (10, 20000)):
        codes = list(range(2**T))
        rng = np.random.default_rng(0)
        if triples is None:
            iterator = itertools.product(codes, repeat=3)
        else:
            iterator = (tuple(rng.integers(0, 2**T, size=3)) for _ in range(triples))
        for a, b, c in iterator:
            if (a & ~b) == 0 and (b & ~c) == 0:
                assert (a & ~c) == 0


def test_minimal_filter_worked_example():
    # the k=1, T=4 language: 1101 dominates 0101, 1110 dominates 0110 and 1010
    admissible = SignalSet(
        Signal(s)
        for s in ["0101", "0110", "0111", "1010", "1011", "1101", "1110", "1111"]
    )
    assert minimal_filter(admissible).to_strings() == ("0101", "0110", "1010")


def test_minimal_filter_singleton():
    ss = SignalSet([Signal("111")])
    assert minimal_filter(ss) == ss


def test_minimal_filter_k1_T5_brute_force():
    # oracle: all 13 length-5 words without "00", pairwise dominance filter
    admissible = [s for s in all_signals(5) if "00" not in str(s)]
    assert len(admissible) == 13
    expected = {
        str(s)
        for s in admissible
        if not any(t != s and dominates(t, s) for t in admissible)
    }
    assert expected == {"01010", "10101", "01101", "10110"}
    got = minimal_filter(SignalSet(admissible))
    assert set(got.to_strings()) == expected


def test_minimal_filter_matches_pairwise_definition_randomized():
    rng = np.random.default_rng(42)
    for _ in range(20):
        T = int(rng.integers(2, 9))
        pool = all_signals(T)
        take = rng.random(len(pool)) < 0.4
        subset = [s for s, keep in zip(pool, take) if keep]
        if not subset:
            continue
        ss = SignalSet(subset)
        expected = {
            str(s)
            for s in subset
            if not any(t != s and dominates(t, s) for t in subset)
        }
        assert set(minimal_filter(ss).to_strings()) == expected


def test_is_minimal_k_examples():
    assert is_minimal_k(Signal("0110"), 1)
    assert not is_minimal_k(Signal("1011"), 1)  # trailing 1 has p = q = 0
    assert not is_minimal_k(Signal("1111"), 1)
    assert not is_minimal_k(Signal("000"), 2)  # inadmissible run
    assert is_minimal_k(Signal("0010"), 2)
    assert is_minimal_k(Signal("1001"), 2)
    assert not is_minimal_k(Signal("0101"), 2)
