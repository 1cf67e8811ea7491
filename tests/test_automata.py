import itertools

import numpy as np
import pytest

from dropctrl import (
    Automaton,
    CapExceeded,
    Edge,
    Signal,
    SignalSet,
    build_k_constraint_automaton,
    build_k_minimal_automaton,
    enumerate_admissible,
    minimal_admissible,
    minimal_signals_bfs,
)
from dropctrl.automata import _minimal_table, _walk
from oracles import is_admissible, is_minimal_k, minimal_filter


def brute_force_language(k, T):
    """All length-T words with no run of k+1 zeros."""
    out = set()
    for bits in itertools.product((0, 1), repeat=T):
        word = "".join(map(str, bits))
        if "0" * (k + 1) not in word:
            out.add(word)
    return out


def test_automaton_validation():
    with pytest.raises(ValueError):
        Automaton([], [], [])
    with pytest.raises(ValueError):
        Automaton([1], [(1, 2, "0")], [1])  # undeclared node 2
    with pytest.raises(ValueError):
        Automaton([1], [(1, 1, "2")], [1])  # bad label
    with pytest.raises(ValueError):
        Automaton([1], [(1, 1, "")], [1])  # empty label
    with pytest.raises(ValueError):
        Automaton([1, 2], [(1, 2, "0")], [])  # no start nodes
    with pytest.raises(ValueError):
        Automaton([1], [(1, 1, "1")], [2])  # start not declared


def test_is_admissible_worked_examples():
    a = build_k_constraint_automaton(1)
    assert is_admissible(a, Signal("0110"))
    assert not is_admissible(a, Signal("1001"))
    loop = Automaton([1], [(1, 1, "1")], [1])
    assert is_admissible(loop, Signal("11111"))
    assert not is_admissible(loop, Signal("10"))


def test_is_admissible_multibit_labels():
    a = Automaton([1, 2], [(1, 2, "10"), (2, 1, "1")], [1])
    assert is_admissible(a, Signal("10"))
    assert is_admissible(a, Signal("101"))
    assert is_admissible(a, Signal("10110"))
    assert not is_admissible(a, Signal("1"))  # mid-label stop is not a walk
    assert not is_admissible(a, Signal("11"))


def test_enumerate_k1_T4_language():
    got = enumerate_admissible(build_k_constraint_automaton(1), 4)
    # defining property: exactly the words without two consecutive zeros
    assert set(got.to_strings()) == brute_force_language(1, 4)
    assert len(got) == 8
    # these six words are admissible too; the language adds 1101 and 1110
    assert {"1111", "1010", "0101", "0110", "0111", "1011"} <= set(got.to_strings())


def test_enumerate_single_loop():
    a = Automaton([1], [(1, 1, "1")], [1])
    assert enumerate_admissible(a, 3).to_strings() == ("111",)


def test_enumerate_k2_T3():
    got = enumerate_admissible(build_k_constraint_automaton(2), 3)
    expected = brute_force_language(2, 3)
    assert set(got.to_strings()) == expected
    assert len(got) == 7  # every length-3 word except 000


def test_enumerate_k3_T4_size():
    got = enumerate_admissible(build_k_constraint_automaton(3), 4)
    assert len(got) == 15  # only 0000 excluded


def test_enumerate_language_matches_brute_force():
    for k in (1, 2, 3):
        for T in range(1, 9):
            got = set(enumerate_admissible(build_k_constraint_automaton(k), T).to_strings())
            assert got == brute_force_language(k, T), (k, T)


def test_enumerate_dead_automaton_empty():
    a = Automaton([1, 2], [(1, 2, "0")], [1])
    assert len(enumerate_admissible(a, 3)) == 0


def test_enumerate_cap():
    with pytest.raises(CapExceeded):
        enumerate_admissible(build_k_constraint_automaton(2), 12, cap=10)


@pytest.mark.parametrize("k,T", [(1, 4), (1, 12), (2, 9), (3, 7)])
def test_enumerate_cap_is_the_size_of_the_language(k, T):
    a = build_k_constraint_automaton(k)
    language = enumerate_admissible(a, T)
    assert enumerate_admissible(a, T, cap=len(language)) == language
    with pytest.raises(CapExceeded):
        enumerate_admissible(a, T, cap=len(language) - 1)


def test_enumerate_cap_far_past_the_language():
    # 1.4e17 words; the walk stops at the first level of more than 1,000 prefixes
    with pytest.raises(CapExceeded):
        enumerate_admissible(build_k_constraint_automaton(3), 60, cap=1000)


def test_words_past_63_bits():
    # the language at T=70 is 1^70 and the 70 words with a single 0, which
    # lie below 1^70 and not below one another
    a = Automaton([1, 2], [(1, 1, "1"), (1, 2, "0"), (2, 2, "1")], [1])
    T = 70
    single_zero = ["1" * i + "0" + "1" * (T - 1 - i) for i in range(T)]
    assert minimal_admissible(a, T).to_strings() == tuple(sorted(single_zero))
    language = enumerate_admissible(a, T)
    assert language.to_strings() == tuple(sorted(single_zero + ["1" * T]))
    assert language.to_array().shape == (T + 1, T)


@pytest.mark.parametrize("T", [63, 64, 65, 70])
def test_filter_across_the_64_bit_word_boundary(T):
    # the filter packs each row into ceil(T / 64) words; a single 0 past
    # bit 63 must still tell two rows apart
    a = Automaton([1, 2], [(1, 1, "1"), (1, 2, "0"), (2, 2, "1")], [1])
    assert minimal_filter(enumerate_admissible(a, T)) == minimal_admissible(a, T)


def test_enumerate_members_are_admissible():
    a = build_k_constraint_automaton(2)
    for s in enumerate_admissible(a, 6):
        assert is_admissible(a, s)


def test_minimal_automaton_k1_structure():
    a = build_k_minimal_automaton(1)
    assert sorted(a.nodes) == [1, 2]
    assert a.start_nodes == {1}
    assert set(a.out_edges(1)) == {(2, "0"), (2, "10")}
    assert set(a.out_edges(2)) == {(1, "1")}


def test_minimal_automaton_k2_last_node_forbids_zero():
    a = build_k_minimal_automaton(2)
    assert sorted(a.nodes) == [1, 2, 3]
    assert a.out_edges(3) == ((1, "1"),)
    assert set(a.out_edges(1)) == {(2, "0"), (3, "100")}
    assert set(a.out_edges(2)) == {(3, "0"), (2, "10")}


def test_minimal_automaton_cycles_contain_a_one():
    # all-zero labels only move down the chain i -> i+1, so no cycle of
    # zero-only labels exists
    for k in range(1, 5):
        a = build_k_minimal_automaton(k)
        for e in a.edges:
            if "1" not in e.label:
                assert e.dst == e.src + 1


def test_bfs_worked_examples():
    assert minimal_signals_bfs(1, 4).to_strings() == ("0101", "0110", "1010")
    assert minimal_signals_bfs(1, 1).to_strings() == ("0",)
    assert set(minimal_signals_bfs(1, 5).to_strings()) == {
        "01010", "10101", "01101", "10110",
    }


def test_bfs_outputs_admissible_for_constraint():
    for k in (1, 2, 3):
        a = build_k_constraint_automaton(k)
        for T in (1, 3, 6, 9):
            for s in minimal_signals_bfs(k, T):
                assert is_admissible(a, s)


def test_bfs_equals_filter_and_surround_rule():
    for k in (1, 2, 3):
        for T in range(1, 11):
            bfs = minimal_signals_bfs(k, T)
            filt = minimal_filter(enumerate_admissible(build_k_constraint_automaton(k), T))
            assert bfs == filt, (k, T)
            by_surround = SignalSet(
                Signal(w) for w in brute_force_language(k, T) if is_minimal_k(Signal(w), k)
            )
            assert by_surround == bfs, (k, T)


def test_compact_automaton_language_is_the_minimal_set():
    # the bfs is exactly path enumeration on the compact automaton, so its
    # fixed-length language must agree with the generic enumerator
    for k in (1, 2, 3):
        a = build_k_minimal_automaton(k)
        for T in (1, 2, 4, 7, 10):
            assert enumerate_admissible(a, T) == minimal_signals_bfs(k, T)


def test_flipping_characterization():
    # an admissible word is non-minimal iff flipping some nonempty subset
    # of its 1s to 0 stays admissible; exhaustive for k=1 at T=12
    k, T = 1, 12
    language = brute_force_language(k, T)
    minimal = set(minimal_signals_bfs(k, T).to_strings())
    for word in language:
        ones = [i for i, ch in enumerate(word) if ch == "1"]
        flippable = False
        for r in range(1, len(ones) + 1):
            for subset in itertools.combinations(ones, r):
                flipped = list(word)
                for i in subset:
                    flipped[i] = "0"
                if "".join(flipped) in language:
                    flippable = True
                    break
            if flippable:
                break
        assert flippable == (word not in minimal), word


def random_automaton(rng, nodes=4, edges=7):
    labels = ["".join(rng.choice(["0", "1"], size=rng.integers(1, 4))) for _ in range(edges)]
    edge_list = [
        Edge(int(rng.integers(nodes)), int(rng.integers(nodes)), label) for label in labels
    ]
    starts = rng.choice(nodes, size=rng.integers(1, nodes + 1), replace=False)
    return Automaton(range(nodes), edge_list, starts.tolist())


def test_minimal_admissible_equals_filter_on_random_automata():
    rng = np.random.default_rng(7)
    multibit = several_starts = empty = 0
    for _ in range(300):
        a = random_automaton(rng)
        multibit += any(len(e.label) > 1 for e in a.edges)
        several_starts += len(a.start_nodes) > 1
        for T in (1, 3, 6, 9):
            expected = minimal_filter(enumerate_admissible(a, T))
            assert minimal_admissible(a, T) == expected, (a.edges, a.start_nodes, T)
            empty += len(expected) == 0
    # the 1,200 cases cover every shape the pair construction special-cases
    assert multibit > 200 and several_starts > 200 and empty > 50


def test_generators_equal_brute_force_on_random_automata():
    # the oracle shares no code with the walk: every word of {0,1}^T that
    # is_admissible accepts, then minimal_filter
    rng = np.random.default_rng(7)
    for _ in range(300):
        a = random_automaton(rng)
        for T in (1, 3, 6, 9):
            words = ("".join(bits) for bits in itertools.product("01", repeat=T))
            language = sorted(w for w in words if is_admissible(a, Signal(w)))
            assert enumerate_admissible(a, T).to_strings() == tuple(language), (a.edges, T)
            expected = minimal_filter(SignalSet(language))
            assert minimal_admissible(a, T).to_strings() == expected.to_strings(), (a.edges, T)


def test_minimal_admissible_handcrafted():
    # labels of several bits: "000" lies below "100", so only "000" is minimal
    a = Automaton([1, 2], [(1, 2, "100"), (1, 2, "000"), (2, 1, "1")], [1])
    assert minimal_admissible(a, 3).to_strings() == ("000",)
    assert minimal_admissible(a, 4).to_strings() == ("0001",)
    # words spelled only through an intermediate state are not admissible
    b = Automaton([1, 2], [(1, 2, "01")], [1])
    assert len(minimal_admissible(b, 1)) == 0
    assert minimal_admissible(b, 2).to_strings() == ("01",)
    # a single start node with an empty language
    c = Automaton([1], [(1, 1, "10")], [1])
    assert len(minimal_admissible(c, 3)) == 0


def test_minimal_admissible_is_generated_in_lexicographic_order():
    # the walk's raw rows, before any SignalSet: the order is the walk's own
    def walk(a, T):
        return [tuple(row) for row in _walk(*_minimal_table(a, T), T).tolist()]

    for k, T in ((1, 12), (2, 16), (3, 14)):
        words = walk(build_k_constraint_automaton(k), T)
        assert words and words == sorted(set(words)), (k, T)
    rng = np.random.default_rng(11)
    for _ in range(50):
        words = walk(random_automaton(rng), 8)
        assert words == sorted(set(words))


def test_minimal_admissible_long_horizon():
    # one word of 3,000 bits: the horizon is not bounded by recursion depth
    ones = Automaton([1], [(1, 1, "1")], [1])
    assert minimal_admissible(ones, 3000).to_strings() == ("1" * 3000,)


@pytest.mark.parametrize("k,T", [(1, 20), (1, 30), (2, 24), (3, 28)])
def test_minimal_admissible_equals_bfs_at_large_shapes(k, T):
    assert minimal_admissible(build_k_constraint_automaton(k), T) == minimal_signals_bfs(k, T)


def test_bad_parameters():
    with pytest.raises(ValueError):
        build_k_constraint_automaton(0)
    with pytest.raises(ValueError):
        build_k_minimal_automaton(0)
    with pytest.raises(ValueError):
        minimal_signals_bfs(1, 0)
    with pytest.raises(ValueError):
        enumerate_admissible(build_k_constraint_automaton(1), 0)
    with pytest.raises(ValueError, match="T must be >= 1"):
        minimal_admissible(build_k_constraint_automaton(1), 0)


def test_edge_validation():
    with pytest.raises(ValueError):
        Edge(1, 2, "a")
