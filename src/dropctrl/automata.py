"""Dropout-constraint automata, admissible languages and their minimal words.

An automaton is a directed graph whose edges carry nonempty bit strings.
A signal is admissible when some walk from a start node spells it out
exactly.  Both generators determinize the automaton by Rabin and Scott's
subset construction, breadth-first to the horizon T only, and walk the
words of length T out of the table level by level as bit arrays:
`enumerate_admissible` over the state sets reached by a prefix, and
`minimal_admissible` over pairs of state sets, which gives the minimal
admissible signals of any automaton without enumerating the language.
The words come out distinct and in lexicographic order, with no sort.
Two constructions are provided for the "at most k consecutive dropouts"
family: the counter automaton generating the full admissible language,
and the paper's compact k+1-node automaton whose paths are exactly the
minimal signals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable

import numpy as np

from .signals import SignalSet

__all__ = [
    "Edge",
    "Automaton",
    "CapExceeded",
    "enumerate_admissible",
    "minimal_admissible",
    "build_k_constraint_automaton",
    "build_k_minimal_automaton",
    "minimal_signals_bfs",
]


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    label: str

    def __post_init__(self):
        if not self.label or any(c not in "01" for c in self.label):
            raise ValueError(f"edge label must be a nonempty bit string, got {self.label!r}")


class CapExceeded(RuntimeError):
    """Raised when enumeration would exceed the configured set-size cap."""


@dataclass(frozen=True, eq=False)
class Automaton:
    """Directed graph with bit-string edge labels and designated start nodes.

    Edges may be given as Edge objects or as (src, dst, label) tuples.
    """

    nodes: frozenset[int]
    edges: tuple[Edge, ...]
    start_nodes: frozenset[int]
    _out: dict = field(init=False)

    def __post_init__(self):
        node_set = frozenset(int(n) for n in self.nodes)
        edge_list = tuple(e if isinstance(e, Edge) else Edge(*e) for e in self.edges)
        start_set = frozenset(int(n) for n in self.start_nodes)
        if not node_set:
            raise ValueError("automaton needs at least one node")
        if not start_set:
            raise ValueError("start_nodes must be nonempty")
        if not start_set <= node_set:
            raise ValueError(f"start nodes {sorted(start_set - node_set)} are not declared nodes")
        for e in edge_list:
            if e.src not in node_set or e.dst not in node_set:
                raise ValueError(f"edge {e} references undeclared node")
        out: dict[int, list[tuple[int, str]]] = {n: [] for n in node_set}
        for e in edge_list:
            out[e.src].append((e.dst, e.label))
        object.__setattr__(self, "nodes", node_set)
        object.__setattr__(self, "edges", edge_list)
        object.__setattr__(self, "start_nodes", start_set)
        object.__setattr__(self, "_out", {n: tuple(v) for n, v in out.items()})

    def out_edges(self, node: int) -> tuple[tuple[int, str], ...]:
        return self._out[node]

    def __repr__(self):
        return (
            f"Automaton(nodes={sorted(self.nodes)}, edges={len(self.edges)}, "
            f"start={sorted(self.start_nodes)})"
        )


def _unit_steps(a: Automaton) -> Callable[[frozenset, str], frozenset]:
    """The automaton's one-bit moves, as move(states, bit) -> states.

    A label of several bits passes through intermediate states (edge
    index, bits spelled), which never accept.
    """
    step: dict[tuple, set] = {}
    for i, e in enumerate(a.edges):
        src = e.src
        for j, bit in enumerate(e.label, 1):
            dst = e.dst if j == len(e.label) else (i, j)
            step.setdefault((src, bit), set()).add(dst)
            src = dst

    def move(states: frozenset, bit: str) -> frozenset:
        return frozenset(d for s in states for d in step.get((s, bit), ()))

    return move


def _table(
    start: Hashable,
    successors: Callable[[Hashable], tuple],
    accepts: Callable[[Hashable], bool],
    T: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic transition table of the states reached within T bits.

    `successors(p)` gives p's successors under 0 and under 1, None for a
    dead one.  Row i of the (S, 2) table holds state i's successors by
    index; state 0 is the dead sink and state 1 the start.  The table is
    built breadth-first, and a state first reached after T bits keeps the
    sink's row, which the walk never reads.  Also returns the (S,) bool
    acceptance vector.
    """
    found = [None, start]
    index = {start: 1}
    rows = [(0, 0)]
    for _ in range(T):
        level = found[len(rows):]  # the states first reached at this depth
        if not level:
            break
        for p in level:
            row = []
            for q in successors(p):
                i = 0 if q is None else index.get(q)
                if i is None:
                    i = index[q] = len(found)
                    found.append(q)
                row.append(i)
            rows.append(row)
    rows += [(0, 0)] * (len(found) - len(rows))
    accept = np.array([False] + [accepts(q) for q in found[1:]])
    return np.array(rows, dtype=np.intp), accept


def _walk(table: np.ndarray, accept: np.ndarray, T: int, cap: int | None = None) -> np.ndarray:
    """The accepted words of length T, as rows of an (N, T) bool array.

    First marks, for each remaining length r, the states that accept after
    exactly r more bits; then expands the frontier from the start one level
    at a time, each parent's 0-child before its 1-child, keeping only
    children that can still finish.  The rows are therefore distinct and in
    lexicographic order, and every frontier prefix ends in a word, so a
    frontier larger than `cap` means more than `cap` words (CapExceeded).
    Each level keeps only its picks, (parent << 1) | bit, which spell the
    words backwards at the end.
    """
    live = np.empty((T + 1, len(table)), dtype=bool)
    live[0] = accept
    for r in range(1, T + 1):
        live[r] = live[r - 1][table].any(axis=1)
    states = np.array([1] if live[T, 1] else [], dtype=np.intp)
    picks = []
    for r in range(T - 1, -1, -1):
        children = table[states]
        pick = np.flatnonzero(live[r][children])
        if cap is not None and len(pick) > cap:
            raise CapExceeded(f"admissible set exceeds cap {cap}")
        states = children.ravel()[pick]
        picks.append(pick)
    words = np.empty((len(states), T), dtype=bool)
    rows = np.arange(len(states))
    for t in range(T - 1, -1, -1):
        pick = picks[t][rows]
        words[:, t] = pick & 1
        rows = pick >> 1
    return words


def _language_table(a: Automaton, T: int) -> tuple[np.ndarray, np.ndarray]:
    """The automaton determinized over the state sets E reached by a prefix.

    E is dead when empty and accepts when it holds a node.
    """
    move = _unit_steps(a)
    return _table(
        frozenset(a.start_nodes),
        lambda E: (move(E, "0") or None, move(E, "1") or None),
        lambda E: bool(E & a.nodes),
        T,
    )


def enumerate_admissible(a: Automaton, T: int, cap: int | None = None) -> SignalSet:
    """All admissible signals of length T; empty set if the language is empty.

    The automaton is determinized over the state sets reached by a prefix
    and the words are walked out of that table level by level as bit
    arrays, in lexicographic order.  `cap` bounds the number of words:
    every prefix the walk keeps ends in a word, so CapExceeded is raised as
    soon as one level holds more than `cap` prefixes, and the guard against
    exponential languages costs work in proportion to `cap`, not to the
    language.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    return SignalSet._from_array(_walk(*_language_table(a, T), T, cap))


def _minimal_table(a: Automaton, T: int) -> tuple[np.ndarray, np.ndarray]:
    """The automaton determinized over pairs (E, L); see minimal_admissible."""
    move = _unit_steps(a)

    def successors(p: tuple[frozenset, frozenset]) -> tuple:
        # Below w0 lies what lies below w, extended by 0; below w1, what
        # lies below w extended by either bit, and w0.  Once E is inside L,
        # every completion of w also completes a word below it, so the pair
        # is dead.
        E, L = p
        E0, L0 = move(E, "0"), move(L, "0")
        pairs = ((E0, L0), (move(E, "1"), L0 | move(L, "1") | E0))
        return tuple(None if E <= L else (E, L) for E, L in pairs)

    return _table(
        (frozenset(a.start_nodes), frozenset()),
        successors,
        lambda p: bool(p[0] & a.nodes) and not p[1] & a.nodes,
        T,
    )


def minimal_admissible(a: Automaton, T: int) -> SignalSet:
    """Minimal admissible signals of length T, generated without the language.

    A subset construction over pairs (E, L): E is the set of states
    reached by spelling the prefix w, L the set reached by spelling some w'
    strictly below w in the support order.  A word is minimal when E holds
    a node and L none.  Labels of several bits are split into unit steps
    through intermediate states, which never accept.  The pairs reachable
    within T bits form a deterministic table in which dead pairs (E inside
    L) are cut, and the words are walked out of it level by level as bit
    arrays, in lexicographic order, so the work follows the size of the
    output and T is not bounded by the recursion limit.
    Equals the dominance filter over enumerate_admissible(a, T), the
    tests' oracle in tests/oracles.py.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    return SignalSet._from_array(_walk(*_minimal_table(a, T), T))


def build_k_constraint_automaton(k: int) -> Automaton:
    """Counter automaton for "no more than k consecutive dropouts".

    Node i (1-based) means i-1 consecutive zeros have just occurred.  Every
    node is a start node, so admissible words may open with up to k zeros.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    nodes = range(1, k + 2)
    edges = []
    for i in range(1, k + 2):
        edges.append(Edge(i, 1, "1"))
        if i <= k:
            edges.append(Edge(i, i + 1, "0"))
    return Automaton(nodes, edges, nodes)


def build_k_minimal_automaton(k: int) -> Automaton:
    """Compact automaton whose paths from node 1 are the minimal signals.

    Node i carries i-1 recent zeros.  A 1 emitted at node i is padded with
    k+1-i zeros so that every 1 ends up surrounded by at least k zeros;
    node k+1 allows only a bare 1 back to node 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    nodes = range(1, k + 2)
    edges = []
    for i in range(1, k + 1):
        edges.append(Edge(i, i + 1, "0"))
        edges.append(Edge(i, k + 2 - i, "1" + "0" * (k + 1 - i)))
    edges.append(Edge(k + 1, 1, "1"))
    return Automaton(nodes, edges, [1])


def minimal_signals_bfs(k: int, T: int) -> SignalSet:
    """Minimal signals of length T for at most k consecutive dropouts.

    The language of the compact automaton, whose words are exactly the
    minimal signals, generated by enumerate_admissible's level walk.
    Equals the dominance filter over the full admissible language, the
    tests' oracle in tests/oracles.py, and minimal_admissible of the
    counter automaton, which the analyses use instead.
    """
    return enumerate_admissible(build_k_minimal_automaton(k), T)
