"""Dropout-constraint automata, admissible languages and their minimal words.

An automaton is a directed graph whose edges carry nonempty bit strings.
A signal is admissible when some walk from a start node spells it out
exactly.  `minimal_admissible` generates the minimal admissible signals
of any automaton directly, by a subset construction over pairs of state
sets, without enumerating the language.  Two constructions are provided
for the "at most k consecutive dropouts" family: the counter automaton
generating the full admissible language, and the paper's compact
k+1-node automaton whose paths are exactly the minimal signals,
enumerated breadth-first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .signals import Signal, SignalSet

__all__ = [
    "Edge",
    "Automaton",
    "CapExceeded",
    "is_admissible",
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


class Automaton:
    """Directed graph with bit-string edge labels and designated start nodes."""

    __slots__ = ("nodes", "edges", "start_nodes", "_out")

    def __init__(self, nodes: Iterable[int], edges: Iterable[Edge | tuple], start_nodes: Iterable[int]):
        node_set = frozenset(int(n) for n in nodes)
        edge_list = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)
        start_set = frozenset(int(n) for n in start_nodes)
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

    def __setattr__(self, name, value):
        raise AttributeError("Automaton is immutable")

    def __repr__(self):
        return (
            f"Automaton(nodes={sorted(self.nodes)}, edges={len(self.edges)}, "
            f"start={sorted(self.start_nodes)})"
        )


def is_admissible(a: Automaton, s: Signal) -> bool:
    """True iff some walk from a start node spells the signal exactly."""
    word = str(s)
    T = len(word)
    seen = {(v, 0) for v in a.start_nodes}
    stack = list(seen)
    while stack:
        node, pos = stack.pop()
        if pos == T:
            return True
        for dst, label in a.out_edges(node):
            end = pos + len(label)
            if end <= T and word.startswith(label, pos):
                state = (dst, end)
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
    return False


def enumerate_admissible(a: Automaton, T: int, cap: int | None = None) -> SignalSet:
    """All admissible signals of length T; empty set if the language is empty.

    `cap` bounds the number of words: CapExceeded is raised as soon as the
    depth-first walk has found more than `cap`, so the guard against
    exponential languages costs work in proportion to `cap`, not to the
    language.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    # (node, emitted prefix) pairs; words complete at exactly length T
    seen: set[tuple[int, str]] = {(v, "") for v in a.start_nodes}
    stack = list(seen)
    out: set[str] = set()
    while stack:
        node, prefix = stack.pop()
        if len(prefix) == T:
            out.add(prefix)
            if cap is not None and len(out) > cap:
                raise CapExceeded(f"admissible set exceeds cap {cap}")
            continue
        for dst, label in a.out_edges(node):
            word = prefix + label
            if len(word) > T:
                continue
            state = (dst, word)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return SignalSet(Signal(w) for w in out)


def _minimal_words(a: Automaton, T: int) -> tuple[str, ...]:
    """The minimal admissible words of length T, in lexicographic order."""
    if T < 1:
        raise ValueError("T must be >= 1")
    # unit-step transitions; a label of several bits passes through
    # intermediate states (edge index, bits spelled), which never accept
    step: dict[tuple, set] = {}
    for i, e in enumerate(a.edges):
        src = e.src
        for j, bit in enumerate(e.label, 1):
            dst = e.dst if j == len(e.label) else (i, j)
            step.setdefault((src, bit), set()).add(dst)
            src = dst

    def move(states: frozenset, bit: str) -> frozenset:
        return frozenset(d for s in states for d in step.get((s, bit), ()))

    # Forward: the live pairs (E, L) after each number of bits, and each
    # pair's successors under 0 and under 1.  Below w0 lies what lies below
    # w, extended by 0; below w1, what lies below w extended by either bit,
    # and w0.  Once E is inside L, every completion of w also completes a
    # word below it, so the pair is dead and is cut.
    start = (frozenset(a.start_nodes), frozenset())
    levels = [{start}]
    succ: dict[tuple, tuple] = {}
    for _ in range(T):
        live = set()
        for E, L in levels[-1]:
            E0, L0 = move(E, "0"), move(L, "0")
            succ[E, L] = pairs = ((E0, L0), (move(E, "1"), L0 | move(L, "1") | E0))
            live.update(p for p in pairs if not p[0] <= p[1])
        levels.append(live)
    # Backward: the completions of every live pair of a level, once each,
    # 0 before 1, so that the words come out in lexicographic order.
    done = {(E, L): ("",) for E, L in levels.pop() if E & a.nodes and not L & a.nodes}
    for level in reversed(levels):
        done = {
            p: tuple(bit + w for bit, q in zip("01", succ[p]) for w in done.get(q, ()))
            for p in level
        }
    return done[start]


def minimal_admissible(a: Automaton, T: int) -> SignalSet:
    """Minimal admissible signals of length T, generated without the language.

    A subset construction over pairs (E, L): E is the set of states
    reached by spelling the prefix w, L the set reached by spelling some w'
    strictly below w in the support order.  A word is minimal when E holds
    a node and L none.  Labels of several bits are split into unit steps
    through intermediate states, which never accept.  The completions of
    each (E, L, remaining length) are computed once within the call and
    dead pairs are cut, so the work follows the size of the output; the
    walk is iterative, so T is not bounded by the recursion limit.
    Equals minimal_filter(enumerate_admissible(a, T)).
    """
    return SignalSet(Signal(w) for w in _minimal_words(a, T))


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

    Breadth-first enumeration of the compact automaton's language, whose
    words are exactly the minimal signals.  Equals minimal_filter over the
    full admissible language.
    """
    return enumerate_admissible(build_k_minimal_automaton(k), T)
