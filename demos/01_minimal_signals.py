"""Dropout signals, admissibility, and minimal-signal generation.

A lossy channel that never drops more than k packets in a row is modeled
by a small labeled graph.  The fixed-length words it generates are the
admissible dropout patterns, and the minimal ones (fewest transmissions,
in the support order) are the only candidates a worst-case search needs.
"""

import time

from dropctrl import (
    Signal,
    build_k_constraint_automaton,
    build_k_minimal_automaton,
    enumerate_admissible,
    minimal_admissible,
    minimal_signals_bfs,
)

k, T = 1, 4
auto = build_k_constraint_automaton(k)
language = enumerate_admissible(auto, T)
print(f"admissible words, k={k}, T={T}:")
print(" ", " ".join(language.to_strings()))

print("\nspot checks:")
for word in ("0110", "1001"):
    print(f"  {word} admissible? {Signal(word) in language}")

print(f"\nminimal words (pair construction): {' '.join(minimal_admissible(auto, T).to_strings())}")
print(f"minimal words (compact automaton): {' '.join(minimal_signals_bfs(k, T).to_strings())}")

# direct generators pay off as the horizon grows; the pair construction
# works on any automaton, the compact one only for the k family
compact = build_k_minimal_automaton(3)
print("\ncompact automaton for k=3:")
for e in compact.edges:
    print(f"  node {e.src} --{e.label}--> node {e.dst}")

for kk, TT in ((3, 14), (3, 20)):
    t0 = time.perf_counter()
    fast = minimal_signals_bfs(kk, TT)
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    pairs = minimal_admissible(build_k_constraint_automaton(kk), TT)
    t_pairs = time.perf_counter() - t0
    assert pairs == fast
    print(f"k={kk} T={TT}: {len(fast)} minimal words, bfs {t_fast*1e3:.2f} ms, "
          f"pair construction {t_pairs*1e3:.2f} ms")
