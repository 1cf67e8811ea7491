import importlib
import pkgutil

import dropctrl

# names that left the package: the oracles moved to tests/oracles.py, the
# rest were dropped
REMOVED = {
    "automata": ["is_admissible"],
    "signals": ["dominates", "minimal_filter", "is_minimal_k"],
    "systems": ["simulate", "Trajectory", "reachability_gramian", "Gramian"],
    "lqr": ["lqr_cost"],
    "serialize": ["matrix_to_dict", "matrix_to_csv", "save_matrix", "load_matrix",
                  "automaton_to_dict", "save_automaton"],
}


def test_all_entries_exist_and_removed_names_are_gone():
    # the benchmark's tracer wraps every __all__ entry with getattr, so a
    # stale entry breaks the traced run
    for _, module, _ in pkgutil.iter_modules(dropctrl.__path__):
        if module == "__main__":
            continue
        mod = importlib.import_module(f"dropctrl.{module}")
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert missing == [], module
        for name in REMOVED.get(module, ()):
            assert not hasattr(mod, name), (module, name)
            assert not hasattr(dropctrl, name), name
    assert not hasattr(dropctrl.Signal, "support")
