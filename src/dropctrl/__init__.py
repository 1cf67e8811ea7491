"""Worst-case performance of optimal control and estimation under
automaton-constrained packet dropouts.

The admissible dropout patterns of a lossy channel form the fixed-length
language of a labeled directed graph.  Performance measures that only
improve when more packets arrive attain their worst case on the minimal
signals of the support partial order, which this package enumerates
directly; per-signal subproblems (rank tests, linear programs, least-norm
designs, Riccati recursions) then price the degradation.
"""

from .automata import (
    Automaton,
    CapExceeded,
    Edge,
    build_k_constraint_automaton,
    build_k_minimal_automaton,
    enumerate_admissible,
    minimal_admissible,
    minimal_signals_bfs,
)
from .lqr import (
    LqrWeights,
    degraded_cost,
    lti_gains,
    riccati_backward,
)
from .signals import Signal, SignalSet
from .solvers import (
    INFEASIBLE,
    MAX_ITERATIONS,
    OPTIMAL,
    SolveResult,
    min_energy,
    min_fuel,
    min_fuel_energy,
    min_inf_norm,
    peak_within,
)
from .study import (
    GENERATION_METHODS,
    GENERATOR_NAME,
    SampleRow,
    StudyConfig,
    StudyResult,
    random_system,
    rpd,
    run_study,
)
from .systems import (
    SwitchedLinearSystem,
    controllability_matrix,
    first_full_rank_time,
    numerical_rank,
    observability_matrix,
)
from .worstcase import (
    DEFAULT_EXHAUSTIVE_CAP,
    EXHAUSTIVE,
    MINIMAL,
    PerSignal,
    Polytope,
    WorstCaseReport,
    candidate_signals,
    polytope_reachable,
    worst_control_time,
    worst_energy,
    worst_estimation_time,
    worst_fixed_input_lqr,
    worst_fuel,
    worst_fuel_energy,
    worst_lqr,
)

__version__ = "0.1.0"
