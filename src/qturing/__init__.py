"""Deterministic simulator and analysis toolkit for a two-spin quantum
Turing network driven by Fibonacci-like rotation schedules.

The package is organized as a schedule generator (`schedule`), an exact
state-vector engine (`engine`), closed-form predictions cross-checking the
engine (`oracle`), paired-trajectory chaos diagnostics (`analysis`) and a
CSV/JSON command-line front end (`cli`).
"""

__version__ = "0.1.0"

from .analysis import (
    DistanceTrace,
    ExperimentConfig,
    Subsystem,
    TrajectoryRecord,
    distance_trace,
    lyapunov_estimate,
    stability_matrix_numeric,
    tape_stability_numeric,
)
from .engine import (
    BlochVector,
    Spin,
    TapeState,
    apply_head_rotation,
    apply_qcnot,
    bloch_vector,
    distance_sq,
    init_state,
    iterate,
    overlap_sq,
    pair_metrics,
    reduce_spin,
    run,
    spin_bloch,
)
from .oracle import (
    PrimitiveBranch,
    SuperpositionWeights,
    delta_c,
    head_bloch_primitive,
    head_bloch_superposed,
    periodic_orbit_check,
    perturbed_cumulative_periodic,
    stability_limits,
    tape_sigma3,
)
from .schedule import (
    LOG_GOLDEN_RATIO,
    AngleSequence,
    ScheduleConfig,
    ScheduleMode,
    fib,
    fib_mod,
    wrap_angle,
)

__all__ = [
    "AngleSequence",
    "BlochVector",
    "DistanceTrace",
    "ExperimentConfig",
    "LOG_GOLDEN_RATIO",
    "PrimitiveBranch",
    "ScheduleConfig",
    "ScheduleMode",
    "Spin",
    "Subsystem",
    "SuperpositionWeights",
    "TapeState",
    "TrajectoryRecord",
    "apply_head_rotation",
    "apply_qcnot",
    "bloch_vector",
    "delta_c",
    "distance_sq",
    "distance_trace",
    "fib",
    "fib_mod",
    "head_bloch_primitive",
    "head_bloch_superposed",
    "init_state",
    "iterate",
    "lyapunov_estimate",
    "overlap_sq",
    "pair_metrics",
    "periodic_orbit_check",
    "perturbed_cumulative_periodic",
    "reduce_spin",
    "run",
    "spin_bloch",
    "stability_limits",
    "stability_matrix_numeric",
    "tape_sigma3",
    "tape_stability_numeric",
    "wrap_angle",
    "__version__",
]
