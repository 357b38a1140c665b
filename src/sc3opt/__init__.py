"""Joint communication and computing resource allocation for multiple
sensing-computing-communication-control loops served by an edge hub."""

from .baselines import (
    communication_oriented,
    evaluate_allocation,
    power_only_closed_loop,
    water_filling,
)
from .channel import (
    LinkParams,
    channel_gain,
    entropy_per_cycle,
    power_for_entropy,
    spectral_efficiency,
)
from .compute import (
    ComputeParams,
    RegionLabel,
    SplitPlan,
    brute_force_min_time,
    classify_region,
    component_times,
    min_compute_time,
    min_compute_time_batch,
    min_compute_time_grad,
    optimal_split,
    realized_latency,
    region_partials,
    region_time,
)
from .control import (
    EntropyParams,
    LoopControlSpec,
    build_entropy_params,
    intrinsic_entropy,
    lqr_from_entropy,
    min_entropy,
    riccati_diagonal,
)
from .errors import (
    BadConfig,
    BadOverride,
    CostBelowFloor,
    Infeasible,
    InfeasibleSubproblem,
    NoConvergence,
    NoFeasibleFlow,
    Sc3Error,
    SingularStateMatrix,
    UnsupportedStructure,
    Unstabilizable,
    ZeroResourceForPositiveData,
)
from .oracle import McResult, ProbeReport, convexity_probe, grid_search_global, monte_carlo_loop
from .solver import (
    Allocation,
    AllocationReport,
    Budgets,
    IterationRecord,
    Loop,
    LoopAllocation,
    Scenario,
    SolveTrace,
    SolverConfig,
    check_allocation,
    closed_form_lqr,
    make_anchors,
    sca_solve,
    solve_inner,
)
from .cli import SweepSpec, generate_scenario, run_sweep

__all__ = [name for name in dir() if not name.startswith("_")]
