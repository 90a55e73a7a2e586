"""tiercast: joint user-cell association and enhanced-view resource allocation
for two-tier 360 video delivery over dense small-cell networks."""

from .channel import (
    ChannelParams,
    build_rb_tables,
)
from .problem import (
    FeasibilityReport,
    Instance,
    Solution,
    is_feasible,
    objective,
    rb_usage,
)
from .scenario import (
    Topology,
    build_instance,
    generate_demands,
    generate_topology,
    place_caches,
)
from .solvers import (
    SolverReport,
    compute_nbar,
    solve_bb,
    solve_bruteforce,
    solve_cell_subproblem,
    solve_elva,
    solve_eva,
    solve_sinr,
)
from .metrics import jain_index, resource_utilization, summarize

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "build_rb_tables",
    "FeasibilityReport",
    "Instance",
    "Solution",
    "is_feasible",
    "objective",
    "rb_usage",
    "Topology",
    "build_instance",
    "generate_demands",
    "generate_topology",
    "place_caches",
    "SolverReport",
    "compute_nbar",
    "solve_bb",
    "solve_bruteforce",
    "solve_cell_subproblem",
    "solve_elva",
    "solve_eva",
    "solve_sinr",
    "jain_index",
    "resource_utilization",
    "summarize",
]
