"""gridsplit: radial microgrid re-partitioning and restoration simulation.

Feeder zones bounded by sectionalizing switches are repeatedly regrouped into
radial, GFM-anchored microgrids by a small hand-rolled MILP; each microgrid
then runs a two-stage energy-management loop (half-hour scheduling, five-minute
dispatch) inside a rolling-horizon coordinator, and the results are compared
against the never-switch baseline.
"""

__version__ = "0.1.0"

from .coordinator import (
    FormationEvent,
    RestorationRun,
    Timeline,
    TopologyDiff,
    diff_topologies,
    formation_events,
    formation_inputs,
    run,
)
from .ems import (
    MicrogridState,
    PartitionOrder,
    ServiceOrder,
    build_schedule,
    dispatch_window,
    service_order,
)
from .formation import (
    DecodeError,
    FormationProblem,
    FormationSnapshot,
    FormationSolution,
    FormationWeights,
    InfeasibleTopology,
    build_milp,
    decode,
    fixed_topology_solution,
    served_in_full,
    warm_values_from_topology,
    with_event,
)
from .milp import (
    MilpModel,
    SolveReport,
    SolverError,
    SolveStatus,
    solve_lp,
    solve_milp,
)
from .netmodel import (
    GridFormingResource,
    LateralPolicy,
    SwitchEdge,
    ZoneGraph,
    ZoneNode,
    is_radial_forest,
    load_islands,
)
from .oracle import GuardExceeded, enumerate_optimal
from .report import (
    MetricsSummary,
    ScenarioMismatch,
    compare,
    summarize,
    write_outputs,
)
from .scenario import (
    FaultWindow,
    ParseError,
    Scenario,
    ValidationError,
    fixture_two_feeder,
    load_scenario,
    save_scenario,
)

__all__ = [
    "DecodeError",
    "FaultWindow",
    "FormationEvent",
    "FormationProblem",
    "FormationSnapshot",
    "FormationSolution",
    "FormationWeights",
    "GridFormingResource",
    "GuardExceeded",
    "InfeasibleTopology",
    "LateralPolicy",
    "MetricsSummary",
    "MicrogridState",
    "PartitionOrder",
    "MilpModel",
    "ParseError",
    "RestorationRun",
    "Scenario",
    "ScenarioMismatch",
    "ServiceOrder",
    "SolveReport",
    "SolveStatus",
    "SolverError",
    "SwitchEdge",
    "Timeline",
    "TopologyDiff",
    "ValidationError",
    "ZoneGraph",
    "ZoneNode",
    "build_milp",
    "build_schedule",
    "compare",
    "decode",
    "diff_topologies",
    "dispatch_window",
    "enumerate_optimal",
    "fixed_topology_solution",
    "fixture_two_feeder",
    "formation_events",
    "formation_inputs",
    "is_radial_forest",
    "load_islands",
    "load_scenario",
    "run",
    "save_scenario",
    "served_in_full",
    "service_order",
    "solve_lp",
    "solve_milp",
    "summarize",
    "warm_values_from_topology",
    "with_event",
    "write_outputs",
    "__version__",
]
