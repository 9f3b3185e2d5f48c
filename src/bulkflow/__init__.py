"""Online multicommodity buy-at-bulk network design toolkit."""

from .errors import BudgetExceeded, InstanceError, StepLimitExceeded
from .flows import (FlowNetwork, FlowResult, InfeasibleFlow, max_delta,
                    max_flow, min_cost_flow)
from .fractional import (ArrivalOutcome, CompositeSolver, PairSpec, RootSpec,
                         SideGraph)
from .graph import (GraphError, SolutionLedger, TerminalPair, TwoMetricGraph,
                    Unreachable, shortest_path, solution_cost,
                    split_node_weights)
from .harness import RunConfig, RunReport, run_experiment, run_online
from .instance import Instance, dump_instance, load_instance
from .junction import (JunctionForest, build_junction_forest, map_to_gst,
                       pull_forest_ledger)
from .layering import (LayeredGraph, build_expansions, build_layered,
                       default_height, pull_back)
from .oracle import (InfeasibleInstance, OracleBudget, junction_opt,
                     lp_lower_bound, offline_opt, offline_opt_prize,
                     ss_offline_opt)
from .rounding import Assignment, draw_thresholds
from .single_sink import GreedySingleSink

__version__ = "0.1.0"
