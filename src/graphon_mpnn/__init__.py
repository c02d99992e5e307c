"""Block random-graph models, discrete/continuous message passing, and
size-shift link-prediction experiments."""

from .analysis import (
    BoundReport,
    ConvergenceRecord,
    IsoGapStats,
    SlopeFit,
    bound_constants,
    convergence_sweep,
    delta_node,
    delta_pair,
    iso_gap_stats,
    loglog_slope,
)
from .errors import ConfigError, NumericalError, PreconditionError, SpecValidationError
from .linkpred import (
    EvalReport,
    LinkDataset,
    LinkModel,
    RunTableConfig,
    build_scenario,
    evaluate,
    node_link_model,
    oracle_scores,
    pair_link_model,
    run_table,
    train_link_model,
)
from .mpnn import Mpnn, NeighborProjection, NetFunction, RatioUpdate, graphsage_mpnn
from .nn import AdamState, FeedForwardNet, adam_step, init_net, lipschitz_upper_bound
from .node_mpnn import cmpnn_node_sbm, gmpnn_node
from .pair_mpnn import cmpnn_pair_sbm, fixed_psi_mpnn, gmpnn_pair
from .sbm import (
    GraphStats,
    SampledGraph,
    SbmSpec,
    ValidationReport,
    graph_stats,
    graphon_common_neighbors,
    graphon_degree,
    isomorphic_block_pairs,
    sample_graph,
    validate_sbm,
)

__version__ = "0.1.0"
