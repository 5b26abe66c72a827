"""Round-synchronous CONGEST / congested-clique simulation with
sparsity-aware K_p clique listing."""

from .config import SimConfig, ceil_log2, polylog
from .graphs import (
    CliqueInstance,
    Graph,
    OrientationCertificate,
    brute_force_list_kp,
    complete,
    degeneracy_orient,
    empty,
    gnp,
    planted,
    read_edge_list,
    write_edge_list,
)
from .engine import (
    Accounting,
    BudgetViolation,
    ClusterChannel,
    ProtocolError,
    RoundEngine,
    assign_cluster_ids,
    cluster_route,
)
from .decomposition import (
    Cluster,
    DecompositionError,
    EdgePartition,
    expander_decompose,
    verify_decomposition,
)
from .sparse_listing import (
    NodePartition,
    cc_list_kp,
    check_partition_balance,
    random_partition,
    tuple_assign,
)
from .pipeline import (
    RunReport,
    congest_list_k4,
    congest_list_kp,
    iteration_schedule,
)

__all__ = [
    "Accounting",
    "BudgetViolation",
    "CliqueInstance",
    "Cluster",
    "ClusterChannel",
    "DecompositionError",
    "EdgePartition",
    "Graph",
    "NodePartition",
    "OrientationCertificate",
    "ProtocolError",
    "RoundEngine",
    "RunReport",
    "SimConfig",
    "assign_cluster_ids",
    "brute_force_list_kp",
    "cc_list_kp",
    "ceil_log2",
    "check_partition_balance",
    "cluster_route",
    "complete",
    "congest_list_k4",
    "congest_list_kp",
    "degeneracy_orient",
    "empty",
    "expander_decompose",
    "gnp",
    "iteration_schedule",
    "planted",
    "polylog",
    "random_partition",
    "read_edge_list",
    "tuple_assign",
    "verify_decomposition",
    "write_edge_list",
]

__version__ = "0.1.0"
