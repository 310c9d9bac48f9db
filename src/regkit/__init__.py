"""regkit: exact checkers and constructions for graph and hypergraph
regularity.

All verdict-relevant arithmetic is exact (integers and rationals); the hot
counting loops live in ``regkit.kernels``, in pure Python.
"""

__version__ = "1.0.0"

from .graphs import (BipartiteGraph, ThreeGraph, Triad, VertexClass,
                     density)
from .kernels import BACKEND
from .partitions import (ThreePartiteFrame, TwoPartition, VertexPartition,
                         complete_two_partition)
from .regcheck import (CheckParams, Threshold, check_delta_regular,
                       check_eps_regular)

__all__ = [
    "BACKEND",
    "BipartiteGraph",
    "CheckParams",
    "ThreeGraph",
    "ThreePartiteFrame",
    "Threshold",
    "Triad",
    "TwoPartition",
    "VertexClass",
    "VertexPartition",
    "check_delta_regular",
    "check_eps_regular",
    "complete_two_partition",
    "density",
    "__version__",
]
