"""Think-like-a-graph/task (TLAG) engines for subgraph search."""

from .aimd import AimdStats, DeviceOverflow, aimd_enumerate
from .distributed import CacheStats, DistributedTaskEngine
from .bfs_engine import BfsExplorer, bfs_enumerate_cliques, bfs_enumerate_connected
from .engine import EngineStats, TaskEngine
from .hybrid import HybridStats, hybrid_match
from .programs import (
    ConnectedSubgraphProgram,
    KCliqueProgram,
    MatchProgram,
    MaximalCliqueProgram,
    TriangleProgram,
)
from .query import Query, QueryResult, QueryServer
from .task import Task, TaskContext, TaskProgram
from .warp import WarpSimulator, WarpStats, warp_match

__all__ = [
    "Task",
    "TaskContext",
    "TaskProgram",
    "TaskEngine",
    "EngineStats",
    "MaximalCliqueProgram",
    "KCliqueProgram",
    "ConnectedSubgraphProgram",
    "MatchProgram",
    "TriangleProgram",
    "BfsExplorer",
    "bfs_enumerate_cliques",
    "bfs_enumerate_connected",
    "AimdStats",
    "DeviceOverflow",
    "aimd_enumerate",
    "HybridStats",
    "hybrid_match",
    "WarpSimulator",
    "WarpStats",
    "warp_match",
    "Query",
    "QueryResult",
    "QueryServer",
    "DistributedTaskEngine",
    "CacheStats",
]
