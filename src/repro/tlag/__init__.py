"""Think-like-a-graph/task (TLAG) engines for subgraph search."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "aimd": ("AimdStats", "DeviceOverflow", "aimd_enumerate"),
    "distributed": ("CacheStats", "DistributedTaskEngine"),
    "bfs_engine": ("BfsExplorer", "bfs_enumerate_cliques", "bfs_enumerate_connected"),
    "engine": ("EngineStats", "TaskEngine"),
    "hybrid": ("HybridStats", "hybrid_match"),
    "programs": (
        "ConnectedSubgraphProgram", "KCliqueProgram", "MatchProgram",
        "MaximalCliqueProgram", "TriangleProgram",
    ),
    "query": ("Query", "QueryResult", "QueryServer"),
    "task": ("Task", "TaskContext", "TaskProgram"),
    "warp": ("WarpSimulator", "WarpStats", "warp_match"),
})
