"""Think-like-a-vertex (Pregel-family) engines and algorithms."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "algorithms": (
        "bfs", "luby_mis", "label_propagation", "pagerank", "random_walks", "sssp",
        "triangle_count_tlav", "wcc",
    ),
    "distributed": ("DistributedPregel", "run_distributed"),
    "fault_tolerance": ("CheckpointedEngine", "FaultStats"),
    "mirroring": ("MirrorPlan", "message_cost", "mirroring_plan", "optimal_threshold"),
    "ppr": ("ppr_forward_push", "ppr_power_iteration"),
    "queries": ("PointQuery", "QuegelEngine", "QueryOutcome"),
    "engine": ("Aggregator", "PregelEngine", "VertexContext", "VertexProgram"),
    "vectorized": ("bfs_dense", "pagerank_dense", "wcc_dense"),
})
