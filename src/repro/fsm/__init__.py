"""Frequent subgraph mining: gSpan, PrefixFPM, and single-graph MNI mining."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "bfs_fsm": ("BfsFsmStats", "bfs_mine_frequent_subgraphs"),
    "closed": ("closed_graph_patterns", "closed_sequences", "is_subpattern"),
    "gspan": (
        "DFSCode", "FrequentPattern", "GSpan", "is_min", "mine_frequent_subgraphs",
    ),
    "prefixfpm": (
        "GraphPatterns", "MinerStats", "PatternDomain", "PrefixMiner",
        "SequencePatterns",
    ),
    "single_graph": (
        "MNIResult", "SingleGraphFSM", "SingleGraphPattern", "mni_support",
        "mni_support_parallel",
    ),
})
