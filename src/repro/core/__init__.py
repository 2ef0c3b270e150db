"""The paper's pipeline (Figure 1) and system taxonomy (Tables 1-2)."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "graphlets": ("GRAPHLET_PATTERNS", "graphlet_census", "graphlet_feature_vector"),
    "features": (
        "LogisticModel", "deepwalk_embeddings", "logistic_regression", "node2vec_walks",
        "skipgram_train", "topology_features",
    ),
    "pipeline": ("Pipeline", "PipelineContext", "Stage", "stages"),
    "structure_features": (
        "contains_pattern", "degree_histogram_features", "pattern_feature_matrix",
    ),
    "taxonomy": (
        "GNNSystem", "SubgraphSystem", "TABLE1_SYSTEMS", "TABLE2_SYSTEMS",
        "render_table1", "render_table2",
    ),
})
