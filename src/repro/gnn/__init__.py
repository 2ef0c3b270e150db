"""GNN training systems: autograd, layers, sampling, and the Table-2 techniques."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "activation_compression": (
        "CompressedReport", "activation_memory", "train_compressed",
    ),
    "caching": (
        "LRUCache", "StaticDegreeCache", "access_trace_from_sampling", "replay",
    ),
    "comm_plan": (
        "flat_broadcast_time", "flat_ring_allreduce_time",
        "hierarchical_allreduce_time", "hierarchical_broadcast_time",
    ),
    "dataloader": (
        "FeatureFetcher", "InferReport", "ItemSampler", "MiniBatch", "MiniBatchLoader",
        "infer_sampled", "sampled_inference_blocks",
    ),
    "distributed": ("DistributedTrainer", "halo_mask", "halo_sets"),
    "distributed_sampled": ("DistributedSampledTrainer",),
    "historical": ("HistoricalReport", "train_historical"),
    "layers": (
        "GATLayer", "GCNLayer", "GINLayer", "GraphTensors", "Linear", "Module",
        "SAGELayer", "SAGEPoolLayer",
    ),
    "models": ("Adam", "GraphClassifier", "NodeClassifier", "SGD", "accuracy"),
    "offload": (
        "DeviceMemoryExceeded", "OffloadPlan", "naive_footprint", "plan_offload",
    ),
    "p3": (
        "data_parallel_bytes_per_step", "p3_bytes_per_step", "partial_aggregation",
        "shard_columns",
    ),
    "pipeline": (
        "ScheduleResult", "StageTimes", "measured_stage_times", "pipelined_schedule",
        "sequential_schedule", "two_level_schedule",
    ),
    "quantization": (
        "ErrorCompensatedQuantizer", "compressed_nbytes", "dequantize", "quantize",
        "quantize_dequantize",
    ),
    "neural_matching": (
        "NeuralMatcher", "OrderEmbedder", "contains_exact", "make_training_pairs",
    ),
    "sampling": (
        "Block", "NeighborSampler", "khop_subgraph", "layerwise_sample",
        "sample_neighbors",
    ),
    "subgraph_gnn": (
        "PlainGraphGNN", "SubgraphGNN", "wl_colors", "wl_indistinguishable",
    ),
    "serverless": ("DeploymentCost", "Workload", "estimate_costs"),
    "staleness": (
        "SancusGate", "StalenessTrace", "simulate_staleness", "train_delayed_halo",
        "train_stale_gradients",
    ),
    "tensor": ("Parameter", "Tensor", "no_grad"),
    "train": ("TrainReport", "train_full_graph", "train_sampled"),
})
