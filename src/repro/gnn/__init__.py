"""GNN training systems: autograd, layers, sampling, and the Table-2 techniques."""

from .activation_compression import (
    CompressedReport,
    activation_memory,
    train_compressed,
)
from .caching import (
    CacheStats,
    LRUCache,
    StaticDegreeCache,
    access_trace_from_sampling,
    replay,
)
from .comm_plan import (
    flat_broadcast_time,
    flat_ring_allreduce_time,
    hierarchical_allreduce_time,
    hierarchical_broadcast_time,
)
from .dataloader import (
    FeatureFetcher,
    InferReport,
    ItemSampler,
    MiniBatch,
    MiniBatchLoader,
    infer_sampled,
    sampled_inference_blocks,
)
from .distributed import DistributedTrainer, halo_mask, halo_sets
from .distributed_sampled import DistributedSampledTrainer
from .historical import HistoricalReport, train_historical
from .layers import (
    GATLayer,
    GCNLayer,
    GINLayer,
    GraphTensors,
    Linear,
    Module,
    SAGELayer,
    SAGEPoolLayer,
)
from .models import Adam, GraphClassifier, NodeClassifier, SGD, accuracy
from .offload import DeviceMemoryExceeded, OffloadPlan, naive_footprint, plan_offload
from .p3 import (
    data_parallel_bytes_per_step,
    p3_bytes_per_step,
    partial_aggregation,
    shard_columns,
)
from .pipeline import (
    ScheduleResult,
    StageTimes,
    measured_stage_times,
    pipelined_schedule,
    sequential_schedule,
    two_level_schedule,
)
from .quantization import (
    ErrorCompensatedQuantizer,
    compressed_nbytes,
    dequantize,
    quantize,
    quantize_dequantize,
)
from .neural_matching import (
    NeuralMatcher,
    OrderEmbedder,
    contains_exact,
    make_training_pairs,
)
from .sampling import Block, NeighborSampler, khop_subgraph, layerwise_sample, sample_neighbors
from .subgraph_gnn import (
    PlainGraphGNN,
    SubgraphGNN,
    wl_colors,
    wl_indistinguishable,
)
from .serverless import DeploymentCost, Workload, estimate_costs
from .staleness import (
    SancusGate,
    StalenessTrace,
    simulate_staleness,
    train_delayed_halo,
    train_stale_gradients,
)
from .tensor import Parameter, Tensor, no_grad
from .train import TrainReport, train_full_graph, train_sampled

__all__ = [
    "Tensor",
    "Parameter",
    "no_grad",
    "GraphTensors",
    "Module",
    "Linear",
    "GCNLayer",
    "SAGELayer",
    "SAGEPoolLayer",
    "GATLayer",
    "GINLayer",
    "NodeClassifier",
    "GraphClassifier",
    "SGD",
    "Adam",
    "accuracy",
    "Block",
    "NeighborSampler",
    "sample_neighbors",
    "khop_subgraph",
    "layerwise_sample",
    "TrainReport",
    "train_full_graph",
    "train_sampled",
    "ItemSampler",
    "FeatureFetcher",
    "MiniBatch",
    "MiniBatchLoader",
    "InferReport",
    "infer_sampled",
    "sampled_inference_blocks",
    "DistributedTrainer",
    "halo_mask",
    "halo_sets",
    "StalenessTrace",
    "simulate_staleness",
    "train_stale_gradients",
    "SancusGate",
    "train_delayed_halo",
    "StageTimes",
    "ScheduleResult",
    "sequential_schedule",
    "pipelined_schedule",
    "two_level_schedule",
    "measured_stage_times",
    "shard_columns",
    "partial_aggregation",
    "data_parallel_bytes_per_step",
    "p3_bytes_per_step",
    "StaticDegreeCache",
    "CacheStats",
    "LRUCache",
    "access_trace_from_sampling",
    "replay",
    "quantize",
    "dequantize",
    "quantize_dequantize",
    "compressed_nbytes",
    "ErrorCompensatedQuantizer",
    "flat_ring_allreduce_time",
    "hierarchical_allreduce_time",
    "flat_broadcast_time",
    "hierarchical_broadcast_time",
    "Workload",
    "DeploymentCost",
    "estimate_costs",
    "naive_footprint",
    "plan_offload",
    "DeviceMemoryExceeded",
    "OffloadPlan",
    "CompressedReport",
    "activation_memory",
    "train_compressed",
    "NeuralMatcher",
    "OrderEmbedder",
    "contains_exact",
    "make_training_pairs",
    "PlainGraphGNN",
    "SubgraphGNN",
    "wl_colors",
    "wl_indistinguishable",
    "HistoricalReport",
    "train_historical",
    "DistributedSampledTrainer",
]
