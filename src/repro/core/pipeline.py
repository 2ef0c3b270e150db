"""The Figure-1 pipeline: composable graph analytics + ML.

Figure 1 of the tutorial describes four analytics paths:

1. **Vertex Analytics** — a score per vertex;
2. **Vertex Analytics + ML** — vertex embeddings/features feeding a
   downstream model;
3. **Structure Analytics** — subgraph structures (patterns/instances);
4. **Structure Analytics + ML** — structural features feeding graph
   classification/regression.

:class:`Pipeline` makes the paths first-class: stages are named
callables over a shared :class:`PipelineContext` (holding the graph or
transaction DB plus intermediate artifacts), and the built-in stage
constructors cover the tutorial's examples — PageRank scoring, DeepWalk
embeddings + logistic classification, clique/pattern mining, FSM
features + graph classification.  Bench F1 runs all four paths
end-to-end; the examples build custom ones.

``Pipeline.run`` takes a :class:`~repro.graph.csr.Graph` or a
:class:`~repro.graph.transactions.TransactionDatabase` (the pipeline
builds the context itself) and returns a :class:`PipelineResult`: the
accumulated artifacts plus one :class:`~repro.obs.Span` per stage, so
every run carries its own per-stage timing profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from ..graph.csr import Graph
from ..graph.transactions import TransactionDatabase
from ..matching.cliques import maximal_cliques
from ..obs import MetricsRegistry, Span, StatsViewMixin, Tracer
from ..tlav.algorithms import pagerank
from .features import (
    deepwalk_embeddings,
    logistic_regression,
    topology_features,
)
from .structure_features import degree_histogram_features, pattern_feature_matrix

__all__ = ["PipelineContext", "PipelineResult", "Stage", "Pipeline", "stages"]


@dataclass
class PipelineContext:
    """Shared state flowing through a pipeline run."""

    graph: Optional[Graph] = None
    database: Optional[TransactionDatabase] = None
    artifacts: Dict[str, Any] = field(default_factory=dict)

    def require_graph(self) -> Graph:
        if self.graph is None:
            raise ValueError("this stage needs a graph input")
        return self.graph

    def require_database(self) -> TransactionDatabase:
        if self.database is None:
            raise ValueError("this stage needs a transaction database input")
        return self.database


@dataclass
class Stage:
    """One named pipeline step."""

    name: str
    run: Callable[[PipelineContext], Any]
    output: str = ""  # artifact key the result is stored under


class PipelineResult(StatsViewMixin):
    """What a pipeline run produced: artifacts plus per-stage spans.

    ``artifacts`` is the *same* dict object the context accumulated
    into; ``result["key"]`` is a shorthand.
    ``spans`` holds one finished :class:`~repro.obs.Span` per stage
    (in execution order); ``stage_seconds`` flattens them to a
    ``{stage_name: wall_seconds}`` dict for quick reporting.
    """

    def __init__(self, context: PipelineContext, spans: List[Span]) -> None:
        self.context = context
        self.artifacts = context.artifacts
        self.spans = spans

    @property
    def graph(self) -> Optional[Graph]:
        return self.context.graph

    @property
    def database(self) -> Optional[TransactionDatabase]:
        return self.context.database

    @property
    def stage_seconds(self) -> Dict[str, float]:
        return {s.name: s.wall_seconds for s in self.spans}

    @property
    def total_seconds(self) -> float:
        return sum(s.wall_seconds for s in self.spans)

    def __getitem__(self, key: str) -> Any:
        return self.artifacts[key]

    def __contains__(self, key: str) -> bool:
        return key in self.artifacts

    def __iter__(self) -> Iterator[str]:
        return iter(self.artifacts)

    def extra_dict(self) -> Dict[str, Any]:
        return {
            "artifacts": sorted(self.artifacts),
            "stage_seconds": self.stage_seconds,
            "total_seconds": self.total_seconds,
            "spans": [s.as_dict() for s in self.spans],
        }


PipelineInput = Union[Graph, TransactionDatabase]


class Pipeline:
    """An ordered list of stages executed over one context.

    ``obs`` and ``tracer`` are optional shared observability handles:
    stage timings always come back on the :class:`PipelineResult`, and
    additionally land in the given tracer (nested under any open span)
    and as ``core.pipeline.*`` metrics in the given registry.
    """

    def __init__(
        self,
        stages_list: Optional[Sequence[Stage]] = None,
        obs: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.stages: List[Stage] = list(stages_list) if stages_list else []
        self.obs = obs
        self.tracer = tracer

    def add(self, stage: Stage) -> "Pipeline":
        self.stages.append(stage)
        return self

    @staticmethod
    def _coerce(data: PipelineInput) -> PipelineContext:
        if isinstance(data, Graph):
            return PipelineContext(graph=data)
        if isinstance(data, TransactionDatabase):
            return PipelineContext(database=data)
        raise TypeError(
            "Pipeline.run expects a Graph or TransactionDatabase, "
            f"not {type(data).__name__}"
        )

    def run(self, data: PipelineInput) -> PipelineResult:
        """Execute stages in order over ``data``; returns the result.

        ``data`` is a graph or transaction database; the pipeline
        builds the :class:`PipelineContext` its stages receive.
        """
        ctx = self._coerce(data)
        tracer = self.tracer if self.tracer is not None else Tracer()
        spans: List[Span] = []
        for stage in self.stages:
            with tracer.span(f"stage:{stage.name}") as span:
                result = stage.run(ctx)
            key = stage.output or stage.name
            ctx.artifacts[key] = result
            span.set("output", key)
            spans.append(span)
            if self.obs is not None:
                self.obs.counter(
                    "core.pipeline.stages", "pipeline stages executed"
                ).inc(stage=stage.name)
                self.obs.histogram(
                    "core.pipeline.stage_seconds", "wall seconds per stage",
                    buckets=(0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0),
                ).observe(span.wall_seconds, stage=stage.name)
        return PipelineResult(ctx, spans)


class stages:
    """Constructors for the tutorial's canonical stages."""

    # ---- Path 1: vertex analytics

    @staticmethod
    def pagerank_scores(iterations: int = 20) -> Stage:
        def run(ctx: PipelineContext):
            return pagerank(ctx.require_graph(), iterations=iterations)

        return Stage(name="pagerank", run=run, output="scores")

    @staticmethod
    def structural_vertex_features() -> Stage:
        def run(ctx: PipelineContext):
            return topology_features(ctx.require_graph())

        return Stage(name="topology-features", run=run, output="features")

    # ---- Path 2: vertex analytics + ML

    @staticmethod
    def deepwalk(dim: int = 32, walk_length: int = 10,
                 walks_per_vertex: int = 4, seed: int = 0) -> Stage:
        def run(ctx: PipelineContext):
            return deepwalk_embeddings(
                ctx.require_graph(),
                dim=dim,
                walk_length=walk_length,
                walks_per_vertex=walks_per_vertex,
                seed=seed,
            )

        return Stage(name="deepwalk", run=run, output="embeddings")

    @staticmethod
    def node_classifier(
        labels: np.ndarray,
        train_mask: np.ndarray,
        features_key: str = "embeddings",
    ) -> Stage:
        def run(ctx: PipelineContext):
            x = ctx.artifacts[features_key]
            model = logistic_regression(x[train_mask], labels[train_mask])
            predictions = model.predict(x)
            return {
                "model": model,
                "predictions": predictions,
                "accuracy": float((predictions == labels).mean()),
            }

        return Stage(name="node-classifier", run=run, output="node_ml")

    # ---- Path 3: structure analytics

    @staticmethod
    def mine_maximal_cliques(min_size: int = 3) -> Stage:
        def run(ctx: PipelineContext):
            return [
                c
                for c in maximal_cliques(ctx.require_graph())
                if len(c) >= min_size
            ]

        return Stage(name="maximal-cliques", run=run, output="structures")

    # ---- Path 4: structure analytics + ML

    @staticmethod
    def pattern_features(
        min_support: int, max_edges: int = 3, max_patterns: Optional[int] = 32
    ) -> Stage:
        def run(ctx: PipelineContext):
            x, patterns = pattern_feature_matrix(
                ctx.require_database(),
                min_support=min_support,
                max_edges=max_edges,
                max_patterns=max_patterns,
            )
            ctx.artifacts["patterns"] = patterns
            return x

        return Stage(name="pattern-features", run=run, output="features")

    @staticmethod
    def degree_baseline_features() -> Stage:
        def run(ctx: PipelineContext):
            return degree_histogram_features(ctx.require_database())

        return Stage(name="degree-features", run=run, output="features")

    @staticmethod
    def graph_classifier(
        labels: np.ndarray,
        train_mask: np.ndarray,
        features_key: str = "features",
    ) -> Stage:
        def run(ctx: PipelineContext):
            x = ctx.artifacts[features_key]
            model = logistic_regression(x[train_mask], labels[train_mask])
            predictions = model.predict(x)
            test = ~train_mask
            return {
                "model": model,
                "predictions": predictions,
                "accuracy": float((predictions == labels).mean()),
                "test_accuracy": float(
                    (predictions[test] == labels[test]).mean()
                ) if test.any() else float("nan"),
            }

        return Stage(name="graph-classifier", run=run, output="graph_ml")
