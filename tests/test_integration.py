"""Cross-module integration: the scenarios the tutorial motivates,
exercised end to end through the public API."""

import numpy as np
import pytest

from repro.core.pipeline import Pipeline, PipelineContext, stages
from repro.fsm.gspan import mine_frequent_subgraphs
from repro.fsm.single_graph import SingleGraphFSM
from repro.gnn.distributed import DistributedTrainer
from repro.gnn.models import NodeClassifier
from repro.gnn.train import train_full_graph
from repro.graph.csr import Graph
from repro.graph.generators import (
    barabasi_albert,
    planted_motif_graph,
    planted_partition,
    random_labeled_transactions,
)
from repro.graph.partition import metis_like_partition
from repro.graph.transactions import TransactionDatabase
from repro.matching.backtrack import count_matches
from repro.matching.pattern import PatternGraph, triangle_pattern
from repro.tlag.engine import TaskEngine
from repro.tlag.programs import MatchProgram
from repro.tlav import pagerank, wcc


class TestAnalyticsToMLHandoff:
    """Figure 1 end to end: analytics artifacts feed ML stages."""

    def test_vertex_scores_plus_embeddings_plus_classifier(self):
        g, labels = planted_partition(2, 25, p_in=0.3, p_out=0.02, seed=9)
        rng = np.random.default_rng(0)
        train = np.zeros(g.num_vertices, dtype=bool)
        train[rng.permutation(g.num_vertices)[:25]] = True
        ctx = Pipeline(
            [
                stages.pagerank_scores(),
                stages.structural_vertex_features(),
                stages.deepwalk(dim=16, walks_per_vertex=6, seed=0),
                stages.node_classifier(labels, train),
            ]
        ).run(PipelineContext(graph=g))
        assert ctx.artifacts["node_ml"]["accuracy"] > 0.75

    def test_gnn_on_pipeline_features(self):
        """Topology features from the analytics stage feed a GNN."""
        g, labels = planted_partition(3, 20, p_in=0.25, p_out=0.02, seed=3)
        ctx = Pipeline([stages.structural_vertex_features()]).run(
            PipelineContext(graph=g)
        )
        features = ctx.artifacts["features"]
        rng = np.random.default_rng(1)
        train = np.zeros(g.num_vertices, dtype=bool)
        train[rng.permutation(g.num_vertices)[:30]] = True
        model = NodeClassifier(features.shape[1], 16, 3, seed=0)
        report = train_full_graph(
            model, g, features=features, labels=labels,
            train_mask=train, val_mask=~train, epochs=30, lr=0.05,
        )
        assert report.losses[-1] < report.losses[0]


class TestMinedPatternsAsQueries:
    """FSM output feeds the matching engines (structure analytics loop)."""

    def test_single_graph_patterns_are_matchable(self):
        motif = Graph.from_edges(
            [(0, 1), (1, 2), (2, 0)], vertex_labels=[5, 5, 5]
        )
        g = planted_motif_graph(
            n=90, p=0.02, motif=motif, copies=6, num_vertex_labels=3, seed=1
        )
        miner = SingleGraphFSM(min_support=4, max_edges=3)
        for mined in miner.run(g):
            pattern = mined.to_pattern()
            # Every frequent pattern must actually occur in the graph.
            assert count_matches(g, pattern) > 0

    def test_transaction_patterns_queryable_via_task_engine(self):
        db = TransactionDatabase(
            random_labeled_transactions(10, 8, 0.3, 2, seed=7)
        )
        patterns = mine_frequent_subgraphs(db, min_support=6, max_edges=2)
        assert patterns
        target = patterns[-1]
        pattern = PatternGraph(target.to_graph())
        hits = 0
        for t in db:
            engine = TaskEngine(
                t.graph, MatchProgram(pattern), num_workers=2,
                collect_results=False,
            )
            engine.run()
            if engine.result_count > 0:
                hits += 1
        assert hits == target.support


class TestTLAVPlusTLAG:
    """Both engine families over one graph, consistent answers."""

    def test_component_restricted_matching(self):
        g = barabasi_albert(120, 2, seed=5)
        components = wcc(g)
        assert len(set(components.tolist())) == 1
        scores = pagerank(g, iterations=10)
        top = int(np.argmax(scores))
        # The hub participates in some triangle of this graph, found by
        # the task engine's anchored matching.
        from repro.matching.backtrack import match

        total = count_matches(g, triangle_pattern())
        engine = TaskEngine(
            g, MatchProgram(triangle_pattern()), num_workers=4,
            collect_results=False,
        )
        engine.run()
        assert engine.result_count == total
        del top


class TestDistributedConsistency:
    """The same model trained via three execution paths agrees."""

    def test_three_ways_same_losses(self):
        g, labels = planted_partition(3, 18, p_in=0.25, p_out=0.02, seed=8)
        rng = np.random.default_rng(2)
        n = g.num_vertices
        features = np.eye(3)[labels] + rng.normal(0, 1.0, size=(n, 3))
        train = np.zeros(n, dtype=bool)
        train[rng.permutation(n)[:27]] = True

        single = train_full_graph(
            NodeClassifier(3, 8, 3, seed=0), g, features=features, labels=labels,
            train_mask=train, epochs=6, lr=0.05,
        )
        for num_parts in (2, 5):
            trainer = DistributedTrainer(
                NodeClassifier(3, 8, 3, seed=0), g,
                metis_like_partition(g, num_parts, seed=0),
                features, labels, lr=0.05,
            )
            report = trainer.train(train, epochs=6)
            assert np.allclose(report.losses, single.losses)
