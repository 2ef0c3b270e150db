"""The Figure-1 pipeline API and the Tables-1/2 taxonomy."""

import importlib

import numpy as np
import pytest

from repro.core.pipeline import Pipeline, Stage, stages
from repro.core.taxonomy import (
    TABLE1_SYSTEMS,
    TABLE2_SYSTEMS,
    render_table1,
    render_table2,
)
from repro.graph.csr import Graph
from repro.graph.generators import (
    planted_partition,
    random_labeled_transactions,
)
from repro.graph.transactions import TransactionDatabase


@pytest.fixture(scope="module")
def community_graph():
    return planted_partition(3, 20, p_in=0.25, p_out=0.01, seed=6)


@pytest.fixture(scope="module")
def molecule_db():
    motif = Graph.from_edges([(0, 1), (1, 2), (2, 0)], vertex_labels=[1, 1, 1])
    pos = random_labeled_transactions(
        12, 8, 0.15, 2, seed=1, planted=motif, plant_fraction=1.0
    )
    neg = random_labeled_transactions(12, 8, 0.15, 2, seed=2, id_offset=12)
    return TransactionDatabase(pos + neg), np.array([1] * 12 + [0] * 12)


class TestPipelineMechanics:
    def test_artifacts_accumulate(self, community_graph):
        g, _ = community_graph
        ctx = Pipeline([stages.pagerank_scores()]).run(g)
        assert "scores" in ctx.artifacts
        assert ctx.artifacts["scores"].sum() == pytest.approx(1.0)

    def test_custom_stage(self, community_graph):
        g, _ = community_graph
        pipeline = Pipeline()
        pipeline.add(Stage(name="n", run=lambda c: c.require_graph().num_vertices))
        ctx = pipeline.run(g)
        assert ctx.artifacts["n"] == g.num_vertices

    def test_missing_graph_raises(self, molecule_db):
        db, _ = molecule_db
        with pytest.raises(ValueError):
            Pipeline([stages.pagerank_scores()]).run(db)

    def test_missing_database_raises(self, community_graph):
        g, _ = community_graph
        with pytest.raises(ValueError):
            Pipeline([stages.pattern_features(min_support=2)]).run(g)


class TestFourPaths:
    def test_path1_vertex_analytics(self, community_graph):
        g, _ = community_graph
        ctx = Pipeline(
            [stages.pagerank_scores(), stages.structural_vertex_features()]
        ).run(g)
        assert ctx.artifacts["scores"].shape == (g.num_vertices,)
        assert ctx.artifacts["features"].shape[0] == g.num_vertices

    def test_path2_vertex_ml(self, community_graph):
        g, labels = community_graph
        rng = np.random.default_rng(0)
        train = np.zeros(g.num_vertices, dtype=bool)
        train[rng.permutation(g.num_vertices)[:30]] = True
        ctx = Pipeline(
            [
                stages.deepwalk(dim=16, walks_per_vertex=6, seed=0),
                stages.node_classifier(labels, train),
            ]
        ).run(g)
        assert ctx.artifacts["node_ml"]["accuracy"] > 0.7

    def test_path3_structure_analytics(self, community_graph):
        g, _ = community_graph
        ctx = Pipeline([stages.mine_maximal_cliques(min_size=3)]).run(g)
        for clique in ctx.artifacts["structures"]:
            assert len(clique) >= 3

    def test_path4_structure_ml(self, molecule_db):
        db, labels = molecule_db
        rng = np.random.default_rng(1)
        train = np.zeros(len(db), dtype=bool)
        train[rng.permutation(len(db))[:16]] = True
        ctx = Pipeline(
            [
                stages.pattern_features(min_support=6, max_edges=3),
                stages.graph_classifier(labels, train),
            ]
        ).run(db)
        assert ctx.artifacts["graph_ml"]["accuracy"] > 0.7
        assert "patterns" in ctx.artifacts


class TestTaxonomy:
    def test_tables_render(self):
        t1, t2 = render_table1(), render_table2()
        assert "G-thinker" in t1 and "EGSM" in t1
        assert "DistDGL" in t2 and "Dorylus" in t2

    def test_every_row_has_repro_module(self):
        for system in TABLE1_SYSTEMS + TABLE2_SYSTEMS:
            assert system.repro.startswith("repro.")

    def test_repro_modules_importable(self):
        for system in TABLE1_SYSTEMS + TABLE2_SYSTEMS:
            importlib.import_module(system.repro)

    def test_table1_problem_coverage_consistency(self):
        # Matching-only systems must not claim FSM support.
        for s in TABLE1_SYSTEMS:
            if s.matching_only:
                assert not s.supports_fsm

    def test_table2_each_system_has_a_technique(self):
        for s in TABLE2_SYSTEMS:
            assert any(
                [
                    s.partitioning,
                    s.scheduling,
                    s.asynchrony,
                    s.compression,
                    s.comm_optimization,
                    s.cpu_offload,
                ]
            )

    def test_row_counts_match_paper_scope(self):
        assert len(TABLE1_SYSTEMS) >= 20  # Table 1 families
        assert len(TABLE2_SYSTEMS) >= 13  # Table 2 rows
