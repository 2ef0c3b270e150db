"""Shared fixtures and oracle helpers for the test suite.

``networkx`` is used throughout as an *oracle only* — the library under
test never imports it.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading

import networkx as nx
import numpy as np
import pytest

from repro.graph.csr import Graph, GraphBuilder
from repro.graph.generators import (
    barabasi_albert, erdos_renyi, random_labeled_graph, watts_strogatz,
)
from repro.matching.pattern import PatternGraph


def to_networkx(graph: Graph) -> nx.Graph:
    """Convert a repro Graph to a networkx graph (labels as attributes)."""
    if graph.directed:
        g = nx.DiGraph()
    else:
        g = nx.Graph()
    for v in graph.vertices():
        g.add_node(v, label=graph.vertex_label(v))
    for u, v in graph.edges():
        g.add_edge(u, v)
    return g


def _live_pool():
    """The process's worker pool, or None; never imports or creates one."""
    pool_module = sys.modules.get("repro.parallel.pool")
    return None if pool_module is None else pool_module.live_pool()


@pytest.fixture(autouse=True)
def no_shared_graph_outlives_its_test():
    """After a test, every live shared-memory CSR belongs to the live pool.

    The pool keeps its graphs shared on purpose (that is the
    amortization); anything else still in ``shm._LIVE`` — a test's own
    pool left open, a failure path that skipped its unlink — is a leak.
    The leaked segments are unlinked before the assertion, so one leak
    does not fail every later test.
    """
    yield
    shm = sys.modules.get("repro.parallel.shm")
    if shm is None or not shm._LIVE:
        return
    pool = _live_pool()
    held = set() if pool is None else {
        id(pool._graphs.peek(key)[1]) for key in pool._graphs
    }
    leaked = [owner for owner in list(shm._LIVE) if id(owner) not in held]
    for owner in leaked:
        owner.close()
    assert not leaked, f"{len(leaked)} shared graph(s) outlived the test"


@pytest.fixture(autouse=True)
def no_child_process_outlives_its_test():
    """After a test, every child process is a worker of the live pool.

    Leaked children are terminated before the assertion, so one leak
    does not fail every later test.
    """
    yield
    children = multiprocessing.active_children()
    if not children:
        return
    pool = _live_pool()
    workers = set() if pool is None or not pool.warm else set(pool._pool._processes)
    leaked = [child for child in children if child.pid not in workers]
    for child in leaked:
        child.terminate()
        child.join(timeout=5.0)
    assert not leaked, f"child processes outlived the test: {leaked}"


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """After a test, no thread it started is still running.

    The live pool's two helper threads (its executor manager and its
    call queue's feeder) are the pool's, not the test's, and are exempt.
    """
    before = set(threading.enumerate())
    yield
    pool = _live_pool()
    exempt = set()
    if pool is not None and pool.warm:
        fpool = pool._pool
        exempt = {fpool._executor_manager_thread, fpool._call_queue._thread}
    leaked = [t for t in threading.enumerate() if t not in before and t not in exempt]
    for thread in leaked:  # a thread that is merely finishing is not a leak
        thread.join(timeout=1.0)
    leaked = [t.name for t in leaked if t.is_alive()]
    assert not leaked, f"threads outlived the test: {leaked}"


@pytest.fixture
def small_er():
    """A 40-vertex Erdos-Renyi graph with triangles."""
    return erdos_renyi(40, 0.2, seed=3)


@pytest.fixture
def small_ba():
    """A 200-vertex preferential-attachment graph (skewed degrees)."""
    return barabasi_albert(200, 3, seed=1)


@pytest.fixture
def small_ws():
    """A clustered small-world graph (many triangles)."""
    return watts_strogatz(60, 6, 0.1, seed=2)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def edge_labelled_pattern(labelled_edges):
    """A vertex-unlabelled pattern from ``(u, v, edge_label)`` triples."""
    builder = GraphBuilder()
    for u, v, label in labelled_edges:
        builder.add_edge(u, v, label=label)
    n = 1 + max(max(u, v) for u, v, _ in labelled_edges)
    return PatternGraph(builder.build(num_vertices=n, vertex_labels=[0] * n))


@pytest.fixture
def edge_labelled_er():
    """A 40-vertex G(n, p) graph with 3 edge labels and one vertex label."""
    return random_labeled_graph(
        40, 0.25, num_vertex_labels=1, num_edge_labels=3, seed=3
    )


@pytest.fixture
def rainbow_triangle():
    """A triangle whose edges carry labels 0, 1 and 2: no symmetry."""
    return edge_labelled_pattern([(0, 1, 0), (1, 2, 1), (0, 2, 2)])
