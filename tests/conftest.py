"""Shared fixtures and oracle helpers for the test suite.

``networkx`` is used throughout as an *oracle only* — the library under
test never imports it.
"""

from __future__ import annotations

import sys

import networkx as nx
import numpy as np
import pytest

from repro.graph.csr import Graph
from repro.graph.generators import barabasi_albert, erdos_renyi, watts_strogatz


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


@pytest.fixture(autouse=True)
def no_shared_graph_outlives_its_test():
    """After a test, every live shared-memory CSR belongs to a registry pool.

    Registry pools keep their graphs shared on purpose (that is the
    amortization); anything else still in ``shm._LIVE`` — a private pool
    left open, a failure path that skipped its unlink — is a leak.  The
    leaked segments are unlinked before the assertion, so one leak does
    not fail every later test.
    """
    yield
    shm = sys.modules.get("repro.parallel.shm")
    if shm is None or not shm._LIVE:
        return
    from repro.parallel.pool import pool_registry

    held = {
        id(pool._graphs.peek(key)[1])
        for pool in pool_registry().values()
        for key in pool._graphs
    }
    leaked = [owner for owner in list(shm._LIVE) if id(owner) not in held]
    for owner in leaked:
        owner.close()
    assert not leaked, f"{len(leaked)} shared graph(s) outlived the test"


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
