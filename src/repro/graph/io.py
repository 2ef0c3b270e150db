"""Graph I/O.

Loads and saves the three on-disk formats the benchmarks use:

* **edge list** — one ``u v [label]`` pair per line, ``#`` comments
  (the SNAP format every surveyed system consumes);
* **adjacency** — ``v: n1 n2 n3 ...`` per line (Pregel-style input);
* **transaction** — the gSpan ``t/v/e`` format for labeled graph
  databases (``t # <id>``, ``v <id> <label>``, ``e <u> <v> <label>``).
"""

from __future__ import annotations

import os
from typing import Iterator, List, Tuple, Union

from .csr import Graph, GraphBuilder
from .transactions import GraphTransaction, TransactionDatabase

__all__ = [
    "EdgeListError",
    "read_edge_list",
    "load_edge_list",
    "save_edge_list",
    "load_adjacency",
    "save_adjacency",
    "load_transactions",
    "save_transactions",
]

PathLike = Union[str, os.PathLike]


class EdgeListError(ValueError):
    """An edge-list line that is not ``u v [label]`` with non-negative
    integer ids; the message names the file and line."""


def read_edge_list(path: PathLike) -> Iterator[Tuple[int, int, int]]:
    """Yield ``(u, v, label)`` per line of a SNAP-style edge list, one
    line at a time; lines starting with ``#`` are comments and a missing
    label reads as 0."""
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            try:
                u, v = int(parts[0]), int(parts[1])
                label = int(parts[2]) if len(parts) > 2 else 0
            except (IndexError, ValueError):
                raise EdgeListError(
                    f"{os.fspath(path)}:{lineno}: malformed edge line "
                    f"{line.strip()!r}"
                ) from None
            if u < 0 or v < 0:
                raise EdgeListError(
                    f"{os.fspath(path)}:{lineno}: negative vertex id in "
                    f"{line.strip()!r}"
                )
            yield u, v, label


def load_edge_list(path: PathLike, directed: bool = False) -> Graph:
    """Read a SNAP-style edge list (see :func:`read_edge_list`)."""
    builder = GraphBuilder(directed=directed)
    for u, v, label in read_edge_list(path):
        builder.add_edge(u, v, label=label)
    return builder.build()


def save_edge_list(graph: Graph, path: PathLike) -> None:
    """Write each edge once; labels are appended when present."""
    with open(path, "w") as handle:
        handle.write(f"# n={graph.num_vertices} m={graph.num_edges}\n")
        for u, v in graph.edges():
            if graph.edge_labels is not None:
                handle.write(f"{u} {v} {graph.edge_label(u, v)}\n")
            else:
                handle.write(f"{u} {v}\n")


def load_adjacency(path: PathLike, directed: bool = False) -> Graph:
    """Read ``v: n1 n2 ...`` adjacency lines."""
    builder = GraphBuilder(directed=directed)
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            head, _, rest = line.partition(":")
            v = int(head)
            builder.add_vertex(v)
            for w in rest.split():
                builder.add_edge(v, int(w))
    return builder.build()


def save_adjacency(graph: Graph, path: PathLike) -> None:
    """Write one adjacency line per vertex (neighbors sorted)."""
    with open(path, "w") as handle:
        for v in graph.vertices():
            nbrs = " ".join(str(int(w)) for w in graph.neighbors(v))
            handle.write(f"{v}: {nbrs}\n")


def load_transactions(path: PathLike) -> TransactionDatabase:
    """Read a gSpan-format labeled graph database."""
    transactions: List[GraphTransaction] = []
    builder: GraphBuilder = GraphBuilder(directed=False)
    labels: List[int] = []
    graph_id = -1

    def flush() -> None:
        if graph_id >= 0:
            graph = builder.build(num_vertices=len(labels), vertex_labels=labels)
            transactions.append(GraphTransaction(graph_id=graph_id, graph=graph))

    with open(path) as handle:
        for line in handle:
            parts = line.split()
            if not parts or parts[0] == "#":
                continue
            if parts[0] == "t":
                flush()
                graph_id = int(parts[-1])
                if graph_id < 0:  # "t # -1" is the gSpan end marker
                    graph_id = -1
                    break
                builder = GraphBuilder(directed=False)
                labels = []
            elif parts[0] == "v":
                vid, vlabel = int(parts[1]), int(parts[2])
                if vid != len(labels):
                    raise ValueError("vertex ids must be dense and in order")
                labels.append(vlabel)
                builder.add_vertex(vid)
            elif parts[0] == "e":
                builder.add_edge(int(parts[1]), int(parts[2]), label=int(parts[3]))
            else:
                raise ValueError(f"unknown record type: {parts[0]!r}")
    flush()
    return TransactionDatabase(transactions)


def save_transactions(db: TransactionDatabase, path: PathLike) -> None:
    """Write a gSpan-format labeled graph database."""
    with open(path, "w") as handle:
        for t in db:
            handle.write(f"t # {t.graph_id}\n")
            for v in t.graph.vertices():
                handle.write(f"v {v} {t.graph.vertex_label(v)}\n")
            for u, v in t.graph.edges():
                label = (
                    t.graph.edge_label(u, v)
                    if t.graph.edge_labels is not None
                    else 0
                )
                handle.write(f"e {u} {v} {label}\n")
        handle.write("t # -1\n")
