"""Graph substrate: CSR storage, generators, I/O, partitioners, properties,
and the on-disk store layer behind the :class:`GraphHandle` protocol."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "csr": ("Graph", "GraphBuilder"),
    "delta": ("EdgeDelta", "apply_edge_updates", "random_edge_updates"),
    "transactions": ("GraphTransaction", "TransactionDatabase"),
    "weighted": ("dijkstra", "edge_label_weight"),
    "store": (
        "GraphHandle", "InMemoryGraph", "StoreCatalog", "StoredGraph", "StoreError",
        "as_handle", "build_store", "ingest_edge_stream", "open_store",
    ),
})
