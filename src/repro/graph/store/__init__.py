"""``repro.graph.store`` — on-disk partitioned graphs behind ``GraphHandle``.

The storage layer the scalability story needs (see DESIGN "Storage
layer"): any partitioner's output materializes to a versioned store
directory (``graph.json`` manifest + per-partition mmap CSR shards +
feature shards + node map), graphs larger than RAM stream in through
the chunked ingest pipeline, and every engine family consumes the
result through the same :class:`GraphHandle` surface it uses for
in-memory graphs.

Durability contract: overwriting builds are atomic (sibling temp dir
+ rename), chunked ingest journals every chunk/partition boundary and
resumes byte-identically after a crash (:mod:`.journal`), and
:func:`verify_store`/:func:`repair_store` sweep CRC32 integrity and
quarantine corrupt shards with typed errors.
"""

from ..._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "format": (
        "FORMAT_NAME", "FORMAT_VERSION", "MANIFEST_FILENAME", "QUARANTINE_DIRNAME",
        "CorruptShardError", "FileEntry", "Manifest", "PartitionMeta", "StoreError",
        "StoreReport", "is_store_dir", "repair_store", "verify_file", "verify_store",
    ),
    "journal": ("INGEST_DIRNAME", "IngestJournal"),
    "handle": ("GraphHandle", "InMemoryGraph", "as_handle"),
    "writer": (
        "STREAMING_PARTITIONERS", "build_store", "ingest_edge_stream",
        "streaming_assignment",
    ),
    "stored": ("CacheStats", "ShardCache", "StoredGraph", "open_store"),
    "catalog": ("StoreCatalog",),
})
