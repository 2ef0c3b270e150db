"""On-disk partitioned graph format: manifest schema and file integrity.

A *store* is a directory laid out the way DistDGL's chunked-partition
pipeline lays out its artifacts (``mygraph.json`` + per-partition
structure/feature files), adapted to this repository's CSR substrate:

::

    <store>/
      graph.json              # the manifest (this module)
      assignment.npy          # int64[n]   partition owning each vertex
      degrees.npy             # int64[n]   global (out-)degrees
      vertex_labels.npy       # int64[n]   optional
      part<k>/
        nodes.npy             # int64[n_k] global ids owned, ascending
        indptr.npy            # int64[n_k + 1] local CSR index
        indices.npy           # int64[e_k] neighbor *global* ids, sorted
        edge_labels.npy       # int64[e_k] optional, aligned with indices
        features.npy          # float64[n_k, d] optional feature shard

The manifest records, for every file, its byte size and CRC-32 so a
truncated or corrupted shard is detected at page-in time and raised as
a :class:`StoreError` instead of silently feeding garbage to an engine.
:func:`map_verified` is the one integrity check every reader shares
(page-in, resident loads, :func:`verify_file`, :func:`verify_store`):
it opens the file once, compares its ``fstat`` size with the manifest,
maps it read-only and computes the CRC-32 over the *mapped* bytes — so
the bytes a page-in verifies are exactly the bytes it serves.
:func:`read_npy_layout` parses a mapped file's ``.npy`` header into an
:class:`NpyLayout`, which a reader may memoise and re-check against the
header bytes of later maps (:meth:`NpyLayout.matches`).
The manifest also carries a ``version`` counter — the graph's *epoch*.
The serving layer's registry backs its epoch bumps with this field, so
cache invalidation survives process restarts.

Every quantity in ``graph.json`` is derivable from the shards; the
``store.manifest.roundtrip`` oracle in :mod:`repro.graph.store.checks`
asserts the shards re-assemble to the exact CSR the manifest describes.
"""

from __future__ import annotations

import json
import mmap
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MANIFEST_FILENAME",
    "QUARANTINE_DIRNAME",
    "StoreError",
    "CorruptShardError",
    "FileEntry",
    "PartitionMeta",
    "Manifest",
    "NpyLayout",
    "StoreReport",
    "file_entry",
    "map_verified",
    "read_npy_layout",
    "verify_file",
    "verify_store",
    "repair_store",
    "is_store_dir",
]

FORMAT_NAME = "repro.graph.store"
FORMAT_VERSION = 1
MANIFEST_FILENAME = "graph.json"
QUARANTINE_DIRNAME = "_quarantine"

PathLike = Union[str, os.PathLike]


class StoreError(Exception):
    """A store is malformed: missing, truncated, or corrupted files,
    or a manifest this code cannot interpret.

    ``kind`` names the failed integrity check of one manifest-listed
    file — ``"missing"``, ``"truncated"`` or ``"corrupt"``, the
    :class:`StoreReport` bucket it belongs in — and is ``None`` for
    every other malformation."""

    def __init__(self, message: str, kind: Optional[str] = None) -> None:
        super().__init__(message)
        self.kind = kind


class CorruptShardError(StoreError):
    """One or more manifest-listed shards failed integrity checks.

    Carries the store-relative paths (and, when raised by
    ``repair_store``, the full :class:`StoreReport`) so callers can act
    on exactly the failing files instead of guessing."""

    def __init__(
        self, message: str, paths: List[str], report: Optional["StoreReport"] = None
    ) -> None:
        super().__init__(message)
        self.paths = list(paths)
        self.report = report


_REQUIRED = object()


def _count(d: Dict[str, Any], key: str, default: Any = _REQUIRED) -> Any:
    """``d[key]`` as a count: a JSON integer (not a bool), at least 0.
    An absent key reads ``default``, which may be ``None``; with no
    default the key is required."""
    if key not in d and default is not _REQUIRED:
        return default
    value = d[key]
    if value is None and default is None:
        return None
    if type(value) is not int or value < 0:
        raise StoreError(
            f"manifest field {key!r} must be a non-negative integer, got {value!r}"
        )
    return value


@dataclass
class FileEntry:
    """One file the manifest vouches for."""

    path: str  # store-relative, '/'-separated
    nbytes: int
    crc32: int

    def as_dict(self) -> Dict[str, Any]:
        return {"path": self.path, "bytes": self.nbytes, "crc32": self.crc32}

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "FileEntry":
        path = d["path"]
        # Every reader joins this onto the store root: it must stay inside.
        if (
            not isinstance(path, str)
            or not path
            or "\0" in path
            or os.path.isabs(path)
            or ".." in path.replace("\\", "/").split("/")
        ):
            raise StoreError(
                f"manifest path {path!r} is not a relative path inside the store"
            )
        return FileEntry(path, _count(d, "bytes"), _count(d, "crc32"))


@dataclass
class PartitionMeta:
    """Shard inventory of one partition."""

    part_id: int
    num_vertices: int
    num_edge_slots: int  # directed adjacency entries in this shard
    files: Dict[str, FileEntry] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.part_id,
            "num_vertices": self.num_vertices,
            "num_edge_slots": self.num_edge_slots,
            "files": {k: f.as_dict() for k, f in sorted(self.files.items())},
        }

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "PartitionMeta":
        return PartitionMeta(
            part_id=_count(d, "id"),
            num_vertices=_count(d, "num_vertices"),
            num_edge_slots=_count(d, "num_edge_slots"),
            files={k: FileEntry.from_dict(f) for k, f in d["files"].items()},
        )

    @property
    def shard_bytes(self) -> int:
        """Total bytes of this partition's pageable shards."""
        return sum(f.nbytes for f in self.files.values())


@dataclass
class Manifest:
    """The ``graph.json`` catalog entry of one stored graph."""

    name: str
    num_vertices: int
    num_edges: int
    num_edge_slots: int
    directed: bool
    num_parts: int
    partitioner: str
    built_by: str  # "one_shot" | "chunked"
    version: int = 1  # the graph's epoch; bumped on mutation/replace
    chunk_edges: Optional[int] = None
    has_vertex_labels: bool = False
    has_edge_labels: bool = False
    feature_dim: Optional[int] = None
    partitions: List[PartitionMeta] = field(default_factory=list)
    files: Dict[str, FileEntry] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "format": FORMAT_NAME,
            "format_version": FORMAT_VERSION,
            "name": self.name,
            "version": self.version,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "num_edge_slots": self.num_edge_slots,
            "directed": self.directed,
            "num_parts": self.num_parts,
            "partitioner": self.partitioner,
            "built_by": self.built_by,
            "chunk_edges": self.chunk_edges,
            "has_vertex_labels": self.has_vertex_labels,
            "has_edge_labels": self.has_edge_labels,
            "feature_dim": self.feature_dim,
            "partitions": [p.as_dict() for p in self.partitions],
            "files": {k: f.as_dict() for k, f in sorted(self.files.items())},
        }

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "Manifest":
        if d.get("format") != FORMAT_NAME:
            raise StoreError(
                f"not a {FORMAT_NAME} manifest (format={d.get('format')!r})"
            )
        if int(d.get("format_version", -1)) > FORMAT_VERSION:
            raise StoreError(
                f"manifest format_version {d['format_version']} is newer than "
                f"this code understands ({FORMAT_VERSION})"
            )
        num_parts = _count(d, "num_parts")
        if not isinstance(d["partitions"], list):
            raise StoreError("manifest partitions must be a list")
        partitions = [PartitionMeta.from_dict(p) for p in d["partitions"]]
        if [p.part_id for p in partitions] != list(range(num_parts)):
            raise StoreError(f"manifest partition ids must be 0..{num_parts - 1}")
        num_vertices = _count(d, "num_vertices")
        num_edge_slots = _count(d, "num_edge_slots")
        if (
            sum(p.num_vertices for p in partitions) != num_vertices
            or sum(p.num_edge_slots for p in partitions) != num_edge_slots
        ):
            raise StoreError("manifest counts disagree with its partitions")
        return Manifest(
            name=str(d["name"]),
            version=_count(d, "version", 1),
            num_vertices=num_vertices,
            num_edges=_count(d, "num_edges"),
            num_edge_slots=num_edge_slots,
            directed=bool(d["directed"]),
            num_parts=num_parts,
            partitioner=str(d["partitioner"]),
            built_by=str(d["built_by"]),
            chunk_edges=_count(d, "chunk_edges", None),
            has_vertex_labels=bool(d.get("has_vertex_labels", False)),
            has_edge_labels=bool(d.get("has_edge_labels", False)),
            feature_dim=_count(d, "feature_dim", None),
            partitions=partitions,
            files={
                k: FileEntry.from_dict(f) for k, f in d.get("files", {}).items()
            },
        )

    # -- persistence -------------------------------------------------------

    def save(self, root: PathLike) -> None:
        path = os.path.join(os.fspath(root), MANIFEST_FILENAME)
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)  # atomic epoch bumps

    @staticmethod
    def load(root: PathLike) -> "Manifest":
        path = os.path.join(os.fspath(root), MANIFEST_FILENAME)
        if not os.path.exists(path):
            raise StoreError(f"no {MANIFEST_FILENAME} under {os.fspath(root)!r}")
        try:
            with open(path) as handle:
                return Manifest.from_dict(json.load(handle))
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            raise StoreError(f"malformed manifest {path!r}: {exc}") from exc

    @property
    def shard_bytes(self) -> int:
        """Total pageable bytes across every partition's shards."""
        return sum(p.shard_bytes for p in self.partitions)


def _crc32_of(path: str) -> int:
    crc = 0
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            crc = zlib.crc32(block, crc)
    return crc


def file_entry(root: PathLike, relpath: str) -> FileEntry:
    """Stat + checksum a freshly written store file."""
    full = os.path.join(os.fspath(root), relpath)
    return FileEntry(relpath, os.path.getsize(full), _crc32_of(full))


def map_verified(
    root: PathLike, entry: FileEntry, checksum: bool = True
) -> mmap.mmap:
    """Open a manifest-listed file once and return a verified read-only map.

    The one integrity check of the store.  The size comes from ``fstat``
    on the opened file and must equal the manifest's (truncation is
    always caught); ``checksum=True`` additionally computes the CRC-32
    over the mapped bytes (corruption that preserves size), so what is
    verified is exactly what the map serves.  Failures raise
    :class:`StoreError` with ``kind`` set.
    """
    full = os.path.join(os.fspath(root), entry.path)
    try:
        fd = os.open(full, os.O_RDONLY)
    except FileNotFoundError:
        raise StoreError(
            f"missing shard file {entry.path!r}", kind="missing"
        ) from None
    try:
        actual = os.fstat(fd).st_size
        if actual != entry.nbytes:
            raise StoreError(
                f"truncated shard {entry.path!r}: {actual} bytes on disk, "
                f"manifest says {entry.nbytes}",
                kind="truncated",
            )
        if actual == 0:  # a .npy file is never empty, and mmap refuses it
            raise StoreError(f"corrupt shard {entry.path!r}: empty", kind="corrupt")
        mapped = mmap.mmap(fd, actual, access=mmap.ACCESS_READ)
    finally:
        os.close(fd)
    if checksum and zlib.crc32(mapped) != entry.crc32:
        mapped.close()
        raise StoreError(
            f"corrupt shard {entry.path!r}: CRC-32 mismatch", kind="corrupt"
        )
    return mapped


def verify_file(root: PathLike, entry: FileEntry, checksum: bool = True) -> str:
    """Validate a manifest-listed file on disk; returns its full path.

    Runs :func:`map_verified` and drops the map, so it raises exactly
    what a page-in of the same file would.
    """
    map_verified(root, entry, checksum=checksum).close()
    return os.path.join(os.fspath(root), entry.path)


_NPY_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


@dataclass(frozen=True)
class NpyLayout:
    """What a ``.npy`` header says: the array's shape, dtype and order,
    and (as the header's own length) where its data starts."""

    header: bytes  # magic string through padding, verbatim
    shape: Tuple[int, ...]
    dtype: np.dtype
    fortran_order: bool

    def matches(self, mapped: mmap.mmap) -> bool:
        """Does ``mapped`` start with exactly this header's bytes?"""
        return mapped[: len(self.header)] == self.header

    def array(self, mapped: mmap.mmap, path: str) -> np.ndarray:
        """The array ``mapped`` holds, as a view of it (read-only when
        the map is)."""
        try:
            return np.ndarray(
                self.shape, self.dtype, buffer=mapped, offset=len(self.header),
                order="F" if self.fortran_order else "C",
            )
        except TypeError as exc:  # header promises more bytes than exist
            raise StoreError(f"malformed shard {path!r}: {exc}") from exc


def read_npy_layout(mapped: mmap.mmap, path: str) -> NpyLayout:
    """Parse the ``.npy`` header at the start of ``mapped``.

    Same checks as ``np.load(..., allow_pickle=False)``: a bad magic
    string, an unsupported version, a malformed header dict or an object
    dtype raise :class:`StoreError` naming ``path``.
    """
    mapped.seek(0)
    try:
        version = np.lib.format.read_magic(mapped)
        reader = _NPY_HEADER_READERS.get(version)
        if reader is None:
            raise ValueError(f"unsupported .npy format version {version}")
        shape, fortran_order, dtype = reader(mapped)
    except ValueError as exc:
        raise StoreError(f"malformed shard {path!r}: {exc}") from exc
    if dtype.hasobject:
        raise StoreError(f"malformed shard {path!r}: object arrays are not stored")
    return NpyLayout(
        mapped[: mapped.tell()], tuple(shape), dtype, bool(fortran_order)
    )


@dataclass
class StoreReport:
    """Outcome of a :func:`verify_store` / :func:`repair_store` sweep."""

    root: str
    checked: int = 0
    corrupt: List[str] = field(default_factory=list)  # CRC mismatches
    truncated: List[str] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.corrupt or self.truncated or self.missing)

    @property
    def bad_paths(self) -> List[str]:
        return self.corrupt + self.truncated + self.missing

    def as_dict(self) -> Dict[str, Any]:
        return {
            "root": self.root,
            "ok": self.ok,
            "checked": self.checked,
            "corrupt": list(self.corrupt),
            "truncated": list(self.truncated),
            "missing": list(self.missing),
            "quarantined": list(self.quarantined),
        }


def _manifest_entries(manifest: Manifest) -> List[FileEntry]:
    entries = [f for _, f in sorted(manifest.files.items())]
    for part in manifest.partitions:
        entries.extend(f for _, f in sorted(part.files.items()))
    return entries


def verify_store(root: PathLike, checksum: bool = True) -> StoreReport:
    """Sweep every manifest-listed file; never raises on bad shards.

    Returns a :class:`StoreReport` classifying each failure as missing,
    truncated (size mismatch), or corrupt (CRC-32 mismatch — only with
    ``checksum=True``).  A malformed or absent manifest still raises
    :class:`StoreError` because there is nothing to sweep.
    """
    rootstr = os.fspath(root)
    manifest = Manifest.load(rootstr)
    report = StoreReport(root=rootstr)
    for entry in _manifest_entries(manifest):
        report.checked += 1
        try:
            verify_file(rootstr, entry, checksum=checksum)
        except StoreError as exc:
            getattr(report, exc.kind).append(entry.path)
    return report


def repair_store(root: PathLike, checksum: bool = True) -> StoreReport:
    """Quarantine every failing shard under ``<root>/_quarantine/``.

    Corrupt and truncated files are *moved* (never deleted) into the
    quarantine directory, preserving their relative layout, so a later
    page-in raises a typed "missing shard" :class:`StoreError` instead
    of reading undefined bytes.  Raises :class:`CorruptShardError`
    summarizing what was quarantined when anything failed; a clean
    store returns its report untouched.
    """
    rootstr = os.fspath(root)
    report = verify_store(rootstr, checksum=checksum)
    if report.ok:
        return report
    qdir = os.path.join(rootstr, QUARANTINE_DIRNAME)
    for rel in report.corrupt + report.truncated:
        dest = os.path.join(qdir, rel)
        os.makedirs(os.path.dirname(dest), exist_ok=True)
        os.replace(os.path.join(rootstr, rel), dest)
        report.quarantined.append(rel)
    raise CorruptShardError(
        f"store {rootstr!r}: quarantined {len(report.quarantined)} shard(s) "
        f"({len(report.missing)} already missing)",
        report.bad_paths,
        report=report,
    )


def is_store_dir(path: PathLike) -> bool:
    """Does ``path`` look like a store directory (has a manifest)?"""
    return os.path.isdir(os.fspath(path)) and os.path.exists(
        os.path.join(os.fspath(path), MANIFEST_FILENAME)
    )
