"""G²-AIMD-style chunked BFS extension with adaptive chunk sizing.

G²-AIMD [62] keeps the GPU-friendly BFS extension of GSI/cuTS but
avoids the intermediate-embedding explosion with two mechanisms the
tutorial calls out:

* **adaptive chunk-size adjustment** — instead of expanding a whole
  level at once, expand a *chunk* of embeddings; grow the chunk size
  additively while expansions fit in device memory, and halve it
  (multiplicative decrease) when an expansion would overflow — the
  classic AIMD control loop;
* **host-memory subgraph buffering** — embeddings that do not fit on
  the device spill to a host-side buffer and are consumed chunk by
  chunk.

Each chunk extends with the canonical step of
:func:`repro.tlag.bfs_engine.canonical_extensions`, the one BFS systems
share.  This module simulates both against an explicit ``device_capacity``
budget (max embeddings resident on the "device") and reports the
control-loop trace, so bench C5 can show: plain BFS overflows the
device at the explosion level, while AIMD completes with bounded
device residency at the cost of more, smaller kernel launches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..graph.csr import Graph
from .bfs_engine import canonical_extensions

__all__ = ["AimdStats", "DeviceOverflow", "aimd_enumerate"]


class DeviceOverflow(RuntimeError):
    """Raised when a non-adaptive BFS expansion exceeds device capacity."""


@dataclass
class AimdStats:
    """Control-loop trace of one AIMD run."""

    chunk_trace: List[int] = field(default_factory=list)
    launches: int = 0
    peak_device_embeddings: int = 0
    peak_host_buffer: int = 0
    decreases: int = 0
    results: int = 0


def aimd_enumerate(
    graph: Graph,
    k: int,
    device_capacity: int,
    keep_filter: Optional[Callable[[Tuple[int, ...], Graph], bool]] = None,
    initial_chunk: int = 64,
    additive_increase: int = 64,
    adaptive: bool = True,
) -> Tuple[List[Tuple[int, ...]], AimdStats]:
    """Enumerate connected k-subgraphs by chunked BFS extension.

    Parameters
    ----------
    device_capacity:
        Max embeddings that may be resident in "device memory" during one
        expansion (input chunk + its outputs).
    adaptive:
        With ``False`` the whole frontier is expanded at once (the
        GSI/cuTS regime) and :class:`DeviceOverflow` is raised when it
        does not fit — the failure mode G²-AIMD eliminates.

    Returns ``(final_embeddings, stats)``.
    """
    keep = keep_filter or (lambda emb, g: True)
    stats = AimdStats()
    # Host buffer holds the current level's pending embeddings.
    host: List[Tuple[int, ...]] = [
        (v,) for v in graph.vertices() if keep((v,), graph)
    ]
    stats.peak_host_buffer = len(host)
    chunk = initial_chunk

    for size in range(2, k + 1):
        next_host: List[Tuple[int, ...]] = []
        cursor = 0
        while cursor < len(host):
            if not adaptive:
                take = len(host)
            else:
                take = min(chunk, len(host) - cursor)
            batch = host[cursor: cursor + take]
            outputs = _expand_batch(graph, batch, keep)
            resident = len(batch) + len(outputs)
            if resident > device_capacity:
                if not adaptive:
                    raise DeviceOverflow(
                        f"level {size}: {resident} embeddings exceed device "
                        f"capacity {device_capacity}"
                    )
                if take == 1:
                    # A single embedding's expansion overflows: spill its
                    # outputs straight through the host buffer (G²-AIMD's
                    # host-memory buffering makes this safe).
                    stats.launches += 1
                    stats.chunk_trace.append(take)
                    stats.peak_device_embeddings = max(
                        stats.peak_device_embeddings, resident
                    )
                    next_host.extend(outputs)
                    stats.peak_host_buffer = max(
                        stats.peak_host_buffer, len(next_host) + len(host) - cursor
                    )
                    cursor += 1
                    chunk = 1
                    continue
                # Multiplicative decrease and retry with a smaller chunk.
                chunk = max(1, take // 2)
                stats.decreases += 1
                continue
            stats.launches += 1
            stats.chunk_trace.append(take)
            stats.peak_device_embeddings = max(stats.peak_device_embeddings, resident)
            next_host.extend(outputs)
            stats.peak_host_buffer = max(
                stats.peak_host_buffer, len(next_host) + len(host) - cursor
            )
            cursor += take
            if adaptive:
                chunk = chunk + additive_increase  # additive increase
        host = next_host
    stats.results = len(host)
    return host, stats


def _expand_batch(
    graph: Graph,
    batch: List[Tuple[int, ...]],
    keep: Callable[[Tuple[int, ...], Graph], bool],
) -> List[Tuple[int, ...]]:
    """Expand a chunk of embeddings by one vertex (canonical, filtered)."""
    outputs: List[Tuple[int, ...]] = []
    for emb in batch:
        extensions, _ = canonical_extensions(graph, emb)
        outputs.extend(e for e in extensions if keep(e, graph))
    return outputs
