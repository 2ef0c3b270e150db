"""Compilation-based subgraph counting (the AutoMine approach).

AutoMine [26] harmonizes "high-level abstraction and high performance"
by *compiling* each pattern + matching order into specialized code
instead of interpreting a generic engine; GraphPi and GraphZero inherit
the idea.  :func:`generate_source` emits the source of a numpy frontier
program for one ``(pattern, order, restrictions)`` and
:func:`compile_matcher` ``exec``-compiles it.  It is the counting
engine: :func:`~repro.matching.backtrack.count_matches` runs it, serially
or fanned out over strided root arrays.  The program runs the
recurrence of the interpreted frontier counter
(:func:`~repro.matching.backtrack.frontier_count`) — one unrolled block
per order step, each extending a chunk of partial embeddings with one
batched gather — but everything the interpreter decides per level is
decided here once, at generation time:

* which backward neighbors are membership tests
  (:meth:`~repro.graph.store.handle.GraphHandle.edge_slots`) and which
  one is gathered (per row, the one with the fewest neighbors);
* **intermediate-set reuse**: when a step's backward-neighbor set
  contains an earlier step's set of two or more, the step iterates that
  step's sorted candidate segment instead of gathering again (only a
  segment gathered from the graph is reused, never a reused one), and a
  symmetry bound against the earlier vertex becomes a slice of the
  segment (``K4``'s last step reads the common neighbors of its first
  two vertices that lie after the third);
* the symmetry bounds left after transitive reduction, the vertex
  labels and the injectivity checks no bound already implies, as
  constants, run before the membership tests (a step whose segment is
  reused builds the segment first, cut only by the bounds every reader
  of it implies);
* which columns of the partial embedding each later block still reads
  (nothing else is carried).

Every block works on chunks of at most
:data:`~repro.matching.backtrack.FRONTIER_SLOT_CAP` gathered slots,
depth first across chunks (a reused segment lives in the chunk of the
step that built it, so its children finish before it goes); the last
step is counted, never materialized.  The program takes a
:class:`~repro.graph.csr.Graph` or any graph handle, so a stored graph
pages its adjacency through the shard cache, and an optional array of
root vertices (the first step's candidates).  Each block adds the slots
it gathers to one tally, the work counter serve charges.  Bench C3
measures the program against both interpreters; the planner asks
:func:`reuses_segment` to break ties between equal-cost orders.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..graph.kernels import gather_ranges
from ..graph.store.handle import as_handle, checked_vertex_ids
from ..lru import LRU
from . import backtrack  # a cycle: backtrack's names are read at call time
from .pattern import PatternGraph, symmetry_breaking_restrictions
from .plan import GraphStats, Planner

__all__ = [
    "generate_source",
    "compile_matcher",
    "compiled_count",
    "reuses_segment",
]


def smallest_first(degrees: np.ndarray, *columns: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Per row, the column vertex with the fewest neighbors, then the others.

    The gathered list of a step with several backward neighbors is the
    shortest one of each row; the others become membership tests.
    """
    stacked = np.stack(columns)
    pick = np.argmin(degrees[stacked], axis=0)
    rows = np.arange(stacked.shape[1])
    return tuple(
        stacked[(pick + shift) % len(columns), rows] for shift in range(len(columns))
    )


@dataclass
class _Step:
    """What the block of one order step does (decided at generation time)."""

    back: List[int]  # earlier steps adjacent in the pattern
    label: int
    reuse: Optional[int] = None  # earlier step whose segment this one iterates
    side: Optional[str] = None  # slice "after" / "before" that step's vertex
    tests: List[int] = field(default_factory=list)  # steps tested by name
    lower: List[int] = field(default_factory=list)  # bounds x > v_j
    upper: List[int] = field(default_factory=list)  # bounds x < v_j
    distinct: List[int] = field(default_factory=list)  # injectivity x != v_j
    edge_label: Dict[int, int] = field(default_factory=dict)
    source: bool = False  # a later step reuses this step's segment
    precut: str = ""  # "lower"/"upper": those bounds cut the segment


def _closure(pairs: Set[Tuple[int, int]], size: int) -> List[List[bool]]:
    """``less[a][b]``: ``v_a < v_b`` follows from ``pairs`` by transitivity."""
    less = [[False] * size for _ in range(size)]
    for a, b in pairs:
        less[a][b] = True
    for m in range(size):
        for a in range(size):
            if less[a][m]:
                for b in range(size):
                    less[a][b] = less[a][b] or less[m][b]
    return less


def _plan(
    pattern: PatternGraph,
    order: Sequence[int],
    restrictions: Sequence[Tuple[int, int]],
) -> List[_Step]:
    tables = backtrack.step_tables(pattern, order, restrictions)
    back, lt, gt = tables.back, tables.lt, tables.gt
    n = len(order)
    position_of = {pv: i for i, pv in enumerate(order)}
    pairs = {(position_of[u], position_of[v]) for u, v in restrictions}
    steps: List[_Step] = []
    for i in range(n):
        step = _Step(back=sorted(back[i]), label=tables.label[i])
        # Order relations the rows carry before this step's filters, and after.
        before = _closure({(a, b) for a, b in pairs if max(a, b) < i}, n)
        after = _closure({(a, b) for a, b in pairs if max(a, b) <= i}, n)
        # Transitive reduction: v_i > v_j is implied by v_i > v_j' > v_j.
        step.lower = [j for j in gt[i] if not any(before[j][m] for m in gt[i])]
        step.upper = [j for j in lt[i] if not any(before[m][j] for m in lt[i])]
        step.distinct = [j for j in range(i) if not (after[i][j] or after[j][i])]
        if tables.edge_label is not None:
            # Every pattern edge's label is checked through its slot, so
            # every backward neighbor is a test and no segment is reused
            # (a segment would carry the labels of another step's edges).
            step.tests = step.back
            step.edge_label = tables.edge_label[i]
        else:
            # Only a segment gathered from the graph is reused: a reader's
            # own segment is a slice of another, so a later reader would
            # inherit a bound it never checks.
            nested = [
                k for k in range(1, i)
                if len(back[k]) >= 2 and set(back[k]) <= set(back[i])
                and steps[k].reuse is None
            ]
            if nested:
                k = step.reuse = max(nested, key=lambda m: (len(back[m]), m))
                steps[k].source = True
                step.tests = [j for j in step.back if j not in back[k]]
                if after[k][i]:
                    step.side = "after"
                elif after[i][k]:
                    step.side = "before"
                # The slice enforces the bound against the reused vertex.
                step.lower = [j for j in step.lower if j != k]
                step.upper = [j for j in step.upper if j != k]
        steps.append(step)
    # A segment read only after (before) its own vertex never yields an
    # entry at or below (above) that vertex, so the step's lower (upper)
    # bounds may cut the segment ahead of its membership tests.
    for k, step in enumerate(steps):
        sides = {s.side for s in steps if s.reuse == k}
        if sides == {"after"}:
            step.precut = "lower"
        elif sides == {"before"}:
            step.precut = "upper"
    return steps


def reuses_segment(
    pattern: PatternGraph,
    order: Sequence[int],
    restrictions: Sequence[Tuple[int, int]],
) -> bool:
    """Whether the program for ``order`` has a step that iterates an
    earlier step's candidate segment (the planner's tie-break)."""
    return any(step.reuse is not None for step in _plan(pattern, order, restrictions))


#: Per slice side, the row columns of the reused step that bound the
#: slice: segment begin ``b``, own position ``p``, segment end ``e``.
_SLICES = {"after": ("p", "e"), "before": ("b", "p"), None: ("b", "e")}


def _defines(i: int, step: _Step) -> Set[str]:
    names = {f"v{i}"}
    if step.source:
        names |= {f"s{i}", f"b{i}", f"p{i}", f"e{i}"}
    return names


def _uses(step: _Step) -> Set[str]:
    cols = set(step.tests) | set(step.lower) | set(step.upper) | set(step.distinct)
    k = step.reuse
    if k is None:
        return {f"v{j}" for j in cols | set(step.back)}
    return {f"v{j}" for j in cols} | {f"s{k}"} | {f"{c}{k}" for c in _SLICES[step.side]}


def generate_source(
    pattern: PatternGraph,
    order: Sequence[int],
    restrictions: Sequence[Tuple[int, int]],
    func_name: str = "count_pattern",
) -> str:
    """Emit the source of a counting program specialized to its inputs.

    The generated function has signature ``func(graph, roots=None) ->
    int`` and returns ``func_tallied(graph, roots)[0]``, where
    ``func_tallied`` (defined beside it) returns ``(count, tally)``.  It
    takes a :class:`~repro.graph.csr.Graph` or a graph handle, counts the
    embeddings whose first order vertex is in ``roots`` (every vertex
    when ``None``; an id outside the graph raises ``IndexError``), and
    defines one nested block ``step<i>`` per order step after the first
    (module docstring).  Vertex labels are filtered as the interpreters
    do (only on a vertex-labelled graph).  An edge-labelled pattern checks
    each pattern edge's label as ``edge_labels[slot]`` and raises
    ``ValueError`` on a graph without edge labels.
    """
    order = backtrack._validate_order(pattern, order)
    n = len(order)
    steps = _plan(pattern, order, restrictions)
    live: List[List[str]] = [[] for _ in range(n + 1)]
    for i in range(n - 1, 0, -1):
        carried = set(live[i + 1]) - _defines(i, steps[i])
        live[i] = sorted(carried | _uses(steps[i]))

    out = [
        f"def {func_name}(graph, roots=None):",
        f"    return {func_name}_tallied(graph, roots)[0]",
        "",
        "",
        f"def {func_name}_tallied(graph, roots=None):",
        "    g = as_handle(graph)",
        "    expand, edge_slots = g.expand_frontier, g.edge_slots",
        "    degrees = np.asarray(g.degrees(), dtype=np.int64)",
        "    labels = g.vertex_labels",
        "    tally = [0]",
    ]
    if pattern.graph.edge_labels is not None:
        out += [
            "    edge_labels = g.edge_labels",
            "    if edge_labels is None:",
            "        raise ValueError('the pattern has edge labels, the graph has none')",
        ]
    for i in range(1, n):
        out += _block(i, steps[i], live[i], live[i + 1], last=i == n - 1)
    out += [
        "",
        "    if roots is None:",
        "        v0 = np.arange(g.num_vertices, dtype=np.int64)",
        "    else:",
        "        v0 = checked_vertex_ids(roots, g.num_vertices)",
        "    tally[0] += int(v0.size)",
        "    if labels is not None:",
        f"        v0 = v0[labels[v0] == {steps[0].label}]",
        f"    return step1({', '.join(live[1])}), tally[0]" if n > 1
        else "    return int(v0.size), tally[0]",
    ]
    return "\n".join(out) + "\n"


def _block(
    i: int, step: _Step, args: List[str], child_args: List[str], last: bool
) -> List[str]:
    """Source lines of the nested block ``step<i>`` (module docstring)."""
    pad = " " * 12
    out = ["", f"    def step{i}({', '.join(args)}):", "        total = 0"]
    rowwise = [a for a in args if not a.startswith("s")]  # segments are shared
    tests = [(f"v{j}_[own]", step.edge_label.get(j)) for j in step.tests]
    k = step.reuse
    if k is not None:
        start, stop = (f"{c}{k}" for c in _SLICES[step.side])
        if step.side == "after":
            start += " + 1"  # past the reused vertex itself
        out += [
            f"        starts, stops = {start}, {stop}",
            "        for lo, hi in slot_chunks(stops - starts):",
        ]
        gather = f"gather_ranges(s{k}, starts[lo:hi], stops[lo:hi])"
    elif len(step.back) == 1:
        out.append(f"        for lo, hi in slot_chunks(degrees[v{step.back[0]}]):")
        gather = f"expand(v{step.back[0]}_)"
    else:
        picked = ["h"]
        if not step.tests:
            # The other backward neighbors of each row are the tests.
            picked += [f"o{t}" for t in range(1, len(step.back))]
            tests = [(f"{o}_[own]", None) for o in picked[1:]]
        cols = ", ".join(f"v{j}" for j in step.back)
        out += [
            f"        {', '.join(picked)}, *_ = smallest_first(degrees, {cols})",
            "        for lo, hi in slot_chunks(degrees[h]):",
        ]
        rowwise = rowwise + picked
        gather = "expand(h_)"
    out += [f"{pad}{a}_ = {a}[lo:hi]" for a in rowwise]
    out += [f"{pad}own, x = {gather}", f"{pad}tally[0] += x.size"]

    lower = [f"(x > v{j}_[own])" for j in step.lower]
    upper = [f"(x < v{j}_[own])" for j in step.upper]
    distinct = [f"(x != v{j}_[own])" for j in step.distinct]
    pre: List[str] = []
    if step.precut == "lower":
        pre, lower = lower, []
    elif step.precut == "upper":
        pre, upper = upper, []
    cheap = lower + upper + distinct

    def compress(mask: str) -> List[str]:
        return [f"{pad}keep = {mask}", f"{pad}own, x = own[keep], x[keep]"]

    def membership(u: str, label: Optional[int]) -> str:
        if label is None:
            return f"edge_slots({u}, x) >= 0"
        return f"_labelled(edge_slots({u}, x), edge_labels, {label})"

    label_filter = [
        f"{pad}if labels is not None:",
        f"{pad}    keep = labels[x] == {step.label}",
        f"{pad}    own, x = own[keep], x[keep]",
    ]
    if step.source:
        # Build the segment (pre-cut, then membership), keep its row
        # bounds, and pass the survivors of the remaining filters down.
        if pre:
            out += compress(" & ".join(pre))
        for u, label in tests:
            out += compress(membership(u, label))
        out += [
            f"{pad}counts = np.bincount(own, minlength=hi - lo)",
            f"{pad}ends = np.cumsum(counts)",
            f"{pad}q = np.flatnonzero({' & '.join(cheap)})" if cheap
            else f"{pad}q = np.arange(x.size)",
            f"{pad}if labels is not None:",
            f"{pad}    q = q[labels[x[q]] == {step.label}]",
            f"{pad}rows = own[q]",
        ]
        values = {
            f"v{i}": "x[q]", f"s{i}": "x", f"p{i}": "q",
            f"e{i}": "ends[rows]", f"b{i}": "(ends - counts)[rows]",
        }
        index = "rows"
    else:
        if cheap:
            out += compress(" & ".join(cheap))
        out += label_filter
        if last and tests:
            for u, label in tests[:-1]:
                out += compress(membership(u, label))
            u, label = tests[-1]
            out.append(f"{pad}total += int(np.count_nonzero({membership(u, label)}))")
            return out + ["        return total"]
        for u, label in tests:
            out += compress(membership(u, label))
        if last:
            return out + [f"{pad}total += int(x.size)", "        return total"]
        values = {f"v{i}": "x"}
        index = "own"
    passed = [
        values.get(a, a if a.startswith("s") else f"{a}_[{index}]") for a in child_args
    ]
    out.append(f"{pad}total += step{i + 1}({', '.join(passed)})")
    return out + ["        return total"]


def _labelled(slots: np.ndarray, edge_labels: np.ndarray, label: int) -> np.ndarray:
    """Mask: the slot holds an edge (``>= 0``) that carries ``label``."""
    found = slots >= 0
    found[found] = edge_labels[slots[found]] == label
    return found


def compile_matcher(
    pattern: PatternGraph,
    order: Optional[Sequence[int]] = None,
    restrictions: Optional[Sequence[Tuple[int, int]]] = None,
) -> Callable[..., int]:
    """Compile a counting program for ``pattern``: ``func(graph, roots=None) -> int``.

    ``roots`` is an array of first-step vertices (``None``: every
    vertex); the counts of disjoint root arrays sum to the whole count,
    which is how :func:`~repro.matching.backtrack.count_matches` fans a
    program out.  ``func.tallied(graph, roots=None)`` runs the same
    program and returns ``(count, tally)``: the roots plus every slot a
    block gathered, additive over root arrays like the count.
    ``func.order`` is the order the program was compiled for.

    The order defaults to the planner's choice under a generic power-law
    stats profile; restrictions default to the pattern's
    symmetry-breaking set (pass ``[]`` to count all automorphic images).
    Programs are cached by pattern structure, order and restrictions, so
    asking again costs a lookup, not a plan, a generation and an
    ``exec``.
    """
    graph = pattern.graph
    key = (
        graph.indptr.tobytes(),
        graph.indices.tobytes(),
        None if graph.vertex_labels is None else graph.vertex_labels.tobytes(),
        None if graph.edge_labels is None else graph.edge_labels.tobytes(),
        None if order is None else tuple(int(v) for v in order),
        None if restrictions is None else tuple((int(u), int(v)) for u, v in restrictions),
    )
    with _PROGRAMS_LOCK:
        func = _PROGRAMS.get(key)
        if func is None:
            func = _compile(pattern, order, restrictions)
            _PROGRAMS.put(key, func)
    return func


#: Compiled programs by (pattern structure and labels, order, restrictions).
_PROGRAMS = LRU(budget=64)
_PROGRAMS_LOCK = threading.Lock()


def _compile(pattern, order, restrictions) -> Callable[..., int]:
    if order is None:
        
        planner = Planner(
            GraphStats(num_vertices=100_000, avg_degree=16.0, max_degree=1000)
        )
        order = planner.plan(pattern).order
    if restrictions is None:
        restrictions = symmetry_breaking_restrictions(pattern)
    source = generate_source(pattern, order, restrictions)
    namespace: dict = {
        "np": np,
        "as_handle": as_handle,
        "checked_vertex_ids": checked_vertex_ids,
        "gather_ranges": gather_ranges,
        "slot_chunks": backtrack.slot_chunks,
        "smallest_first": smallest_first,
        "_labelled": _labelled,
    }
    exec(compile(source, "<pattern-codegen>", "exec"), namespace)
    func = namespace["count_pattern"]
    func.tallied = namespace["count_pattern_tallied"]
    func.order = tuple(int(v) for v in order)
    func.__source__ = source  # for inspection/tests
    return func


def compiled_count(graph, pattern: PatternGraph, order=None) -> int:
    """Count distinct instances of ``pattern`` in a graph or handle with
    a compiled program."""
    return int(compile_matcher(pattern, order=order)(graph))
