"""Reverse-mode automatic differentiation over numpy arrays.

The DL-framework substrate for the GNN systems of Section 3: PyTorch/TF
are not available offline, so this module provides the minimal autograd
the GNN layers need — dense ops, matmul, gather/scatter for
neighborhood aggregation, softmax/log-softmax, and the usual activations
— gradient-checked against finite differences in the tests.

The design intentionally separates the *graph* of dependencies from the
*operators* (each op records only its parents and a backward closure),
mirroring NeutronStar's [43] observation that dependency management and
NN functions are separable concerns.

Two contracts keep training cheap without changing a bit of it:

* **Order-preserving aggregation.**  ``scatter_add``, the backward of
  ``gather_rows`` and both directions of :meth:`Tensor.propagate` sum
  rows into buckets with one ``np.bincount`` over the flat
  ``row·width + col`` index of every element (:meth:`RowBuckets.sum`).
  ``bincount`` adds each bucket's weights in element order starting
  from zero — the order the unbuffered ``np.add`` scatter
  (``ufunc.at``) applies them to a zeroed array — so the sums are
  bit-identical to it, without that scatter's per-element dispatch.
  Indices outside ``[0, rows)`` raise ``IndexError`` instead of
  wrapping.
* **One node per message pass.**  :meth:`Tensor.propagate` is gather ·
  weight · scatter as a single tape node over two :class:`RowBuckets`
  (the edge list's source and target sides), which keep the flat index
  of each width they have summed at.  Its values and gradients are the
  three primitives' bits: the products are the same, and each bucket
  adds them in the same order.
* **Live tape only.**  A tensor is *live* when it requires grad or has
  a tape of its own.  An op records its parents and backward closure
  only when some parent is live, and the binary ops' closures compute
  gradients only for live operands, so work over constants (a GNN's
  first-layer aggregation of the input features, products with the
  fixed ``gcn_norm``) is never taped nor differentiated.  Gradients can
  flow from a live tensor only to live tensors, so no gradient that
  reaches a parameter changes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..graph.store.handle import checked_vertex_ids

__all__ = ["Tensor", "Parameter", "RowBuckets", "no_grad"]

ArrayLike = Union[np.ndarray, float, int, Sequence]

_grad_enabled = True


class no_grad:
    """Context manager disabling graph construction (inference mode)."""

    def __enter__(self) -> None:
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False

    def __exit__(self, *exc) -> None:
        global _grad_enabled
        _grad_enabled = self._prev


class Tensor:
    """A numpy array with an optional gradient tape entry."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad and _grad_enabled
        if _grad_enabled and any(p.live for p in _parents):
            self._parents = _parents
            self._backward = _backward
        else:
            self._parents = ()
            self._backward = None
        self.name = name

    @property
    def live(self) -> bool:
        """Whether a gradient reaching this tensor can matter: it
        requires grad itself or was computed from one that does."""
        return self.requires_grad or bool(self._parents)

    # -- construction helpers ---------------------------------------------

    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def randn(*shape: int, scale: float = 1.0, seed: Optional[int] = None,
              requires_grad: bool = False) -> "Tensor":
        rng = np.random.default_rng(seed)
        return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=requires_grad)

    # -- shape -------------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- autograd core ------------------------------------------------------

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor (default seed: ones)."""
        if grad is None:
            grad = np.ones_like(self.data)
        # Depth-first post-order of the tape, parents in recorded order,
        # on an explicit stack: a deep tape needs no Python recursion,
        # and nothing outlives the call to keep the tape alive.
        topo: List[Tensor] = []
        seen = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            t, parents = stack[-1]
            for p in parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    break
            else:
                stack.pop()
                topo.append(t)
        grads = {id(self): np.asarray(grad, dtype=np.float64)}
        for t in reversed(topo):
            g = grads.pop(id(t), None)
            if g is None:
                continue
            if t.requires_grad:
                t.grad = g if t.grad is None else t.grad + g
            if t._backward is not None:
                for parent, pg in t._backward(g):
                    if parent.live:
                        prev = grads.get(id(parent))
                        grads[id(parent)] = pg if prev is None else prev + pg

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    # -- operators -----------------------------------------------------------

    def _coerce(self, other: ArrayLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)

        def backward(g: np.ndarray):
            out = []
            if self.live:
                out.append((self, _unbroadcast(g, self.data.shape)))
            if other.live:
                out.append((other, _unbroadcast(g, other.data.shape)))
            return out

        return Tensor(
            self.data + other.data,
            _parents=(self, other),
            _backward=backward,
        )

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray):
            return ((self, -g),)

        return Tensor(-self.data, _parents=(self,), _backward=backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)

        def backward(g: np.ndarray):
            out = []
            if self.live:
                out.append((self, _unbroadcast(g * other.data, self.data.shape)))
            if other.live:
                out.append((other, _unbroadcast(g * self.data, other.data.shape)))
            return out

        return Tensor(
            self.data * other.data, _parents=(self, other), _backward=backward
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)

        def backward(g: np.ndarray):
            out = []
            if self.live:
                out.append((self, _unbroadcast(g / other.data, self.data.shape)))
            if other.live:
                out.append((
                    other,
                    _unbroadcast(-g * self.data / other.data ** 2, other.data.shape),
                ))
            return out

        return Tensor(
            self.data / other.data, _parents=(self, other), _backward=backward
        )

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)

        def backward(g: np.ndarray):
            out = []
            if self.live:
                out.append((self, g @ other.data.T))
            if other.live:
                out.append((other, self.data.T @ g))
            return out

        return Tensor(
            self.data @ other.data, _parents=(self, other), _backward=backward
        )

    def __pow__(self, exponent: float) -> "Tensor":
        def backward(g: np.ndarray):
            return ((self, g * exponent * self.data ** (exponent - 1)),)

        return Tensor(self.data ** exponent, _parents=(self,), _backward=backward)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        def backward(g: np.ndarray):
            if axis is None:
                pg = np.full_like(self.data, 1.0) * g
            else:
                pg = np.broadcast_to(
                    np.expand_dims(g, axis) if not keepdims else g, self.data.shape
                ).copy()
            return ((self, pg),)

        return Tensor(
            self.data.sum(axis=axis, keepdims=keepdims),
            _parents=(self,),
            _backward=backward,
        )

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        out = self.data.max(axis=axis, keepdims=True)

        def backward(g: np.ndarray):
            mask = (self.data == out).astype(np.float64)
            mask /= mask.sum(axis=axis, keepdims=True)
            gg = g if keepdims else np.expand_dims(g, axis)
            return ((self, mask * gg),)

        return Tensor(
            out if keepdims else out.squeeze(axis),
            _parents=(self,),
            _backward=backward,
        )

    # -- elementwise nonlinearities ---------------------------------------

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(g: np.ndarray):
            return ((self, g * mask),)

        return Tensor(self.data * mask, _parents=(self,), _backward=backward)

    def sigmoid(self) -> "Tensor":
        out = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60, 60)))

        def backward(g: np.ndarray):
            return ((self, g * out * (1 - out)),)

        return Tensor(out, _parents=(self,), _backward=backward)

    def tanh(self) -> "Tensor":
        out = np.tanh(self.data)

        def backward(g: np.ndarray):
            return ((self, g * (1 - out ** 2)),)

        return Tensor(out, _parents=(self,), _backward=backward)

    def exp(self) -> "Tensor":
        out = np.exp(np.clip(self.data, -60, 60))

        def backward(g: np.ndarray):
            return ((self, g * out),)

        return Tensor(out, _parents=(self,), _backward=backward)

    def log(self) -> "Tensor":
        def backward(g: np.ndarray):
            return ((self, g / self.data),)

        return Tensor(np.log(self.data), _parents=(self,), _backward=backward)

    def leaky_relu(self, alpha: float = 0.2) -> "Tensor":
        mask = np.where(self.data > 0, 1.0, alpha)

        def backward(g: np.ndarray):
            return ((self, g * mask),)

        return Tensor(self.data * mask, _parents=(self,), _backward=backward)

    # -- shaping ------------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        old = self.data.shape

        def backward(g: np.ndarray):
            return ((self, g.reshape(old)),)

        return Tensor(self.data.reshape(shape), _parents=(self,), _backward=backward)

    @property
    def T(self) -> "Tensor":
        def backward(g: np.ndarray):
            return ((self, g.T),)

        return Tensor(self.data.T, _parents=(self,), _backward=backward)

    def concat(self, other: "Tensor", axis: int = 1) -> "Tensor":
        other = self._coerce(other)
        split = self.data.shape[axis]

        def backward(g: np.ndarray):
            ga, gb = np.split(g, [split], axis=axis)
            return ((self, ga), (other, gb))

        return Tensor(
            np.concatenate([self.data, other.data], axis=axis),
            _parents=(self, other),
            _backward=backward,
        )

    # -- gather / scatter: the GNN aggregation primitives --------------------

    def gather_rows(self, index: np.ndarray) -> "Tensor":
        """Rows ``self[index]`` — the feature-fetch of a GNN layer."""
        rows = RowBuckets(index, len(self.data))

        def backward(g: np.ndarray):
            return ((self, rows.sum(g)),)

        return Tensor(
            np.take(self.data, rows.index, axis=0), _parents=(self,), _backward=backward
        )

    def scatter_add(self, index: np.ndarray, num_rows: int) -> "Tensor":
        """Sum rows of ``self`` into ``num_rows`` buckets by ``index``.

        The aggregation kernel: ``out[index[i]] += self[i]``.
        """
        buckets = RowBuckets(index, num_rows)

        def backward(g: np.ndarray):
            return ((self, np.take(g, buckets.index, axis=0)),)

        return Tensor(buckets.sum(self.data), _parents=(self,), _backward=backward)

    def propagate(self, source: "RowBuckets", target: "RowBuckets",
                  weight: Optional[np.ndarray] = None) -> "Tensor":
        """One message pass: ``out[target[e]] += weight[e] · self[source[e]]``.

        ``source`` and ``target`` are the two sides of one edge list
        (``source.num_rows`` must be ``len(self)``); ``weight`` is a
        constant per message (``E`` values, shaped ``(E, 1)``) or
        ``None`` for plain sums.  A single tape node with the bits of
        ``gather_rows(source.index) * weight`` then
        ``scatter_add(target.index, target.num_rows)``, values and
        gradients alike; its backward is the same op transposed, the
        gradient rows gathered by ``target``, weighted, and summed by
        ``source``.
        """
        num_messages = source.index.size
        if len(self.data) != source.num_rows or target.index.size != num_messages:
            raise ValueError(
                f"propagate needs {source.num_rows} rows and {num_messages} "
                f"targets; got {len(self.data)} rows, {target.index.size} targets"
            )
        trailing = self.data.shape[1:]
        if weight is not None:
            # One weight per message element, laid out like the messages:
            # a product of two dense arrays is one flat loop, where a
            # broadcast column is one short loop per message.  Same
            # products, so the same bits.
            weight = np.repeat(
                np.asarray(weight, dtype=np.float64).reshape(num_messages, 1),
                int(np.prod(trailing)), axis=1,
            ).reshape((num_messages,) + trailing)

        def messages(rows: np.ndarray, index: np.ndarray) -> np.ndarray:
            picked = np.take(rows, index, axis=0)
            if weight is not None:
                np.multiply(picked, weight, out=picked)
            return picked

        def backward(g: np.ndarray):
            return ((self, source.sum(messages(g, target.index))),)

        return Tensor(
            target.sum(messages(self.data, source.index)),
            _parents=(self,),
            _backward=backward,
        )

    def scatter_max(self, index: np.ndarray, num_rows: int) -> "Tensor":
        """Element-wise max of rows per bucket (empty buckets read 0).

        The max-pool aggregation kernel of GraphSAGE-pool; the gradient
        of each ``(bucket, column)`` flows to the first row in scan order
        attaining its max.  A bucket whose max is infinite reads 0 and
        passes no gradient, like an empty one.
        """
        index = checked_vertex_ids(index, num_rows)
        trailing = self.data.shape[1:]
        width = int(np.prod(trailing))
        # Rows grouped by bucket, scan order kept within each bucket.
        order = np.argsort(index, kind="stable")
        ranked = self.data.reshape(index.size, width)[order]
        bucket = index[order]
        starts = np.flatnonzero(np.diff(bucket, prepend=-1))
        owners = bucket[starts]
        peak = np.maximum.reduceat(ranked, starts, axis=0)
        hit = ranked == np.repeat(peak, np.diff(np.append(starts, index.size)), axis=0)
        # The unbuffered ``np.maximum`` scatter (``ufunc.at``) keeps the
        # *last* row attaining the max; its bits (a zero max's sign) are
        # the ones the bucket reads.
        position = np.arange(index.size)[:, None]
        last = np.maximum.reduceat(np.where(hit, position, -1), starts, axis=0)
        peak = np.where(last >= 0, ranked[last, np.arange(width)], peak)
        out = np.full((num_rows, width), -np.inf)
        out[owners] = peak
        empty = np.isinf(out)
        out = np.where(empty, 0.0, out)

        def backward(g: np.ndarray):
            first = np.minimum.reduceat(
                np.where(hit, position, index.size), starts, axis=0
            )
            seg, col = np.nonzero((first < index.size) & ~empty[owners])
            pg = np.zeros((index.size, width))
            pg[order[first[seg, col]], col] = g.reshape(num_rows, width)[owners[seg], col]
            return ((self, pg.reshape(self.data.shape)),)

        return Tensor(
            out.reshape((num_rows,) + trailing),
            _parents=(self,),
            _backward=backward,
        )

    # -- losses ----------------------------------------------------------------

    def log_softmax(self, axis: int = 1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out = shifted - log_z
        softmax = np.exp(out)

        def backward(g: np.ndarray):
            return ((self, g - softmax * g.sum(axis=axis, keepdims=True)),)

        return Tensor(out, _parents=(self,), _backward=backward)

    def cross_entropy(self, targets: np.ndarray) -> "Tensor":
        """Mean negative log-likelihood of integer ``targets``."""
        targets = np.asarray(targets, dtype=np.int64)
        logp = self.log_softmax(axis=1)
        n = self.data.shape[0]
        picked_data = logp.data[np.arange(n), targets]

        def backward(g: np.ndarray):
            pg = np.zeros_like(logp.data)
            pg[np.arange(n), targets] = -g / n
            return ((logp, pg),)

        return Tensor(
            -picked_data.mean(), _parents=(logp,), _backward=backward
        )


class Parameter(Tensor):
    """A trainable tensor (always requires grad)."""

    def __init__(self, data: ArrayLike, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class RowBuckets:
    """One side of an edge list as scatter buckets: ``index`` into
    ``num_rows`` rows, checked once (``IndexError`` outside
    ``[0, num_rows)``).

    :meth:`sum` adds rows into their buckets with one ``np.bincount``
    over a flat index that sends element ``(i, col)`` of ``width``-wide
    rows to bucket ``index[i]·width + col``, listed in element order.
    Each ``(row, col)`` bucket starts at zero and adds its elements in
    row order, exactly as the unbuffered ``np.add`` scatter
    (``ufunc.at``) does, so the result is bit-identical to it.  The
    flat index of each width is built once and kept.
    """

    __slots__ = ("index", "num_rows", "_flat")

    def __init__(self, index: ArrayLike, num_rows: int) -> None:
        self.index = checked_vertex_ids(index, num_rows)
        self.num_rows = int(num_rows)
        self._flat: Dict[int, np.ndarray] = {}

    def sum(self, values: np.ndarray) -> np.ndarray:
        """``out[index[i]] += values[i]`` into ``num_rows`` zeroed rows."""
        trailing = values.shape[1:]
        width = int(np.prod(trailing))
        if not self.index.size or not width:  # bincount of nothing is int64
            return np.zeros((self.num_rows,) + trailing)
        flat = self._flat.get(width)
        if flat is None:
            flat = (self.index[:, None] * width + np.arange(width)).reshape(-1)
            self._flat[width] = flat
        out = np.bincount(flat, weights=values.reshape(-1),
                          minlength=self.num_rows * width)
        return out.reshape((self.num_rows,) + trailing)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad
