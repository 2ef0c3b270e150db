"""Activation compression for memory-bounded GNN training (EXACT).

EXACT [23] shrinks GNN training *memory* (not network traffic) by
storing the activations retained for the backward pass in extreme
low-bit form, dequantizing on use; F²CGT [24] extends the idea with
two-level feature compression.

Our autograd retains parents' forward outputs inside backward closures,
so the faithful reproduction is a **checkpoint-with-compression**
trainer: the forward pass stores each layer's *input* activations
quantized (:mod:`repro.gnn.quantization`), frees the exact copies, and
the backward pass recomputes each layer locally from the dequantized
inputs.  The gradient error introduced is therefore exactly EXACT's
quantization error — measurable against the uncompressed run — and the
resident-activation footprint is measurable in bytes.

:func:`train_compressed` trains a :class:`~repro.gnn.models.NodeClassifier`
this way and reports accuracy plus activation-memory bytes per step;
:func:`activation_memory` sizes the uncompressed baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..graph.csr import Graph
from .models import NodeClassifier
from .quantization import compressed_nbytes, quantize_dequantize
from .tensor import Tensor, no_grad
from .train import TrainReport, _backward_loss, _full_graph_loop

__all__ = ["activation_memory", "train_compressed", "CompressedReport"]


@dataclass
class CompressedReport:
    """Training outcome + memory accounting."""

    report: TrainReport
    activation_bytes_exact: int
    activation_bytes_compressed: int

    @property
    def memory_ratio(self) -> float:
        if self.activation_bytes_exact == 0:
            return 1.0
        return self.activation_bytes_compressed / self.activation_bytes_exact


def activation_memory(graph: Graph, dims: List[int]) -> int:
    """Bytes of fp64 activations retained across a forward pass."""
    return sum(graph.num_vertices * d * 8 for d in dims)


def train_compressed(
    model: NodeClassifier,
    graph: Graph,
    features: np.ndarray,
    labels: np.ndarray,
    train_mask: np.ndarray,
    val_mask: Optional[np.ndarray] = None,
    bits: Optional[int] = 2,
    epochs: int = 30,
    lr: float = 0.01,
    seed: int = 0,
) -> CompressedReport:
    """Layer-recomputation training with quantized stored activations.

    ``bits=None`` stores exact activations (the recomputation-only
    baseline — gradients then match plain training to float precision,
    which the tests assert).
    """
    rng = np.random.default_rng(seed)
    num_layers = model.num_layers
    input_dims = [features.shape[1]] + [
        layer.weight.shape[1] for layer in model.layers[:-1]
    ]

    exact_bytes = activation_memory(graph, input_dims)
    if bits is None:
        stored_bytes = exact_bytes
    else:
        stored_bytes = sum(
            compressed_nbytes((graph.num_vertices, d), bits)
            for d in input_dims
        )

    def step(model, gt, x, labels, train_idx) -> float:
        # ---- forward: run layer by layer, storing (possibly lossy)
        # copies of each layer's input, freeing the autograd graph.
        stored_inputs: List[np.ndarray] = []
        h = x.data
        for i in range(num_layers):
            if bits is None:
                stored_inputs.append(h.copy())
            else:
                stored_inputs.append(quantize_dequantize(h, bits, rng=rng))
            with no_grad():
                out = model.forward_layer(i, gt, Tensor(h))
            h = out.data

        # ---- backward: recompute each layer from its stored input.
        grad_out: Optional[np.ndarray] = None
        loss_value = 0.0
        for i in reversed(range(num_layers)):
            x_in = Tensor(stored_inputs[i], requires_grad=True)
            out = model.forward_layer(i, gt, x_in)
            if i == num_layers - 1:
                loss_value = _backward_loss(out, labels, train_idx)
            else:
                out.backward(grad_out)
            # The gradient w.r.t. this layer's input feeds the next
            # recomputation step down the stack.
            grad_out = _input_gradient(x_in)
        return loss_value

    return CompressedReport(
        report=_full_graph_loop(
            model, graph, features, labels, train_mask, val_mask, epochs,
            lr, step,
        ),
        activation_bytes_exact=exact_bytes,
        activation_bytes_compressed=stored_bytes,
    )


def _input_gradient(x: Tensor) -> np.ndarray:
    if x.grad is None:
        raise RuntimeError("layer input did not receive a gradient")
    return x.grad
