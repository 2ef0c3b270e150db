"""Autograd: every op gradient-checked against finite differences."""

import gc
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import load_all
from repro.gnn.tensor import Parameter, RowBuckets, Tensor, no_grad


def numeric_gradient(f, x: Parameter, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued f at x."""
    grad = np.zeros_like(x.data)
    it = np.nditer(x.data, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x.data[idx]
        x.data[idx] = orig + eps
        plus = float(f().data)
        x.data[idx] = orig - eps
        minus = float(f().data)
        x.data[idx] = orig
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


def check_gradient(build_loss, *params, tol=1e-5):
    for p in params:
        p.zero_grad()
    loss = build_loss()
    loss.backward()
    for p in params:
        numeric = numeric_gradient(build_loss, p)
        assert p.grad is not None
        assert np.abs(numeric - p.grad).max() < tol


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestBasicOps:
    def test_add(self, rng):
        a = Parameter(rng.normal(size=(3, 4)))
        b = Parameter(rng.normal(size=(3, 4)))
        check_gradient(lambda: ((a + b) ** 2).sum(), a, b)

    def test_add_broadcast_bias(self, rng):
        a = Parameter(rng.normal(size=(3, 4)))
        b = Parameter(rng.normal(size=(4,)))
        check_gradient(lambda: ((a + b) ** 2).sum(), a, b)

    def test_mul(self, rng):
        a = Parameter(rng.normal(size=(2, 3)))
        b = Parameter(rng.normal(size=(2, 3)))
        check_gradient(lambda: ((a * b) ** 2).sum(), a, b)

    def test_sub_and_neg(self, rng):
        a = Parameter(rng.normal(size=(4,)))
        b = Parameter(rng.normal(size=(4,)))
        check_gradient(lambda: ((a - b) ** 2).sum(), a, b)

    def test_div(self, rng):
        a = Parameter(rng.normal(size=(3,)))
        b = Parameter(rng.normal(size=(3,)) + 3.0)
        check_gradient(lambda: ((a / b) ** 2).sum(), a, b)

    def test_matmul(self, rng):
        a = Parameter(rng.normal(size=(3, 5)))
        b = Parameter(rng.normal(size=(5, 2)))
        check_gradient(lambda: ((a @ b) ** 2).sum(), a, b)

    def test_pow(self, rng):
        a = Parameter(rng.normal(size=(4,)) + 3.0)
        check_gradient(lambda: (a ** 3).sum(), a)

    def test_rsub_radd(self, rng):
        a = Parameter(rng.normal(size=(3,)))
        check_gradient(lambda: ((1.0 - a) ** 2).sum(), a)
        check_gradient(lambda: ((2.0 + a) ** 2).sum(), a)


class TestReductionsAndShapes:
    def test_sum_axis(self, rng):
        a = Parameter(rng.normal(size=(3, 4)))
        check_gradient(lambda: (a.sum(axis=0) ** 2).sum(), a)
        check_gradient(lambda: (a.sum(axis=1) ** 2).sum(), a)

    def test_mean(self, rng):
        a = Parameter(rng.normal(size=(3, 4)))
        check_gradient(lambda: (a.mean(axis=1) ** 2).sum(), a)

    def test_max(self, rng):
        a = Parameter(rng.normal(size=(3, 4)))
        check_gradient(lambda: (a.max(axis=1) ** 2).sum(), a)

    def test_reshape(self, rng):
        a = Parameter(rng.normal(size=(2, 6)))
        check_gradient(lambda: (a.reshape(3, 4) ** 2).sum(), a)

    def test_transpose(self, rng):
        a = Parameter(rng.normal(size=(2, 5)))
        check_gradient(lambda: ((a.T @ a) ** 2).sum(), a)

    def test_concat(self, rng):
        a = Parameter(rng.normal(size=(3, 2)))
        b = Parameter(rng.normal(size=(3, 4)))
        check_gradient(lambda: (a.concat(b, axis=1) ** 2).sum(), a, b)


class TestNonlinearities:
    @pytest.mark.parametrize(
        "op",
        ["relu", "sigmoid", "tanh", "exp", "leaky_relu"],
    )
    def test_elementwise(self, op, rng):
        a = Parameter(rng.normal(size=(4, 3)) + 0.1)
        check_gradient(lambda: (getattr(a, op)() ** 2).sum(), a)

    def test_log(self, rng):
        a = Parameter(np.abs(rng.normal(size=(4,))) + 1.0)
        check_gradient(lambda: (a.log() ** 2).sum(), a)

    def test_log_softmax(self, rng):
        a = Parameter(rng.normal(size=(4, 5)))
        check_gradient(lambda: (a.log_softmax(axis=1) ** 2).sum(), a)

    def test_log_softmax_rows_normalize(self, rng):
        a = Tensor(rng.normal(size=(3, 4)))
        probs = np.exp(a.log_softmax(axis=1).data)
        assert np.allclose(probs.sum(axis=1), 1.0)


class TestGatherScatter:
    def test_gather_rows(self, rng):
        a = Parameter(rng.normal(size=(5, 3)))
        idx = np.array([0, 2, 2, 4])
        check_gradient(lambda: (a.gather_rows(idx) ** 2).sum(), a)

    def test_scatter_add(self, rng):
        a = Parameter(rng.normal(size=(6, 2)))
        idx = np.array([0, 1, 1, 2, 0, 2])
        check_gradient(lambda: (a.scatter_add(idx, 3) ** 2).sum(), a)

    def test_scatter_add_values(self):
        a = Tensor(np.array([[1.0], [2.0], [3.0]]))
        out = a.scatter_add(np.array([0, 0, 1]), 2)
        assert np.allclose(out.data, [[3.0], [3.0]])

    def test_gather_then_scatter_identity_on_permutation(self, rng):
        a = Tensor(rng.normal(size=(4, 2)))
        perm = np.array([2, 0, 3, 1])
        out = a.gather_rows(perm).scatter_add(perm, 4)
        assert np.allclose(out.data, a.data)


class TestCrossEntropy:
    def test_gradient(self, rng):
        x = Parameter(rng.normal(size=(6, 3)))
        y = np.array([0, 1, 2, 0, 1, 2])
        check_gradient(lambda: x.cross_entropy(y), x)

    def test_perfect_prediction_low_loss(self):
        logits = Tensor(np.eye(3) * 20.0)
        loss = logits.cross_entropy(np.array([0, 1, 2]))
        assert float(loss.data) < 1e-6

    def test_uniform_prediction_log_k(self):
        logits = Tensor(np.zeros((4, 5)))
        loss = logits.cross_entropy(np.array([0, 1, 2, 3]))
        assert float(loss.data) == pytest.approx(np.log(5))


class TestEngineMechanics:
    def test_grad_accumulates_across_uses(self, rng):
        a = Parameter(rng.normal(size=(3,)))
        loss = (a * a).sum() + (a * 2.0).sum()
        loss.backward()
        assert np.allclose(a.grad, 2 * a.data + 2.0)

    def test_zero_grad(self, rng):
        a = Parameter(rng.normal(size=(3,)))
        (a * a).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_backward_twice_accumulates(self, rng):
        a = Parameter(rng.normal(size=(3,)))
        (a * 3.0).sum().backward()
        first = a.grad.copy()
        (a * 3.0).sum().backward()
        assert np.allclose(a.grad, 2 * first)

    def test_no_grad_blocks_graph(self, rng):
        a = Parameter(rng.normal(size=(3,)))
        with no_grad():
            out = (a * a).sum()
        assert out._parents == ()

    def test_detach(self, rng):
        a = Parameter(rng.normal(size=(3,)))
        d = a.detach()
        assert not d.requires_grad
        assert np.shares_memory(d.data, a.data) or np.allclose(d.data, a.data)

    def test_diamond_dependency(self, rng):
        # a feeds two paths that rejoin: gradient must sum both.
        a = Parameter(np.array([2.0]))
        b = a * 3.0
        c = a * 4.0
        (b + c).sum().backward()
        assert np.allclose(a.grad, [7.0])


class TestDeepTape:
    def test_long_chain_backpropagates_without_recursion(self):
        """A 1,500-op tape under the default recursion limit."""
        assert sys.getrecursionlimit() < 1500
        x = Parameter(np.array([1.0, 2.0]))
        y = x
        for _ in range(1500):
            y = y * 1.0
        y.sum().backward()
        assert np.array_equal(x.grad, [1.0, 1.0])

    def test_backward_leaves_no_reference_cycle(self, rng):
        """After backward, dropping the result frees the tape at once,
        without the cyclic collector."""
        p = Parameter(rng.normal(size=(3, 2)))
        mid = p * 2.0
        data = weakref.ref(mid.data)
        loss = (mid * mid).sum()
        gc.disable()
        try:
            loss.backward()
            del mid, loss
            assert data() is None
        finally:
            gc.enable()

    def test_accumulation_order_follows_parents(self, rng):
        """Three uses of one tensor add their gradients in the order the
        depth-first walk over recorded parents meets them."""
        p = Parameter(rng.normal(size=4))
        a, b, c = p * 1.0, p * 1e16, p * -1e16
        ((a + b) + c).sum().backward()
        # c's gradient arrives first, then b's, then a's: (-1e16 + 1e16)
        # + 1 is 1, where a-first order would round 1 + 1e16 to 1e16.
        assert np.array_equal(p.grad, np.ones(4))


class TestIndexBounds:
    """Indices outside ``[0, rows)`` raise instead of wrapping around."""

    def test_scatter_add_negative_bucket(self):
        with pytest.raises(IndexError):
            Tensor(np.ones((3, 2))).scatter_add(np.array([-1, 0, 0]), 3)

    def test_scatter_add_bucket_past_end(self):
        with pytest.raises(IndexError):
            Tensor(np.ones((2, 2))).scatter_add(np.array([0, 3]), 3)

    def test_gather_negative_row(self):
        a = Parameter(np.arange(6.0).reshape(3, 2))
        with pytest.raises(IndexError):
            a.gather_rows(np.array([-1]))
        with pytest.raises(IndexError):
            a.gather_rows(np.array([-3]))

    def test_gather_row_past_end(self):
        with pytest.raises(IndexError):
            Tensor(np.ones((3, 2))).gather_rows(np.array([0, 3]))

    def test_scatter_max_out_of_range(self):
        a = Tensor(np.ones((2, 2)))
        with pytest.raises(IndexError):
            a.scatter_max(np.array([0, -1]), 2)
        with pytest.raises(IndexError):
            a.scatter_max(np.array([0, 2]), 2)

    def test_row_buckets_out_of_range(self):
        with pytest.raises(IndexError):
            RowBuckets(np.array([0, 3]), 3)
        with pytest.raises(IndexError):
            RowBuckets(np.array([-1, 0]), 3)

    def test_propagate_needs_one_row_per_source(self):
        sides = RowBuckets([0, 1], 2), RowBuckets([1, 0], 2)
        with pytest.raises(ValueError):
            Tensor(np.ones((3, 2))).propagate(*sides)

    def test_empty_index_is_in_range(self):
        out = Tensor(np.ones((0, 2))).scatter_add(np.array([], dtype=np.int64), 3)
        assert np.array_equal(out.data, np.zeros((3, 2)))
        assert Tensor(np.ones((3, 2))).gather_rows([]).shape == (0, 2)


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestAggregationOracle:
    """``gnn.tensor.aggregation_vs_add_at`` on its edge cases: zero rows,
    zero-width rows, sorted and unsorted indices, more buckets than
    rows.  ``repro check`` runs the randomized sweep."""

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize(
        "rows,width,ordered", [(0, 3, 0), (25, 0, 1), (25, 4, 0), (25, 4, 1)]
    )
    def test_bit_identical_to_add_at_and_full_tape(self, ndim, rows, width, ordered):
        check = load_all().get("gnn.tensor.aggregation_vs_add_at")
        params = {"rows": rows, "buckets": 9, "width": width, "ndim": ndim,
                  "sorted": ordered, "value_seed": 100 * ndim + rows + width}
        assert check.run(params) == []


class TestPropagateOracle:
    """``gnn.tensor.propagate_vs_primitives`` on its edge cases: no
    messages, zero-width rows, duplicate and unsorted edges, two widths
    over one layout.  ``repro check`` runs the randomized sweep."""

    @pytest.mark.parametrize(
        "messages,width,second_width,ordered",
        [(0, 3, 2, 0), (30, 0, 4, 1), (30, 4, 0, 0), (30, 4, 5, 0), (30, 5, 5, 1)],
    )
    @pytest.mark.parametrize("weighted", [0, 1])
    def test_bit_identical_to_primitives(self, messages, width, second_width,
                                         ordered, weighted):
        check = load_all().get("gnn.tensor.propagate_vs_primitives")
        params = {"vertices": 7, "messages": messages, "width": width,
                  "second_width": second_width, "weighted": weighted,
                  "sorted": ordered, "self_loops": messages % 2,
                  "value_seed": messages + 10 * width + second_width}
        assert check.run(params) == []


class TestLiveTape:
    def test_constants_record_no_tape(self, rng):
        x = Tensor(rng.normal(size=(4, 3)))
        agg = (x.gather_rows([0, 1, 1]) * Tensor(np.ones((3, 1)))).scatter_add(
            [2, 0, 2], 4
        )
        assert agg._parents == () and agg._backward is None
        assert not agg.live

    def test_live_operand_keeps_tape(self, rng):
        w = Parameter(rng.normal(size=(3, 2)))
        out = Tensor(rng.normal(size=(4, 3))) @ w
        assert out.live and len(out._parents) == 2

    @pytest.mark.parametrize("op", ["add", "mul", "div", "matmul"])
    def test_binary_op_grads_only_live_operands(self, rng, op):
        w = Parameter(rng.normal(size=(3, 3)) + 3.0)
        c = Tensor(rng.normal(size=(3, 3)) + 3.0)
        fn = {"add": lambda a, b: a + b, "mul": lambda a, b: a * b,
              "div": lambda a, b: a / b, "matmul": lambda a, b: a @ b}[op]
        for left, right in ((w, c), (c, w)):
            grads = fn(left, right)._backward(np.ones((3, 3)))
            assert [parent for parent, _ in grads] == [w]

    def test_gradients_equal_full_tape(self, rng):
        """Marking every constant as requiring grad records the full
        tape; the parameters' gradients must not move by one bit."""
        feats = rng.normal(size=(6, 3))
        norm = rng.normal(size=(9, 1))
        src = rng.integers(0, 6, size=9)
        dst = rng.integers(0, 6, size=9)
        w1 = rng.normal(size=(3, 4))
        w2 = rng.normal(size=(4, 2))

        def run(full_tape: bool):
            x = Tensor(feats, requires_grad=full_tape)
            scale = Tensor(norm, requires_grad=full_tape)
            p1, p2 = Parameter(w1), Parameter(w2)
            h = (x.gather_rows(src) * scale).scatter_add(dst, 6) @ p1
            h = (h.relu().gather_rows(src) * scale).scatter_max(dst, 6) @ p2
            h.cross_entropy(np.array([0, 1, 1, 0, 1, 0])).backward()
            return p1.grad, p2.grad

        for want, got in zip(run(True), run(False)):
            assert np.array_equal(bits(got), bits(want))


def reference_scatter_max(values: np.ndarray, index: np.ndarray, num_rows: int,
                          grad: np.ndarray):
    """The per-row loop ``scatter_max`` ran before it became array code:
    ``np.maximum.at`` forward, and the first row in scan order attaining
    each ``(bucket, column)`` max takes its gradient."""
    out = np.full((num_rows,) + values.shape[1:], -np.inf)
    np.maximum.at(out, index, values)
    empty = np.isinf(out)
    out = np.where(empty, 0.0, out)
    pg = np.zeros_like(values)
    claimed = np.zeros_like(out, dtype=bool)
    for i in range(index.size):
        bucket = index[i]
        winners = (values[i] == out[bucket]) & ~claimed[bucket] & ~empty[bucket]
        pg[i][winners] = grad[bucket][winners]
        claimed[bucket] |= winners
    return out, pg


class TestScatterMaxVsReference:
    CASES = {
        # every row ties, including signed zeros (what ReLU emits)
        "ties": (np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [2.0, -0.0],
                           [2.0, -0.0]]), np.array([1, 1, 1, 0, 0]), 2),
        "empty_buckets": (np.array([[1.0, 4.0], [3.0, -2.0]]), np.array([3, 0]), 5),
        "neg_inf_rows": (np.array([[-np.inf, 1.0], [-np.inf, -np.inf],
                                   [-np.inf, 5.0], [7.0, -np.inf]]),
                         np.array([0, 0, 1, 1]), 3),
        "one_dim": (np.array([3.0, 3.0, -1.0, 0.0]), np.array([2, 2, 0, 0]), 4),
        "three_dim": (np.arange(24.0).reshape(4, 2, 3) % 5,
                      np.array([1, 0, 1, 1]), 2),
        "no_rows": (np.zeros((0, 3)), np.array([], dtype=np.int64), 2),
        "no_columns": (np.zeros((4, 0)), np.array([0, 1, 0, 1]), 2),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_reference(self, case):
        values, index, num_rows = self.CASES[case]
        shape = (num_rows,) + values.shape[1:]
        grad = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
        if values.ndim == 1:  # the loop indexes rows as arrays: one column
            want_out, want_grad = reference_scatter_max(
                values[:, None], index, num_rows, grad[:, None]
            )
            want_out, want_grad = want_out[:, 0], want_grad[:, 0]
        else:
            want_out, want_grad = reference_scatter_max(values, index, num_rows, grad)
        a = Parameter(values.copy())
        out = a.scatter_max(index, num_rows)
        out.backward(grad)
        assert np.array_equal(out.data, want_out)
        assert np.array_equal(bits(out.data), bits(want_out))
        assert np.array_equal(a.grad, want_grad)

    def test_random_matches_reference(self, rng):
        # Long single-column buckets of signed zeros: a SIMD reduction
        # there may keep a different zero than np.maximum.at does.
        for _ in range(40):
            rows, width = int(rng.integers(0, 60)), int(rng.choice([1, 3]))
            values = rng.choice([-np.inf, -1.0, -0.0, 0.0, 0.5], size=(rows, width))
            index = rng.integers(0, 4, size=rows)
            grad = rng.normal(size=(4, width))
            want_out, want_grad = reference_scatter_max(values, index, 4, grad)
            a = Parameter(values)
            out = a.scatter_max(index, 4)
            out.backward(grad)
            assert np.array_equal(bits(out.data), bits(want_out))
            assert np.array_equal(a.grad, want_grad)


class TestScatterMax:
    def test_values(self):
        a = Tensor(np.array([[1.0], [5.0], [3.0], [2.0]]))
        out = a.scatter_max(np.array([0, 0, 1, 1]), 3)
        assert np.allclose(out.data, [[5.0], [3.0], [0.0]])

    def test_empty_bucket_reads_zero(self):
        a = Tensor(np.array([[7.0]]))
        out = a.scatter_max(np.array([1]), 2)
        assert out.data[0, 0] == 0.0
        assert out.data[1, 0] == 7.0

    def test_gradient(self, rng):
        a = Parameter(rng.normal(size=(6, 3)))
        idx = np.array([0, 1, 1, 2, 0, 2])
        check_gradient(lambda: (a.scatter_max(idx, 3) ** 2).sum(), a)

    def test_gradient_goes_to_winner_only(self):
        a = Parameter(np.array([[1.0], [5.0], [3.0]]))
        out = a.scatter_max(np.array([0, 0, 0]), 1)
        out.sum().backward()
        assert np.allclose(a.grad, [[0.0], [1.0], [0.0]])
