import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discourse_rater import tensor as T
from discourse_rater.errors import NumericsError, ShapeError, UsageError
from discourse_rater.tensor import Tensor


def tensor64(arr, requires_grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


class TestMatmul:
    def test_identity(self):
        out = T.matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        assert np.array_equal(out.data, [[5.0, 6.0], [7.0, 8.0]])

    def test_hand_computed(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[11.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 4\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))

    def test_gradients_match_finite_differences(self):
        with T.precision("float64"):
            rng = np.random.default_rng(7)
            a = tensor64(rng.standard_normal((4, 5)))
            b = tensor64(rng.standard_normal((5, 3)))
            report = T.grad_check(T.matmul, [a, b], tol=1e-6, step=1e-5)
        assert report.passed, report


class TestMatmulBias:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("left", [(5, 4), (2, 3, 4)])
    def test_matches_matmul_then_add_bitwise(self, dtype, left):
        with T.precision(dtype):
            rng = np.random.default_rng(21)
            a = Tensor(rng.standard_normal(left), requires_grad=True)
            w = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
            b = Tensor(rng.standard_normal(6), requires_grad=True)
            weights = Tensor(rng.standard_normal(left[:-1] + (6,)))
            results = []
            for fn in (lambda: T.matmul(a, w, bias=b), lambda: T.matmul(a, w) + b):
                for t in (a, w, b):
                    t.grad = None
                out = fn()
                (out * weights).sum().backward()
                results.append([out.data] + [t.grad for t in (a, w, b)])
        for fused, chained in zip(*results, strict=True):
            assert fused.dtype == np.dtype(dtype) and np.array_equal(fused, chained)

    def test_bias_must_match_the_output_width(self):
        with pytest.raises(ShapeError, match=r"bias must be \(3,\)"):
            T.matmul(Tensor(np.ones((2, 4))), Tensor(np.ones((4, 3))), bias=Tensor(np.ones(4)))


class TestAttention:
    def test_rows_that_do_not_fill_their_layout_rejected(self):
        lengths = [2, 1]
        rows = Tensor(np.ones((3, 4)), requires_grad=True)
        assert T.attention(rows, rows, rows, lengths, lengths, 2).shape == (3, 4)
        with pytest.raises(ShapeError, match="attention over 2 heads"):
            T.attention(Tensor(np.ones((2, 4))), rows, rows, lengths, lengths, 2)
        with pytest.raises(ShapeError, match="attention over 3 heads"):
            T.attention(rows, rows, rows, lengths, lengths, 3)
        with pytest.raises(ShapeError, match="value rows"):
            T.attention(rows, rows, Tensor(np.ones((2, 4))), lengths, lengths, 2)
        with pytest.raises(ShapeError, match="lengths"):
            T.attention(rows, rows, rows, lengths, [2, 1, 0], 2)

    def test_query_sequence_without_keys_rejected(self):
        q, kv = Tensor(np.ones((3, 4))), Tensor(np.ones((2, 4)))
        with pytest.raises(UsageError, match="sequence 1 has none"):
            T.attention(q, kv, kv, [2, 1], [2, 0], 2)
        lead = (Tensor(np.ones((1, 4))), Tensor(np.ones((1, 4))))
        assert T.attention(q, kv, kv, [2, 1], [2, 0], 2, lead).shape == (3, 4)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("cls_only", [False, True], ids=["all_rows", "cls_only"])
    def test_uneven_batch_equals_each_sequence_alone_bitwise(self, dtype, cls_only):
        # Nine sequences of 1 to 5 query rows (one each with ``cls_only``)
        # against 0 to 5 context rows behind a shared lead row; the lead's
        # gradients are those of the sequences alone, summed in order.
        kv_lengths = [2, 0, 3, 5, 1, 1, 4, 2, 2]
        q_lengths = [1] * 9 if cls_only else [3, 1, 4, 2, 5, 1, 2, 3, 2]
        with T.precision(dtype):
            rng = np.random.default_rng(12)
            q = Tensor(rng.standard_normal((sum(q_lengths), 8)), requires_grad=True)
            k, v = (Tensor(rng.standard_normal((sum(kv_lengths), 8)), requires_grad=True)
                    for _ in range(2))
            lead = tuple(Tensor(rng.standard_normal((1, 8)), requires_grad=True)
                         for _ in range(2))
            weights = Tensor(rng.standard_normal(q.shape))
            out = T.attention(q, k, v, q_lengths, kv_lengths, 2, lead)
            (out * weights).sum().backward()
            batch = [out.data] + [t.grad for t in (q, k, v) + lead]
            q_ends, kv_ends = np.cumsum(q_lengths), np.cumsum(kv_lengths)
            pieces, lead_grads = [], [None, None]
            for qb, kb, lq, lk in zip(q_ends, kv_ends, q_lengths, kv_lengths):
                own = [Tensor(t.data[end - n:end], requires_grad=True)
                       for t, end, n in ((q, qb, lq), (k, kb, lk), (v, kb, lk))]
                own_lead = tuple(Tensor(t.data, requires_grad=True) for t in lead)
                alone = T.attention(*own, [lq], [lk], 2, own_lead)
                (alone * Tensor(weights.data[qb - lq:qb])).sum().backward()
                pieces.append([alone.data] + [t.grad for t in own])
                lead_grads = [t.grad if total is None else total + t.grad
                              for total, t in zip(lead_grads, own_lead)]
        expected = [np.concatenate(parts) for parts in zip(*pieces)] + lead_grads
        for got, want in zip(batch, expected, strict=True):
            assert got.dtype == np.dtype(dtype) and np.array_equal(got, want)


class TestTake:
    def test_repeated_rows_rejected_for_embedding_lookup(self):
        a = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        with pytest.raises(UsageError, match="embedding_lookup"):
            T.take(a, [0, 0, 2])
        with pytest.raises(UsageError, match="embedding_lookup"):
            T.take(a, np.asarray([1, -3]))  # -3 names row 1 of 4 again
        with pytest.raises(UsageError, match="one integer array"):
            T.take(a, ([0, 1], [1, 2]))

    def test_repeated_rows_sum_their_gradients_in_embedding_lookup(self):
        a = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        weights = Tensor(np.asarray([1.0, 10.0, 100.0])[:, None] * np.ones((1, 3)))
        (T.embedding_lookup(a, [0, 0, 2]) * weights).sum().backward()
        assert np.array_equal(a.grad[:, 0], [11.0, 0.0, 100.0, 0.0])

    def test_distinct_rows_take_their_own_gradients(self):
        a = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        weights = Tensor(np.asarray([1.0, 10.0, 100.0])[:, None] * np.ones((1, 3)))
        (T.take(a, np.asarray([3, 0, -2])) * weights).sum().backward()
        assert np.array_equal(a.grad[:, 0], [10.0, 0.0, 100.0, 1.0])
        b = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        (T.take(b, (slice(None), [2, 0])) * Tensor(np.ones((3, 2)))).sum().backward()
        assert np.array_equal(b.grad[0], [1.0, 0.0, 1.0, 0.0])


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3])

    def test_stability_under_shift(self):
        out = T.softmax(Tensor([1000.0, 1000.0]))
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_hand_computed(self):
        out = T.softmax(Tensor([1.0, 2.0, 3.0]))
        assert np.allclose(out.data, [0.0900, 0.2447, 0.6652], atol=1e-4)

    def test_non_finite_input_rejected(self):
        with pytest.raises(NumericsError):
            T.softmax(Tensor([np.nan, 1.0]))
        with pytest.raises(NumericsError):
            T.softmax(Tensor([np.inf, 1.0]))

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=9))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one_and_positive(self, values):
        out = T.softmax(Tensor(values))
        assert abs(out.data.sum() - 1.0) < 1e-6
        assert (out.data > 0).all()


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.sum().backward()
        assert np.array_equal(x.grad, np.ones((2, 3), dtype=np.float32))

    def test_square_gradient_is_two_x(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        (x * x).sum().backward()
        assert np.allclose(x.grad, 2 * x.data)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(UsageError):
            (x * 2).backward()

    def test_unreachable_leaf_keeps_zero_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        (x * 3).sum().backward()
        assert y.grad is None  # None reads as zero
        assert np.allclose(x.grad, 3.0)

    def test_gradient_accumulates_over_reuse(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x + x).sum().backward()
        assert np.allclose(x.grad, 2.0)

    def test_second_backward_through_a_consumed_graph_is_usage_error(self):
        x = Tensor(np.ones(3), requires_grad=True)
        hidden = T.tanh(x * 2)
        loss = (hidden * hidden).sum()
        loss.backward()
        with pytest.raises(UsageError, match="single-use"):
            loss.backward()
        # A new graph on top of a consumed node cannot reach the leaves either.
        with pytest.raises(UsageError, match="single-use"):
            (hidden * 3).sum().backward()

    def test_backward_frees_intermediates_and_keeps_leaf_gradients(self, rng):
        x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        hidden = T.tanh(x @ w)
        activation = weakref.ref(hidden.data)
        loss = (hidden * hidden).sum()
        del hidden
        assert activation() is not None
        loss.backward()
        assert activation() is None  # freed while ``loss`` is still referenced
        assert x.grad is not None and w.grad is not None
        assert x.grad.shape == (4, 5) and w.grad.shape == (5, 3)
        assert np.isfinite(loss.item())

    def test_forward_is_deterministic_bitwise(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.standard_normal((5, 4)))
        b = Tensor(rng.standard_normal((4, 6)))

        def run():
            return T.softmax(T.matmul(T.relu(a), b), axis=-1).data

        assert np.array_equal(run(), run())


def _positive(rng, shape):
    return np.abs(rng.standard_normal(shape)) + 0.5


def _away_from_zero(rng, shape, margin=0.1):
    x = rng.standard_normal(shape)
    return x + np.sign(x) * margin


# Every primitive, each checked at 10 random points against central differences.
PRIMITIVES = {
    "add": lambda rng: (T.add, [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]),
    "add_broadcast": lambda rng: (T.add, [rng.standard_normal((3, 4)), rng.standard_normal(4)]),
    "sub": lambda rng: (T.sub, [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]),
    "mul": lambda rng: (T.mul, [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]),
    "mul_broadcast": lambda rng: (T.mul, [rng.standard_normal((3, 4)), rng.standard_normal(4)]),
    "scale": lambda rng: (lambda a: a * 2.5, [rng.standard_normal((3, 4))]),
    "neg": lambda rng: (T.neg, [rng.standard_normal((3, 4))]),
    "relu": lambda rng: (T.relu, [_away_from_zero(rng, (3, 4))]),
    "sigmoid": lambda rng: (T.sigmoid, [rng.standard_normal((3, 4))]),
    "tanh": lambda rng: (T.tanh, [rng.standard_normal((3, 4))]),
    "log": lambda rng: (T.log, [_positive(rng, (3, 4))]),
    "absolute": lambda rng: (T.absolute, [_away_from_zero(rng, (3, 4))]),
    "clamp_min": lambda rng: (lambda a: T.clamp_min(a, 0.0), [_away_from_zero(rng, (3, 4))]),
    "matmul": lambda rng: (T.matmul, [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))]),
    "bmm": lambda rng: (T.bmm, [rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 4, 2))]),
    "transpose": lambda rng: (T.transpose, [rng.standard_normal((3, 4))]),
    "permute": lambda rng: (lambda a: T.permute(a, (2, 0, 1)), [rng.standard_normal((2, 3, 4))]),
    "reshape": lambda rng: (lambda a: a.reshape((4, 3)), [rng.standard_normal((3, 4))]),
    "slice": lambda rng: (lambda a: a[1:3, 0:2], [rng.standard_normal((4, 4))]),
    "row_pick": lambda rng: (lambda a: a[0], [rng.standard_normal((4, 4))]),
    "concat": lambda rng: (lambda a, b: T.concat([a, b], axis=0),
                           [rng.standard_normal((2, 3)), rng.standard_normal((3, 3))]),
    "sum_all": lambda rng: (lambda a: a.sum(), [rng.standard_normal((3, 4))]),
    "sum_axis": lambda rng: (lambda a: a.sum(axis=0), [rng.standard_normal((3, 4))]),
    "mean_all": lambda rng: (lambda a: a.mean(), [rng.standard_normal((3, 4))]),
    "mean_axis": lambda rng: (lambda a: a.mean(axis=1), [rng.standard_normal((3, 4))]),
    "softmax": lambda rng: (lambda a: T.softmax(a, axis=-1), [rng.standard_normal((3, 5))]),
    "masked_fill": lambda rng: (
        lambda a: T.masked_fill(a, np.asarray([False, True, False, False]), -2.5),
        [rng.standard_normal((3, 4))]),
    "layer_norm": lambda rng: (T.layer_norm,
                               [rng.standard_normal((3, 6)),
                                _positive(rng, 6), rng.standard_normal(6)]),
    "embedding_lookup": lambda rng: (
        lambda tbl: T.embedding_lookup(tbl, [0, 2, 2, 1]),
        [rng.standard_normal((4, 5))]),
    "embedding_lookup_2d_negative": lambda rng: (
        lambda tbl: T.embedding_lookup(tbl, [[-1, 0, 3], [3, -1, -1]]),
        [rng.standard_normal((4, 5))]),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_gradients_at_ten_random_points(name):
    with T.precision("float64"):
        for point in range(10):
            rng = np.random.default_rng(1000 * point + hash(name) % 997)
            fn, arrays = PRIMITIVES[name](rng)
            inputs = [tensor64(a) for a in arrays]
            report = T.grad_check(fn, inputs, tol=1e-5, seed=point, name=name)
            assert report.passed, f"point {point}: {report}"


class TestGradCheck:
    def test_linear_layer_passes(self):
        with T.precision("float64"):
            rng = np.random.default_rng(11)
            x = tensor64(rng.standard_normal((2, 6)))
            w = tensor64(rng.standard_normal((6, 3)))
            b = tensor64(rng.standard_normal(3))
            report = T.grad_check(lambda x, w, b: T.matmul(x, w) + b, [x, w, b], tol=1e-5)
        assert report.passed

    def test_softmax_cross_entropy_composite_passes(self):
        with T.precision("float64"):
            rng = np.random.default_rng(12)
            logits = tensor64(rng.standard_normal((2, 5)))
            onehot = np.zeros((2, 5))
            onehot[0, 1] = onehot[1, 3] = 1.0

            def ce(z):
                probs = T.softmax(z, axis=-1)
                picked = (probs * Tensor(onehot)).sum(axis=1)
                return T.log(picked).sum() * -0.5

            report = T.grad_check(ce, [logits], tol=1e-5)
        assert report.passed

    def test_corrupted_gradient_detected(self):
        def bad_double(x):
            data = x.data * 2.0

            def backward(g):
                T._accum(x, g * 3.0)  # wrong rule on purpose

            return T._op(data, (x,), backward)

        with T.precision("float64"):
            x = tensor64(np.random.default_rng(13).standard_normal((3, 3)))
            report = T.grad_check(bad_double, [x], tol=1e-5)
        assert not report.passed
        assert report.max_rel_err > 100 * report.tol

    def test_requires_float64_mode(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(UsageError):
            T.grad_check(lambda a: a.sum(), [x])


class TestModes:
    def test_precision_context_switches_dtype(self):
        assert T.current_dtype() == np.float32
        with T.precision("float64"):
            assert Tensor([1.0]).data.dtype == np.float64
        assert Tensor([1.0]).data.dtype == np.float32

    def test_no_grad_skips_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            y = (x * 2).sum()
        assert y._backward is None and not y.requires_grad

    def test_unknown_dtype_rejected(self):
        with pytest.raises(UsageError):
            T.set_dtype("float16")
