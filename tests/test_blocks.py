import numpy as np
import pytest

from discourse_rater import blocks, tensor as T
from discourse_rater.blocks import (AttentionParams, BiLstmParams,
                                    EncoderBlockParams, HeadParams, Rows,
                                    add_positional, bilstm_encode,
                                    encoder_block, mlp_head,
                                    multi_head_attention, sinusoid_table)
from discourse_rater.errors import NumericsError, ShapeError, UsageError
from discourse_rater.tensor import Tensor
from helpers import attention_oracle


def small_attention(rng, model_dim=24, context_dim=32, num_heads=4):
    return AttentionParams.create(rng, model_dim, context_dim, num_heads)


class TestMultiHeadAttention:
    def test_single_valid_position_is_linear_transform(self, rng):
        params = small_attention(rng)
        q = Tensor(rng.standard_normal((2, 24)))
        kv = Tensor(rng.standard_normal((1, 32)))
        out = multi_head_attention(q, params, context=kv)
        v_row = kv.data @ params.wv.data + params.bv.data
        expected = v_row @ params.wo.data + params.bo.data
        assert np.allclose(out.data, np.repeat(expected, 2, axis=0), atol=1e-5)

    def test_identical_rows_give_uniform_weights(self, rng):
        # Identical keys (a zero key projection) and distinct values: uniform
        # weights make every output row the projected mean of the values.
        with T.precision("float64"):
            params = small_attention(rng)
            params.wk.data = np.zeros_like(params.wk.data)
            q = Tensor(rng.standard_normal((3, 24)))
            kv = Tensor(rng.standard_normal((5, 32)))
            out = multi_head_attention(q, params, context=kv)
        mean_v = (kv.data @ params.wv.data + params.bv.data).mean(axis=0)
        expected = mean_v @ params.wo.data + params.bo.data
        assert np.abs(out.data - expected).max() < 1e-12

    def test_weight_rows_sum_to_one_at_paper_dims(self, rng):
        # Every value row equal to ``bv``: each output row is ``bv`` projected,
        # scaled by the sum of its weights.
        with T.precision("float64"):
            params = AttentionParams.create(rng, 768, 1024, 12)
            params.wv.data = np.zeros_like(params.wv.data)
            params.bv.data = rng.standard_normal(768)
            q = Tensor(rng.standard_normal((3, 768)))
            kv = Tensor(rng.standard_normal((5, 1024)))
            out = multi_head_attention(q, params, context=kv)
        assert out.shape == (3, 768)
        expected = params.bv.data @ params.wo.data + params.bo.data
        assert np.abs(out.data - expected).max() < 1e-12

    def test_masked_positions_get_exactly_zero_weight(self):
        # Packed sequences of 3 and 2 queries against 2 and 5 context rows:
        # the first sequence's 3 padded key slots read a zero row, so only an
        # exactly zero weight on them leaves it equal to that sequence alone.
        with T.precision("float64"):
            rng = np.random.default_rng(4)
            params = small_attention(rng)
            q = Tensor(rng.standard_normal((5, 24)))
            kv = Tensor(rng.standard_normal((7, 32)))
            out = multi_head_attention(q, params, rows=Rows([3, 2]), context=kv,
                                       context_rows=Rows([2, 5]))
            assert out.shape == (5, 24)
            for own, context in ((slice(0, 3), slice(0, 2)), (slice(3, 5), slice(2, 7))):
                alone = multi_head_attention(q[own], params, context=kv[context])
                assert np.abs(out.data[own] - alone.data).max() < 1e-12

    def test_all_masked_rejected(self, rng):
        params = small_attention(rng)
        q = Tensor(rng.standard_normal((2, 24)))
        kv = Tensor(rng.standard_normal((3, 32)))
        with pytest.raises(UsageError, match="sequence 1 has none"):
            multi_head_attention(q, params, rows=Rows([1, 1]), context=kv,
                                 context_rows=Rows([3, 0]))

    def test_context_width_checked(self, rng):
        params = small_attention(rng)
        with pytest.raises(ShapeError):
            multi_head_attention(Tensor(np.zeros((2, 24))), params,
                                 context=Tensor(np.zeros((3, 24))))
        with pytest.raises(ShapeError, match="2 query sequences against 1 context"):
            multi_head_attention(Tensor(np.zeros((2, 24))), params, rows=Rows([1, 1]),
                                 context=Tensor(np.zeros((3, 32))))

    def test_gradients_match_finite_differences(self):
        # Uneven packed sequences against contexts led by one shared CLS row.
        with T.precision("float64"):
            rng = np.random.default_rng(5)
            params = small_attention(rng, model_dim=8, context_dim=6, num_heads=2)
            q = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
            kv = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
            cls = Tensor(rng.standard_normal(6), requires_grad=True)
            tensors = [q, kv, cls] + list(params.parameters().values())

            def fn(q, kv, cls, *_):
                return multi_head_attention(q, params, rows=Rows([3, 1]), context=kv,
                                            context_rows=Rows([1, 2]), context_cls=cls)

            report = T.grad_check(fn, tensors, tol=1e-5, name="attention")
        assert report.passed, report


# Packed query lengths, context lengths (None: self-attention), whether a
# shared CLS row leads each context, and ``cls_only``.  Nine sequences sum
# nine rows into the lead row's gradient, a length at which numpy's pairwise
# summation would reorder a sum along a contiguous axis.
ORACLE_CASES = {
    "self_uneven": ([5, 2, 4], None, False, False),
    "cross_with_lead": ([3, 1, 2], [4, 0, 2], True, False),
    "cls_only": ([5, 2, 4], None, False, True),
    "no_padding": ([3, 3], [2, 2], False, False),
    "nine_sequences_with_lead": ([3, 1, 2, 4, 5, 1, 2, 3, 2], [4, 0, 2, 3, 1, 1, 5, 2, 2],
                                True, False),
}


# Cases in which the unpadded core sums exactly as the padded chain does.
# In the others a padded softmax row sums more terms (zeros, but numpy's
# pairwise summation groups them differently), and the lead gradients of
# nine sequences are summed in sequence order, not by numpy's reduction.
BITWISE_CASES = ("self_uneven", "cross_with_lead", "no_padding")
ROUNDING = {"float32": 1e-5, "float64": 1e-12}


class TestFusedAttention:
    """``multi_head_attention`` runs its core as one ``tensor.attention``
    node on each sequence's own rows; it must give the outputs and
    gradients of the padded primitive chain it replaced, within rounding,
    and bit for bit in the cases that sum alike."""

    @staticmethod
    def run(fn, params, inputs, kwargs, weights):
        for t in inputs + list(params.parameters().values()):
            t.grad = None
        out = fn(inputs[0], params, **kwargs)
        (out * Tensor(weights)).sum().backward()
        grads = [t.grad.copy() for t in inputs + list(params.parameters().values())]
        return out.data, grads

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_primitive_chain_to_rounding(self, case, dtype):
        lengths, context_lengths, lead, cls_only = ORACLE_CASES[case]
        with T.precision(dtype):
            rng = np.random.default_rng(8)
            params = small_attention(rng, context_dim=24 if context_lengths is None else 32)
            for p in params.parameters().values():
                p.data = rng.standard_normal(p.shape).astype(p.data.dtype)
            rows = Rows(lengths)
            inputs = [Tensor(rng.standard_normal((rows.total, 24)), requires_grad=True)]
            kwargs = {"rows": rows, "cls_only": cls_only}
            if context_lengths is not None:
                kwargs["context_rows"] = Rows(context_lengths)
                kwargs["context"] = Tensor(rng.standard_normal((sum(context_lengths), 32)),
                                           requires_grad=True)
                inputs.append(kwargs["context"])
            if lead:
                kwargs["context_cls"] = Tensor(rng.standard_normal(32), requires_grad=True)
                inputs.append(kwargs["context_cls"])
            weights = rng.standard_normal((len(lengths) if cls_only else rows.total, 24))
            fused, fused_grads = self.run(multi_head_attention, params, inputs, kwargs, weights)
            chain, chain_grads = self.run(attention_oracle, params, inputs, kwargs, weights)
        assert fused.dtype == np.dtype(dtype)
        # Rounding is measured against the largest value of the case's
        # arrays, not each array's own: the key-bias gradient is zero
        # analytically, so its entries are noise left by rounding the other
        # gradients (~1e-14 in float64), and against themselves read ~1.
        scale = max(np.abs(want).max() for want in [chain] + chain_grads)
        for got, want in zip([fused] + fused_grads, [chain] + chain_grads, strict=True):
            assert got.dtype == want.dtype
            if case in BITWISE_CASES:
                assert np.array_equal(got, want)
            else:
                assert np.abs(got - want).max() <= ROUNDING[dtype] * scale

    def test_non_finite_scores_raise_numerics_error(self, rng):
        params = small_attention(rng, context_dim=24)
        x = rng.standard_normal((3, 24))
        x[1, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericsError, match="softmax"):
            multi_head_attention(Tensor(x), params)


class TestEncoderBlock:
    def test_zeroed_output_projections_give_identity(self, rng):
        params = EncoderBlockParams.create(rng, model_dim=16, num_heads=4)
        for t in (params.attention.wo, params.attention.bo, params.w2, params.b2):
            t.data = np.zeros_like(t.data)
        x = Tensor(rng.standard_normal((5, 16)))
        out = encoder_block(x, params)
        assert np.allclose(out.data, x.data)

    @pytest.mark.parametrize("length", [1, 7, 96])
    def test_output_shape_matches_input(self, rng, length):
        params = EncoderBlockParams.create(rng, model_dim=16, num_heads=4)
        x = Tensor(rng.standard_normal((length, 16)))
        assert encoder_block(x, params).shape == (length, 16)

    def test_cross_attention_uses_context_width(self, rng):
        params = EncoderBlockParams.create(rng, model_dim=16, context_dim=12, num_heads=4)
        x = Tensor(rng.standard_normal((4, 16)))
        ctx = Tensor(rng.standard_normal((6, 12)))
        out = encoder_block(x, params, context=ctx)
        assert out.shape == (4, 16)

    def test_gradients_match_finite_differences(self):
        with T.precision("float64"):
            rng = np.random.default_rng(6)
            params = EncoderBlockParams.create(rng, model_dim=8, context_dim=6,
                                               num_heads=2, ffn_dim=12)
            x = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
            ctx = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
            tensors = [x, ctx] + list(params.parameters().values())

            def fn(x, ctx, *_):
                return encoder_block(x, params, context=ctx)

            report = T.grad_check(fn, tensors, tol=1e-5, name="encoder_block")
        assert report.passed, report

    def test_all_parameters_receive_gradient(self, rng):
        params = EncoderBlockParams.create(rng, model_dim=16, num_heads=4)
        x = Tensor(rng.standard_normal((4, 16)))
        out = encoder_block(x, params)
        (out * out).sum().backward()
        for name, tensor in params.parameters().items():
            assert tensor.grad is not None and np.abs(tensor.grad).max() > 0, name

    def test_cls_row_invariant_to_row_permutation(self, rng):
        # Self-attention stack, no position information: CLS pooling must not
        # care about the order of the other rows.
        stack = [EncoderBlockParams.create(rng, model_dim=16, num_heads=4)
                 for _ in range(2)]
        rows = rng.standard_normal((6, 16)).astype(np.float32)

        def cls_out(seq_rows):
            x = Tensor(np.concatenate([rows[:1], seq_rows]))
            for params in stack:
                x = encoder_block(x, params)
            return x.data[0]

        base = cls_out(rows[1:])
        permuted = cls_out(rows[1:][::-1].copy())
        assert np.abs(base - permuted).max() < 1e-5

    @pytest.mark.parametrize("context_dim", [None, 12], ids=["self", "cross"])
    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_cls_only_matches_row_zero_of_full_block(self, context_dim, training):
        # Three packed sequences of 5, 2 and 4 rows; contexts of 4, 0 and 2
        # rows behind a shared CLS row.  The packed block must equal each
        # sequence run alone, and cls_only its CLS rows.
        with T.precision("float64"):
            rng = np.random.default_rng(11)
            params = EncoderBlockParams.create(rng, model_dim=16, context_dim=context_dim,
                                               num_heads=4, dropout_rate=0.3)
            rows = Rows([5, 2, 4])
            x = Tensor(rng.standard_normal((rows.total, 16)))
            context = context_rows = context_cls = None
            if context_dim is not None:
                context_rows = Rows([4, 0, 2])
                context = Tensor(rng.standard_normal((context_rows.total, context_dim)))
                context_cls = Tensor(rng.standard_normal(context_dim))
            keep = (blocks.dropout_keep(rng, x.shape, 0.3),
                    blocks.dropout_keep(rng, x.shape, 0.3))
            kwargs = dict(rows=rows, context=context, context_rows=context_rows,
                          context_cls=context_cls, training=training, keep=keep)
            full = encoder_block(x, params, **kwargs)
            cls = encoder_block(x, params, cls_only=True, **kwargs)
            assert full.shape == x.shape
            assert cls.shape == (3, 16)
            assert np.abs(cls.data - full.data[rows.starts]).max() < 1e-12
            for i, (start, length) in enumerate(zip(rows.starts, rows.lengths)):
                own = slice(start, start + length)
                alone_kwargs = dict(training=training,
                                    keep=tuple(site[own] for site in keep))
                if context_dim is not None:
                    lo = context_rows.starts[i]
                    alone_kwargs["context"] = T.concat([
                        context_cls.reshape((1, context_dim)),
                        context[lo:lo + context_rows.lengths[i]]])
                alone = encoder_block(x[own], params, **alone_kwargs)
                single = encoder_block(x[own], params, cls_only=True, **alone_kwargs)
                assert np.abs(full.data[own] - alone.data).max() < 1e-12
                assert np.abs(single.data[0] - alone.data[0]).max() < 1e-12

    def test_dropout_only_when_training(self, rng):
        params = EncoderBlockParams.create(rng, model_dim=16, num_heads=4,
                                           dropout_rate=0.5)
        x = Tensor(rng.standard_normal((4, 16)))
        quiet = encoder_block(x, params, training=False)
        noisy = encoder_block(x, params, training=True, rng=np.random.default_rng(0))
        again = encoder_block(x, params, training=False)
        assert np.array_equal(quiet.data, again.data)
        assert not np.allclose(quiet.data, noisy.data)
        with pytest.raises(UsageError):
            encoder_block(x, params, training=True)

    def test_dropout_identity_when_disabled(self, rng):
        # A zero rate in training runs the block as in evaluation and draws
        # nothing from the generator.
        params = EncoderBlockParams.create(rng, model_dim=16, num_heads=4,
                                           dropout_rate=0.0)
        x = Tensor(rng.standard_normal((4, 16)))
        drawn = np.random.default_rng(0)
        out = encoder_block(x, params, training=True, rng=drawn)
        assert np.array_equal(out.data, encoder_block(x, params).data)
        assert drawn.random() == np.random.default_rng(0).random()


class TestMlpHead:
    def test_classify_sums_to_one(self, rng):
        params = HeadParams.create(rng, in_dim=16, hidden=8, out_dim=7)
        out = mlp_head(Tensor(rng.standard_normal((1, 16))), params)
        assert out.shape == (1, 7)
        assert abs(out.data.sum() - 1.0) < 1e-6

    def test_zero_parameters_give_uniform(self, rng):
        params = HeadParams.create(rng, in_dim=16, hidden=8, out_dim=7)
        for tensor in params.parameters().values():
            tensor.data = np.zeros_like(tensor.data)
        out = mlp_head(Tensor(rng.standard_normal((1, 16))), params)
        assert np.allclose(out.data, 1.0 / 7.0)

    def test_regress_returns_single_score(self, rng):
        params = HeadParams.create(rng, in_dim=16, hidden=8, out_dim=1)
        out = mlp_head(Tensor(rng.standard_normal((1, 16))), params, mode="regress")
        assert out.shape == (1, 1)

    @pytest.mark.parametrize("shape", [(16,), (1, 1, 16)], ids=["vector", "rank3"])
    def test_input_other_than_rows_rejected(self, rng, shape):
        params = HeadParams.create(rng, in_dim=16, hidden=8, out_dim=7)
        with pytest.raises(ShapeError, match=r"\[B, d\]"):
            mlp_head(Tensor(rng.standard_normal(shape)), params)

    def test_gradients_match_finite_differences(self):
        with T.precision("float64"):
            rng = np.random.default_rng(8)
            params = HeadParams.create(rng, in_dim=10, hidden=6, out_dim=7)
            x = Tensor(rng.standard_normal((1, 10)), requires_grad=True)
            tensors = [x] + list(params.parameters().values())

            def fn(x, *_):
                return mlp_head(x, params)

            report = T.grad_check(fn, tensors, tol=1e-5, name="mlp_head")
        assert report.passed, report


def numpy_bilstm_oracle(seq: np.ndarray, params: BiLstmParams) -> np.ndarray:
    """Step-by-step recurrence written independently with plain numpy."""
    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    h_dim = params.hidden_size

    def run_direction(rows, cell):
        h = np.zeros(h_dim)
        c = np.zeros(h_dim)
        outs = []
        for row in rows:
            z = row @ cell.wx.data + h @ cell.wh.data + cell.b.data
            i = sigmoid(z[0:h_dim])
            f = sigmoid(z[h_dim:2 * h_dim])
            g = np.tanh(z[2 * h_dim:3 * h_dim])
            o = sigmoid(z[3 * h_dim:4 * h_dim])
            c = f * c + i * g
            h = o * np.tanh(c)
            outs.append(h)
        return outs, h

    rows = [seq[t] for t in range(seq.shape[0])]
    final_fw = final_bw = None
    for layer in params.layers:
        fw, final_fw = run_direction(rows, layer["fw"])
        bw, final_bw = run_direction(rows[::-1], layer["bw"])
        bw = bw[::-1]
        rows = [np.concatenate([fw[t], bw[t]]) for t in range(len(rows))]
    return np.concatenate([final_fw, final_bw])


class TestBiLstm:
    def test_two_step_sequence_matches_scalar_oracle(self, rng):
        params = BiLstmParams.create(rng, input_dim=2, num_layers=1)
        seq = np.asarray([[0.5, -1.0], [1.5, 0.25]], dtype=np.float32)
        out = bilstm_encode(Tensor(seq), params)
        assert np.allclose(out.data, numpy_bilstm_oracle(seq, params), atol=1e-6)

    def test_stacked_layers_match_oracle(self, rng):
        params = BiLstmParams.create(rng, input_dim=3, num_layers=2)
        seq = rng.standard_normal((4, 3)).astype(np.float32)
        out = bilstm_encode(Tensor(seq), params)
        assert out.shape == (6,)
        assert np.allclose(out.data, numpy_bilstm_oracle(seq, params), atol=1e-5)

    def test_single_step_sequence(self, rng):
        params = BiLstmParams.create(rng, input_dim=3, num_layers=2)
        out = bilstm_encode(Tensor(rng.standard_normal((1, 3))), params)
        assert out.shape == (6,)
        assert np.abs(out.data).max() > 0

    def test_output_width_is_twice_hidden(self, rng):
        params = BiLstmParams.create(rng, input_dim=5, num_layers=2)
        out = bilstm_encode(Tensor(rng.standard_normal((3, 5))), params)
        assert out.shape == (10,)

    def test_empty_sequence_rejected(self, rng):
        params = BiLstmParams.create(rng, input_dim=3, num_layers=1)
        with pytest.raises(UsageError):
            bilstm_encode(Tensor(np.zeros((0, 3))), params)

    def test_gradients_match_finite_differences(self):
        with T.precision("float64"):
            rng = np.random.default_rng(9)
            params = BiLstmParams.create(rng, input_dim=3, hidden_size=2, num_layers=2)
            seq = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
            tensors = [seq] + list(params.parameters().values())

            def fn(seq, *_):
                return bilstm_encode(seq, params)

            report = T.grad_check(fn, tensors, tol=1e-5, name="bilstm")
        assert report.passed, report


class TestSequenceUtilities:
    def test_position_zero_adds_zero_and_one(self):
        table = sinusoid_table(2, 8)
        assert np.array_equal(table[0, 0::2], np.zeros(4))   # sin(0)
        assert np.array_equal(table[0, 1::2], np.ones(4))    # cos(0)

    def test_disabled_flag_is_identity(self, rng):
        seq = Tensor(rng.standard_normal((3, 8)))
        assert add_positional(seq, False, np.arange(3)) is seq

    def test_positions_zero_and_one_differ_everywhere(self):
        table = sinusoid_table(2, 12)
        assert (table[0] != table[1]).all()

    def test_enabled_adds_table(self, rng):
        # Packed rows of sequences of 3 and 2: each row at its own position.
        seq = Tensor(rng.standard_normal((5, 8)))
        positions = np.asarray([0, 1, 2, 0, 1])
        out = add_positional(seq, True, positions)
        table = sinusoid_table(3, 8).astype(np.float32)
        assert np.allclose(out.data, seq.data + table[positions])

    def test_table_rows_do_not_depend_on_its_length(self):
        for dim in (8, 768, 1024):
            longest = sinusoid_table(400, dim)
            for length in (1, 7, 173, 399):
                assert np.array_equal(sinusoid_table(length, dim), longest[:length])

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_kept_table_adds_the_rows_of_a_fresh_one_bitwise(self, dtype):
        # Longest positions 4, then 150 (the table grows), then 30 (it does not).
        rng = np.random.default_rng(6)
        with T.precision(dtype):
            for longest in (4, 150, 30):
                positions = np.concatenate([np.arange(longest + 1), np.arange(3)])
                seq = Tensor(rng.standard_normal((positions.size, 20)))
                out = add_positional(seq, True, positions)
                fresh = seq.data + Tensor(sinusoid_table(longest + 1, 20)[positions]).data
                assert out.data.dtype == np.dtype(dtype)
                assert np.array_equal(out.data, fresh)


class TestXavierUniform:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_equals_generator_uniform_bit_for_bit(self, dtype):
        fan_in, fan_out = 300, 70
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        with T.precision(dtype):
            weights = blocks.xavier_uniform(ours, fan_in, fan_out)
            expected = Tensor(theirs.uniform(-bound, bound, size=(fan_in, fan_out)))
        assert weights.data.dtype == np.dtype(dtype)
        assert np.array_equal(weights.data, expected.data)
        assert ours.random() == theirs.random()
