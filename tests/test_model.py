import dataclasses
import hashlib
import json
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from discourse_rater import tensor as T
from discourse_rater.blocks import Rows, dropout_keep, mlp_head
from discourse_rater.errors import (ConfigError, DataError, DiscourseRaterError, FormatError,
                                    NumericsError, UsageError)
from discourse_rater.model import (MODEL_DIM, FusionModel, ModelConfig, _build,
                                   _dropout_keeps, build_model, forward, load_model,
                                   parse_modalities, save_model)
from discourse_rater.objective import COMPONENTS
from discourse_rater.train import AdamW, TrainConfig
from helpers import (EDITS, edited, fusion_oracle, longest_query, make_segment,
                     numpy_bilstm_oracle)


class TestModelConfig:
    def test_parse_modalities(self):
        assert parse_modalities("T+A") == ("text", "audio")
        assert parse_modalities("v") == ("video",)
        assert parse_modalities(("audio", "text")) == ("text", "audio")

    def test_unknown_modality_rejected(self):
        with pytest.raises(ConfigError):
            parse_modalities("T+X")

    def test_multimodal_attention_requires_text(self):
        with pytest.raises(ConfigError):
            ModelConfig(modalities=("audio", "video"))

    def test_fusion_module_grid_enforced(self):
        with pytest.raises(ConfigError):
            ModelConfig(modalities=("text",), fusion_modules=0)
        with pytest.raises(ConfigError):
            ModelConfig(modalities=("text",), fusion_modules=6)

    def test_lstm_requires_text_audio(self):
        with pytest.raises(ConfigError):
            ModelConfig(modalities=("text",), encoder="lstm")
        ModelConfig(modalities="T+A", encoder="lstm")  # fine

    def test_lstm_has_no_fusion_modules(self):
        with pytest.raises(ConfigError, match="M=1"):
            ModelConfig(encoder="lstm", modalities="T+A", fusion_modules=2)

    def test_single_task_needs_component(self):
        # A component selects single-task mode; None keeps all three heads.
        assert ModelConfig(modalities=("text",)).head_components == COMPONENTS
        with pytest.raises(ConfigError, match="component"):
            ModelConfig(modalities=("text",), component="warmth")
        cfg = ModelConfig(modalities=("text",), component="nature")
        assert cfg.head_components == ("nature",)

    @pytest.mark.parametrize("config,query,contexts", [
        (ModelConfig(modalities="T"), "text", ()),
        (ModelConfig(modalities="A"), "audio", ()),
        (ModelConfig(modalities="V"), "video", ()),
        (ModelConfig(modalities="T+A"), "text", ("audio",)),
        (ModelConfig(modalities="T+A+V", fusion_modules=2), "text", ("audio", "video")),
        (ModelConfig(modalities="T+A", encoder="lstm"), "text", ("audio",)),
    ], ids=["T", "A", "V", "T+A", "T+A+V_M2", "T+A_lstm"])
    def test_query_and_context_streams(self, config, query, contexts):
        assert (config.query, config.contexts) == (query, contexts)

    def test_roundtrips_through_dict(self):
        # As a checkpoint stores it: the fields as JSON, modalities an array.
        cfg = ModelConfig(modalities="T+A+V", fusion_modules=3, loss="ce", seed=9)
        doc = json.loads(json.dumps(dataclasses.asdict(cfg)))
        assert doc["modalities"] == ["text", "audio", "video"]
        assert ModelConfig(**doc) == cfg


class TestBuildModel:
    def test_text_only_has_single_self_block(self):
        model = build_model(ModelConfig(modalities=("text",), fusion_modules=1))
        assert [modality for modality, _ in model.stack] == [None]
        assert set(model.cls) == {"text"}
        assert set(model.heads) == set(COMPONENTS)

    def test_text_audio_m3_block_counts(self):
        model = build_model(ModelConfig(modalities="T+A", fusion_modules=3))
        assert [modality for modality, _ in model.stack] == ["audio", None] * 3
        assert [block.attention.wk.shape[0] for _, block in model.stack] == [1024, 768] * 3

    def test_same_seed_gives_bitwise_identical_parameters(self):
        cfg = ModelConfig(modalities="T+A+V", fusion_modules=2, seed=5)
        a = build_model(cfg)
        b = build_model(cfg)
        for name, tensor in a.parameters().items():
            assert np.array_equal(tensor.data, b.parameters()[name].data), name

    def test_different_seed_changes_parameters(self):
        cfg = ModelConfig(modalities=("text",), seed=5)
        a = build_model(cfg)
        b = build_model(dataclasses.replace(cfg, seed=6))
        assert not np.array_equal(a.heads["nature"].w1.data, b.heads["nature"].w1.data)

    def test_unimodal_audio_gets_input_projection(self):
        model = build_model(ModelConfig(modalities=("audio",)))
        assert model.audio_in_w is not None
        assert model.audio_in_w.shape == (1024, 768)

    def test_unused_modality_parameters_do_not_exist(self):
        model = build_model(ModelConfig(modalities="T+A", fusion_modules=1))
        names = model.parameters()
        assert not any("video" in name for name in names)

    def test_parameter_count_positive(self):
        model = build_model(ModelConfig(modalities=("text",)))
        assert model.num_parameters() > 1_000_000


class TestForward:
    def test_multi_task_probability_vectors(self, rng):
        model = build_model(ModelConfig(modalities="T+A", fusion_modules=1, seed=1))
        seg = make_segment(rng)
        out = forward(model, [seg])
        assert set(out) == set(COMPONENTS)
        for probs in out.values():
            assert probs.shape == (1, 7)
            assert abs(probs.data.sum() - 1.0) < 1e-6

    def test_single_task_single_head(self, rng):
        model = build_model(ModelConfig(modalities=("text",), component="questioning", seed=1))
        out = forward(model, [make_segment(rng)])
        assert set(out) == {"questioning"}

    def test_regression_mode_scalar_outputs(self, rng):
        model = build_model(ModelConfig(modalities=("text",), loss="l1", seed=1))
        out = forward(model, [make_segment(rng)])
        for score in out.values():
            assert score.shape == (1, 1)

    def test_forward_deterministic(self, rng):
        model = build_model(ModelConfig(modalities="T+A+V", fusion_modules=2, seed=2))
        seg = make_segment(rng)
        a = forward(model, [seg])
        b = forward(model, [seg])
        for component in a:
            assert np.array_equal(a[component].data, b[component].data)

    def test_empty_required_sequence_names_segment_and_modality(self, rng):
        model = build_model(ModelConfig(modalities="T+A", seed=1))
        seg = make_segment(rng, seg_id="seg-empty")
        seg.audio = np.zeros((0, 1024), dtype=np.float32)
        with pytest.raises(DataError, match="seg-empty.*audio"):
            forward(model, [seg])

    def test_audio_kv_permutation_invariance_without_positions(self, rng):
        model = build_model(ModelConfig(modalities="T+A", fusion_modules=2,
                                        positional=False, seed=3))
        seg = make_segment(rng, chunk_len=6)
        base = forward(model, [seg])
        perm = rng.permutation(6)
        shuffled = make_segment(rng, chunk_len=6)
        shuffled.text = seg.text
        shuffled.audio = seg.audio[perm]
        shuffled.video = seg.video
        permuted = forward(model, [shuffled])
        for component in base:
            assert np.abs(base[component].data - permuted[component].data).max() < 1e-5

    def test_unimodal_variants_run(self, rng):
        for modality in ("text", "audio", "video"):
            model = build_model(ModelConfig(modalities=(modality,), seed=4))
            out = forward(model, [make_segment(rng)])
            assert set(out) == set(COMPONENTS)

    def test_no_nan_for_large_inputs(self, rng):
        model = build_model(ModelConfig(modalities="T+A+V", fusion_modules=1, seed=5))
        seg = make_segment(rng, scale=100.0)
        out = forward(model, [seg])
        for probs in out.values():
            assert np.isfinite(probs.data).all()

    def test_every_parameter_participates(self, rng):
        from discourse_rater import tensor as T
        from discourse_rater.objective import oll_loss, rating_to_index

        model = build_model(ModelConfig(modalities="T+A+V", fusion_modules=1, seed=6))
        out = forward(model, [make_segment(rng)])
        losses = []
        for component, probs in out.items():
            losses.append(oll_loss(probs, [rating_to_index(2.5)]))
        total = losses[0] + losses[1] + losses[2]
        total.backward()
        for name, tensor in model.parameters().items():
            assert tensor.grad is not None, name
            assert np.abs(tensor.grad).max() > 0, name

    def test_single_task_head_matches_multi_task_head(self, rng):
        multi = build_model(ModelConfig(modalities=("text",), seed=7))
        single = build_model(ModelConfig(modalities=("text",), component="nature", seed=8))
        # Align all shared parameters and the one head.
        multi_params = multi.parameters()
        for name, tensor in single.parameters().items():
            tensor.data = multi_params[name].data.copy()
        seg = make_segment(rng)
        assert np.allclose(forward(single, [seg])["nature"].data,
                           forward(multi, [seg])["nature"].data)


def uneven_segments(rng, lengths=((2, 4), (5, 2), (3, 6))):
    return [make_segment(rng, seg_id=f"s{i}", text_len=t, chunk_len=c)
            for i, (t, c) in enumerate(lengths)]


class TestBatchedForward:
    # float64 throughout: what is left between the batched path and the
    # per-segment oracle is BLAS reassociation, ~1e-16 relative.
    @pytest.mark.parametrize("config", [
        dict(modalities="T", fusion_modules=1),
        dict(modalities="A", fusion_modules=1),
        dict(modalities="T+A+V", fusion_modules=2),
        dict(modalities="T", fusion_modules=1, loss="l1"),
    ], ids=["T", "A", "T+A+V-M2", "T-l1"])
    def test_uneven_unpadded_batch_matches_each_segment_alone(self, rng, config):
        with T.precision("float64"):
            model = build_model(ModelConfig(seed=3, **config))
            segments = uneven_segments(rng)
            out = forward(model, segments)
            for row, seg in enumerate(segments):
                alone = fusion_oracle(model, seg)
                for component, value in alone.items():
                    assert out[component].shape[0] == len(segments)
                    assert np.abs(out[component].data[row] - value.data).max() < 1e-12

    @pytest.mark.parametrize("config", [
        dict(modalities="T", fusion_modules=1),
        dict(modalities="A", fusion_modules=1),
        dict(modalities="T+A+V", fusion_modules=2),
        dict(modalities="T", fusion_modules=1, loss="l1"),
    ], ids=["T", "A", "T+A+V-M2", "T-l1"])
    def test_training_batch_matches_each_segment_alone(self, rng, config):
        # Packed rows in training mode against the oracle drawing its own
        # dropout from a generator of the same seed, example by example.
        with T.precision("float64"):
            model = build_model(ModelConfig(seed=3, dropout=0.3, **config))
            segments = uneven_segments(rng)
            padded = longest_query(model, segments)
            batched_rng, example_rng = np.random.default_rng(5), np.random.default_rng(5)
            out = forward(model, segments, training=True, rng=batched_rng)
            for row, seg in enumerate(segments):
                alone = fusion_oracle(model, seg, padded, rng=example_rng)
                for component, value in alone.items():
                    assert np.abs(out[component].data[row] - value.data).max() < 1e-12

    def test_training_batch_draws_dropout_as_examples_in_order(self, rng):
        with T.precision("float64"):
            model = build_model(ModelConfig(modalities="T+A+V", fusion_modules=2,
                                            dropout=0.3, seed=4))
            segments = uneven_segments(rng)
            padded = longest_query(model, segments)
            batched_rng, example_rng = np.random.default_rng(7), np.random.default_rng(7)
            out = forward(model, segments, training=True, rng=batched_rng)
            for row, seg in enumerate(segments):
                alone = fusion_oracle(model, seg, padded, rng=example_rng)
                for component, value in alone.items():
                    assert np.abs(out[component].data[row] - value.data).max() < 1e-12
            assert batched_rng.random() == example_rng.random()

    def test_uneven_lstm_batch_equals_heads_over_each_segment_alone(self, rng):
        # The BiLSTM runs each segment on its own packed rows and nothing
        # else; the heads then run once over the batch.  Built without an
        # arena, the float64 model holds no gradient buffer: 575 MB, not 1.15 GB.
        with T.precision("float64"):
            model = _build(ModelConfig(modalities="T+A", encoder="lstm", seed=1),
                           np.random.default_rng(1))
            segments = uneven_segments(rng, lengths=((2, 4), (4, 2), (1, 3), (3, 1)))
            out = forward(model, segments)
            for row, seg in enumerate(segments):
                states = np.concatenate([numpy_bilstm_oracle(seg.modality(m), model.lstms[m])
                                         for m in ("text", "audio")])
                for component, head in model.heads.items():
                    alone = mlp_head(T.Tensor(states[None, :]), head).data[0]
                    assert np.abs(out[component].data[row] - alone).max() < 1e-12

    @pytest.mark.parametrize("encoder,modalities", [("attention", "T"), ("lstm", "T+A")])
    def test_empty_batch_is_usage_error(self, encoder, modalities):
        model = build_model(ModelConfig(modalities=modalities, encoder=encoder, seed=1))
        with pytest.raises(UsageError, match="at least one segment"):
            forward(model, [])

    def test_non_finite_feature_names_its_segment_and_modality(self, rng):
        model = build_model(ModelConfig(modalities="T+A", seed=1))
        segments = uneven_segments(rng, lengths=((2, 3), (2, 3)))
        segments[1].text[1, 5] = np.nan
        segments[1].audio[0, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(DataError) as err:
            forward(model, segments)
        message = str(err.value)
        assert "segment 's1': non-finite text features" in message
        assert "segment 's1': non-finite audio features" in message
        assert "'s0'" not in message
        assert isinstance(err.value.__cause__, NumericsError)

    def test_non_finite_parameter_keeps_the_original_error(self, rng):
        model = build_model(ModelConfig(modalities="T", seed=1))
        model.cls["text"].data[0] = np.nan
        with pytest.raises(NumericsError, match="softmax"):
            forward(model, uneven_segments(rng, lengths=((2, 3), (2, 3))))

    def test_non_finite_output_names_only_the_offending_segment(self, rng):
        model = build_model(ModelConfig(modalities="T+A", encoder="lstm", loss="l1", seed=1))
        segments = uneven_segments(rng, lengths=((2, 2), (2, 2), (2, 2)))
        segments[1].text[0, 0] = np.nan
        with pytest.raises(NumericsError, match="segment 's1': non-finite") as err:
            forward(model, segments)
        assert "'s0'" not in str(err.value) and "'s2'" not in str(err.value)


class TestDropoutKeeps:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_in_place_draws_match_dropout_keep_bitwise(self, dtype):
        # 5 examples x 5 dropping blocks x 2 sites = 50 draws; one block keeps all.
        stack = [SimpleNamespace(dropout_rate=rate) for rate in (0.1, 0.0, 0.3, 0.5, 0.25, 0.1)]
        rows, padded = Rows([4, 1, 6, 3, 2]), 6   # each draw covers the longest
        with T.precision(dtype):
            rng, reference_rng = np.random.default_rng(17), np.random.default_rng(17)
            keeps = _dropout_keeps(stack, rows, rng)
            for start, length in zip(rows.starts, rows.lengths):
                for block, keep in zip(stack, keeps):
                    assert (keep is None) == (block.dropout_rate == 0.0)
                    for site in keep or ():
                        drawn = dropout_keep(reference_rng, (padded, MODEL_DIM),
                                             block.dropout_rate)
                        assert site.dtype == np.dtype(dtype)
                        assert np.array_equal(site[start:start + length], drawn[:length])
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_an_rng_is_needed_only_with_dropout(self):
        assert _dropout_keeps([SimpleNamespace(dropout_rate=0.0)], Rows([2]), None) == [None]
        with pytest.raises(UsageError, match="rng"):
            _dropout_keeps([SimpleNamespace(dropout_rate=0.1)], Rows([2]), None)


class TestLstmBaseline:
    def test_pooled_width_is_3584(self, rng):
        model = build_model(ModelConfig(modalities="T+A", encoder="lstm", seed=1))
        assert model.heads["nature"].w1.shape == (3584, 512)
        out = forward(model, [make_segment(rng, text_len=2, chunk_len=2)])
        assert set(out) == set(COMPONENTS)

    def test_three_heads_in_multi_task_mode(self):
        model = build_model(ModelConfig(modalities="T+A", encoder="lstm"))
        assert len(model.heads) == 3

    def test_deterministic_under_seed(self, rng):
        cfg = ModelConfig(modalities="T+A", encoder="lstm", seed=9)
        seg = make_segment(rng, text_len=2, chunk_len=2)
        a = forward(build_model(cfg), [seg])
        b = forward(build_model(cfg), [seg])
        for component in a:
            assert np.array_equal(a[component].data, b[component].data)


def parameter_digests(model: FusionModel) -> dict[str, tuple]:
    """Name to (dtype, shape, SHA-256 of the values) of every parameter; a
    digest lets two models of up to 66M values be compared one at a time."""
    return {name: (p.data.dtype, p.shape, hashlib.sha256(np.ascontiguousarray(p.data)).digest())
            for name, p in model.parameters().items()}


def arena_offsets(params, buffer: np.ndarray, field: str = "data") -> list[int] | None:
    """Each parameter's element offset in the flat ``buffer``, when the
    parameters' ``field`` arrays (``data`` or ``grad_slot``) view it and tile
    it in order; else None."""
    arrays = [getattr(p, field) for p in params.values()]
    if not all(np.shares_memory(a, buffer) and a.flags.c_contiguous for a in arrays):
        return None
    origin = buffer.__array_interface__["data"][0]
    offsets = [(a.__array_interface__["data"][0] - origin) // buffer.itemsize for a in arrays]
    starts = np.cumsum([0] + [a.size for a in arrays])
    if offsets != list(starts[:-1]) or starts[-1] != buffer.size:
        return None
    return offsets


def assert_slots_at_value_offsets(model) -> list[int]:
    """Check that the parameters' values tile ``model.arena.buffer`` and each
    gradient slot sits at its value's offset in ``model.arena.grad``, the
    two rows of one allocation (see ``ParamArena``); returns the offsets."""
    params, arena = model.parameters(), model.arena
    offsets = arena_offsets(params, arena.buffer)
    assert offsets is not None
    assert arena_offsets(params, arena.grad, "grad_slot") == offsets
    assert arena.grad.dtype == arena.buffer.dtype
    assert arena.grad.base is arena.buffer.base is not None
    return offsets


class TestParameterArena:
    CONFIGS = {
        "T_M1": ModelConfig(modalities=("text",), fusion_modules=1, seed=3),
        "TAV_M2": ModelConfig(modalities="T+A+V", fusion_modules=2, seed=3),
        "A": ModelConfig(modalities=("audio",), seed=3),
        "lstm": ModelConfig(modalities="T+A", encoder="lstm", seed=3),
        "T_l1": ModelConfig(modalities=("text",), loss="l1", seed=3),
    }

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
    def test_build_equals_a_build_without_arena(self, config, dtype):
        with T.precision(dtype):
            model = build_model(config)
            assert_slots_at_value_offsets(model)
            in_arena = parameter_digests(model)
            del model
            alone = _build(config, np.random.default_rng(config.seed))
            assert all(p.data.base is None for p in alone.parameters().values())
            assert parameter_digests(alone) == in_arena

    @pytest.mark.parametrize("config", [CONFIGS["T_M1"], CONFIGS["A"]], ids=["T_M1", "A"])
    def test_optimizer_adopts_the_buffer(self, config):
        model = build_model(config)
        params = model.parameters()
        assert_slots_at_value_offsets(model)
        data = {name: p.data for name, p in params.items()}
        opt = AdamW(model, lr=TrainConfig().lr)
        assert opt.flat is model.arena.buffer and opt.flat_grad is model.arena.grad
        assert all(p.data is data[name] for name, p in params.items())

    def test_loaded_model_is_adopted_the_same_way(self, rng, tmp_path):
        model = build_model(self.CONFIGS["T_M1"])
        for p in model.parameters().values():
            p.data += rng.standard_normal(p.shape)
        save_model(model, tmp_path / "model.dfm")
        loaded = load_model(tmp_path / "model.dfm")
        params = loaded.parameters()
        offsets = assert_slots_at_value_offsets(loaded)
        assert offsets == arena_offsets(model.parameters(), model.arena.buffer)
        assert AdamW(loaded, lr=TrainConfig().lr).flat is loaded.arena.buffer
        for name, p in model.parameters().items():
            assert np.array_equal(params[name].data, p.data), name


# The checkpoint's tensor names, written out: a block's own names, then each
# config's full list in DFM1 order, so that neither depends on the model code.
ENCODER_BLOCK_NAMES = ("attn.wq", "attn.bq", "attn.wk", "attn.bk", "attn.wv", "attn.bv",
                       "attn.wo", "attn.bo", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2",
                       "ln1.gain", "ln1.bias", "ln2.gain", "ln2.bias")
LSTM_NAMES = tuple(f"l{layer}.{direction}.{name}" for layer in (0, 1)
                   for direction in ("fw", "bw") for name in ("wx", "wh", "b"))
HEAD_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")


def prefixed(prefix: str, names) -> list[str]:
    return [f"{prefix}.{name}" for name in names]


ALL_HEADS = [name for component in ("nature", "questioning", "explanations")
             for name in prefixed(f"head.{component}", HEAD_NAMES)]
CHECKPOINT_NAMES = {
    "TAV_M2": ["cls.text", "cls.audio", "cls.video"]
    + [name for i in (0, 1) for block in ("cross_audio", "cross_video", "self")
       for name in prefixed(f"module{i}.{block}", ENCODER_BLOCK_NAMES)] + ALL_HEADS,
    "lstm": prefixed("lstm.text", LSTM_NAMES) + prefixed("lstm.audio", LSTM_NAMES) + ALL_HEADS,
    "A": ["cls.audio", "audio_in.w", "audio_in.b"]
    + prefixed("module0.self", ENCODER_BLOCK_NAMES) + ALL_HEADS,
}


@pytest.mark.parametrize("config", CHECKPOINT_NAMES)
def test_checkpoint_tensor_names_and_order(config):
    # ``save_model`` writes the tensors in ``parameters()`` order (see
    # test_file_is_dfm1_written_field_by_field); a build without an arena
    # draws and touches nothing.
    model = _build(TestParameterArena.CONFIGS[config], None)
    assert list(model.parameters()) == CHECKPOINT_NAMES[config]


class TestCheckpoint:
    def test_roundtrip_reproduces_forward_bitwise(self, rng, tmp_path):
        model = build_model(ModelConfig(modalities="T+A", fusion_modules=2, seed=10))
        seg = make_segment(rng)
        before = forward(model, [seg])
        path = tmp_path / "model.dfm"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        after = forward(loaded, [seg])
        for component in before:
            assert np.array_equal(before[component].data, after[component].data)

    @pytest.mark.parametrize("task,component", [("multi", None), ("single", "questioning")])
    def test_header_with_the_older_task_key_loads(self, rng, tmp_path, task, component):
        # Files written while ``task`` was a setting hold it beside the
        # ``component`` that says the same; loading drops it.
        model = build_model(ModelConfig(modalities="T", component=component, seed=14))
        config = json.dumps({**dataclasses.asdict(model.config), "task": task},
                            sort_keys=True).encode("utf-8")
        tensors = [(name.encode(), p.data) for name, p in model.parameters().items()]
        (tmp_path / "old.dfm").write_bytes(dfm1_bytes(config, tensors))
        loaded = load_model(tmp_path / "old.dfm")
        assert loaded.config == model.config
        seg = make_segment(rng)
        before, after = forward(model, [seg]), forward(loaded, [seg])
        assert list(after) == list(model.config.head_components)
        for name in before:
            assert np.array_equal(before[name].data, after[name].data), name

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_roundtrip_restores_values_a_fresh_build_lacks(self, rng, tmp_path, dtype):
        config = ModelConfig(modalities="T+A+V", seed=10)
        with T.precision(dtype):
            model = build_model(config)
            for p in model.parameters().values():
                p.data += rng.standard_normal(p.shape)
            save_model(model, tmp_path / "model.dfm")
            loaded = load_model(tmp_path / "model.dfm")
            fresh = build_model(config)
        for name, p in model.parameters().items():
            got = loaded.parameters()[name].data
            assert got.dtype == np.dtype(dtype)
            assert np.array_equal(got, p.data.astype(np.float32).astype(dtype)), name
            assert not np.array_equal(got, fresh.parameters()[name].data), name

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.dfm"
        path.write_bytes(b"JUNKxxxx")
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert err.value.offset == 0

    def test_truncated_checkpoint_rejected(self, tmp_path):
        model = build_model(ModelConfig(modalities=("text",), seed=11))
        path = tmp_path / "model.dfm"
        save_model(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 100])
        with pytest.raises(FormatError):
            load_model(path)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_file_is_dfm1_written_field_by_field(self, tmp_path, dtype):
        with T.precision(dtype):
            model = build_model(ModelConfig(modalities="T", seed=12))
        save_model(model, tmp_path / "model.dfm")
        config = json.dumps(dataclasses.asdict(model.config), sort_keys=True).encode("utf-8")
        tensors = [(name.encode(), p.data) for name, p in model.parameters().items()]
        assert (tmp_path / "model.dfm").read_bytes() == dfm1_bytes(config, tensors)


def traced_peak(call, *args):
    """``call(*args)`` and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCheckpointMemory:
    """Saving copies no tensor of a float32 model, and loading allocates the
    arena and nothing the size of the model; a float64 model adds one
    float32 copy of its largest tensor to each."""

    MiB = 1 << 20

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_save_and_load_peaks(self, tmp_path, dtype):
        path = tmp_path / "model.dfm"
        with T.precision(dtype):
            model = build_model(ModelConfig(modalities="T+A+V", seed=13))
            cast = 0 if dtype == "float32" else \
                4 * max(p.size for p in model.parameters().values())
            _, save_peak = traced_peak(save_model, model, path)
            del model
            loaded, load_peak = traced_peak(load_model, path)
        assert save_peak < cast + self.MiB
        assert load_peak <= 2 * loaded.arena.buffer.nbytes + cast + self.MiB


def dfm1_bytes(config: bytes, tensors=()) -> bytes:
    """A DFM1 file written field by field: config JSON, then named tensors."""
    chunks = [b"DFM1", struct.pack("<I", len(config)), config, struct.pack("<I", len(tensors))]
    for name, arr in tensors:
        arr = np.asarray(arr, dtype="<f4")
        chunks += [struct.pack("<I", len(name)), name, struct.pack("<I", arr.ndim),
                   struct.pack(f"<{arr.ndim}I", *arr.shape), arr.tobytes()]
    return b"".join(chunks)


class TestCheckpointErrors:
    """Every malformed DFM1 raises FormatError at the byte where it was found;
    a path that cannot be read raises DataError."""

    def load_bytes(self, tmp_path, raw: bytes) -> FormatError:
        path = tmp_path / "model.dfm"
        path.write_bytes(raw)
        with pytest.raises(FormatError) as err:
            load_model(path)
        return err.value

    def saved_bytes(self, tmp_path) -> bytes:
        save_model(build_model(ModelConfig(modalities="T", seed=11)), tmp_path / "ok.dfm")
        return (tmp_path / "ok.dfm").read_bytes()

    @pytest.mark.parametrize("cut", [10, 30])
    def test_config_cut_short(self, tmp_path, cut):
        error = self.load_bytes(tmp_path, self.saved_bytes(tmp_path)[:cut])
        assert "truncated config" in str(error)
        assert error.offset == cut

    def test_config_not_utf8(self, tmp_path):
        error = self.load_bytes(tmp_path, dfm1_bytes(b'{"seed": "\xff"}'))
        assert "not UTF-8" in str(error)
        assert error.offset == 8 + 10

    def test_config_not_json(self, tmp_path):
        error = self.load_bytes(tmp_path, dfm1_bytes('{"é": }'.encode("utf-8")))
        assert "not JSON" in str(error)
        assert error.offset == 8 + len('{"é": '.encode("utf-8"))

    @pytest.mark.parametrize("config", [b"[1, 2]", b'"text"', b'{"bogus": 1}',
                                        b'{"modalities": 5}', b'{"dropout": "x"}'],
                             ids=["list", "string", "unknown-key", "bad-modalities",
                                  "bad-dropout"])
    def test_config_not_a_model_config(self, tmp_path, config):
        error = self.load_bytes(tmp_path, dfm1_bytes(config))
        assert "config" in str(error)
        assert error.offset == 8

    def test_tensor_name_not_utf8(self, tmp_path):
        raw = bytearray(self.saved_bytes(tmp_path))
        config_len = struct.unpack_from("<I", raw, 4)[0]
        name_at = 8 + config_len + 4 + 4
        raw[name_at + 2] = 0xFF
        error = self.load_bytes(tmp_path, bytes(raw))
        assert "tensor name is not UTF-8" in str(error)
        assert error.offset == name_at + 2

    def test_repeated_tensor_rejected(self, tmp_path):
        # Without the check one parameter would stay uninitialised.
        model = build_model(ModelConfig(modalities="T", seed=11))
        items = [(name.encode(), p.data) for name, p in model.parameters().items()]
        config = json.dumps(dataclasses.asdict(model.config), sort_keys=True).encode()
        error = self.load_bytes(tmp_path, dfm1_bytes(config, [items[0]] + items[:-1]))
        assert "repeated tensor" in str(error)

    @pytest.mark.parametrize("tensor", [0, -1], ids=["first", "last"])
    def test_cut_inside_tensor_values(self, tmp_path, tensor):
        raw = self.saved_bytes(tmp_path)
        _, values, end = dfm1_tensor_spans(raw)[tensor]
        cut = raw[:(values + end) // 2]
        error = self.load_bytes(tmp_path, cut)
        assert "truncated tensor" in str(error)
        assert error.offset == len(cut)

    @pytest.mark.parametrize("tensor", [0, -1], ids=["first", "last"])
    def test_cut_inside_tensor_header(self, tmp_path, tensor):
        raw = self.saved_bytes(tmp_path)
        header, _, _ = dfm1_tensor_spans(raw)[tensor]
        error = self.load_bytes(tmp_path, raw[:header + 2])
        assert "truncated checkpoint" in str(error)
        assert error.offset == header

    @pytest.mark.parametrize("name,reason", [("absent.dfm", "No such file"),
                                             (".", "Is a directory"),
                                             ("a\x00b.dfm", "null byte")],
                             ids=["missing", "directory", "nul-byte"])
    def test_unreadable_path_is_data_error(self, tmp_path, name, reason):
        with pytest.raises(DataError, match=f"cannot read checkpoint .*{reason}"):
            load_model(tmp_path / name)


def dfm1_tensor_spans(raw: bytes) -> list[tuple[int, int, int]]:
    """(header start, values start, values end) of each tensor of a DFM1 file."""
    (size,) = struct.unpack_from("<I", raw, 4)
    offset = 8 + size + 4
    spans = []
    while offset < len(raw):
        (size,) = struct.unpack_from("<I", raw, offset)
        (rank,) = struct.unpack_from("<I", raw, offset + 4 + size)
        values = offset + 8 + size + 4 * rank
        end = values + 4 * int(np.prod(struct.unpack_from(f"<{rank}I", raw, values - 4 * rank)))
        spans.append((offset, values, end))
        offset = end
    return spans


def dfm1_header_positions(raw: bytes) -> list[int]:
    """Byte positions of a DFM1 checkpoint outside its tensor values."""
    (size,) = struct.unpack_from("<I", raw, 4)
    positions = list(range(8 + size + 4))
    for header, values, _ in dfm1_tensor_spans(raw):
        positions += range(header, values)
    return positions


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory) -> tuple[bytes, list[int]]:
    path = tmp_path_factory.mktemp("dfm1") / "valid.dfm"
    save_model(build_model(ModelConfig(modalities="T", seed=11)), path)
    raw = path.read_bytes()
    return raw, dfm1_header_positions(raw)


class TestCheckpointFuzz:
    """Any DFM1 bytes either load as a model or raise a package error."""

    @staticmethod
    def load(tmp_path, raw: bytes) -> None:
        path = tmp_path / "fuzz.dfm"
        path.write_bytes(raw)
        try:
            load_model(path)
        except DiscourseRaterError:
            pass

    @given(edits=EDITS)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_edited_checkpoint_raises_only_package_errors(self, tmp_path, checkpoint, edits):
        raw, headers = checkpoint
        self.load(tmp_path, edited(raw, headers, edits))

    @given(body=st.binary(max_size=64))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_bytes_after_the_magic_raise_only_package_errors(self, tmp_path, body):
        self.load(tmp_path, b"DFM1" + body)
