import numpy as np
import pytest

from discourse_rater import tensor as T
from discourse_rater.data import SynthConfig, generate_synthetic, uniform_signal
from discourse_rater.errors import NumericsError, TrainingError, UsageError
from discourse_rater.model import ModelConfig, build_model, forward
from discourse_rater.objective import COMPONENTS
from discourse_rater.tensor import Tensor
from discourse_rater.train import (CHUNK, AdamW, EarlyStopper,
                                   PlateauScheduler, TrainConfig,
                                   _clip_gradients, batch_loss, collate_batch,
                                   component_weights, evaluation_loss,
                                   pad_example, predict, train)
from helpers import fusion_oracle, make_segment


class TestAdamW:
    def make_param(self, value):
        return {"w": Tensor(np.asarray(value), requires_grad=True)}

    def test_zero_gradient_no_decay_leaves_params(self):
        params = self.make_param([1.0, -2.0])
        params["w"].grad = np.zeros(2, dtype=np.float32)
        opt = AdamW(params, lr=0.1, weight_decay=0.0)
        opt.step()
        assert np.allclose(params["w"].data, [1.0, -2.0])

    def test_zero_gradient_with_decay_shrinks(self):
        params = self.make_param([1.0, -2.0])
        start = params["w"].data.copy()
        opt = AdamW(params, lr=0.1, weight_decay=0.01)
        for step in range(1, 4):
            params["w"].grad = np.zeros(2, dtype=np.float32)
            opt.step()
            assert np.allclose(params["w"].data, start * (1 - 0.1 * 0.01) ** step,
                               rtol=1e-6)

    def test_first_step_is_minus_lr_for_unit_gradient(self):
        params = self.make_param([1.0])
        params["w"].grad = np.ones(1, dtype=np.float32)
        opt = AdamW(params, lr=0.1, weight_decay=0.0)
        opt.step()
        assert params["w"].data[0] == pytest.approx(0.9, abs=1e-6)

    def test_non_finite_gradient_rejected(self):
        params = self.make_param([1.0])
        params["w"].grad = np.asarray([np.nan], dtype=np.float32)
        opt = AdamW(params, lr=0.1)
        with pytest.raises(Exception, match="w"):
            opt.step()

    def test_one_step_descends_quadratic_bowl(self):
        target = np.asarray([0.5, -1.5, 2.0], dtype=np.float32)
        w = Tensor(np.zeros(3), requires_grad=True)
        opt = AdamW({"w": w}, lr=1e-4, weight_decay=0.0)

        def loss_value():
            diff = w - Tensor(target)
            return (diff * diff).sum()

        before = float(loss_value().data)
        loss = loss_value()
        loss.backward()
        opt.step()
        assert float(loss_value().data) < before


def adamw_reference(values, grads_per_step, lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
    """AdamW one array at a time: the optimizer's formula, a missing gradient
    read as zero.  Returns the values after each step."""
    b1, b2 = betas
    values = {name: v.copy() for name, v in values.items()}
    m = {name: np.zeros_like(v) for name, v in values.items()}
    v2 = {name: np.zeros_like(v) for name, v in values.items()}
    after = []
    for step, grads in enumerate(grads_per_step, 1):
        bc1, bc2 = 1.0 - b1 ** step, 1.0 - b2 ** step
        for name, p in values.items():
            g = grads.get(name)
            g = np.zeros_like(p) if g is None else g
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v2[name] = b2 * v2[name] + (1.0 - b2) * g * g
            update = (m[name] / bc1) / (np.sqrt(v2[name] / bc2) + eps)
            values[name] = p - lr * weight_decay * p - lr * update
        after.append({name: v.copy() for name, v in values.items()})
    return after


DTYPES = ("float32", "float64")


class TestFlatAdamW:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_per_array_reference_bit_for_bit(self, rng, dtype):
        # "big" spans two update chunks; its gradient accumulates in place,
        # as backward does.  "idle" never gets one, "pre" has one before
        # construction, "rebound" gets a new array each step and None once.
        shapes = {"big": (300, 250), "idle": (5,), "pre": (2, 3), "rebound": (4,)}
        assert np.prod(shapes["big"]) > CHUNK
        with T.precision(dtype):
            params = {name: Tensor(rng.standard_normal(shape), requires_grad=True)
                      for name, shape in shapes.items()}
            start = {name: p.data.copy() for name, p in params.items()}
            grads_per_step = [
                {name: rng.standard_normal(shape).astype(dtype)
                 for name, shape in shapes.items() if name != "idle"} for _ in range(4)]
            grads_per_step[2]["rebound"] = None
            params["pre"].grad = grads_per_step[0]["pre"].copy()
            opt = AdamW(params, lr=1e-2, weight_decay=0.1)
            expected = adamw_reference(start, grads_per_step, lr=1e-2, weight_decay=0.1)
            for step, grads in enumerate(grads_per_step):
                if step:
                    opt.zero_grad()
                    params["pre"].grad += grads["pre"]
                params["big"].grad += grads["big"]
                params["rebound"].grad = grads["rebound"]
                opt.step()
                for name, p in params.items():
                    assert p.data.dtype == np.dtype(dtype), name
                    assert np.array_equal(p.data, expected[step][name]), (step, name)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_non_finite_gradient_names_parameter_and_changes_nothing(self, rng, dtype):
        # The bad value sits after a parameter that fills more than one
        # chunk, so an update that ran before the check would show.
        with T.precision(dtype):
            params = {name: Tensor(rng.standard_normal(shape), requires_grad=True)
                      for name, shape in (("first", (CHUNK + 7,)), ("second", (3, 2)),
                                          ("third", (4,)))}
            opt = AdamW(params, lr=1e-2, weight_decay=0.1)
            for p in params.values():
                p.grad += rng.standard_normal(p.shape)
            opt.step()
            before = {name: p.data.copy() for name, p in params.items()}
            for bad in (np.inf, np.nan):
                for p in params.values():
                    p.grad += rng.standard_normal(p.shape)
                params["second"].grad[1, 0] = bad
                params["third"].grad[0] = np.nan
                with pytest.raises(NumericsError, match="'second'"):
                    opt.step()
                for name, p in params.items():
                    assert np.array_equal(p.data, before[name]), name
            assert opt.step_count == 1

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_clipping_matches_per_parameter_norm(self, rng, dtype):
        with T.precision(dtype):
            model = build_model(ModelConfig(modalities=("text",), seed=12))
            opt = AdamW(model.parameters())
            for p in model.parameters().values():
                p.grad += rng.standard_normal(p.shape)
            grads = {name: p.grad.astype(np.float64) for name, p in model.parameters().items()}
            norm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))

            _clip_gradients(opt.flat_grad, 2.0 * norm)
            for name, p in model.parameters().items():
                assert np.array_equal(p.grad, grads[name].astype(dtype)), name

            _clip_gradients(opt.flat_grad, 0.5 * norm)
            for name, p in model.parameters().items():
                assert np.allclose(p.grad, 0.5 * grads[name], rtol=1e-6, atol=0.0), name
            clipped = np.sqrt(sum(float((p.grad.astype(np.float64) ** 2).sum())
                                  for p in model.parameters().values()))
            assert clipped == pytest.approx(0.5 * norm, rel=1e-6)


class TestPlateauScheduler:
    def run_trace(self, losses, lr=1.0, patience=5):
        opt = AdamW({"w": Tensor(np.zeros(1), requires_grad=True)}, lr=lr)
        sched = PlateauScheduler(opt, patience=patience)
        lrs = []
        for loss in losses:
            sched.update(loss)
            lrs.append(opt.lr)
        return lrs

    def test_strictly_decreasing_losses_keep_lr(self):
        lrs = self.run_trace([1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
        assert all(lr == 1.0 for lr in lrs)

    def test_flat_trace_halves_at_sixth_epoch(self):
        lrs = self.run_trace([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        assert lrs[:5] == [1.0] * 5
        assert lrs[5] == 0.5  # halved exactly at epoch 6

    def test_two_plateaus_quarter_lr(self):
        lrs = self.run_trace([1.0] + [1.0] * 5 + [1.0] * 5)
        assert lrs[-1] == 0.25

    def test_counter_resets_on_improvement(self):
        lrs = self.run_trace([1.0, 1.0, 1.0, 0.5, 1.0, 1.0, 1.0, 1.0])
        assert all(lr == 1.0 for lr in lrs)


class TestEarlyStopper:
    def test_improving_never_stops(self):
        stopper = EarlyStopper(patience=15)
        for epoch, loss in enumerate(np.linspace(1.0, 0.1, 200), 1):
            stopper.update(float(loss), epoch)
            assert not stopper.should_stop

    def test_flat_fifteen_epochs_stop(self):
        stopper = EarlyStopper(patience=15)
        stopper.update(1.0, 1)
        for epoch in range(2, 17):
            stopper.update(1.0, epoch)
        assert stopper.should_stop
        assert stopper.best_epoch == 1

    def test_stops_exactly_after_fifteen(self):
        stopper = EarlyStopper(patience=15)
        stopper.update(1.0, 1)
        for epoch in range(2, 16):
            stopper.update(1.0, epoch)
            assert not stopper.should_stop
        stopper.update(1.0, 16)
        assert stopper.should_stop

    def test_improvement_at_epoch_fourteen_resets(self):
        stopper = EarlyStopper(patience=15)
        stopper.update(1.0, 1)
        for epoch in range(2, 15):
            stopper.update(1.0, epoch)
        stopper.update(0.5, 15)
        assert not stopper.should_stop
        assert stopper.stale == 0


class TestPadding:
    def test_padded_forward_matches_unpadded_float64(self, rng):
        # In float64 the only difference left is ~1e-16 BLAS reassociation,
        # so agreement at 1e-12 shows the padded rows contribute nothing.
        from discourse_rater.data import Example

        with T.precision("float64"):
            model = build_model(ModelConfig(modalities="T+A+V", fusion_modules=1, seed=1))
            seg = make_segment(rng, text_len=3, chunk_len=4)
            example = Example(seg, {c: 2.0 for c in COMPONENTS})
            padded_seg, masks = pad_example(example, {"text": 7, "audio": 9, "video": 9})
            base = forward(model, [seg])
            padded = forward(model, [padded_seg], masks=[masks])
            for component in base:
                assert np.abs(base[component].data - padded[component].data).max() < 1e-12

    def test_padded_forward_matches_unpadded_float32(self, rng):
        from discourse_rater.data import Example

        model = build_model(ModelConfig(modalities="T+A+V", fusion_modules=1, seed=1))
        seg = make_segment(rng, text_len=3, chunk_len=4)
        example = Example(seg, {c: 2.0 for c in COMPONENTS})
        padded_seg, masks = pad_example(example, {"text": 7, "audio": 9, "video": 9})
        base = forward(model, [seg])
        padded = forward(model, [padded_seg], masks=[masks])
        for component in base:
            assert np.abs(base[component].data - padded[component].data).max() < 2e-6

    def test_padded_forward_matches_unpadded_lstm(self, rng):
        from discourse_rater.data import Example

        model = build_model(ModelConfig(modalities="T+A", encoder="lstm", seed=1))
        seg = make_segment(rng, text_len=2, chunk_len=3)
        example = Example(seg, {c: 2.0 for c in COMPONENTS})
        padded_seg, masks = pad_example(example, {"text": 4, "audio": 5, "video": 5})
        base = forward(model, [seg])
        padded = forward(model, [padded_seg], masks=[masks])
        for component in base:
            assert np.abs(base[component].data - padded[component].data).max() == 0.0

    def test_padding_rows_contribute_zero_gradient(self, rng):
        from discourse_rater.data import Example
        from discourse_rater.objective import oll_loss

        with T.precision("float64"):
            model = build_model(ModelConfig(modalities="T+A", fusion_modules=1, seed=2))
            seg = make_segment(rng, text_len=3, chunk_len=3)
            example = Example(seg, {c: 2.0 for c in COMPONENTS})
            padded_seg, masks = pad_example(example, {"text": 6, "audio": 6, "video": 6})
            out = forward(model, [padded_seg], masks=[masks])
            loss = oll_loss(out["nature"], [4])
            loss.backward()
            grads = {name: (t.grad.copy() if t.grad is not None else None)
                     for name, t in model.parameters().items()}

            for t in model.parameters().values():
                t.grad = None
            out2 = forward(model, [seg])
            loss2 = oll_loss(out2["nature"], [4])
            loss2.backward()
            for name, t in model.parameters().items():
                if grads[name] is None:
                    assert t.grad is None or np.abs(t.grad).max() == 0.0
                else:
                    assert np.abs(grads[name] - t.grad).max() < 1e-12, name

    def test_batch_loss_gradients_match_per_example_gradients(self, rng):
        # One forward over the padded batch against the oracle run on each
        # unpadded segment alone, losses averaged by hand.
        from discourse_rater.data import Example
        from discourse_rater.objective import oll_loss, rating_to_index

        with T.precision("float64"):
            model = build_model(ModelConfig(modalities="T+A+V", fusion_modules=2, seed=5))
            ratings = (1.5, 3.0, 4.0)
            examples = [Example(make_segment(rng, seg_id=f"s{i}", text_len=t, chunk_len=c),
                                {comp: r for comp in COMPONENTS})
                        for i, (t, c, r) in enumerate(zip((2, 5, 3), (4, 2, 6), ratings))]
            weights = component_weights(examples, COMPONENTS)
            params = model.parameters()

            batch_loss(model, collate_batch(examples), weights, training=False,
                       rng=None).backward()
            batched = {name: t.grad for name, t in params.items()}

            for t in params.values():
                t.grad = None
            total = None
            for ex in examples:
                for component, probs in fusion_oracle(model, ex.features).items():
                    term = oll_loss(probs,
                                    [rating_to_index(ex.labels[component])],
                                    weights[component]) * (1.0 / len(examples))
                    total = term if total is None else total + term
            total.backward()
            for name, t in params.items():
                assert np.abs(batched[name] - t.grad).max() < 1e-12, name

    def test_training_step_gradients_match_per_example_gradients(self, rng):
        # A training step on packed rows against the oracle run on each padded
        # segment with its own dropout draws, in the batch's example order.
        from discourse_rater.data import Example
        from discourse_rater.objective import oll_loss, rating_to_index

        with T.precision("float64"):
            model = build_model(ModelConfig(modalities="T+A+V", fusion_modules=2,
                                            dropout=0.3, seed=5))
            examples = [Example(make_segment(rng, seg_id=f"s{i}", text_len=t, chunk_len=c),
                                {comp: r for comp in COMPONENTS})
                        for i, (t, c, r) in enumerate(zip((2, 5, 3), (4, 2, 6),
                                                          (1.5, 3.0, 4.0)))]
            weights = component_weights(examples, COMPONENTS)
            params = model.parameters()
            batch = collate_batch(examples)

            batch_loss(model, batch, weights, training=True,
                       rng=np.random.default_rng(9)).backward()
            batched = {name: t.grad for name, t in params.items()}

            for t in params.values():
                t.grad = None
            example_rng = np.random.default_rng(9)
            total = None
            for seg, masks, labels in batch:
                for component, probs in fusion_oracle(model, seg, masks,
                                                      rng=example_rng).items():
                    term = oll_loss(probs,
                                    [rating_to_index(labels[component])],
                                    weights[component]) * (1.0 / len(batch))
                    total = term if total is None else total + term
            total.backward()
            for name, t in params.items():
                assert np.abs(batched[name] - t.grad).max() < 1e-12, name

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_gradients_equal_those_of_a_zero_filled_first_gradient(self, monkeypatch, dtype):
        # ``_accum`` seeds a first gradient with one copy in the layout of the
        # tensor's data; the reference rule zero-fills that array and adds.
        # At these lengths a copy that kept the transposed strides of
        # ``permute``'s gradient would move the ``attn.bk`` gradients.
        def zero_fill_and_add(t, g):
            if not t.requires_grad:
                return
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad += g

        from discourse_rater.data import Example

        def parameter_gradients():
            with T.precision(dtype):
                model = build_model(ModelConfig(modalities="T+A+V", fusion_modules=2, seed=5))
                examples = [Example(make_segment(np.random.default_rng(i), seg_id=f"s{i}",
                                                 text_len=t, chunk_len=c),
                                    {comp: r for comp in COMPONENTS})
                            for i, (t, c, r) in enumerate(zip((9, 17, 12), (20, 11, 25),
                                                              (1.5, 3.0, 4.0)))]
                loss = batch_loss(model, collate_batch(examples),
                                  component_weights(examples, COMPONENTS), training=True,
                                  rng=np.random.default_rng(1))
                loss.backward()
                return {name: t.grad for name, t in model.parameters().items()}

        seeded = parameter_gradients()
        monkeypatch.setattr(T, "_accum", zero_fill_and_add)
        reference = parameter_gradients()
        assert seeded.keys() == reference.keys()
        for name, grad in reference.items():
            assert grad.dtype == np.dtype(dtype), name
            assert np.array_equal(seeded[name], grad), name

    def test_evaluation_and_predict_keep_input_order(self, rng):
        # Ten segments of shuffled lengths run as two length-sorted groups;
        # results must come back in input order.
        from discourse_rater.data import Example
        from discourse_rater.objective import RATINGS, oll_loss, rating_to_index

        with T.precision("float64"):
            model = build_model(ModelConfig(modalities="T+A", seed=6))
            lengths = rng.permutation(10) + 1
            examples = [Example(make_segment(rng, seg_id=f"s{i}", text_len=int(n),
                                             chunk_len=int(11 - n)),
                                {c: RATINGS[i % 7] for c in COMPONENTS})
                        for i, n in enumerate(lengths)]
            weights = component_weights(examples, COMPONENTS)
            alone = [fusion_oracle(model, ex.features) for ex in examples]
            expected = 0.0
            for component in COMPONENTS:
                probs = T.concat([out[component] for out in alone], axis=0)
                labels = [rating_to_index(ex.labels[component]) for ex in examples]
                expected += float(oll_loss(probs, labels, weights[component]).data)
            got = evaluation_loss(model, examples, weights)
            assert abs(got - expected) < 1e-12

            predicted = predict(model, examples)
            assert list(predicted) == [ex.features.segment_id for ex in examples]
            for ex, out in zip(examples, alone):
                assert predicted[ex.features.segment_id] == {
                    c: RATINGS[int(np.argmax(out[c].data))] for c in COMPONENTS}

    def test_collate_pads_to_batch_max(self, rng):
        from discourse_rater.data import Example

        examples = [Example(make_segment(rng, seg_id=f"s{i}", text_len=2 + i,
                                         chunk_len=3 + i),
                            {c: 2.0 for c in COMPONENTS}) for i in range(3)]
        batch = collate_batch(examples)
        for seg, masks, _ in batch:
            assert seg.text.shape[0] == 4
            assert seg.audio.shape[0] == 5
        assert batch[0][1]["text"].sum() == 2  # only the real rows are valid


def toy_dataset(seed=21, teachers=6):
    cfg = SynthConfig(n_teachers=teachers, segments_per_teacher=4,
                      text_len=(3, 4), chunk_len=(3, 4),
                      signal_strength=uniform_signal(1.0), noise_sd=0.02,
                      rater_noise_sd=0.0, label_correlation=0.5, seed=seed)
    return generate_synthetic(cfg)


class TestTrain:
    def split(self, dataset, n_val_teachers=2):
        teachers = dataset.manifest.teacher_ids()
        return (dataset.examples_for_teachers(teachers[n_val_teachers:]),
                dataset.examples_for_teachers(teachers[:n_val_teachers]))

    def test_teacher_overlap_rejected(self):
        dataset = toy_dataset()
        examples = dataset.examples()
        with pytest.raises(UsageError):
            train(build_model(ModelConfig(modalities=("text",))), examples,
                  examples[:2], TrainConfig(max_epochs=1))

    def test_empty_sets_rejected(self):
        dataset = toy_dataset()
        train_ex, val_ex = self.split(dataset)
        with pytest.raises(UsageError):
            train(build_model(ModelConfig(modalities=("text",))), [], val_ex,
                  TrainConfig(max_epochs=1))

    def test_toy_planted_signal_reaches_near_zero_train_loss(self):
        # 16 segments, two classes pushed far apart along one direction.
        def planted(seed, n_per_class, teachers):
            rng = np.random.default_rng(seed)
            direction = np.random.default_rng(99).standard_normal(768)
            direction /= np.linalg.norm(direction)
            from discourse_rater.data import Example, SegmentFeatures

            out = []
            for i in range(n_per_class * 2):
                label = 1.0 if i % 2 == 0 else 4.0
                sign = 5.0 if label == 1.0 else -5.0
                text = 0.05 * rng.standard_normal((3, 768)) + sign * direction
                seg = SegmentFeatures(
                    segment_id=f"seed{seed}-s{i}", teacher_id=teachers[i % len(teachers)],
                    lesson_id="l0", text=text.astype(np.float32),
                    audio=np.zeros((0, 1024), np.float32),
                    video=np.zeros((0, 768), np.float32))
                out.append(Example(seg, {c: label for c in COMPONENTS}))
            return out

        train_ex = planted(1, 8, ("tA", "tB"))
        val_ex = planted(2, 2, ("tC",))
        model = build_model(ModelConfig(modalities=("text",), fusion_modules=1,
                                        dropout=0.0, seed=3))
        config = TrainConfig(lr=3e-4, batch_size=8, max_epochs=15, seed=3,
                             early_stop_patience=1000, plateau_patience=1000,
                             grad_clip=1.0)
        history = train(model, train_ex, val_ex, config)
        assert min(history.train_losses) < 0.05

    def test_same_seed_gives_identical_traces(self):
        dataset = toy_dataset()
        train_ex, val_ex = self.split(dataset)

        def run():
            model = build_model(ModelConfig(modalities=("text",), seed=4))
            config = TrainConfig(lr=1e-4, batch_size=8, max_epochs=4, seed=4)
            return train(model, train_ex, val_ex, config)

        a, b = run(), run()
        assert a.train_losses == b.train_losses
        assert a.val_losses == b.val_losses
        assert a.lrs == b.lrs

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_restored_parameters_equal_a_run_stopped_at_the_best_epoch(self, dtype):
        dataset = toy_dataset()
        train_ex, val_ex = self.split(dataset)

        def run(max_epochs):
            model = build_model(ModelConfig(modalities=("text",), seed=5))
            history = train(model, train_ex, val_ex,
                            TrainConfig(lr=3e-4, batch_size=8, max_epochs=max_epochs, seed=5))
            return model, history

        with T.precision(dtype):
            full, history = run(8)
            assert 1 <= history.best_epoch < history.stopped_epoch == 8
            stopped, stopped_history = run(history.best_epoch)
            # Epoch 1 and the last epoch both improve the stopped run, so it
            # must keep its final state over the copy of an earlier epoch.
            assert history.best_epoch >= 2
            assert stopped_history.best_epoch == history.best_epoch
            for name, p in full.parameters().items():
                assert np.array_equal(p.data, stopped.parameters()[name].data), name

    def test_restored_checkpoint_reproduces_best_val_loss(self):
        dataset = toy_dataset()
        train_ex, val_ex = self.split(dataset)
        model = build_model(ModelConfig(modalities=("text",), seed=5))
        config = TrainConfig(lr=1e-3, batch_size=8, max_epochs=6, seed=5)
        weights = component_weights(train_ex, COMPONENTS)
        history = train(model, train_ex, val_ex, config, weights=weights)
        recomputed = evaluation_loss(model, val_ex, weights)
        assert recomputed == pytest.approx(history.best_val_loss, abs=1e-6)

    def test_predict_returns_ratings(self):
        dataset = toy_dataset()
        train_ex, val_ex = self.split(dataset)
        model = build_model(ModelConfig(modalities=("text",), seed=6))
        preds = predict(model, val_ex)
        from discourse_rater.objective import RATINGS

        assert set(preds) == {ex.features.segment_id for ex in val_ex}
        for ratings in preds.values():
            assert set(ratings) == set(COMPONENTS)
            for value in ratings.values():
                assert value in RATINGS

    def test_history_table_renders(self):
        dataset = toy_dataset()
        train_ex, val_ex = self.split(dataset)
        model = build_model(ModelConfig(modalities=("text",), seed=7))
        history = train(model, train_ex, val_ex,
                        TrainConfig(lr=1e-4, batch_size=8, max_epochs=2, seed=7))
        table = history.table()
        assert "epoch" in table and "val_loss" in table
        assert len(history.train_losses) == 2
