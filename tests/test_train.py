import numpy as np
import pytest

from discourse_rater import tensor as T
from discourse_rater.data import SynthConfig, generate_synthetic, uniform_signal
from discourse_rater.errors import (ConfigError, NumericsError, TrainingError,
                                    UsageError)
from discourse_rater.model import ModelConfig, build_model, forward
from discourse_rater.objective import COMPONENTS
from discourse_rater.tensor import Tensor
from discourse_rater.train import (CHUNK, AdamW, EarlyStopper,
                                   PlateauScheduler, TrainConfig, batch_loss,
                                   collate_batch, component_weights,
                                   evaluation_loss, predict, train)
from helpers import fusion_oracle, longest_query, make_segment


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
        # "big" spans two update chunks; its gradient comes in two parts
        # through ``_accum``, as backward writes it: the first into its slot
        # of the flat gradient, the second added there.  "idle" never gets
        # one, "pre" has one before construction, "rebound" gets a new array
        # each step and None once.
        shapes = {"big": (300, 250), "idle": (5,), "pre": (2, 3), "rebound": (4,)}
        assert np.prod(shapes["big"]) > CHUNK
        with T.precision(dtype):
            params = {name: Tensor(rng.standard_normal(shape), requires_grad=True)
                      for name, shape in shapes.items()}
            start = {name: p.data.copy() for name, p in params.items()}
            grads_per_step = [
                {name: rng.standard_normal(shape).astype(dtype)
                 for name, shape in shapes.items() if name not in ("idle", "big")}
                for _ in range(4)]
            big_parts = [[rng.standard_normal(shapes["big"]).astype(dtype) for _ in range(2)]
                         for _ in grads_per_step]
            for grads, (first, second) in zip(grads_per_step, big_parts):
                grads["big"] = first + second
            grads_per_step[2]["rebound"] = None
            params["pre"].grad = grads_per_step[0]["pre"].copy()
            opt = AdamW(params, lr=1e-2, weight_decay=0.1)
            expected = adamw_reference(start, grads_per_step, lr=1e-2, weight_decay=0.1)
            for step, (grads, parts) in enumerate(zip(grads_per_step, big_parts)):
                if step:
                    opt.zero_grad()
                    T._accum(params["pre"], grads["pre"])
                for part in parts:
                    T._accum(params["big"], part)
                assert np.shares_memory(params["big"].grad, opt.flat_grad)
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
                T._accum(p, rng.standard_normal(p.shape))
            opt.step()
            before = {name: p.data.copy() for name, p in params.items()}
            for bad in (np.inf, np.nan):
                for p in params.values():
                    T._accum(p, rng.standard_normal(p.shape))
                params["second"].grad[1, 0] = bad
                params["third"].grad[0] = np.nan
                with pytest.raises(NumericsError, match="'second'"):
                    opt.step()
                for name, p in params.items():
                    assert np.array_equal(p.data, before[name]), name
            assert opt.step_count == 1


class TestGradientContract:
    @staticmethod
    def text_model_and_loss():
        """A text-only model and a function that builds one example's loss on
        the "nature" head alone, so the other heads get no gradient."""
        from discourse_rater.objective import oll_loss

        model = build_model(ModelConfig(modalities=("text",), seed=4))
        seg = make_segment(np.random.default_rng(1), text_len=3)
        return model, lambda: oll_loss(forward(model, [seg])["nature"], [2])

    def test_grad_is_none_after_construction_and_zero_grad(self):
        model, loss = self.text_model_and_loss()
        opt = AdamW(model.parameters())
        assert all(p.grad is None for p in model.parameters().values())
        loss().backward()
        assert any(p.grad is not None for p in model.parameters().values())
        opt.zero_grad()
        assert all(p.grad is None for p in model.parameters().values())

    def test_backward_writes_each_gradient_into_its_flat_slot(self):
        model, loss = self.text_model_and_loss()
        opt = AdamW(model.parameters())
        for _ in range(2):
            opt.zero_grad()
            loss().backward()
            reached = {name: p for name, p in model.parameters().items() if p.grad is not None}
            assert "head.nature.w1" in reached and "module0.self.attn.wq" in reached
            assert not any(name.startswith("head.pacing") for name in reached)
            origin = opt.flat_grad.__array_interface__["data"][0]
            for name, p in reached.items():
                assert p.grad is p.grad_slot, name
                assert p.grad.base is opt.flat_grad, name
                assert p.grad.__array_interface__["data"][0] - origin == \
                    p.data.__array_interface__["data"][0] \
                    - opt.flat.__array_interface__["data"][0], name

    def test_unreached_parameter_reads_as_zero_in_step(self):
        model, loss = self.text_model_and_loss()
        params = model.parameters()
        start = {name: p.data.copy() for name, p in params.items()}
        opt = AdamW(params, lr=1e-2, weight_decay=0.1)
        opt.flat_grad.fill(np.nan)              # what an unwritten slot could hold
        loss().backward()
        unreached = [name for name, p in params.items() if p.grad is None]
        assert unreached and all(name.startswith("head.") for name in unreached)
        grads = {name: p.grad.copy() for name, p in params.items() if p.grad is not None}
        opt.step()
        expected = adamw_reference(start, [grads], lr=1e-2, weight_decay=0.1)[0]
        for name, p in params.items():
            assert np.array_equal(p.data, expected[name]), name

    def test_gradients_through_add_and_concat_never_alias(self, rng, monkeypatch):
        # ``h`` reaches the loss through ``add`` and ``concat``, and so does
        # the leaf ``x``; every gradient any tensor is given is recorded, and
        # no two tensors may share memory.
        given = []
        accum = T._accum

        def recording(t, g, owned=False):
            accum(t, g, owned)
            given.append((t, t.grad))

        monkeypatch.setattr(T, "_accum", recording)
        x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        h = T.relu(x)
        left = h + x
        right = T.concat([h, x], axis=1)
        both = T.concat([left, right], axis=1)
        (both * Tensor(rng.standard_normal((4, 18)))).sum().backward()
        tensors = {id(t): t for t, _ in given}
        assert {id(x), id(h), id(left), id(right), id(both)} <= set(tensors)
        for i, (t, grad) in enumerate(given):
            for u, other in given[i + 1:]:
                if u is not t:
                    assert not np.shares_memory(grad, other)

    def test_finite_gradient_whose_squares_overflow_steps(self):
        # 1e19 squared is 1e38, below the float32 maximum of 3.4e38, so the
        # update itself stays finite; the sum of eleven such squares is not.
        with T.precision("float32"):
            params = {"w": Tensor(np.linspace(-1.0, 1.0, 8), requires_grad=True),
                      "b": Tensor(np.zeros(3), requires_grad=True)}
            start = {name: p.data.copy() for name, p in params.items()}
            grads = {"w": np.full(8, 1e19, np.float32), "b": np.full(3, -1e19, np.float32)}
            opt = AdamW(params, lr=1e-2, weight_decay=0.1)
            with np.errstate(over="ignore"):
                assert not np.isfinite(np.dot(grads["w"], grads["w"]))
            for name, p in params.items():
                T._accum(p, grads[name])
            opt.step()
            assert opt.step_count == 1
            expected = adamw_reference(start, [grads], lr=1e-2, weight_decay=0.1)[0]
            assert all(np.isfinite(v).all() and not np.array_equal(v, start[name])
                       for name, v in expected.items())
            for name, p in params.items():
                assert np.array_equal(p.data, expected[name]), name


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
    def test_batch_loss_gradients_match_per_example_gradients(self, rng):
        # One forward over the uneven batch against the oracle run on each
        # segment alone, losses averaged by hand.
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
        # A training step on packed rows against the oracle run on each
        # segment with its own dropout draws over the batch's padded length,
        # in the batch's example order.
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

            batch_loss(model, collate_batch(examples), weights, training=True,
                       rng=np.random.default_rng(9)).backward()
            batched = {name: t.grad for name, t in params.items()}

            for t in params.values():
                t.grad = None
            example_rng = np.random.default_rng(9)
            padded = longest_query(model, [ex.features for ex in examples])
            total = None
            for ex in examples:
                for component, probs in fusion_oracle(model, ex.features, padded,
                                                      rng=example_rng).items():
                    term = oll_loss(probs,
                                    [rating_to_index(ex.labels[component])],
                                    weights[component]) * (1.0 / len(examples))
                    total = term if total is None else total + term
            total.backward()
            for name, t in params.items():
                assert np.abs(batched[name] - t.grad).max() < 1e-12, name

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_gradients_equal_those_of_a_zero_filled_first_gradient(self, monkeypatch, dtype):
        # ``_accum`` takes a first gradient as it is when its primitive has
        # just made it in the layout of the tensor's data, and else copies it
        # into that layout; the reference rule zero-fills an array in that
        # layout and adds.  At these lengths a copy that kept the transposed
        # strides of ``permute``'s gradient would move the ``attn.bk``
        # gradients.
        def zero_fill_and_add(t, g, owned=False):
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


def toy_dataset(seed=21, teachers=6):
    cfg = SynthConfig(n_teachers=teachers, segments_per_teacher=4,
                      text_len=(3, 4), chunk_len=(3, 4),
                      signal_strength=uniform_signal(1.0), noise_sd=0.02,
                      rater_noise_sd=0.0, label_correlation=0.5, seed=seed)
    return generate_synthetic(cfg)


class TestTrainConfig:
    @pytest.mark.parametrize("setting,value", [
        ("lr", 0.0), ("lr", float("nan")), ("lr", float("inf")), ("batch_size", 0),
        ("max_epochs", 0), ("val_fraction", 0.0), ("val_fraction", 1.0), ("seed", -1)])
    def test_out_of_range_setting_is_config_error(self, setting, value):
        with pytest.raises(ConfigError, match=f"^{setting} "):
            TrainConfig(**{setting: value})


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
        config = TrainConfig(lr=3e-4, batch_size=8, max_epochs=15, seed=3)
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
