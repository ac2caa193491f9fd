import dataclasses
import importlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discourse_rater import cli
from discourse_rater.data import (DatasetManifest, SegmentRecord, SynthConfig,
                                  generate_synthetic, uniform_signal)
from discourse_rater.errors import DataError, TrainingError, UsageError
from discourse_rater.harness import (FoldPlan, GridPoint, NestedCvResult, _select_best,
                                     ablation_variants, default_grid,
                                     grid_search, make_folds, run_ablation,
                                     run_nested_cv, split_for_validation)
from discourse_rater.metrics import summarize_folds
from discourse_rater.model import ModelConfig
from discourse_rater.objective import COMPONENTS
from discourse_rater.train import TrainConfig


def tiny_dataset(seed=1, teachers=6, segments=2):
    cfg = SynthConfig(n_teachers=teachers, segments_per_teacher=segments,
                      text_len=(2, 3), chunk_len=(2, 3),
                      signal_strength=uniform_signal(1.0), noise_sd=0.05,
                      rater_noise_sd=0.0, seed=seed)
    return generate_synthetic(cfg)


def fast_train_config(**overrides):
    base = dict(lr=1e-4, batch_size=8, max_epochs=2, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


class TestMakeFolds:
    def test_five_teachers_one_per_fold(self):
        dataset = tiny_dataset(teachers=5)
        plan = make_folds(dataset.manifest, n_outer=5, n_inner=3, seed=0)
        assert sorted(len(fold) for fold in plan.outer) == [1, 1, 1, 1, 1]

    @given(counts=st.lists(st.integers(1, 3), min_size=5, max_size=20),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_partition_property(self, counts, seed):
        # Outer folds partition the teachers, and each fold's inner folds
        # partition its training teachers.  A fold holds at most 3 teachers
        # more than a fifth of the segments, so from 15 teachers on every
        # fold leaves the 3 that its inner folds need.
        segments = [SegmentRecord(f"t{i:02d}_{j}", f"t{i:02d}", "", "", {})
                    for i, count in enumerate(counts) for j in range(count)]
        teachers = sorted({seg.teacher_id for seg in segments})
        try:
            plan = make_folds(DatasetManifest(segments=segments), 5, 3, seed)
        except UsageError:
            assert len(teachers) < 15
            return
        assert len(plan.outer) == 5 and all(plan.outer)
        assert sorted(t for fold in plan.outer for t in fold) == teachers
        for fold_idx, inner_folds in enumerate(plan.inner):
            training = plan.training_teachers(fold_idx)
            assert sorted(training + plan.outer[fold_idx]) == teachers
            assert len(inner_folds) == 3 and all(inner_folds)
            assert sorted(t for fold in inner_folds for t in fold) == sorted(training)

    def test_same_seed_same_plan(self):
        dataset = tiny_dataset(teachers=8)
        a = make_folds(dataset.manifest, 5, 3, seed=7)
        b = make_folds(dataset.manifest, 5, 3, seed=7)
        assert a == b

    def test_different_seed_different_plan(self):
        dataset = tiny_dataset(teachers=10)
        a = make_folds(dataset.manifest, 5, 3, seed=7)
        b = make_folds(dataset.manifest, 5, 3, seed=8)
        assert a.outer != b.outer

    def test_fewer_teachers_than_folds_rejected(self):
        dataset = tiny_dataset(teachers=4)
        with pytest.raises(UsageError):
            make_folds(dataset.manifest, n_outer=5, n_inner=3, seed=0)

    def test_balanced_by_segment_count(self):
        # Uneven teachers: the greedy largest-first keeps loads within the
        # largest single teacher of each other.
        dataset = tiny_dataset(teachers=10, segments=3)
        manifest = dataset.manifest
        counts = {}
        for seg in manifest.segments:
            counts[seg.teacher_id] = counts.get(seg.teacher_id, 0) + 1
        plan = make_folds(manifest, n_outer=5, n_inner=3, seed=0)
        loads = [sum(counts[t] for t in fold) for fold in plan.outer]
        assert max(loads) - min(loads) <= max(counts.values())


class TestValidationSplit:
    def test_disjoint_and_complete(self):
        teachers = [f"t{i}" for i in range(10)]
        trn, val = split_for_validation(teachers, 0.2, seed=0)
        assert sorted(trn + val) == sorted(teachers)
        assert len(val) == 2

    def test_at_least_one_validation_teacher(self):
        teachers = ["a", "b", "c"]
        trn, val = split_for_validation(teachers, 0.05, seed=0)
        assert len(val) == 1 and len(trn) == 2

    def test_too_few_teachers_rejected(self):
        with pytest.raises(UsageError):
            split_for_validation(["only"], 0.2, seed=0)


class TestGrid:
    def test_default_grid_has_thirty_points(self):
        grid = default_grid()
        assert len(grid) == 30
        assert len(set(grid)) == 30

    def test_repeated_axis_values_count_once(self):
        grid = default_grid([1e-4, 1e-4], [8], [2, 1, 2])
        assert grid == [GridPoint(1e-4, 8, 2), GridPoint(1e-4, 8, 1)]
        # "--grid-m 1 1" is one point, so no inner job trains: the dataset
        # is never read.
        plan = FoldPlan(outer=[["t1"]], inner=[[["t2"], ["t3"], ["t4"]]], seed=0)
        assert grid_search(None, plan, 0, default_grid([1e-4], [8], [1, 1]),
                           ModelConfig(modalities=("text",)),
                           fast_train_config()) == GridPoint(1e-4, 8, 1)

    def test_off_grid_values_rejected(self):
        with pytest.raises(UsageError):
            GridPoint(lr=3e-4, batch_size=8, fusion_modules=1)
        with pytest.raises(UsageError):
            GridPoint(lr=1e-4, batch_size=64, fusion_modules=1)
        with pytest.raises(UsageError):
            GridPoint(lr=1e-4, batch_size=8, fusion_modules=6)

    def test_tie_break_prefers_parsimony(self):
        a = GridPoint(lr=1e-4, batch_size=8, fusion_modules=1)
        b = GridPoint(lr=1e-4, batch_size=8, fusion_modules=2)
        c = GridPoint(lr=1e-5, batch_size=8, fusion_modules=1)
        d = GridPoint(lr=1e-4, batch_size=16, fusion_modules=1)
        assert _select_best({a: 0.5, b: 0.5, c: 0.5, d: 0.5}) == a

    def test_higher_score_wins_over_parsimony(self):
        a = GridPoint(1e-4, 8, 1)
        b = GridPoint(1e-4, 8, 2)
        assert _select_best({a: 0.4, b: 0.6}) == b

    def test_all_failed_rejected(self):
        with pytest.raises(TrainingError):
            _select_best({GridPoint(1e-4, 8, 1): None})

    def test_single_point_grid_returned_without_training(self):
        point = GridPoint(lr=1e-4, batch_size=8, fusion_modules=1)
        plan = FoldPlan(outer=[["t1"]], inner=[[["t2"], ["t3"], ["t4"]]], seed=0)
        # dataset=None proves no training happens for a singleton grid
        assert grid_search(None, plan, 0, [point],
                           ModelConfig(modalities=("text",)),
                           fast_train_config()) == point


class TestNestedCv:
    def run_small(self, dataset, seed=0, **model_overrides):
        model_config = ModelConfig(modalities=("text",), dropout=0.0,
                                   **model_overrides)
        return run_nested_cv(dataset, model_config, fast_train_config(),
                             grid=[GridPoint(lr=1e-4, batch_size=8,
                                             fusion_modules=1)],
                             seed=seed)

    def test_exactly_one_prediction_per_segment_per_component(self):
        dataset = tiny_dataset()
        result = self.run_small(dataset)
        seen = {(row.segment_id, row.component) for row in result.predictions}
        expected = {(seg.segment_id, c) for seg in dataset.manifest.segments
                    for c in COMPONENTS}
        assert seen == expected
        assert len(result.predictions) == len(dataset.manifest.segments) * 3

    def test_no_teacher_leakage(self):
        dataset = tiny_dataset()
        result = self.run_small(dataset)
        teacher_of = {seg.segment_id: seg.teacher_id
                      for seg in dataset.manifest.segments}
        for fold_idx, test_teachers in enumerate(result.plan.outer):
            train_teachers = set(result.plan.training_teachers(fold_idx))
            assert not (set(test_teachers) & train_teachers)
        for row in result.predictions:
            assert teacher_of[row.segment_id] in result.plan.outer[row.fold]

    def test_deterministic_end_to_end(self):
        dataset = tiny_dataset()
        a = self.run_small(dataset, seed=5)
        b = self.run_small(dataset, seed=5)
        assert a.predictions == b.predictions
        assert a.report.to_dict() == b.report.to_dict()

    def test_true_ratings_match_manifest(self):
        dataset = tiny_dataset()
        result = self.run_small(dataset)
        labels = {seg.segment_id: seg.labels for seg in dataset.manifest.segments}
        for row in result.predictions:
            assert row.true_rating == labels[row.segment_id][row.component]

    def test_report_shape(self):
        dataset = tiny_dataset()
        result = self.run_small(dataset)
        assert set(result.report.components) == set(COMPONENTS)
        for summary in result.report.components.values():
            assert len(summary.per_fold) == 5
        assert result.report.confusions["nature"].sum() == len(dataset.manifest.segments)

    def test_single_task_mode(self):
        dataset = tiny_dataset()
        result = self.run_small(dataset, component="nature")
        assert {row.component for row in result.predictions} == {"nature"}
        assert set(result.report.components) == {"nature"}

    def test_job_whose_forward_raises_is_recorded_not_fatal(self, monkeypatch):
        # Every M=2 job hits a DataError in forward: that grid point is
        # skipped with the cause, and the CV finishes on M=1.
        # The package re-exports the function ``train`` under the module's name.
        train_module = importlib.import_module("discourse_rater.train")
        real_forward = train_module.forward

        def failing_forward(model, *args, **kwargs):
            if model.config.fusion_modules == 2:
                raise DataError("segment 'bad': corrupt features")
            return real_forward(model, *args, **kwargs)

        monkeypatch.setattr(train_module, "forward", failing_forward)
        dataset = tiny_dataset()
        grid = [GridPoint(1e-4, 8, 1), GridPoint(1e-4, 8, 2)]
        with pytest.warns(UserWarning, match="M=2 skipped: DataError: segment 'bad'"):
            result = run_nested_cv(dataset, ModelConfig(modalities=("text",), dropout=0.0),
                                   fast_train_config(max_epochs=1), grid=grid, seed=0)
        assert [p.fusion_modules for p in result.best_points] == [1] * 5
        assert len(result.predictions) == len(dataset.manifest.segments) * 3

    @pytest.mark.parametrize("grid,jobs", [(default_grid([1e-4], [8], [1, 2]), 5),
                                           (default_grid(), 95)], ids=["m_1_2", "default"])
    def test_lstm_trains_each_point_once_at_one_fusion_module(self, monkeypatch, grid, jobs):
        # A stand-in job that predicts the true ratings counts what would
        # train: the M axis collapses, so the default grid's 30 points are 6,
        # each trained on 3 inner folds of 5 outer folds, plus 5 outer jobs.
        harness = importlib.import_module("discourse_rater.harness")
        dataset = tiny_dataset()
        labels = {seg.segment_id: seg.labels for seg in dataset.manifest.segments}
        trained = []

        def true_ratings(job):
            trained.append(job.model_config.fusion_modules)
            return job.key, {seg.segment_id: labels[seg.segment_id]
                             for seg in dataset.manifest.segments
                             if seg.teacher_id in job.eval_teachers}, None

        monkeypatch.setattr(harness, "_run_job", true_ratings)
        result = run_nested_cv(dataset, ModelConfig(encoder="lstm", modalities="T+A"),
                               fast_train_config(), grid=grid, seed=0)
        assert trained == [1] * jobs
        assert [p.fusion_modules for p in result.best_points] == [1] * 5


class TestAblation:
    def test_loss_axis_rows_and_shared_plan(self):
        dataset = tiny_dataset()
        base = ModelConfig(modalities=("text",), dropout=0.0)
        grid = [GridPoint(lr=1e-4, batch_size=8, fusion_modules=1)]
        result = run_ablation(dataset, ablation_variants(base, ["loss"]), fast_train_config(),
                              grid=grid, seed=2)
        assert set(result.rows) == {"loss:l1", "loss:ce", "loss:oll"}
        # A variant's row is its own nested CV at the ablation's seed, and so
        # on the folds that seed gives every variant.
        alone = run_nested_cv(dataset, dataclasses.replace(base, loss="ce"),
                              fast_train_config(), grid=grid, seed=2)
        assert result.rows["loss:ce"].to_dict() == alone.report.to_dict()
        table = result.table()
        assert "loss:oll" in table and "Average" in table

    def test_variant_expansion(self):
        base = ModelConfig(modalities="T+A")
        names = [name for name, _ in ablation_variants(base, ["modality"])]
        assert names == ["modality:T", "modality:A", "modality:V",
                         "modality:T+A", "modality:T+A+V"]
        names = [name for name, _ in ablation_variants(base, ["encoder"])]
        assert names == ["encoder:lstm", "encoder:attention"]
        names = [name for name, _ in ablation_variants(base, ["loss"])]
        assert names == ["loss:l1", "loss:ce", "loss:oll"]

    def test_repeated_axis_counts_once(self):
        base = ModelConfig(modalities="T+A")
        names = [name for name, _ in ablation_variants(base, ["loss", "encoder", "loss"])]
        assert names == ["loss:l1", "loss:ce", "loss:oll", "encoder:lstm", "encoder:attention"]

    def test_lstm_variant_of_a_deeper_base_has_no_fusion_modules(self):
        variants = dict(ablation_variants(ModelConfig(modalities="T+A", fusion_modules=2),
                                          ["encoder"]))
        assert variants["encoder:lstm"].fusion_modules == 1
        assert variants["encoder:attention"].fusion_modules == 2

    def test_task_axis_sets_only_the_component(self):
        base = ModelConfig(modalities=("text",), component="nature")
        variants = dict(ablation_variants(base, ["task"]))
        assert variants == {"task:multi": dataclasses.replace(base, component=None),
                            **{f"task:single:{c}": dataclasses.replace(base, component=c)
                               for c in COMPONENTS}}

    def test_unknown_axis_rejected(self):
        with pytest.raises(UsageError):
            ablation_variants(ModelConfig(modalities=("text",)), ["flavor"])

    def test_no_axis_rejected(self):
        with pytest.raises(UsageError, match="at least one axis"):
            ablation_variants(ModelConfig(modalities=("text",)), [])

    @pytest.mark.parametrize("base,axes,runs", [
        (ModelConfig(modalities="T+A"), ["modality", "encoder", "task", "loss"], 11),
        (ModelConfig(modalities="T"), ["loss", "task"], 6),
    ], ids=["paper_axes_T+A", "loss_task_T"])
    def test_each_distinct_config_runs_once(self, monkeypatch, base, axes, runs):
        # modality:T+A, encoder:attention, task:multi and loss:oll are all
        # the T+A base; each row still reads the report of its own config.
        harness = importlib.import_module("discourse_rater.harness")
        ran = []

        def fake_nested_cv(dataset, config, train_config, grid, seed, jobs):
            ran.append(config)
            scores = {c: [len(ran) / 100] * 5 for c in config.head_components}
            return NestedCvResult(None, [], [], summarize_folds(scores))

        monkeypatch.setattr(harness, "run_nested_cv", fake_nested_cv)
        variants = ablation_variants(base, axes)
        result = run_ablation(None, variants, fast_train_config(), grid=[], seed=0, jobs=1)
        assert len(ran) == len(set(ran)) == runs
        assert len(variants) > runs
        for name, config in variants:
            if not name.startswith("task:single:"):
                expected = (ran.index(config) + 1) / 100
                assert result.rows[name].overall.mean == pytest.approx(expected)

    def test_single_task_rows_merged_per_component(self):
        dataset = tiny_dataset()
        result = run_ablation(dataset,
                              ablation_variants(ModelConfig(modalities=("text",), dropout=0.0),
                                                ["task"]),
                              fast_train_config(),
                              grid=[GridPoint(lr=1e-4, batch_size=8,
                                              fusion_modules=1)],
                              seed=3)
        assert "task:multi" in result.rows and "task:single" in result.rows
        single = result.rows["task:single"]
        assert set(single.components) == set(COMPONENTS)

    def test_parallel_jobs_match_serial(self):
        dataset = tiny_dataset()
        config = ModelConfig(modalities=("text",), dropout=0.0)
        grid = [GridPoint(lr=1e-4, batch_size=8, fusion_modules=1)]
        serial = run_nested_cv(dataset, config, fast_train_config(),
                               grid=grid, seed=4, jobs=1)
        parallel = run_nested_cv(dataset, config, fast_train_config(),
                                 grid=grid, seed=4, jobs=2)
        assert serial.predictions == parallel.predictions
        assert serial.report.to_dict() == parallel.report.to_dict()


class TestWorkerPool:
    """``--jobs N`` starts no more workers than a stage has jobs, and a
    worker that dies ends the run with ``TrainingError``."""

    def test_pool_is_no_larger_than_the_job_list(self, monkeypatch):
        # A stand-in pool that records its size and runs the jobs in this
        # process: a real pool of 64 would start 64 processes at once.
        harness = importlib.import_module("discourse_rater.harness")
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        dataset = tiny_dataset()
        result = run_nested_cv(dataset, ModelConfig(modalities=("text",), dropout=0.0),
                               fast_train_config(max_epochs=1), grid=[GridPoint(1e-4, 8, 1)],
                               n_outer=5, seed=0, jobs=64)
        assert sizes == [5]
        assert len(result.predictions) == len(dataset.manifest.segments) * 3

    def test_dead_worker_is_training_error_and_cli_exit_1(self, tmp_path, monkeypatch,
                                                          capsys):
        # Forked workers inherit the patch: the job that holds out t000 dies.
        harness = importlib.import_module("discourse_rater.harness")
        real_fit = harness.fit_model

        def dying_fit(dataset, teachers, *args):
            if "t000" not in teachers:
                os._exit(3)
            return real_fit(dataset, teachers, *args)

        monkeypatch.setattr(harness, "fit_model", dying_fit)
        cfg = SynthConfig(n_teachers=6, segments_per_teacher=2, text_len=(2, 3),
                          chunk_len=(2, 3), seed=1)
        generate_synthetic(cfg, out_dir=tmp_path / "ds")
        code = cli.main(["cv", "--data", str(tmp_path / "ds"), "--out", str(tmp_path / "cv"),
                         "--modalities", "T", "--grid-lr", "1e-4", "--grid-batch", "8",
                         "--grid-m", "1", "--max-epochs", "1", "--jobs", "2"])
        assert code == 1
        assert "error: a worker process died in the outer-CV jobs" in capsys.readouterr().err


class TestLearningOracle:
    """The pipeline learns a signal planted in the text: a text-only nested CV
    with one grid point, on the north-star synth set with its signal in the
    text alone, reaches a QWK floor.  The floor was set from eight other
    seeds of this set and eight seeds of the same set without any signal."""

    FLOOR = 0.15

    def test_text_only_cv_reaches_the_qwk_floor(self):
        text_signal = {"text": {component: 0.8 for component in COMPONENTS}}
        dataset = generate_synthetic(SynthConfig(n_teachers=10, segments_per_teacher=4,
                                                 signal_strength=text_signal, seed=0))
        result = run_nested_cv(dataset, ModelConfig(modalities=("text",)),
                               TrainConfig(max_epochs=20), grid=[GridPoint(1e-4, 8, 1)], seed=0)
        assert result.report.overall.mean >= self.FLOOR
