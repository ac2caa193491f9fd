import dataclasses
import importlib
import os

import numpy as np
import pytest

from discourse_rater import cli
from discourse_rater.data import SynthConfig, generate_synthetic, uniform_signal
from discourse_rater.errors import DataError, TrainingError, UsageError
from discourse_rater.harness import (FoldPlan, GridPoint, _select_best,
                                     ablation_variants, default_grid,
                                     grid_search, make_folds, run_ablation,
                                     run_nested_cv, split_for_validation)
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

    def test_partition_property(self):
        dataset = tiny_dataset(teachers=9)
        plan = make_folds(dataset.manifest, n_outer=5, n_inner=3, seed=3)
        plan.validate_partition(dataset.manifest.teacher_ids())

    def test_same_seed_same_plan(self):
        dataset = tiny_dataset(teachers=8)
        a = make_folds(dataset.manifest, seed=7)
        b = make_folds(dataset.manifest, seed=7)
        assert a == b

    def test_different_seed_different_plan(self):
        dataset = tiny_dataset(teachers=10)
        a = make_folds(dataset.manifest, seed=7)
        b = make_folds(dataset.manifest, seed=8)
        assert a.outer != b.outer

    def test_fewer_teachers_than_folds_rejected(self):
        dataset = tiny_dataset(teachers=4)
        with pytest.raises(UsageError):
            make_folds(dataset.manifest, n_outer=5)

    def test_balanced_by_segment_count(self):
        # Uneven teachers: the greedy largest-first keeps loads within the
        # largest single teacher of each other.
        dataset = tiny_dataset(teachers=10, segments=3)
        manifest = dataset.manifest
        counts = {}
        for seg in manifest.segments:
            counts[seg.teacher_id] = counts.get(seg.teacher_id, 0) + 1
        plan = make_folds(manifest, n_outer=5, seed=0)
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

    def test_off_grid_values_rejected(self):
        with pytest.raises(UsageError):
            GridPoint(lr=3e-4)
        with pytest.raises(UsageError):
            GridPoint(batch_size=64)
        with pytest.raises(UsageError):
            GridPoint(fusion_modules=6)

    def test_tie_break_prefers_parsimony(self):
        a = GridPoint(lr=1e-4, batch_size=8, fusion_modules=1)
        b = GridPoint(lr=1e-4, batch_size=8, fusion_modules=2)
        c = GridPoint(lr=1e-5, batch_size=8, fusion_modules=1)
        d = GridPoint(lr=1e-4, batch_size=16, fusion_modules=1)
        assert _select_best({a: 0.5, b: 0.5, c: 0.5, d: 0.5}) == a

    def test_higher_score_wins_over_parsimony(self):
        a = GridPoint(fusion_modules=1)
        b = GridPoint(fusion_modules=2)
        assert _select_best({a: 0.4, b: 0.6}) == b

    def test_all_failed_rejected(self):
        with pytest.raises(TrainingError):
            _select_best({GridPoint(): None})

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
        result = self.run_small(dataset, task="single", component="nature")
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
        grid = [GridPoint(fusion_modules=1), GridPoint(fusion_modules=2)]
        with pytest.warns(UserWarning, match="M=2 skipped: DataError: segment 'bad'"):
            result = run_nested_cv(dataset, ModelConfig(modalities=("text",), dropout=0.0),
                                   fast_train_config(max_epochs=1), grid=grid, seed=0)
        assert [p.fusion_modules for p in result.best_points] == [1] * 5
        assert len(result.predictions) == len(dataset.manifest.segments) * 3


class TestAblation:
    def test_loss_axis_rows_and_shared_plan(self):
        dataset = tiny_dataset()
        result = run_ablation(dataset, ["loss"],
                              ModelConfig(modalities=("text",), dropout=0.0),
                              fast_train_config(),
                              grid=[GridPoint(lr=1e-4, batch_size=8,
                                              fusion_modules=1)],
                              seed=2)
        assert set(result.rows) == {"loss:l1", "loss:ce", "loss:oll"}
        assert result.plan == make_folds(dataset.manifest, seed=2)
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

    def test_unknown_axis_rejected(self):
        with pytest.raises(UsageError):
            ablation_variants(ModelConfig(modalities=("text",)), ["flavor"])

    def test_single_task_rows_merged_per_component(self):
        dataset = tiny_dataset()
        result = run_ablation(dataset, ["task"],
                              ModelConfig(modalities=("text",), dropout=0.0),
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
                               fast_train_config(max_epochs=1), grid=[GridPoint()],
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
                               TrainConfig(max_epochs=20), grid=[GridPoint()], seed=0)
        assert result.report.overall.mean >= self.FLOOR
