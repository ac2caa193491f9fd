"""Smoke tests of the benchmark: every workload at a size that runs in seconds."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# infer_long keeps its paper-shaped segments, so the smoke runs cover both
# ways of making inputs.
SMOKE = {
    "train_long": dict(teachers=3, segments_per_teacher=2, text_len=(3, 6), chunk_len=(3, 6),
                       lesson_minutes=None),
    "cv_short": dict(teachers=6, segments_per_teacher=1, outer_folds=3, inner_folds=2),
    "infer_long": dict(teachers=2, segments_per_teacher=2),
}


@pytest.fixture(autouse=True)
def _outputs_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_ROUNDS", 2)


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = run.measure(name, seed=3, seconds=0, trace=False, env={}, **SMOKE[name])
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    result = run.measure(name, seed=3, seconds=0, trace=True, env={}, **SMOKE[name])
    assert result["correct"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(SPEC["per_layer"])
    assert (tmp_path / f"trace-{name}-seed3.json").is_file()
    assert 0 < metrics["trace.overhead_pct"] < 100
    assert metrics["tensor.matmul.calls"] > 0 and metrics["model.forward.calls"] > 0
    if name == "infer_long":
        assert metrics["tensor.backward.ms"] == 0 and metrics["train.AdamW.step.ms"] == 0
        assert metrics["model.load_model.ms"] > 0
    else:
        assert metrics["tensor.backward.ms"] > 0 and metrics["train.AdamW.step.calls"] > 0
    if name == "cv_short":
        shape = workloads.CvShort(seed=3, **SMOKE[name])
        points = len(shape.fusion_grid)
        assert metrics["harness.jobs"] == shape.outer_folds * (points * shape.inner_folds + 1)
    else:
        assert metrics["harness.jobs"] == 0


def test_paper_lengths_follow_segment_boundaries():
    lengths = workloads.paper_lengths(400, workloads.PAPER_LESSON_MINUTES, seed=5)
    assert lengths == workloads.paper_lengths(400, workloads.PAPER_LESSON_MINUTES, seed=5)
    chunks = [c for _, c in lengths]
    assert all(48 <= c <= 144 for c in chunks)
    assert chunks.count(96) > len(chunks) / 2
    assert all(1 <= t <= 180 for t, _ in lengths)


def test_paper_shaped_files_hold_the_drawn_lengths(tmp_path):
    workload = workloads.InferLong(seed=4, teachers=1, segments_per_teacher=3)
    workload.make_inputs(tmp_path)
    loaded = workloads.data.Dataset.load(tmp_path)
    lengths = workloads.paper_lengths(3, workload.lesson_minutes, seed=4)
    got = [(f.text.shape[0], f.audio.shape[0]) for f in loaded.features.values()]
    assert got == lengths


def test_reference_trace_check_catches_a_changed_trace(tmp_path, monkeypatch):
    recorded = json.loads(workloads.REFERENCE_FILE.read_text())
    recorded["val_losses"][-1] *= 1.001
    changed = tmp_path / "reference_trace.json"
    changed.write_text(json.dumps(recorded))
    monkeypatch.setattr(workloads, "REFERENCE_FILE", changed)
    problems = workloads.TrainLong(seed=0).verify()
    assert len(problems) == 1 and "val_losses" in problems[0]


def test_infer_check_catches_a_wrong_rating():
    workload = workloads.InferLong(seed=0)
    workload._expected = {"s1": {"nature": 2.0}, "s2": {"nature": 3.0}}
    op = workload.finish({"s1": {"nature": 2.0}, "s2": {"nature": 3.5}}, wall_s=1.0)
    assert op.failed == 1 and op.problems
    op = workload.finish({"s1": {"nature": 2.0}}, wall_s=1.0)
    assert op.failed == 1 and op.problems


def test_tracer_restores_every_wrapped_name():
    train_mod = tracer.package_module("train")
    harness_mod = tracer.package_module("harness")
    tensor_mod = tracer.package_module("tensor")
    before = (train_mod.train, harness_mod.train, train_mod.forward, tensor_mod.matmul,
              tensor_mod.Tensor.backward, vars(workloads.data.Dataset)["load"])
    with tracer.Tracer():
        assert harness_mod.train is not before[1] and harness_mod.train is train_mod.train
    after = (train_mod.train, harness_mod.train, train_mod.forward, tensor_mod.matmul,
             tensor_mod.Tensor.backward, vars(workloads.data.Dataset)["load"])
    assert all(a is b for a, b in zip(after, before))


def test_tracer_refuses_a_missing_target(monkeypatch):
    monkeypatch.setattr(tracer, "FUNCTIONS", tracer.FUNCTIONS + (("train", "no_such"),))
    train_mod = tracer.package_module("train")
    before = train_mod.forward
    with pytest.raises(LookupError, match="no_such"):
        with tracer.Tracer():
            pass
    assert train_mod.forward is before


def test_tracer_refuses_an_unknown_context_width():
    blocks = tracer.package_module("blocks")
    tensor = tracer.package_module("tensor")
    params = blocks.EncoderBlockParams.create(np.random.default_rng(0), 8, context_dim=5,
                                              num_heads=2)
    x = tensor.Tensor(np.zeros((3, 8)))
    context = tensor.Tensor(np.zeros((4, 5)))
    with tracer.Tracer(), pytest.raises(LookupError, match="width 5"):
        blocks.encoder_block(x, params, context=context)


def test_self_time_excludes_children():
    spans = tracer.Tracer()
    spans.spans[:] = [("outer", 0.0, 1.0, -1), ("inner", 0.2, 0.5, 0), ("inner", 0.6, 0.7, 0)]
    summary = spans.summary()
    assert summary["outer"]["ms"] == pytest.approx(1000.0)
    assert summary["outer"]["self_ms"] == pytest.approx(600.0)
    assert summary["inner"] == {"calls": 2, "ms": pytest.approx(400.0),
                                "self_ms": pytest.approx(400.0)}
    assert spans.calls_under("inner", "outer") == 2


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "cv_short", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
