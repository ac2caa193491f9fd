"""The benchmark's workloads: inputs, set-up, the timed call and its checks.

Each workload is a closed loop of one caller: the next operation starts only
after the previous one returned.  Inputs come from ``data.generate_synthetic``
with the workload seed and are written to disk, so the program sees only the
files a user would give it.

A workload object has four steps:

- ``make_inputs(root)`` writes the dataset (and checkpoint) under ``root``;
  it is not timed.
- ``setup(root)`` is what a user pays before the first step: loading the
  dataset and building or loading the model.  It is timed as ``setup_s``.
- ``prepare(state)`` does the untimed work before one operation and returns
  a call with no arguments; only that call is timed.
- ``finish(output, wall_s)`` checks the call's output and returns an ``Op``.
"""

from __future__ import annotations

import json
import math
import statistics
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from tracer import Recorder, package_module

blocks = package_module("blocks")
data = package_module("data")
errors = package_module("errors")
harness = package_module("harness")
model = package_module("model")
objective = package_module("objective")
tensor = package_module("tensor")
train = package_module("train")

# Paper-shaped segments are cut from whole lessons by data.segment_boundaries:
# 16-minute windows of 96 ten-second chunks, a remainder of 8 minutes or more
# as a short segment of its own (48..95 chunks), a shorter one merged into the
# window before it (97..144).  Neither figure below comes from the paper;
# both are assumptions.  Lessons last 40 to 90 minutes, and a segment holds
# 2.5 to 7.5 utterances a minute, so 40 to 120 in a 16-minute window.
PAPER_LESSON_MINUTES = (40.0, 90.0)
PAPER_UTTERANCES_PER_MINUTE = (2.5, 7.5)

REFERENCE_FILE = Path(__file__).with_name("reference_trace.json")


@dataclass
class Op:
    """One timed operation: what it did, what failed, what to report."""

    wall_s: float
    segments: int
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    report: dict[str, float] = field(default_factory=dict)


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


@dataclass
class Workload:
    """Dataset shape and model shared by every workload."""

    seed: int
    teachers: int = 10
    segments_per_teacher: int = 4
    text_len: tuple[int, int] = (5, 9)
    chunk_len: tuple[int, int] = (6, 10)
    modalities: str = "T"
    batch_size: int = 8
    epochs: int = 1
    # When set, segment lengths come from lessons of these durations and
    # text_len and chunk_len are not used.
    lesson_minutes: tuple[float, float] | None = None

    name = "workload"

    def synth_config(self):
        return data.SynthConfig(n_teachers=self.teachers,
                                segments_per_teacher=self.segments_per_teacher,
                                text_len=tuple(self.text_len),
                                chunk_len=tuple(self.chunk_len), seed=self.seed)

    def model_config(self, fusion_modules: int = 1):
        return model.ModelConfig(modalities=self.modalities,
                                 fusion_modules=fusion_modules, seed=self.seed)

    def train_config(self):
        return train.TrainConfig(lr=1e-4, batch_size=self.batch_size,
                                 max_epochs=self.epochs, seed=self.seed)

    def make_inputs(self, root: Path):
        if self.lesson_minutes is None:
            return data.generate_synthetic(self.synth_config(), out_dir=root)
        return paper_shaped(self.synth_config(), self.lesson_minutes, root)

    def setup(self, root: Path):
        dataset = data.Dataset.load(root)
        model.build_model(self.model_config())
        return dataset

    def dataset_of(self, state):
        return state

    def verify(self) -> list[str]:
        """Checks made once per run, outside the timed part."""
        return []

    def warm_up(self, state) -> None:
        """Untimed work that brings the process to its steady state."""

    def block_kinds(self) -> tuple[str, ...]:
        if self.modalities == "T+A+V":
            return ("self", "cross_audio", "cross_video")
        return ("self",)


# -- train_long ------------------------------------------------------------------


@dataclass
class TrainLong(Workload):
    """``train.train`` on paper-shaped T+A+V segments, M=1, batch 8."""

    teachers: int = 8
    lesson_minutes: tuple[float, float] | None = PAPER_LESSON_MINUTES
    modalities: str = "T+A+V"
    # Early stopping needs 15 stale epochs, so it cannot fire.
    epochs: int = 2

    name = "train_long"

    def split(self, dataset):
        """Teacher-disjoint split: the last fifth of the teachers validate."""
        teachers = sorted(dataset.manifest.teacher_ids())
        n_val = max(1, round(0.2 * len(teachers)))
        return (dataset.examples_for_teachers(teachers[:-n_val]),
                dataset.examples_for_teachers(teachers[-n_val:]))

    def prepare(self, dataset):
        fit, val = self.split(dataset)
        fresh = model.build_model(self.model_config())
        config = self.train_config()
        self._fit_size = len(fit)
        return lambda: train.train(fresh, fit, val, config)

    def finish(self, history, wall_s: float) -> Op:
        epochs = len(history.train_losses)
        steps = epochs * math.ceil(self._fit_size / self.batch_size)
        problems = []
        trace = history.train_losses + history.val_losses
        if not _finite(trace):
            problems.append(f"non-finite loss in trace {trace}")
        if epochs != self.epochs:
            problems.append(f"ran {epochs} epochs, expected {self.epochs}")
        first = getattr(self, "_first_trace", None)
        if first is None:
            self._first_trace = trace
        elif trace != first:
            problems.append("loss trace differs between repetitions of one seed")
        return Op(wall_s=wall_s, segments=epochs * self._fit_size, attempted=steps,
                  problems=problems,
                  report={"val_loss_best": history.best_val_loss})

    def warm_up(self, dataset) -> None:
        """One step on the longest batch, so the process has held its peak once."""
        fit, val = self.split(dataset)
        fit.sort(key=lambda ex: -ex.features.text.shape[0] - ex.features.audio.shape[0])
        config = train.TrainConfig(batch_size=self.batch_size, max_epochs=1, seed=self.seed)
        train.train(model.build_model(self.model_config()), fit[:self.batch_size],
                    val[:1], config)

    def verify(self) -> list[str]:
        reference = json.loads(REFERENCE_FILE.read_text())
        got = reference_trace()
        rtol = reference["rtol"]
        problems = []
        for key in ("train_losses", "val_losses"):
            want = reference[key]
            if len(got[key]) != len(want) or not np.allclose(got[key], want, rtol=rtol, atol=0.0):
                problems.append(f"reference {key} {got[key]} != recorded {want} (rtol {rtol})")
        return problems


# The recorded loss trace: train_long's code path (T+A+V, M=1, batch 8, two
# epochs, dropout on, padded batches) at a fixed seed and a size that trains
# in about a second, so every run can check it whatever its own seed.
REFERENCE = dict(seed=0, teachers=5, segments_per_teacher=3, text_len=(10, 30),
                 chunk_len=(12, 36), lesson_minutes=None)


def reference_trace() -> dict:
    """Train the reference configuration in memory and return its losses."""
    workload = TrainLong(**REFERENCE)
    dataset = data.generate_synthetic(workload.synth_config())
    history = workload.prepare(dataset)()
    return {"config": {k: list(v) if isinstance(v, tuple) else v for k, v in REFERENCE.items()
                       if v is not None},
            "train_losses": history.train_losses, "val_losses": history.val_losses}


def paper_lengths(n: int, lesson_minutes: tuple[float, float],
                  seed: int) -> list[tuple[int, int]]:
    """(utterances, chunks) of ``n`` segments cut from whole lessons, in order."""
    rng = np.random.default_rng([seed, 2505])
    lengths = []
    while len(lengths) < n:
        lesson_s = 60.0 * rng.uniform(*lesson_minutes)
        for start, end in data.segment_boundaries(lesson_s):
            rate = rng.uniform(*PAPER_UTTERANCES_PER_MINUTE)
            lengths.append((round(rate * (end - start) / 60.0),
                            math.ceil((end - start) / data.CHUNK_S)))
    return lengths[:n]


def paper_shaped(config, lesson_minutes: tuple[float, float], root: Path):
    """``generate_synthetic`` at the longest length, each segment cut to its own.

    Every row of a synthetic segment carries the same planted signal, so
    keeping a prefix of the rows keeps the segment's label meaningful.
    """
    n = config.n_teachers * config.segments_per_teacher
    lengths = paper_lengths(n, lesson_minutes, config.seed)
    longest = (max(t for t, _ in lengths), max(c for _, c in lengths))
    dataset = data.generate_synthetic(replace(config, text_len=(longest[0],) * 2,
                                              chunk_len=(longest[1],) * 2))
    (root / "features").mkdir(parents=True, exist_ok=True)
    for seg, (texts, chunks) in zip(dataset.manifest.segments, lengths):
        full = dataset.features[seg.segment_id]
        cut = replace(full, text=full.text[:texts], audio=full.audio[:chunks],
                      video=full.video[:chunks], duration_s=chunks * data.CHUNK_S)
        dataset.features[seg.segment_id] = cut
        data.write_feature_file(root / seg.path, cut)
    dataset.manifest.save(root / "manifest.json")
    return dataset


# -- cv_short ----------------------------------------------------------------------


@dataclass
class CvShort(Workload):
    """``harness.run_nested_cv`` on the ROADMAP baseline shape, text only.

    It needs no warm-up: set-up has built a model of the same shape four
    times, and every job builds its own.
    """

    outer_folds: int = 5
    inner_folds: int = 3
    fusion_grid: tuple[int, ...] = (1, 2)

    name = "cv_short"

    def prepare(self, dataset):
        grid = [harness.GridPoint(lr=1e-4, batch_size=self.batch_size, fusion_modules=m)
                for m in self.fusion_grid]
        model_config, train_config = self.model_config(), self.train_config()
        self._dataset = dataset

        def call():
            with Recorder("train", "train") as jobs, \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = harness.run_nested_cv(
                    dataset, model_config, train_config, grid=grid,
                    n_outer=self.outer_folds, n_inner=self.inner_folds,
                    seed=self.seed, jobs=1)
            return result, jobs.results, caught

        return call

    def finish(self, output, wall_s: float) -> Op:
        result, histories, caught = output
        skipped = [str(w.message) for w in caught if "skipped" in str(w.message)]
        problems = []
        losses = [v for h in histories if h is not None
                  for v in h.train_losses + h.val_losses]
        if not _finite(losses):
            problems.append("non-finite loss in a cross-validation job")
        segment_ids = sorted(s.segment_id for s in self._dataset.manifest.segments)
        for component in self.model_config().head_components:
            rows = sorted(r.segment_id for r in result.predictions if r.component == component)
            if rows != segment_ids:
                problems.append(f"{component}: segments not predicted exactly once")
        flat = [t for fold in result.plan.outer for t in fold]
        if sorted(flat) != sorted(self._dataset.manifest.teacher_ids()):
            problems.append("outer folds do not partition the teachers")
        rows = [asdict(r) for r in result.predictions]
        first = getattr(self, "_first_rows", None)
        if first is None:
            self._first_rows = rows
        elif rows != first:
            problems.append("predictions differ between repetitions of one seed")
        best = [h.best_val_loss for h in histories if h is not None]
        return Op(wall_s=wall_s, segments=len(segment_ids), attempted=len(histories),
                  failed=len(skipped), problems=problems,
                  report={"cv_wall_s": wall_s, "qwk_mean": result.report.overall.mean,
                          "val_loss_best_median": statistics.median(best) if best else math.nan})


# -- infer_long ------------------------------------------------------------------


@dataclass
class InferLong(Workload):
    """``train.predict`` from a DFM1 checkpoint over a paper-shaped DFX1 dataset."""

    teachers: int = 16
    lesson_minutes: tuple[float, float] | None = PAPER_LESSON_MINUTES
    modalities: str = "T+A+V"

    name = "infer_long"
    checkpoint = "model.dfm"

    def make_inputs(self, root: Path):
        dataset = super().make_inputs(root)
        saved = model.build_model(self.model_config())
        model.save_model(saved, root / self.checkpoint)
        # What the in-memory model predicts; the loaded one must agree.
        self._expected = train.predict(saved, dataset.examples())

    def setup(self, root: Path):
        return data.Dataset.load(root), model.load_model(root / self.checkpoint)

    def dataset_of(self, state):
        return state[0]

    def prepare(self, state):
        dataset, loaded = state
        examples = dataset.examples()
        return lambda: train.predict(loaded, examples)

    def finish(self, predictions, wall_s: float) -> Op:
        expected = self._expected
        bad = sorted(sid for sid in expected.keys() | predictions.keys()
                     if predictions.get(sid) != expected.get(sid)
                     or not set(predictions[sid].values()) <= set(objective.RATINGS))
        problems = []
        if bad:
            problems.append(f"{len(bad)} segments predicted off the DFM1 round trip "
                            f"or outside the rating scale, e.g. {bad[0]}")
        return Op(wall_s=wall_s, segments=len(predictions), attempted=len(expected),
                  failed=len(bad), problems=problems)

    def warm_up(self, state) -> None:
        # The first pass over fresh arrays is markedly slower than later ones.
        self.prepare(state)()


WORKLOADS = {w.name: w for w in (TrainLong, CvShort, InferLong)}


def probe_blocks(kinds, text_rows: int, context_rows: int, seed: int,
                 repeats: int = 5) -> dict[str, float]:
    """Median forward and backward ms of one encoder block of each kind.

    Backward runs inside closures no wrapper can see, so each block is
    timed in isolation: the block call, then ``.sum().backward()``.
    """
    rng = np.random.default_rng(seed)
    context_dims = {"self": None, "cross_audio": data.AUDIO_DIM, "cross_video": data.VIDEO_DIM}
    out = {}
    for kind, context_dim in context_dims.items():
        fwd, bwd = [0.0], [0.0]
        if kind in kinds:
            params = blocks.EncoderBlockParams.create(rng, model.MODEL_DIM,
                                                      context_dim=context_dim)
            x = tensor.Tensor(rng.standard_normal((text_rows, model.MODEL_DIM)),
                              requires_grad=True)
            context = None if context_dim is None else \
                tensor.Tensor(rng.standard_normal((context_rows, context_dim)))
            fwd, bwd = [], []
            for _ in range(repeats + 1):
                x.grad = None
                for p in params.parameters().values():
                    p.grad = None
                start = time.perf_counter()
                y = blocks.encoder_block(x, params, context=context, training=True, rng=rng)
                mid = time.perf_counter()
                y.sum().backward()
                fwd.append(1e3 * (mid - start))
                bwd.append(1e3 * (time.perf_counter() - mid))
            fwd, bwd = fwd[1:], bwd[1:]
        out[f"blocks.encoder_block.{kind}.fwd_ms"] = statistics.median(fwd)
        out[f"blocks.encoder_block.{kind}.bwd_ms"] = statistics.median(bwd)
    return out


def probe_rows(dataset) -> tuple[int, int]:
    """Median text and chunk rows of a dataset's segments, CLS row included."""
    feats = list(dataset.features.values())
    return (int(statistics.median(f.text.shape[0] for f in feats)) + 1,
            int(statistics.median(f.audio.shape[0] for f in feats)) + 1)
