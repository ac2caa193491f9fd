"""Teacher-grouped nested cross-validation, grid search, and ablations.

Teachers are the grouping unit everywhere: all of a teacher's segments live in
exactly one outer fold, inner folds partition each outer fold's training
teachers, and scheduling validation splits are teacher-grouped too, so no
identity ever leaks across a train/evaluate boundary.

Grid points and outer folds are independent jobs.  Each job derives its own
seed from (master seed, fold, point, inner fold), and results are reduced in
sorted key order, so serial and parallel runs produce identical reports.

``make_folds`` builds the fold plan, ``_teachers_outside`` the teachers
outside a fold, ``default_grid`` the tuning grid, ``GridPoint.job`` a job's
configs and seeds, ``fit_model`` the split-then-train step that the CLI's
``train`` shares, and ``_score_fold`` a fold's confusion matrices and QWK.
"""

from __future__ import annotations

import dataclasses
import warnings
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import Dataset, DatasetManifest
from .errors import DiscourseRaterError, TrainingError, UsageError
from .metrics import EvaluationReport, confusion_matrix, qwk_from_confusion, summarize_folds
from .model import FUSION_MODULE_GRID, FusionModel, ModelConfig, build_model
from .objective import COMPONENT_TITLES, COMPONENTS, NUM_CLASSES, rating_to_index
from .train import TrainConfig, TrainHistory, predict, train

LR_GRID = (1e-4, 1e-5)
BATCH_GRID = (8, 16, 32)


@dataclass(frozen=True)
class GridPoint:
    lr: float
    batch_size: int
    fusion_modules: int

    def __post_init__(self):
        if self.lr not in LR_GRID:
            raise UsageError(f"lr {self.lr} outside the tuning grid {LR_GRID}")
        if self.batch_size not in BATCH_GRID:
            raise UsageError(f"batch size {self.batch_size} outside {BATCH_GRID}")
        if self.fusion_modules not in FUSION_MODULE_GRID:
            raise UsageError(f"fusion modules {self.fusion_modules} outside {FUSION_MODULE_GRID}")

    def label(self) -> str:
        return f"lr={self.lr:g},batch={self.batch_size},M={self.fusion_modules}"

    def job(self, key: tuple, model_config: ModelConfig, train_config: TrainConfig,
            train_teachers: Iterable[str], eval_teachers: Iterable[str],
            split_seed: int) -> "_TrainEvalJob":
        """Train at this point, then predict ``eval_teachers``; the model and
        training seeds derive from the scheduling split's seed."""
        return _TrainEvalJob(
            key=key,
            model_config=dataclasses.replace(model_config, fusion_modules=self.fusion_modules,
                                             seed=_job_seed(split_seed, 3)),
            train_config=dataclasses.replace(train_config, lr=self.lr,
                                             batch_size=self.batch_size,
                                             seed=_job_seed(split_seed, 4)),
            train_teachers=sorted(train_teachers),
            eval_teachers=sorted(eval_teachers),
            split_seed=split_seed,
        )


def default_grid(lrs: Iterable[float] = LR_GRID, batch_sizes: Iterable[int] = BATCH_GRID,
                 fusion_modules: Iterable[int] = FUSION_MODULE_GRID) -> list[GridPoint]:
    """Every combination of the three axes, learning rate outermost; a value
    given twice on an axis counts once, where it first appears."""
    return [GridPoint(lr, batch, m) for lr in dict.fromkeys(lrs)
            for batch in dict.fromkeys(batch_sizes) for m in dict.fromkeys(fusion_modules)]


def _teachers_outside(folds: Sequence[Sequence[str]], fold_idx: int) -> list[str]:
    """The teachers of every fold but ``fold_idx``, sorted."""
    return sorted(t for i, fold in enumerate(folds) if i != fold_idx for t in fold)


@dataclass
class FoldPlan:
    """Outer test folds and, per outer fold, inner folds of training teachers."""

    outer: list[list[str]]
    inner: list[list[list[str]]]
    seed: int

    def training_teachers(self, fold_idx: int) -> list[str]:
        return _teachers_outside(self.outer, fold_idx)


def _greedy_balanced(teachers: list[str], counts: Mapping[str, int], n_folds: int,
                     rng: np.random.Generator) -> list[list[str]]:
    """Largest-first greedy assignment to the currently lightest fold."""
    order = list(rng.permutation(teachers))
    order.sort(key=lambda t: -counts[t])  # stable: ties keep shuffled order
    folds: list[list[str]] = [[] for _ in range(n_folds)]
    loads = [0] * n_folds
    for teacher in order:
        target = min(range(n_folds), key=lambda i: (loads[i], i))
        folds[target].append(teacher)
        loads[target] += counts[teacher]
    return folds


def make_folds(manifest: DatasetManifest, n_outer: int, n_inner: int, seed: int) -> FoldPlan:
    """Deterministic teacher-grouped folds, balanced by segment count."""
    counts: dict[str, int] = {}
    for seg in manifest.segments:
        counts[seg.teacher_id] = counts.get(seg.teacher_id, 0) + 1
    teachers = sorted(counts)
    if len(teachers) < n_outer:
        raise UsageError(f"{len(teachers)} teachers cannot fill {n_outer} folds")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    outer = _greedy_balanced(teachers, counts, n_outer, rng)

    inner: list[list[list[str]]] = []
    for fold_idx in range(n_outer):
        training = _teachers_outside(outer, fold_idx)
        if len(training) < n_inner:
            raise UsageError(
                f"fold {fold_idx}: {len(training)} training teachers cannot fill "
                f"{n_inner} inner folds")
        fold_rng = np.random.default_rng(np.random.SeedSequence((seed, 1, fold_idx)))
        inner.append(_greedy_balanced(training, counts, n_inner, fold_rng))
    return FoldPlan(outer=outer, inner=inner, seed=seed)


def _job_seed(master: int, *parts: int) -> int:
    return int(np.random.SeedSequence((master, *parts)).generate_state(1)[0])


def split_for_validation(teachers: Sequence[str], val_fraction: float,
                         seed: int) -> tuple[list[str], list[str]]:
    """Teacher-grouped scheduling split: nearest fraction, at least one each."""
    if len(teachers) < 2:
        raise UsageError("need at least 2 teachers to split off a validation set")
    n_val = int(round(val_fraction * len(teachers)))
    n_val = min(max(n_val, 1), len(teachers) - 1)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    order = list(rng.permutation(list(teachers)))
    val = sorted(order[:n_val])
    trn = sorted(order[n_val:])
    return trn, val


def fit_model(dataset: Dataset, teachers: Sequence[str], model_config: ModelConfig,
              train_config: TrainConfig, split_seed: int) -> tuple[FusionModel, TrainHistory]:
    """Split ``teachers`` for scheduling, then build and train a model on them."""
    fit, sched = split_for_validation(teachers, train_config.val_fraction, split_seed)
    model = build_model(model_config)
    history = train(model, dataset.examples_for_teachers(fit),
                    dataset.examples_for_teachers(sched), train_config)
    return model, history


@dataclass
class _TrainEvalJob:
    key: tuple
    model_config: ModelConfig
    train_config: TrainConfig
    train_teachers: list[str]
    eval_teachers: list[str]
    split_seed: int


_WORKER_DATASET: Dataset | None = None


def _init_worker(dataset: Dataset) -> None:
    global _WORKER_DATASET
    _WORKER_DATASET = dataset


def _score_fold(predictions: Mapping[str, Mapping[str, float]],
                labels: Mapping[str, Mapping[str, float]], components: Sequence[str]):
    """Per component, the QWK and the confusion matrix of the true against the
    predicted rating classes of one fold's predicted segments; ``labels``
    holds every segment's true ratings."""
    scores, confusions = {}, {}
    for component in components:
        seg_ids = sorted(predictions)
        t_idx = [rating_to_index(labels[s][component]) for s in seg_ids]
        p_idx = [rating_to_index(predictions[s][component]) for s in seg_ids]
        confusions[component] = confusion_matrix(t_idx, p_idx, NUM_CLASSES)
        scores[component] = qwk_from_confusion(confusions[component])
    return scores, confusions


def _run_job(job: _TrainEvalJob):
    """Train, then predict the eval teachers; or the failure with its cause."""
    dataset = _WORKER_DATASET
    try:
        model, _ = fit_model(dataset, job.train_teachers, job.model_config,
                             job.train_config, job.split_seed)
        return job.key, predict(model, dataset.examples_for_teachers(job.eval_teachers)), None
    except DiscourseRaterError as exc:
        return job.key, None, f"{type(exc).__name__}: {exc}"


def check_jobs(jobs: int) -> int:
    """``jobs``, the most worker processes a stage starts, if at least 1."""
    if jobs < 1:
        raise UsageError(f"jobs must be at least 1, got {jobs}")
    return jobs


def _map_jobs(dataset: Dataset, jobs_list: list[_TrainEvalJob], jobs: int, stage: str):
    """Each job's result by its key; a worker process that dies ends the
    ``stage`` ("inner-CV" or "outer-CV") with ``TrainingError``."""
    workers = min(check_jobs(jobs), len(jobs_list))
    if workers <= 1:
        _init_worker(dataset)
        results = [_run_job(job) for job in jobs_list]
    else:
        try:
            with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                     initargs=(dataset,)) as pool:
                results = list(pool.map(_run_job, jobs_list))
        except BrokenProcessPool as exc:
            raise TrainingError(f"a worker process died in the {stage} jobs: {exc}") from exc
    return {key: (pred, err) for key, pred, err in sorted(results, key=lambda r: r[0])}


def grid_search(dataset: Dataset, plan: FoldPlan, fold_idx: int,
                grid: Sequence[GridPoint], model_config: ModelConfig,
                train_config: TrainConfig, jobs: int = 1) -> GridPoint:
    """Pick the grid point with the best mean inner-fold QWK.

    Ties collapse to the most parsimonious point (fewer fusion modules, then
    larger learning rate, then smaller batch).  A single-point grid is
    returned without any inner training.
    """
    grid = list(grid)
    if not grid:
        raise UsageError("empty hyperparameter grid")
    if len(grid) == 1:
        return grid[0]
    jobs_list = _inner_jobs(plan, fold_idx, grid, model_config, train_config)
    results = _map_jobs(dataset, jobs_list, jobs, "inner-CV")
    labels = {seg.segment_id: seg.labels for seg in dataset.manifest.segments}
    scores = _reduce_inner_scores(grid, plan, fold_idx, results, labels,
                                  model_config.head_components)
    return _select_best(scores)


def _inner_jobs(plan: FoldPlan, fold_idx: int, grid: Sequence[GridPoint],
                model_config: ModelConfig, train_config: TrainConfig) -> list[_TrainEvalJob]:
    jobs_list = []
    inner_folds = plan.inner[fold_idx]
    for point_idx, point in enumerate(grid):
        for inner_idx, eval_teachers in enumerate(inner_folds):
            jobs_list.append(point.job(
                (fold_idx, point_idx, inner_idx), model_config, train_config,
                _teachers_outside(inner_folds, inner_idx), eval_teachers,
                _job_seed(plan.seed, fold_idx, point_idx, inner_idx)))
    return jobs_list


def _reduce_inner_scores(grid, plan, fold_idx, results, labels,
                         components) -> dict[GridPoint, float | None]:
    scores: dict[GridPoint, float | None] = {}
    for point_idx, point in enumerate(grid):
        fold_scores = []
        failed = False
        for inner_idx in range(len(plan.inner[fold_idx])):
            predictions, err = results[(fold_idx, point_idx, inner_idx)]
            if err is not None:
                warnings.warn(f"grid point {point.label()} skipped: {err}")
                failed = True
                break
            component_scores, _ = _score_fold(predictions, labels, components)
            fold_scores.append(float(np.mean(list(component_scores.values()))))
        scores[point] = None if failed else float(np.mean(fold_scores))
    return scores


def _select_best(scores: Mapping[GridPoint, float | None]) -> GridPoint:
    usable = {p: s for p, s in scores.items() if s is not None}
    if not usable:
        raise TrainingError("every grid point failed during inner cross-validation")
    return min(usable, key=lambda p: (-usable[p], p.fusion_modules, -p.lr, p.batch_size))


@dataclass
class PredictionRow:
    segment_id: str
    component: str
    true_rating: float
    predicted_rating: float
    fold: int


@dataclass
class NestedCvResult:
    plan: FoldPlan
    best_points: list[GridPoint]
    predictions: list[PredictionRow]
    report: EvaluationReport


def run_nested_cv(dataset: Dataset, model_config: ModelConfig,
                  train_config: TrainConfig, grid: Sequence[GridPoint],
                  n_outer: int = 5, n_inner: int = 3, seed: int = 0,
                  jobs: int = 1) -> NestedCvResult:
    """Nested CV: per fold, select a grid point, retrain, predict the test fold.

    The folds are ``make_folds`` of the manifest and ``seed``, so runs with
    one seed share them.  Every segment is predicted exactly once; the
    report carries per-fold QWK with mean and standard error per component.
    """
    dataset.manifest.validate()
    if model_config.encoder == "lstm":  # no fusion modules: each distinct point at M=1
        grid = list(dict.fromkeys(dataclasses.replace(p, fusion_modules=1) for p in grid))
    plan = make_folds(dataset.manifest, n_outer=n_outer, n_inner=n_inner, seed=seed)

    best_points = [grid_search(dataset, plan, fold_idx, grid, model_config,
                               train_config, jobs=jobs)
                   for fold_idx in range(len(plan.outer))]

    fold_jobs = [point.job((fold_idx,), model_config, train_config,
                           plan.training_teachers(fold_idx), plan.outer[fold_idx],
                           _job_seed(plan.seed, 100, fold_idx))
                 for fold_idx, point in enumerate(best_points)]
    results = _map_jobs(dataset, fold_jobs, jobs, "outer-CV")

    components = model_config.head_components
    labels = {seg.segment_id: seg.labels for seg in dataset.manifest.segments}
    predictions: list[PredictionRow] = []
    per_fold: dict[str, list[float]] = {c: [] for c in components}
    confusions = {c: 0 for c in components}
    for fold_idx in range(len(plan.outer)):
        fold_predictions, err = results[(fold_idx,)]
        if err is not None:
            raise TrainingError(f"fold {fold_idx} failed: {err}")
        scores, fold_confusions = _score_fold(fold_predictions, labels, components)
        for component in components:
            confusions[component] += fold_confusions[component]
            predictions.extend(
                PredictionRow(seg_id, component, labels[seg_id][component],
                              fold_predictions[seg_id][component], fold_idx)
                for seg_id in sorted(fold_predictions))
            per_fold[component].append(scores[component])

    report = summarize_folds(per_fold)
    report.confusions = confusions
    return NestedCvResult(plan=plan, best_points=best_points,
                          predictions=predictions, report=report)


# -- ablations -----------------------------------------------------------------


AXES = ("modality", "encoder", "task", "loss")


@dataclass
class AblationResult:
    rows: dict[str, EvaluationReport] = field(default_factory=dict)

    def table(self) -> str:
        headers = ["Variant"] + [COMPONENT_TITLES[c] for c in COMPONENTS] + ["Average"]
        widths = [max(24, len(headers[0]))] + [max(18, len(h)) for h in headers[1:]]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        for name, report in self.rows.items():
            cells = [name.ljust(widths[0])]
            for i, component in enumerate(COMPONENTS, start=1):
                summary = report.components.get(component)
                cell = "-" if summary is None else \
                    f"{summary.mean:.3f} ({summary.standard_error:.2f})"
                cells.append(cell.ljust(widths[i]))
            overall = report.overall
            cells.append(f"{overall.mean:.3f} ({overall.standard_error:.2f})")
            lines.append("  ".join(cells))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {name: report.to_dict() for name, report in self.rows.items()}


def ablation_variants(base: ModelConfig, axes: Sequence[str]) -> list[tuple[str, ModelConfig]]:
    """Expand requested axes, each counted once, into named configuration variants."""
    if not axes:
        raise UsageError("ablate needs at least one axis")
    variants: list[tuple[str, ModelConfig]] = []
    for axis in dict.fromkeys(axes):
        if axis == "modality":
            for label in ("T", "A", "V", "T+A", "T+A+V"):
                variants.append((f"modality:{label}",
                                 dataclasses.replace(base, modalities=label)))
        elif axis == "encoder":
            variants.append(("encoder:lstm",
                             dataclasses.replace(base, encoder="lstm", fusion_modules=1,
                                                 modalities=("text", "audio"))))
            variants.append(("encoder:attention",
                             dataclasses.replace(base, encoder="attention")))
        elif axis == "task":
            variants.append(("task:multi", dataclasses.replace(base, component=None)))
            for component in COMPONENTS:
                variants.append((f"task:single:{component}",
                                 dataclasses.replace(base, component=component)))
        elif axis == "loss":
            for loss in ("l1", "ce", "oll"):
                variants.append((f"loss:{loss}", dataclasses.replace(base, loss=loss)))
        else:
            raise UsageError(f"unknown ablation axis {axis!r}; choose from {AXES}")
    return variants


def run_ablation(dataset: Dataset, variants: Sequence[tuple[str, ModelConfig]],
                 train_config: TrainConfig, grid: Sequence[GridPoint],
                 seed: int = 0, jobs: int = 1) -> AblationResult:
    """Nested CV once per distinct config of ``variants``, all on the fold plan of ``seed``."""
    result = AblationResult()
    reports: dict[ModelConfig, EvaluationReport] = {}
    single_rows: dict[str, list[float]] = {}
    for name, config in variants:
        if config not in reports:
            reports[config] = run_nested_cv(dataset, config, train_config, grid=grid,
                                            seed=seed, jobs=jobs).report
        if name.startswith("task:single:"):
            single_rows[config.component] = reports[config].components[config.component].per_fold
        else:
            result.rows[name] = reports[config]
    if single_rows:
        result.rows["task:single"] = summarize_folds(single_rows)
    return result
