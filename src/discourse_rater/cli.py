"""Command-line interface.

Subcommands: ``synth`` (generate a synthetic dataset), ``train`` (single
training run), ``cv`` (nested cross-validation), ``ablate`` (variant
comparison on one fold plan), ``correlate`` (classroom-level score vs student
outcomes), and ``gradcheck`` (finite-difference audit of every operation).

Every command but ``gradcheck`` resolves its settings in ``_resolve`` from
built-in defaults, then an optional JSON config file, then explicit flags.
The defaults and the checks of each value belong to the config classes
(``SynthConfig``, ``ModelConfig``, ``TrainConfig``), which check themselves
when built; this module keeps only its own spellings of their settings.
Once its inputs are read and every setting checked (the grid, ``--jobs`` and
the ablation axes too), ``_create_out`` makes ``--out`` before any work starts,
and ``_write_outputs`` writes the settings there next to its outputs so any
run can be reproduced from its artifacts.  ``cv`` and ``ablate`` take the
learning rate, batch size and M only as ``--grid-*`` axes, and ``--component``
selects single-task mode; no flag is taken by a prefix.  The grid, the
split-then-train step and the classroom aggregation are ``harness``'s and
``data``'s, not restated here.
Exit codes: 0 success, 1 computation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from pathlib import Path
from typing import Sequence

from .checks import run_gradient_checks
from .data import (JSON_NAMES, OUTCOMES, SIGNAL_STRENGTH, Dataset, DatasetManifest,
                   SynthConfig, classroom_aggregate, fits_json_type, generate_synthetic,
                   json_type, open_file, uniform_signal)
from .errors import DataError, DiscourseRaterError, FormatError, UsageError
from .harness import (AXES, GridPoint, ablation_variants, check_jobs, default_grid, fit_model,
                      run_ablation, run_nested_cv)
from .metrics import irr_leave_one_rater_out, pearson_r, significance_stars
from .model import ENCODERS, LOSSES, ModelConfig, save_model
from .objective import COMPONENT_TITLES, COMPONENTS, RATINGS
from .train import TrainConfig

OUTCOME_TITLES = {"test_score": "Test scores", "interest": "Interest",
                  "self_efficacy": "Self-efficacy"}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DiscourseRaterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discourse-rater", allow_abbrev=False,
        description="Multimodal ordinal rating of classroom discourse segments.")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic dataset", allow_abbrev=False)
    synth.add_argument("--config", type=Path)
    synth.add_argument("--out", type=Path)
    synth.add_argument("--teachers", type=int)
    synth.add_argument("--segments-per-teacher", type=int)
    synth.add_argument("--lessons-per-teacher", type=int)
    synth.add_argument("--text-len", type=int, nargs=2, metavar=("MIN", "MAX"))
    synth.add_argument("--chunk-len", type=int, nargs=2, metavar=("MIN", "MAX"))
    synth.add_argument("--signal-strength", type=float,
                       help="uniform planted-signal strength in [0, 1]")
    synth.add_argument("--signal", action="append", default=None,
                       metavar="MODALITY.COMPONENT=VALUE",
                       help="per-pair override, e.g. audio.nature=0.9 (repeatable)")
    synth.add_argument("--rho", type=float, help="label correlation in [0, 1]")
    synth.add_argument("--noise-sd", type=float)
    synth.add_argument("--rater-noise-sd", type=float)
    synth.add_argument("--students-per-teacher", type=int)
    synth.add_argument("--outcome-noise-sd", type=float)
    synth.add_argument("--seed", type=int)
    synth.set_defaults(handler=cmd_synth)

    for name, handler in (("train", cmd_train), ("cv", cmd_cv), ("ablate", cmd_ablate)):
        cmd = sub.add_parser(name, help=f"run {name}", allow_abbrev=False)
        cmd.add_argument("--config", type=Path)
        cmd.add_argument("--data", type=Path, help="dataset root directory")
        cmd.add_argument("--out", type=Path)
        cmd.add_argument("--modalities", help="e.g. T, T+A, T+A+V")
        cmd.add_argument("--encoder", choices=ENCODERS)
        cmd.add_argument("--component", choices=COMPONENTS, help="single-task mode: rate it alone")
        cmd.add_argument("--loss", choices=LOSSES)
        cmd.add_argument("--no-positional", action="store_true", default=None)
        cmd.add_argument("--dropout", type=float)
        cmd.add_argument("--max-epochs", type=int)
        cmd.add_argument("--val-fraction", type=float)
        cmd.add_argument("--seed", type=int)
        if name == "train":
            cmd.add_argument("--m", type=int, dest="fusion_modules",
                             help="number of fusion modules")
            cmd.add_argument("--lr", type=float)
            cmd.add_argument("--batch-size", type=int)
        else:
            cmd.add_argument("--grid-lr", type=float, nargs="+")
            cmd.add_argument("--grid-batch", type=int, nargs="+")
            cmd.add_argument("--grid-m", type=int, nargs="+")
            cmd.add_argument("--jobs", type=int)
        if name == "ablate":
            cmd.add_argument("--axes", nargs="+", choices=AXES)
        cmd.set_defaults(handler=handler)

    corr = sub.add_parser("correlate", allow_abbrev=False,
                          help="correlate classroom-level scores with student outcomes")
    corr.add_argument("--config", type=Path)
    corr.add_argument("--data", type=Path)
    corr.add_argument("--predictions", type=Path, help="prediction table from cv")
    corr.add_argument("--out", type=Path)
    corr.set_defaults(handler=cmd_correlate)

    grad = sub.add_parser("gradcheck", allow_abbrev=False,
                          help="finite-difference audit of all operations")
    grad.add_argument("--tol", type=float, default=1e-5)
    grad.add_argument("--seed", type=int, default=0)
    grad.set_defaults(handler=cmd_gradcheck)
    return parser


def _load_config_file(path: Path | None) -> dict:
    if path is None:
        return {}
    with open_file(path, "config file", error=UsageError) as file:
        raw = file.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise UsageError(f"config file {path} is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return doc


# The JSON type a config value must have, for the keys whose default is None.
_NONE_DEFAULT_TYPES = {"component": str, "signal": [str], "grid_lr": [float],
                       "grid_batch": [int], "grid_m": [int]}

def _resolve(args, defaults: dict, required: Sequence[str] = ()) -> dict:
    """defaults < config file < explicit flags; each ``required`` key is a
    path that must then be set, and is resolved to its string form.

    A config-file key must be one of the command's, and its value must have
    the JSON type of its key's default (an array's items that of the
    default's first item), or null where the default is None."""
    file_cfg = _load_config_file(args.config)
    resolved = {key: None for key in required} | defaults
    for key, value in file_cfg.items():
        if key not in resolved:
            raise UsageError(f"config file {args.config}: {args.command} has no setting {key!r}")
        if key not in required:
            _check_json_type(key, value, defaults[key])
        resolved[key] = value
    for key in resolved:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    for key in required:
        value = resolved[key]
        if value is None:
            raise UsageError(f"{args.command} needs --{key}")
        if not isinstance(value, (str, Path)):
            raise UsageError(f"{key!r} must be a path string, not a JSON {json_type(value)}")
        resolved[key] = str(Path(value))
    return resolved


def _check_json_type(key: str, value, default) -> None:
    if default is None:
        if value is None:
            return
        expected = _NONE_DEFAULT_TYPES[key]
    else:
        expected = [type(default[0])] if isinstance(default, (list, tuple)) else type(default)
    if not fits_json_type(value, expected):
        name = (f"array of {JSON_NAMES[expected[0]]}s" if isinstance(expected, list)
                else JSON_NAMES[expected])
        raise UsageError(f"config key {key!r} must be a JSON {name}, "
                         f"not a JSON {json_type(value)}")


def _create_out(resolved: dict) -> Path:
    """Make the ``--out`` directory; one that cannot be made is ``UsageError``."""
    out_dir = Path(resolved["out"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create --out {out_dir}: {exc.strerror}") from exc
    except ValueError as exc:
        raise UsageError(f"cannot create --out {str(out_dir)!r}: {exc}") from exc
    return out_dir


def _write_outputs(resolved: dict, files: dict[str, str | dict]) -> None:
    """Write ``run_config.json`` and ``files`` into ``--out``, which
    ``_create_out`` made: a string as text, anything else as indented JSON,
    each with a final newline."""
    out_dir = Path(resolved["out"])
    for name, content in {"run_config.json": resolved, **files}.items():
        if not isinstance(content, str):
            content = json.dumps(content, indent=2, sort_keys=True)
        with open_file(out_dir / name, "output file", "wb") as out:
            out.write((content + "\n").encode("utf-8"))


# -- synth ---------------------------------------------------------------------


def _parse_signal_overrides(entries, strength: float) -> dict:
    signal = uniform_signal(strength)
    for entry in entries or ():
        try:
            target, value = entry.split("=")
            modality, component = target.split(".")
            signal[modality][component] = float(value)
        except (ValueError, KeyError) as exc:
            raise UsageError(f"bad --signal entry {entry!r}; "
                             f"expected MODALITY.COMPONENT=VALUE") from exc
    return signal


# Each synth setting but the signal, and the ``SynthConfig`` field it sets;
# the field ``signal_strength`` is made from ``signal_strength`` and ``signal``.
_SYNTH_RENAMED = {"n_teachers": "teachers", "label_correlation": "rho"}
_SYNTH_FIELDS = {_SYNTH_RENAMED.get(f.name, f.name): f.name
                 for f in dataclasses.fields(SynthConfig) if f.name != "signal_strength"}
_SYNTH_DEFAULTS = {**{setting: getattr(SynthConfig(), name)
                      for setting, name in _SYNTH_FIELDS.items()},
                   "signal_strength": SIGNAL_STRENGTH, "signal": None}


def _synth_config(resolved: dict) -> SynthConfig:
    signal = _parse_signal_overrides(resolved["signal"], resolved["signal_strength"])
    return SynthConfig(**{name: resolved[setting] for setting, name in _SYNTH_FIELDS.items()},
                       signal_strength=signal)


def cmd_synth(args) -> int:
    resolved = _resolve(args, *_SETTINGS["synth"])
    dataset = generate_synthetic(_synth_config(resolved), _create_out(resolved))
    _write_outputs(resolved, {})

    manifest = dataset.manifest
    print(f"teachers: {len(manifest.teacher_ids())}")
    print(f"segments: {len(manifest.segments)}")
    print(f"students: {len(manifest.student_records)}")
    for component in COMPONENTS:
        counts = {r: 0 for r in RATINGS}
        for seg in manifest.segments:
            counts[seg.labels[component]] += 1
        row = "  ".join(f"{rating:.1f}:{counts[rating]}" for rating in RATINGS)
        print(f"label histogram [{component}]: {row}")
    return 0


# -- shared model/train plumbing --------------------------------------------------


# The CLI spells ``ModelConfig``'s modalities as letters and its
# ``positional`` as ``no_positional``.
_MODEL_DEFAULTS = {"modalities": "T", "no_positional": not ModelConfig().positional,
                   **{key: getattr(ModelConfig(), key) for key in
                      ("encoder", "fusion_modules", "component", "loss", "dropout")}}
_TRAIN_DEFAULTS = {key: getattr(TrainConfig(), key)
                   for key in ("lr", "batch_size", "max_epochs", "val_fraction", "seed")}


def _model_config(resolved: dict) -> ModelConfig:
    fields = {key: resolved[key] for key in _MODEL_DEFAULTS
              if key in resolved and key != "no_positional"}
    return ModelConfig(**fields, positional=not resolved["no_positional"],
                       seed=resolved["seed"])


def _train_config(resolved: dict) -> TrainConfig:
    return TrainConfig(**{key: resolved[key] for key in _TRAIN_DEFAULTS if key in resolved})


def _grid(resolved: dict) -> list[GridPoint]:
    """The harness's grid, with each axis a ``--grid-*`` value names replaced."""
    axes = {"lrs": resolved.get("grid_lr"), "batch_sizes": resolved.get("grid_batch"),
            "fusion_modules": resolved.get("grid_m")}
    return default_grid(**{axis: values for axis, values in axes.items() if values})


def _report_text(report) -> str:
    lines = [f"{'Component':<22s}  {'per-fold QWK':<40s}  {'mean (SE)':>12s}"]
    for component in report.components:
        summary = report.components[component]
        folds = " ".join(f"{v:+.3f}" for v in summary.per_fold)
        lines.append(f"{COMPONENT_TITLES.get(component, component):<22s}  "
                     f"{folds:<40s}  {summary.mean:.3f} ({summary.standard_error:.2f})")
    folds = " ".join(f"{v:+.3f}" for v in report.overall.per_fold)
    lines.append(f"{'Average':<22s}  {folds:<40s}  "
                 f"{report.overall.mean:.3f} ({report.overall.standard_error:.2f})")
    return "\n".join(lines)


def cmd_train(args) -> int:
    resolved = _resolve(args, *_SETTINGS["train"])
    model_config, train_config = _model_config(resolved), _train_config(resolved)
    dataset = Dataset.load(resolved["data"])
    out_dir = _create_out(resolved)
    model, history = fit_model(dataset, dataset.manifest.teacher_ids(),
                               model_config, train_config, train_config.seed)

    _write_outputs(resolved, {"history.txt": history.table(),
                              "history.json": dataclasses.asdict(history)})
    save_model(model, out_dir / "model.dfm")
    print(f"trained {model.num_parameters()} parameters; "
          f"best val loss {history.best_val_loss:.6f} at epoch {history.best_epoch}")
    print(f"outputs in {resolved['out']}")
    return 0


def _write_predictions(path: Path, predictions) -> None:
    with open_file(path, "output file", "wb") as raw, \
            io.TextIOWrapper(raw, encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["segment_id", "component", "true_rating",
                         "predicted_rating", "fold"])
        for row in predictions:
            writer.writerow([row.segment_id, row.component, row.true_rating,
                             row.predicted_rating, row.fold])


# The tuning grid sets these in ``cv`` and ``ablate``, so only ``train`` takes them.
_GRID_SET = ("fusion_modules", "lr", "batch_size")
_CV_DEFAULTS = {"jobs": 1, "grid_lr": None, "grid_batch": None, "grid_m": None,
                **{key: value for key, value in {**_MODEL_DEFAULTS, **_TRAIN_DEFAULTS}.items()
                   if key not in _GRID_SET}}

# Per command: the defaults of its settings and the path keys it requires.
_SETTINGS = {
    "synth": (_SYNTH_DEFAULTS, ("out",)),
    "train": ({**_MODEL_DEFAULTS, **_TRAIN_DEFAULTS}, ("data", "out")),
    "cv": (_CV_DEFAULTS, ("data", "out")),
    "ablate": ({"axes": ["modality"], **_CV_DEFAULTS}, ("data", "out")),
    "correlate": ({}, ("data", "out", "predictions")),
}


def _human_irr(manifest: DatasetManifest, components: Sequence[str]) -> dict:
    """Leave-one-rater-out QWK of the human raters for each component."""
    return {
        "scale": ("raters' 4-point integer scores; the model's QWK is on "
                  "7 half-point rating classes"),
        "components": {c: dataclasses.asdict(irr_leave_one_rater_out(manifest.rater_records, c))
                       for c in components},
    }


def cmd_cv(args) -> int:
    """Nested CV; ``report.json`` adds the human raters' reliability
    (``human_irr``) when the manifest holds rater records."""
    resolved = _resolve(args, *_SETTINGS["cv"])
    model_config, train_config = _model_config(resolved), _train_config(resolved)
    grid, jobs = _grid(resolved), check_jobs(resolved["jobs"])
    dataset = Dataset.load(resolved["data"])
    human_irr = (_human_irr(dataset.manifest, model_config.head_components)
                 if dataset.manifest.rater_records else None)
    out_dir = _create_out(resolved)
    result = run_nested_cv(dataset, model_config, train_config,
                           grid=grid, seed=resolved["seed"], jobs=jobs)

    report_doc = result.report.to_dict()
    report_doc["best_grid_points"] = [p.label() for p in result.best_points]
    if human_irr is not None:
        report_doc["human_irr"] = human_irr
    text = _report_text(result.report)
    _write_outputs(resolved, {"report.json": report_doc, "report.txt": text})
    _write_predictions(out_dir / "predictions.csv", result.predictions)
    print(text)
    return 0


def cmd_ablate(args) -> int:
    resolved = _resolve(args, *_SETTINGS["ablate"])
    train_config = _train_config(resolved)
    variants = ablation_variants(_model_config(resolved), resolved["axes"])
    grid, jobs = _grid(resolved), check_jobs(resolved["jobs"])
    dataset = Dataset.load(resolved["data"])
    _create_out(resolved)
    result = run_ablation(dataset, variants, train_config, grid=grid,
                          seed=resolved["seed"], jobs=jobs)

    table = result.table()
    _write_outputs(resolved, {"ablation.json": result.to_dict(), "ablation.txt": table})
    print(table)
    return 0


# -- correlate ------------------------------------------------------------------


def _read_predictions(path: str) -> dict[str, dict[str, float]]:
    """Prediction table -> component -> segment_id -> predicted rating.

    A row too short to hold the three columns, or a table that is not UTF-8
    CSV, is ``FormatError``; a rating that is not a finite number is
    ``DataError`` naming its segment, component and value.
    """
    columns = ("segment_id", "component", "predicted_rating")
    out: dict[str, dict[str, float]] = {}
    try:
        with open_file(path, "prediction table", error=UsageError) as raw:
            reader = csv.DictReader(io.TextIOWrapper(raw, encoding="utf-8", newline=""))
            for column in columns:
                if column not in (reader.fieldnames or ()):
                    raise FormatError(f"prediction table {path} has no {column!r} column",
                                      offset=0)
            for row in reader:
                segment, component, value = (row[column] for column in columns)
                if None in (segment, component, value):
                    raise FormatError(f"prediction table {path} line {reader.line_num} "
                                      f"has too few fields")
                try:
                    rating = float(value)
                except ValueError:
                    rating = math.nan
                if not math.isfinite(rating):
                    raise DataError(f"segment {segment!r} {component}: predicted_rating "
                                    f"{value!r} is not a finite number")
                out.setdefault(component, {})[segment] = rating
    except (csv.Error, UnicodeDecodeError) as exc:
        raise FormatError(f"prediction table {path} is not UTF-8 CSV: {exc}") from exc
    if not out:
        raise UsageError(f"prediction table {path} is empty")
    return out


def cmd_correlate(args) -> int:
    resolved = _resolve(args, *_SETTINGS["correlate"])
    manifest = DatasetManifest.load(Path(resolved["data"]) / "manifest.json")
    manifest.validate()
    if not manifest.student_records:
        raise UsageError("manifest has no student records to correlate against")
    predictions = _read_predictions(resolved["predictions"])
    _create_out(resolved)

    student_teachers = {s.teacher_id for s in manifest.student_records}
    sources: dict[str, dict[str, dict[str, float]]] = {"human": {}, "model": {}}
    for component in COMPONENTS:
        scores = {"human": {s.segment_id: s.labels[component] for s in manifest.segments}}
        if component in predictions:
            scores["model"] = predictions[component]
        for source, per_segment in scores.items():
            per_teacher = classroom_aggregate(per_segment, manifest)
            unscored = sorted(student_teachers - set(per_teacher))
            if unscored:
                raise DataError(f"{source} {component} scores cover no segment of "
                                f"teachers with students: {', '.join(unscored)}")
            sources[source][component] = per_teacher

    doc: dict = {}
    lines = [f"{'Component':<22s} {'Source':<8s} " +
             " ".join(f"{OUTCOME_TITLES[o]:>14s}" for o in OUTCOMES)]
    for component in COMPONENTS:
        for source in ("human", "model"):
            per_teacher = sources[source].get(component)
            if per_teacher is None:
                continue
            cells = []
            for outcome in OUTCOMES:
                xs, ys = [], []
                for student in manifest.student_records:
                    xs.append(per_teacher[student.teacher_id])
                    ys.append(getattr(student, outcome))
                r, p = pearson_r(xs, ys)
                doc.setdefault(component, {}).setdefault(source, {})[outcome] = \
                    {"r": r, "p": p}
                cells.append(f"{r:+.3f}{significance_stars(p):<3s}".rjust(14))
            lines.append(f"{COMPONENT_TITLES[component]:<22s} {source:<8s} "
                         + " ".join(cells))
    text = "\n".join(lines)

    _write_outputs(resolved, {"correlations.json": doc, "correlations.txt": text})
    print(text)
    print(f"N = {len(manifest.student_records)} students")
    return 0


def cmd_gradcheck(args) -> int:
    reports = run_gradient_checks(tol=args.tol, seed=args.seed)
    for report in reports:
        print(report)
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} checks passed "
          f"(tol {args.tol:g})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
