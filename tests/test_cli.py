import argparse
import csv
import dataclasses
import importlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from discourse_rater.cli import (_CV_DEFAULTS, _SETTINGS, _grid, _model_config,
                                 _read_predictions, _resolve, _synth_config, _train_config,
                                 build_parser, main)
from discourse_rater.data import DatasetManifest, SynthConfig
from discourse_rater.errors import DiscourseRaterError
from discourse_rater.harness import BATCH_GRID, LR_GRID, GridPoint, default_grid
from discourse_rater.metrics import irr_leave_one_rater_out
from discourse_rater.model import ModelConfig, load_model
from discourse_rater.train import TrainConfig
from helpers import JSON_VALUES


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


SETTINGS = [(command, key) for command, (defaults, required) in _SETTINGS.items()
            for key in [*defaults, *required]]
# A value of the right type for each setting whose default is None.
NONE_DEFAULT_EXAMPLES = {"component": "nature", "signal": ["audio.nature=0.9"],
                         "grid_lr": [1e-4], "grid_batch": [8], "grid_m": [1]}


def same_json_type(value, example) -> bool:
    """Whether ``value`` has the JSON type of ``example`` (for an array, which
    a tuple default also stands for, of its first item); an integer example
    takes only integers."""
    if isinstance(example, (list, tuple)):
        return isinstance(value, list) and all(same_json_type(v, example[0]) for v in value)
    if isinstance(example, bool) or isinstance(value, bool):
        return isinstance(example, bool) and isinstance(value, bool)
    if isinstance(example, int):
        return isinstance(value, int)
    if isinstance(example, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(example))


@pytest.fixture
def dataset_dir(tmp_path):
    out = tmp_path / "ds"
    code = run_cli("synth", "--out", out, "--teachers", 6,
                   "--segments-per-teacher", 2, "--students-per-teacher", 3,
                   "--text-len", 2, 3, "--chunk-len", 2, 3, "--seed", 7)
    assert code == 0
    return out


class TestSynth:
    def test_counts_and_summary(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert run_cli("synth", "--out", out, "--teachers", 30,
                       "--segments-per-teacher", 4, "--text-len", 2, 3,
                       "--chunk-len", 2, 3, "--seed", 7) == 0
        printed = capsys.readouterr().out
        assert "teachers: 30" in printed
        assert "segments: 120" in printed
        assert printed.count("label histogram") == 3
        manifest = DatasetManifest.load(out / "manifest.json")
        assert len(manifest.segments) == 120

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["synth", "--out", tmp_path / "a", "--teachers", 5,
                "--segments-per-teacher", 2, "--text-len", 2, 3,
                "--chunk-len", 2, 3, "--seed", 3]
        assert run_cli(*args) == 0
        files = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
        snapshot = {p: p.read_bytes() for p in files}
        assert run_cli(*args) == 0
        for path, blob in snapshot.items():
            assert path.read_bytes() == blob, path

    def test_signal_override_flag(self, tmp_path):
        assert run_cli("synth", "--out", tmp_path / "ds", "--teachers", 5,
                       "--segments-per-teacher", 2, "--text-len", 2, 3,
                       "--chunk-len", 2, 3, "--signal-strength", 0.0,
                       "--signal", "audio.nature=0.9", "--seed", 1) == 0
        resolved = json.loads((tmp_path / "ds" / "run_config.json").read_text())
        assert resolved["signal"] == ["audio.nature=0.9"]

    def test_missing_out_is_usage_error(self):
        assert run_cli("synth", "--teachers", 5) == 2


class TestConfigFile:
    @pytest.mark.parametrize("content", [None, "{bad", "[1, 2]"],
                             ids=["missing", "not_json", "json_list"])
    def test_bad_config_is_usage_error(self, tmp_path, capsys, content):
        config = tmp_path / "config.json"
        if content is not None:
            config.write_text(content)
        assert run_cli("synth", "--config", config, "--out", tmp_path / "ds") == 2
        assert f"config file {config}" in capsys.readouterr().err

    @pytest.mark.parametrize("value,json_type", [(5, "number"), (True, "boolean"),
                                                 (["ds"], "array"), ({"a": 1}, "object")],
                             ids=["number", "boolean", "array", "object"])
    def test_non_string_path_is_usage_error(self, tmp_path, capsys, value, json_type):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out": value}))
        assert run_cli("synth", "--config", config) == 2
        assert f"'out' must be a path string, not a JSON {json_type}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key", [("train", "data"), ("correlate", "predictions")])
    def test_path_with_a_nul_byte_is_usage_error(self, dataset_dir, tmp_path, capsys,
                                                 command, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": str(dataset_dir), key: "a\x00b"}))
        assert run_cli(command, "--config", config, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: cannot read ") and "null byte" in err, err

    @pytest.mark.parametrize("command,key", [("train", "max_epoch"), ("cv", "lr"),
                                             ("ablate", "fusion_modules"), ("train", "task")])
    def test_key_the_command_lacks_is_usage_error(self, dataset_dir, tmp_path, capsys,
                                                  command, key):
        # A typo such as "max_epoch", a setting the tuning grid sets in cv
        # and ablate, or "task", which "component" replaced, is refused
        # before --out is made.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": str(dataset_dir), key: 1}))
        assert run_cli(command, "--config", config, "--out", tmp_path / "out") == 2
        assert f"{command} has no setting {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("axes,message", [(["bogus"], "unknown ablation axis 'bogus'"),
                                              ([], "ablate needs at least one axis")],
                             ids=["unknown", "none"])
    def test_ablation_axes_are_checked_before_out_is_made(self, dataset_dir, tmp_path, capsys,
                                                          axes, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"axes": axes}))
        assert run_cli("ablate", "--config", config, "--data", dataset_dir,
                       "--out", tmp_path / "out", "--max-epochs", 1) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_value_of_the_wrong_json_type_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"teachers": "x"}))
        assert run_cli("synth", "--config", config, "--out", tmp_path / "ds") == 2
        assert "config key 'teachers' must be a JSON integer, not a JSON string" \
            in capsys.readouterr().err

    @given(setting=st.sampled_from(SETTINGS), value=JSON_VALUES)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_json_path_value_raises_only_package_errors(self, tmp_path, setting, value):
        # Every key of every command, paths and the rest: a config value of
        # any JSON type is a package error or is taken with its key's type.
        command, key = setting
        defaults, required = _SETTINGS[command]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        flags = [arg for path in required if path != key for arg in (f"--{path}", "p")]
        args = build_parser().parse_args([command, "--config", str(config), *flags])
        try:
            resolved = _resolve(args, defaults, required)
        except DiscourseRaterError:
            return
        if key in required:
            assert isinstance(value, str) and resolved[key] == str(Path(value))
            return
        assert json.dumps(resolved[key]) == json.dumps(value)
        example = NONE_DEFAULT_EXAMPLES[key] if defaults[key] is None else defaults[key]
        assert value is None and defaults[key] is None or same_json_type(value, example)


class TestGrid:
    @staticmethod
    def resolved_grid(*flags):
        return _grid(_resolve(build_parser().parse_args(["cv", *flags]), _CV_DEFAULTS))

    def test_no_grid_flags_give_the_default_grid(self):
        assert self.resolved_grid() == default_grid()

    def test_one_axis_keeps_the_harness_axes_of_the_others(self):
        assert self.resolved_grid("--grid-m", "1") == [
            GridPoint(lr, batch, 1) for lr in LR_GRID for batch in BATCH_GRID]


@pytest.mark.parametrize("flag", [["--lr", "1e-4"], ["--batch-size", "8"], ["--m", "2"]],
                         ids=["lr", "batch_size", "m"])
@pytest.mark.parametrize("command", ["cv", "ablate"])
def test_grid_set_setting_is_a_train_flag_only(dataset_dir, tmp_path, capsys, command, flag):
    # In cv and ablate the --grid-* axes set these, so argparse refuses each
    # as an unrecognized argument.
    with pytest.raises(SystemExit) as exit_info:
        run_cli(command, "--data", dataset_dir, "--out", tmp_path / "out", *flag)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "error: " in err and flag[0] in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--max-epochs", "1", "--batch", "16"],
    ["cv", "--max-epochs", "1", "--grid-lr", "1e-4", "--grid-m", "1", "--grid-b", "16"],
    ["gradcheck", "--t", "1e-3"]], ids=["train", "cv", "gradcheck"])
def test_a_prefix_of_a_flag_is_refused(dataset_dir, tmp_path, capsys, argv):
    # Each flag has one spelling: argparse takes no prefix of a long flag.
    # The other flags keep the run short were the prefix taken.
    command, *flags = argv
    paths = [] if command == "gradcheck" else ["--data", dataset_dir, "--out", tmp_path / "out"]
    with pytest.raises(SystemExit) as exit_info:
        run_cli(command, *paths, *flags)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {' '.join(flags[-2:])}" in captured.err, captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["synth", "train", "cv", "ablate", "correlate"])
def test_every_flag_is_a_setting_that_resolve_reads(command):
    # ``_resolve`` reads only the keys of ``_SETTINGS[command]``, so a flag
    # outside them would be parsed and then silently ignored.
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    dests = {action.dest for action in commands[command]._actions} - {"help", "config"}
    defaults, required = _SETTINGS[command]
    assert dests == {*defaults, *required}


@pytest.mark.parametrize("command", ["train", "cv", "ablate", "correlate"])
def test_data_directory_without_manifest_is_usage_error(tmp_path, capsys, command):
    extra = ["--predictions", tmp_path / "p.csv"] if command == "correlate" else []
    assert run_cli(command, "--data", tmp_path / "nowhere", "--out", tmp_path / "out",
                   *extra) == 2
    manifest = tmp_path / "nowhere" / "manifest.json"
    assert f"cannot read dataset manifest {manifest}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "train", "cv", "ablate", "correlate"])
def test_out_that_cannot_be_created_fails_before_any_work(dataset_dir, tmp_path, capsys,
                                                          monkeypatch, command):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")

    def no_training(*args):
        raise AssertionError("a model was trained before --out was made")

    monkeypatch.setattr(importlib.import_module("discourse_rater.harness"), "train", no_training)
    predictions = tmp_path / "predictions.csv"
    predictions.write_text("segment_id,component,predicted_rating\ns0,nature,2.0\n")
    inputs = {"synth": [], "correlate": ["--data", dataset_dir, "--predictions", predictions]}
    assert run_cli(command, *inputs.get(command, ["--data", dataset_dir]),
                   "--out", blocker / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot create --out {blocker / 'out'}: "), err


@pytest.mark.parametrize("command", ["train", "cv"])
def test_repeated_rater_record_fails_before_training(dataset_dir, tmp_path, capsys, command):
    path = dataset_dir / "manifest.json"
    doc = json.loads(path.read_text())
    doc["rater_records"].append(doc["rater_records"][0])
    path.write_text(json.dumps(doc))
    assert run_cli(command, "--data", dataset_dir, "--out", tmp_path / "out",
                   "--max-epochs", 1) == 1
    err = capsys.readouterr().err
    assert "expected 2 raters" in err and "found 2 in 3 records" in err, err
    assert not (tmp_path / "out").exists()


OUT_OF_RANGE = [
    (["train", "--batch-size", 0], "batch_size"),
    (["train", "--batch-size", -3], "batch_size"),
    (["train", "--max-epochs", 0], "max_epochs"),
    (["train", "--val-fraction", 7], "val_fraction"),
    (["train", "--val-fraction", -1], "val_fraction"),
    (["train", "--lr", -1], "lr"),
    (["train", "--encoder", "lstm", "--modalities", "T+A", "--m", 2], "M=1"),
    (["train", "--seed", -1], "seed"),
    (["synth", "--seed", -1], "seed"),
    (["gradcheck", "--seed", -1], "seed"),
    (["gradcheck", "--tol", "nan"], "tol"),
    (["gradcheck", "--tol", -1], "tol"),
    (["gradcheck", "--tol", 0], "tol"),
    (["cv", "--jobs", 0], "jobs"),
    (["ablate", "--jobs", 0], "jobs"),
    (["cv", "--grid-lr", "3e-4"], "lr"),
    (["ablate", "--grid-m", 7], "fusion modules"),
    (["cv", "--grid-batch", 5], "batch size"),
    (["synth", "--rater-noise-sd", "nan"], "rater_noise_sd"),
    (["synth", "--noise-sd", "nan"], "noise_sd"),
    (["synth", "--outcome-noise-sd", "inf", "--students-per-teacher", 2], "outcome_noise_sd"),
    (["synth", "--noise-sd", -1], "noise_sd"),
    (["synth", "--students-per-teacher", -3], "students_per_teacher"),
    (["synth", "--lessons-per-teacher", 0], "lessons_per_teacher"),
]


@pytest.mark.parametrize("argv,setting", OUT_OF_RANGE,
                         ids=[" ".join(map(str, argv)) for argv, _ in OUT_OF_RANGE])
def test_out_of_range_setting_is_usage_error(dataset_dir, tmp_path, capsys, argv, setting):
    command, *flags = argv
    paths = {"synth": ["--out", tmp_path / "out"], "gradcheck": []}.get(
        command, ["--data", dataset_dir, "--out", tmp_path / "out"])
    assert run_cli(command, *paths, *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and re.search(rf"\b{setting}\b", err), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["synth", "train", "cv", "ablate"])
def test_default_settings_build_each_config_class_default(command):
    # With no flag and no config file, the CLI's spellings of the defaults
    # ("T", no_positional, the signal strength) must build what the config
    # classes hold themselves.
    resolved = _resolve(build_parser().parse_args([command]), _SETTINGS[command][0])
    if command == "synth":
        assert _synth_config(resolved) == SynthConfig()
    else:
        assert _model_config(resolved) == ModelConfig()
        assert _train_config(resolved) == TrainConfig()


@pytest.mark.parametrize("config", [SynthConfig(), ModelConfig(), TrainConfig()],
                         ids=["SynthConfig", "ModelConfig", "TrainConfig"])
def test_a_checked_config_cannot_be_changed(config):
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.seed = -1


class TestTrainCommand:
    def test_writes_history_and_checkpoint(self, dataset_dir, tmp_path):
        out = tmp_path / "run"
        assert run_cli("train", "--data", dataset_dir, "--out", out,
                       "--modalities", "T", "--max-epochs", 2,
                       "--seed", 1) == 0
        assert (out / "history.txt").exists()
        assert (out / "history.json").exists()
        model = load_model(out / "model.dfm")
        assert model.config.modalities == ("text",)
        history = json.loads((out / "history.json").read_text())
        assert len(history["train_losses"]) == 2

    @pytest.mark.parametrize("name,what", [("model.dfm", "checkpoint"),
                                           ("history.json", "output file")])
    def test_file_that_cannot_be_written_is_an_error(self, dataset_dir, tmp_path, capsys,
                                                     name, what):
        out = tmp_path / "run"
        (out / name).mkdir(parents=True)
        assert run_cli("train", "--data", dataset_dir, "--out", out,
                       "--modalities", "T", "--max-epochs", 1) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {what} {out / name}: Is a directory"), err


class TestCvCommand:
    def cv_args(self, data, out, seed=3):
        return ["cv", "--data", data, "--out", out, "--modalities", "T",
                "--max-epochs", 2, "--grid-lr", 1e-4, "--grid-batch", 8,
                "--grid-m", 1, "--seed", seed]

    def test_success_writes_reports(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "cv"
        assert run_cli(*self.cv_args(dataset_dir, out)) == 0
        printed = capsys.readouterr().out
        assert "mean (SE)" in printed
        report = json.loads((out / "report.json").read_text())
        assert set(report["components"]) == {"nature", "questioning", "explanations"}
        with open(out / "predictions.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 12 * 3
        resolved = json.loads((out / "run_config.json").read_text())
        assert not {"lr", "batch_size", "fusion_modules"} & set(resolved)

    def test_report_carries_human_irr_when_the_manifest_has_rater_records(self, dataset_dir,
                                                                          tmp_path):
        out = tmp_path / "cv"
        assert run_cli(*self.cv_args(dataset_dir, out)) == 0
        records = DatasetManifest.load(dataset_dir / "manifest.json").rater_records
        expected = {c: dataclasses.asdict(irr_leave_one_rater_out(records, c))
                    for c in ("nature", "questioning", "explanations")}
        human_irr = json.loads((out / "report.json").read_text())["human_irr"]
        assert human_irr["components"] == expected
        assert "4-point" in human_irr["scale"] and "7 half-point" in human_irr["scale"]

        doc = json.loads((dataset_dir / "manifest.json").read_text())
        doc["rater_records"] = []
        (dataset_dir / "manifest.json").write_text(json.dumps(doc))
        assert run_cli(*self.cv_args(dataset_dir, tmp_path / "cv_unrated")) == 0
        assert "human_irr" not in json.loads((tmp_path / "cv_unrated" / "report.json").read_text())

    def test_rerun_from_resolved_config_reproduces_outputs(self, dataset_dir, tmp_path):
        first = tmp_path / "cv1"
        assert run_cli(*self.cv_args(dataset_dir, first)) == 0
        second = tmp_path / "cv2"
        assert run_cli("cv", "--config", first / "run_config.json",
                       "--out", second) == 0
        assert (first / "predictions.csv").read_bytes() == \
            (second / "predictions.csv").read_bytes()
        assert (first / "report.json").read_bytes() == \
            (second / "report.json").read_bytes()

    def test_malformed_manifest_fails_with_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_text("{not json")
        code = run_cli("cv", "--data", bad, "--out", tmp_path / "cvout",
                       "--grid-m", 1)
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("key,index,field,value,message", [
        ("segments", 0, "labels", 5, "field 'labels' must be a JSON object, not a JSON number"),
        ("segments", 0, "segment_id", ["a"],
         "segments[0]: field 'segment_id' must be a JSON string, not a JSON array"),
        ("segments", 0, "path", 5, "field 'path' must be a JSON string, not a JSON number"),
        ("segments", 0, "path", None, "field 'path' must be a JSON string, not a JSON null"),
        ("rater_records", 0, "score", "x",
         "rater_records[0]: field 'score' must be a JSON integer, not a JSON string"),
    ], ids=["labels_number", "segment_id_array", "path_number", "path_null", "score_string"])
    def test_field_of_the_wrong_json_type_is_format_error(self, dataset_dir, tmp_path, capsys,
                                                          key, index, field, value, message):
        path = dataset_dir / "manifest.json"
        doc = json.loads(path.read_text())
        doc[key][index][field] = value
        path.write_text(json.dumps(doc))
        assert run_cli(*self.cv_args(dataset_dir, tmp_path / "cvout")) == 1
        err = capsys.readouterr().err
        assert f"error: manifest " in err and message in err
        assert "Traceback" not in err

    def test_non_numeric_label_fails_naming_its_segment(self, dataset_dir, tmp_path,
                                                        capsys):
        path = dataset_dir / "manifest.json"
        doc = json.loads(path.read_text())
        doc["segments"][3]["labels"]["nature"] = "high"
        path.write_text(json.dumps(doc))
        assert run_cli(*self.cv_args(dataset_dir, tmp_path / "cvout")) == 1
        assert f"segment {doc['segments'][3]['segment_id']}: label 'nature'" in \
            capsys.readouterr().err


class TestAblateCommand:
    def test_loss_axis_table(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "ab"
        assert run_cli("ablate", "--data", dataset_dir, "--out", out,
                       "--modalities", "T", "--axes", "loss",
                       "--max-epochs", 2, "--grid-lr", 1e-4,
                       "--grid-batch", 8, "--grid-m", 1, "--seed", 2) == 0
        table = (out / "ablation.txt").read_text()
        for row in ("loss:l1", "loss:ce", "loss:oll"):
            assert row in table
        doc = json.loads((out / "ablation.json").read_text())
        assert set(doc) == {"loss:l1", "loss:ce", "loss:oll"}
        resolved = json.loads((out / "run_config.json").read_text())
        assert not {"lr", "batch_size", "fusion_modules"} & set(resolved)


class TestCorrelateCommand:
    def test_human_and_model_rows_with_stars(self, dataset_dir, tmp_path, capsys):
        cv_out = tmp_path / "cv"
        assert run_cli("cv", "--data", dataset_dir, "--out", cv_out,
                       "--modalities", "T", "--max-epochs", 2,
                       "--grid-lr", 1e-4, "--grid-batch", 8, "--grid-m", 1,
                       "--seed", 3) == 0
        out = tmp_path / "corr"
        assert run_cli("correlate", "--data", dataset_dir,
                       "--predictions", cv_out / "predictions.csv",
                       "--out", out) == 0
        text = (out / "correlations.txt").read_text()
        assert "human" in text and "model" in text
        doc = json.loads((out / "correlations.json").read_text())
        assert doc["nature"]["human"]["test_score"]["r"] > 0.8

    def test_identical_columns_give_identical_rows(self, dataset_dir, tmp_path):
        # A prediction table equal to the human labels must reproduce the
        # human correlation rows exactly.
        manifest = DatasetManifest.load(dataset_dir / "manifest.json")
        fake = tmp_path / "predictions.csv"
        with open(fake, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["segment_id", "component", "true_rating",
                             "predicted_rating", "fold"])
            for seg in manifest.segments:
                for component, rating in seg.labels.items():
                    writer.writerow([seg.segment_id, component, rating, rating, 0])
        out = tmp_path / "corr"
        assert run_cli("correlate", "--data", dataset_dir,
                       "--predictions", fake, "--out", out) == 0
        doc = json.loads((out / "correlations.json").read_text())
        for component, by_source in doc.items():
            assert by_source["human"] == by_source["model"]

    @staticmethod
    def label_table(path, manifest, drop_column=None, skip_teachers=()):
        """A prediction table holding the human labels."""
        columns = ["segment_id", "component", "true_rating", "predicted_rating", "fold"]
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=[c for c in columns if c != drop_column],
                                    extrasaction="ignore")
            writer.writeheader()
            for seg in manifest.segments:
                if seg.teacher_id in skip_teachers:
                    continue
                for component, rating in seg.labels.items():
                    writer.writerow(dict(zip(columns, [seg.segment_id, component,
                                                       rating, rating, 0])))

    def test_teachers_without_predictions_are_data_error(self, dataset_dir, tmp_path,
                                                         capsys):
        table = tmp_path / "p.csv"
        self.label_table(table, DatasetManifest.load(dataset_dir / "manifest.json"),
                         skip_teachers={"t000", "t002"})
        assert run_cli("correlate", "--data", dataset_dir, "--predictions", table,
                       "--out", tmp_path / "corr") == 1
        assert "teachers with students: t000, t002" in capsys.readouterr().err

    def test_missing_prediction_column_is_format_error(self, dataset_dir, tmp_path,
                                                       capsys):
        table = tmp_path / "p.csv"
        self.label_table(table, DatasetManifest.load(dataset_dir / "manifest.json"),
                         drop_column="predicted_rating")
        assert run_cli("correlate", "--data", dataset_dir, "--predictions", table,
                       "--out", tmp_path / "corr") == 1
        assert "no 'predicted_rating' column" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["high", "nan", "inf"])
    def test_rating_that_is_not_a_finite_number_is_data_error(self, dataset_dir, tmp_path,
                                                              capsys, value):
        manifest = DatasetManifest.load(dataset_dir / "manifest.json")
        table = tmp_path / "p.csv"
        self.label_table(table, manifest)
        lines = table.read_text().splitlines()
        segment_id, component, true_rating, _, fold = lines[3].split(",")
        lines[3] = ",".join([segment_id, component, true_rating, value, fold])
        table.write_text("\n".join(lines) + "\n")
        assert run_cli("correlate", "--data", dataset_dir, "--predictions", table,
                       "--out", tmp_path / "corr") == 1
        assert f"segment {segment_id!r} {component}: predicted_rating {value!r}" \
            in capsys.readouterr().err

    def test_missing_prediction_table_is_usage_error(self, dataset_dir, tmp_path, capsys):
        assert run_cli("correlate", "--data", dataset_dir, "--predictions",
                       tmp_path / "absent.csv", "--out", tmp_path / "corr") == 2
        assert "cannot read prediction table" in capsys.readouterr().err

    def test_table_that_is_not_utf8_is_format_error(self, dataset_dir, tmp_path, capsys):
        table = tmp_path / "p.csv"
        table.write_bytes(b"segment_id,component,predicted_rating\ns\xff,nature,2.5\n")
        assert run_cli("correlate", "--data", dataset_dir, "--predictions", table,
                       "--out", tmp_path / "corr") == 1
        assert "is not UTF-8 CSV" in capsys.readouterr().err

    CELLS = st.one_of(st.text(max_size=6), st.floats().map(str),
                      st.sampled_from(["nature", "quality", "1.5", "", "inf", "high"]))

    @given(header=st.permutations(["segment_id", "component", "predicted_rating", "fold"]),
           rows=st.lists(st.lists(CELLS, max_size=6), max_size=6))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_rows_raise_only_package_errors(self, tmp_path, header, rows):
        table = tmp_path / "p.csv"
        with open(table, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
        try:
            predictions = _read_predictions(str(table))
        except DiscourseRaterError:
            return
        assert all(math.isfinite(rating) for per_segment in predictions.values()
                   for rating in per_segment.values())

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize("field", ["test_score", "interest", "self_efficacy"])
    def test_non_finite_student_outcome_is_data_error(self, dataset_dir, tmp_path, capsys,
                                                      field, value):
        path = dataset_dir / "manifest.json"
        manifest = DatasetManifest.load(path)
        doc = json.loads(path.read_text())
        doc["student_records"][4][field] = "OUTCOME"
        path.write_text(json.dumps(doc).replace('"OUTCOME"', value))
        table = tmp_path / "p.csv"
        self.label_table(table, manifest)
        assert run_cli("correlate", "--data", dataset_dir, "--predictions", table,
                       "--out", tmp_path / "corr") == 1
        err = capsys.readouterr().err
        student = doc["student_records"][4]["student_id"]
        assert f"student {student}: field {field!r} must be a finite number" in err
        assert "Traceback" not in err
        assert not (tmp_path / "corr").exists()

    def test_missing_student_records_is_usage_error(self, tmp_path):
        empty = tmp_path / "ds"
        assert run_cli("synth", "--out", empty, "--teachers", 5,
                       "--segments-per-teacher", 2, "--text-len", 2, 3,
                       "--chunk-len", 2, 3, "--seed", 1) == 0
        fake = tmp_path / "p.csv"
        fake.write_text("segment_id,component,true_rating,predicted_rating,fold\n")
        assert run_cli("correlate", "--data", empty, "--predictions", fake,
                       "--out", tmp_path / "corr") == 2


class TestGradcheckCommand:
    # Each node-building primitive of `tensor` once (`slice` is `take`, `sum`
    # is `tsum`, `mean` is `tmean`, `attention_core` is `attention`), plus five
    # variants with their own backward path or shape: `add_broadcast` (the
    # `_unbroadcast` reduction), `scale` (`mul` with a Python-scalar operand),
    # `matmul_bias` (the bias folded into the GEMM), `attention_core_lead` (a
    # shared lead key and value row) and `attention_core_cls_only` (one query
    # row per sequence).
    PRIMITIVE_ENTRIES = (
        "add", "add_broadcast", "sub", "mul", "scale", "neg", "relu", "sigmoid",
        "tanh", "log", "absolute", "clamp_min", "matmul", "matmul_bias",
        "bmm", "transpose", "permute", "reshape", "slice", "concat",
        "sum", "mean", "softmax", "masked_fill", "layer_norm", "embedding_lookup",
        "attention_core", "attention_core_lead", "attention_core_cls_only",
    )
    COMPOSITE_ENTRIES = (
        "attention", "attention_batched", "encoder_block_self", "encoder_block_cross",
        "encoder_block_packed_cross", "encoder_block_packed_cls", "mlp_head_classify", "mlp_head_regress", "bilstm",
        "oll_loss", "ce_loss", "l1_loss",
    )

    def test_clean_build_passes(self, capsys):
        code = run_cli("gradcheck")
        printed = capsys.readouterr().out
        assert "max_rel_err" in printed
        verdicts = {}
        for line in printed.splitlines():
            if "max_rel_err=" in line:
                name, *_, verdict = line.split()
                verdicts[name] = verdict
        assert {n: v for n, v in verdicts.items() if v != "pass"} == {}
        assert code == 0
        assert set(verdicts) == set(self.PRIMITIVE_ENTRIES) | set(self.COMPOSITE_ENTRIES)
        assert "41/41 checks passed" in printed
