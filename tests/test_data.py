import json
import shutil
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from discourse_rater.data import (AUDIO_DIM, TEXT_DIM, VIDEO_DIM, Dataset,
                                  DatasetManifest, SegmentFeatures,
                                  SynthConfig, classroom_aggregate,
                                  generate_synthetic, read_feature_file,
                                  segment_boundaries, uniform_signal,
                                  write_feature_file)
from discourse_rater.errors import DataError, DiscourseRaterError, FormatError
from discourse_rater.objective import COMPONENTS, RATINGS
from helpers import EDITS, JSON_VALUES, edited, json_paths, linear_readout_qwk


class TestSegmentBoundaries:
    def test_forty_minute_lesson_keeps_final_window(self):
        assert segment_boundaries(2400.0) == [(0.0, 960.0), (960.0, 1920.0),
                                              (1920.0, 2400.0)]

    def test_short_remainder_merges_into_previous(self):
        assert segment_boundaries(2280.0) == [(0.0, 960.0), (960.0, 2280.0)]

    def test_short_lesson_is_single_segment(self):
        assert segment_boundaries(900.0) == [(0.0, 900.0)]

    def test_exact_multiple(self):
        assert segment_boundaries(1920.0) == [(0.0, 960.0), (960.0, 1920.0)]

    def test_non_positive_duration_rejected(self):
        with pytest.raises(DataError):
            segment_boundaries(0.0)

    @given(st.floats(1.0, 20000.0))
    @settings(max_examples=100, deadline=None)
    def test_windows_tile_the_lesson(self, duration):
        bounds = segment_boundaries(duration)
        assert bounds[0][0] == 0.0
        assert bounds[-1][1] == duration
        for (_, end_a), (start_b, _) in zip(bounds, bounds[1:]):
            assert end_a == start_b
        for start, end in bounds:
            assert end > start


def make_segment(rng, seg_id="s1", text_len=3, chunk_len=4):
    return SegmentFeatures(
        segment_id=seg_id, teacher_id="t1",
        text=rng.standard_normal((text_len, TEXT_DIM)).astype(np.float32),
        audio=rng.standard_normal((chunk_len, AUDIO_DIM)).astype(np.float32),
        video=rng.standard_normal((chunk_len, VIDEO_DIM)).astype(np.float32),
    )


class TestFeatureFiles:
    def test_round_trip_is_bit_exact(self, rng, tmp_path):
        seg = make_segment(rng)
        path = tmp_path / "seg.dfx"
        write_feature_file(path, seg)
        loaded = read_feature_file(path, segment_id="s1")
        assert np.array_equal(loaded.text, seg.text)
        assert np.array_equal(loaded.audio, seg.audio)
        assert np.array_equal(loaded.video, seg.video)

    def test_empty_modality_encodable(self, rng, tmp_path):
        seg = make_segment(rng)
        seg.video = np.zeros((0, VIDEO_DIM), dtype=np.float32)
        path = tmp_path / "seg.dfx"
        write_feature_file(path, seg)
        assert read_feature_file(path).video.shape[0] == 0

    def test_corrupted_magic_rejected(self, rng, tmp_path):
        path = tmp_path / "seg.dfx"
        write_feature_file(path, make_segment(rng))
        raw = bytearray(path.read_bytes())
        raw[0] = ord(b"X")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            read_feature_file(path)
        assert err.value.offset == 0

    def test_truncation_reports_offset(self, rng, tmp_path):
        path = tmp_path / "seg.dfx"
        write_feature_file(path, make_segment(rng))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError) as err:
            read_feature_file(path)
        assert err.value.offset is not None

    def test_wrong_width_rejected(self, rng, tmp_path):
        seg = make_segment(rng)
        seg.audio = rng.standard_normal((4, 100)).astype(np.float32)
        path = tmp_path / "seg.dfx"
        write_feature_file(path, seg)
        with pytest.raises(FormatError):
            read_feature_file(path)

    def test_file_is_dfx1_written_field_by_field(self, rng, tmp_path):
        seg = make_segment(rng)
        seg.video = np.zeros((0, VIDEO_DIM), dtype=np.float32)
        path = tmp_path / "seg.dfx"
        write_feature_file(path, seg)
        assert path.read_bytes() == dfx1_bytes(seg.text, seg.audio, seg.video)

    def test_huge_row_count_allocates_nothing(self, rng, tmp_path):
        # A header claiming 2**31 - 1 text rows asks for 6.6 TB of values.
        seg = make_segment(rng)
        path = tmp_path / "seg.dfx"
        raw = bytearray(dfx1_bytes(seg.text, seg.audio, seg.video))
        struct.pack_into("<I", raw, 4, 2**31 - 1)
        path.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError) as err:
                read_feature_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "truncated text data" in str(err.value)
        assert err.value.offset == len(raw)
        assert peak < 1 << 20

    @pytest.mark.parametrize("name,rows,message", [
        ("text", None, "text has non-finite entries"),
        ("audio", None, "audio has non-finite entries"),
        ("video", 3, r"audio/video chunk counts differ \(4 vs 3\)"),
    ], ids=["nan-text", "nan-audio", "chunk-counts"])
    def test_parsed_file_with_bad_features_is_data_error(self, rng, tmp_path, name, rows,
                                                         message):
        seg = make_segment(rng)
        arr = seg.modality(name)
        if rows is None:
            arr[1, 2] = np.nan
        else:
            setattr(seg, name, arr[:rows])
        path = tmp_path / "seg.dfx"
        write_feature_file(path, seg)
        with pytest.raises(DataError, match=f"segment s7: {message}") as err:
            read_feature_file(path, segment_id="s7")
        assert not isinstance(err.value, FormatError)
        # The same features in a malformed file are FormatError first.
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FormatError, match="1 trailing bytes"):
            read_feature_file(path, segment_id="s7")


def dfx1_bytes(*matrices) -> bytes:
    """A DFX1 file written field by field: per matrix its rows, cols and values."""
    chunks = [b"DFX1"]
    for arr in matrices:
        chunks += [struct.pack("<II", *arr.shape), np.asarray(arr, dtype="<f4").tobytes()]
    return b"".join(chunks)


def valid_dfx1(tmp_path) -> bytes:
    path = tmp_path / "valid.dfx"
    write_feature_file(path, make_segment(np.random.default_rng(3), text_len=2, chunk_len=3))
    return path.read_bytes()


def dfx1_header_positions(raw: bytes) -> list[int]:
    """Byte positions of the magic and the three (rows, cols) headers."""
    positions, offset = list(range(4)), 4
    for _ in range(3):
        rows, cols = struct.unpack_from("<II", raw, offset)
        positions += range(offset, offset + 8)
        offset += 8 + 4 * rows * cols
    return positions


class TestFeatureFileFuzz:
    """Any DFX1 bytes either load as valid features or raise a package error."""

    @staticmethod
    def load(tmp_path, raw: bytes) -> None:
        path = tmp_path / "fuzz.dfx"
        path.write_bytes(raw)
        try:
            read_feature_file(path)
        except DiscourseRaterError:
            pass

    @given(edits=EDITS)
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_edited_file_raises_only_package_errors(self, tmp_path, edits):
        raw = valid_dfx1(tmp_path)
        self.load(tmp_path, edited(raw, dfx1_header_positions(raw), edits))

    @given(body=st.binary(max_size=64))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_bytes_after_the_magic_raise_only_package_errors(self, tmp_path, body):
        self.load(tmp_path, b"DFX1" + body)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read feature file"):
            read_feature_file(tmp_path / "absent.dfx")

    def test_path_with_a_nul_byte_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read feature file.*null byte"):
            read_feature_file(tmp_path / "a\x00b.dfx")


def small_synth(**overrides) -> SynthConfig:
    base = dict(n_teachers=6, segments_per_teacher=4, seed=11,
                text_len=(3, 5), chunk_len=(3, 5))
    base.update(overrides)
    return SynthConfig(**base)


class TestSyntheticGenerator:
    def test_segment_and_teacher_counts(self):
        dataset = generate_synthetic(small_synth())
        assert len(dataset.manifest.segments) == 24
        assert len(dataset.manifest.teacher_ids()) == 6

    def test_lengths_are_kept_as_tuples(self):
        cfg = small_synth(text_len=[3, 5], chunk_len=[2, 4])
        assert (cfg.text_len, cfg.chunk_len) == ((3, 5), (2, 4))

    def test_manifest_validates(self):
        dataset = generate_synthetic(small_synth(students_per_teacher=3))
        dataset.manifest.validate()

    def test_two_rater_records_whose_mean_is_the_label(self):
        dataset = generate_synthetic(small_synth())
        scores: dict[tuple[str, str], list[int]] = {}
        for rec in dataset.manifest.rater_records:
            scores.setdefault((rec.segment_id, rec.component), []).append(rec.score)
        for seg in dataset.manifest.segments:
            for component in COMPONENTS:
                pair = scores[(seg.segment_id, component)]
                assert len(pair) == 2 and all(1 <= s <= 4 for s in pair)
                assert (pair[0] + pair[1]) / 2.0 == seg.labels[component]

    def test_full_correlation_makes_labels_identical(self):
        dataset = generate_synthetic(small_synth(label_correlation=1.0,
                                                 rater_noise_sd=0.0))
        for seg in dataset.manifest.segments:
            values = {seg.labels[c] for c in COMPONENTS}
            assert len(values) == 1

    def test_rerun_writes_byte_identical_files(self, tmp_path):
        cfg = small_synth(students_per_teacher=2)
        generate_synthetic(cfg, tmp_path / "a")
        generate_synthetic(cfg, tmp_path / "b")
        manifest_a = (tmp_path / "a" / "manifest.json").read_bytes()
        manifest_b = (tmp_path / "b" / "manifest.json").read_bytes()
        assert manifest_a == manifest_b
        for seg in Dataset.load(tmp_path / "a").manifest.segments:
            assert (tmp_path / "a" / seg.path).read_bytes() == \
                (tmp_path / "b" / seg.path).read_bytes()

    def test_round_trip_through_disk(self, tmp_path):
        cfg = small_synth()
        dataset = generate_synthetic(cfg, tmp_path)
        loaded = Dataset.load(tmp_path)
        assert set(loaded.features) == set(dataset.features)
        for seg_id, feats in loaded.features.items():
            assert np.array_equal(feats.text, dataset.features[seg_id].text)

    def test_zero_signal_gives_chance_level_readout(self):
        cfg = small_synth(n_teachers=12, segments_per_teacher=6,
                          signal_strength=uniform_signal(0.0), seed=5)
        dataset = generate_synthetic(cfg)
        for component in COMPONENTS:
            assert abs(linear_readout_qwk(dataset, component)) < 0.25

    def test_full_signal_no_noise_readout_recovers_labels(self):
        cfg = small_synth(n_teachers=16, segments_per_teacher=6,
                          signal_strength=uniform_signal(1.0),
                          noise_sd=0.0, rater_noise_sd=0.0, seed=5)
        dataset = generate_synthetic(cfg)
        for component in COMPONENTS:
            assert linear_readout_qwk(dataset, component, alpha=0.1) > 0.95

    def test_labels_live_in_rating_set(self):
        dataset = generate_synthetic(small_synth())
        for seg in dataset.manifest.segments:
            for component in COMPONENTS:
                assert seg.labels[component] in RATINGS

    def test_audio_video_chunk_counts_match(self):
        dataset = generate_synthetic(small_synth())
        for feats in dataset.features.values():
            assert feats.audio.shape[0] == feats.video.shape[0]

    def test_student_outcomes_track_teacher_scores(self):
        dataset = generate_synthetic(small_synth(n_teachers=10,
                                                 students_per_teacher=5,
                                                 outcome_noise_sd=0.01, seed=3))
        from discourse_rater.metrics import pearson_r

        scores = {s.segment_id: s.labels["nature"] for s in dataset.manifest.segments}
        per_teacher = classroom_aggregate(scores, dataset.manifest)
        xs = [per_teacher[st.teacher_id] for st in dataset.manifest.student_records]
        ys = [st.test_score for st in dataset.manifest.student_records]
        r, p = pearson_r(xs, ys)
        assert r > 0.9 and p < 0.001


class TestManifestFuzz:
    """A valid manifest with any one value replaced by any JSON value either
    loads or raises a package error."""

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        """The dataset, and under ``fuzzed`` a copy that each example's manifest replaces."""
        root = tmp_path_factory.mktemp("manifest_fuzz")
        generate_synthetic(small_synth(n_teachers=2, segments_per_teacher=2,
                                       students_per_teacher=1), root)
        shutil.copytree(root / "features", root / "fuzzed" / "features")
        return root

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_value_replaced_raises_only_package_errors(self, root, data):
        doc = json.loads((root / "manifest.json").read_text())
        path = data.draw(st.sampled_from(list(json_paths(doc))), label="path")
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(JSON_VALUES, label="value")
        text = json.dumps(doc)
        try:
            DatasetManifest.from_json(text).validate()
        except DiscourseRaterError:
            pass
        (root / "fuzzed" / "manifest.json").write_text(text)
        try:
            Dataset.load(root / "fuzzed")
        except DiscourseRaterError:
            pass


class TestManifestErrors:
    def test_top_level_list_is_format_error(self):
        with pytest.raises(FormatError, match="JSON object"):
            DatasetManifest.from_json('[{"segments": []}]')

    def test_non_numeric_label_names_its_segment(self):
        doc = generate_synthetic(small_synth()).manifest.to_json()
        manifest = DatasetManifest.from_json(doc)
        segment = manifest.segments[5]
        segment.labels["questioning"] = "high"
        with pytest.raises(DataError, match=f"segment {segment.segment_id}: "
                                            "label 'questioning'"):
            manifest.validate()

    @pytest.mark.parametrize("value", ["1e400", "-Infinity", "1" + "0" * 400],
                             ids=["overflowing_float", "infinity", "huge_integer"])
    def test_label_beyond_float_range_names_its_segment(self, value):
        doc = json.loads(generate_synthetic(small_synth()).manifest.to_json())
        doc["segments"][2]["labels"]["nature"] = "LABEL"
        text = json.dumps(doc).replace('"LABEL"', value)
        manifest = DatasetManifest.from_json(text)
        with pytest.raises(DataError, match=f"segment {doc['segments'][2]['segment_id']}: "
                                            "label 'nature'"):
            manifest.validate()

    def test_wrong_rater_count_rejected(self):
        manifest = generate_synthetic(small_synth()).manifest
        dropped = manifest.rater_records.pop(4)
        with pytest.raises(DataError, match=f"segment {dropped.segment_id}: expected 2 "
                                            f"raters for {dropped.component}, found 1"):
            manifest.validate()

    def test_repeated_rater_record_rejected_on_load(self, tmp_path):
        generate_synthetic(small_synth(), tmp_path)
        path = tmp_path / "manifest.json"
        doc = json.loads(path.read_text())
        first = doc["rater_records"][0]
        doc["rater_records"].append(dict(first))
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"segment {first['segment_id']}: expected 2 "
                                            f"raters for {first['component']}, found 2 in "
                                            f"3 records"):
            Dataset.load(tmp_path)

    def test_rater_record_for_an_unknown_segment_rejected_on_load(self, tmp_path):
        # The ghost records pair up like real ones, so only the segment id
        # gives them away.
        generate_synthetic(small_synth(), tmp_path)
        path = tmp_path / "manifest.json"
        doc = json.loads(path.read_text())
        doc["rater_records"] += [dict(rec, segment_id="ghost") for rec in doc["rater_records"][:2]]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="rater record for unknown segment 'ghost'"):
            Dataset.load(tmp_path)

    def test_rater_score_outside_the_scale_rejected(self):
        manifest = generate_synthetic(small_synth()).manifest
        manifest.rater_records[3].score = 5
        with pytest.raises(DataError, match="rater score 5 outside 1..4"):
            manifest.validate()
