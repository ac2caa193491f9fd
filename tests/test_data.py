import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from discourse_rater.data import (AUDIO_DIM, TEXT_DIM, VIDEO_DIM, Dataset,
                                  DatasetManifest, RaterRecord, SegmentFeatures,
                                  SynthConfig, aggregate_to_chunks,
                                  aggregate_words_to_utterances,
                                  average_rater_scores, generate_synthetic,
                                  read_feature_file, segment_boundaries,
                                  uniform_signal, write_feature_file)
from discourse_rater.errors import DataError, DiscourseRaterError, FormatError
from discourse_rater.objective import COMPONENTS, RATINGS
from helpers import EDITS, edited, linear_readout_qwk


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


class TestWordAggregation:
    def test_single_span_is_column_mean(self, rng):
        words = rng.standard_normal((6, 4))
        out = aggregate_words_to_utterances(words, [(0, 6)])
        assert np.allclose(out, words.mean(axis=0, keepdims=True))

    def test_single_word_span_unchanged(self, rng):
        words = rng.standard_normal((3, 4))
        out = aggregate_words_to_utterances(words, [(0, 1), (1, 3)])
        assert np.allclose(out[0], words[0])

    def test_hand_computed_mean(self):
        words = np.asarray([[1.0, 3.0], [3.0, 5.0]])
        out = aggregate_words_to_utterances(words, [(0, 2)])
        assert np.array_equal(out, [[2.0, 4.0]])

    def test_empty_span_rejected(self):
        with pytest.raises(DataError):
            aggregate_words_to_utterances(np.zeros((3, 2)), [(0, 0), (0, 3)])

    def test_gap_or_overlap_rejected(self):
        with pytest.raises(DataError):
            aggregate_words_to_utterances(np.zeros((4, 2)), [(0, 2), (3, 4)])
        with pytest.raises(DataError):
            aggregate_words_to_utterances(np.zeros((4, 2)), [(0, 3), (2, 4)])

    def test_scaling_commutes(self, rng):
        words = rng.standard_normal((5, 3))
        spans = [(0, 2), (2, 5)]
        assert np.allclose(aggregate_words_to_utterances(3.0 * words, spans),
                           3.0 * aggregate_words_to_utterances(words, spans))


class TestChunkAggregation:
    def test_partial_final_window_kept(self, rng):
        frames = rng.standard_normal((25, 4))
        chunks = aggregate_to_chunks(frames, rate_hz=1.0)
        assert chunks.shape == (3, 4)
        assert np.allclose(chunks[0], frames[:10].mean(axis=0))
        assert np.allclose(chunks[2], frames[20:].mean(axis=0))

    def test_constant_input_preserved(self):
        frames = np.full((17, 3), 2.5)
        assert np.allclose(aggregate_to_chunks(frames, 1.0), 2.5)

    @given(st.integers(1, 120), st.sampled_from([0.5, 1.0, 2.0, 25.0]))
    @settings(max_examples=60, deadline=None)
    def test_chunk_count_formula(self, n_frames, rate):
        frames = np.ones((n_frames, 2))
        chunks = aggregate_to_chunks(frames, rate)
        assert chunks.shape[0] == int(np.ceil(n_frames / (rate * 10.0)))

    def test_scaling_commutes(self, rng):
        frames = rng.standard_normal((23, 3))
        assert np.allclose(aggregate_to_chunks(0.5 * frames, 1.0),
                           0.5 * aggregate_to_chunks(frames, 1.0))


class TestRaterAverages:
    def make_records(self, a, b):
        return [RaterRecord("seg1", "r1", "nature", a),
                RaterRecord("seg1", "r2", "nature", b)]

    def test_half_point(self):
        assert average_rater_scores(self.make_records(3, 4), "seg1", "nature") == 3.5

    def test_integer(self):
        assert average_rater_scores(self.make_records(2, 2), "seg1", "nature") == 2.0

    def test_wide_disagreement(self):
        assert average_rater_scores(self.make_records(1, 4), "seg1", "nature") == 2.5

    def test_wrong_count_rejected(self):
        records = self.make_records(1, 4)[:1]
        with pytest.raises(DataError):
            average_rater_scores(records, "seg1", "nature")


def make_segment(rng, seg_id="s1", text_len=3, chunk_len=4):
    return SegmentFeatures(
        segment_id=seg_id, teacher_id="t1", lesson_id="l1",
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
            read_feature_file(path).validate()
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

    def test_manifest_validates(self):
        dataset = generate_synthetic(small_synth(students_per_teacher=3))
        dataset.manifest.validate()

    def test_two_rater_records_whose_mean_is_the_label(self):
        dataset = generate_synthetic(small_synth())
        for seg in dataset.manifest.segments:
            for component in COMPONENTS:
                avg = average_rater_scores(dataset.manifest.rater_records,
                                           seg.segment_id, component)
                assert avg == seg.labels[component]

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
        from discourse_rater.metrics import classroom_aggregate, pearson_r

        scores = {s.segment_id: s.labels["nature"] for s in dataset.manifest.segments}
        per_teacher = classroom_aggregate(scores, dataset.manifest)
        xs = [per_teacher[st.teacher_id] for st in dataset.manifest.student_records]
        ys = [st.test_score for st in dataset.manifest.student_records]
        r, p = pearson_r(xs, ys)
        assert r > 0.9 and p < 0.001


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
