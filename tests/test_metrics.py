import numpy as np
import pytest

from discourse_rater.data import (DatasetManifest, RaterRecord, SegmentRecord,
                                  classroom_aggregate)
from discourse_rater.errors import DataError, UsageError
from discourse_rater.metrics import (confusion_matrix, fold_summary,
                                     irr_leave_one_rater_out, pearson_r, qwk,
                                     qwk_from_confusion, significance_stars,
                                     summarize_folds)


def brute_force_qwk(counts):
    """Direct double-loop evaluation, kept deliberately naive."""
    k = len(counts)
    n = float(sum(sum(row) for row in counts))
    row_marg = [float(sum(counts[i])) for i in range(k)]
    col_marg = [float(sum(counts[i][j] for i in range(k))) for j in range(k)]
    num = 0.0
    den = 0.0
    for i in range(k):
        for j in range(k):
            w = float((i - j) ** 2)
            num += w * counts[i][j]
            den += w * row_marg[i] * col_marg[j] / n
    if den == 0.0:
        return 1.0 if num == 0.0 else 0.0
    return 1.0 - num / den


def expand_matrix_to_pairs(counts):
    truth, pred = [], []
    for i, row in enumerate(counts):
        for j, c in enumerate(row):
            truth.extend([i + 1] * c)
            pred.extend([j + 1] * c)
    return truth, pred


class TestQwk:
    def test_perfect_agreement(self):
        assert qwk([1, 2, 3, 4], [1, 2, 3, 4], 7) == 1.0

    def test_hand_worked_reversal_example(self):
        assert qwk([1, 2, 3], [3, 2, 1], 3) == pytest.approx(-1.0, abs=1e-12)

    def test_degenerate_same_constant(self):
        assert qwk([2, 2, 2], [2, 2, 2], 4) == 1.0

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(17)
        for trial in range(100):
            k = int(rng.integers(2, 8))
            counts = rng.integers(0, 6, size=(k, k))
            if counts.sum() == 0:
                counts[0, 0] = 1
            truth, pred = expand_matrix_to_pairs(counts.tolist())
            assert qwk(truth, pred, k) == pytest.approx(
                brute_force_qwk(counts.tolist()), abs=1e-12), f"trial {trial}"

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            truth = rng.integers(1, 8, size=30).tolist()
            pred = rng.integers(1, 8, size=30).tolist()
            assert qwk(truth, pred, 7) == pytest.approx(qwk(pred, truth, 7), abs=1e-12)

    def test_invariant_under_scale_reversal(self):
        rng = np.random.default_rng(29)
        truth = rng.integers(1, 8, size=40).tolist()
        pred = rng.integers(1, 8, size=40).tolist()
        flipped_truth = [8 - t for t in truth]
        flipped_pred = [8 - p for p in pred]
        assert qwk(truth, pred, 7) == pytest.approx(
            qwk(flipped_truth, flipped_pred, 7), abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(UsageError):
            qwk([1, 2], [1], 7)

    def test_out_of_range_rejected(self):
        with pytest.raises(UsageError):
            qwk([1, 9], [1, 2], 7)

    def test_confusion_layout(self):
        counts = confusion_matrix([1, 1, 2], [1, 3, 2], 3)
        assert counts[0, 0] == 1 and counts[0, 2] == 1 and counts[1, 1] == 1
        assert counts.sum() == 3


class TestIrr:
    def two_rater_records(self):
        # Hand-worked 6-segment table: sum(w*O) = 3, sum(w*E) = 54/6 = 9,
        # QWK = 1 - 3/9 = 2/3 for either rater paired with the other.
        scores_a = [1, 2, 3, 4, 2, 3]
        scores_b = [2, 2, 3, 3, 1, 3]
        records = []
        for i, (a, b) in enumerate(zip(scores_a, scores_b)):
            records.append(RaterRecord(f"seg{i}", "ra", "nature", a))
            records.append(RaterRecord(f"seg{i}", "rb", "nature", b))
        return records

    def test_crafted_table_matches_hand_computation(self):
        result = irr_leave_one_rater_out(self.two_rater_records(), "nature")
        assert result.per_rater["ra"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert result.per_rater["rb"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert result.mean == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert result.standard_error == 0.0

    def test_perfect_agreement_gives_one(self):
        records = []
        for i, score in enumerate([1, 2, 3, 4, 2]):
            records.append(RaterRecord(f"seg{i}", "ra", "nature", score))
            records.append(RaterRecord(f"seg{i}", "rb", "nature", score))
        result = irr_leave_one_rater_out(records, "nature")
        assert all(v == 1.0 for v in result.per_rater.values())
        assert result.mean == 1.0 and result.standard_error == 0.0

    def test_three_raters_match_brute_force(self):
        rng = np.random.default_rng(31)
        pairs = [("ra", "rb"), ("ra", "rc"), ("rb", "rc")] * 4
        records = []
        scores = {}
        for i, (first, second) in enumerate(pairs):
            a, b = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            records.append(RaterRecord(f"seg{i}", first, "nature", a))
            records.append(RaterRecord(f"seg{i}", second, "nature", b))
            scores[f"seg{i}"] = {first: a, second: b}
        result = irr_leave_one_rater_out(records, "nature")
        for rater, value in result.per_rater.items():
            own, other = [], []
            for seg, by_rater in scores.items():
                if rater in by_rater:
                    own.append(by_rater[rater])
                    other.append(next(v for r, v in by_rater.items() if r != rater))
            counts = np.zeros((4, 4), dtype=int)
            for o, p in zip(own, other):
                counts[o - 1, p - 1] += 1
            assert value == pytest.approx(brute_force_qwk(counts.tolist()), abs=1e-12)

    def test_single_rater_rejected(self):
        records = [RaterRecord("seg0", "ra", "nature", 2)]
        with pytest.raises(DataError):
            irr_leave_one_rater_out(records, "nature")


class TestFoldSummary:
    def test_constant_values(self):
        assert fold_summary([0.5, 0.5, 0.5]) == (0.5, 0.0)

    def test_two_values_hand_computed(self):
        mean, se = fold_summary([0.3, 0.5])
        assert mean == pytest.approx(0.4)
        assert se == pytest.approx(0.1)

    def test_single_fold_has_zero_se(self):
        assert fold_summary([0.7]) == (0.7, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            fold_summary([])


def toy_manifest():
    manifest = DatasetManifest()
    layout = {
        "t1": {"l1": ["s1", "s2"], "l2": ["s3"]},
        "t2": {"l3": ["s4"]},
    }
    for teacher, lessons in layout.items():
        for lesson, segs in lessons.items():
            for seg in segs:
                manifest.segments.append(SegmentRecord(
                    segment_id=seg, teacher_id=teacher, lesson_id=lesson,
                    path=f"{seg}.dfx",
                    labels={"nature": 2.0, "questioning": 2.0, "explanations": 2.0}))
    return manifest


class TestClassroomAggregate:
    def test_two_stage_mean(self):
        scores = {"s1": 2.0, "s2": 3.0, "s3": 4.0, "s4": 1.5}
        out = classroom_aggregate(scores, toy_manifest())
        # lesson means: l1 = 2.5, l2 = 4.0 -> teacher t1 = 3.25
        assert out["t1"] == pytest.approx(3.25)
        assert out["t2"] == pytest.approx(1.5)

    def test_lessons_weigh_equally_regardless_of_segment_count(self):
        scores = {"s1": 2.0, "s2": 2.0, "s3": 4.0, "s4": 1.0}
        out = classroom_aggregate(scores, toy_manifest())
        assert out["t1"] == pytest.approx(3.0)

    def test_segment_order_invariant(self):
        scores = {"s4": 1.5, "s3": 4.0, "s2": 3.0, "s1": 2.0}
        assert classroom_aggregate(scores, toy_manifest()) == \
            classroom_aggregate(dict(reversed(list(scores.items()))), toy_manifest())

    def test_orphan_segment_rejected(self):
        with pytest.raises(DataError):
            classroom_aggregate({"unknown": 2.0}, toy_manifest())


class TestPearson:
    def test_perfect_linear(self):
        x = [1.0, 2.0, 3.0, 4.0]
        r, p = pearson_r(x, [2 * v + 1 for v in x])
        assert r == pytest.approx(1.0)
        assert p == pytest.approx(0.0)

    def test_perfect_negative(self):
        x = [1.0, 2.0, 3.0]
        r, _ = pearson_r(x, [-v for v in x])
        assert r == pytest.approx(-1.0)

    def test_hand_worked_four_points(self):
        r, p = pearson_r([1, 2, 3, 4], [1, 3, 2, 4])
        assert r == pytest.approx(0.8, abs=1e-6)
        assert p == pytest.approx(0.2, abs=1e-6)

    def test_zero_variance_rejected(self):
        with pytest.raises(DataError):
            pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_few_points_rejected(self):
        with pytest.raises(UsageError):
            pearson_r([1.0, 2.0], [1.0, 2.0])

    def test_significance_stars(self):
        assert significance_stars(0.04) == "*"
        assert significance_stars(0.009) == "**"
        assert significance_stars(0.0005) == "***"
        assert significance_stars(0.2) == ""


class TestSummarizeFolds:
    def test_overall_averages_components_within_fold_first(self):
        report = summarize_folds({
            "nature": [0.2, 0.4],
            "questioning": [0.6, 0.8],
            "explanations": [0.4, 0.6],
        })
        assert report.overall.per_fold == pytest.approx([0.4, 0.6])
        assert report.overall.mean == pytest.approx(0.5)
        assert report.components["nature"].mean == pytest.approx(0.3)

    def test_mismatched_fold_counts_rejected(self):
        with pytest.raises(UsageError):
            summarize_folds({"nature": [0.2], "questioning": [0.4, 0.5]})
