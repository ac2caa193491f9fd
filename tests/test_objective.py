import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discourse_rater import objective, tensor as T
from discourse_rater.errors import DataError, UsageError
from discourse_rater.objective import (RATINGS, class_weights, index_to_rating,
                                       l1_loss, multitask_total, oll_loss,
                                       rating_to_index, round_to_rating,
                                       weighted_ce_loss)
from discourse_rater.tensor import Tensor


class TestRatingIndexMapping:
    def test_endpoints(self):
        assert rating_to_index(1.0) == 1
        assert rating_to_index(4.0) == 7

    def test_half_point(self):
        assert rating_to_index(2.5) == 4

    def test_bijective(self):
        for rating in RATINGS:
            assert index_to_rating(rating_to_index(rating)) == rating

    def test_invalid_rating_rejected(self):
        for bad in (0.5, 4.5, 2.3, -1.0):
            with pytest.raises(DataError):
                rating_to_index(bad)


class TestRoundToRating:
    def test_nearest(self):
        assert round_to_rating(2.74) == 2.5

    def test_clamp(self):
        assert round_to_rating(5.2) == 4.0
        assert round_to_rating(-3.0) == 1.0

    def test_midpoints_round_up(self):
        assert round_to_rating(2.75) == 3.0
        assert round_to_rating(1.25) == 1.5

    def test_exact_values_fixed(self):
        for rating in RATINGS:
            assert round_to_rating(rating) == rating


class TestClassWeights:
    def test_uniform_counts_give_unit_weights(self):
        labels = [r for r in RATINGS for _ in range(10)]
        assert np.allclose(class_weights(labels), 1.0)

    def test_two_class_example(self):
        # counts {1.0: 10, 1.5: 5} -> inverse 1/10 : 1/5, mean-1 -> 2/3, 4/3
        labels = [1.0] * 10 + [1.5] * 5
        weights = class_weights(labels)
        assert np.isclose(weights[0], 2.0 / 3.0)
        assert np.isclose(weights[1], 4.0 / 3.0)

    def test_absent_class_gets_max_present_weight(self):
        labels = [1.0] * 10 + [1.5] * 5
        weights = class_weights(labels)
        assert np.allclose(weights[2:], 4.0 / 3.0)

    def test_invariant_to_duplicating_every_sample(self):
        labels = [1.0, 1.0, 2.5, 3.0, 3.0, 3.0, 4.0]
        assert np.allclose(class_weights(labels), class_weights(labels * 2))

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            class_weights([])


def probs_tensor(rows):
    return Tensor(np.asarray(rows, dtype=np.float64))


class TestOllLoss:
    def test_one_hot_correct_costs_zero(self):
        with T.precision("float64"):
            probs = probs_tensor([[0, 0, 0, 1, 0, 0, 0]])
            assert float(oll_loss(probs, [4]).data) == pytest.approx(0.0, abs=1e-9)

    def test_three_class_uniform_hand_value(self):
        with T.precision("float64"):
            probs = probs_tensor([[1 / 3, 1 / 3, 1 / 3]])
            expected = 3.0 * math.log(1.5)
            assert float(oll_loss(probs, [1]).data) == pytest.approx(expected, abs=1e-9)

    def test_mass_farther_away_costs_strictly_more(self):
        # Fixed misplaced mass m concentrated on one wrong class: the loss is
        # -log(1 - m) * distance, strictly increasing in the distance.
        rng = np.random.default_rng(0)
        for _ in range(200):
            true_idx = int(rng.integers(1, 8))
            wrong = [j for j in range(1, 8) if j != true_idx]
            near, far = sorted(rng.choice(wrong, size=2, replace=False),
                               key=lambda j: abs(j - true_idx))
            if abs(near - true_idx) == abs(far - true_idx):
                continue
            mass = float(rng.uniform(0.05, 0.95))

            def concentrated(j):
                row = np.zeros(7)
                row[true_idx - 1] = 1.0 - mass
                row[j - 1] = mass
                return probs_tensor([row])

            loss_near = float(oll_loss(concentrated(near), [true_idx]).data)
            loss_far = float(oll_loss(concentrated(far), [true_idx]).data)
            assert loss_near < loss_far

    def test_sensitive_to_redistribution_among_wrong_classes(self):
        a = probs_tensor([[0.5, 0.5, 0.0]])
        b = probs_tensor([[0.5, 0.0, 0.5]])
        la = float(oll_loss(a, [1]).data)
        lb = float(oll_loss(b, [1]).data)
        assert lb > la  # same wrong mass, farther class

    def test_weights_scale_per_sample_terms(self):
        probs = probs_tensor([[1 / 3, 1 / 3, 1 / 3, 0, 0, 0, 0]])
        weights = np.asarray([2.0, 1, 1, 1, 1, 1, 1])
        unweighted = float(oll_loss(probs, [1]).data)
        weighted = float(oll_loss(probs, [1], weights).data)
        assert weighted == pytest.approx(2 * unweighted, rel=1e-9)

    def test_gradient_wrt_logits_matches_finite_differences(self):
        with T.precision("float64"):
            rng = np.random.default_rng(1)
            logits = Tensor(rng.standard_normal((3, 7)), requires_grad=True)

            def fn(z):
                return oll_loss(T.softmax(z, axis=-1), [2, 7, 4])

            report = T.grad_check(fn, [logits], tol=1e-5, name="oll")
        assert report.passed, report

    def test_row_sum_validated(self):
        with pytest.raises(UsageError):
            oll_loss(probs_tensor([[0.5, 0.2, 0.1, 0, 0, 0, 0]]), [1])


class TestWeightedCeLoss:
    def test_one_hot_correct_costs_zero(self):
        probs = probs_tensor([[0, 1, 0, 0, 0, 0, 0]])
        assert float(weighted_ce_loss(probs, [2]).data) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_seven_way_hand_value(self):
        with T.precision("float64"):
            probs = probs_tensor([np.full(7, 1 / 7)])
            assert float(weighted_ce_loss(probs, [3]).data) == pytest.approx(
                math.log(7), abs=1e-9)

    def test_invariant_to_redistribution_among_wrong_classes(self):
        a = probs_tensor([[0.5, 0.5, 0.0]])
        b = probs_tensor([[0.5, 0.0, 0.5]])
        assert float(weighted_ce_loss(a, [1]).data) == pytest.approx(
            float(weighted_ce_loss(b, [1]).data), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        with T.precision("float64"):
            rng = np.random.default_rng(2)
            logits = Tensor(rng.standard_normal((2, 7)), requires_grad=True)

            def fn(z):
                return weighted_ce_loss(T.softmax(z, axis=-1), [1, 5])

            report = T.grad_check(fn, [logits], tol=1e-5, name="ce")
        assert report.passed, report


class TestL1Loss:
    def test_exact_predictions_cost_zero(self):
        preds = Tensor(np.asarray([2.0, 3.5]))
        assert float(l1_loss(preds, [2.0, 3.5]).data) == pytest.approx(0.0)

    def test_unit_distance(self):
        assert float(l1_loss(Tensor([2.0]), [3.0]).data) == pytest.approx(1.0)

    def test_symmetric(self):
        a = float(l1_loss(Tensor([2.0]), [3.5]).data)
        b = float(l1_loss(Tensor([3.5]), [2.0]).data)
        assert a == pytest.approx(b)

    def test_gradient_matches_finite_differences(self):
        with T.precision("float64"):
            preds = Tensor(np.asarray([1.7, 3.2, 2.4]), requires_grad=True)
            report = T.grad_check(lambda p: l1_loss(p, [2.0, 3.0, 2.5]),
                                  [preds], tol=1e-5, name="l1")
        assert report.passed, report


class TestMultitaskTotal:
    def test_sums_components(self):
        losses = {"nature": Tensor(1.0), "questioning": Tensor(2.0),
                  "explanations": Tensor(3.0)}
        assert float(multitask_total(losses).data) == pytest.approx(6.0)

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_linear_in_losses(self, scale):
        losses = {"nature": Tensor(1.0), "questioning": Tensor(2.0)}
        scaled = {k: v * scale for k, v in losses.items()}
        assert float(multitask_total(scaled).data) == pytest.approx(
            scale * float(multitask_total(losses).data), rel=1e-5)
