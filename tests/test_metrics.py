import math
import warnings

import numpy as np
import pytest

from gmrec.data import AttributeId, USER
from gmrec.data import init_embeddings
from gmrec.errors import UndefinedMetricError
from gmrec.metrics import (
    ScoredSample,
    auc,
    export_matrices,
    format_matrix,
    logloss,
    metric_report,
    ndcg_at_k,
)

from oracles import auc_pair_oracle, ndcg_direct


def scored(scores, labels, user="u"):
    return [ScoredSample(user, float(s), float(y)) for s, y in zip(scores, labels)]


class TestAuc:
    def test_perfect_order(self):
        assert auc(scored([0.9, 0.1], [1, 0])) == 1.0

    def test_inverted_order(self):
        assert auc(scored([0.1, 0.9], [1, 0])) == 0.0

    def test_tie_gets_half_credit(self):
        assert auc(scored([0.5, 0.5], [1, 0])) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            auc(scored([0.2, 0.8], [1, 1]))

    def test_matches_pair_counting_exactly(self, rng):
        scores = rng.normal(size=100)
        labels = (rng.random(size=100) < 0.4).astype(float)
        labels[0], labels[1] = 1.0, 0.0  # both classes present
        assert auc(scored(scores, labels)) == auc_pair_oracle(scores, labels)

    def test_matches_pair_counting_with_ties(self, rng):
        scores = rng.integers(0, 5, size=60).astype(float)  # heavy ties
        labels = (rng.random(size=60) < 0.5).astype(float)
        labels[0], labels[1] = 1.0, 0.0
        assert auc(scored(scores, labels)) == auc_pair_oracle(scores, labels)

    def test_invariant_under_monotone_transform(self, rng):
        scores = rng.normal(size=50)
        labels = (rng.random(size=50) < 0.5).astype(float)
        labels[0], labels[1] = 1.0, 0.0
        a = auc(scored(scores, labels))
        b = auc(scored(np.exp(2.0 * scores) + 3.0, labels))
        assert a == b


class TestLogloss:
    def test_all_half(self):
        assert abs(logloss(scored([0.5] * 4, [1, 0, 1, 0])) - math.log(2)) < 1e-12

    def test_perfect_confident(self):
        assert logloss(scored([1.0, 0.0], [1, 0])) < 1e-10

    def test_mixed_batch_componentwise(self):
        probs = [0.9, 0.2, 0.7]
        labels = [1.0, 0.0, 0.0]
        expected = -(math.log(0.9) + math.log(0.8) + math.log(0.3)) / 3
        assert abs(logloss(scored(probs, labels)) - expected) < 1e-12

    def test_base_rate_predictor_gives_label_entropy(self):
        labels = [1.0] * 3 + [0.0] * 7
        rate = 0.3
        entropy = -(rate * math.log(rate) + (1 - rate) * math.log(1 - rate))
        assert abs(logloss(scored([rate] * 10, labels)) - entropy) < 1e-12

    def test_empty_list_is_undefined(self):
        """As for auc and ndcg_at_k: an error, not numpy's empty-mean warning and nan."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UndefinedMetricError):
                logloss([])


class TestNdcg:
    def test_single_relevant_ranked_first(self):
        samples = scored([0.9, 0.5, 0.1], [1, 0, 0])
        assert ndcg_at_k(samples, 3) == 1.0

    def test_one_relevant_of_two_ranked_second(self):
        samples = scored([0.9, 0.5], [0, 1])
        expected = (1.0 / math.log2(3)) / 1.0
        assert abs(ndcg_at_k(samples, 2) - expected) < 1e-12
        assert abs(expected - 0.63093) < 1e-5

    def test_k_beyond_length_is_truncation_noop(self, rng):
        scores = rng.normal(size=6)
        labels = [1, 0, 1, 0, 0, 1]
        a = ndcg_at_k(scored(scores, labels), 6)
        b = ndcg_at_k(scored(scores, labels), 60)
        assert a == b

    def test_matches_direct_formula_on_random_rankings(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 12))
            scores = rng.normal(size=n)
            labels = (rng.random(size=n) < 0.5).astype(float)
            if labels.sum() == 0:
                labels[0] = 1.0
            k = int(rng.integers(1, 12))
            mine = ndcg_at_k(scored(scores, labels), k)
            direct = ndcg_direct(list(scores), list(labels), k)
            assert abs(mine - direct) < 1e-12

    def test_average_over_eligible_users_only(self):
        a = scored([0.9, 0.1], [1, 0], user="a")
        b = scored([0.4, 0.6], [0, 0], user="b")  # no relevant item: excluded
        assert ndcg_at_k(a + b, 2) == 1.0

    def test_no_eligible_users_rejected(self):
        with pytest.raises(UndefinedMetricError):
            ndcg_at_k(scored([0.5, 0.4], [0, 0]), 2)

    def test_per_user_shift_and_scale_invariance(self, rng):
        parts = []
        shifted = []
        for user in range(4):
            n = int(rng.integers(2, 8))
            scores = rng.normal(size=n)
            labels = (rng.random(size=n) < 0.5).astype(float)
            labels[0] = 1.0
            parts.extend(scored(scores, labels, user=f"u{user}"))
            factor = float(rng.uniform(0.5, 3.0))
            offset = float(rng.normal())
            shifted.extend(scored(factor * scores + offset, labels, user=f"u{user}"))
        assert ndcg_at_k(parts, 5) == ndcg_at_k(shifted, 5)

    def test_stable_tie_breaking(self):
        # equal scores: input order decides, so the relevant-first ordering wins
        first = scored([0.5, 0.5], [1, 0])
        second = scored([0.5, 0.5], [0, 1])
        assert ndcg_at_k(first, 2) == 1.0
        expected = 1.0 / math.log2(3)
        assert abs(ndcg_at_k(second, 2) - expected) < 1e-12


class TestMetricReport:
    def test_undefined_metrics_read_nan(self):
        """An AUC on one class and an NDCG without a relevant item are nan;
        the metrics that are defined keep their values."""
        positives = scored([0.9, 0.2], [1, 1])
        negatives = scored([0.9, 0.2], [0, 0])
        for data, ndcg in ((positives, 1.0), (negatives, math.nan)):
            report = metric_report(data, ks=(1,))
            assert list(report) == ["auc", "logloss", "ndcg@1"]
            assert math.isnan(report["auc"]) and report["logloss"] == logloss(data)
            assert report["ndcg@1"] == ndcg or math.isnan(ndcg) and math.isnan(report["ndcg@1"])

    @pytest.mark.parametrize("data", [[], scored([math.nan, 0.2], [1, 0]), scored([math.inf, 0.2], [1, 1])])
    def test_no_samples_or_a_non_finite_score_raises(self, data):
        with pytest.raises(UndefinedMetricError):
            metric_report(data)


class TestExportMatrices:
    def _table(self, rows):
        ids = [AttributeId(i, USER) for i in range(len(rows))]
        table = init_embeddings(ids, len(rows[0]), seed=0)
        table.matrix[...] = rows
        return table, ids

    def test_self_similarity_is_one(self):
        table, ids = self._table([[1.0, 2.0], [0.5, -0.5]])
        sim, _ = export_matrices(table, ids, ids)
        assert abs(sim[0, 0] - 1.0) < 1e-12
        assert abs(sim[1, 1] - 1.0) < 1e-12

    def test_orthogonal_vectors_similarity_zero(self):
        table, ids = self._table([[1.0, 0.0], [0.0, 1.0]])
        sim, _ = export_matrices(table, ids, ids)
        assert sim[0, 1] == 0.0

    def test_zero_vector_similarity_defined_as_zero(self):
        table, ids = self._table([[0.0, 0.0], [1.0, 1.0]])
        sim, _ = export_matrices(table, ids, ids)
        assert sim[0, 1] == 0.0 and sim[0, 0] == 0.0

    def test_matching_with_all_ones_is_entry_sum(self):
        table, ids = self._table([[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]])
        _, match = export_matrices(table, [ids[0]], [ids[1]])
        assert match[0, 0] == 6.0

    def test_empty_group_rejected(self):
        table, ids = self._table([[1.0, 0.0]])
        with pytest.raises(UndefinedMetricError):
            export_matrices(table, [], ids)

    def test_format_matrix_contains_labels(self):
        table, ids = self._table([[1.0, 0.0], [0.0, 1.0]])
        sim, _ = export_matrices(table, ids, ids)
        text = format_matrix(sim, ["alpha", "beta"], ["alpha", "beta"], "grid")
        assert "alpha" in text and "beta" in text and "grid" in text
