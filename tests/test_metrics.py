"""Metric tests, including brute-force oracles independent of the implementations."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabnsa import metrics as M


def pairwise_auc(scores, labels):
    """O(B^2) oracle: count positive/negative pairs, ties worth 1/2."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def counted_confusion(true, pred, C):
    mat = np.zeros((C, C), dtype=int)
    for t, p in zip(true, pred):
        mat[t][p] += 1
    return mat


class TestRocAuc:
    def test_worked_example(self):
        assert M.roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_perfect_separation(self):
        assert M.roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert M.roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            M.roc_auc([0.1, 0.2], [1, 1])
        with pytest.raises(ValueError):
            M.roc_auc([0.1, 0.2], [0, 0])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            M.roc_auc([0.1, 0.2, 0.3], [0, 1])

    def test_non_finite_score_raises(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                M.roc_auc([0.1, bad, 0.3], [0, 1, 1])

    def test_equals_the_rankdata_formula_exactly(self):
        """Bit for bit the rank-sum formula over scipy's average ranks, on
        scores with heavy ties (signed zeros among them)."""
        from scipy.stats import rankdata

        rng = np.random.default_rng(20)
        for trial in range(300):
            b = int(rng.integers(2, 300))
            scores = rng.integers(-3, int(rng.integers(1, b + 4)), size=b) * rng.normal()
            if trial % 3 == 0:
                scores = np.round(rng.normal(size=b), 1)
            labels = rng.integers(0, 2, size=b)
            labels[:2] = [0, 1]
            pos = labels == 1
            n_pos, n_neg = int(pos.sum()), int((~pos).sum())
            ranks = rankdata(scores, method="average")
            want = float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
            assert M.roc_auc(scores, labels) == want

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_pairwise_oracle(self, data):
        b = data.draw(st.integers(2, 50))
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=b, max_size=b)))
        if labels.sum() in (0, b):
            labels[0] = 0
            labels[-1] = 1
        # coarse grid of score values forces tie handling to matter
        scores = np.array(data.draw(st.lists(st.integers(0, 4), min_size=b, max_size=b))) / 4.0
        npt.assert_allclose(M.roc_auc(scores, labels), pairwise_auc(scores, labels), atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=20)
        labels = rng.integers(0, 2, size=20)
        if labels.sum() in (0, 20):
            labels[0] = 1 - labels[0]
        base = M.roc_auc(scores, labels)
        npt.assert_allclose(M.roc_auc(np.exp(scores), labels), base, atol=1e-12)
        npt.assert_allclose(M.roc_auc(3.0 * scores + 7.0, labels), base, atol=1e-12)

    def test_negation_reverses_auc_when_no_ties(self):
        rng = np.random.default_rng(0)
        scores = rng.permutation(30).astype(float)  # distinct values
        labels = rng.integers(0, 2, size=30)
        labels[:2] = [0, 1]
        npt.assert_allclose(M.roc_auc(-scores, labels), 1.0 - M.roc_auc(scores, labels), atol=1e-12)


class TestMacroF1:
    def test_perfect(self):
        assert M.macro_f1([0, 1, 2, 1], [0, 1, 2, 1], 3) == 1.0

    def test_all_predicted_one_class_balanced(self):
        # precision 0.5, recall 1 for class 0 -> F1 2/3; class 1 gets 0
        got = M.macro_f1([0, 0, 0, 0], [0, 0, 1, 1], 2)
        assert got == pytest.approx(1.0 / 3.0)

    def test_absent_class_still_averaged(self):
        # classes {0,1} perfect, class 2 never appears -> (1+1+0)/3
        got = M.macro_f1([0, 1, 0, 1], [0, 1, 0, 1], 3)
        assert got == pytest.approx(2.0 / 3.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_relabeling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        C = 4
        true = rng.integers(0, C, size=25)
        pred = rng.integers(0, C, size=25)
        perm = rng.permutation(C)
        base = M.macro_f1(pred, true, C)
        npt.assert_allclose(M.macro_f1(perm[pred], perm[true], C), base, atol=1e-12)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            M.macro_f1([0], [0], 1)


class TestConfusionAndAccuracy:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_agree_with_counting_pass(self, seed):
        rng = np.random.default_rng(seed)
        C = 3
        true = rng.integers(0, C, size=40)
        pred = rng.integers(0, C, size=40)
        mat = M.confusion_matrix(true, pred, C)
        npt.assert_array_equal(mat, counted_confusion(true, pred, C))
        npt.assert_allclose(M.accuracy(pred, true), np.trace(mat) / mat.sum(), atol=1e-12)


class TestRmse:
    def test_zero_when_equal(self):
        assert M.rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_worked_example(self):
        assert M.rmse([1.0, 3.0], [1.0, 1.0]) == pytest.approx(np.sqrt(2.0))

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-10, 10, allow_nan=False), st.integers(0, 2**32 - 1))
    def test_residual_scaling_homogeneity(self, k, seed):
        rng = np.random.default_rng(seed)
        true = rng.normal(size=12)
        resid = rng.normal(size=12)
        base = M.rmse(true + resid, true)
        npt.assert_allclose(M.rmse(true + k * resid, true), abs(k) * base, rtol=1e-9, atol=1e-12)


class TestEvalReport:
    def test_json_round_trip_fixed_keys(self):
        rep = M.EvalReport(auc=0.9, accuracy=0.5, macro_f1=0.4, confusion=[[1, 1], [1, 1]])
        assert set(rep.to_dict()) == {"auc", "accuracy", "macro_f1", "rmse", "confusion"}
        assert M.EvalReport(auc=0.9).to_dict()["rmse"] is None

    def test_accuracy_must_match_confusion(self):
        with pytest.raises(ValueError):
            M.EvalReport(accuracy=0.9, confusion=[[1, 1], [1, 1]])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            M.EvalReport(auc=float("nan"))

    def test_classification_report_binary(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.3, 0.7], [0.6, 0.4]])
        labels = [0, 1, 1, 0]
        rep = M.classification_report(probs, labels, 2)
        assert rep.auc == 1.0
        assert rep.accuracy == 1.0
        assert rep.macro_f1 == 1.0
        assert rep.rmse is None

    def test_classification_report_multiclass_has_no_auc(self):
        probs = np.eye(3)[[0, 1, 2, 0]]
        rep = M.classification_report(probs, [0, 1, 2, 0], 3)
        assert rep.auc is None
        assert rep.accuracy == 1.0

    def test_regression_report(self):
        rep = M.regression_report([1.0, 3.0], [1.0, 1.0])
        assert rep.rmse == pytest.approx(np.sqrt(2.0))
        assert rep.auc is None
