"""Data pipeline tests: loading, preprocessing, splits, transfer partition."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabnsa import data as D


def write(tmp_path, text, name="t.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def simple_table(values_by_col, target="y"):
    cols = []
    for name, (kind, vals) in values_by_col.items():
        cols.append(D.Column(name, kind, list(vals)))
    return D.RawTable([c.name for c in cols], cols, target)


class TestLoadCsv:
    def test_numeric_inference(self, tmp_path):
        path = write(tmp_path, "a,y\n1,x\n2,x\n3,z\n")
        t = D.load_csv(path, target="y")
        col = t.columns[0]
        assert col.kind == D.NUMERIC
        assert col.values == [1.0, 2.0, 3.0]

    def test_binary_inference(self, tmp_path):
        path = write(tmp_path, "a,y\nyes,0\nno,1\nyes,2\n")
        t = D.load_csv(path, target="y")
        assert t.columns[0].kind == D.BINARY

    def test_categorical_inference(self, tmp_path):
        path = write(tmp_path, "a,y\nred,0\ngreen,1\nblue,2\n")
        t = D.load_csv(path, target="y")
        assert t.columns[0].kind == D.CATEGORICAL

    def test_missing_markers(self, tmp_path):
        path = write(tmp_path, "a,b,c,y\n?,NULL,,x\n1,2,3,x\n4,5,6,z\n")
        t = D.load_csv(path, target="y")
        assert t.columns[0].values[0] is None
        assert t.columns[1].values[0] is None
        assert t.columns[2].values[0] is None

    def test_malformed_row_reports_line(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,x\n1,2\n")
        with pytest.raises(ValueError, match=":3:"):
            D.load_csv(path, target="y")

    def test_duplicate_columns_rejected(self, tmp_path):
        path = write(tmp_path, "a,a,y\n1,2,x\n")
        with pytest.raises(ValueError, match="duplicate"):
            D.load_csv(path, target="y")

    def test_unknown_target_rejected(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(ValueError, match="target"):
            D.load_csv(path, target="zz")

    def test_schema_override(self, tmp_path):
        # 0/1 numeric column forced to binary; strings sort "0" < "1"
        path = write(tmp_path, "a,y\n0,x\n1,x\n0,z\n")
        t = D.load_csv(path, target="y", schema={"a": "binary"})
        assert t.columns[0].kind == D.BINARY
        t2 = D.load_csv(path, target="y")
        assert t2.columns[0].kind == D.NUMERIC

    def test_schema_numeric_with_text_rejected(self, tmp_path):
        path = write(tmp_path, "a,y\nfoo,x\n1,z\n")
        with pytest.raises(ValueError, match="numeric"):
            D.load_csv(path, target="y", schema={"a": "numeric"})

    def test_quoted_fields(self, tmp_path):
        path = write(tmp_path, 'a,y\n"hello, world",x\nplain,z\nother,z\n')
        t = D.load_csv(path, target="y")
        assert t.columns[0].values[0] == "hello, world"


class TestPreprocess:
    def test_median_imputation(self):
        t = simple_table({"a": (D.NUMERIC, [1.0, None, 3.0]), "y": (D.CATEGORICAL, ["p", "q", "p"])})
        _, _, state = D.preprocess(t, fit_on=[0, 1, 2])
        assert state.features["a"]["median"] == 2.0

    def test_binary_sorted_assignment(self):
        t = simple_table({"a": (D.BINARY, ["yes", "no", "yes"]), "y": (D.CATEGORICAL, ["p", "q", "p"])})
        mat, _, _ = D.preprocess(t, fit_on=[0, 1, 2])
        npt.assert_array_equal(mat.values[:, 0], [1.0, 0.0, 1.0])

    def test_binary_missing_filled_with_fit_mode(self):
        t = simple_table({"a": (D.BINARY, ["yes", "no", None, "yes"]), "y": (D.CATEGORICAL, list("pqpq"))})
        mat, _, _ = D.preprocess(t, fit_on=[0, 1, 3])
        assert mat.values[2, 0] == 1.0  # mode of fit rows is "yes"

    def test_binary_value_only_in_other_rows_leaves_state_unchanged(self):
        ys = (D.CATEGORICAL, list("pqpqp"))
        fit_rows = [0, 1, 2]
        base = simple_table({"a": (D.BINARY, ["t", "f", "t", "t", "f"]), "y": ys})
        # "a" sorts before both fit values, so reading every row would make it `zero`
        other = simple_table({"a": (D.BINARY, ["t", "f", "t", "a", "f"]), "y": ys})
        _, _, state_base = D.preprocess(base, fit_on=fit_rows)
        mat, _, state_other = D.preprocess(other, fit_on=fit_rows)
        assert state_other.to_json() == state_base.to_json()
        st = state_other.features["a"]
        assert (st["zero"], st["one"], st["fill"]) == ("f", "t", 1.0)
        npt.assert_array_equal(mat.values[:, 0], [1.0, 0.0, 1.0, 1.0, 0.0])  # the unseen "a" takes the fill

    def test_binary_constant_in_fit_rows_still_encodes(self):
        t = simple_table({"a": (D.BINARY, ["t", "t", None, "f"]), "y": (D.CATEGORICAL, list("pqpq"))})
        mat, _, state = D.preprocess(t, fit_on=[0, 1, 2])
        st = state.features["a"]
        assert (st["zero"], st["one"], st["fill"]) == ("t", None, 0.0)
        npt.assert_array_equal(mat.values[:, 0], [0.0, 0.0, 0.0, 0.0])
        assert D.PreprocessState.from_json(state.to_json()).to_json() == state.to_json()

    @pytest.mark.parametrize("kind", ["numeric", "numeric_missing", "categorical_missing_unseen"])
    def test_standardized_on_fit_rows(self, kind):
        # fit statistics come from the same encoding applied at eval, so the
        # fit rows come out exactly standardized whatever they hold
        rng = np.random.default_rng(3)
        if kind.startswith("numeric"):
            vals = list(rng.normal(5, 3, size=40))
            if kind == "numeric_missing":
                vals[1] = vals[7] = vals[33] = None
            column = (D.NUMERIC, vals)
        else:
            vals = list(rng.choice(["u", "v", "w"], size=40))
            vals[2] = vals[9] = vals[35] = None
            vals[31] = vals[38] = "unseen"
            column = (D.CATEGORICAL, vals)
        t = simple_table({"a": column, "y": (D.CATEGORICAL, ["p", "q"] * 20)})
        fit = list(range(30))
        mat, _, _ = D.preprocess(t, fit_on=fit)
        col = mat.values[fit, 0]
        assert abs(col.mean()) < 1e-12
        assert abs(col.std() - 1.0) < 1e-12
        if kind == "categorical_missing_unseen":
            # unseen values take the reserved code that missing fit cells took
            assert mat.values[31, 0] == mat.values[38, 0] == mat.values[2, 0]

    def test_zero_variance_maps_to_zeros(self):
        t = simple_table({"a": (D.NUMERIC, [7.0, 7.0, 7.0]), "y": (D.CATEGORICAL, ["p", "q", "p"])})
        mat, _, _ = D.preprocess(t, fit_on=[0, 1, 2])
        npt.assert_array_equal(mat.values[:, 0], np.zeros(3))

    def test_all_missing_column_dropped_with_warning(self):
        t = simple_table(
            {"a": (D.NUMERIC, [None, None, None]), "b": (D.NUMERIC, [1.0, 2.0, 5.0]), "y": (D.CATEGORICAL, ["p", "q", "p"])}
        )
        with pytest.warns(UserWarning, match="dropping"):
            mat, _, state = D.preprocess(t, fit_on=[0, 1, 2])
        assert state.dropped == ["a"]
        assert mat.feature_names == ["b"]

    def test_categorical_first_appearance_and_missing_code(self):
        t = simple_table(
            {"a": (D.CATEGORICAL, ["blue", "red", None, "green", "red"]), "y": (D.CATEGORICAL, list("pqpqp"))}
        )
        _, _, state = D.preprocess(t, fit_on=[0, 1, 2, 3, 4])
        assert state.features["a"]["categories"] == ["blue", "red", "green"]

    def test_unseen_category_maps_to_missing_code(self):
        t = simple_table({"a": (D.CATEGORICAL, ["u", "v", "w", "u"]), "y": (D.CATEGORICAL, list("pqpq"))})
        mat, _, state = D.preprocess(t, fit_on=[0, 1, 3])  # "w" unseen during fit
        st = state.features["a"]
        missing_code = len(st["categories"])
        expected = (missing_code - st["mean"]) / st["std"]
        assert mat.values[2, 0] == pytest.approx(expected)

    def test_classification_labels_sorted_lexicographically(self):
        t = simple_table({"a": (D.NUMERIC, [1.0, 2.0, 5.0]), "y": (D.CATEGORICAL, ["q", "p", "q"])})
        _, labels, _ = D.preprocess(t, fit_on=[0, 1, 2])
        assert labels.task == "classification"
        assert labels.class_names == ["p", "q"]
        npt.assert_array_equal(labels.labels, [1, 0, 1])

    def test_numeric_target_is_regression(self):
        t = simple_table({"a": (D.NUMERIC, [1.0, 2.0, 5.0]), "y": (D.NUMERIC, [0.5, 1.5, 2.5])})
        _, labels, _ = D.preprocess(t, fit_on=[0, 1, 2])
        assert labels.task == "regression"

    def test_missing_target_rejected(self):
        t = simple_table({"a": (D.NUMERIC, [1.0, 2.0, 5.0]), "y": (D.CATEGORICAL, ["p", None, "q"])})
        with pytest.raises(ValueError, match="missing"):
            D.preprocess(t, fit_on=[0, 1, 2])

    def test_state_round_trip_bit_identical(self):
        rng = np.random.default_rng(7)
        t = simple_table(
            {
                "a": (D.NUMERIC, [None if i % 7 == 0 else float(v) for i, v in enumerate(rng.normal(3, 11, 30))]),
                "b": (D.CATEGORICAL, [rng.choice(["u", "v", "w", None]) for _ in range(30)]),
                "c": (D.BINARY, [rng.choice(["yes", "no"]) for _ in range(30)]),
                "y": (D.CATEGORICAL, ["p", "q", "r"] * 10),
            }
        )
        mat, labels, state = D.preprocess(t, fit_on=list(range(20)))
        restored = D.PreprocessState.from_json(state.to_json())
        mat2, labels2 = D.apply_preprocess(t, restored)
        npt.assert_array_equal(mat.values, mat2.values)  # exact, not approximate
        npt.assert_array_equal(labels.labels, labels2.labels)

    def test_empty_fit_rejected(self):
        t = simple_table({"a": (D.NUMERIC, [1.0, 2.0]), "y": (D.CATEGORICAL, ["p", "q"])})
        with pytest.raises(ValueError):
            D.preprocess(t, fit_on=[])


class TestNoTestLeakage:
    def test_poisoned_test_rows_leave_state_unchanged(self):
        rng = np.random.default_rng(11)
        n = 60
        nums = list(rng.normal(size=n))
        cats = [str(rng.choice(["a", "b", "c"])) for _ in range(n)]
        ys = ["p" if v > 0 else "q" for v in rng.normal(size=n)]

        def build(poison):
            numv = list(nums)
            catv = list(cats)
            if poison is not None:
                for i in poison:
                    numv[i] = 1e9
                    catv[i] = "zzz_never_seen"
            return simple_table({"a": (D.NUMERIC, numv), "b": (D.CATEGORICAL, catv), "y": (D.CATEGORICAL, ys)})

        clean = build(None)
        ds, state_clean = D.prepare_dataset(clean, seed=5)
        test_idx = ds.indices[2]
        poisoned = build(test_idx)
        _, state_poisoned = D.prepare_dataset(poisoned, seed=5)
        assert state_clean.to_json() == state_poisoned.to_json()


def split(features, labels, seed):
    """The row partition `prepare_dataset` builds, on already-encoded arrays."""
    return D.DatasetSplit.from_indices(features, labels, D.split_indices(labels, seed), seed)


class TestSplit:
    def make(self, b, c=2, seed=0):
        rng = np.random.default_rng(seed)
        feats = D.FeatureMatrix(rng.normal(size=(b, 4)), [f"f{i}" for i in range(4)])
        labels = D.LabelVector(np.arange(b) % c, "classification", num_classes=c)
        return feats, labels

    def test_exact_sizes_when_divisible(self):
        feats, labels = self.make(1000)
        ds = split(feats, labels, seed=7)
        assert ds.train[0].values.shape[0] == 700
        assert ds.val[0].values.shape[0] == 100
        assert ds._test[0].values.shape[0] == 200

    def test_partition_and_determinism(self):
        feats, labels = self.make(103, c=3)
        ds1 = split(feats, labels, seed=7)
        ds2 = split(feats, labels, seed=7)
        tr, va, te = ds1.indices
        npt.assert_array_equal(np.sort(np.concatenate([tr, va, te])), np.arange(103))
        for a, b in zip(ds1.indices, ds2.indices):
            npt.assert_array_equal(a, b)

    def test_different_seed_different_split(self):
        feats, labels = self.make(100)
        ds1 = split(feats, labels, seed=1)
        ds2 = split(feats, labels, seed=2)
        assert not np.array_equal(ds1.indices[0], ds2.indices[0])

    def test_stratification_balanced(self):
        feats, labels = self.make(100)
        ds = split(feats, labels, seed=7)
        for part in (ds.train, ds.val, ds._test):
            frac = part[1].labels.mean()
            assert abs(frac - 0.5) < 0.05

    def test_small_class_falls_back_unstratified(self):
        feats, _ = self.make(20)
        lab = np.zeros(20, dtype=int)
        lab[:2] = 1  # class with 2 members
        labels = D.LabelVector(lab, "classification", num_classes=2)
        with pytest.warns(UserWarning, match="fewer than 3"):
            split(feats, labels, seed=0)

    def test_too_few_rows_rejected(self):
        feats, labels = self.make(9)
        with pytest.raises(ValueError):
            split(feats, labels, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(60, 500), st.integers(2, 4))
    def test_sizes_within_one_row_and_class_counts_near_ideal(self, seed, b, c):
        rng = np.random.default_rng(seed)
        lab = rng.integers(0, c, size=b)
        for k in range(c):  # guarantee every class is represented
            lab[k * 12 : (k + 1) * 12] = k
        labels = D.LabelVector(lab, "classification", num_classes=c)
        feats = D.FeatureMatrix(rng.normal(size=(b, 3)), ["f0", "f1", "f2"])
        counts = np.bincount(lab, minlength=c)
        ds = split(feats, labels, seed=seed)
        tr, va, te = ds.indices
        assert abs(len(tr) - 0.7 * b) <= 1
        assert abs(len(va) - 0.1 * b) <= 1
        assert abs(len(te) - 0.2 * b) <= 1
        # every class count within one row of its ideal share (val/test)
        for part_idx in (va, te):
            ideal = counts * (len(part_idx) / b)
            got = np.bincount(lab[part_idx], minlength=c)
            assert np.max(np.abs(got - ideal)) < 1.0
        # the one-row guarantee makes the 5pp proportion bound a theorem
        # once the smallest split holds 20+ rows
        if b >= 200:
            full = counts / b
            for part_idx in (tr, va, te):
                part = np.bincount(lab[part_idx], minlength=c) / len(part_idx)
                assert np.max(np.abs(part - full)) < 0.05


class TestTransferSplit:
    def make(self, n_feats=10, rows=12):
        cols = {f"f{i}": (D.NUMERIC, list(np.arange(rows, dtype=float) + i)) for i in range(n_feats)}
        cols["y"] = (D.CATEGORICAL, ["p", "q"] * (rows // 2))
        return simple_table(cols)

    def test_half_overlap_partition(self):
        t = self.make(10)
        s1, s2 = D.transfer_split(t, 0.5, seed=3)
        f1 = {c.name for c in s1.feature_columns}
        f2 = {c.name for c in s2.feature_columns}
        shared = f1 & f2
        assert len(shared) == 5
        assert (f1 - shared).isdisjoint(f2 - shared)
        assert len(f1 - shared) in (2, 3)
        assert s1.target_name == s2.target_name == "y"
        assert s1.n_rows == s2.n_rows == t.n_rows

    def test_zero_overlap_disjoint(self):
        t = self.make(10)
        s1, s2 = D.transfer_split(t, 0.0, seed=3)
        f1 = {c.name for c in s1.feature_columns}
        f2 = {c.name for c in s2.feature_columns}
        assert f1.isdisjoint(f2)

    def test_full_overlap_rejected(self):
        with pytest.raises(ValueError):
            D.transfer_split(self.make(10), 1.0, seed=3)

    def test_too_few_features_rejected(self):
        with pytest.raises(ValueError):
            D.transfer_split(self.make(3), 0.5, seed=3)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 20), st.floats(0.0, 0.9), st.integers(0, 1000))
    def test_shared_count_matches_rounding(self, n, frac, seed):
        expect = int(np.floor(frac * n + 0.5))
        if expect == n:
            return
        t = self.make(n)
        s1, s2 = D.transfer_split(t, frac, seed=seed)
        f1 = {c.name for c in s1.feature_columns}
        f2 = {c.name for c in s2.feature_columns}
        assert len(f1 & f2) == expect


class TestClassWeights:
    def test_balanced(self):
        labels = D.LabelVector(np.array([0] * 50 + [1] * 50), "classification", num_classes=2)
        npt.assert_allclose(D.class_weights(labels), [1.0, 1.0])

    def test_imbalanced_formula(self):
        labels = D.LabelVector(np.array([0] * 90 + [1] * 10), "classification", num_classes=2)
        npt.assert_allclose(D.class_weights(labels), [100 / 180, 5.0])

    def test_empty_class_rejected(self):
        labels = D.LabelVector(np.zeros(10, dtype=int), "classification", num_classes=2)
        with pytest.raises(ValueError):
            D.class_weights(labels)

    def test_regression_rejected(self):
        labels = D.LabelVector(np.arange(5.0), "regression")
        with pytest.raises(ValueError):
            D.class_weights(labels)


class TestSynthetic:
    def test_shapes_and_balance(self):
        x, y = D.make_two_gaussians(200, 8, seed=0)
        assert x.shape == (200, 8)
        assert y.sum() == 100

    def test_linear_separability_oracle(self):
        # class-mean difference projection must separate almost perfectly
        from tabnsa.metrics import roc_auc

        x, y = D.make_two_gaussians(200, 8, seed=0)
        w = x[y == 1].mean(axis=0) - x[y == 0].mean(axis=0)
        assert roc_auc(x @ w, y) >= 0.99

    def test_csv_round_trip(self, tmp_path):
        path = D.write_two_gaussians_csv(tmp_path / "g.csv", 60, 5, seed=1)
        t = D.load_csv(path, target="label")
        assert all(c.kind == D.NUMERIC for c in t.feature_columns)
        assert t.target_column.kind == D.BINARY
        ds, _ = D.prepare_dataset(t, seed=0)
        assert ds.train[1].task == "classification"
        assert ds.train[1].num_classes == 2

    def test_deterministic(self):
        x1, y1 = D.make_two_gaussians(50, 4, seed=9)
        x2, y2 = D.make_two_gaussians(50, 4, seed=9)
        npt.assert_array_equal(x1, x2)
        npt.assert_array_equal(y1, y2)
