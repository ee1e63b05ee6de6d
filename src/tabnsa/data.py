"""CSV ingestion, preprocessing, stratified splitting and transfer partitioning.

Pipeline order matters for leakage: split row indices first, then fit
preprocessing statistics on the training rows only (prepare_dataset does
this). PreprocessState is immutable after fit and JSON-serializable;
reapplying a deserialized state to the same rows is bit-identical.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass

import numpy as np

MISSING_MARKERS = {"", "NULL", "?"}

NUMERIC = "numeric"
CATEGORICAL = "categorical"
BINARY = "binary"
_KINDS = (NUMERIC, CATEGORICAL, BINARY)


@dataclass
class Column:
    name: str
    kind: str
    values: list  # floats for numeric, strings otherwise; None marks missing


@dataclass
class RawTable:
    column_names: list[str]
    columns: list[Column]
    target_name: str

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if names != self.column_names:
            raise ValueError("column_names must match column order")
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names")
        if self.target_name not in names:
            raise ValueError(f"target column {self.target_name!r} not found")
        lengths = {len(c.values) for c in self.columns}
        if len(lengths) != 1 or next(iter(lengths)) < 1:
            raise ValueError("all columns must share the same nonzero length")

    @property
    def n_rows(self) -> int:
        return len(self.columns[0].values)

    @property
    def feature_columns(self) -> list[Column]:
        return [c for c in self.columns if c.name != self.target_name]

    @property
    def target_column(self) -> Column:
        return next(c for c in self.columns if c.name == self.target_name)


@dataclass
class FeatureMatrix:
    values: np.ndarray  # (B, N) float64, no missing entries
    feature_names: list[str]

    def take(self, idx) -> "FeatureMatrix":
        return FeatureMatrix(self.values[np.asarray(idx)], self.feature_names)


@dataclass
class LabelVector:
    labels: np.ndarray
    task: str  # "classification" | "regression"
    num_classes: int | None = None
    class_names: list[str] | None = None

    def __post_init__(self):
        if self.task == "classification":
            lab = self.labels.astype(np.int64)
            if self.num_classes is None or self.num_classes < 2:
                raise ValueError("classification needs num_classes >= 2")
            if lab.size and (lab.min() < 0 or lab.max() >= self.num_classes):
                raise ValueError("labels outside {0..C-1}")
            self.labels = lab
        elif self.task == "regression":
            self.labels = np.asarray(self.labels, dtype=np.float64)
            if not np.all(np.isfinite(self.labels)):
                raise ValueError("regression labels must be finite")
        else:
            raise ValueError(f"unknown task {self.task!r}")

    def take(self, idx) -> "LabelVector":
        return LabelVector(self.labels[np.asarray(idx)], self.task, self.num_classes, self.class_names)


class DatasetSplit:
    """Row-disjoint train/val/test triple.

    Reading .test is counted so that search code can assert the test split
    was never touched before the final refit.
    """

    def __init__(self, train, val, test, seed: int, indices=None):
        self.train = train
        self.val = val
        self._test = test
        self.seed = seed
        self.indices = indices  # (train_idx, val_idx, test_idx) or None
        self.test_access_count = 0

    @classmethod
    def from_indices(cls, features: FeatureMatrix, labels: LabelVector, indices, seed: int) -> "DatasetSplit":
        """Cut encoded rows into the (train_idx, val_idx, test_idx) partition."""
        return cls(*((features.take(idx), labels.take(idx)) for idx in indices), seed, indices=tuple(indices))

    @property
    def test(self):
        self.test_access_count += 1
        return self._test

    def model_shape(self) -> dict:
        """num_tokens, num_classes and regression of a model fitting these rows;
        a regression model has one output, so num_classes is 1."""
        features, labels = self.train
        regression = labels.task == "regression"
        return {
            "num_tokens": features.values.shape[1],
            "num_classes": 1 if regression else labels.num_classes,
            "regression": regression,
        }


# -- loading ---------------------------------------------------------------


def _clean(cell: str):
    cell = cell.strip()
    return None if cell in MISSING_MARKERS else cell


def _parses_numeric(v: str) -> bool:
    try:
        float(v)
        return True
    except ValueError:
        return False


def load_csv(path, target: str, schema: dict[str, str] | None = None) -> RawTable:
    """Read a CSV (RFC-4180, UTF-8, header row required) into a RawTable.

    Column kinds are inferred per column: all non-missing cells parseable as
    numbers -> numeric; exactly two distinct non-missing values -> binary;
    anything else -> categorical. `schema` maps column names to kinds and
    overrides inference. Empty cells, "NULL" and "?" are missing.
    """
    schema = schema or {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, header row required") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise ValueError(f"{path}: duplicate column names in header")
        cells: list[list] = [[] for _ in header]
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}")
            for col, cell in zip(cells, row):
                col.append(_clean(cell))
    if target not in header:
        raise ValueError(f"target column {target!r} not in header {header}")
    for name in schema:
        if name not in header:
            raise ValueError(f"schema names unknown column {name!r}")
        if schema[name] not in _KINDS:
            raise ValueError(f"schema kind for {name!r} must be one of {_KINDS}")

    columns = []
    for name, raw_values in zip(header, cells):
        present = [v for v in raw_values if v is not None]
        kind = schema.get(name)
        if kind is None:
            if present and all(_parses_numeric(v) for v in present):
                kind = NUMERIC
            elif len(set(present)) == 2:
                kind = BINARY
            else:
                kind = CATEGORICAL
        if kind == NUMERIC:
            bad = next((v for v in present if not _parses_numeric(v)), None)
            if bad is not None:
                raise ValueError(f"column {name!r} hinted numeric but contains {bad!r}")
            values = [None if v is None else float(v) for v in raw_values]
        else:
            if kind == BINARY and len(set(present)) != 2:
                raise ValueError(f"column {name!r} hinted binary but has {len(set(present))} distinct values")
            values = raw_values
        columns.append(Column(name, kind, values))
    return RawTable(header, columns, target)


# -- preprocessing ----------------------------------------------------------


@dataclass
class PreprocessState:
    """Fitted per-column statistics; JSON round-trips bit-identically."""

    feature_names: list[str]
    features: dict[str, dict]
    dropped: list[str]
    target: dict
    version: int = 1

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": self.version,
                "feature_names": self.feature_names,
                "features": self.features,
                "dropped": self.dropped,
                "target": self.target,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "PreprocessState":
        d = json.loads(text)
        if d.get("version") != 1:
            raise ValueError(f"unsupported preprocess state version {d.get('version')!r}")
        return cls(
            feature_names=d["feature_names"],
            features=d["features"],
            dropped=d["dropped"],
            target=d["target"],
        )


def _codes(values: list, st: dict) -> np.ndarray:
    """The one cell -> number rule, shared by fitting and encoding. Numeric:
    median-imputed. Categorical: first-appearance ordinals, with the reserved
    code for missing and unseen values. Binary: {0, 1} by sorted value order,
    with the fill for missing and unseen values."""
    if st["kind"] == NUMERIC:
        return np.array([st["median"] if v is None else v for v in values], dtype=np.float64)
    if st["kind"] == CATEGORICAL:
        code_of = {cat: i for i, cat in enumerate(st["categories"])}
        return np.array([code_of.get(v, len(code_of)) for v in values], dtype=np.float64)
    code_of = {st["zero"]: 0.0, st["one"]: 1.0}
    return np.array([st["fill"] if v is None else code_of.get(v, st["fill"]) for v in values], dtype=np.float64)


def _encode_feature(col: Column, st: dict) -> np.ndarray:
    """Codes standardized by the fit-row mean and std (zero variance maps to
    zeros); binary codes stay {0, 1}."""
    codes = _codes(col.values, st)
    if st["kind"] == BINARY:
        return codes
    return np.zeros_like(codes) if st["std"] < 1e-12 else (codes - st["mean"]) / st["std"]


def _target_state(col: Column) -> dict:
    """A numeric target is regression; any other kind is classification over
    its sorted distinct values."""
    if col.kind == NUMERIC:
        return {"name": col.name, "task": "regression", "classes": None}
    present = [v for v in col.values if v is not None]
    return {"name": col.name, "task": "classification", "classes": sorted(set(present))}


def _encode_target(col: Column, target_state: dict) -> LabelVector:
    if any(v is None for v in col.values):
        raise ValueError(f"target column {col.name!r} has missing values")
    if target_state["task"] == "regression":
        return LabelVector(np.array(col.values, dtype=np.float64), "regression")
    classes = target_state["classes"]
    code_of = {c: i for i, c in enumerate(classes)}
    unknown = next((v for v in col.values if v not in code_of), None)
    if unknown is not None:
        raise ValueError(f"target value {unknown!r} not among fitted classes {classes}")
    labels = np.array([code_of[v] for v in col.values], dtype=np.int64)
    return LabelVector(labels, "classification", num_classes=len(classes), class_names=list(classes))


def preprocess(raw: RawTable, fit_on) -> tuple[FeatureMatrix, LabelVector, PreprocessState]:
    """Fit each column's codebook on fit_on rows; encode all rows.

    The codebook is the median (numeric), the categories in order of first
    appearance (categorical), or zero/one/fill (binary: `one` is None when
    the fit rows hold one value; the fill is the fit-row mode). Numeric and
    categorical columns are standardized by the mean and std of the fit
    rows' `_codes`, the encoding applied at eval. Columns with no observed
    fit value are dropped with a warning.
    """
    fit_on = np.asarray(fit_on, dtype=np.intp)
    if fit_on.size == 0:
        raise ValueError("fit_on must be nonempty")

    features: dict[str, dict] = {}
    dropped: list[str] = []
    for col in raw.feature_columns:
        fit_vals = [col.values[i] for i in fit_on]
        present = [v for v in fit_vals if v is not None]
        if not present:
            warnings.warn(f"column {col.name!r} has no observed value in the fit rows; dropping it")
            dropped.append(col.name)
            continue
        if col.kind == NUMERIC:
            st = {"kind": NUMERIC, "median": float(np.median(np.array(present, dtype=np.float64)))}
        elif col.kind == CATEGORICAL:
            st = {"kind": CATEGORICAL, "categories": list(dict.fromkeys(present))}
        else:
            zero, one = (sorted(set(present)) + [None])[:2]
            ones = sum(1 for v in present if v == one)
            st = {"kind": BINARY, "zero": zero, "one": one, "fill": 1.0 if ones * 2 > len(present) else 0.0}
        if col.kind != BINARY:
            codes = _codes(fit_vals, st)
            st.update(mean=float(codes.mean()), std=float(codes.std()))
        features[col.name] = st

    state = PreprocessState(
        feature_names=[c.name for c in raw.feature_columns if c.name not in dropped],
        features=features,
        dropped=dropped,
        target=_target_state(raw.target_column),
    )
    mat, labels = apply_preprocess(raw, state)
    return mat, labels, state


def apply_preprocess(raw: RawTable, state: PreprocessState) -> tuple[FeatureMatrix, LabelVector]:
    """Encode a table with an already-fitted state (no statistics recomputed)."""
    by_name = {c.name: c for c in raw.columns}
    cols = []
    for name in state.feature_names:
        if name not in by_name:
            raise ValueError(f"fitted column {name!r} missing from table")
        cols.append(_encode_feature(by_name[name], state.features[name]))
    values = np.column_stack(cols) if cols else np.zeros((raw.n_rows, 0))
    labels = _encode_target(by_name[state.target["name"]], state.target)
    return FeatureMatrix(values, list(state.feature_names)), labels


# -- splitting ---------------------------------------------------------------


def _targets(n: int) -> tuple[int, int, int]:
    n_test = int(np.floor(0.2 * n + 0.5))
    n_val = int(np.floor(0.1 * n + 0.5))
    return n - n_val - n_test, n_val, n_test


def split_indices(labels: LabelVector, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """70/10/20 row partition, stratified for classification when every class
    has at least 3 rows; deterministic given seed."""
    n = labels.labels.shape[0]
    if n < 10:
        raise ValueError("need at least 10 rows to split")
    rng = np.random.default_rng(seed)
    t_train, t_val, t_test = _targets(n)

    stratify = False
    if labels.task == "classification":
        counts = np.bincount(labels.labels, minlength=labels.num_classes)
        stratify = counts.min() >= 3
        if not stratify:
            warnings.warn("a class has fewer than 3 rows; splitting without stratification")

    if not stratify:
        perm = rng.permutation(n)
        return np.sort(perm[:t_train]), np.sort(perm[t_train : t_train + t_val]), np.sort(perm[t_train + t_val :])

    # largest-remainder allocation per split: every class count lands within
    # one row of its ideal share, so split totals are exact by construction
    num_classes = labels.num_classes
    class_sizes = np.bincount(labels.labels, minlength=num_classes)
    pools = [list(rng.permutation(np.flatnonzero(labels.labels == c))) for c in range(num_classes)]

    def allocate(target: int) -> np.ndarray:
        ideal = class_sizes * (target / n)
        alloc = np.floor(ideal).astype(int)
        rem = ideal - alloc
        order = sorted(range(num_classes), key=lambda c: (-rem[c], c))
        for c in order[: target - alloc.sum()]:
            alloc[c] += 1
        return alloc

    test_alloc = allocate(t_test)
    val_alloc = allocate(t_val)
    test_idx, val_idx, train_idx = [], [], []
    for c in range(num_classes):
        pool = pools[c]
        test_idx += pool[: test_alloc[c]]
        val_idx += pool[test_alloc[c] : test_alloc[c] + val_alloc[c]]
        train_idx += pool[test_alloc[c] + val_alloc[c] :]
    return (
        np.array(sorted(train_idx), dtype=np.intp),
        np.array(sorted(val_idx), dtype=np.intp),
        np.array(sorted(test_idx), dtype=np.intp),
    )


def prepare_dataset(raw: RawTable, seed: int) -> tuple[DatasetSplit, PreprocessState]:
    """Leakage-safe pipeline: split rows first, fit preprocessing on the
    training rows only, then encode every split with the fitted state."""
    target_col = raw.target_column
    indices = split_indices(_encode_target(target_col, _target_state(target_col)), seed)
    mat, labels, state = preprocess(raw, fit_on=indices[0])
    return DatasetSplit.from_indices(mat, labels, indices, seed), state


# -- transfer-learning feature partition --------------------------------------


def transfer_split(raw: RawTable, overlap_fraction: float, seed: int) -> tuple[RawTable, RawTable]:
    """Partition feature columns into a shared set S plus disjoint remainders.

    |S| = round(overlap_fraction * N) (half-up); set1 = S u R1, set2 = S u R2.
    Both tables keep all rows and the target column.
    """
    if not 0.0 <= overlap_fraction <= 1.0:
        raise ValueError("overlap_fraction must be in [0, 1]")
    feat_names = [c.name for c in raw.feature_columns]
    n = len(feat_names)
    if n < 4:
        raise ValueError("transfer_split needs at least 4 feature columns")
    n_shared = int(np.floor(overlap_fraction * n + 0.5))
    if n_shared == n:
        raise ValueError("overlap rounds to every feature; no disjoint part remains")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    shared = {feat_names[i] for i in order[:n_shared]}
    rest = [feat_names[i] for i in order[n_shared:]]
    r1 = set(rest[: len(rest) // 2])
    r2 = set(rest[len(rest) // 2 :])

    def subset(keep: set) -> RawTable:
        cols = [c for c in raw.columns if c.name in keep or c.name == raw.target_name]
        return RawTable([c.name for c in cols], cols, raw.target_name)

    return subset(shared | r1), subset(shared | r2)


def class_weights(labels: LabelVector) -> np.ndarray:
    """weight_c = B / (C * count_c); error on an empty class."""
    if labels.task != "classification":
        raise ValueError("class weights are defined for classification only")
    counts = np.bincount(labels.labels, minlength=labels.num_classes)
    if counts.min() == 0:
        raise ValueError("class with zero members has undefined weight")
    b = labels.labels.shape[0]
    return b / (labels.num_classes * counts.astype(np.float64))


# -- synthetic data ------------------------------------------------------------


def make_two_gaussians(n_rows: int = 200, n_features: int = 8, seed: int = 0, shift: float = 1.5):
    """Balanced linearly separable binary set: class means at -shift and +shift
    per feature, unit variance. Returns (X: (B,N) float64, y: (B,) int)."""
    rng = np.random.default_rng(seed)
    half = n_rows // 2
    n0 = n_rows - half
    x0 = rng.normal(-shift, 1.0, size=(n0, n_features))
    x1 = rng.normal(shift, 1.0, size=(half, n_features))
    x = np.vstack([x0, x1])
    y = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(half, dtype=np.int64)])
    order = rng.permutation(n_rows)
    return x[order], y[order]


def write_two_gaussians_csv(path, n_rows: int = 200, n_features: int = 8, seed: int = 0) -> str:
    """Write the synthetic set as a CSV with string class labels c0/c1."""
    x, y = make_two_gaussians(n_rows, n_features, seed)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(n_features)] + ["label"])
        for row, lab in zip(x, y):
            writer.writerow([repr(float(v)) for v in row] + [f"c{lab}"])
    return str(path)
