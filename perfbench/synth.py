"""Seeded synthetic table shaped like UCI Credit Approval.

690 rows by default, 15 feature columns and a binary label column `class`:
6 numeric columns (A2, A3, A8, A11, A14, A15), 4 binary (A1, A9, A10, A12)
and 5 categorical (A4, A5, A6, A7, A13), in the Credit-Approval column
order. About 1% of the feature cells are `?`.

The label comes from a fixed nonlinear rule plus logistic noise, so a good
model reaches a validation AUC well below 1 and a model whose gradients are
broken stays near 0.5. The rule's coefficients are constants; the seed
draws only the rows, the noise and the missing cells, so every seed poses
the same task.
"""

from __future__ import annotations

import csv

import numpy as np

N_ROWS = 690
MISSING_SHARE = 0.01
TARGET = "class"

COLUMNS = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10", "A11", "A12", "A13", "A14", "A15")
CATEGORIES = {
    "A4": ("u", "y", "l", "t"),
    "A5": ("g", "p", "gg"),
    "A6": ("c", "d", "cc", "i", "j", "k", "m", "r", "q", "w", "x", "e", "aa", "ff"),
    "A7": ("v", "h", "bb", "j", "n", "z", "dd", "ff", "o"),
    "A13": ("g", "p", "s"),
}
BINARY = {"A1": ("a", "b"), "A9": ("f", "t"), "A10": ("f", "t"), "A12": ("f", "t")}
# per-category label effects of A6; fixed so every seed shares one rule
A6_EFFECT = np.linspace(-1.2, 1.2, len(CATEGORIES["A6"]))
SIGNAL = 3.0


def make_table(seed: int, n_rows: int = N_ROWS, stream: int = 0) -> tuple[list[list[str]], np.ndarray]:
    """Rows of CSV cells (features then label) and the 0/1 labels.

    `stream` selects an independent draw for the same seed, such as fresh
    rows to score.
    """
    rng = np.random.default_rng([seed, stream])
    n = n_rows
    a2 = rng.gamma(4.0, 8.0, n) + 13.0
    a3 = rng.exponential(4.0, n)
    a8 = rng.exponential(2.0, n)
    a11 = rng.poisson(rng.exponential(2.0, n)).astype(float)
    a14 = np.round(rng.gamma(2.0, 90.0, n))
    a15 = np.round(np.expm1(rng.exponential(2.5, n)))
    cat = {name: rng.integers(0, len(values), n) for name, values in CATEGORIES.items()}
    binary = {name: rng.integers(0, 2, n) for name in BINARY}

    # prior default flag correlates with the numeric history columns
    z = (
        1.6 * binary["A9"]
        + 0.9 * np.tanh(a8 - 1.5)
        + 0.6 * np.log1p(a11)
        - 0.8 * np.sin(a2 / 9.0) * np.tanh(a3 / 3.0)
        + 0.5 * np.log1p(a15) / 4.0 * binary["A10"]
        - 0.35 * (a14 > 250)
        + A6_EFFECT[cat["A6"]]
        - 1.4
    )
    y = (SIGNAL * z + rng.logistic(0.0, 1.0, n) > 0).astype(np.int64)

    cells = {
        "A2": [f"{v:.2f}" for v in a2],
        "A3": [f"{v:.3f}" for v in a3],
        "A8": [f"{v:.3f}" for v in a8],
        "A11": [f"{v:.0f}" for v in a11],
        "A14": [f"{v:05.0f}" for v in a14],
        "A15": [f"{v:.0f}" for v in a15],
    }
    for name, values in CATEGORIES.items():
        cells[name] = [values[i] for i in cat[name]]
    for name, values in BINARY.items():
        cells[name] = [values[i] for i in binary[name]]

    missing = rng.random((n, len(COLUMNS))) < MISSING_SHARE
    rows = []
    for r in range(n):
        row = ["?" if missing[r, c] else cells[name][r] for c, name in enumerate(COLUMNS)]
        rows.append(row + ["+" if y[r] else "-"])
    return rows, y


def write_csv(path, seed: int, n_rows: int = N_ROWS, stream: int = 0) -> np.ndarray:
    """Write the table to `path`; returns the 0/1 labels."""
    rows, y = make_table(seed, n_rows, stream)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(COLUMNS) + [TARGET])
        writer.writerows(rows)
    return y
