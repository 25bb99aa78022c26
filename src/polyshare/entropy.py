"""Joint distributions and their entropy vectors.

Entropies are in bits (log base 2) throughout.  The map from a distribution to
the vector of marginal entropies always lands inside the polymatroid cone, so
entropy_vector returns a validated Polymatroid.
"""

import json
from dataclasses import dataclass

import numpy as np

from .core import GroundSet, RankVector, check_dense, dumps, json_field
from .polymatroid import Polymatroid, validate_polymatroid

SUM_TOL = 1e-9
MARGINAL_TOL = 1e-9


class MarginalMismatch(ValueError):
    """The two inputs disagree on their shared marginal."""


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Finite distribution given by outcome rows and their probabilities."""

    variables: GroundSet
    outcomes: np.ndarray
    probs: np.ndarray

    def __init__(self, variables: GroundSet, outcomes, probs):
        try:
            rows = np.asarray(outcomes, dtype=np.int64)
        except OverflowError:
            raise ValueError("outcome values must fit in a 64-bit signed integer") from None
        try:
            p = np.asarray(probs, dtype=np.float64)
        except OverflowError:
            raise ValueError("probabilities must be finite floats") from None
        if rows.ndim != 2 or rows.shape[1] != variables.n:
            raise ValueError(
                f"outcomes must be (rows, {variables.n}), got shape {rows.shape}"
            )
        if p.shape != (rows.shape[0],):
            raise ValueError("one probability per outcome row required")
        if not np.all(p >= 0):  # NaN fails here too
            raise ValueError("probabilities must be non-negative")
        total = float(p.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if len({tuple(r) for r in rows.tolist()}) != rows.shape[0]:
            raise ValueError("duplicate outcome row")
        rows = rows.copy()
        rows.setflags(write=False)
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "outcomes", rows)
        object.__setattr__(self, "probs", p)

    @property
    def n_rows(self) -> int:
        return self.outcomes.shape[0]


def distribution_from_json(doc: dict) -> JointDistribution:
    variables = GroundSet(json_field(doc, "variables", list, "distribution file"))
    outcomes, probs = [], []
    for i, row in enumerate(json_field(doc, "rows", list, "distribution file")):
        values = json_field(row, "values", list, f"distribution row {i}")
        prob = json_field(row, "prob", (int, float), f"distribution row {i}")
        if not all(type(v) is int for v in values):
            raise ValueError(f"distribution row {i} field 'values' must hold integers")
        outcomes.append(values)
        probs.append(prob)
    return JointDistribution(variables, outcomes, probs)


def distribution_to_json(d: JointDistribution) -> dict:
    return {
        "variables": list(d.variables.labels),
        "rows": [
            {"values": [int(v) for v in row], "prob": float(p)}
            for row, p in zip(d.outcomes.tolist(), d.probs)
        ],
    }


def load_distribution(path) -> JointDistribution:
    with open(path) as fh:
        return distribution_from_json(json.load(fh))


def save_distribution(d: JointDistribution, path) -> None:
    text = dumps(distribution_to_json(d))
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _columns(d: JointDistribution, mask: int) -> list[int]:
    return [i for i in range(d.variables.n) if mask >> i & 1]


def _codes(column: np.ndarray):
    """Rank of each value in the sorted distinct values, and their count."""
    uniq, codes = np.unique(column, return_inverse=True)
    return codes, uniq.shape[0]


def _refine(labels: np.ndarray, codes: np.ndarray, card: int) -> np.ndarray:
    """Labels of the rows extended by one column whose values rank last.

    If ``labels`` rank the restricted rows lexicographically, so do the
    result's: the new column breaks ties within each existing label.
    """
    _, inverse = np.unique(labels * card + codes, return_inverse=True)
    return inverse


def _labels(rows: np.ndarray) -> np.ndarray:
    """Lexicographic rank of each row among the distinct rows."""
    labels = np.zeros(rows.shape[0], dtype=np.int64)
    for k in range(rows.shape[1]):
        labels = _refine(labels, *_codes(rows[:, k]))
    return labels


def marginal(d: JointDistribution, A: int) -> JointDistribution:
    """Distribution of the variables in A, other coordinates summed out."""
    if A == 0:
        raise ValueError("marginal over the empty set is not defined")
    rows = d.outcomes[:, _columns(d, A)]
    labels = _labels(rows)
    summed = np.bincount(labels, weights=d.probs)
    first = np.empty(summed.shape[0], dtype=np.int64)
    first[labels] = np.arange(d.n_rows)  # any row of a label gives its values
    return JointDistribution(GroundSet(d.variables.labels_of(A)), rows[first], summed)


def _entropy_bits(probs: np.ndarray) -> float:
    p = probs[probs > 0]
    return float(-(p * np.log2(p)).sum())


def entropy_vector(d: JointDistribution) -> Polymatroid:
    """H of every marginal, as a float-mode polymatroid (always valid).

    One depth-first pass over the subsets: a child adds a column above its
    parent's highest one, and its rows are labelled from the parent's
    labels, so only the labels along the current path are held.
    """
    check_dense(d.variables)
    n = d.variables.n
    values = np.zeros(1 << n, dtype=np.float64)
    columns = [_codes(d.outcomes[:, j]) for j in range(n)]

    def visit(mask: int, labels: np.ndarray, start: int) -> None:
        for j in range(start, n):
            child = _refine(labels, *columns[j])
            values[mask | 1 << j] = _entropy_bits(np.bincount(child, weights=d.probs))
            visit(mask | 1 << j, child, j + 1)

    visit(0, np.zeros(d.n_rows, dtype=np.int64), 0)
    return validate_polymatroid(RankVector(d.variables, values, "float"))


def conditional_product(d1: JointDistribution, d2: JointDistribution) -> JointDistribution:
    """Glue two distributions along their shared variables.

    The result is the maximum-entropy coupling with the given marginals: the
    two non-shared parts are conditionally independent given the overlap.
    Probability of a combined row is p1 * p2 / p_overlap, with 0/0 = 0.
    Output rows follow d1's row order, then d2's within one overlap value.
    Raises MarginalMismatch when the inputs disagree on the overlap.
    """
    shared = [v for v in d1.variables if v in d2.variables]
    extra = [v for v in d2.variables if v not in d1.variables]
    out_vars = GroundSet(d1.variables.labels + tuple(extra))

    cols1 = [d1.variables.index(v) for v in shared]
    cols2 = [d2.variables.index(v) for v in shared]
    extra_cols = [d2.variables.index(v) for v in extra]

    # one label per overlap value, shared by the rows of both inputs
    keys = np.concatenate([d1.outcomes[:, cols1], d2.outcomes[:, cols2]])
    labels = _labels(keys)
    n_keys = int(labels.max()) + 1
    l1, l2 = labels[: d1.n_rows], labels[d1.n_rows :]
    overlap = np.bincount(l1, weights=d1.probs, minlength=n_keys)
    check = np.bincount(l2, weights=d2.probs, minlength=n_keys)
    gap = np.abs(overlap - check)
    bad = gap > MARGINAL_TOL
    if bad.any():
        k = int(np.argmax(bad))
        key = keys[int(np.argmax(labels == k))].tolist()
        raise MarginalMismatch(
            f"shared marginal differs at {dict(zip(shared, key))}: "
            f"{float(overlap[k])} vs {float(check[k])} (gap {float(gap[k]):.3e})"
        )

    # each d1 row with positive overlap mass meets d2's rows of its overlap
    # value, taken in d2's row order
    by_key = np.argsort(l2, kind="stable")
    sizes = np.bincount(l2, minlength=n_keys)
    firsts = np.cumsum(sizes) - sizes
    reps = np.where(overlap[l1] != 0.0, sizes[l1], 0)
    i1 = np.repeat(np.arange(d1.n_rows), reps)
    offsets = np.arange(i1.shape[0]) - np.repeat(np.cumsum(reps) - reps, reps)
    i2 = by_key[firsts[l1[i1]] + offsets]
    rows = np.concatenate([d1.outcomes[i1], d2.outcomes[i2][:, extra_cols]], axis=1)
    probs = d1.probs[i1] * d2.probs[i2] / overlap[l1[i1]]
    return JointDistribution(out_vars, rows, probs)


def product_power(d: JointDistribution, n: int) -> Polymatroid:
    """Entropy vector of n independent copies: entropy scales by n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    base = entropy_vector(d)
    return Polymatroid(RankVector(base.ground, n * base.values, "float"))
