"""Joint distributions and their entropy vectors.

Entropies are in bits (log base 2) throughout.  The map from a distribution to
the vector of marginal entropies always lands inside the polymatroid cone, so
entropy_vector returns a validated Polymatroid.
"""

import json
from dataclasses import dataclass

import numpy as np

from .core import GroundSet, RankVector, check_dense, json_field
from .polymatroid import Polymatroid, validate_polymatroid

SUM_TOL = 1e-9
MARGINAL_TOL = 1e-9
INT64_MAX = np.iinfo(np.int64).max
# _dense_ranks counts keys whose span is at most this many per key, else sorts
COUNT_SPAN = 4
# entropy_vector expands a batch of subsets into at most this many label
# cells (children x rows) at a time
BATCH_CELLS = 1 << 14


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
        if _labels(rows)[1] != rows.shape[0]:
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
    text = json.dumps(distribution_to_json(d), indent=1)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _columns(d: JointDistribution, mask: int) -> list[int]:
    return [i for i in range(d.variables.n) if mask >> i & 1]


def _dense_ranks(keys: np.ndarray, span: int):
    """``np.unique(keys, return_inverse=True)[1]`` in the shape of ``keys``,
    and the number of distinct keys.

    The keys lie in [0, span), or span is too wide to count.  A span of at
    most COUNT_SPAN values per key is counted (an occupancy array, then its
    cumulative sum); a wider one is sorted.
    """
    if span <= COUNT_SPAN * keys.size:
        ranks = np.zeros(span, dtype=np.int64)
        ranks[keys] = 1
        np.cumsum(ranks, out=ranks)  # in int64 throughout: no cast from bool
        count = int(ranks[-1])
        ranks -= 1
        return ranks[keys], count
    uniq, inverse = np.unique(keys, return_inverse=True)
    return inverse.reshape(keys.shape), uniq.shape[0]


def _codes(column: np.ndarray):
    """Rank of each value in the sorted distinct values, and their count."""
    low = int(column.min())
    span = int(column.max()) - low + 1  # Python ints: no wrap near ±2^63
    if span > INT64_MAX:  # column - low would wrap; so wide a span is sorted
        return _dense_ranks(column, span)
    return _dense_ranks(column - low, span)


def _labels(rows: np.ndarray):
    """Lexicographic rank of each row among the distinct rows, and their count.

    A row is read as a mixed-radix number, first column most significant,
    each digit its value less the column's least.  Where the next digit
    would take the number past int64, the labels so far are replaced by
    their ranks, and a column too wide even then by its value codes.
    """
    labels, count = np.zeros(rows.shape[0], dtype=np.int64), 1
    lows, highs = rows.min(axis=0).tolist(), rows.max(axis=0).tolist()
    for column, low, high in zip(rows.T, lows, highs):
        span = high - low + 1
        if count * span > INT64_MAX and count > 1:
            labels, count = _dense_ranks(labels, count)
        if count * span > INT64_MAX:
            digits, span = _codes(column)
        else:
            digits = column - low
        labels *= span
        labels += digits
        count *= span
    return _dense_ranks(labels, count)


def marginal(d: JointDistribution, A: int) -> JointDistribution:
    """Distribution of the variables in A, other coordinates summed out."""
    if A == 0:
        raise ValueError("marginal over the empty set is not defined")
    rows = d.outcomes[:, _columns(d, A)]
    labels, _ = _labels(rows)
    summed = np.bincount(labels, weights=d.probs)
    first = np.empty(summed.shape[0], dtype=np.int64)
    first[labels] = np.arange(d.n_rows)  # any row of a label gives its values
    return JointDistribution(GroundSet(d.variables.labels_of(A)), rows[first], summed)


def entropy_vector(d: JointDistribution) -> Polymatroid:
    """H of every marginal, as a float-mode polymatroid (always valid).

    Depth first over batches of subsets.  A batch is expanded into all of
    its children at once, each child adding one column above its parent's
    highest, and one _dense_ranks call labels every child's rows from its
    parent's labels.  A batch expands into at most BATCH_CELLS label cells
    (children x rows), or into one subset's children where those alone take
    more, and the stack holds one batch's children per level, so the labels
    held at any time take O(n * (BATCH_CELLS + n * rows)) cells.
    """
    check_dense(d.variables)
    n, rows = d.variables.n, d.n_rows
    values = np.zeros(1 << n, dtype=np.float64)
    coded = [_codes(d.outcomes[:, j]) for j in range(n)]
    codes = np.array([c for c, _ in coded], dtype=np.int64)
    cards = np.array([k for _, k in coded], dtype=np.int64)
    # a batch has at most max(BATCH_CELLS // rows, n) children
    weights = np.tile(d.probs, max(BATCH_CELLS // rows, n))

    def expand(masks, tops, labels, counts):
        """Write the entropies of a batch's children; return the children."""
        fan = n - 1 - tops
        parent = np.repeat(np.arange(masks.shape[0]), fan)
        column = np.arange(parent.shape[0]) - np.repeat(np.cumsum(fan) - fan - tops - 1, fan)
        spans = counts[parent] * cards[column]
        # the children's keys occupy disjoint ranges, in child order
        keys = labels[parent]
        keys *= cards[column, None]
        keys += codes[column]
        keys += (np.cumsum(spans) - spans)[:, None]
        ranks, total = _dense_ranks(keys, int(spans.sum()))
        del keys
        masses = np.bincount(ranks.ravel(), weights=weights[: ranks.size])
        # each child's labels are a run of ranks from its least one on
        first = ranks.min(axis=1)
        ranks -= first[:, None]
        first = np.append(first, total)
        # each child's entropy sums its own positive terms in label order
        positive = np.flatnonzero(masses > 0)
        terms = masses[positive]
        terms *= np.log2(terms)
        bounds = np.searchsorted(positive, first).tolist()
        children = masks[parent] | np.left_shift(1, column)
        values[children] = np.negative([np.add.reduce(terms[a:b]) for a, b in zip(bounds, bounds[1:])])
        return children, column, ranks, np.diff(first)

    # each entry: subsets' masks, highest columns, row labels and label counts
    stack = [(np.zeros(1, np.int64), np.full(1, -1), np.zeros((1, rows), np.int64), np.ones(1, np.int64))]
    while stack:
        masks, tops, labels, counts = stack.pop()
        # the batch is the longest run of subsets, at least one, whose
        # children take at most BATCH_CELLS cells; the rest waits its turn
        reach = np.cumsum(n - 1 - tops) * rows
        take = max(1, int(np.searchsorted(reach, BATCH_CELLS, side="right")))
        if take < masks.shape[0]:
            stack.append((masks[take:], tops[take:], labels[take:], counts[take:]))
        if reach[take - 1]:
            stack.append(expand(masks[:take], tops[:take], labels[:take], counts[:take]))
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
    labels, n_keys = _labels(keys)
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
