"""Joint distributions and their entropy vectors.

Entropies are in bits (log base 2) throughout.  The map from a distribution to
the vector of marginal entropies always lands inside the polymatroid cone, so
entropy_vector returns a validated Polymatroid.
"""

import functools
import json
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import GroundSet, RankVector, check_dense, check_mask, json_field
from .polymatroid import Polymatroid, validate_polymatroid

SUM_TOL = 1e-9
MARGINAL_TOL = 1e-9
INT64_MIN, INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max
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
        # an ndarray is judged by its dtype, so it costs no pass over its values;
        # other input element by element, before numpy casts True or "0.5"
        if isinstance(probs, np.ndarray):
            if probs.dtype.kind not in "fiu":
                raise ValueError(f"probabilities must be real numbers, got {probs.dtype}")
        else:
            for v in np.asarray(probs, dtype=object).flat:
                if isinstance(v, bool) or not isinstance(v, numbers.Real):
                    raise ValueError(f"probabilities must be real numbers, got {v!r:.40}")
        if not isinstance(outcomes, np.ndarray):  # numpy would make an int past int64 a float
            for v in np.asarray(outcomes, dtype=object).flat:
                if isinstance(v, (bool, np.bool_)):
                    raise ValueError(f"outcome values must be integers, got {v!r}")
                if isinstance(v, int) and not INT64_MIN <= v <= INT64_MAX:
                    raise ValueError(
                        f"outcome values must be integers that fit in a 64-bit signed integer, got {v}"
                    )
        rows = np.asarray(outcomes)
        try:
            p = np.asarray(probs, dtype=np.float64)
        except OverflowError:
            raise ValueError("probabilities must be finite floats") from None
        if rows.ndim != 2 or rows.shape[1] != variables.n:
            raise ValueError(
                f"outcomes must be (rows, {variables.n}), got shape {rows.shape}"
            )
        # decided by dtype, so int64 rows cost no pass over their values
        kind = rows.dtype.kind
        if not (kind == "i" or kind == "u" and (rows.size == 0 or int(rows.max()) <= INT64_MAX)):
            raise ValueError(
                f"outcome values must be integers that fit in a 64-bit signed integer, got {rows.dtype}"
            )
        rows = rows.astype(np.int64)
        if p.shape != (rows.shape[0],):
            raise ValueError("one probability per outcome row required")
        self._keep(variables, rows, p.copy())

    def _keep(self, variables, rows, probs, codes=None, cards=None):
        """Check the probabilities and the rows' distinctness, and keep them.

        codes holds one int64 code per row for each column (a row of codes
        per column), order-preserving and below that column's bound in cards;
        marginal and conditional_product hand over the codes of the rows they
        take, which need not be dense.  Rows from outside are coded here,
        once their probabilities pass.
        """
        if not np.all(probs >= 0):  # NaN fails here too
            raise ValueError("probabilities must be non-negative")
        total = float(probs.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if codes is None:
            codes, cards = _code_columns(rows)
        for a in (rows, probs, codes, cards):
            a.setflags(write=False)
        # frozen: the fields are set past the dataclass's __setattr__
        self.__dict__.update(variables=variables, outcomes=rows, probs=probs, _coded=codes, _cards=cards)
        if _fold(self._coded, self._cards)[1] != rows.shape[0]:
            raise ValueError("duplicate outcome row")
        return self


def distribution_from_json(doc: dict) -> JointDistribution:
    variables = GroundSet(json_field(doc, "variables", list, "distribution file"))
    outcomes, probs = [], []
    for i, row in enumerate(json_field(doc, "rows", list, "distribution file")):
        values = json_field(row, "values", list, f"distribution row {i}")
        prob = json_field(row, "prob", (int, float), f"distribution row {i}")
        if not all(type(v) is int for v in values):
            raise ValueError(f"distribution row {i} field 'values' must hold integers")
        if len(values) != variables.n:
            raise ValueError(f"distribution row {i} field 'values' holds {len(values)} values "
                             f"for {variables.n} variables")
        outcomes.append(values)
        probs.append(prob)
    return JointDistribution(variables, outcomes, probs)


def load_distribution(path) -> JointDistribution:
    with open(path) as fh:
        return distribution_from_json(json.load(fh))


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
        ranks[0] -= 1  # so the cumulative sum counts the occupied keys below each
        np.add.accumulate(ranks, out=ranks)  # in int64 throughout: no cast from bool
        return ranks[keys], int(ranks[-1]) + 1
    uniq, inverse = np.unique(keys, return_inverse=True)
    return inverse.reshape(keys.shape), uniq.shape[0]


def _codes(column: np.ndarray):
    """Rank of each value in the sorted distinct values, and their count."""
    low = int(column.min())
    span = int(column.max()) - low + 1  # Python ints: no wrap near ±2^63
    if span > INT64_MAX:  # column - low would wrap; so wide a span is sorted
        return _dense_ranks(column, span)
    return _dense_ranks(column - low, span)


def _code_columns(rows: np.ndarray):
    """The value codes of each column, one row per column, and each column's code count."""
    codes = np.empty(rows.shape[::-1], dtype=np.int64)
    cards = np.empty(rows.shape[1], dtype=np.int64)
    for j, column in enumerate(rows.T):
        codes[j], cards[j] = _codes(column)
    return codes, cards


def _fold(codes: np.ndarray, cards: np.ndarray):
    """Lexicographic rank of each row among the distinct rows, and their count,
    from the rows' codes (a row of codes per column, each below its card).

    One mixed-radix pass, first column most significant: label * card + code.
    The labels are ranked again only where count * card would pass
    COUNT_SPAN * rows, and once at the end, so every key stays below
    rows * max(card, COUNT_SPAN).
    """
    rows = codes.shape[1]
    labels, count = np.zeros(rows, dtype=np.int64), 1
    for column, card in zip(codes, cards.tolist()):
        if count * card > COUNT_SPAN * rows:
            labels, count = _dense_ranks(labels, count)
        labels = labels * card + column
        count *= card
    return _dense_ranks(labels, count)


def marginal(d: JointDistribution, A: int) -> JointDistribution:
    """Distribution of the variables in A, other coordinates summed out."""
    check_mask(d.variables, A)
    if A == 0:
        raise ValueError("marginal over the empty set is not defined")
    cols = _columns(d, A)
    codes, cards = d._coded[cols], d._cards[cols]
    labels, _ = _fold(codes, cards)
    summed = np.bincount(labels, weights=d.probs)
    first = np.empty(summed.shape[0], dtype=np.int64)
    first[labels] = np.arange(len(d.probs))  # any row of a label gives its values
    return object.__new__(JointDistribution)._keep(
        GroundSet(d.variables.labels_of(A)), d.outcomes[:, cols][first], summed, codes[:, first], cards
    )


class _Plan(NamedTuple):
    """The batches of entropy_vector's walk: read-only, flat and narrow."""

    batches: np.ndarray  # per batch: end of its children, first parent's slot, children pushed
    parent: np.ndarray  # per child in batch order: parent's slot less the batch's first (int16)
    column: np.ndarray  # the column the child adds (int8)
    mask: np.ndarray  # the child's subset (int32)
    depth: int  # most slots the stack holds
    widest: int  # most children of one batch


@functools.lru_cache(maxsize=8)
def _plan(n: int, width: int) -> _Plan:
    """The walk over the subsets of n columns, in batches of at most width
    children (at least one parent each).

    A stack of slots holds the subsets still to expand, the empty set first.
    A batch takes the most slots from the top whose children number at most
    width, at least one, so it may draw on the children of several earlier
    batches.  Its children add one column above their parent's highest: the
    children below column n - 1 first, parent by parent, then one child per
    parent on column n - 1, which has no children of its own.  The former
    take over the batch's slots, so the top of the stack holds the subsets
    with the fewest children.
    """
    total = (1 << n) - 1
    parent = np.empty(total, np.int16)
    column = np.empty(total, np.int8)
    mask = np.empty(total, np.int32)
    # the subsets on the stack, masks and highest columns: only those without
    # column n - 1 are pushed, at most 2^(n-1) with the empty set
    masks = np.zeros(max(1, total + 1 >> 1), np.int32)
    tops = np.full(masks.shape, -1, np.int8)
    batches, end, top, depth, widest = [], 0, int(n > 0), 1, 0
    while top:
        # every slot has a child, so the top width + 1 slots decide the batch
        fans = n - 1 - tops[max(0, top - width - 1) : top][::-1]
        base = top - max(1, int(np.searchsorted(np.cumsum(fans), width, side="right")))
        k = top - base
        highest = tops[base:top].astype(np.int64)
        inner = n - 2 - highest  # children below column n - 1, per parent
        push = int(inner.sum())
        cols = np.arange(push) - np.repeat(np.cumsum(inner) - inner - highest - 1, inner)
        par = np.concatenate([np.repeat(np.arange(k), inner), np.arange(k)])
        col = np.concatenate([cols, np.full(k, n - 1)])
        stop = end + par.shape[0]
        parent[end:stop], column[end:stop] = par, col
        mask[end:stop] = masks[base:top][par] | 1 << col
        masks[base : base + push], tops[base : base + push] = mask[end : end + push], cols
        batches.append((stop, base, push))
        widest = max(widest, stop - end)
        end, top = stop, base + push
        depth = max(depth, top)
    for a in (parent, column, mask):
        a.setflags(write=False)
    table = np.array(batches, dtype=np.int32).reshape(-1, 3)
    table.setflags(write=False)
    return _Plan(table, parent, column, mask, depth, widest)


def entropy_vector(d: JointDistribution) -> Polymatroid:
    """H of every marginal, as a float-mode polymatroid (always valid).

    Depth first over batches of subsets, on the plan that _plan builds once
    per n and width = BATCH_CELLS // rows and keeps: which subsets on the
    stack a batch expands, each child's parent, column and mask.  Widths of
    C(n, n // 2) or more give one plan, as no batch can be wider.  A batch is
    expanded into all of its children at once, each child adding one column
    above its parent's highest, and one _dense_ranks call labels every
    child's rows from its parent's labels.  A batch fills from the top of the
    stack, across the children of as many earlier batches as fit: at most
    BATCH_CELLS label cells (children x rows), or one subset's children where
    those alone take more.  Children on column n - 1 have none and are not
    pushed; the others take over their parents' slots of one (depth x rows)
    label array, so the labels held take O(n * (BATCH_CELLS + n * rows))
    cells, and the plan about 7 bytes per subset.

    Zero-probability rows are dropped first.  bincount adds their 0.0 to a
    group's mass exactly, so every group of positive mass keeps its mass and
    its place in label order, and the output does not change by a bit; every
    label left has positive mass.  A child's terms are then the run of its
    labels' masses, and a batch puts child k's run left-aligned in row k of
    a (children x longest run) grid and sums every row in one np.add.reduce
    masked to the filled cells.  numpy runs its pairwise add loop once per
    unmasked run, so each sum is that of np.add.reduce over the run alone,
    whatever batch the child falls in.
    """
    check_dense(d.variables)
    n = d.variables.n
    live = d.probs > 0
    probs, codes = (d.probs, d._coded) if live.all() else (d.probs[live], d._coded[:, live])
    cards = d._cards
    rows = probs.shape[0]
    values = np.zeros(1 << n, dtype=np.float64)
    plan = _plan(n, min(BATCH_CELLS // rows, math.comb(n, n // 2)))
    weights = np.tile(probs, plan.widest)
    # the stack: each slot's row labels and label count, the empty set first
    labels = np.empty((plan.depth, rows), dtype=np.int64)
    counts = np.empty(plan.depth, dtype=np.int64)
    labels[0], counts[0] = 0, 1
    start = 0
    for stop, base, push in plan.batches.tolist():
        parent, column = plan.parent[start:stop], plan.column[start:stop]
        card = cards[column]
        spans = counts[base:][parent] * card
        # the children's keys occupy disjoint ranges, in child order
        keys = labels[base:][parent]
        keys *= card[:, None]
        keys += codes[column]
        keys += (spans.cumsum() - spans)[:, None]
        ranks, total = _dense_ranks(keys, int(spans.sum()))
        del keys
        terms = np.bincount(ranks.ravel(), weights=weights[: ranks.size])
        terms *= np.log2(terms)
        # each child's labels are a run of ranks from its least one on, up
        # to the next child's least (np.diff with append= costs more here)
        first = ranks.min(axis=1)
        sizes = -first
        sizes[:-1] += first[1:]
        sizes[-1] += total
        # row k of the grid holds child k's terms in label order, from the left
        filled = np.arange(sizes.max()) < sizes[:, None]
        grid = np.zeros(filled.shape)
        grid[filled] = terms
        values[plan.mask[start:stop]] = -np.add.reduce(grid, axis=1, where=filled)
        np.subtract(ranks[:push], first[:push, None], out=labels[base : base + push])
        counts[base : base + push] = sizes[:push]
        start = stop
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

    # one label per overlap value, shared by the rows of both inputs; they
    # share no codes, so the overlap columns are coded afresh
    keys = np.concatenate([d1.outcomes[:, cols1], d2.outcomes[:, cols2]])
    labels, n_keys = _fold(*_code_columns(keys))
    l1, l2 = labels[: len(d1.probs)], labels[len(d1.probs) :]
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
    i1 = np.repeat(np.arange(len(d1.probs)), reps)
    offsets = np.arange(i1.shape[0]) - np.repeat(np.cumsum(reps) - reps, reps)
    i2 = by_key[firsts[l1[i1]] + offsets]
    rows = np.concatenate([d1.outcomes[i1], d2.outcomes[i2][:, extra_cols]], axis=1)
    probs = d1.probs[i1] * d2.probs[i2] / overlap[l1[i1]]
    codes = np.concatenate([d1._coded[:, i1], d2._coded[extra_cols][:, i2]])
    cards = np.concatenate([d1._cards, d2._cards[extra_cols]])
    return object.__new__(JointDistribution)._keep(out_vars, rows, probs, codes, cards)

