"""Distributions, entropy vectors, and the max-entropy gluing."""

import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyshare import (
    GroundSet,
    JointDistribution,
    MarginalMismatch,
    check_polymatroid,
    conditional_product,
    entropy_vector,
    marginal,
    mmrv,
    subset_parse,
)
from polyshare import entropy
from polyshare.entropy import (
    BATCH_CELLS,
    COUNT_SPAN,
    _code_columns,
    _codes,
    _dense_ranks,
    _fold,
    distribution_from_json,
)

from generators import ground, random_distribution

H_A_TABLE1 = 0.9990649315776107  # binary entropy of the 0.482/0.518 marginal


def fair_bits(labels):
    n = len(labels)
    rows = [[m >> i & 1 for i in range(n)] for m in range(1 << n)]
    return JointDistribution(GroundSet(labels), rows, [1 / (1 << n)] * (1 << n))


def rows_as_dict(d):
    return {tuple(r): p for r, p in zip(d.outcomes.tolist(), d.probs.tolist())}


# ---------------------------------------------------------------------------
# slow references: a fresh lexicographic grouping of every row slice, and the
# gluing written as per-row dict loops

def reference_marginal(d, mask):
    """Distinct rows of the slice (lexicographic) and their summed probabilities."""
    cols = [i for i in range(d.variables.n) if mask >> i & 1]
    uniq, inverse = np.unique(d.outcomes[:, cols], axis=0, return_inverse=True)
    return uniq, np.bincount(inverse, weights=d.probs, minlength=uniq.shape[0])


def reference_entropy_vector(d):
    """Entropy of every marginal from one np.unique(axis=0) per subset."""
    values = np.zeros(1 << d.variables.n, dtype=np.float64)
    for mask in range(1, 1 << d.variables.n):
        _, summed = reference_marginal(d, mask)
        p = summed[summed > 0]
        values[mask] = float(-(p * np.log2(p)).sum())
    return values


def reference_conditional_product(d1, d2):
    """The gluing row by row: d1's rows in order, each with d2's matching rows."""
    shared = [v for v in d1.variables if v in d2.variables]
    extra = [v for v in d2.variables if v not in d1.variables]
    cols1 = [d1.variables.index(v) for v in shared]
    cols2 = [d2.variables.index(v) for v in shared]
    extra_cols = [d2.variables.index(v) for v in extra]

    overlap, check, by_key = {}, {}, {}
    for row, p in zip(d1.outcomes.tolist(), d1.probs):
        key = tuple(row[c] for c in cols1)
        overlap[key] = overlap.get(key, 0.0) + float(p)
    for row, p in zip(d2.outcomes.tolist(), d2.probs):
        key = tuple(row[c] for c in cols2)
        check[key] = check.get(key, 0.0) + float(p)
        by_key.setdefault(key, []).append((row, float(p)))
    for key in set(overlap) | set(check):
        if abs(overlap.get(key, 0.0) - check.get(key, 0.0)) > 1e-9:
            raise MarginalMismatch(f"shared marginal differs at {key}")

    rows, probs = [], []
    for row1, p1 in zip(d1.outcomes.tolist(), d1.probs):
        key = tuple(row1[c] for c in cols1)
        denom = overlap.get(key, 0.0)
        if denom == 0.0:
            continue
        for row2, p2 in by_key.get(key, []):
            rows.append(row1 + [row2[c] for c in extra_cols])
            probs.append(float(p1) * p2 / denom)
    labels = d1.variables.labels + tuple(extra)
    return JointDistribution(GroundSet(labels), rows, probs)


def assert_same_distribution(got, want):
    """Same variables, same rows in the same order, bit-identical probabilities."""
    assert got.variables.labels == want.variables.labels
    assert np.array_equal(got.outcomes, want.outcomes)
    assert np.array_equal(got.probs, want.probs)


def assert_matches_references(d, rng):
    """entropy_vector, marginal and conditional_product agree exactly with the
    references."""
    assert np.array_equal(entropy_vector(d).values, reference_entropy_vector(d))
    g = d.variables
    for _ in range(2):
        left = int(rng.integers(1, 1 << g.n))
        right = int(rng.integers(1, 1 << g.n))
        parts = []
        for mask in (left, right):
            m = marginal(d, mask)
            rows, probs = reference_marginal(d, mask)
            assert m.variables.labels == g.labels_of(mask)
            assert np.array_equal(m.outcomes, rows) and np.array_equal(m.probs, probs)
            order = rng.permutation(len(m.probs))  # row order must carry through
            parts.append(JointDistribution(m.variables, m.outcomes[order], m.probs[order]))
        assert_same_distribution(
            conditional_product(*parts), reference_conditional_product(*parts)
        )


SWEEP_CASES = (
    "single row",
    "zero-probability rows",
    "constant column",
    "negative and huge values",
    "all-distinct column",
)


def sweep_distribution(rng, n, case):
    """A small distribution on n variables shaped to hit one edge case."""
    k = 1 if case == "single row" else int(rng.integers(2, 41))
    rows = rng.integers(0, 3, size=(k, n))
    col = int(rng.integers(n))
    if case == "constant column":
        rows[:, col] = 7
    elif case == "negative and huge values":
        rows = rows * (1 << 41) - 5  # -5, 2^41 - 5, 2^42 - 5
        rows[:, col] = -rows[:, col]
    elif case == "all-distinct column":
        rows[:, col] = rng.permutation(k) * 1000 - 500
    rows = rng.permutation(np.unique(rows, axis=0))
    probs = rng.random(rows.shape[0]) + 0.05
    if case == "zero-probability rows" and rows.shape[0] > 1:
        probs[rng.random(rows.shape[0]) < 0.4] = 0.0
        probs[int(rng.integers(rows.shape[0]))] = 1.0
    return JointDistribution(ground(n), rows, probs / probs.sum())


def wide_distribution(rng, n, rows):
    """rows distinct outcome rows on n variables, some of probability zero:
    small-valued columns, one all-distinct column of values near -2^62 and
    one column of values 2^60 apart."""
    out = rng.integers(0, 3, size=(rows, n))
    out[:, 0] = rng.permutation(rows) - (1 << 62)
    out[:, n // 2] = rng.integers(-3, 4, size=rows) << 60
    probs = rng.random(rows) + 0.05
    probs[rng.random(rows) < 0.2] = 0.0
    labels = tuple(f"x{i}" for i in range(n))
    return JointDistribution(GroundSet(labels), out, probs / probs.sum())


class TestJointDistribution:
    def test_table1_shape_and_total(self, table1):
        assert table1.variables.labels == ("a", "b", "c", "d", "e")
        assert len(table1.probs) == 8
        assert set(table1.outcomes.ravel().tolist()) == {0, 1}
        assert table1.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert sorted(table1.probs.tolist()) == sorted(
            [0.077, 0.182, 0.182, 0.077, 0.105, 0.136, 0.136, 0.105]
        )

    def test_single_row_deterministic(self):
        d = JointDistribution(GroundSet("ab"), [[0, 1]], [1.0])
        assert len(d.probs) == 1

    def test_bad_total_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            JointDistribution(GroundSet("a"), [[0], [1]], [0.5, 0.4])

    def test_duplicate_row_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            JointDistribution(GroundSet("a"), [[0], [0]], [0.5, 0.5])

    @pytest.mark.parametrize("outcomes", [
        [[1.5], [2.5]],
        [["1"], ["2"]],
        [[True], [False]],
        np.array([[0], [2**64 - 1]], dtype=np.uint64),
        [[1e300], [0.0]],
        [[np.nan], [0.0]],
        [[1.2], [1.7]],  # once cast to the duplicate rows [1], [1]
    ], ids=["float", "str", "bool", "uint64 past int64", "huge float", "nan", "floats cast to one row"])
    def test_non_integer_outcomes_rejected(self, outcomes):
        with pytest.raises(ValueError, match="must be integers"):
            JointDistribution(GroundSet("a"), outcomes, [0.5, 0.5])

    @pytest.mark.parametrize("probs", [
        [True, False],
        ["0.5", "0.5"],
        [0.0, True],  # numpy would make this float64
        [np.True_, 0.0],
        [None, 1.0],
        np.array([True, False]),
        np.array(["0.5", "0.5"]),
        np.array([0.5, 0.5], dtype=object),
    ], ids=["bools", "strings", "float and bool", "numpy bool", "None", "bool array", "str array",
            "object array"])
    def test_non_real_probabilities_rejected(self, probs):
        with pytest.raises(ValueError, match="probabilities must be real numbers"):
            JointDistribution(GroundSet("a"), [[0], [1]], probs)

    @pytest.mark.parametrize("probs", [
        [1, 0], [0.5, Fraction(1, 2)], [np.float32(0.5), np.int64(0) + 0.5],
        np.array([1, 0], dtype=np.uint8), np.array([0.25, 0.75], dtype=np.float32),
    ])
    def test_real_probabilities_accepted(self, probs):
        d = JointDistribution(GroundSet("a"), [[0], [1]], probs)
        assert d.probs.dtype == np.float64 and d.probs.sum() == 1

    def test_bool_in_an_outcome_list_rejected(self):
        # numpy would store True as 1 in an int64 row
        with pytest.raises(ValueError, match="outcome values must be integers, got True"):
            JointDistribution(GroundSet("ab"), [[0, True], [1, False]], [0.5, 0.5])

    @pytest.mark.parametrize("outcomes, bad", [
        ([[-1], [2**63]], 2**63),
        ([[2**63], [0]], 2**63),
        ([[0], [-(2**63) - 1]], -(2**63) - 1),
        ([[2**64], [2**63]], 2**64),
    ])
    def test_int_past_int64_in_an_outcome_list_is_named(self, outcomes, bad):
        # numpy would make the first two lists float64 before a dtype check
        message = f"outcome values must be integers that fit in a 64-bit signed integer, got {bad}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            JointDistribution(GroundSet("a"), outcomes, [0.5, 0.5])

    def test_int64_extremes_in_an_outcome_list_accepted(self):
        d = JointDistribution(GroundSet("a"), [[-(2**63)], [2**63 - 1]], [0.5, 0.5])
        assert d.outcomes.tolist() == [[-(2**63)], [2**63 - 1]]

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint8, np.uint64, ">i8"])
    def test_integer_dtypes_stored_as_int64(self, dtype):
        rows = np.array([[0, 5], [2**7 - 1, 0]], dtype=dtype)
        d = JointDistribution(GroundSet("ab"), rows, [0.5, 0.5])
        assert d.outcomes.dtype == np.int64
        assert d.outcomes.tolist() == rows.tolist()

    def test_negative_prob_rejected(self):
        with pytest.raises(ValueError):
            JointDistribution(GroundSet("a"), [[0], [1]], [1.5, -0.5])

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            distribution_from_json({"variables": ["a"]})

    def test_nan_prob_rejected(self):
        # NaN compares false both ways: only a p >= 0 test catches it
        with pytest.raises(ValueError, match="non-negative"):
            JointDistribution(GroundSet("ab"), [[0, 0], [1, 1]], [np.nan, 1.0])

    @pytest.mark.parametrize("doc, field", [
        ({"variables": "ab", "rows": []}, "'variables' must be a list"),
        ({"variables": ["a"], "rows": {"values": [0], "prob": 1}}, "'rows' must be a list"),
        ({"variables": ["a"], "rows": [{"values": [0]}]}, "row 0 missing 'prob'"),
        ({"variables": ["a"], "rows": [{"values": [0], "prob": "1"}]}, "'prob' must be a number"),
        ({"variables": ["a"], "rows": [{"values": [0], "prob": True}]}, "'prob' must be a number"),
        ({"variables": ["a"], "rows": [{"values": [0.5], "prob": 1}]}, "must hold integers"),
        ({"variables": ["a"], "rows": [{"values": [0], "prob": 10**400}]}, "must be finite"),
        ({"variables": ["a"], "rows": [{"values": [2**63], "prob": 1}]}, "64-bit signed"),
        ({"variables": ["a"], "rows": [{"values": [-(2**63) - 1], "prob": 1}]}, "64-bit signed"),
        ({"variables": ["a", "b"], "rows": [{"values": [0, 1], "prob": 0.5},
                                            {"values": [1], "prob": 0.5}]},
         "row 1 field 'values' holds 1 values for 2 variables"),
        ({"variables": ["a", "b"], "rows": [{"values": [0, 1, 0], "prob": 1}]},
         "row 0 field 'values' holds 3 values for 2 variables"),
    ])
    def test_malformed_document_names_the_field(self, doc, field):
        with pytest.raises(ValueError, match=field):
            distribution_from_json(doc)


class TestEntropyVector:
    def test_two_fair_bits(self):
        ev = entropy_vector(fair_bits("ab"))
        assert ev.rank_of("a") == pytest.approx(1.0, abs=1e-12)
        assert ev.rank_of("b") == pytest.approx(1.0, abs=1e-12)
        assert ev.rank_of("a,b") == pytest.approx(2.0, abs=1e-12)

    def test_table1_singleton_a(self, table1, m_xi):
        pa = marginal(table1, subset_parse(table1.variables, "a")).probs
        assert sorted(np.round(pa, 3).tolist()) == [0.482, 0.518]
        value = m_xi.rank_of("a")
        assert value == pytest.approx(H_A_TABLE1, abs=1e-12)
        assert value == pytest.approx(0.999066, abs=2e-6)
        # pins the log base: scaling by 50.03 must land on 49.983219
        assert 50.03 * value == pytest.approx(49.983219, abs=1e-4)

    def test_deterministic_variable_is_loop(self):
        d = JointDistribution(GroundSet("ab"), [[0, 0], [1, 0]], [0.5, 0.5])
        ev = entropy_vector(d)
        assert ev.rank_of("b") == 0.0
        assert ev.rank_of("a,b") == ev.rank_of("a")

    def test_always_a_polymatroid(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            d = random_distribution(rng, ("a", "b", "c", "d"))
            assert check_polymatroid(entropy_vector(d).rank) == []

    def test_conditional_entropy_bounds(self, m_xi):
        g = m_xi.ground
        for a in range(1, 32):
            for b in range(32):
                if a & b:
                    continue
                h_cond = m_xi.value(a | b) - m_xi.value(b)
                assert -1e-9 <= h_cond <= m_xi.value(a) + 1e-9


class TestAgainstReferences:
    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("case", SWEEP_CASES)
    def test_seeded_sweep(self, n, case):
        rng = np.random.default_rng(1000 * n + SWEEP_CASES.index(case))
        for _ in range(3):
            assert_matches_references(sweep_distribution(rng, n, case), rng)

    def test_random_distributions(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            d = random_distribution(rng, ground(n).labels, max_support=30, n_values=4)
            assert_matches_references(d, rng)

    def test_table1(self, table1):
        assert_matches_references(table1, np.random.default_rng(5))

    def test_split_batches_and_sorted_keys(self, monkeypatch):
        """n=10 with an all-distinct last column: the levels split into
        several batches, and batches below the top level whose children add
        that column to many labels are relabelled by sorting."""
        rng = np.random.default_rng(77)
        rows = 500  # the 10 top-level children fit one batch, the 45 below do not
        assert 10 * rows <= BATCH_CELLS < 45 * rows
        out = rng.integers(0, 3, size=(rows, 10))
        out[:, 9] = rng.permutation(rows) * 7 - 1000
        probs = rng.random(rows) + 0.05
        probs[rng.random(rows) < 0.1] = 0.0
        d = JointDistribution(ground(10), out, probs / probs.sum())
        batches = []

        def spy(keys, span):
            if keys.ndim == 2:
                batches.append(span > COUNT_SPAN * keys.size)
            return _dense_ranks(keys, span)

        monkeypatch.setattr(entropy, "_dense_ranks", spy)
        assert_matches_references(d, rng)
        assert len(batches) > 10  # more batches than levels
        assert not batches[0] and any(batches[1:])

    def test_mismatch_message_names_value_and_masses(self):
        d1 = JointDistribution(GroundSet("ab"), [[0, 0], [1, 1]], [0.5, 0.5])
        d2 = JointDistribution(GroundSet("bc"), [[0, 0], [1, 1]], [0.3, 0.7])
        with pytest.raises(MarginalMismatch, match=r"\{'b': 0\}: 0\.5 vs 0\.3 \(gap 2\.000e-01\)"):
            conditional_product(d1, d2)

    def test_no_shared_variables_is_the_product(self):
        d1 = JointDistribution(GroundSet("a"), [[1], [0]], [0.25, 0.75])
        d2 = JointDistribution(GroundSet("b"), [[5], [-5], [0]], [0.5, 0.3, 0.2])
        glued = conditional_product(d1, d2)
        assert_same_distribution(glued, reference_conditional_product(d1, d2))
        assert glued.outcomes.tolist() == [[1, 5], [1, -5], [1, 0], [0, 5], [0, -5], [0, 0]]


def distinct_rows(rng, n, rows):
    """rows distinct outcome rows on n variables, all of positive
    probability, so that the walk's width is BATCH_CELLS // rows."""
    out = rng.integers(0, 3, size=(rows, n))
    out[:, 0] = rng.permutation(rows)
    probs = rng.random(rows) + 0.05
    return JointDistribution(ground(n), out, probs / probs.sum())


class TestPlan:
    """The walk follows one plan per n and width, built once; every batch of
    it gives the per-subset reference's bits."""

    def test_batches_draw_on_several_earlier_batches(self):
        d = wide_distribution(np.random.default_rng(91), 10, 400)
        plan = entropy._plan(10, BATCH_CELLS // int(np.count_nonzero(d.probs)))
        assert np.array_equal(np.sort(plan.mask), np.arange(1, 1 << 10))
        # the batch that pushed each slot; the empty set's is none
        owner = np.full(plan.depth, -1)
        start, mixed = 0, 0
        for b, (stop, base, push) in enumerate(plan.batches.tolist()):
            mixed += np.unique(owner[base + plan.parent[start:stop]]).size > 1
            owner[base : base + push] = b
            start = stop
        assert mixed >= 10
        assert np.array_equal(entropy_vector(d).values, reference_entropy_vector(d))

    def test_same_shape_reuses_the_plan(self):
        rng = np.random.default_rng(92)
        entropy._plan.cache_clear()
        for _ in range(2):
            d = distinct_rows(rng, 8, 300)
            assert np.array_equal(entropy_vector(d).values, reference_entropy_vector(d))
        info = entropy._plan.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_width_change_builds_another_plan(self):
        rng = np.random.default_rng(93)
        entropy._plan.cache_clear()
        for rows in (300, 260, 600):  # widths 54, 63 and 27, all below C(8, 4)
            d = distinct_rows(rng, 8, rows)
            assert np.array_equal(entropy_vector(d).values, reference_entropy_vector(d))
        assert entropy._plan.cache_info().misses == 3
        # at n=5 no batch holds more than C(5, 2) = 10 children, so widths
        # 109 and 65 give the same plan
        for rows in (150, 250):
            d = distinct_rows(rng, 5, rows)
            assert np.array_equal(entropy_vector(d).values, reference_entropy_vector(d))
        info = entropy._plan.cache_info()
        assert (info.hits, info.misses) == (1, 4)
        assert entropy._plan(5, 10).widest == 10


class TestSummation:
    """Each entropy is one masked reduce over a grid row after the
    zero-probability rows are dropped; both must leave every bit as the
    per-subset reference has it."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_reference(self, data):
        n = data.draw(st.integers(1, 7))
        k = data.draw(st.integers(1, 60))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        pool = np.array([0, 1, 2, -1, 2**62, -(2**62), 2**63 - 1, -(2**63)], dtype=np.int64)
        width = data.draw(st.integers(2, pool.size))
        rows = np.unique(rng.choice(pool[:width], size=(k, n)), axis=0)
        probs = rng.random(rows.shape[0]) + 0.05
        probs[rng.random(rows.shape[0]) < data.draw(st.sampled_from([0.0, 0.3, 0.8]))] = 0.0
        probs[int(rng.integers(rows.shape[0]))] = 1.0
        d = JointDistribution(ground(n), rng.permutation(rows), probs / probs.sum())
        assert np.array_equal(entropy_vector(d).values, reference_entropy_vector(d))

    def test_runs_longer_than_the_ufunc_buffer(self):
        """More than 8192 distinct positive rows at n=3: the full set's run
        of terms is longer than numpy's ufunc buffer."""
        assert np.getbufsize() == 8192
        rng = np.random.default_rng(3)
        side = 24
        rows = np.stack(np.unravel_index(rng.permutation(side**3), (side,) * 3), axis=1)
        rows = rows * 1000 - 7
        probs = rng.random(rows.shape[0]) + 0.05
        probs[rng.random(rows.shape[0]) < 0.25] = 0.0
        assert np.count_nonzero(probs) > np.getbufsize()
        d = JointDistribution(ground(3), rows, probs / probs.sum())
        assert np.array_equal(entropy_vector(d).values, reference_entropy_vector(d))

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_zero_probability_rows_change_no_bit(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(3):
            d = sweep_distribution(rng, n, "zero-probability rows")
            live = d.probs > 0
            kept = JointDistribution(d.variables, d.outcomes[live], d.probs[live])
            assert entropy_vector(d).values.tobytes() == entropy_vector(kept).values.tobytes()
        d = wide_distribution(rng, n + 1, 200)
        live = d.probs > 0
        assert not live.all()
        kept = JointDistribution(d.variables, d.outcomes[live], d.probs[live])
        assert entropy_vector(d).values.tobytes() == entropy_vector(kept).values.tobytes()


@pytest.mark.slow
@pytest.mark.parametrize("n", [13, 14, 16])
def test_entropy_vector_sweep_wide(n):
    """n=13, n=14 and n=16 against the per-subset reference, exactly, with
    zero-probability rows and wide-valued columns."""
    d = wide_distribution(np.random.default_rng(n), n, 300)
    assert np.array_equal(entropy_vector(d).values, reference_entropy_vector(d))


FOLD_CASES = ("int64 extremes", "sort-branch span", "20 columns x 40 values", "one row", "one column")


def fold_rows(rng, case):
    """Outcome rows, duplicates allowed, shaped for one FOLD_CASES case."""
    k = int(rng.integers(2, 60))
    if case == "int64 extremes":
        pool = np.array([2**63 - 1, -(2**63), 0, -1, 2**63 - 2, -(2**63) + 1], dtype=np.int64)
        return rng.choice(pool, size=(k, 4))
    if case == "sort-branch span":  # the middle column's span passes COUNT_SPAN per value
        rows = rng.integers(0, 3, size=(k, 3))
        rows[:, 1] = rng.integers(-(1 << 40), 1 << 40, size=k)
        return rows
    if case == "20 columns x 40 values":
        return rng.integers(0, 40, size=(200, 20))
    if case == "one row":
        return rng.integers(-5, 5, size=(1, int(rng.integers(1, 12))))
    return rng.integers(-50, 50, size=(k, 1))


class TestDenseRanks:
    """The relabelling kernel against np.unique, on both of its branches."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data(), st.sampled_from(["count", "sort"]))
    def test_matches_unique(self, data, branch):
        shape = tuple(data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=2)))
        size = int(np.prod(shape))
        if branch == "count":
            span = data.draw(st.integers(1, COUNT_SPAN * size))
        else:
            span = data.draw(st.integers(COUNT_SPAN * size + 1, 1 << 62))
        seed = data.draw(st.integers(0, 2**32 - 1))
        keys = np.random.default_rng(seed).integers(0, span, size=shape, dtype=np.int64)
        uniq, inverse = np.unique(keys, return_inverse=True)
        ranks, count = _dense_ranks(keys, span)
        assert ranks.shape == keys.shape
        assert np.array_equal(ranks, inverse.reshape(keys.shape))
        assert count == uniq.shape[0]

    @pytest.mark.parametrize("values", [
        [2**63 - 1, -(2**63), 0, -(2**63), 2**63 - 2, 5],  # span past int64: sorted
        [2**63 - 1, 2**63 - 3, 2**63 - 1, 2**63 - 2],  # near the top: counted
        [-(2**63), -(2**63) + 2, -(2**63) + 1, -(2**63)],  # near the bottom: counted
    ])
    def test_codes_near_int64_limits(self, values):
        column = np.array(values, dtype=np.int64)
        uniq, inverse = np.unique(column, return_inverse=True)
        codes, card = _codes(column)
        assert np.array_equal(codes, inverse) and card == uniq.shape[0]
        rows = np.stack([column, column[::-1], np.zeros_like(column)], axis=1)
        uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
        labels, count = _fold(*_code_columns(rows))
        assert np.array_equal(labels, inverse.ravel()) and count == uniq.shape[0]

    @pytest.mark.parametrize("case", FOLD_CASES)
    def test_fold_matches_unique(self, case, monkeypatch):
        """The row labelling, coded columns folded in one mixed-radix pass,
        gives np.unique's lexicographic labels and count."""
        spans = []

        def spy(keys, span):
            spans.append(span)
            return _dense_ranks(keys, span)

        monkeypatch.setattr(entropy, "_dense_ranks", spy)
        rng = np.random.default_rng(FOLD_CASES.index(case))
        reranks = 0
        for _ in range(10):
            rows = fold_rows(rng, case)
            uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
            spans.clear()
            labels, count = _fold(*_code_columns(rows))
            assert np.array_equal(labels, inverse.ravel()) and count == uniq.shape[0]
            k, columns = rows.shape
            folds = spans[columns:]  # after one call per column code
            assert max(folds) <= k * max(k, COUNT_SPAN)
            reranks += len(folds) - 1
        if case == "20 columns x 40 values":
            assert reranks > 0


def test_entropy_vector_memory_is_bounded():
    """At n=16 and 300 rows a single level's labels would take
    C(16, 8) * 300 * 8 B, about 31 MB.  The batched walk holds the values,
    the stack's labels and a few batch-sized temporaries; the first call
    also builds the plan, 7 B per subset."""
    n, rows = 16, 300
    d = wide_distribution(np.random.default_rng(16), n, rows)
    batch = 8 * max(BATCH_CELLS, n * rows)
    entropy._plan.cache_clear()
    for _ in ("cold", "warm"):
        tracemalloc.start()
        try:
            entropy_vector(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (1 << n) + (n + 10) * batch  # about 3.9 MB
        assert peak < 31e6 / 8  # an eighth of one level's labels


class TestHeldCodes:
    """A distribution codes each column once, when it is built from outside
    rows; marginal and conditional_product hand their results codes."""

    def test_entropy_and_marginal_code_nothing(self, monkeypatch):
        d = wide_distribution(np.random.default_rng(8), 6, 120)
        calls = []

        def spy(column):
            calls.append(column.shape)
            return _codes(column)

        monkeypatch.setattr(entropy, "_codes", spy)
        entropy_vector(d)
        entropy_vector(marginal(d, 0b101011))
        assert calls == []
        conditional_product(marginal(d, 0b001111), marginal(d, 0b111100))
        assert len(calls) == 2  # one per overlap column

    def test_codes_need_not_be_dense(self):
        """Value 1 of column a and value 5 of column b sit in zero-probability
        rows alone, so the live rows and the glued rows, which drop them,
        hold codes with a gap; every result has a fresh construction's bits."""
        d1 = JointDistribution(GroundSet("ab"), [[0, 0], [2, 0], [1, 5], [2, 7]], [0.25, 0.25, 0.0, 0.5])
        d2 = JointDistribution(GroundSet("bc"), [[0, 3], [0, 4], [5, 3], [7, 4], [7, 1]],
                               [0.2, 0.3, 0.0, 0.1, 0.4])
        glued = conditional_product(d1, d2)
        assert 1 not in glued.outcomes[:, 0] and 5 not in glued.outcomes[:, 1]

        def fresh(d):
            return JointDistribution(d.variables, d.outcomes, d.probs)

        def entropies(d):
            return entropy_vector(d).values.tobytes()

        for d in (d1, d2, glued):
            assert entropies(d) == entropies(fresh(d))
            for mask in range(1, 1 << d.variables.n):
                m = marginal(d, mask)
                assert_same_distribution(m, marginal(fresh(d), mask))
                assert entropies(m) == entropies(fresh(m))
        g = glued.variables
        left, right = marginal(glued, subset_parse(g, "a,b")), marginal(glued, subset_parse(g, "b,c"))
        glued_again = conditional_product(left, right)
        assert_same_distribution(glued_again, conditional_product(fresh(left), fresh(right)))
        assert entropies(glued_again) == entropies(fresh(glued_again))


class TestMarginal:
    def test_full_mask_is_identity(self, table1):
        full = marginal(table1, table1.variables.full_mask)
        assert rows_as_dict(full) == rows_as_dict(table1)

    def test_table1_de(self, table1):
        de = marginal(table1, subset_parse(table1.variables, "d,e"))
        got = {k: round(v, 3) for k, v in rows_as_dict(de).items()}
        assert got == {(0, 0): 0.636, (1, 0): 0.182, (0, 1): 0.182}

    def test_marginal_of_product_is_factor(self):
        d1 = fair_bits("ab")
        biased = JointDistribution(GroundSet("c"), [[0], [1]], [0.9, 0.1])
        prod = conditional_product(d1, biased)
        back = marginal(prod, subset_parse(prod.variables, "c"))
        assert rows_as_dict(back) == pytest.approx(rows_as_dict(biased))

    def test_empty_mask_rejected(self, table1):
        with pytest.raises(ValueError):
            marginal(table1, 0)

    @pytest.mark.parametrize("mask", [0b1001, -1, True, 8, 1.0])
    def test_mask_off_the_variables_is_refused(self, mask):
        """No bit past the variables is dropped, and no bool or float counts as a mask."""
        with pytest.raises(ValueError, match=re.escape(f"mask {mask!r} is not a subset")):
            marginal(fair_bits("abc"), mask)


class TestConditionalProduct:
    def test_fixed_point_when_already_conditionally_independent(self):
        # a and d,e are functions of (b, c), so a _|_ de | bc holds exactly
        rows, probs = [], []
        for b in range(2):
            for c in range(2):
                rows.append([b ^ c, b, c, b & c, c])
                probs.append(0.25)
        d = JointDistribution(GroundSet("abcde"), rows, probs)
        g = d.variables
        glued = conditional_product(
            marginal(d, subset_parse(g, "a,b,c")),
            marginal(d, subset_parse(g, "b,c,d,e")),
        )
        assert glued.variables.labels == ("a", "b", "c", "d", "e")
        assert rows_as_dict(glued) == pytest.approx(rows_as_dict(d))

    def test_table1_glue_keeps_mmrv_but_goes_nonnegative(self, table1, m_xi):
        g = table1.variables
        glued = conditional_product(
            marginal(table1, subset_parse(g, "a,b,c")),
            marginal(table1, subset_parse(g, "b,c,d,e")),
        )
        ev = entropy_vector(glued)
        value = mmrv(ev)
        assert value == pytest.approx(mmrv(m_xi), abs=1e-9)
        assert value >= 0
        # the glued coupling breaks the conditional dependence
        i_a_de_bc = (
            ev.rank_of("a,b,c") + ev.rank_of("b,c,d,e")
            - ev.rank_of("a,b,c,d,e") - ev.rank_of("b,c")
        )
        assert abs(i_a_de_bc) <= 1e-9

    def test_marginals_are_reproduced(self, table1):
        g = table1.variables
        abc = marginal(table1, subset_parse(g, "a,b,c"))
        bcde = marginal(table1, subset_parse(g, "b,c,d,e"))
        glued = conditional_product(abc, bcde)
        back_abc = marginal(glued, subset_parse(glued.variables, "a,b,c"))
        back_bcde = marginal(glued, subset_parse(glued.variables, "b,c,d,e"))
        assert rows_as_dict(back_abc) == pytest.approx(rows_as_dict(abc))
        assert rows_as_dict(back_bcde) == pytest.approx(rows_as_dict(bcde))

    def test_inconsistent_overlap_rejected(self):
        d1 = JointDistribution(GroundSet("ab"), [[0, 0], [1, 1]], [0.5, 0.5])
        d2 = JointDistribution(GroundSet("bc"), [[0, 0], [1, 1]], [0.3, 0.7])
        with pytest.raises(MarginalMismatch):
            conditional_product(d1, d2)

    def test_maximizes_entropy_over_couplings(self):
        # any joint with the same two marginals is a competing coupling
        rng = np.random.default_rng(23)
        g = GroundSet("abcde")
        for _ in range(20):
            d = random_distribution(rng, tuple(g), max_support=10)
            glued = conditional_product(
                marginal(d, subset_parse(g, "a,b,c")),
                marginal(d, subset_parse(g, "b,c,d,e")),
            )
            h_glued = entropy_vector(glued).value(glued.variables.full_mask)
            h_original = entropy_vector(d).value(g.full_mask)
            assert h_glued >= h_original - 1e-9
