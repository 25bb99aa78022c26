"""Validation, duality, tightening, factors, extensions, and the r_A basis."""

import itertools
import json
import math
import re
import tracemalloc
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyshare import (
    GroundSet,
    GroundSetMismatch,
    ModeError,
    Polymatroid,
    RankVector,
    ResidualTooLarge,
    ValidationError,
    basis_r,
    check_polymatroid,
    dual,
    entropy_vector,
    factor,
    is_connected,
    is_tight,
    linear_combine,
    principal_extension,
    round_to_integer,
    split_atom,
    subset_parse,
    tighten,
    uniform_matroid,
    validate_polymatroid,
)
from polyshare import lattice
from polyshare.core import rank_document, subset_format
from polyshare.polymatroid import (
    DECISION_TOL,
    VALIDATION_TOL,
    Violation,
    collapse_pair,
    resolve_tol,
)

from generators import assert_polymatroids_equal, ground, pm, random_distribution

U23 = uniform_matroid(2, ("a", "b", "c"))
MODULAR = pm({"a": 1, "b": 1, "a,b": 2})


class TestValidate:
    def test_modular_pair_valid(self):
        assert isinstance(MODULAR, Polymatroid)

    def test_superadditive_pair_rejected(self):
        rv = RankVector.from_ranks(GroundSet("ab"), {"a": 1, "b": 1, "a,b": 3}, "int")
        violations = check_polymatroid(rv)
        assert violations
        v = violations[0]
        assert v.kind in ("monotone", "submodular")
        kinds = {(w.kind, w.elements, w.subset) for w in violations}
        assert ("submodular", ("a", "b"), "") in kinds
        with pytest.raises(ValidationError):
            validate_polymatroid(rv)

    def test_entropy_vector_is_valid(self, m_xi):
        assert check_polymatroid(m_xi.rank) == []

    def test_negative_singleton_caught(self):
        rv = RankVector(GroundSet("ab"), [0, -1, 0, 0], "int")
        assert check_polymatroid(rv)

    def test_monotone_violation_reported(self):
        rv = RankVector.from_ranks(GroundSet("ab"), {"a": 2, "b": 1, "a,b": 1}, "int")
        kinds = {v.kind for v in check_polymatroid(rv)}
        assert "monotone" in kinds

    def test_violation_dict_round_trips_json(self):
        import json

        rv = RankVector.from_ranks(GroundSet("ab"), {"a": 1, "b": 1, "a,b": 3}, "int")
        docs = [asdict(v) for v in check_polymatroid(rv)]
        parsed = json.loads(json.dumps(docs))
        assert parsed[0]["elements"] == ["a", "b"]
        assert set(parsed[0]) == {"kind", "elements", "subset", "lhs", "rhs"}

    @pytest.mark.parametrize(
        "tolerance", [-1, -1e-12, float("nan"), float("inf"), "0.1", True, False, np.bool_(True),
                      pytest.param(10**400, id="10**400")]
    )
    def test_bad_tolerance_rejected(self, tolerance):
        with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
            check_polymatroid(U23.rank, tolerance)

    def test_float_tolerance_forgives_noise(self):
        vals = U23.values + np.array([0, 1e-12, -1e-12, 0, 0, 0, 0, 0])
        vals[0] = 0
        assert check_polymatroid(RankVector(U23.ground, vals, "float")) == []


def reference_check_polymatroid(rank: RankVector, tolerance=None) -> list[Violation]:
    """The four-term check: f(M) - f(M - i) per element, then
    f(iA) + f(jA) - f(ijA) - f(A) per pair over the masks A avoiding both."""
    tol = (0 if rank.mode == "int" else VALIDATION_TOL) if tolerance is None else tolerance
    g = rank.ground
    full = g.full_mask
    vals = rank.values
    violations = []
    for i in range(g.n):
        drop = full ^ (1 << i)
        if vals[full] - vals[drop] < -tol:
            violations.append(Violation(
                "monotone", (g.labels[i],), subset_format(g, drop),
                rank.value(full), rank.value(drop),
            ))
    masks = lattice.masks(g.n)
    for i in range(g.n):
        for j in range(i + 1, g.n):
            avoid = masks[(masks >> i & 1 == 0) & (masks >> j & 1 == 0)]
            bi, bj = 1 << i, 1 << j
            bad = vals[avoid | bi] + vals[avoid | bj] - vals[avoid | bi | bj] - vals[avoid] < -tol
            for a in avoid[bad].tolist():
                violations.append(Violation(
                    "submodular", (g.labels[i], g.labels[j]), subset_format(g, a),
                    rank.value(a | 1 << i) + rank.value(a | 1 << j),
                    rank.value(a | 1 << i | 1 << j) + rank.value(a),
                ))
    return violations


@st.composite
def broken_int_vectors(draw):
    """A uniform matroid on 3..8 elements, nudged at a few subsets, then made
    to break both kinds: f(M) below some f(M - k), and f(B) raised above
    f(B - i) + f(B - j) - f(B - i - j) for a proper subset B of size >= 2."""
    n = draw(st.integers(3, 8))
    full = (1 << n) - 1
    values = np.minimum(lattice.sizes(n), draw(st.integers(1, n))).astype(np.int64)
    nudges = st.tuples(st.integers(1, full), st.integers(-3, 3))
    for mask, delta in draw(st.lists(nudges, max_size=8)):
        values[mask] += delta
    values[full] = values[full ^ 1 << draw(st.integers(0, n - 1))] - draw(st.integers(1, 3))
    pairs = [m for m in range(full) if m.bit_count() >= 2]
    values[draw(st.sampled_from(pairs))] += 4 * int(np.abs(values).max()) + 1
    return RankVector(ground(n), values, "int")


@st.composite
def scaled_entropy_vectors(draw):
    """The entropy vector of a random distribution on 1..6 variables, scaled
    by 10^-3 .. 10^12, so that float rounding of the checks' sums shows."""
    n = draw(st.integers(1, 6))
    d = random_distribution(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), ground(n).labels)
    scale = 10.0 ** draw(st.floats(-3, 12))
    return Polymatroid(RankVector(d.variables, entropy_vector(d).values * scale, "float"))


class TestAgainstTheFourTermCheck:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(broken_int_vectors(), st.sampled_from([None, 0, 1, 2]))
    def test_int_violations_are_the_reference_list(self, rank, tolerance):
        violations = check_polymatroid(rank, tolerance)
        assert violations == reference_check_polymatroid(rank, tolerance)
        if tolerance is None:
            assert {v.kind for v in violations} == {"monotone", "submodular"}

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(scaled_entropy_vectors())
    def test_float_verdicts_agree_beyond_rounding(self, M):
        """Both checks err by a few ulps of the largest rank (under 4 in a
        sweep of 18 000 vectors), so at 8 ulps both accept M, its dual and its
        tightening, and at the default they agree wherever it is that wide.
        Above about 10^6 the absolute default is narrower than the rounding,
        and the two checks may refuse different valid vectors."""
        for rank in (M.rank, dual(M).rank, tighten(M).rank):
            ulps = 8 * 2.0**-52 * max(np.abs(M.values).max(), np.abs(rank.values).max())
            assert check_polymatroid(rank, ulps) == [] == reference_check_polymatroid(rank, ulps)
            if ulps <= VALIDATION_TOL:
                assert check_polymatroid(rank) == [] == reference_check_polymatroid(rank)

    def test_every_small_three_element_vector(self):
        """All 4^7 int vectors on three elements with values 0..3 off the
        empty set, as int and as float vectors: the same violations, in order."""
        g, valid = ground(3), 0
        for tail in itertools.product(range(4), repeat=7):
            values = np.array((0, *tail), dtype=np.int64)
            ranks = (RankVector(g, values, "int"), RankVector(g, 1.0 * values, "float"))
            found = [check_polymatroid(rank) for rank in ranks]
            assert found == [reference_check_polymatroid(rank) for rank in ranks], tail
            valid += not found[0]
        assert valid == 127

    def test_memory_on_u_8_16(self):
        """Per element one gain array of 2^15 int64s and one pair's difference."""
        rank = uniform_matroid(8, [f"x{i}" for i in range(16)]).rank
        tracemalloc.start()
        try:
            assert check_polymatroid(rank) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * 2**20


class TestDual:
    def test_u23_to_u13(self):
        assert_polymatroids_equal(dual(U23), uniform_matroid(1, ("a", "b", "c")))

    def test_dual_of_dual_is_tighten(self, middle, tight_pm):
        assert_polymatroids_equal(dual(dual(middle)), tight_pm)

    def test_singletons_preserved_on_tight(self, tight_pm):
        d = dual(tight_pm)
        singles = [d.rank_of([l]) for l in d.ground]
        assert singles == [37, 31, 31, 38, 38]

    def test_dual_always_tight(self, middle):
        assert not is_tight(middle)
        assert is_tight(dual(middle))

    def test_involution_on_tight(self, tight_pm):
        assert_polymatroids_equal(dual(dual(tight_pm)), tight_pm)

    def test_mode_preserved(self, m_xi):
        assert dual(U23).mode == "int"
        assert dual(m_xi).mode == "float"


class TestTighten:
    def test_middle_to_right_column(self, middle, tight_pm, tight_fixture):
        assert_polymatroids_equal(tight_pm, tight_fixture)

    def test_spot_identity_for_a(self, middle, tight_pm):
        full = middle.ground.full_mask
        without_a = full ^ middle.ground.bit("a")
        delta = middle.value(full) - middle.value(without_a)
        assert middle.value(full) == 155
        assert middle.value(without_a) == 137
        assert middle.rank_of("a") - delta == 37 == tight_pm.rank_of("a")

    def test_fixed_point(self, tight_pm):
        assert_polymatroids_equal(tighten(tight_pm), tight_pm)

    def test_idempotent(self, middle):
        once = tighten(middle)
        assert_polymatroids_equal(tighten(once), once)


class TestConnectivity:
    def test_u23_connected(self):
        ok, witness = is_connected(U23)
        assert ok and witness is None

    def test_modular_pair_disconnected_with_witness(self):
        ok, witness = is_connected(MODULAR)
        assert not ok
        a, b = witness
        assert {a, b} == {0b01, 0b10}
        assert MODULAR.value(a) + MODULAR.value(b) == MODULAR.value(0b11)

    def test_tightened_table_connected(self, tight_pm):
        ok, witness = is_connected(tight_pm)
        assert ok and witness is None


class TestFactor:
    def test_identity_map(self):
        assert_polymatroids_equal(factor(U23, {l: l for l in U23.ground}, U23.ground), U23)

    def test_collapse_everything(self, middle):
        collapsed = factor(middle, {l: "all" for l in middle.ground}, ("all",))
        assert collapsed.rank_of("all") == middle.value(middle.ground.full_mask)

    def test_collapse_undoes_split(self):
        p = pm({"a": 2, "b": 1, "a,b": 2})
        split = split_atom(p, "a", 1, 1, ("a1", "a2"))
        back = collapse_pair(split, "a1", "a2", "a")
        assert_polymatroids_equal(back, p)

    def test_not_surjective_rejected(self):
        with pytest.raises(ValueError, match="surjective"):
            factor(U23, {l: "x" for l in U23.ground}, ("x", "y"))

    def test_ground_mismatch_rejected(self):
        """A map off M's own labels is a domain mismatch."""
        other = uniform_matroid(2, ("p", "q", "r"))
        with pytest.raises(ValueError, match="domain mismatch"):
            factor(other, {l: "one" for l in U23.ground}, ("one",))


class TestUniformMatroid:
    @pytest.mark.parametrize("k", [True, 1.5, -1])
    def test_rank_must_be_an_integer_at_least_zero(self, k):
        with pytest.raises(ValueError, match=re.escape(f"k must be an integer >= 0, got {k!r}")):
            uniform_matroid(k, ("a", "b", "c"))

    def test_numpy_integer_rank(self):
        assert_polymatroids_equal(uniform_matroid(np.int64(2), ("a", "b", "c")), U23)

    @pytest.mark.parametrize(
        "k", [3, 4, 2**63, pytest.param(10**400, id="10**400"), np.uint64(2**63)]
    )
    def test_rank_past_the_ground_set_is_the_free_matroid(self, k):
        free = uniform_matroid(k, ("a", "b", "c"))
        assert free.values.dtype == np.int64
        assert free.values.tolist() == lattice.sizes(3).tolist()


@pytest.mark.parametrize("mode, default, want", [
    ("int", VALIDATION_TOL, 0), ("float", VALIDATION_TOL, VALIDATION_TOL),
    ("int", DECISION_TOL, 0), ("float", DECISION_TOL, DECISION_TOL),
])
def test_resolve_tol_defaults_by_mode(mode, default, want):
    """No tolerance given: exact in int mode, the default in float mode; one given is kept."""
    assert resolve_tol(None, default, mode) == want
    assert resolve_tol(0.25, default, mode) == 0.25


class TestPrincipalExtension:
    def test_alpha_zero_gives_loop(self):
        ext = principal_extension(U23, "a", 0, "a0")
        bit = ext.ground.bit("a0")
        for mask in range(1 << 3):
            assert ext.value(mask | bit) == ext.value(mask)

    def test_alpha_at_singleton_duplicates(self):
        u12 = uniform_matroid(1, ("a", "b"))
        ext = principal_extension(u12, "a", 1, "c")
        assert ext.rank == uniform_matroid(1, ("a", "b", "c")).rank

    def test_old_subsets_unchanged(self, tight_pm):
        ext = principal_extension(tight_pm, "d", 2, "f")
        for mask in range(1 << 5):
            assert ext.value(mask) == tight_pm.value(mask)

    def test_duplicate_label_rejected(self):
        from polyshare import DuplicateLabel

        with pytest.raises(DuplicateLabel):
            principal_extension(U23, "a", 1, "b")

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            principal_extension(U23, "a", -1, "z")

    def test_int_mode_needs_integer_alpha(self):
        with pytest.raises(ModeError):
            principal_extension(U23, "a", 0.5, "z")

    @pytest.mark.parametrize("alpha", ["1", "2.0", b"1", True, np.bool_(True), None])
    def test_alpha_that_is_not_a_number_is_named(self, alpha):
        with pytest.raises(ValueError, match=re.escape(f"alpha must be a number, got {alpha!r}")):
            principal_extension(U23, "a", alpha, "z")
        with pytest.raises(ValueError, match="alpha1 must be a number"):
            split_atom(pm({"a": 2}), "a", alpha, 1, ("a1", "a2"))

    @pytest.mark.parametrize("alpha", [1, np.int64(1), np.uint8(1), 1.0, np.float32(1), Fraction(1)])
    def test_integral_alpha_of_any_real_type_extends_alike(self, alpha):
        assert principal_extension(U23, "a", alpha, "z") == principal_extension(U23, "a", 1, "z")


class TestSplitAtom:
    def test_single_element_split(self):
        p = pm({"a": 2})
        out = split_atom(p, "a", 1, 1, ("a1", "a2"))
        assert out.rank == pm({"a1": 1, "a2": 1, "a1,a2": 2}).rank

    def test_four_formulas_on_pair(self):
        p = pm({"a": 2, "b": 1, "a,b": 2})
        out = split_atom(p, "a", 1, 1, ("a1", "a2"))
        assert out.ground.labels == ("a1", "a2", "b")
        assert out.rank_of("a1") == 1
        assert out.rank_of("a1,b") == 2
        assert out.rank_of("a1,a2") == 2
        assert out.rank_of("a1,a2,b") == 2

    def test_unbalanced_split(self):
        p = pm({"a": 3, "b": 2, "a,b": 4})
        out = split_atom(p, "a", 1, 2, ("a1", "a2"))
        assert out.rank_of("a1") == 1
        assert out.rank_of("a2") == 2
        assert out.rank_of("a1,a2") == 3
        back = collapse_pair(out, "a1", "a2", "a")
        assert_polymatroids_equal(back, p)

    def test_alpha_sum_enforced(self):
        p = pm({"a": 2, "b": 1, "a,b": 2})
        with pytest.raises(ValueError, match="alpha1 \\+ alpha2"):
            split_atom(p, "a", 1, 2, ("a1", "a2"))

    def test_split_preserves_other_elements(self, tight_pm):
        out = split_atom(tight_pm, "b", 15, 16, ("b1", "b2"))
        assert out.ground.labels == ("a", "b1", "b2", "c", "d", "e")
        assert out.rank_of("a,c,d,e") == tight_pm.rank_of("a,c,d,e")
        assert out.rank_of("b1,b2") == tight_pm.rank_of("b")
        assert_polymatroids_equal(collapse_pair(out, "b1", "b2", "b"), tight_pm)


class TestBasisR:
    def test_indicator_values(self):
        g = GroundSet("abcde")
        r = basis_r(g, subset_parse(g, "a,b,c"))
        assert r.rank_of("d") == 0
        assert r.rank_of("a,d") == 1

    def test_singleton_indicator(self):
        g = GroundSet("abcde")
        r = basis_r(g, g.bit("a"))
        for mask in range(1 << 5):
            assert r.value(mask) == (1 if mask & 1 else 0)

    def test_31_vectors_linearly_independent(self):
        g = GroundSet("abcde")
        rows = [basis_r(g, A).values[1:] for A in range(1, 32)]
        assert np.linalg.matrix_rank(np.array(rows, dtype=float)) == 31

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            basis_r(GroundSet("abcde"), 0)


class TestLinearCombine:
    def test_identity_combination(self):
        out = linear_combine([(1, U23)])
        assert out == RankVector(U23.ground, np.asarray(U23.values, float), "float")

    def test_scaled_u12(self):
        u12 = uniform_matroid(1, ("a", "b"))
        out = linear_combine([(2, u12)])
        assert json.loads(rank_document(out))["ranks"] == {"a": 2.0, "b": 2.0, "a,b": 2.0}

    def test_published_combination_is_nearly_integer(self, combination, middle):
        residual = np.abs(combination.values - middle.values)
        assert residual.max() < 1e-3

    def test_ground_mismatch(self):
        with pytest.raises(GroundSetMismatch):
            linear_combine([(1, U23), (1, uniform_matroid(2, ("x", "y", "z")))])

    def test_negative_coefficient(self):
        with pytest.raises(ValueError):
            linear_combine([(-1, U23)])

    def test_empty_terms(self):
        with pytest.raises(ValueError):
            linear_combine([])

    @pytest.mark.parametrize("coeff, message", [
        ("x", "coefficient must be a number, got 'x'"),
        ("2", "coefficient must be a number, got '2'"),
        (True, "coefficient must be a number, got True"),
        (None, "coefficient must be a number, got None"),
        (math.nan, "coefficient must be finite and within the float range, got nan"),
        (math.inf, "coefficient must be finite and within the float range, got inf"),
        (10**400, "coefficient must be finite and within the float range"),
        (-0.5, "coefficient must be >= 0, got -0.5"),
    ], ids=["str", "numeric-str", "bool", "None", "nan", "inf", "1e400", "negative"])
    def test_bad_coefficient_is_named(self, coeff, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            linear_combine([(1, U23), (coeff, U23)])

    def test_valid_coefficients_scale_as_floats(self, m_xi):
        for coeff in (3, 0.1, np.float32(0.1), Fraction(1, 3), 2**70):
            want = float(coeff) * m_xi.values
            assert np.array_equal(linear_combine([(coeff, m_xi)]).values, want)


class TestRoundToInteger:
    def test_snaps_small_noise(self, middle):
        rng = np.random.default_rng(5)
        noise = rng.uniform(-2e-4, 2e-4, middle.values.shape)
        noise[0] = 0
        fuzzed = RankVector(middle.ground, middle.values + noise, "float")
        assert round_to_integer(fuzzed) == middle.rank

    def test_large_residual_names_subset(self):
        g = GroundSet("ab")
        rv = RankVector.from_ranks(g, {"a": 54.4, "b": 1.0, "a,b": 55.0}, "float")
        with pytest.raises(ResidualTooLarge) as err:
            round_to_integer(rv)
        assert err.value.subset == "a"

    def test_combination_rounds_to_middle(self, combination, middle):
        assert round_to_integer(combination) == middle.rank

    def test_result_must_validate(self):
        g = GroundSet("ab")
        rv = RankVector.from_ranks(g, {"a": 1.0, "b": 1.0, "a,b": 3.0}, "float")
        with pytest.raises(ValidationError):
            round_to_integer(rv)
