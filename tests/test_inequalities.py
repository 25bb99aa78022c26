"""Information expressions and the MMRV inequality."""

import numpy as np
import pytest

from polyshare import (
    GroundSet,
    InfoExpression,
    InfoTerm,
    Polymatroid,
    RankVector,
    conditional_entropy,
    dual,
    eval_expression,
    linear_combine,
    mmrv,
    mmrv_identity_residual,
    mutual_information,
    principal_extension,
    subset_parse,
    uniform_matroid,
    validate_polymatroid,
)
from polyshare.inequalities import eval_term, mmrv_slack_expression

from generators import coverage_polymatroid, pm

MMRV_TABLE1 = 0.1084939586639172
MMRV_TABLE1_DUAL = -0.0715364551449138


class TestInfoTerm:
    def test_overlapping_args_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            mutual_information(0b011, 0b110)

    def test_arg_overlapping_conditioning_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            conditional_entropy(0b01, 0b01)

    def test_empty_arg_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            conditional_entropy(0)

    @pytest.mark.parametrize("build", [
        lambda: conditional_entropy(1.0),
        lambda: mutual_information(1, 2.5),
        lambda: conditional_entropy(1, 2.0),
        lambda: conditional_entropy(np.float64(1)),
        lambda: conditional_entropy(True),
        lambda: mutual_information(1, 2, -4),
    ])
    def test_non_integer_bool_or_negative_mask_rejected(self, build):
        with pytest.raises(ValueError, match="is not a subset: masks are integers >= 0$"):
            build()

    def test_numpy_integer_masks_accepted(self):
        assert mutual_information(np.int64(1), np.uint8(2), np.int32(4)).args == (1, 2)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            InfoTerm("J", (1, 2))

    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            InfoTerm("H", (1, 2))
        with pytest.raises(ValueError):
            InfoTerm("I", (1,))


class TestEval:
    def test_independent_pair_has_zero_mi(self):
        modular = pm({"a": 1, "b": 1, "a,b": 2})
        assert eval_term(mutual_information(0b01, 0b10), modular) == 0

    def test_duplicate_pair_has_zero_conditional_entropy(self):
        u12 = uniform_matroid(1, ("a", "b"))
        assert eval_term(conditional_entropy(0b01, 0b10), u12) == 0

    def test_shannon_terms_nonnegative_on_table1(self, m_xi):
        g = m_xi.ground
        term = mutual_information(g.bit("b"), g.bit("c"), g.bit("d"))
        assert eval_term(term, m_xi) >= 0

    def test_integer_mode_stays_integer(self):
        u13 = uniform_matroid(1, ("a", "b", "c"))
        value = eval_term(mutual_information(0b001, 0b010), u13)
        assert value == 1 and type(value) is int

    def test_out_of_range_mask_rejected(self):
        u12 = uniform_matroid(1, ("a", "b"))
        with pytest.raises(ValueError, match="mask 4 is not a subset: out of range for 2 elements"):
            eval_term(conditional_entropy(0b100), u12)

    def test_expression_sums_terms(self):
        u23 = uniform_matroid(2, ("a", "b", "c"))
        expr = InfoExpression(
            [conditional_entropy(0b001), conditional_entropy(0b010, coeff=2)]
        )
        assert eval_expression(expr, u23) == 3

    def test_every_shannon_term_nonnegative_on_random_polymatroids(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            p = coverage_polymatroid(rng, 4, mode="float", truncate=True)
            masks = [int(m) for m in rng.integers(1, 16, size=3)]
            a = masks[0]
            b = masks[1] & ~a
            c = masks[2] & ~(a | b)
            assert eval_term(conditional_entropy(a, c), p) >= -1e-9
            if b:
                assert eval_term(mutual_information(a, b, c), p) >= -1e-9


class TestMmrv:
    def test_table1_value(self, m_xi):
        value = mmrv(m_xi)
        assert value == pytest.approx(0.108494, abs=1e-4)
        assert value == pytest.approx(MMRV_TABLE1, abs=1e-12)

    def test_table1_dual_value(self, m_xi):
        value = mmrv(dual(m_xi))
        assert value == pytest.approx(-0.0715364, abs=1e-5)
        assert value == pytest.approx(MMRV_TABLE1_DUAL, abs=1e-12)

    def test_integer_dual_is_minus_one(self, middle):
        value = mmrv(dual(middle))
        assert value == -1
        assert type(value) is int

    def test_wrong_arity_rejected(self):
        u23 = uniform_matroid(2, ("a", "b", "c"))
        with pytest.raises(ValueError, match="five"):
            mmrv(u23)

    def test_roles_on_six_elements_read_the_five_element_restriction(self, middle):
        M6 = principal_extension(dual(middle), "c", 3, "f")
        for roles in (("a", "b", "c", "d", "e"), ("f", "c", "a", "e", "b"), ("b", "f", "d", "a", "c")):
            bits = [M6.ground.bit(label) for label in roles]
            values = [
                M6.value(sum(b for j, b in enumerate(bits) if m >> j & 1)) for m in range(32)
            ]
            restriction = Polymatroid(RankVector(GroundSet(roles), values, "int"))
            assert mmrv(M6, roles) == mmrv(restriction)
        assert mmrv(M6, ("a", "b", "c", "d", "e")) == -1
        with pytest.raises(ValueError, match="five-element"):
            mmrv(M6)

    def test_roles_default_is_ground_order(self, m_xi):
        assert mmrv(m_xi, roles=("a", "b", "c", "d", "e")) == mmrv(m_xi)

    def test_roles_relabelling_is_transparent(self, m_xi):
        from polyshare import RankVector

        g = GroundSet(("v", "w", "x", "y", "z"))
        renamed = validate_polymatroid(RankVector(g, m_xi.values, "float"))
        assert mmrv(renamed, roles=("v", "w", "x", "y", "z")) == mmrv(m_xi)

    def test_roles_actually_permute(self, m_xi):
        swapped = mmrv(m_xi, roles=("b", "a", "c", "d", "e"))
        assert swapped != pytest.approx(mmrv(m_xi), abs=1e-6)

    def test_duplicate_roles_rejected(self, m_xi):
        with pytest.raises(ValueError, match="distinct"):
            mmrv(m_xi, roles=("a", "a", "c", "d", "e"))

    def test_linearity(self, m_xi):
        tripled = validate_polymatroid(linear_combine([(3, m_xi)]))
        assert mmrv(tripled) == pytest.approx(3 * mmrv(m_xi), abs=1e-9)


class TestIdentity:
    def test_random_polymatroids(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            p = coverage_polymatroid(rng, 5, mode="float", truncate=True)
            assert abs(mmrv_identity_residual(p)) <= 1e-9

    def test_table1_entropy_vector(self, m_xi):
        assert abs(mmrv_identity_residual(m_xi)) <= 1e-9

    def test_integer_polymatroid_exact_zero(self, middle):
        residual = mmrv_identity_residual(middle)
        assert residual == 0
        assert type(residual) is int

    def test_slack_nonnegative_even_where_mmrv_fails(self, middle):
        d = dual(middle)
        assert mmrv(d) == -1
        slack = eval_expression(mmrv_slack_expression(d.ground), d)
        assert slack >= 0

    def test_slack_nonnegative_on_random_polymatroids(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            p = coverage_polymatroid(rng, 5, mode="float", truncate=True)
            assert eval_expression(mmrv_slack_expression(p.ground), p) >= -1e-9

    def test_identity_holds_under_role_permutation(self, m_xi):
        assert abs(mmrv_identity_residual(m_xi, roles=("e", "d", "c", "b", "a"))) <= 1e-9
