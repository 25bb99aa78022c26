"""Information expressions and the MMRV inequality."""

import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from polyshare import (
    GroundSet,
    InfoTerm,
    Polymatroid,
    RankVector,
    conditional_entropy,
    dual,
    eval_term,
    linear_combine,
    mmrv,
    mmrv_identity_residual,
    principal_extension,
    subset_parse,
    uniform_matroid,
    validate_polymatroid,
)
from polyshare.inequalities import MMRV, MMRV_DECOMPOSITION, MMRV_SLACK, _table_value

from generators import coverage_polymatroid, pm

MMRV_TABLE1 = 0.1084939586639172
MMRV_TABLE1_DUAL = -0.0715364551449138


class TestInfoTerm:
    def test_overlapping_args_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            InfoTerm(0b011, 0b110)

    def test_arg_overlapping_conditioning_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            conditional_entropy(0b01, 0b01)

    def test_empty_arg_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            conditional_entropy(0)

    @pytest.mark.parametrize("build", [
        lambda: conditional_entropy(1.0),
        lambda: InfoTerm(1, 2.5),
        lambda: conditional_entropy(1, 2.0),
        lambda: conditional_entropy(np.float64(1)),
        lambda: conditional_entropy(True),
        lambda: InfoTerm(1, 2, -4),
    ])
    def test_non_integer_bool_or_negative_mask_rejected(self, build):
        with pytest.raises(ValueError, match="is not a subset: masks are integers >= 0$"):
            build()

    def test_numpy_integer_masks_accepted(self):
        term = InfoTerm(np.int64(1), np.uint8(2), np.int32(4))
        assert (term.a, term.b, term.given) == (1, 2, 4)

    def test_conditional_entropy_is_the_term_with_b_equal_to_a(self):
        assert conditional_entropy(0b011, 0b100, coeff=2) == InfoTerm(0b011, 0b011, 0b100, 2)

    @pytest.mark.parametrize("coeff", [
        "2", None, True, False, np.True_, float("nan"), float("inf"), -math.inf,
        np.float64("nan"), 1j, [1], 10**400, -(10**400), Fraction(10**400, 3),
    ], ids=lambda coeff: f"{coeff!r:.20}")
    def test_coefficient_must_be_a_finite_real(self, coeff):
        refused = r"^coefficient .* is not a finite real number in the float range$"
        with pytest.raises(ValueError, match=refused) as info:
            conditional_entropy(1, coeff=coeff)
        assert repr(coeff)[:40] in str(info.value)

    @pytest.mark.parametrize("coeff", [0, -3, 2.5, np.int64(-2), np.float64(0.5),
                                       Fraction(1, 3), 2**62 + 1])
    def test_finite_real_coefficients_accepted(self, coeff):
        assert InfoTerm(1, 2, coeff=coeff).coeff is coeff


class TestEval:
    def test_independent_pair_has_zero_mi(self):
        modular = pm({"a": 1, "b": 1, "a,b": 2})
        assert eval_term(InfoTerm(0b01, 0b10), modular) == 0

    def test_duplicate_pair_has_zero_conditional_entropy(self):
        u12 = uniform_matroid(1, ("a", "b"))
        assert eval_term(conditional_entropy(0b01, 0b10), u12) == 0

    def test_shannon_terms_nonnegative_on_table1(self, m_xi):
        g = m_xi.ground
        term = InfoTerm(g.bit("b"), g.bit("c"), g.bit("d"))
        assert eval_term(term, m_xi) >= 0

    def test_integer_mode_stays_integer(self):
        u13 = uniform_matroid(1, ("a", "b", "c"))
        value = eval_term(InfoTerm(0b001, 0b010), u13)
        assert value == 1 and type(value) is int

    def test_out_of_range_mask_rejected(self):
        u12 = uniform_matroid(1, ("a", "b"))
        with pytest.raises(ValueError, match="mask 4 is not a subset: out of range for 2 elements"):
            eval_term(conditional_entropy(0b100), u12)

    def test_conditional_entropy_is_f_ac_minus_f_c(self):
        """H(a|c) through the one term rule equals f(ac) - f(c) exactly, in
        value and in type, on int and float polymatroids."""
        rng = np.random.default_rng(41)
        for mode in ("int", "float"):
            for _ in range(20):
                p = coverage_polymatroid(rng, 4, mode=mode, truncate=True)
                for a in range(1, 16):
                    for c in range(16):
                        if a & c:
                            continue
                        got = eval_term(conditional_entropy(a, c), p)
                        want = p.value(a | c) - p.value(c)
                        assert got == want and type(got) is type(want)

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
                assert eval_term(InfoTerm(a, b, c), p) >= -1e-9


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

    @pytest.mark.parametrize("roles", ["abcde", "a,b,c,d,e"])
    def test_string_roles_rejected(self, middle, roles):
        # a string would be read as its characters, five labels for "abcde"
        for read in (lambda M: mmrv(M, roles), lambda M: role_residual(M, roles)):
            with pytest.raises(ValueError, match="roles takes an iterable of labels, not the string"):
                read(dual(middle))
        assert mmrv(dual(middle), list("abcde")) == -1

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
        assert _table_value(d, MMRV + MMRV_SLACK) >= 0

    def test_slack_nonnegative_on_random_polymatroids(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            p = coverage_polymatroid(rng, 5, mode="float", truncate=True)
            assert _table_value(p, MMRV + MMRV_SLACK) >= -1e-9

    def test_identity_holds_under_role_permutation(self, m_xi):
        assert abs(role_residual(m_xi, ("e", "d", "c", "b", "a"))) <= 1e-9


def role_residual(p, roles):
    """``mmrv_identity_residual`` with the labels of ``roles`` playing a..e."""
    return _table_value(p, MMRV + MMRV_SLACK, roles) - _table_value(p, MMRV_DECOMPOSITION, roles)


def reference_mmrv(f, a, b, c, d, e):
    """(MMRV, identity residual) from the role masks a..e, with the seven MMRV
    terms, the slack 3 I(a;de|bc) and the ten-term decomposition written out
    as four-term rank sums f(xz) + f(yz) - f(xyz) - f(z), summed in order."""
    mmrv_terms = [
        f(a | c) + f(b | c) - f(a | b | c) - f(c),  # I(a;b|c)
        f(b | a) + f(c | a) - f(b | c | a) - f(a),  # I(b;c|a)
        f(c | b) + f(a | b) - f(c | a | b) - f(b),  # I(c;a|b)
        f(b | d) + f(c | d) - f(b | c | d) - f(d),  # I(b;c|d)
        f(b | e) + f(c | e) - f(b | c | e) - f(e),  # I(b;c|e)
        f(d) + f(e) - f(d | e) - f(0),  # I(d;e)
        -1 * (f(b) + f(c) - f(b | c) - f(0)),  # -I(b;c)
    ]
    slack = 3 * (f(a | b | c) + f(d | e | b | c) - f(a | d | e | b | c) - f(b | c))
    decomposition = [
        f(a | b) + f(d | b) - f(a | d | b) - f(b),  # I(a;d|b)
        f(a | c) + f(d | c) - f(a | d | c) - f(c),  # I(a;d|c)
        f(a | b) + f(e | b) - f(a | e | b) - f(b),  # I(a;e|b)
        f(a | c) + f(e | c) - f(a | e | c) - f(c),  # I(a;e|c)
        f(b | a | d) + f(c | a | d) - f(b | c | a | d) - f(a | d),  # I(b;c|ad)
        f(b | a | e) + f(c | a | e) - f(b | c | a | e) - f(a | e),  # I(b;c|ae)
        f(a | d | e) + f(b | c | d | e) - f(a | b | c | d | e) - f(d | e),  # I(a;bc|de)
        f(d | a) + f(e | a) - f(d | e | a) - f(a),  # I(d;e|a)
        f(a | b | c | d) + f(e | b | c | d) - f(a | e | b | c | d) - f(b | c | d),  # I(a;e|bcd)
        f(a | b | c | e) + f(d | b | c | e) - f(a | d | b | c | e) - f(b | c | e),  # I(a;d|bce)
    ]
    return sum(mmrv_terms), sum(mmrv_terms + [slack]) - sum(decomposition)


class TestTablesAgainstReference:
    """``mmrv`` and ``mmrv_identity_residual`` read role tables; they must
    equal the written-out sums exactly, in value and in Python type."""

    @staticmethod
    def check(p, roles):
        bits = [p.ground.bit(label) for label in (roles or p.ground.labels)]
        want = reference_mmrv(p.value, *bits)
        residual = mmrv_identity_residual(p) if roles is None else role_residual(p, roles)
        got = (mmrv(p, roles), residual)
        assert got == want
        assert list(map(type, got)) == list(map(type, want))

    @pytest.mark.parametrize("mode", ["int", "float"])
    def test_permuted_roles(self, mode):
        rng = np.random.default_rng(59 if mode == "int" else 61)
        orders = list(permutations("abcde"))
        for _ in range(30):
            p = coverage_polymatroid(rng, 5, mode=mode, truncate=bool(rng.integers(2)))
            self.check(p, None)
            for k in rng.choice(len(orders), size=4, replace=False):
                self.check(p, orders[k])

    @pytest.mark.parametrize("mode", ["int", "float"])
    def test_roles_on_six_elements(self, mode):
        rng = np.random.default_rng(67 if mode == "int" else 71)
        for _ in range(20):
            p = coverage_polymatroid(rng, 6, mode=mode, truncate=True)
            self.check(p, tuple(rng.permutation(p.ground.labels)[:5].tolist()))

    def test_bundled_vectors(self, m_xi, middle):
        for p in (m_xi, dual(m_xi), middle, dual(middle)):
            self.check(p, None)
            self.check(p, ("e", "c", "a", "d", "b"))
