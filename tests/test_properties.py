"""Property-based checks of the structural identities.

Randomized but derandomized: hypothesis replays a fixed example stream, so
failures reproduce.  The seeded high-volume sweeps live in the acceptance
suite; these runs go for input variety instead.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyshare import (
    FactorMap,
    GroundSet,
    JointDistribution,
    Polymatroid,
    RankVector,
    basis_r,
    block_collapse,
    check_polymatroid,
    collapse_pair,
    conditional_product,
    dual,
    entropy_vector,
    expanded_mmrv,
    factor,
    helgason_expand,
    inequalities,
    is_qualified,
    is_connected,
    is_tight,
    marginal,
    matroid_port,
    mmrv_identity_residual,
    principal_extension,
    product_power,
    sigma,
    split_atom,
    subset_format,
    subset_parse,
    tighten,
    uniform_matroid,
    validate_polymatroid,
)
from polyshare.core import mu

from generators import LETTERS, assert_polymatroids_equal, ground
from test_entropy import assert_matches_references
from test_matroid import (
    reference_block_collapse,
    reference_expanded_mmrv,
    reference_port,
    reference_rank,
    reference_sigma,
)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# strategies

@st.composite
def coverage_polymatroids(draw, mode, min_n=2, max_n=4, truncate=True):
    """Weighted coverage functions, optionally truncated by a constant cap.

    Int mode draws weights 1..3 and caps 1..6; float mode draws real weights
    in [0.01, 2] and caps in [0.01, 10], so every value is at most 10.
    """
    weights, caps = {
        "int": (st.integers(1, 3), st.integers(1, 6)),
        "float": (st.floats(0.01, 2.0), st.floats(0.01, 10.0)),
    }[mode]
    n = draw(st.integers(min_n, max_n))
    g = ground(n)
    full = g.full_mask
    terms = draw(
        st.lists(
            st.tuples(st.integers(1, full), weights),
            min_size=1,
            max_size=5,
        )
    )
    masks = np.arange(full + 1)
    values = np.zeros(full + 1, dtype=np.int64 if mode == "int" else np.float64)
    for hit, weight in terms:
        values += np.where(masks & hit, weight, 0)
    if truncate and draw(st.booleans()):
        cap = draw(caps)
        values = np.minimum(values, cap)
    return validate_polymatroid(RankVector(g, values, mode))


def int_polymatroids(**kwargs):
    return coverage_polymatroids("int", **kwargs)


@st.composite
def tight_polymatroids(draw, **kwargs):
    return tighten(draw(int_polymatroids(**kwargs)))


@st.composite
def expansion_bases(draw, min_n=1, max_n=3, max_cap=3):
    """Int polymatroids capped at a small constant, so that their expansions
    have few atoms, and at times with a loop (an empty block) put in."""
    M = draw(int_polymatroids(min_n=min_n, max_n=max_n))
    values = np.minimum(M.values, draw(st.integers(1, max_cap)))
    n = M.ground.n
    if draw(st.booleans()):
        i = draw(st.integers(0, n))
        values = np.repeat(values.reshape(-1, 1, 1 << i), 2, axis=1).ravel()
        n += 1
    return validate_polymatroid(RankVector(ground(n), values, "int"))


VALUE_ALPHABETS = ((0, 1, 2), (-1, 0, 1), (-(1 << 41), 0, (1 << 40) + 3))


@st.composite
def distributions(draw, max_vars=3):
    """Few rows over three outcome values (small, negative or beyond 2^40);
    some rows may have probability zero."""
    n = draw(st.integers(1, max_vars))
    g = ground(n)
    alphabet = draw(st.sampled_from(VALUE_ALPHABETS))
    rows = draw(
        st.lists(
            st.tuples(*[st.sampled_from(alphabet)] * n),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    weights = draw(
        st.lists(
            st.integers(0, 9), min_size=len(rows), max_size=len(rows)
        ).filter(any)
    )
    probs = np.asarray(weights, dtype=np.float64)
    probs /= probs.sum()
    return JointDistribution(g, np.asarray(rows, dtype=np.int64), probs)


# ---------------------------------------------------------------------------
# duality

class TestDuality:
    @SETTINGS
    @given(int_polymatroids())
    def test_double_dual_is_tightening(self, M):
        assert_polymatroids_equal(dual(dual(M)), tighten(M))

    @SETTINGS
    @given(tight_polymatroids())
    def test_double_dual_fixes_tight_polymatroids(self, T):
        assert_polymatroids_equal(dual(dual(T)), T)

    @SETTINGS
    @given(int_polymatroids())
    def test_dual_is_always_tight(self, M):
        assert is_tight(dual(M))

    @SETTINGS
    @given(int_polymatroids())
    def test_dual_preserves_connectivity(self, M):
        assert is_connected(dual(M))[0] == is_connected(M)[0]

    @SETTINGS
    @given(int_polymatroids())
    def test_dual_full_value_is_mu_minus_rank(self, M):
        full = M.ground.full_mask
        assert dual(M).value(full) == mu(M.rank, full) - M.value(full)


class TestTightening:
    @SETTINGS
    @given(int_polymatroids())
    def test_tighten_is_idempotent(self, M):
        T = tighten(M)
        assert_polymatroids_equal(tighten(T), T)

    @SETTINGS
    @given(int_polymatroids())
    def test_tighten_removes_exactly_the_private_information(self, M):
        T = tighten(M)
        full = M.ground.full_mask
        assert np.all(T.values <= M.values)
        deficiency = sum(
            M.value(full) - M.value(full ^ (1 << i)) for i in range(M.ground.n)
        )
        assert T.value(full) == M.value(full) - deficiency

    @SETTINGS
    @given(tight_polymatroids())
    def test_tight_means_every_deletion_keeps_rank(self, T):
        full = T.ground.full_mask
        for i in range(T.ground.n):
            assert T.value(full ^ (1 << i)) == T.value(full)


# ---------------------------------------------------------------------------
# splitting and extension

class TestSplitting:
    @SETTINGS
    @given(tight_polymatroids(), st.data())
    def test_split_commutes_with_dual_on_tight(self, T, data):
        splittable = [l for l in T.ground if T.rank_of(l) >= 2]
        if not splittable:
            return
        a = data.draw(st.sampled_from(splittable))
        ha = T.rank_of(a)
        a1 = data.draw(st.integers(1, ha - 1))
        names = ("x1", "x2")
        left = split_atom(dual(T), a, a1, ha - a1, names)
        right = dual(split_atom(T, a, a1, ha - a1, names))
        assert_polymatroids_equal(left, right)

    @SETTINGS
    @given(int_polymatroids(), st.data())
    def test_collapse_undoes_split(self, M, data):
        splittable = [l for l in M.ground if M.rank_of(l) >= 2]
        if not splittable:
            return
        a = data.draw(st.sampled_from(splittable))
        ha = M.rank_of(a)
        a1 = data.draw(st.integers(1, ha - 1))
        S = split_atom(M, a, a1, ha - a1, ("x1", "x2"))
        assert_polymatroids_equal(collapse_pair(S, "x1", "x2", a), M)

    @SETTINGS
    @given(int_polymatroids(), st.data())
    def test_principal_extension_is_valid_and_conservative(self, M, data):
        a = data.draw(st.sampled_from(list(M.ground)))
        alpha = data.draw(st.integers(0, 4))
        ext = principal_extension(M, a, alpha, "t")
        assert check_polymatroid(ext.rank) == []
        for mask in range(M.ground.full_mask + 1):
            assert ext.value(mask) == M.value(mask)
        assert ext.rank_of("t") == min(alpha, M.rank_of(a))


# ---------------------------------------------------------------------------
# closure: these operations build their results without validating them, so
# the tests check every output against the elemental inequalities, exactly in
# int mode and within the float default on values of at most 10

def assert_valid(P):
    assert isinstance(P, Polymatroid)
    assert check_polymatroid(P.rank) == []


def _factor(M, data):
    n = M.ground.n
    targets = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    block = {label: f"t{t}" for label, t in zip(M.ground.labels, targets)}
    return factor(M, FactorMap(M.ground, GroundSet(sorted(set(block.values()))), block))


def _collapse_pair(M, data):
    i = data.draw(st.integers(0, M.ground.n - 2))
    return collapse_pair(M, M.ground.labels[i], M.ground.labels[i + 1], "z")


def _principal_extension(M, data):
    a = data.draw(st.sampled_from(M.ground.labels))
    alpha = data.draw(st.integers(0, 10) if M.mode == "int" else st.floats(0.0, 10.0))
    return principal_extension(M, a, alpha, "t")


def _split_atom(M, data):
    a = data.draw(st.sampled_from(M.ground.labels))
    ha = M.rank_of(a)
    if M.mode == "int":
        a1 = data.draw(st.integers(0, ha))
    else:
        a1 = ha * data.draw(st.floats(0.0, 1.0))
    return split_atom(M, a, a1, ha - a1, ("x1", "x2"))


# name: operation on a polymatroid of either mode, drawing its other arguments
CLOSED_OPERATIONS = {
    "dual": lambda M, data: dual(M),
    "tighten": lambda M, data: tighten(M),
    "factor": _factor,
    "collapse_pair": _collapse_pair,
    "principal_extension": _principal_extension,
    "split_atom": _split_atom,
}


class TestClosure:
    @pytest.mark.parametrize("mode", ["int", "float"])
    @pytest.mark.parametrize("name", sorted(CLOSED_OPERATIONS))
    @SETTINGS
    @given(data=st.data())
    def test_operation_returns_a_polymatroid(self, name, mode, data):
        M = data.draw(coverage_polymatroids(mode))
        assert_valid(CLOSED_OPERATIONS[name](M, data))

    @SETTINGS
    @given(distributions(), st.integers(1, 4))
    def test_product_power(self, d, copies):
        assert_valid(product_power(d, copies))  # float mode only

    @SETTINGS
    @given(st.integers(1, 6), st.data())
    def test_basis_r(self, n, data):
        assert_valid(basis_r(ground(n), data.draw(st.integers(1, (1 << n) - 1))))

    @SETTINGS
    @given(st.integers(1, 6), st.data())
    def test_uniform_matroid(self, n, data):
        assert_valid(uniform_matroid(data.draw(st.integers(0, n + 1)), LETTERS[:n]))

    @pytest.mark.parametrize("dualized", [False, True])
    @SETTINGS
    @given(int_polymatroids(min_n=1, max_n=4))
    def test_block_collapse(self, dualized, M):
        assert_valid(block_collapse(helgason_expand(M, dualized)))

    @pytest.mark.parametrize("dualized", [False, True])
    @SETTINGS
    @given(int_polymatroids(min_n=5, max_n=5))
    def test_expanded_mmrv(self, dualized, M):
        """The five-block polymatroid that expanded_mmrv evaluates."""
        with mock.patch("polyshare.inequalities.mmrv", wraps=inequalities.mmrv) as spy:
            expanded_mmrv(helgason_expand(M, dualized))
        (evaluated,), _ = spy.call_args
        assert_valid(evaluated)


# ---------------------------------------------------------------------------
# expansion

class TestExpansion:
    @SETTINGS
    @given(int_polymatroids(min_n=1, max_n=3), st.data())
    def test_expanded_rank_is_the_minimisation(self, M, data):
        E = helgason_expand(M)
        counts = tuple(
            data.draw(st.integers(0, size)) for size in E.block_sizes
        )
        got = E.rank_of_counts(counts)
        g = M.ground
        want = min(
            M.value(A)
            + sum(c for i, c in enumerate(counts) if not A >> i & 1)
            for A in range(g.full_mask + 1)
        )
        assert got == want

    @SETTINGS
    @given(tight_polymatroids(min_n=1, max_n=3), st.data())
    def test_dualized_expansion_matches_dual_of_base(self, T, data):
        Ed = helgason_expand(T, dualized=True)
        E_of_dual = helgason_expand(dual(T))
        counts = tuple(
            data.draw(st.integers(0, size)) for size in Ed.block_sizes
        )
        assert Ed.rank_of_counts(counts) == E_of_dual.rank_of_counts(counts)


    @SETTINGS
    @given(expansion_bases(), st.data())
    def test_oracle_matches_the_references(self, M, data):
        """Ranks one at a time and in a batch, ports, sigma and block_collapse
        of both orientations against the per-query references."""
        for E in (helgason_expand(M), helgason_expand(M).dual()):
            rows = data.draw(
                st.lists(st.tuples(*[st.integers(0, s) for s in E.block_sizes]), min_size=1)
            )
            want = [reference_rank(E, row) for row in rows]
            assert [E.rank_of_counts(row) for row in rows] == want
            assert E.ranks_of_counts(np.array(rows)).tolist() == want
            assert block_collapse(E).values.tolist() == reference_block_collapse(E)
            secret = data.draw(st.sampled_from(E.element_names))
            want_sigma = reference_sigma(E, secret)
            if isinstance(want_sigma, str):
                with pytest.raises(ValueError, match=want_sigma):
                    sigma(E, secret)
            else:
                assert sigma(E, secret) == want_sigma
            flags = reference_port(E, secret)
            if flags is None:
                with pytest.raises(ValueError, match="is a loop"):
                    matroid_port(E, secret)
            elif E.n_elements == 1:
                with pytest.raises(ValueError, match="at least one element"):
                    matroid_port(E, secret)
            elif not flags[-1]:
                with pytest.raises(ValueError, match="full participant set must be qualified"):
                    matroid_port(E, secret)
            else:
                A = matroid_port(E, secret)
                assert [is_qualified(A, m) for m in range(len(flags))] == flags

    @SETTINGS
    @given(expansion_bases(min_n=5, max_n=5, max_cap=9), st.data())
    def test_expanded_mmrv_matches_the_reference(self, M, data):
        roles = tuple(data.draw(st.permutations(M.ground.labels))[:5])
        for E in (helgason_expand(M), helgason_expand(M).dual()):
            assert expanded_mmrv(E, roles) == reference_expanded_mmrv(E, roles)


# ---------------------------------------------------------------------------
# entropy

class TestEntropy:
    @SETTINGS
    @given(distributions())
    def test_entropy_vectors_always_validate(self, d):
        entropy_vector(d)  # raises on any violated inequality

    @SETTINGS
    @given(distributions(max_vars=5), st.integers(0, 2**32 - 1))
    def test_entropy_and_gluing_match_the_references(self, d, seed):
        assert_matches_references(d, np.random.default_rng(seed))

    @SETTINGS
    @given(distributions(max_vars=3))
    def test_conditional_product_reproduces_marginals(self, d):
        if d.variables.n < 3:
            return
        g = d.variables
        left_mask = g.mask_of(g.labels[:2])
        right_mask = g.mask_of(g.labels[1:])
        p1 = marginal(d, left_mask)
        p2 = marginal(d, right_mask)
        glued = conditional_product(p1, p2)
        for part, mask in ((p1, left_mask), (p2, right_mask)):
            got = marginal(glued, glued.variables.mask_of(g.labels_of(mask)))
            assert _tables_close(_table(got), _table(part))

    @SETTINGS
    @given(distributions(max_vars=3))
    def test_conditional_product_never_loses_entropy(self, d):
        if d.variables.n < 3:
            return
        g = d.variables
        p1 = marginal(d, g.mask_of(g.labels[:2]))
        p2 = marginal(d, g.mask_of(g.labels[1:]))
        glued = conditional_product(p1, p2)
        h_glued = entropy_vector(glued).value(glued.variables.full_mask)
        h_orig = entropy_vector(d).value(g.full_mask)
        assert h_glued >= h_orig - 1e-9


def _table(d):
    return {
        tuple(int(x) for x in row): float(p)
        for row, p in zip(d.outcomes, d.probs)
    }


def _tables_close(t1, t2):
    keys = set(t1) | set(t2)
    return all(abs(t1.get(k, 0.0) - t2.get(k, 0.0)) <= 1e-9 for k in keys)


# ---------------------------------------------------------------------------
# the seven-term expression

class TestMmrvIdentity:
    @SETTINGS
    @given(int_polymatroids(min_n=5, max_n=5, truncate=True))
    def test_identity_residual_vanishes_on_integers(self, M):
        assert mmrv_identity_residual(M) == 0

    @SETTINGS
    @given(int_polymatroids(min_n=5, max_n=5))
    def test_identity_residual_vanishes_after_scaling(self, M):
        scaled = validate_polymatroid(
            RankVector(M.ground, M.values * 0.73, "float")
        )
        assert abs(mmrv_identity_residual(scaled)) <= 1e-9


# ---------------------------------------------------------------------------
# bookkeeping helpers

class TestCoreHelpers:
    @SETTINGS
    @given(st.integers(2, 6), st.data())
    def test_subset_keys_round_trip(self, n, data):
        g = ground(n)
        mask = data.draw(st.integers(0, g.full_mask))
        assert subset_parse(g, subset_format(g, mask)) == mask

    @SETTINGS
    @given(int_polymatroids(), st.data())
    def test_mu_is_modular(self, M, data):
        g = M.ground
        A = data.draw(st.integers(0, g.full_mask))
        B = data.draw(st.integers(0, g.full_mask))
        B &= ~A
        assert mu(M.rank, A | B) == mu(M.rank, A) + mu(M.rank, B)
