"""Matroid predicate, circuits, and the lazy unit-atom expansion."""

import itertools

import numpy as np
import pytest

from polyshare import (
    DuplicateLabel,
    ExpandedMatroid,
    GroundSet,
    ModeError,
    RankVector,
    UnknownLabel,
    block_collapse,
    circuit_connected,
    circuits,
    dual,
    expanded_mmrv,
    helgason_expand,
    is_connected,
    is_matroid,
    mmrv,
    uniform_matroid,
    validate_polymatroid,
)

from generators import (
    all_split_schedules,
    assert_polymatroids_equal,
    gf2_rank,
    pm,
    random_matroid,
    split_fully,
)


def brute_force_circuits(vectors):
    """Minimal dependent sets straight from the GF(2) oracle."""
    n = len(vectors)
    dependent = [
        m for m in range(1, 1 << n)
        if gf2_rank([vectors[i] for i in range(n) if m >> i & 1]) < m.bit_count()
    ]
    dep_set = set(dependent)
    out = [
        m for m in dependent
        if not any(m ^ (1 << i) in dep_set for i in range(n) if m >> i & 1)
    ]
    out.sort(key=lambda m: (m.bit_count(), m))
    return out


class TestIsMatroid:
    def test_u23(self):
        assert is_matroid(uniform_matroid(2, ("a", "b", "c")))

    def test_singleton_rank_two(self):
        assert not is_matroid(pm({"a": 2, "b": 1, "a,b": 2}))

    def test_tightened_table(self, tight_pm):
        assert not is_matroid(tight_pm)

    def test_float_mode_rejected(self, m_xi):
        with pytest.raises(ModeError):
            is_matroid(m_xi)


class TestCircuits:
    def test_u13_has_three_pairs(self):
        assert circuits(uniform_matroid(1, ("a", "b", "c"))) == [0b011, 0b101, 0b110]

    def test_u23_has_the_triple(self):
        assert circuits(uniform_matroid(2, ("a", "b", "c"))) == [0b111]

    def test_free_matroid_has_none(self):
        assert circuits(uniform_matroid(3, ("a", "b", "c"))) == []

    def test_loop_is_a_singleton_circuit(self):
        m = validate_polymatroid(
            RankVector(GroundSet("ab"), [0, 0, 1, 1], "int")
        )
        assert circuits(m)[0] == 0b01

    def test_matches_brute_force_on_random_matroids(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            m, vectors = random_matroid(rng, n)
            assert circuits(m) == brute_force_circuits(vectors)

    def test_rank_identities_on_every_circuit(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            m, _ = random_matroid(rng, 7)
            for c in circuits(m):
                size = c.bit_count()
                assert m.value(c) == size - 1
                for i in range(7):
                    if c >> i & 1:
                        assert m.value(c ^ (1 << i)) == size - 1

    def test_non_matroid_rejected(self):
        with pytest.raises(ValueError, match="not a matroid"):
            circuits(pm({"a": 2, "b": 1, "a,b": 2}))

    def test_enumeration_cutoff(self):
        wide = uniform_matroid(1, tuple(f"e{i}" for i in range(16)))
        with pytest.raises(ValueError, match="capped"):
            circuits(wide)


class TestCircuitConnected:
    def test_u23_pairs_share_the_triple(self):
        u23 = uniform_matroid(2, ("a", "b", "c"))
        for x, y in itertools.combinations("abc", 2):
            ok, witness = circuit_connected(u23, x, y)
            assert ok and witness == 0b111

    def test_direct_sum_cross_pair(self):
        two_u12 = pm({
            "a": 1, "b": 1, "c": 1, "d": 1,
            "a,b": 1, "c,d": 1,
            "a,c": 2, "a,d": 2, "b,c": 2, "b,d": 2,
            "a,b,c": 2, "a,b,d": 2, "a,c,d": 2, "b,c,d": 2,
            "a,b,c,d": 2,
        })
        ok, witness = circuit_connected(two_u12, "a", "c")
        assert not ok and witness is None
        ok, witness = circuit_connected(two_u12, "a", "b")
        assert ok and witness == 0b0011

    def test_witness_is_a_circuit_through_both(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            m, _ = random_matroid(rng, 6, allow_loops=False)
            all_circuits = set(circuits(m))
            for x, y in itertools.combinations(m.ground, 2):
                ok, witness = circuit_connected(m, x, y)
                if ok:
                    assert witness in all_circuits
                    assert witness & m.ground.bit(x)
                    assert witness & m.ground.bit(y)
                else:
                    pair = m.ground.bit(x) | m.ground.bit(y)
                    assert not any(c & pair == pair for c in all_circuits)

    def test_connected_matroid_joins_all_pairs(self):
        rng = np.random.default_rng(73)
        found = 0
        while found < 10:
            m, _ = random_matroid(rng, 6, allow_loops=False)
            ok, _ = is_connected(m)
            if not ok:
                continue
            found += 1
            for x, y in itertools.combinations(m.ground, 2):
                assert circuit_connected(m, x, y)[0]

    def test_same_element_rejected(self):
        u23 = uniform_matroid(2, ("a", "b", "c"))
        with pytest.raises(ValueError, match="distinct"):
            circuit_connected(u23, "a", "a")


class TestExpansion:
    def test_single_element_becomes_free(self):
        e = helgason_expand(pm({"a": 2}))
        assert e.element_names == ("a_1", "a_2")
        for names in ([], ["a_1"], ["a_2"], ["a_1", "a_2"]):
            assert e.rank(names) == len(names)

    def test_three_atom_example(self):
        e = helgason_expand(pm({"a": 2, "b": 1, "a,b": 2}))
        assert e.rank(["a_1", "a_2", "b_1"]) == 2
        assert e.rank(["a_1", "b_1"]) == 2
        assert e.rank(["a_1"]) == 1

    def test_empty_subset(self, tight_pm):
        e = helgason_expand(tight_pm)
        assert e.rank([]) == 0

    def test_paper_expansion_size_and_full_rank(self, tight_pm):
        e = helgason_expand(tight_pm)
        assert e.n_elements == 175
        assert e.block_sizes == (37, 31, 31, 38, 38)
        assert e.rank_of_counts(e.block_sizes) == 89

    def test_block_unions_recover_base(self, middle, tight_pm):
        for base in (middle, tight_pm):
            assert_polymatroids_equal(block_collapse(helgason_expand(base)), base)

    def test_block_unions_with_loop_block(self):
        base = pm({"a": 0, "b": 2, "a,b": 2})
        e = helgason_expand(base)
        assert e.element_names == ("b_1", "b_2")
        assert_polymatroids_equal(block_collapse(e), base)

    def test_dualized_block_unions_give_dual_of_tight_base(self, tight_pm):
        e = helgason_expand(tight_pm, dualized=True)
        assert_polymatroids_equal(block_collapse(e), dual(tight_pm))

    def test_dual_is_an_involution_on_the_oracle(self, tight_pm):
        e = helgason_expand(tight_pm)
        back = e.dual().dual()
        for counts in [(0, 0, 0, 0, 0), (1, 2, 3, 4, 5), e.block_sizes]:
            assert back.rank_of_counts(counts) == e.rank_of_counts(counts)

    def test_float_base_rejected(self, m_xi):
        with pytest.raises(ModeError):
            helgason_expand(m_xi)


class TestExpansionSubsetSyntax:
    def test_equivalent_spellings(self, tight_pm):
        e = helgason_expand(tight_pm)
        want = e.rank_of_counts((2, 1, 0, 0, 0))
        assert e.rank("a:2,b:1") == want
        assert e.rank({"a": 2, "b": 1}) == want
        assert e.rank("a_1,a_5,b_31") == want
        assert e.rank(["a_1", "a_5", "b_31"]) == want

    def test_count_out_of_range(self, tight_pm):
        e = helgason_expand(tight_pm)
        with pytest.raises(ValueError, match="atoms"):
            e.rank("a:38")

    def test_unknown_atom(self, tight_pm):
        e = helgason_expand(tight_pm)
        with pytest.raises(UnknownLabel):
            e.rank(["a_38"])

    def test_duplicate_atom(self, tight_pm):
        e = helgason_expand(tight_pm)
        with pytest.raises(DuplicateLabel):
            e.rank(["a_1", "a_1"])

    def test_duplicate_block_in_count_syntax(self, tight_pm):
        e = helgason_expand(tight_pm)
        with pytest.raises(DuplicateLabel):
            e.rank("a:1,a:2")


class TestExpansionAgainstIteratedSplits:
    CASES = [
        {"a": 2},
        {"a": 2, "b": 1, "a,b": 2},
        {"a": 2, "b": 2, "a,b": 3},
        {"a": 1, "b": 1, "a,b": 2},
        {"a": 3, "b": 2, "a,b": 4},
        {"a": 2, "b": 2, "c": 1, "a,b": 3, "a,c": 3, "b,c": 3, "a,b,c": 4},
    ]

    @pytest.mark.parametrize("ranks", CASES)
    def test_every_schedule_and_subset(self, ranks):
        base = pm(ranks)
        e = helgason_expand(base)
        for schedule in all_split_schedules(base):
            dense = split_fully(base, schedule)
            assert dense.ground.labels == e.element_names
            for mask in range(1 << len(e.element_names)):
                names = dense.ground.labels_of(mask)
                assert dense.value(mask) == e.rank(names)

    def test_count_reduction_matches_named_subsets(self):
        # same per-block counts, different atoms: rank must agree with the
        # dense expansion for every one of them
        base = pm({"a": 2, "b": 2, "a,b": 3})
        e = helgason_expand(base)
        dense = split_fully(base, all_split_schedules(base)[0])
        for mask in range(1 << 4):
            names = dense.ground.labels_of(mask)
            assert e.rank(names) == e.rank_of_counts(e.counts_of(names))
            assert e.rank(names) == dense.value(mask)


class TestExpandedMmrv:
    def test_matches_dense_mmrv(self, tight_pm):
        e = helgason_expand(tight_pm)
        assert expanded_mmrv(e) == mmrv(tight_pm)

    def test_dualized_paper_value(self, tight_pm):
        e = helgason_expand(tight_pm, dualized=True)
        assert expanded_mmrv(e) == -1

    def test_roles_choose_blocks(self, tight_pm):
        e = helgason_expand(tight_pm)
        assert expanded_mmrv(e, roles=("a", "b", "c", "d", "e")) == expanded_mmrv(e)

    def test_too_few_blocks(self):
        e = helgason_expand(pm({"a": 2, "b": 1, "a,b": 2}))
        with pytest.raises(ValueError, match="five"):
            expanded_mmrv(e)


class TestExpandedMatroidIsMatroid:
    def test_atoms_have_unit_rank(self, tight_pm):
        e = helgason_expand(tight_pm)
        for name in ("a_1", "b_31", "e_38"):
            assert e.rank([name]) == 1

    def test_dualized_atoms_at_most_unit(self, tight_pm):
        e = helgason_expand(tight_pm, dualized=True)
        ranks = {e.rank([name]) for name in ("a_1", "b_1", "c_31", "d_38", "e_1")}
        assert ranks <= {0, 1}

    def test_small_expansion_is_a_matroid_densely(self):
        base = pm({"a": 2, "b": 2, "c": 1, "a,b": 3, "a,c": 3, "b,c": 3, "a,b,c": 4})
        e = helgason_expand(base)
        names = e.element_names
        g = GroundSet(names)
        values = np.fromiter(
            (e.rank(g.labels_of(m)) for m in range(1 << len(names))),
            dtype=np.int64,
            count=1 << len(names),
        )
        dense = validate_polymatroid(RankVector(g, values, "int"))
        assert is_matroid(dense)
        assert isinstance(e, ExpandedMatroid)
