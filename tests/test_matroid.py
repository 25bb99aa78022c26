"""Matroid predicate, circuits, and the lazy unit-atom expansion."""

import itertools
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from polyshare import (
    DuplicateLabel,
    ExpandedMatroid,
    GroundSet,
    ModeError,
    Polymatroid,
    RankVector,
    UnknownLabel,
    block_collapse,
    check_polymatroid,
    circuit_connected,
    circuits,
    dual,
    expanded_mmrv,
    helgason_expand,
    is_connected,
    is_matroid,
    is_qualified,
    matroid_port,
    mmrv,
    realizes,
    sigma,
    uniform_matroid,
    validate_polymatroid,
)
from polyshare import matroid
from polyshare.lattice import additive, least_over

from generators import (
    all_split_schedules,
    assert_polymatroids_equal,
    coverage_polymatroid,
    gf2_rank,
    pm,
    random_matroid,
    split_fully,
)


# ---------------------------------------------------------------------------
# the expansion oracle as it was before the batch kernel: the min-formula
# evaluated once per query, the dual through complements, and a port query
# as two rank queries


def reference_g(E, counts) -> int:
    """sum(C) + min over base subsets A of h(A) - C(A), on the base itself."""
    masks = np.arange(1 << E.base.ground.n)
    taken = sum((masks >> i & 1) * int(c) for i, c in enumerate(counts) if c)  # C(A)
    return int(sum(counts) + (E.base.values - taken).min())


def reference_rank(E, counts) -> int:
    if not E.dualized:
        return reference_g(E, counts)
    comp = [size - c for size, c in zip(E.block_sizes, counts)]
    return reference_g(E, comp) + sum(counts) - reference_g(E, E.block_sizes)


def batch_ranks(E, C) -> np.ndarray:
    """Ranks of the rows of the (k, n) count array C at once, each the least
    h(A) + C(E - A) read off the oracle's own table; the memo is untouched."""
    return (E._rows[0] + np.asarray(C, dtype=np.int64) @ E._rows[1:]).min(axis=1)


def reference_member(E, secret, mask) -> bool:
    """r(S + secret) == r(S) for the subset ``mask`` of the other atoms."""
    names = [name for name in E.element_names if name != secret]
    counts = [0] * E.base.ground.n
    for i, name in enumerate(names):
        if mask >> i & 1:
            counts[E.block_of(name)] += 1
    plain = reference_rank(E, counts)
    counts[E.block_of(secret)] += 1
    return reference_rank(E, counts) == plain


def reference_port(E, secret):
    """Qualified flags of every subset of the other atoms, or None when the
    secret is a loop (small expansions only)."""
    if reference_rank(E, E.counts_of([secret])) == 0:
        return None
    return [reference_member(E, secret, m) for m in range(1 << (len(E.element_names) - 1))]


def block_union_counts(E, mask):
    return [size if mask >> i & 1 else 0 for i, size in enumerate(E.block_sizes)]


def reference_block_collapse(E) -> list[int]:
    return [reference_rank(E, block_union_counts(E, m)) for m in range(1 << E.base.ground.n)]


def reference_expanded_mmrv(E, roles) -> int:
    bits = [E.base.ground.bit(label) for label in roles]
    values = [
        reference_rank(E, block_union_counts(E, sum(b for j, b in enumerate(bits) if m >> j & 1)))
        for m in range(1 << 5)
    ]
    return mmrv(Polymatroid(RankVector(GroundSet(roles), values, "int")))


def reference_sigma(E, secret):
    """Fraction, or the start of the ValueError message sigma raises."""
    n = E.base.ground.n
    sblock = E.block_of(secret)

    def atom_rank(block):
        counts = [0] * n
        counts[block] = 1
        return reference_rank(E, counts)

    fs = atom_rank(sblock)
    if fs == 0:
        return "secret"
    tops = [
        atom_rank(i)
        for i, size in enumerate(E.block_sizes)
        if size > 0 and not (i == sblock and size == 1)
    ]
    return Fraction(max(tops), fs) if tops else "no participants"


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

    def test_sixteen_elements_enumerate(self):
        wide = uniform_matroid(1, tuple(f"e{i}" for i in range(16)))
        pairs = sorted(1 << i | 1 << j for i, j in itertools.combinations(range(16), 2))
        assert len(pairs) == 120
        assert circuits(wide) == pairs


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
            all_circuits = circuits(m)
            for x, y in itertools.combinations(m.ground, 2):
                ok, witness = circuit_connected(m, x, y)
                pair = m.ground.bit(x) | m.ground.bit(y)
                if ok:
                    assert witness in all_circuits
                    assert witness & m.ground.bit(x)
                    assert witness & m.ground.bit(y)
                    assert witness == next(c for c in all_circuits if c & pair == pair)
                else:
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
        assert len(e.element_names) == 175
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


class TestOracleAgainstReferences:
    """The bundled expansion, both orientations, against the per-query
    references above."""

    @pytest.fixture(params=[False, True], ids=["primal", "dual"])
    def E(self, request, tight_pm):
        return helgason_expand(tight_pm, dualized=request.param)

    def random_counts(self, E, k, seed):
        rng = np.random.default_rng(seed)
        return np.stack([rng.integers(0, size + 1, size=k) for size in E.block_sizes], axis=1)

    def test_rank_of_counts_and_each_batch_row(self, E):
        C = self.random_counts(E, 300, 5)
        want = [reference_rank(E, row) for row in C.tolist()]
        assert [E.rank_of_counts(tuple(row)) for row in C.tolist()] == want
        assert [E.rank_of_counts(tuple(row)) for row in C.tolist()] == want  # from the memo
        assert batch_ranks(E, C).tolist() == want

    def test_numpy_integer_counts(self, E):
        row = tuple(np.array([1, 2, 3, 4, 5]))
        assert E.rank_of_counts(row) == reference_rank(E, [1, 2, 3, 4, 5])

    def test_empty_batch(self, E):
        assert batch_ranks(E, np.zeros((0, 5), dtype=np.int64)).tolist() == []

    @pytest.mark.parametrize("secret", ["a_1", "c_7", "e_38"])
    def test_port_queries(self, E, secret):
        A = matroid_port(E, secret)
        rng = np.random.default_rng(11)
        n = A.participants.n
        for _ in range(60):
            keep = rng.random() ** 2
            mask = sum(1 << i for i in range(n) if rng.random() < keep)
            assert is_qualified(A, mask) == reference_member(E, secret, mask), mask

    def test_port_queries_never_call_rank_of_counts(self, E):
        ports = [matroid_port(E, "b_3"), matroid_port(E.dual(), "b_3")]
        rng = np.random.default_rng(3)
        masks = [int(rng.integers(0, 1 << 62)) << int(rng.integers(0, 112)) for _ in range(20)]
        failing = mock.Mock(side_effect=AssertionError("rank_of_counts called"))
        with mock.patch.object(ExpandedMatroid, "rank_of_counts", failing):
            for A in ports:
                for mask in masks:
                    is_qualified(A, mask & A.participants.full_mask)
        failing.assert_not_called()

    def test_block_collapse_expanded_mmrv_and_sigma(self, E):
        assert block_collapse(E).values.tolist() == reference_block_collapse(E)
        assert expanded_mmrv(E) == reference_expanded_mmrv(E, E.base.ground.labels)
        for secret in ("a_1", "d_38"):
            assert sigma(E, secret) == reference_sigma(E, secret)

    def test_dual_shares_no_state(self, E):
        flipped = E.dual()
        assert flipped.dualized != E.dualized
        assert flipped._memo is not E._memo
        E.rank_of_counts((1, 2, 3, 4, 5))
        assert flipped._memo == {}

    def test_a_query_meets_the_memo_once(self, E):
        """A miss is computed and stored without a second lookup; a query
        that is not a tuple of Python ints is computed, not found."""
        class CountingDict(dict):
            gets = 0

            def get(self, key, default=None):
                self.gets += 1
                return super().get(key, default)

        E._memo = memo = CountingDict()
        queries = [(1, 2, 3, 4, 5), (0, 0, 0, 0, 0), (1, 2, 3, 4, 5),
                   [1, 2, 3, 4, 5], tuple(np.array([1, 2, 3, 4, 5]))]
        got = [E.rank_of_counts(counts) for counts in queries]
        assert memo.gets == len(queries)
        assert got == [reference_rank(E, counts) for counts in queries]
        assert memo == {(1, 2, 3, 4, 5): got[0], (0, 0, 0, 0, 0): 0}

    def test_memo_stops_growing_at_its_cap(self, E, monkeypatch):
        monkeypatch.setattr(matroid, "MEMO_ENTRIES", 8)
        C = self.random_counts(E, 40, 9)
        assert len({tuple(row) for row in C.tolist()}) > 8
        want = batch_ranks(E, C).tolist()
        for _ in range(2):  # past the cap, hits and uncached misses alike
            assert [E.rank_of_counts(tuple(row)) for row in C.tolist()] == want
            assert len(E._memo) <= 8


class TestPortsAtTheDenseCap:
    """21 atoms leave 20 participants, a table read from the rank grid of
    the count space; 22 atoms leave 21, a membership oracle."""

    @pytest.mark.parametrize("atoms", [21, 22])
    @pytest.mark.parametrize("dualized", [False, True])
    def test_sampled_subsets(self, atoms, dualized):
        g = GroundSet(("a", "b", "c"))
        m = np.arange(8)
        sizes = (7, 7, atoms - 14)
        values = sum(size * (m >> i & 1) for i, size in enumerate(sizes))
        base = validate_polymatroid(RankVector(g, np.minimum(values, 12), "int"))
        E = helgason_expand(base, dualized)
        A = matroid_port(E, "c_2")
        assert (A.qualified is not None) == (atoms == 21)
        rng = np.random.default_rng(atoms)
        for _ in range(150):
            keep = rng.random()
            mask = sum(1 << i for i in range(atoms - 1) if rng.random() < keep)
            assert is_qualified(A, mask) == reference_member(E, "c_2", mask), mask

    @pytest.mark.parametrize("dualized", [False, True])
    def test_twenty_base_elements(self, dualized):
        """7 blocks of 3 atoms and 13 loop blocks: the rank grid has 4^7
        cells however many subsets the base has, so the table costs about what
        the 3-element base's does, where a min over the 2^20 base subsets for
        each of the 2^20 participant masks would not finish in test time."""
        g = GroundSet(tuple(f"x{i}" for i in range(20)))
        values = np.minimum(additive(np.array([3] * 7 + [0] * 13)), 12)
        E = helgason_expand(validate_polymatroid(RankVector(g, values, "int")), dualized)
        tracemalloc.start()
        try:
            A = matroid_port(E, "x0_2")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20  # 25 MiB: the grid index and two gathers of 2^20 int64
        assert A.qualified is not None and A.participants.n == 20
        rng = np.random.default_rng(20)
        for _ in range(8):
            keep = rng.random()
            mask = sum(1 << i for i in range(20) if rng.random() < keep)
            assert is_qualified(A, mask) == reference_member(E, "x0_2", mask), mask


def small_polymatroids() -> list[Polymatroid]:
    """Every integer polymatroid on a, b, c with f(E) <= 3: the candidates
    with values 0..3 off the empty set that pass the elemental inequalities."""
    g = GroundSet(("a", "b", "c"))
    ranks = (RankVector(g, (0, *v), "int") for v in itertools.product(range(4), repeat=7))
    return [Polymatroid(rank) for rank in ranks if not check_polymatroid(rank)]


def dense_expansion_ranks(E) -> np.ndarray:
    """Rank of every subset of E's atoms from the definition: min over the
    base subsets A of h(A) + the atoms outside the blocks of A, then, for a
    dualized E, |T| + r(atoms - T) - r(atoms)."""
    blocks = np.array([E.block_of(name) for name in E.element_names], dtype=np.int64)
    atoms = np.arange(1 << blocks.size)[:, None] >> np.arange(blocks.size) & 1
    base = np.arange(1 << E.base.ground.n)
    outside = (base[:, None] >> blocks & 1) == 0  # [A, atom]: is the atom outside A's blocks
    plain = (E.base.values + atoms @ outside.T).min(axis=1)
    if not E.dualized:
        return plain
    return atoms.sum(axis=1) + plain[::-1] - plain[-1]


class TestPortCatalogue:
    """Every port of both orientations of the expansion of each of the 127
    integer polymatroids on 3 elements with f(E) <= 3, at every atom of rank
    1 of an expansion of at least 2 atoms, against a dense expansion."""

    @pytest.fixture(scope="class")
    def bases(self):
        return small_polymatroids()

    @pytest.fixture(scope="class")
    def catalogue(self, bases):
        found = []
        for M in bases:
            for E in (helgason_expand(M), helgason_expand(M, dualized=True)):
                if len(E.element_names) < 2:
                    continue
                r = dense_expansion_ranks(E)
                for j, secret in enumerate(E.element_names):
                    if r[1 << j] == 1:
                        # participant masks as atom masks
                        low = np.arange(1 << (len(E.element_names) - 1))
                        S = (low & ((1 << j) - 1)) | ((low >> j) << (j + 1))
                        found.append((E, secret, r[S | 1 << j] - r[S]))
        return found

    def test_sizes(self, bases, catalogue):
        assert len(bases) == 127
        assert len(catalogue) == 1074

    def test_atom_ranks(self, bases):
        for M in bases:
            for E in (helgason_expand(M), helgason_expand(M, dualized=True)):
                r = dense_expansion_ranks(E)
                for i, label in enumerate(M.ground.labels):
                    if E.block_sizes[i]:
                        assert E.atom_ranks[i] == r[1 << E.element_names.index(f"{label}_1")]

    def test_gaps(self, catalogue):
        for E, secret, gaps in catalogue:
            participants, got = E.port(secret)
            assert participants.labels == tuple(a for a in E.element_names if a != secret)
            assert got.tolist() == gaps.tolist(), (E.base.values, E.dualized, secret)

    def test_membership(self, catalogue):
        with mock.patch.object(matroid, "MAX_DENSE_ELEMENTS", 0):
            for E, secret, gaps in catalogue:
                member = E.port(secret)[1]
                got = [member(S) for S in range(gaps.size)]
                assert got == (gaps == 0).tolist(), (E.base.values, E.dualized, secret)

    def test_realizes(self, catalogue):
        valid = 0
        for E, secret, gaps in catalogue:
            if gaps[-1] == 0:  # the full set qualified; the empty set is not, as r(secret) = 1
                valid += 1
                assert realizes(E, matroid_port(E, secret), secret) == (True, None)
        assert 0 < valid < len(catalogue)


    @pytest.fixture(scope="class")
    def expansions(self, bases):
        return [helgason_expand(M, dualized) for M in bases for dualized in (False, True)]

    def test_block_collapse(self, expansions):
        for E in expansions:
            assert block_collapse(E).values.tolist() == reference_block_collapse(E), E.base.values

    def test_sigma_at_every_atom(self, expansions):
        outcomes = set()
        for E in expansions:
            for atom in E.element_names:
                want = reference_sigma(E, atom)
                if isinstance(want, Fraction):
                    assert sigma(E, atom) == want, (E.base.values, E.dualized, atom)
                else:
                    with pytest.raises(ValueError, match=f"^{want}"):
                        sigma(E, atom)
                outcomes.add(want if isinstance(want, str) else "ratio")
        assert outcomes == {"ratio", "secret", "no participants"}

    def test_rank_of_every_count_vector(self, expansions):
        for E in expansions:
            counts = list(itertools.product(*(range(size + 1) for size in E.block_sizes)))
            want = [reference_rank(E, c) for c in counts]
            assert [E.rank_of_counts(c) for c in counts] == want, (E.base.values, E.dualized)


class TestOneTableAtTwentyBaseElements:
    """7 blocks of 3 atoms and 13 of one: 34 atoms leave 33 participants, so
    the port is a membership oracle on the expansion's one table of
    (n + 1) * 2^n int64, 168 MiB at n = 20; the port holds no table of its
    own."""

    @pytest.fixture(scope="class")
    def base(self):
        g = GroundSet(tuple(f"x{i}" for i in range(20)))
        values = np.minimum(additive(np.array([3] * 7 + [1] * 13)), 14)
        return validate_polymatroid(RankVector(g, values, "int"))

    @pytest.mark.parametrize("dualized", [False, True])
    def test_peak_memory(self, base, dualized):
        tracemalloc.start()
        try:
            E = helgason_expand(base, dualized)
            expand_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tracemalloc.start()
        try:
            A = matroid_port(E, "x0_2")
            port_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert expand_peak < 192 << 20  # the table, the masks and, dualized, the dual base
        assert port_peak < 16 << 20  # one 2^20 row of terms at a time
        assert A.qualified is None and A.participants.n == 33
        assert np.array_equal(E._rows[0], (dual(base) if dualized else base).values)
        masks = np.arange(1 << 20)
        for i in range(20):  # row 1 + i is [i not in A], one 8 MiB row checked at a time
            assert np.array_equal(E._rows[1 + i], masks >> i & 1 ^ 1), i
        rng = np.random.default_rng(33)
        for _ in range(6):
            keep = rng.random()
            mask = sum(1 << i for i in range(33) if rng.random() < keep)
            assert is_qualified(A, mask) == reference_member(E, "x0_2", mask), mask


class TestDualPorts:
    """A dualized expansion answers its port from its own oracle; by the
    duality of matroid ports that is the dual of the primal port."""

    @pytest.mark.parametrize("secret", ["a_1", "c_7", "e_38"])
    def test_bundled_port_of_the_dual_is_the_dual_port(self, tight_pm, secret):
        E = helgason_expand(tight_pm)
        A = matroid_port(E, secret)
        Ad = matroid_port(E.dual(), secret)
        n = A.participants.n
        rng = np.random.default_rng(int(secret.split("_")[1]))
        seen = set()
        for _ in range(200):
            keep = rng.random()
            mask = sum(1 << i for i in range(n) if rng.random() < keep)
            want = not is_qualified(A, A.participants.full_mask ^ mask)
            assert is_qualified(Ad, mask) == want, mask
            seen.add(want)
        assert seen == {False, True}

    @pytest.mark.parametrize("ranks", [None, {"a": 2, "b": 2, "a,b": 3}], ids=["oracle", "table"])
    def test_a_dualized_port_builds_no_other_oracle(self, tight_pm, ranks):
        Ed = helgason_expand(tight_pm if ranks is None else pm(ranks), dualized=True)
        init = ExpandedMatroid.__init__
        with mock.patch.object(ExpandedMatroid, "__init__", autospec=True, side_effect=init) as spy:
            A = matroid_port(Ed, "a_1")
            for mask in (0, 1, A.participants.full_mask):
                is_qualified(A, mask)
            assert spy.call_count == 0
            Ed.dual()  # the spy does see a construction
        assert spy.call_count == 1


class TestBlockCollapseKernel:
    """block_collapse in one lattice pass against the count rows of every
    union of whole blocks through the batch reference."""

    @pytest.mark.parametrize("n", [9, 10])
    @pytest.mark.parametrize("dualized", [False, True])
    def test_matches_the_count_rows(self, n, dualized):
        base = coverage_polymatroid(np.random.default_rng(n), n, truncate=True)
        E = helgason_expand(base, dualized)
        unions = np.array([block_union_counts(E, m) for m in range(1 << n)])
        assert len(E.element_names) > n
        assert block_collapse(E).values.tolist() == batch_ranks(E, unions).tolist()

    def test_peak_memory_at_eleven_elements(self):
        g = GroundSet(tuple(f"x{i}" for i in range(11)))
        values = np.minimum(additive(np.arange(1, 12)), 40)  # a truncated modular function
        E = helgason_expand(validate_polymatroid(RankVector(g, values, "int")))
        tracemalloc.start()
        try:
            block_collapse(E)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # one count row per mask and its slack would be 64 MiB


class TestLoopBlocks:
    """A base element of rank zero gives an empty block."""

    BASE = {"a": 0, "b": 2, "c": 1, "a,b": 2, "a,c": 1, "b,c": 2, "a,b,c": 2}

    @pytest.mark.parametrize("dualized", [False, True])
    def test_sigma_skips_the_empty_block(self, dualized):
        E = helgason_expand(pm(self.BASE), dualized)
        for secret in E.element_names:
            want = reference_sigma(E, secret)
            if isinstance(want, Fraction):
                assert sigma(E, secret) == want
            else:
                with pytest.raises(ValueError, match=want):
                    sigma(E, secret)

    @pytest.mark.parametrize("dualized", [False, True])
    def test_ranks_and_block_collapse(self, dualized):
        E = helgason_expand(pm(self.BASE), dualized)
        rows = list(itertools.product(range(1), range(3), range(2)))
        want = [reference_rank(E, row) for row in rows]
        assert [E.rank_of_counts(row) for row in rows] == want
        assert batch_ranks(E, rows).tolist() == want
        assert block_collapse(E).values.tolist() == reference_block_collapse(E)
        with pytest.raises(ValueError, match="block 'a' holds 0 atoms, asked for 1"):
            E.rank_of_counts((1, 0, 0))


def unit_row_sigma(E, secret):
    """sigma of an expansion from the batch ranks of its unit count rows, one
    per non-empty block: a Fraction, or the start of the ValueError message."""
    blocks = [i for i, size in enumerate(E.block_sizes) if size > 0]
    rows = np.eye(E.base.ground.n, dtype=np.int64)[blocks]
    ranks = dict(zip(blocks, batch_ranks(E, rows).tolist()))
    sblock = E.block_of(secret)
    others = [rank for i, rank in ranks.items() if not (i == sblock and E.block_sizes[i] == 1)]
    if ranks[sblock] == 0:
        return "secret .* is a loop"
    return Fraction(max(others), ranks[sblock]) if others else "no participants"


class TestAtomRanks:
    """sigma reads the rank of one atom of block i as min(1, h(i)), with h
    the base or its dual; the unit count rows through the batch reference
    must agree."""

    @staticmethod
    def outcomes(E):
        """Check sigma at the first atom of every block; the outcomes seen."""
        seen = set()
        for label, size in zip(E.base.ground.labels, E.block_sizes):
            if size:
                want = unit_row_sigma(E, f"{label}_1")
                if isinstance(want, Fraction):
                    assert sigma(E, f"{label}_1") == want
                    want = "ratio"
                else:
                    with pytest.raises(ValueError, match=want):
                        sigma(E, f"{label}_1")
                seen.add(want)
        return seen

    @pytest.mark.parametrize("dualized", [False, True])
    def test_random_coverage_bases(self, dualized):
        rng = np.random.default_rng(22)
        seen = set()
        for _ in range(80):
            M = coverage_polymatroid(rng, int(rng.integers(1, 7)), truncate=bool(rng.integers(2)))
            seen |= self.outcomes(helgason_expand(M, dualized))
        assert "ratio" in seen
        if dualized:  # an atom that is a loop of the dual expansion
            assert "secret .* is a loop" in seen

    @pytest.mark.parametrize("dualized", [False, True])
    def test_bundled_base(self, tight_pm, dualized):
        assert self.outcomes(helgason_expand(tight_pm, dualized)) == {"ratio"}


class TestCountValidation:
    @pytest.fixture(scope="class")
    def E(self, tight_pm):
        return helgason_expand(tight_pm)

    @pytest.mark.parametrize(
        "counts, block",
        [
            ((3.7, 0, 0, 0, 0), "a"),
            (("3", 0, 0, 0, 0), "a"),
            ((0, True, 0, 0, 0), "b"),
            ((0, 0, 0, 0, 2.0), "e"),
            ((0, 0, np.float64(1), 0, 0), "c"),
            ((0, 0, 0, np.bool_(True), 0), "d"),
        ],
    )
    def test_non_integer_counts_name_the_block(self, E, counts, block):
        match = f"block '{block}' count must be an integer"
        with pytest.raises(ValueError, match=match):
            E.rank_of_counts(counts)

    def test_a_memo_hit_does_not_admit_equal_keys(self, E):
        assert E.rank_of_counts((1, 0, 0, 0, 0)) == 1
        for counts in ((True, 0, 0, 0, 0), (1.0, 0, 0, 0, 0)):
            with pytest.raises(ValueError, match="block 'a' count must be an integer"):
                E.rank_of_counts(counts)

    def test_dict_of_block_counts_is_no_subset(self, E):
        # a dict is read as an iterable of its keys, here a block and no atom
        with pytest.raises(UnknownLabel, match="'a' is not an element of the expansion"):
            E.rank({"a": 2})

    def test_wrong_number_of_counts(self, E):
        with pytest.raises(ValueError, match="need 5 block counts, got 4"):
            E.rank_of_counts([0, 0, 0, 0])

    @pytest.mark.parametrize(
        "counts, neighbour, message",
        [
            ((-1, 0, 0, 0, 0), (0, 0, 0, 0, 0), "block 'a' holds 37 atoms, asked for -1"),
            ((0, 0, 0, 0, 39), (0, 0, 0, 0, 38), "block 'e' holds 38 atoms, asked for 39"),
            ((0, 0, 0, 0), (0, 0, 0, 0, 0), "need 5 block counts, got 4"),
            ((0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0), "need 5 block counts, got 6"),
            ((0, True, 0, 0, 0), (0, 1, 0, 0, 0), "block 'b' count must be an integer, got True"),
        ],
    )
    def test_python_int_tuples_at_the_edges(self, tight_pm, counts, neighbour, message):
        """Tuples of Python ints take the fast path unless a count is out of
        range, their length is wrong or one is a bool; those raise the
        per-block message, on a fresh memo and after a hit on a valid
        neighbour (which equals the bool tuple as a key)."""
        E = helgason_expand(tight_pm)
        exact = "^" + re.escape(message) + "$"
        with pytest.raises(ValueError, match=exact):
            E.rank_of_counts(counts)
        assert E._memo == {}
        assert E.rank_of_counts(neighbour) == E.rank_of_counts(neighbour) == reference_rank(E, neighbour)
        with pytest.raises(ValueError, match=exact):
            E.rank_of_counts(counts)

    def test_numpy_int_count_in_range(self, tight_pm):
        E = helgason_expand(tight_pm)
        counts = (np.int64(37), 0, 0, 0, np.int64(1))
        want = reference_rank(E, (37, 0, 0, 0, 1))
        assert E.rank_of_counts(counts) == want
        assert E.rank_of_counts(counts) == want  # a hit, through the per-block check
        assert E._memo == {(37, 0, 0, 0, 1): want}


def count_grid(E) -> np.ndarray:
    """Rank of every count vector of E as uint8, indexed [c_4, ..., c_0]:
    least_over's flat order, bit 0 fastest.  Every sum the kernel forms is
    at most h(E) plus one block size, 127 on the bundled base."""
    assert E._rows[0].max() + max(E.block_sizes) < 256
    levels = [np.arange(size + 1, dtype=np.uint8) for size in E.block_sizes]
    flat = least_over(E._rows[0].astype(np.uint8), levels)
    assert flat.dtype == np.uint8
    return flat.reshape([size + 1 for size in E.block_sizes][::-1])


class TestCountSpace:
    def test_every_count_vector_of_the_bundled_expansion(self, tight_pm):
        """The rank grids of both orientations, 38*32*32*39*39 = 59 185 152
        count vectors each, checked whole in slabs of one c_4 (tracemalloc
        peak about 127 MiB, most of it the two uint8 grids).

        Over the whole space: the dual ranks are |C| + r(s - C) - r(s); for
        every secret block, the port of the dual computed from the dual ranks
        is the complement rule applied to the primal ranks; the 32 corners
        give block_collapse; and the dual's block unions have MMRV -1.
        Sampled rows agree with rank_of_counts.
        """
        E = helgason_expand(tight_pm)
        Ed = E.dual()
        tracemalloc.start()
        try:
            R, Rd = count_grid(E), count_grid(Ed)
            sizes = np.array(E.block_sizes)
            full = int(R[tuple(sizes[::-1])])
            R_rev = R[::-1, ::-1, ::-1, ::-1, ::-1]  # R_rev[C] = r(s - C)
            axes = [np.arange(length, dtype=np.int16) for length in R.shape[1:]]
            rest = sum(np.ix_(*axes))  # |C| - c_4 over one slab, at most 139
            for c4 in range(R.shape[0]):
                want = c4 + rest + R_rev[c4] - full
                assert np.array_equal(Rd[c4], want), c4
                # the secret is an atom of block b: S takes at most s_b - 1 of
                # its atoms, S + secret one more, and the complement of S among
                # the participants is s - e_b - C, whose primal port test
                # compares r(s - C) with r(s - C - e_b)
                for axis in range(4):  # blocks 3, 2, 1, 0 within the slab
                    step = [slice(None)] * 4
                    low, high = list(step), list(step)
                    low[axis], high[axis] = slice(None, -1), slice(1, None)
                    dual_port = Rd[c4][tuple(high)] == Rd[c4][tuple(low)]
                    complement_rule = R_rev[c4][tuple(low)] != R_rev[c4][tuple(high)]
                    assert np.array_equal(dual_port, complement_rule), (c4, axis)
                if c4:  # block 4, across neighbouring slabs
                    assert np.array_equal(Rd[c4] == Rd[c4 - 1], R_rev[c4 - 1] != R_rev[c4]), c4
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 144 << 20

        corners = additive(sizes * np.cumprod(np.r_[1, sizes[:-1] + 1]))  # flat index of each union
        assert R.ravel()[corners].tolist() == block_collapse(E).values.tolist() == tight_pm.values.tolist()
        assert Rd.ravel()[corners].tolist() == block_collapse(Ed).values.tolist()
        dual_blocks = Polymatroid(RankVector(tight_pm.ground, Rd.ravel()[corners].astype(np.int64), "int"))
        assert mmrv(dual_blocks) == expanded_mmrv(Ed) == -1

        rng = np.random.default_rng(59)
        C = np.stack([rng.integers(0, size + 1, size=20000) for size in sizes], axis=1)
        for oracle, grid in ((E, R), (Ed, Rd)):
            ranks = [oracle.rank_of_counts(tuple(row)) for row in C.tolist()]
            assert grid[tuple(C[:, ::-1].T)].tolist() == ranks


@pytest.mark.slow
def test_count_space_sweep(tight_pm):
    """The batch reference on every count vector of the bundled expansion
    (38*32*32*39*39, about 6e7) in both orientations, one (c_4, c_3) slab of
    38 912 rows at a time, against the rank grid of the count-space kernel."""
    for E in (helgason_expand(tight_pm), helgason_expand(tight_pm, dualized=True)):
        R = count_grid(E)
        rows = np.zeros((R[0, 0].size, 5), dtype=np.int64)
        rows[:, 2::-1] = np.indices(R.shape[2:]).reshape(3, -1).T  # c_2, c_1, c_0
        for c4, c3 in itertools.product(range(R.shape[0]), range(R.shape[1])):
            rows[:, 3], rows[:, 4] = c3, c4
            assert np.array_equal(batch_ranks(E, rows), R[c4, c3].ravel()), (c4, c3)


class TestExpansionSubsetSyntax:
    def test_equivalent_spellings(self, tight_pm):
        e = helgason_expand(tight_pm)
        want = e.rank_of_counts((2, 1, 0, 0, 0))
        assert e.rank("a:2,b:1") == want
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
        assert mmrv(block_collapse(e), roles=("a", "b", "c", "d", "e")) == expanded_mmrv(e)

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
