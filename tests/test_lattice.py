"""The subset-lattice transforms against per-mask Python references, and the
vectorised ports and factors against the per-subset loops they replaced."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyshare import GroundSet, factor, matroid_port, realizes
from polyshare.lattice import (
    additive,
    by_size,
    least_over,
    masks,
    minimal,
    sizes,
    split,
    up_closure,
)
from polyshare.secret_sharing import from_minimal

from generators import coverage_polymatroid, ground, random_matroid

NS = range(1, 9)


def random_family(rng, n):
    """Sparse random flags, so that minimality is not decided by size alone."""
    return rng.random(1 << n) < rng.uniform(0.02, 0.3)


@pytest.mark.parametrize("n", NS)
class TestPerMaskReferences:
    def test_masks_and_sizes(self, n):
        assert masks(n).tolist() == list(range(1 << n))
        assert sizes(n).tolist() == [m.bit_count() for m in range(1 << n)]

    def test_by_size(self, n):
        want = sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m))
        assert by_size(n).tolist() == want

    def test_additive(self, n):
        rng = np.random.default_rng(n)
        for weights in (rng.integers(-5, 9, size=n), rng.random(n) * 7):
            got = additive(weights)
            assert got.dtype == weights.dtype
            for m in range(1 << n):
                total = 0
                for i in range(n):
                    if m >> i & 1:
                        total += weights[i]
                assert got[m] == total, (m, weights)

    def test_up_closure_is_the_superset_scan(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            family = random_family(rng, n)
            members = [s for s in range(1 << n) if family[s]]
            want = [any(s & ~m == 0 for s in members) for m in range(1 << n)]
            assert up_closure(family).tolist() == want

    def test_minimal_is_the_subset_scan(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(5):
            family = random_family(rng, n)
            members = [s for s in range(1 << n) if family[s]]
            want = [
                m for m in members if not any(s != m and s & ~m == 0 for s in members)
            ]
            want.sort(key=lambda m: (m.bit_count(), m))
            assert minimal(family) == want

    def test_closure_and_minimal_do_not_touch_the_input(self, n):
        family = random_family(np.random.default_rng(n), n)
        before = family.copy()
        up_closure(family)
        minimal(family)
        assert np.array_equal(family, before)

    def test_split_views(self, n):
        a = np.random.default_rng(n).random(1 << n)
        for i in range(n):
            without, with_i = split(a, i)
            lower = [m for m in range(1 << n) if not m >> i & 1]
            assert without.ravel().tolist() == a[lower].tolist()
            assert with_i.ravel().tolist() == a[[m | 1 << i for m in lower]].tolist()
            assert np.shares_memory(with_i, a)
            assert split(masks(n), i)[0].ravel().tolist() == lower


@st.composite
def values_and_levels(draw):
    """Per-mask values and 1-4 levels per element on n <= 5 elements; a
    single level, as a loop block has, and repeated levels come up often."""
    n = draw(st.integers(0, 5))
    values = draw(st.lists(st.integers(-20, 20), min_size=1 << n, max_size=1 << n))
    level = st.lists(st.sampled_from([0, 0, 1, 2, 5, -3, 9]), min_size=1, max_size=4)
    levels = draw(st.lists(level, min_size=n, max_size=n))
    return np.array(values, dtype=np.int64), [np.array(c, dtype=np.int64) for c in levels]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values_and_levels())
def test_least_over_is_the_min_over_every_mask(case):
    values, levels = case
    n = len(levels)
    before = [values.copy()] + [level.copy() for level in levels]
    want = [
        min(
            int(values[A]) + sum(int(levels[i][c[i]]) for i in range(n) if not A >> i & 1)
            for A in range(1 << n)
        )
        for c in (pos[::-1] for pos in itertools.product(*map(range, map(len, levels[::-1]))))
    ]  # bit 0 fastest
    assert least_over(values, levels).tolist() == want
    assert all(map(np.array_equal, [values] + levels, before))


# ---------------------------------------------------------------------------
# slow references for the vectorised library paths


def port_reference(M, secret, tol):
    """Per-subset port flags: S is qualified when f(secret + S) = f(S)."""
    k = M.ground.index(secret)
    sbit = 1 << k
    low = sbit - 1
    q = np.zeros(1 << (M.ground.n - 1), dtype=bool)
    for S in range(len(q)):
        base = (S & low) | (S >> k) << (k + 1)
        q[S] = abs(M.value(base | sbit) - M.value(base)) <= tol
    return q


def realizes_reference(M, q, secret, tol):
    """First participant mask on which the flags q disagree with M, or None."""
    k = M.ground.index(secret)
    sbit = 1 << k
    low = sbit - 1
    fs = M.value(sbit)
    for S in range(len(q)):
        base = (S & low) | (S >> k) << (k + 1)
        gap = M.value(base | sbit) - M.value(base)
        if abs(gap if q[S] else gap - fs) > tol:
            return S
    return None


def factor_reference(M, block, target):
    """Per-target-mask ranks of the union of the preimage blocks."""
    out = np.empty(1 << target.n, dtype=M.values.dtype)
    for t in range(len(out)):
        src = 0
        for label, tgt in block.items():
            if t >> target.index(tgt) & 1:
                src |= M.ground.bit(label)
        out[t] = M.values[src]
    return out


def random_polymatroids(seed, count):
    rng = np.random.default_rng(seed)
    for t in range(count):
        n = int(rng.integers(2, 8))
        if t % 3 == 2:
            yield random_matroid(rng, n)[0]
        else:
            mode = ("int", "float")[t % 2]
            yield coverage_polymatroid(rng, n, mode=mode, truncate=bool(t % 4 < 2))


class TestAgainstSlowReferences:
    def test_dense_port_matches_the_per_subset_loop(self):
        checked = 0
        for M in random_polymatroids(11, 80):
            tol = 0 if M.mode == "int" else 1e-6
            for secret in M.ground.labels:
                want = port_reference(M, secret, tol)
                try:
                    got = matroid_port(M, secret).qualified
                except ValueError:  # loop secret, or the full set unqualified
                    assert M.rank_of(secret) <= tol or not want[-1]
                    continue
                assert np.array_equal(got, want)
                checked += 1
        assert checked > 50

    def test_realizes_matches_the_per_subset_loop(self):
        rng = np.random.default_rng(12)
        checked = 0
        for M in random_polymatroids(13, 80):
            tol = 0 if M.mode == "int" else 1e-6
            secret = M.ground.labels[0]
            if M.rank_of(secret) <= tol:
                continue
            participants = GroundSet(M.ground.labels[1:])
            full = participants.full_mask
            for _ in range(3):
                mins = [int(m) for m in rng.integers(1, full + 1, size=int(rng.integers(1, 4)))]
                A = from_minimal(participants, mins)
                witness = realizes_reference(M, A.qualified, secret, tol)
                assert realizes(M, A, secret) == (witness is None, witness)
                checked += 1
        assert checked > 100

    def test_factor_matches_the_per_target_loop(self):
        rng = np.random.default_rng(14)
        for M in random_polymatroids(15, 60):
            n = M.ground.n
            k = int(rng.integers(1, n + 1))
            onto = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
            rng.shuffle(onto)
            target = GroundSet(tuple(f"t{i}" for i in range(k)))
            block = {l: target.labels[t] for l, t in zip(M.ground.labels, onto)}
            assert np.array_equal(factor(M, block, target).values,
                                  factor_reference(M, block, target))

    def test_identity_factor_is_the_polymatroid(self):
        M = coverage_polymatroid(np.random.default_rng(16), 5)
        block = {l: l for l in ground(5).labels}
        assert np.array_equal(factor(M, block, ground(5)).values, M.values)


@pytest.mark.parametrize("n", [13, 14])
def test_minimal_of_a_few_members_is_the_subset_scan(n):
    """Wide lattices with a few members, some nested, so that the members'
    own order decides the result."""
    rng = np.random.default_rng(300 + n)
    for _ in range(20):
        chosen = rng.choice(1 << n, size=int(rng.integers(1, 9)), replace=False)
        nested = [int(m) & int(rng.integers(1 << n)) for m in chosen[:3]]
        family = np.zeros(1 << n, dtype=bool)
        family[[*chosen, *nested]] = True
        members = np.flatnonzero(family).tolist()
        want = [m for m in members if not any(s != m and s & ~m == 0 for s in members)]
        want.sort(key=lambda m: (m.bit_count(), m))
        assert minimal(family) == want
