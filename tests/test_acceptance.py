"""One test per acceptance gate.

Each test prints a single PASS line with the measured numbers once all of
its assertions hold; `pytest -v` adds the matching pass/fail verdict per
criterion.  Randomized sweeps use fixed seeds and report their case counts.
"""

import itertools
import time

import numpy as np
import pytest

from polyshare import (
    GroundSet,
    RankVector,
    circuit_connected,
    collapse_pair,
    conditional_product,
    dual,
    dual_structure,
    entropy_vector,
    expanded_mmrv,
    helgason_expand,
    is_connected,
    marginal,
    matroid_port,
    mmrv,
    mmrv_identity_residual,
    realizes,
    round_to_integer,
    split_atom,
    threshold_structure,
    tighten,
    uniform_matroid,
    validate_polymatroid,
)
from polyshare.entropy import distribution_from_json
from polyshare.inequalities import eval_term, mutual_information
from polyshare.reproduce import fixture_doc

from generators import (
    LETTERS,
    all_split_schedules,
    coverage_polymatroid,
    gf2_matroid,
    k4_matroid,
    pm,
    random_distribution,
    random_matroid,
    random_tight,
    split_fully,
)

CASES = 1000


def stamp(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_1_table1_mmrv():
    start = time.perf_counter()
    dist = distribution_from_json(fixture_doc("table1.json"))
    value = mmrv(entropy_vector(dist))
    elapsed = time.perf_counter() - start
    assert abs(value - 0.108494) <= 1e-4
    assert elapsed < 1.0
    stamp(1, f"mmrv(M_xi) = {value:.7f}, target 0.108494 +/- 1e-4, {elapsed:.3f}s")


def test_criterion_2_dual_mmrv(m_xi):
    start = time.perf_counter()
    value = mmrv(dual(m_xi))
    elapsed = time.perf_counter() - start
    assert abs(value - (-0.0715364)) <= 1e-5
    assert elapsed < 1.0
    stamp(2, f"mmrv(dual) = {value:.8f}, target -0.0715364 +/- 1e-5, {elapsed:.3f}s")


def test_criterion_3_combination_rounds_to_middle(combination, middle, left_fixture, m_xi):
    rounded = round_to_integer(combination, residual_tol=1e-3)
    assert rounded.mode == "int"
    assert np.array_equal(rounded.values, middle.values)
    residual = float(np.max(np.abs(combination.values - middle.values)))
    assert residual < 1e-3

    scaled = 50.03 * np.asarray(m_xi.values)
    gap = float(np.max(np.abs(scaled - left_fixture.values)))
    assert gap <= 1e-4
    stamp(3, f"31 integers recovered (worst residual {residual:.2e}); "
             f"50.03*M_xi vs left column within {gap:.2e}")


def test_criterion_4_tightening_matches_right_column(middle, tight_fixture):
    tightened = tighten(middle)
    assert tightened.mode == "int"
    assert np.array_equal(tightened.values, tight_fixture.values)
    full = middle.ground.full_mask
    abit = middle.ground.bit("a")
    assert middle.rank_of("a") == 55
    assert middle.value(full) == 155
    assert middle.value(full ^ abit) == 137
    assert tightened.rank_of("a") == 55 - (155 - 137) == 37
    stamp(4, "tighten(middle) equals the right column exactly; 55-(155-137)=37 for a")


def test_criterion_5_integer_dual_certificate(middle):
    value = mmrv(dual(middle))
    assert value == -1
    assert isinstance(value, (int, np.integer))
    stamp(5, "mmrv of the integer dual is exactly -1")


def test_criterion_6_expansion(tight_fixture):
    start = time.perf_counter()
    expansion = helgason_expand(tight_fixture)
    assert expansion.n_elements == 175

    masks = range(1, tight_fixture.ground.full_mask + 1)
    unions = [
        [size if mask >> i & 1 else 0 for i, size in enumerate(expansion.block_sizes)]
        for mask in masks
    ]
    checked = 0
    for mask, rank in zip(masks, expansion.ranks_of_counts(unions)):
        assert rank == tight_fixture.value(mask)
        checked += 1
    assert checked == 31

    dualized = helgason_expand(tight_fixture, dualized=True)
    assert expanded_mmrv(dualized) == -1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    stamp(6, f"175 atoms; 31 block unions match; dualized block-MMRV = -1; {elapsed:.2f}s")


class TestCriterion7:
    """Randomized invariants, >= 1000 fixed-seed cases per family, |M| <= 5."""

    def test_criterion_7_property_sweeps(self):
        self.dual_involution_on_tight()
        self.double_dual_is_tighten()
        self.dual_preserves_connectivity()
        self.split_dual_commutation()
        self.split_then_factor()
        self.identity_residual()
        self.fujishige()
        self.conditional_product_families()
        stamp(7, f"8 invariant families x {CASES} seeded cases each, grounds <= 5")

    def draw_n(self, rng):
        return int(rng.integers(2, 6))

    def dual_involution_on_tight(self):
        rng = np.random.default_rng(701)
        for _ in range(CASES):
            T = random_tight(rng, self.draw_n(rng))
            assert np.array_equal(dual(dual(T)).values, T.values)

    def double_dual_is_tighten(self):
        rng = np.random.default_rng(702)
        for _ in range(CASES):
            M = coverage_polymatroid(rng, self.draw_n(rng), truncate=True)
            assert np.array_equal(dual(dual(M)).values, tighten(M).values)

    def dual_preserves_connectivity(self):
        rng = np.random.default_rng(703)
        for _ in range(CASES):
            M = coverage_polymatroid(rng, self.draw_n(rng), truncate=True)
            assert is_connected(dual(M))[0] == is_connected(M)[0]

    def split_dual_commutation(self):
        rng = np.random.default_rng(704)
        done = 0
        while done < CASES:
            T = random_tight(rng, self.draw_n(rng))
            splittable = [l for l in T.ground if T.rank_of(l) >= 2]
            if not splittable:
                continue
            a = splittable[int(rng.integers(len(splittable)))]
            ha = T.rank_of(a)
            a1 = int(rng.integers(1, ha))
            left = split_atom(dual(T), a, a1, ha - a1, ("x1", "x2"))
            right = dual(split_atom(T, a, a1, ha - a1, ("x1", "x2")))
            assert np.array_equal(left.values, right.values)
            done += 1

    def split_then_factor(self):
        rng = np.random.default_rng(705)
        done = 0
        while done < CASES:
            M = coverage_polymatroid(rng, self.draw_n(rng))
            splittable = [l for l in M.ground if M.rank_of(l) >= 2]
            if not splittable:
                continue
            a = splittable[int(rng.integers(len(splittable)))]
            ha = M.rank_of(a)
            a1 = int(rng.integers(1, ha))
            S = split_atom(M, a, a1, ha - a1, ("x1", "x2"))
            back = collapse_pair(S, "x1", "x2", a)
            assert np.array_equal(back.values, M.values)
            done += 1

    def identity_residual(self):
        rng = np.random.default_rng(706)
        for _ in range(CASES):
            M = coverage_polymatroid(rng, 5, truncate=True)
            scale = float(rng.uniform(0.1, 3.0))
            scaled = validate_polymatroid(
                RankVector(M.ground, M.values * scale, "float")
            )
            assert abs(mmrv_identity_residual(scaled)) <= 1e-9

    def fujishige(self):
        rng = np.random.default_rng(707)
        for _ in range(CASES):
            n = int(rng.integers(1, 6))
            entropy_vector(random_distribution(rng, LETTERS[:n]))

    def conditional_product_families(self):
        rng = np.random.default_rng(708)
        g5 = GroundSet(tuple(LETTERS[:5]))
        left_mask = g5.mask_of(("a", "b", "c"))
        right_mask = g5.mask_of(("b", "c", "d", "e"))
        a_bit = g5.bit("a")
        de_mask = g5.mask_of(("d", "e"))
        bc_mask = g5.mask_of(("b", "c"))
        for _ in range(CASES):
            p = random_distribution(rng, LETTERS[:5])
            p1 = marginal(p, left_mask)
            p2 = marginal(p, right_mask)
            glued = conditional_product(p1, p2)
            assert _same_distribution(marginal(glued, left_mask), p1)
            assert _same_distribution(marginal(glued, right_mask), p2)
            h = entropy_vector(glued)
            leak = eval_term(mutual_information(a_bit, de_mask, bc_mask), h)
            assert -1e-9 <= leak <= 1e-9


def _same_distribution(d1, d2):
    if d1.variables.labels != d2.variables.labels:
        return False
    t1 = {tuple(int(x) for x in row): float(p) for row, p in zip(d1.outcomes, d1.probs)}
    t2 = {tuple(int(x) for x in row): float(p) for row, p in zip(d2.outcomes, d2.probs)}
    keys = set(t1) | set(t2)
    return all(abs(t1.get(k, 0.0) - t2.get(k, 0.0)) <= 1e-9 for k in keys)


class TestCriterion8:
    SPLIT_INSTANCES = [
        {"a": 2},
        {"a": 3},
        {"a": 1, "b": 2, "a,b": 2},
        {"a": 2, "b": 2, "a,b": 2},
        {"a": 2, "b": 2, "a,b": 3},
        {"a": 3, "b": 2, "a,b": 4},
        {"a": 3, "b": 3, "a,b": 3},
        {"a": 1, "b": 1, "c": 1, "a,b": 2, "a,c": 2, "b,c": 2, "a,b,c": 2},
        {"a": 2, "b": 1, "c": 1, "a,b": 2, "a,c": 3, "b,c": 2, "a,b,c": 3},
        {"a": 2, "b": 2, "c": 2, "a,b": 3, "a,c": 3, "b,c": 3, "a,b,c": 3},
        {"a": 2, "b": 2, "c": 1, "a,b": 2, "a,c": 3, "b,c": 3, "a,b,c": 3},
    ]

    def test_criterion_8_matroid_suite(self):
        matroids = self.circuit_relation_sweep()
        instances, orders = self.split_equality_sweep()
        stamp(8, f"circuit relation is an equivalence with the right class count on "
                 f"{matroids} random matroids (n <= 8); min-formula rank equals the "
                 f"dense rank on {instances} instances across {orders} split orders")

    def circuit_relation_sweep(self):
        rng = np.random.default_rng(801)
        checked = 0
        for _ in range(150):
            n = int(rng.integers(3, 9))
            M, _ = random_matroid(rng, n)
            labels = M.ground.labels
            related = np.zeros((n, n), dtype=bool)
            for i, j in itertools.combinations(range(n), 2):
                ok, witness = circuit_connected(M, labels[i], labels[j])
                related[i, j] = related[j, i] = ok
                if ok:
                    # the witness really is a circuit through both elements
                    assert witness & M.ground.bit(labels[i])
                    assert witness & M.ground.bit(labels[j])

            # transitivity (the relation is already symmetric by construction)
            for i, j, k in itertools.permutations(range(n), 3):
                if related[i, j] and related[j, k]:
                    assert related[i, k], (i, j, k)

            # one equivalence class over all elements iff connected
            roots = list(range(n))

            def find(x):
                while roots[x] != x:
                    roots[x] = roots[roots[x]]
                    x = roots[x]
                return x

            for i, j in itertools.combinations(range(n), 2):
                if related[i, j]:
                    roots[find(i)] = find(j)
            classes = len({find(i) for i in range(n)})
            assert (classes == 1) == is_connected(M)[0]
            checked += 1
        return checked

    def split_equality_sweep(self):
        instances = 0
        total_orders = 0
        for mapping in self.SPLIT_INSTANCES:
            base = pm(mapping)
            expansion = helgason_expand(base)
            names = expansion.element_names
            schedules = all_split_schedules(base)
            n_atoms = expansion.n_elements
            for schedule in schedules:
                dense = split_fully(base, schedule)
                assert dense.ground.labels == names
                for mask in range(1 << n_atoms):
                    chosen = [names[i] for i in range(n_atoms) if mask >> i & 1]
                    got = expansion.rank(chosen)
                    assert dense.value(mask) == got
                    assert got == self.min_formula(base, expansion, chosen)
                total_orders += 1
            instances += 1
        return instances, total_orders

    def min_formula(self, base, expansion, chosen):
        g = base.ground
        counts = [0] * g.n
        for name in chosen:
            label = name.rsplit("_", 1)[0]
            counts[g.index(label)] += 1
        return min(
            base.value(A)
            + sum(c for i, c in enumerate(counts) if not A >> i & 1)
            for A in range(g.full_mask + 1)
        )


class TestCriterion9:
    def test_criterion_9_secret_sharing_suite(self):
        self.u23_port_is_pair_threshold()
        thresholds = self.threshold_duality()
        ports = self.port_dual_commutation()
        unique = self.port_uniqueness()
        stamp(9, f"U23 port is the (2,2)-threshold; {thresholds} threshold duals "
                 f"verified (n <= 6); port/dual commutation on {ports} random matroid "
                 f"ports; uniqueness confirmed on {unique} connected ports")

    def u23_port_is_pair_threshold(self):
        M = uniform_matroid(2, ("a", "b", "c"))
        assert matroid_port(M, "a") == threshold_structure(2, ("b", "c"))

    def threshold_duality(self):
        checked = 0
        for n in range(1, 7):
            labels = tuple(f"p{i}" for i in range(n))
            for k in range(1, n + 1):
                got = dual_structure(threshold_structure(k, labels))
                assert got == threshold_structure(n - k + 1, labels)
                checked += 1
        return checked

    def port_dual_commutation(self):
        rng = np.random.default_rng(901)
        ports = 0
        while ports < 100:
            M, _ = random_matroid(rng, int(rng.integers(3, 7)))
            Md = dual(M)
            for secret in M.ground:
                if M.rank_of(secret) == 0 or Md.rank_of(secret) == 0:
                    continue
                try:
                    A = matroid_port(M, secret)
                    Ad = matroid_port(Md, secret)
                except ValueError:
                    continue
                assert Ad == dual_structure(A)
                assert realizes(Md, dual_structure(A), secret)[0]
                ports += 1
        return ports

    def port_uniqueness(self):
        confirmed = 0
        for M in (
            uniform_matroid(2, ("a", "b", "c")),
            uniform_matroid(2, ("a", "b", "c", "d")),
            uniform_matroid(3, ("a", "b", "c", "d")),
        ):
            secret = M.ground.labels[0]
            assert is_connected(M)[0]
            A = matroid_port(M, secret)
            winners = self.realizing_unit_singleton_vectors(M.ground, A, secret)
            assert len(winners) == 1
            assert np.array_equal(winners[0], M.values)
            confirmed += 1

        confirmed += self.k4_uniqueness_evidence()
        return confirmed

    def realizing_unit_singleton_vectors(self, ground, A, secret):
        """Sweep every integer polymatroid with all singleton ranks 1.

        Any such vector satisfies 1 <= f(S) <= |S| on composite subsets, so the
        grid over those ranges covers the whole candidate space.
        """
        n = ground.n
        size = 1 << n
        composite = [m for m in range(size) if m.bit_count() >= 2]
        choices = [np.arange(1, m.bit_count() + 1) for m in composite]
        grids = np.meshgrid(*choices, indexing="ij")
        batch = np.ones((grids[0].size, size), dtype=np.int64)
        batch[:, 0] = 0
        for column, grid in zip(composite, grids):
            batch[:, column] = grid.reshape(-1)
        keep = self.batch_valid(batch, n)
        winners = []
        for row in batch[keep]:
            candidate = validate_polymatroid(
                RankVector(ground, row.copy(), "int")
            )
            if realizes(candidate, A, secret)[0]:
                winners.append(candidate.values)
        return winners

    def batch_valid(self, batch, n):
        """Elemental inequalities, vectorized over candidate rows."""
        full = (1 << n) - 1
        keep = np.ones(batch.shape[0], dtype=bool)
        for i in range(n):
            keep &= batch[:, full] >= batch[:, full ^ (1 << i)]
        for i, j in itertools.combinations(range(n), 2):
            bi, bj = 1 << i, 1 << j
            rest = [m for m in range(full + 1) if not m & (bi | bj)]
            for K in rest:
                keep &= (
                    batch[:, K | bi] + batch[:, K | bj]
                    >= batch[:, K | bi | bj] + batch[:, K]
                )
        return keep

    def k4_uniqueness_evidence(self):
        M = k4_matroid()
        secret = M.ground.labels[0]
        assert is_connected(M)[0]
        A = matroid_port(M, secret)
        assert realizes(M, A, secret)[0]

        # a different-looking linear construction gives the same matroid
        rng = np.random.default_rng(902)
        edges = [0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100]
        T = self.random_invertible_gf2(rng, 4)
        transformed = []
        for v in edges:
            coords = np.array([v >> i & 1 for i in range(4)])
            image = (T @ coords) % 2
            transformed.append(int(sum(b << i for i, b in enumerate(image))))
        M2 = gf2_matroid(transformed, M.ground.labels)
        assert np.array_equal(M2.values, M.values)
        assert realizes(M2, A, secret)[0]

        # single-subset perturbations never realize the port
        perturbed_valid = 0
        for mask in range(M.ground.full_mask + 1):
            if mask.bit_count() < 2:
                continue
            for delta in (-1, 1):
                values = M.values.copy()
                values[mask] += delta
                try:
                    candidate = validate_polymatroid(
                        RankVector(M.ground, values, "int")
                    )
                except Exception:
                    continue
                perturbed_valid += 1
                ok, _ = realizes(candidate, A, secret)
                assert not ok
        assert perturbed_valid > 0
        return 1

    def random_invertible_gf2(self, rng, n):
        while True:
            T = rng.integers(0, 2, size=(n, n))
            if round(abs(np.linalg.det(T))) % 2 == 1:
                return T
