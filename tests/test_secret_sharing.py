"""Access structures, matroid ports, realization, and the share-size ratio."""

import ast
import itertools
import json
import os
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyshare import (
    AccessStructure,
    DuplicateLabel,
    GroundSet,
    GroundSetMismatch,
    RankVector,
    UnknownLabel,
    ValidationError,
    dual,
    dual_structure,
    helgason_expand,
    is_qualified,
    linear_combine,
    matroid_port,
    minimal_qualified,
    realizes,
    sigma,
    threshold_structure,
    tighten,
    uniform_matroid,
    validate_polymatroid,
)
from polyshare.secret_sharing import (
    access_document,
    access_structure_from_json,
    expanded_port_doc,
    expanded_port_spec,
    from_minimal,
    load_access_structure,
    save_access_structure,
)
from polyshare.core import rank_document

from conftest import rank_vector_to_json
from generators import gf2_matroid, pm, random_matroid, split_fully

U23 = uniform_matroid(2, ("a", "b", "c"))
BC = ("b", "c")


P21 = GroundSet(tuple(f"p{i}" for i in range(21)))  # one past the explicit cap


def all_masks(A):
    return range(A.participants.full_mask + 1)


def access_structure_to_json(A):
    """The reference document of an explicit structure: one labels_of per minimal set."""
    return {
        "participants": list(A.participants.labels),
        "minimal_qualified": [list(A.participants.labels_of(m)) for m in minimal_qualified(A)],
    }


FORM_MESSAGE = ("give exactly one form: the qualified table on at most 20 participants, "
                "a membership oracle on more")


class TestAccessStructure:
    def test_requires_exactly_one_representation(self):
        g = GroundSet(("p", "q"))
        with pytest.raises(ValueError, match="exactly one"):
            AccessStructure(g)
        with pytest.raises(ValueError, match="exactly one"):
            AccessStructure(g, qualified=np.ones(4, bool), oracle=lambda m: True)

    def test_empty_set_must_be_unqualified(self):
        g = GroundSet(("p", "q"))
        with pytest.raises(ValueError, match="empty set"):
            AccessStructure(g, qualified=[True, True, False, True])
        with pytest.raises(ValueError, match="empty set"):
            AccessStructure(P21, oracle=lambda m: True)

    def test_full_set_must_be_qualified(self):
        g = GroundSet(("p", "q"))
        with pytest.raises(ValueError, match="full participant set"):
            AccessStructure(g, qualified=[False, True, False, False])
        with pytest.raises(ValueError, match="full participant set"):
            AccessStructure(P21, oracle=lambda m: False)

    def test_upward_closure_enforced(self):
        g = GroundSet(("p", "q", "r"))
        # {p} qualified but {p,q} not
        q = np.zeros(8, bool)
        q[0b001] = True
        q[0b101] = True
        q[0b111] = True
        with pytest.raises(ValueError, match="not upward closed"):
            AccessStructure(g, qualified=q)

    def test_closure_message_names_the_culprit(self):
        g = GroundSet(("p", "q", "r"))
        q = np.zeros(8, bool)
        q[0b001] = True
        q[0b111] = True
        with pytest.raises(ValueError, match="adding 'q'|adding 'r'"):
            AccessStructure(g, qualified=q)

    def test_closure_error_names_a_set_that_loses_qualification(self):
        """On random tables that are not upward closed (checked by brute
        force), the named set is qualified and adding the named participant
        to it gives an unqualified set."""
        rng = np.random.default_rng(24)
        pattern = r"not upward closed: (.*) qualified but adding '(.)' loses qualification"
        checked = 0
        for _ in range(300):
            g = GroundSet("pqrstu"[: int(rng.integers(1, 7))])
            q = rng.random(g.full_mask + 1) < rng.random()
            q[0], q[-1] = False, True
            if all(q[m | 1 << i] for m in np.flatnonzero(q) for i in range(g.n)):
                continue
            with pytest.raises(ValueError, match="not upward closed") as err:
                AccessStructure(g, qualified=q)
            named, member = re.fullmatch(pattern, str(err.value)).groups()
            S, bit = g.mask_of(ast.literal_eval(named)), g.bit(member)
            assert q[S] and not S & bit and not q[S | bit]
            checked += 1
        assert checked > 100

    def test_explicit_cap(self):
        labels = tuple(f"p{i}" for i in range(21))
        with pytest.raises(ValueError, match="capped at 20"):
            from_minimal(GroundSet(labels), [1])

    @pytest.mark.parametrize("mask", [-1, 4, 1 << 40, 2.5, True])
    def test_from_minimal_rejects_bad_masks(self, mask):
        g = GroundSet(("p", "q"))
        with pytest.raises(ValueError, match=rf"mask {mask} is not a subset.*0\.\.3"):
            from_minimal(g, [0b01, mask])

    def test_oracle_side_skips_the_cap(self):
        A = AccessStructure(P21, oracle=lambda m: m.bit_count() >= 3)
        assert A.qualified is None
        assert is_qualified(A, 0b111)
        assert not is_qualified(A, 0b011)

    def test_small_oracle_is_refused(self):
        """Within the cap a structure is only its table: an oracle there is
        refused before it is called, so it is never evaluated mask by mask."""
        def oracle(m):
            raise AssertionError("a small oracle was evaluated")

        for n in (1, 3, 20):
            g = GroundSet(tuple(f"p{i}" for i in range(n)))
            with pytest.raises(ValueError, match="^" + re.escape(FORM_MESSAGE) + "$"):
                AccessStructure(g, oracle=oracle)

    def test_large_table_is_refused(self):
        """Past the cap a structure is only its oracle, and the one form
        check refuses a table before its shape is read."""
        for qualified in (np.ones(1 << 21, bool), [True]):
            with pytest.raises(ValueError, match="^" + re.escape(FORM_MESSAGE) + "$"):
                AccessStructure(P21, qualified=qualified)

    def test_equality_is_explicit_only(self):
        t = threshold_structure(2, BC)
        assert t == threshold_structure(2, BC)
        assert t != threshold_structure(1, BC)
        assert t != threshold_structure(2, ("x", "y"))
        lazy = AccessStructure(P21, oracle=lambda m: m.bit_count() >= 2)
        twin = AccessStructure(P21, oracle=lambda m: m.bit_count() >= 2)
        assert (lazy == twin) is False  # NotImplemented on both sides

    def test_bad_qualified_shape(self):
        g = GroundSet(("p", "q"))
        with pytest.raises(ValueError, match="one flag per subset"):
            AccessStructure(g, qualified=np.ones(3, bool))


class TestThreshold:
    def test_two_of_two(self):
        A = threshold_structure(2, ("p1", "p2"))
        assert not is_qualified(A, 0b01)
        assert not is_qualified(A, 0b10)
        assert is_qualified(A, 0b11)

    def test_two_of_three_minimal_sets(self):
        A = threshold_structure(2, ("p", "q", "r"))
        assert minimal_qualified(A) == [0b011, 0b101, 0b110]

    def test_threshold_bounds(self):
        with pytest.raises(ValueError, match="1..3"):
            threshold_structure(0, ("p", "q", "r"))
        with pytest.raises(ValueError, match="1..3"):
            threshold_structure(4, ("p", "q", "r"))

    @pytest.mark.parametrize("k", [1.5, 2.0, True, "2"])
    def test_threshold_must_be_an_integer(self, k):
        with pytest.raises(ValueError, match=re.escape(f"threshold must be an integer, got {k!r}")):
            threshold_structure(k, ("p", "q", "r"))

    @pytest.mark.parametrize("k", [0, 4, np.int64(4)])
    def test_out_of_range_threshold_prints_the_number(self, k):
        with pytest.raises(ValueError, match=f"^threshold must be in 1\\.\\.3, got {int(k)}$"):
            threshold_structure(k, ("p", "q", "r"))

    def test_numpy_integer_threshold(self):
        assert threshold_structure(np.int64(2), "pqr") == threshold_structure(2, "pqr")

    def test_mask_bounds_checked(self):
        A = threshold_structure(1, ("p", "q"))
        with pytest.raises(ValueError, match="out of range for 2 elements"):
            is_qualified(A, 0b100)
        with pytest.raises(ValueError, match="out of range for 2 elements"):
            is_qualified(A, -1)


class TestMinimalQualified:
    def test_closure_then_minimal_recovers_input(self):
        g = GroundSet(("p", "q", "r"))
        A = from_minimal(g, [0b001, 0b110])
        assert minimal_qualified(A) == [0b001, 0b110]
        # the closure really added the supersets
        assert is_qualified(A, 0b011)
        assert is_qualified(A, 0b111)
        assert not is_qualified(A, 0b010)

    def test_order_is_size_then_mask(self):
        g = GroundSet(("p", "q", "r"))
        A = from_minimal(g, [0b110, 0b101, 0b001])
        assert minimal_qualified(A) == [0b001, 0b110]  # 0b101 absorbed by 0b001

    def test_oracle_rejected(self):
        A = AccessStructure(P21, oracle=lambda m: m.bit_count() >= 1)
        with pytest.raises(ValueError, match="more than 20 participants cannot be enumerated"):
            minimal_qualified(A)


class TestDualStructure:
    def test_two_of_two_dualizes_to_one_of_two(self):
        assert dual_structure(threshold_structure(2, BC)) == threshold_structure(1, BC)

    def test_threshold_duality_brute_force(self):
        for n in range(1, 7):
            labels = tuple(f"p{i}" for i in range(n))
            for k in range(1, n + 1):
                got = dual_structure(threshold_structure(k, labels))
                assert got == threshold_structure(n - k + 1, labels), (n, k)

    def test_involution_on_explicit_structures(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            g = GroundSet(tuple(f"p{i}" for i in range(n)))
            k = int(rng.integers(1, 4))
            mins = [int(m) for m in rng.integers(1, g.full_mask + 1, size=k)]
            A = from_minimal(g, mins)
            assert dual_structure(dual_structure(A)) == A

    def test_oracle_dual_matches_explicit_dual(self):
        g = GroundSet(("p", "q", "r"))
        table = np.fromiter((m.bit_count() >= 2 for m in range(1 << g.n)), bool)
        explicit = AccessStructure(g, qualified=table)
        assert dual_structure(explicit) == dual_structure(threshold_structure(2, g.labels))
        # past the cap the dual stays lazy: at least 2 of 21 dualizes to at least 20 of 21
        dual_lazy = dual_structure(AccessStructure(P21, oracle=lambda m: m.bit_count() >= 2))
        assert dual_lazy.qualified is None
        full = P21.full_mask
        for m in (0, 0b1, 0b11, full ^ 0b11, full ^ 0b1, full):
            assert is_qualified(dual_lazy, m) == (m.bit_count() >= 20)


class TestMatroidPort:
    def test_port_of_u23_is_two_of_two(self):
        assert matroid_port(U23, "a") == threshold_structure(2, BC)

    def test_port_is_secret_symmetric_for_uniform(self):
        assert matroid_port(U23, "b") == threshold_structure(2, ("a", "c"))

    def test_loop_secret_rejected(self):
        M = pm({"a": 0, "b": 1, "a,b": 1})
        with pytest.raises(ValueError, match="loop"):
            matroid_port(M, "a")

    def test_coloop_secret_leaves_full_set_unqualified(self):
        M = pm({"a": 1, "b": 1, "a,b": 2})
        with pytest.raises(ValueError, match="full participant set"):
            matroid_port(M, "a")

    def test_float_port_matches_integer_port(self):
        A = matroid_port(_float_u23(), "a")
        assert np.array_equal(A.qualified, matroid_port(U23, "a").qualified)

    def test_unknown_secret(self):
        with pytest.raises(Exception):
            matroid_port(U23, "zz")


def _float_u23():
    return validate_polymatroid(RankVector(U23.ground, np.asarray(U23.values, float), "float"))


@pytest.fixture(scope="module")
def port(tight_pm):
    E = helgason_expand(tight_pm)
    return E, matroid_port(E, "a_1")


class TestExpandedPort:
    """Port of the 175-atom expansion, checked against the direct
    minimisation over base subsets."""

    def min_formula(self, base, counts):
        g = base.ground
        best = None
        for A in range(g.full_mask + 1):
            outside = sum(c for i, c in enumerate(counts) if not A >> i & 1)
            v = base.value(A) + outside
            best = v if best is None else min(best, v)
        return best

    def mask_for(self, A, names):
        return A.participants.mask_of(names)

    def test_oracle_shape(self, port, tight_pm):
        E, A = port
        assert A.qualified is None
        assert len(A.participants.labels) == 175 - 1
        assert "a_1" not in A.participants.labels
        assert A.participants.labels[0] == "a_2"

    def test_full_block_subsets_match_base_port(self, port, tight_pm):
        E, A = port
        base = tight_pm
        g = base.ground
        abit = g.bit("a")
        for mask in range(g.full_mask + 1):
            if mask & abit:
                continue
            names = []
            for label in g.labels_of(mask):
                size = base.rank_of(label)
                names.extend(f"{label}_{k}" for k in range(1, size + 1))
            want = base.value(mask | abit) == base.value(mask)
            assert is_qualified(A, self.mask_for(A, names)) == want, mask

    def test_partial_blocks_match_min_formula(self, port, tight_pm):
        E, A = port
        counts_cases = [
            {"a": 36, "b": 31},
            {"a": 36},
            {"b": 31},
            {"a": 10, "d": 38},
            {"b": 31, "c": 31, "d": 38, "e": 38},
            {"a": 1},
            {},
        ]
        g = tight_pm.ground
        for case in counts_cases:
            counts = [case.get(l, 0) for l in g.labels]
            with_secret = list(counts)
            with_secret[g.index("a")] += 1
            want = self.min_formula(tight_pm, with_secret) == self.min_formula(
                tight_pm, counts
            )
            names = []
            for label, c in case.items():
                start = 2 if label == "a" else 1
                names.extend(f"{label}_{k}" for k in range(start, start + c))
            assert is_qualified(A, self.mask_for(A, names)) == want, case

    @pytest.mark.parametrize("kind", [np.int64, np.uint64, np.int32])
    def test_numpy_masks_answer_as_python_ints(self, port, kind):
        """The oracle ANDs a mask with block masks past 64 bits, which a
        numpy integer cannot take: is_qualified hands it a Python int."""
        _, A = port
        masks = [m for m in (0, 5, 2**31 - 1, 2**63 - 1, 2**64 - 1) if m <= np.iinfo(kind).max]
        for B in (A, dual_structure(A)):
            assert [is_qualified(B, kind(m)) for m in masks] == [is_qualified(B, m) for m in masks]

    def test_unknown_atom_rejected(self, tight_pm):
        E = helgason_expand(tight_pm)
        with pytest.raises(ValueError, match="not an element"):
            matroid_port(E, "zz_9")

    def test_realizes_refuses_the_oracle_port(self, port):
        E, A = port
        with pytest.raises(ValueError, match="more than 20 participants cannot be checked"):
            realizes(E, A, "a_1")

    @pytest.mark.parametrize("tolerance", [0, 1e-6, float("nan")])
    def test_exact_port_refuses_a_tolerance(self, port, tolerance):
        E, _ = port
        with pytest.raises(ValueError, match="exact and takes no tolerance"):
            matroid_port(E, "a_1", tolerance)

    def test_small_expansion_port_is_realized(self):
        E = helgason_expand(U23)
        A = matroid_port(E, "a_1")
        assert A == threshold_structure(2, ("b_1", "c_1"))
        assert realizes(E, A, "a_1") == (True, None)
        assert realizes(E, threshold_structure(1, ("b_1", "c_1")), "a_1") == (False, 0b01)
        with pytest.raises(ValueError, match="exact and takes no tolerance"):
            realizes(E, A, "a_1", 0)

    def test_lone_loop_atom_is_a_loop(self):
        E = helgason_expand(pm({"a": 1}), dualized=True)
        with pytest.raises(ValueError, match=r"'a_1' is a loop \(rank 0\)"):
            matroid_port(E, "a_1")

    def test_dualized_expansion_has_a_port_too(self, tight_pm):
        E = helgason_expand(tight_pm, dualized=True)
        A = matroid_port(E, "a_1")
        assert is_qualified(A, A.participants.full_mask)
        assert not is_qualified(A, 0)


class TestRealizes:
    def test_u23_realizes_two_of_two(self):
        ok, witness = realizes(U23, threshold_structure(2, BC), "a")
        assert ok and witness is None

    def test_u23_fails_one_of_two_with_witness(self):
        ok, witness = realizes(U23, threshold_structure(1, BC), "a")
        assert not ok
        assert witness == 0b01  # {b} claimed qualified, but f(ab) > f(b)

    def test_half_information_realizes_nothing(self):
        M = pm({"p": 2, "s": 2, "p,s": 3})
        only_structure = threshold_structure(1, ("p",))
        ok, witness = realizes(M, only_structure, "s")
        assert not ok and witness == 0b1

    def test_degenerate_secret_rejected(self):
        M = pm({"p": 1, "s": 0, "p,s": 1})
        with pytest.raises(ValueError, match="non-trivial"):
            realizes(M, threshold_structure(1, ("p",)), "s")

    def test_participant_mismatch(self):
        with pytest.raises(GroundSetMismatch):
            realizes(U23, threshold_structure(2, ("x", "y")), "a")

    @pytest.mark.parametrize("tolerance", ["0.1", True, pytest.param(10**400, id="10**400")])
    def test_tolerance_that_is_not_a_number_is_refused(self, tolerance):
        with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
            realizes(U23, threshold_structure(2, BC), "a", tolerance)
        with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
            matroid_port(U23, "a", tolerance)

    def test_scaled_float_copy_still_realizes(self):
        doubled = validate_polymatroid(linear_combine([(2.0, _float_u23())]))
        ok, witness = realizes(doubled, threshold_structure(2, BC), "a")
        assert ok and witness is None

    def test_tightening_preserves_realization(self):
        rng = np.random.default_rng(31)
        seen = 0
        while seen < 20:
            M, _ = random_matroid(rng, int(rng.integers(3, 7)))
            secret = M.ground.labels[0]
            try:
                A = matroid_port(M, secret)
            except ValueError:
                continue  # loop or coloop secret
            seen += 1
            assert realizes(M, A, secret)[0]
            assert realizes(tighten(M), A, secret)[0]

    def test_port_dual_commutes_on_matroids(self):
        # realization transfers to the dual: port(dual M) == dual(port M)
        rng = np.random.default_rng(47)
        seen = 0
        while seen < 20:
            M, _ = random_matroid(rng, int(rng.integers(3, 7)))
            secret = M.ground.labels[0]
            Md = dual(M)
            if M.rank_of(secret) == 0 or Md.rank_of(secret) == 0:
                continue
            try:
                A = matroid_port(M, secret)
                Ad = matroid_port(Md, secret)
            except ValueError:
                continue
            seen += 1
            assert Ad == dual_structure(A)
            assert realizes(Md, dual_structure(A), secret)[0]

    def test_oracle_structure_spot_checks(self):
        base = pm({"a": 2, "b": 2, "a,b": 3})
        E = helgason_expand(base)
        A = matroid_port(E, "a_1")
        dense = split_fully(base, ("a", "b"))
        ok, witness = realizes(dense, A, "a_1")
        assert ok and witness is None

    def test_oracle_structure_catches_wrong_polymatroid(self):
        base = pm({"a": 2, "b": 2, "a,b": 3})
        A = matroid_port(helgason_expand(base), "a_1")
        wrong = uniform_matroid(1, ("a_1", "a_2", "b_1", "b_2"))
        ok, witness = realizes(wrong, A, "a_1")
        assert not ok and witness is not None

    def test_every_subset_is_checked(self):
        # A differs from the port of U_{8,16} (the sets of 8 or more) on the
        # single 7-set X = {p4..p10}; a sampled check would almost surely miss it
        labels = tuple(f"p{i}" for i in range(16))
        M = uniform_matroid(8, labels)
        participants = GroundSet(labels[1:])
        X = participants.mask_of([f"p{i}" for i in range(4, 11)])
        table = np.fromiter((S.bit_count() >= 8 or S & X == X for S in range(1 << 15)), bool)
        A = AccessStructure(participants, qualified=table)
        assert X == 1016
        assert realizes(M, A, "p0") == (False, X)
        assert realizes(M, matroid_port(M, "p0"), "p0") == (True, None)


class TestRealizationUniqueness:
    """With unit singleton ranks, only one integer polymatroid realizes the
    (2,2)-threshold structure on two participants."""

    def enumerate_unit_singleton(self):
        g = GroundSet(("a", "b", "c"))
        for ab, ac, bc in itertools.product((1, 2), repeat=3):
            for abc in (1, 2, 3):
                ranks = {
                    "a": 1, "b": 1, "c": 1,
                    "a,b": ab, "a,c": ac, "b,c": bc, "a,b,c": abc,
                }
                try:
                    yield validate_polymatroid(RankVector.from_ranks(g, ranks, "int"))
                except ValidationError:
                    continue

    def test_only_u23_realizes_the_pair_threshold(self):
        target = threshold_structure(2, BC)
        winners = [
            M for M in self.enumerate_unit_singleton()
            if realizes(M, target, "a")[0]
        ]
        assert len(winners) == 1
        assert np.array_equal(winners[0].values, U23.values)

    def test_gf2_change_of_basis_gives_the_same_matroid(self):
        vectors = [0b01, 0b10, 0b11]
        T = np.array([[1, 1], [0, 1]])

        def transform(v):
            coords = np.array([v >> i & 1 for i in range(2)])
            out = (T @ coords) % 2
            return int(sum(b << i for i, b in enumerate(out)))

        M1 = gf2_matroid(vectors, ("a", "b", "c"))
        M2 = gf2_matroid([transform(v) for v in vectors], ("a", "b", "c"))
        assert np.array_equal(M1.values, M2.values)
        assert realizes(M2, matroid_port(M1, "a"), "a")[0]


class TestSigma:
    def test_ideal_threshold_ratio_is_one(self):
        value = sigma(U23, "a")
        assert isinstance(value, Fraction)
        assert value == 1

    def test_tight_fixture_ratio(self, tight_pm):
        assert sigma(tight_pm, "a") == Fraction(38, 37)
        assert sigma(tight_pm, "d") == 1
        assert sigma(tight_pm, "b") == Fraction(38, 31)

    def test_float_mode_gives_float_ratio(self, m_xi):
        value = sigma(m_xi, "a")
        assert isinstance(value, float)
        others = [m_xi.rank_of(l) for l in "bcde"]
        assert value == pytest.approx(max(others) / m_xi.rank_of("a"))

    def test_expansion_ratio_is_one_everywhere(self, tight_pm):
        E = helgason_expand(tight_pm)
        for atom in ("a_1", "b_5", "e_38"):
            assert sigma(E, atom) == 1
        Ed = helgason_expand(tight_pm, dualized=True)
        assert sigma(Ed, "c_7") == 1

    def test_rank_zero_secret_rejected(self):
        M = pm({"a": 0, "b": 1, "a,b": 1})
        with pytest.raises(ValueError, match="is a loop"):
            sigma(M, "a")

    def test_lonely_secret_of_rank_zero_is_a_rank_zero_error(self):
        # both checks fail; the loop rule is checked first
        M = validate_polymatroid(
            RankVector.from_ranks(GroundSet(("a",)), {"a": 0}, "int")
        )
        with pytest.raises(ValueError, match="is a loop"):
            sigma(M, "a")

    def test_lonely_secret_rejected(self):
        M = validate_polymatroid(
            RankVector.from_ranks(GroundSet(("a",)), {"a": 1}, "int")
        )
        with pytest.raises(ValueError, match="no participants"):
            sigma(M, "a")

    def test_one_loop_rule_for_sigma_and_the_ports(self):
        """A secret of rank within the decision tolerance is a loop to sigma,
        matroid_port and realizes alike, with one message."""
        M = pm({"s": 1e-8, "p": 1, "s,p": 1}, mode="float")
        loop = r"^secret 's' is a loop \(rank 1e-08\); the secret must be non-trivial$"
        with pytest.raises(ValueError, match=loop):
            sigma(M, "s")
        with pytest.raises(ValueError, match=loop):
            matroid_port(M, "s")
        with pytest.raises(ValueError, match=loop):
            realizes(M, threshold_structure(1, ("p",)), "s")
        assert matroid_port(M, "s", tolerance=1e-9).participants.labels == ("p",)

    def test_sigma_builds_no_gap_table(self, tight_pm, monkeypatch):
        import polyshare.secret_sharing as ss

        def refuse(*args):
            raise AssertionError("sigma built a gap table")

        monkeypatch.setattr(ss, "_secret_gaps", refuse)
        assert sigma(tight_pm, "a") == Fraction(38, 37)
        assert sigma(helgason_expand(tight_pm), "a_1") == 1

    def test_unknown_expansion_secret(self, tight_pm):
        E = helgason_expand(tight_pm)
        with pytest.raises(ValueError, match="not an element"):
            sigma(E, "zz_1")


class TestSecretIsOneLabel:
    """The secret is one element label (an atom name for an expansion),
    looked up once: a subset key, the empty key, a repeated label or a list
    is an unknown label to sigma, matroid_port and realizes alike."""

    @pytest.mark.parametrize("secret", ["a,b", "", "a,a", ["a"]])
    def test_dense_secret_must_be_a_label(self, tight_pm, secret):
        message = f"^label {re.escape(repr(secret))} not in ground set "
        A = threshold_structure(2, BC)
        for M in (tight_pm, U23):
            with pytest.raises(UnknownLabel, match=message):
                sigma(M, secret)
            with pytest.raises(UnknownLabel, match=message):
                matroid_port(M, secret)
        with pytest.raises(UnknownLabel, match=message):
            realizes(U23, A, secret)

    @pytest.mark.parametrize("secret", ["a_1,b_1", "", "a_1,a_1", ["a_1"]])
    def test_expansion_secret_must_be_an_atom(self, secret):
        E = helgason_expand(U23)
        message = f"^{re.escape(repr(secret))} is not an element of the expansion$"
        for call in (lambda: sigma(E, secret), lambda: matroid_port(E, secret),
                     lambda: realizes(E, threshold_structure(2, ("b_1", "c_1")), secret)):
            with pytest.raises(UnknownLabel, match=message):
                call()

    def test_check_order(self):
        """The expansion's tolerance refusal, then a bad tolerance, then an
        unknown label, then a loop, then no participants."""
        E = helgason_expand(U23)
        with pytest.raises(ValueError, match="exact and takes no tolerance"):
            matroid_port(E, "zz", "0.1")
        with pytest.raises(ValueError, match="tolerance must be a finite number"):
            matroid_port(U23, "zz", "0.1")
        lonely_loop = pm({"a": 0})
        with pytest.raises(UnknownLabel):
            sigma(lonely_loop, "zz")
        with pytest.raises(ValueError, match="is a loop"):
            sigma(lonely_loop, "a")


class TestJsonRoundTrips:
    def test_to_json_shape(self):
        doc = access_structure_to_json(threshold_structure(2, BC))
        assert doc == {"participants": ["b", "c"], "minimal_qualified": [["b", "c"]]}

    def test_save_load_round_trip(self, tmp_path):
        A = from_minimal(GroundSet(("p", "q", "r")), [0b001, 0b110])
        path = tmp_path / "structure.json"
        save_access_structure(A, path)
        assert load_access_structure(path) == A

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="minimal_qualified"):
            access_structure_from_json({"participants": ["p"]})

    def test_expanded_port_doc(self, tmp_path, tight_pm):
        with open(tmp_path / "tight.json", "w") as fh:
            json.dump(rank_vector_to_json(tight_pm.rank), fh)
        doc = {
            "port": {
                "expanded": {"base_file": "tight.json", "dualized": False},
                "secret": "a_1",
            }
        }
        A = access_structure_from_json(doc, base_dir=str(tmp_path))
        assert A.qualified is None
        assert len(A.participants.labels) == 174
        direct = matroid_port(helgason_expand(tight_pm), "a_1")
        probe = A.participants.mask_of([f"b_{k}" for k in range(1, 32)])
        assert is_qualified(A, probe) == is_qualified(direct, probe)

    def test_dualized_expanded_port_doc(self, tmp_path, tight_pm):
        with open(tmp_path / "tight.json", "w") as fh:
            json.dump(rank_vector_to_json(tight_pm.rank), fh)
        doc = {
            "port": {
                "expanded": {"base_file": "tight.json", "dualized": True},
                "secret": "a_1",
            }
        }
        A = access_structure_from_json(doc, base_dir=str(tmp_path))
        direct = matroid_port(helgason_expand(tight_pm, dualized=True), "a_1")
        for probe in (0, A.participants.full_mask, 0b1011):
            assert is_qualified(A, probe) == is_qualified(direct, probe)


class TestPortDocuments:
    def test_expanded_round_trip(self):
        """The base is written relative to the directory of the document's
        file, absolute without one, and read back against that directory."""
        for out, base_file in [("/work/d/p.json", "b.json"), ("/work/e/p.json", "../d/b.json"),
                               (None, "/work/d/b.json")]:
            doc = expanded_port_doc("/work/d/b.json", True, "a_1", out)
            assert doc["port"]["expanded"]["base_file"] == base_file
            base_path, dualized, secret = expanded_port_spec(doc, os.path.dirname(out or "/x/p"))
            assert (os.path.normpath(base_path), dualized, secret) == ("/work/d/b.json", True, "a_1")

    def test_dualized_defaults_to_false(self):
        doc = {"port": {"expanded": {"base_file": "b.json"}, "secret": "a_1"}}
        assert expanded_port_spec(doc, "d") == (os.path.join("d", "b.json"), False, "a_1")

    @pytest.mark.parametrize("doc", [
        {"participants": ["b"], "minimal_qualified": [["b"]]},
        {"ground": ["b"], "mode": "rank", "ranks": {"": 0, "b": 1}},
        {},
        [1],
        None,
    ])
    def test_other_documents_are_not_expanded(self, doc):
        assert expanded_port_spec(doc) is None

    @pytest.mark.parametrize("doc, field", [
        ({"port": {"expanded": {"dualized": False}, "secret": "a_1"}}, "missing 'base_file'"),
        ({"port": {"expanded": {"base_file": "b.json", "dualized": 1}, "secret": "a_1"}},
         "'dualized' must be true or false"),
        ({"port": {"expanded": {"base_file": "b.json"}}}, "missing 'secret'"),
        # a port names an expansion; a matroid file is no port document
        ({"port": {"matroid_file": "m.json", "secret": "a"}}, "port spec missing 'expanded'"),
        ({"port": ["expanded"]}, "field 'port' must be an object"),
        ({"participants": "bc", "minimal_qualified": []}, "'participants' must be a list"),
        ({"participants": ["b", "c"], "minimal_qualified": [1]}, "holds 1, not a list"),
        ({"participants": ["b", "c"], "minimal_qualified": ["bc"]}, "holds 'bc', not a list"),
    ])
    def test_malformed_document_names_the_field(self, doc, field):
        with pytest.raises(ValueError, match=field):
            access_structure_from_json(doc)

    @pytest.mark.parametrize("groups, error, message", [
        ([["b"], ["x"]], UnknownLabel, "label 'x' not in ground set ('b', 'c')"),
        ([["b"], ["c", "b", "c"]], DuplicateLabel, "duplicate label 'c'"),
        ([["b", 3]], ValueError, "holds ['b', 3], not a list of labels"),
        ([["b", True]], ValueError, "holds ['b', True], not a list of labels"),
        ([["b", ["c"]]], ValueError, "holds ['b', ['c']], not a list of labels"),
        ([["b", None]], ValueError, "holds ['b', None], not a list of labels"),
        # every group's shape is checked before any label
        ([["x"], ["b", "b"], {"b": 1}], ValueError, "holds {'b': 1}, not a list of labels"),
        ([[]], ValueError, "the empty set must not be qualified"),
    ])
    def test_bad_groups_name_the_first_fault(self, groups, error, message):
        doc = {"participants": ["b", "c"], "minimal_qualified": groups}
        with pytest.raises(error, match=re.escape(message) + "$"):
            access_structure_from_json(doc)


# labels a template writer could get wrong: "%" and "%s" in a format string,
# JSON escapes, non-ASCII characters that ensure_ascii writes as \u escapes
WRITER_LABEL = st.lists(
    st.sampled_from(["%", "%s", "%%", '"', "\\", "\n", "a", "é", "日本", "😀", "\u2028"]),
    min_size=1, max_size=3,
).map("".join)
INT_RANK = st.integers(-(2**58), 2**58) | st.integers(-3, 3)
FLOAT_RANK = st.sampled_from([1e-07, 1e+16, -2.5e-300, 5e-324, 1e22, -0.5, 1 / 3]) | st.floats(
    allow_nan=False, allow_infinity=False)


class TestWritersAgainstReference:
    """Both template writers give the bytes of json.dumps(indent=1) of the
    reference document."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.lists(WRITER_LABEL, min_size=1, max_size=6, unique=True),
           st.sampled_from(["int", "float"]), st.data())
    def test_documents_are_the_json_dumps_bytes(self, labels, mode, data):
        ground = GroundSet(labels)
        values = data.draw(st.lists(INT_RANK if mode == "int" else FLOAT_RANK | INT_RANK,
                                    min_size=ground.full_mask, max_size=ground.full_mask))
        R = RankVector(ground, [0] + values, mode)
        assert rank_document(R) == json.dumps(rank_vector_to_json(R), indent=1)
        generators = data.draw(st.lists(st.integers(1, ground.full_mask), min_size=1, max_size=8))
        A = from_minimal(ground, generators)  # any upward-closed family
        for B in (A, dual_structure(A)):
            assert access_document(B) == json.dumps(access_structure_to_json(B), indent=1)

    def test_saved_file_is_the_document_and_a_line_break(self, tmp_path):
        A = threshold_structure(2, ("%s", '"q"', "é"))
        save_access_structure(A, tmp_path / "a.json")
        text = json.dumps(access_structure_to_json(A), indent=1) + "\n"
        assert (tmp_path / "a.json").read_bytes() == text.encode()
