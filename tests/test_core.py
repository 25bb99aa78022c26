"""Ground sets, masks, and rank vectors."""


import contextlib
import io
import json
import numbers
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyshare import (
    CommaInLabel,
    DuplicateLabel,
    GroundSet,
    JointDistribution,
    ModeError,
    NonFiniteRank,
    NonNumericRank,
    RankOverflow,
    RankVector,
    UnknownLabel,
    basis_r,
    dual,
    entropy_vector,
    helgason_expand,
    is_qualified,
    load_rank_vector,
    matroid_port,
    mu,
    rank_vector_from_json,
    save_rank_vector,
    subset_format,
    subset_parse,
    threshold_structure,
    tighten,
    uniform_matroid,
    validate_polymatroid,
)
from polyshare import core, lattice
from polyshare.cli import main
from polyshare.inequalities import InfoTerm, conditional_entropy, eval_term
from polyshare.lattice import additive, by_size
from polyshare.secret_sharing import from_minimal

from conftest import rank_vector_to_json
from generators import pm

ABC = GroundSet(("a", "b", "c"))


def file_ranks(rank: RankVector) -> dict:
    """The "ranks" object of the rank file of ``rank``, as JSON reads it back."""
    return json.loads(core.rank_document(rank))["ranks"]


class TestGroundSet:
    def test_basic_bijection(self):
        assert ABC.n == 3
        assert ABC.full_mask == 0b111
        assert ABC.bit("a") == 1
        assert ABC.bit("c") == 4
        assert ABC.labels_of(0b101) == ("a", "c")

    def test_membership_and_iteration(self):
        assert "b" in ABC
        assert "z" not in ABC
        assert list(ABC) == ["a", "b", "c"]
        assert len(ABC) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GroundSet(())

    def test_mask_of_refuses_a_string(self):
        # read as characters, "ab" would be {a, b} and "a,b" would fail on ","
        for key in ("ab", "a,b", "a", ""):
            with pytest.raises(ValueError, match="not the string .*subset_parse reads"):
                ABC.mask_of(key)
        assert ABC.mask_of(["a", "b"]) == subset_parse(ABC, "a,b") == 0b011

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateLabel):
            GroundSet(("a", "b", "a"))

    def test_non_string_rejected(self):
        with pytest.raises(ValueError):
            GroundSet(("a", 3))
        with pytest.raises(ValueError):
            GroundSet(("a", ""))

    @pytest.mark.parametrize("label", ["a,b", ",", "a,", ",b"])
    def test_comma_rejected(self, label):
        # "a,b" would share its key with the pair {a, b}
        with pytest.raises(CommaInLabel, match="contains ','"):
            GroundSet(("a", "b", label))

    def test_subset_keys_in_file_order(self):
        keys, masks = ABC.subset_keys()
        assert keys == ["a", "b", "c", "a,b", "a,c", "b,c", "a,b,c"]
        assert masks.tolist() == [1, 2, 4, 3, 5, 6, 7]
        assert ABC.subset_keys() is ABC.subset_keys()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_subset_keys_match_subset_format(self, n):
        ground = GroundSet(f"x{i}" for i in range(n))
        keys, masks = ground.subset_keys()
        assert masks.tolist() == by_size(n).tolist()
        assert keys == [subset_format(ground, m) for m in masks.tolist()]

    def test_subset_keys_within_the_dense_cap(self, monkeypatch):
        monkeypatch.setattr(core, "_key_table", refuse_key_table)
        with pytest.raises(ValueError, match="capped at 20"):
            GroundSet(f"x{i}" for i in range(21)).subset_keys()


class TestSubsetKeys:
    def test_parse_pair(self):
        assert subset_parse(ABC, "a,c") == 0b101

    def test_parse_empty(self):
        assert subset_parse(ABC, "") == 0

    def test_parse_unknown(self):
        with pytest.raises(UnknownLabel):
            subset_parse(ABC, "d")

    @pytest.mark.parametrize("label", [["a"], {"a": 1}, 0])
    def test_unhashable_or_other_label_is_unknown(self, label):
        with pytest.raises(UnknownLabel, match=re.escape(f"label {label!r} not in ground set")):
            ABC.index(label)

    def test_parse_duplicate(self):
        with pytest.raises(DuplicateLabel):
            subset_parse(ABC, "a,a")

    def test_parse_iterable(self):
        assert subset_parse(ABC, ["b", "c"]) == 0b110

    def test_format(self):
        assert subset_format(ABC, 0b101) == "a,c"
        assert subset_format(ABC, 0) == ""

    def test_format_out_of_range(self):
        with pytest.raises(ValueError):
            subset_format(ABC, 0b1000)

    def test_round_trip_all_masks(self):
        for mask in range(8):
            assert subset_parse(ABC, subset_format(ABC, mask)) == mask

    def test_masks_by_size_order(self):
        masks = by_size(3).tolist()
        assert masks == [1, 2, 4, 3, 5, 6, 7]


class TestRankVector:
    def test_requires_full_length(self):
        with pytest.raises(ValueError):
            RankVector(ABC, np.zeros(7), "float")

    def test_empty_set_value_pinned(self):
        vals = np.ones(8)
        with pytest.raises(ValueError):
            RankVector(ABC, vals, "float")

    def test_unknown_mode(self):
        with pytest.raises(ModeError):
            RankVector(ABC, np.zeros(8), "rational")

    def test_int_mode_rejects_fractions(self):
        vals = np.zeros(8)
        vals[1] = 0.5
        with pytest.raises(ModeError):
            RankVector(ABC, vals, "int")

    @pytest.mark.parametrize("mode", ["int", "float"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, mode, bad):
        vals = np.ones(8)
        vals[0] = 0
        vals[5] = bad
        with pytest.raises(NonFiniteRank, match="'a,c'"):
            RankVector(ABC, vals, mode)

    @pytest.mark.parametrize("mode", ["int", "float"])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_rejected(self, mode, bad):
        text = '{"ground": ["a", "b"], "mode": "%s", "ranks": {"a": %s, "b": 1, "a,b": 1}}'
        with pytest.raises(NonFiniteRank, match="must be finite"):
            rank_vector_from_json(json.loads(text % (mode, bad)))

    @pytest.mark.parametrize("bad", [10**400, -(10**400)], ids=["1e400", "-1e400"])
    def test_float_overflow_is_non_finite(self, bad):
        doc = {"ground": ["a", "b"], "mode": "float", "ranks": {"a": 1, "b": bad, "a,b": 1}}
        with pytest.raises(NonFiniteRank, match="'b' is too large for a float"):
            rank_vector_from_json(doc)

    @pytest.mark.parametrize("mode", ["int", "float"])
    @pytest.mark.parametrize(
        "bad", ["1", True, False, None, [1], {"r": 1}, np.bool_(True), b"1", 1j]
    )
    def test_non_numeric_rank_rejected(self, mode, bad):
        with pytest.raises(NonNumericRank, match="'b'.*must be real numbers"):
            RankVector.from_ranks(GroundSet("ab"), {"a": 1, "b": bad, "a,b": 2}, mode)

    def test_numpy_and_fraction_ranks_accepted(self):
        from fractions import Fraction

        rv = RankVector.from_ranks(
            GroundSet("ab"), {"a": np.int64(1), "b": Fraction(1, 2), "a,b": np.float32(1.5)}
        )
        assert rv.values.tolist() == [0.0, 1.0, 0.5, 1.5]

    def test_values_read_only(self):
        rv = RankVector(ABC, np.zeros(8), "int")
        with pytest.raises(ValueError):
            rv.values[3] = 1

    def test_value_returns_python_scalars(self):
        rv = RankVector(ABC, np.zeros(8), "int")
        assert type(rv.value(5)) is int
        assert type(RankVector(ABC, np.asarray(rv.values, float), "float").value(5)) is float

    def test_dense_cap(self):
        big = GroundSet(tuple("abcdefghijklmnopqrstu"))
        assert big.n == 21
        with pytest.raises(ValueError):
            RankVector(big, np.zeros(1 << 21), "int")

    def test_from_ranks_round_trip(self):
        ranks = {"a": 1, "b": 1, "c": 1, "a,b": 2, "a,c": 2, "b,c": 2, "a,b,c": 2}
        rv = RankVector.from_ranks(ABC, ranks, "int")
        assert file_ranks(rv) == ranks

    def test_from_ranks_missing_subset(self):
        with pytest.raises(ValueError, match="missing"):
            RankVector.from_ranks(ABC, {"a": 1}, "int")

    def test_from_ranks_duplicate_subset(self):
        ranks = {"a": 1, "b": 1, "c": 1, "a,b": 2, "a,c": 2, "b,c": 2,
                 "a,b,c": 2, "c,a": 2}
        with pytest.raises(ValueError, match="twice"):
            RankVector.from_ranks(ABC, ranks, "int")

    def test_from_ranks_rejects_empty_key(self):
        ranks = {"": 0, "a": 1, "b": 1, "c": 1, "a,b": 2, "a,c": 2,
                 "b,c": 2, "a,b,c": 2}
        with pytest.raises(ValueError):
            RankVector.from_ranks(ABC, ranks, "int")

    def test_equality_and_hash(self):
        r1 = RankVector.from_ranks(ABC, {"a": 1, "b": 1, "c": 1, "a,b": 2,
                                         "a,c": 2, "b,c": 2, "a,b,c": 2}, "int")
        r2 = RankVector.from_ranks(ABC, {"a,b,c": 2, "a": 1, "b": 1, "c": 1,
                                         "a,b": 2, "a,c": 2, "b,c": 2}, "int")
        assert r1 == r2
        assert hash(r1) == hash(r2)
        assert r1 != RankVector(ABC, np.asarray(r1.values, float), "float")

    def test_negative_zero_is_stored_as_zero(self):
        g = GroundSet(("x", "y"))
        signed = RankVector(g, np.array([0.0, 1.0, -0.0, 1.0]))
        plain = RankVector(g, np.array([0.0, 1.0, 0.0, 1.0]))
        assert signed == plain
        assert hash(signed) == hash(plain) and len({signed, plain}) == 1
        assert not np.signbit(signed.values).any()
        assert file_ranks(signed) == {"x": 1.0, "y": 0.0, "x,y": 1.0}


class TestMaskRange:
    """Masks outside 0..full are refused, not wrapped or clipped."""

    @pytest.mark.parametrize("mask", [-1, -8, 8, 1 << 40])
    def test_out_of_range_masks(self, mask):
        u23 = uniform_matroid(2, ("a", "b", "c"))
        for query in (u23.rank.value, u23.value, u23.rank_of,
                      lambda m: mu(u23.rank, m)):
            with pytest.raises(ValueError, match="out of range for 3 elements"):
                query(mask)

    def test_edges_of_the_range(self):
        u23 = uniform_matroid(2, ("a", "b", "c"))
        assert [u23.rank_of(m) for m in (0, 7)] == [0, 2]
        with pytest.raises(ValueError, match="out of range"):
            u23.rank.value(np.int64(-1))
        assert mu(u23.rank, 7) == 3

    def test_numpy_integers_are_masks(self):
        u23 = uniform_matroid(2, ("a", "b", "c"))
        assert u23.rank_of(np.int64(7)) == u23.rank.value(np.uint8(7)) == 2
        assert u23.rank_of(np.int32(1)) == 1
        assert is_qualified(threshold_structure(1, ("p", "q")), np.int64(2))

    @pytest.mark.parametrize("mask", [True, False, 1.0, 2.5, np.float64(1), Fraction(1), "1", None])
    def test_non_integer_masks(self, mask):
        u23 = uniform_matroid(2, ("a", "b", "c"))
        t12 = threshold_structure(1, ("p", "q"))
        queries = [u23.rank.value, u23.value, lambda m: mu(u23.rank, m),
                   lambda m: subset_format(ABC, m),
                   lambda m: is_qualified(t12, m), lambda m: from_minimal(t12.participants, [m])]
        if isinstance(mask, numbers.Number):  # rank_of reads any other key as labels
            queries.append(u23.rank_of)
        for query in queries:
            with pytest.raises(ValueError, match=r"is not a subset: out of range .*0\.\.[37]\)"):
                query(mask)

    @pytest.mark.parametrize("mask", [4, -1, 1 << 40, True, False, 1.0, np.float64(1)])
    def test_basis_r_reads_a_mask(self, mask):
        # read as an index, 4 would give the zero vector and -1 the full indicator
        with pytest.raises(ValueError, match=r"is not a subset: out of range for 2 elements"):
            basis_r(GroundSet(("a", "b")), mask)

    def test_basis_r_keeps_the_empty_subset_error(self):
        with pytest.raises(ValueError, match="needs a non-empty subset"):
            basis_r(GroundSet(("a", "b")), 0)
        assert basis_r(GroundSet(("a", "b")), np.int64(2)).values.tolist() == [0, 0, 1, 1]

    @pytest.mark.parametrize("term", [
        (conditional_entropy, 4), (conditional_entropy, -1), (conditional_entropy, 1 << 40),
        (conditional_entropy, True), (conditional_entropy, np.True_), (conditional_entropy, 2, 4),
        (conditional_entropy, 2, True), (conditional_entropy, 1, -4), (InfoTerm, 1, 4),
        (InfoTerm, 2, True), (InfoTerm, 1, 2, 4),
    ])
    def test_expressions_read_masks(self, term):
        """A negative or boolean mask is refused when the term is built, one
        beyond the ground set when the term is evaluated."""
        build, *masks = term
        refused = any(isinstance(m, (bool, np.bool_)) or m < 0 for m in masks)
        reason = "masks are integers >= 0$" if refused else "out of range for 2 elements"
        with pytest.raises(ValueError, match="is not a subset: " + reason):
            eval_term(build(*masks), uniform_matroid(1, ("a", "b")))


class TestIntMode:
    def test_big_ranks_stored_exactly(self):
        ranks = {"a": 2**60 + 1, "b": 1, "a,b": 2**60 + 2}
        rv = RankVector.from_ranks(GroundSet("ab"), ranks, "int")
        assert file_ranks(rv) == ranks
        # beyond 2^53: float64 would read 2^60, 1, 2^60 and tighten to 1, 1, 1
        assert tighten(validate_polymatroid(rv)).values.tolist() == [0, 0, 0, 0]

    def test_integral_float_accepted_beside_big_ranks(self):
        ranks = {"a": 2**60 + 1, "b": 1.0, "a,b": 2**60 + 2.0}
        rv = RankVector.from_ranks(GroundSet("ab"), ranks, "int")
        assert file_ranks(rv) == {"a": 2**60 + 1, "b": 1, "a,b": 2**60}
        assert type(rv.value(2)) is int

    def test_fractional_rank_rejected(self):
        with pytest.raises(ModeError):
            RankVector.from_ranks(GroundSet("ab"), {"a": 1, "b": 1.5, "a,b": 2}, "int")

    def test_wrapping_ranks_rejected(self):
        # int64 sums would wrap this dual's pairs to -2^63, and its re-validation too
        keys = ("a", "b", "c", "a,b", "a,c", "b,c", "a,b,c")
        with pytest.raises(RankOverflow, match="could wrap"):
            RankVector.from_ranks(ABC, {k: 2**62 for k in keys}, "int")

    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_bound_is_max_times_n_plus_two(self, n):
        ground = GroundSet(f"x{i}" for i in range(n))
        limit = -(-(2**63) // (n + 2))
        values = [0] * (1 << n)
        for top in (limit - 1, -(limit - 1)):
            values[-1] = top
            assert RankVector(ground, values, "int").value(ground.full_mask) == top
        for bad in (limit, -limit, 2**63 - 1, -(2**63), 2**63, 2**70):
            values[-1] = bad
            with pytest.raises(RankOverflow):
                RankVector(ground, values, "int")
        array = np.zeros(1 << n, dtype=np.int64)
        array[-1] = -(2**63)
        with pytest.raises(RankOverflow):
            RankVector(ground, array, "int")

    def test_float_mode_has_no_bound(self):
        assert RankVector(GroundSet("a"), [0, 2.0**70], "float").value(1) == 2.0**70

    def test_cap_checked_before_allocation(self):
        ground = GroundSet(f"x{i}" for i in range(21))
        with pytest.raises(ValueError, match="capped at 20"):
            RankVector.from_ranks(ground, {"x0": 1}, "int")


WIDE = tuple(f"x{i}" for i in range(64))  # numpy refuses an array of 2^64 entries at once


@pytest.fixture()
def no_lattice(monkeypatch):
    """Building a per-subset lattice array fails the test instead of filling memory."""
    def refuse(n):
        raise AssertionError(f"a lattice array on {n} elements was built")

    monkeypatch.setattr(lattice, "masks", refuse)
    monkeypatch.setattr(lattice, "sizes", refuse)


@pytest.mark.parametrize(
    "build",
    [
        lambda: entropy_vector(JointDistribution(GroundSet(WIDE), [[0] * 64], [1.0])),
        lambda: from_minimal(GroundSet(WIDE), [1]),
        lambda: threshold_structure(2, WIDE),
        lambda: uniform_matroid(2, WIDE),
        lambda: basis_r(GroundSet(WIDE), 1),
    ],
    ids=["entropy_vector", "from_minimal", "threshold_structure", "uniform_matroid", "basis_r"],
)
def test_dense_cap_checked_first(no_lattice, build):
    with pytest.raises(ValueError, match="capped at 20 elements"):
        build()


def refuse_key_table(labels):
    raise AssertionError(f"a subset key table on {len(labels)} labels was built")


def test_expansion_and_its_port_build_no_key_table(monkeypatch, tight_fixture):
    monkeypatch.setattr(core, "_key_table", refuse_key_table)
    for dualized in (False, True):
        port = matroid_port(helgason_expand(tight_fixture, dualized=dualized), "a_1")
        assert port.participants.n == 174
        full = port.participants.full_mask
        assert is_qualified(port, full) != is_qualified(port, 0)


class TestKeyTableCache:
    """The key table of the last labels asked for is kept, so a ground set
    with those labels, such as each load of the same file, reuses it."""

    def test_equal_labels_share_one_table(self):
        first, second = GroundSet(("p", "q", "r")), GroundSet(("p", "q", "r"))
        keys, masks = first.subset_keys()
        assert second.subset_keys()[0] is keys and second.subset_keys()[1] is masks
        assert not masks.flags.writeable

    def test_one_table_across_load_save_load(self, monkeypatch, tmp_path):
        rank = uniform_matroid(2, ("s0", "s1", "s2", "s3")).rank
        save_rank_vector(rank, tmp_path / "in.json")
        core._subset_keys.cache_clear()
        calls = []
        key_table = core._key_table
        monkeypatch.setattr(core, "_key_table", lambda labels: calls.append(labels) or key_table(labels))
        loaded = load_rank_vector(tmp_path / "in.json")
        save_rank_vector(loaded, tmp_path / "out.json")
        assert load_rank_vector(tmp_path / "out.json") == rank
        assert calls == [rank.ground.labels]

    def test_other_labels_replace_the_entry(self):
        keys = GroundSet(("p", "q", "r")).subset_keys()[0]
        assert GroundSet(("p", "q", "s")).subset_keys()[0][-1] == "p,q,s"
        again = GroundSet(("p", "q", "r")).subset_keys()[0]
        assert again is not keys and again == keys
        assert core._subset_keys.cache_info().currsize == 1


class TestRanksTemplate:
    """The rank-file writer fills one template per ground set and keeps the
    template of the last labels written; a load builds none."""

    def test_template_belongs_to_its_own_labels(self, tmp_path):
        plain = uniform_matroid(2, ("s0", "s1", "s2", "s3")).rank
        escaped = RankVector(GroundSet(("p%", 'q"', "r\\", "s\u00e9")), plain.values / 3, "float")
        for i, rank in enumerate((plain, escaped, plain)):
            want = json.dumps(rank_vector_to_json(rank), indent=1)
            assert core.rank_document(rank) == want
            save_rank_vector(rank, tmp_path / f"r{i}.json")
            assert (tmp_path / f"r{i}.json").read_text() == want + "\n"
        assert core._ranks_template.cache_info().currsize == 1
        assert core._ranks_template(plain.ground.labels) is core._ranks_template(("s0", "s1", "s2", "s3"))

    def test_load_and_validate_build_no_template(self, monkeypatch, tmp_path):
        rank = uniform_matroid(2, ("a", "b", "c", "d")).rank
        save_rank_vector(rank, tmp_path / "u.json")

        def refuse(labels):
            raise AssertionError(f"a rank-file template on {len(labels)} labels was built")

        monkeypatch.setattr(core, "_ranks_template", refuse)
        assert load_rank_vector(tmp_path / "u.json") == rank
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["validate", "--in", str(tmp_path / "u.json")]) == 0
        assert out.getvalue() == "valid\n"


# The reference codec: one subset_format (rank_vector_to_json) or subset_parse call per subset.

def reference_from_ranks(ground: GroundSet, ranks: dict, mode: str) -> RankVector:
    values = [0] * (1 << ground.n)
    seen = set()
    for key, val in ranks.items():
        mask = subset_parse(ground, key)
        if mask == 0:
            raise ValueError("rank of the empty set is implicit; drop the '' key")
        if mask in seen:
            raise ValueError(f"subset {key!r} given twice")
        seen.add(mask)
        if isinstance(val, bool) or not isinstance(val, numbers.Real):
            raise NonNumericRank(f"rank of subset {key!r} is {val!r}; ranks must be real numbers")
        if mode == "int" and type(val) is not int and float(val).is_integer():
            val = int(val)
        values[mask] = val
    missing = [m for m in range(1, 1 << ground.n) if m not in seen]
    if missing:
        keys = ", ".join(subset_format(ground, m) for m in missing[:5])
        raise ValueError(f"{len(missing)} subset(s) missing, first: {keys}")
    return RankVector(ground, values, mode)


def outcome(build):
    """("ok", values, their Python types, mode) or ("error", type, message)."""
    try:
        rv = build()
    except ValueError as exc:
        return "error", type(exc), str(exc)
    return "ok", rv.values.tolist(), [type(v) for v in rv.values.tolist()], rv.mode


LABEL = st.one_of(
    st.sampled_from(["a", "b", "b c", " ", "α", "日本", "x_1"]),
    st.text(st.characters(blacklist_characters=",", blacklist_categories=("Cs",)),
            min_size=1, max_size=4),
)


ESCAPED_LABEL = st.sampled_from(['"', "\\", 'a"b', "\n", "\t\x00", "\x7f", "\u2028", "é", "😀",
                                 "%", "%s", "a%%d"]) | LABEL


@st.composite
def rank_dicts(draw):
    """(ground, mode, {key: value}) in rank-file order, with keys the codec
    writes and values of every type it reads in that mode."""
    labels = draw(st.lists(LABEL, min_size=1, max_size=8, unique=True))
    ground = GroundSet(labels)
    mode = draw(st.sampled_from(["int", "float"]))
    ints = st.integers(-(2**59), 2**59) | st.integers(-3, 3)
    value = ints if mode == "int" else st.floats(-1e6, 1e6) | ints
    if mode == "int":
        value = value | st.integers(-3, 3).map(float)  # 2.0 is read as 2
    values = draw(st.lists(value, min_size=ground.full_mask, max_size=ground.full_mask))
    keys = [subset_format(ground, m) for m in by_size(ground.n).tolist()]
    return ground, mode, dict(zip(keys, values))


class TestCodecAgainstReference:
    """Rank files and from_ranks agree with the per-subset reference codec."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rank_dicts(), st.data())
    def test_round_trip_shuffled_and_non_canonical(self, case, data):
        ground, mode, ranks = case
        rv = RankVector.from_ranks(ground, ranks, mode)
        assert outcome(lambda: rv) == outcome(lambda: reference_from_ranks(ground, ranks, mode))
        written = file_ranks(rv)
        expected = rank_vector_to_json(rv)["ranks"]
        assert list(written) == list(expected)
        assert list(written.values()) == list(expected.values())
        assert [type(v) for v in written.values()] == [type(v) for v in expected.values()]
        items = data.draw(st.permutations(list(ranks.items())))
        # a key in reverse label order, or with a trailing comma, is parsed
        rewrite = data.draw(st.lists(st.booleans(), min_size=len(items), max_size=len(items)))
        items = [(",".join(reversed(k.split(","))) if flip and "," in k else
                  (k + "," if flip else k), v) for (k, v), flip in zip(items, rewrite)]
        shuffled = dict(items)
        assert outcome(lambda: RankVector.from_ranks(ground, shuffled, mode)) == \
            outcome(lambda: reference_from_ranks(ground, shuffled, mode))
        assert RankVector.from_ranks(ground, shuffled, mode) == rv

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rank_dicts(), st.data())
    def test_same_errors(self, case, data):
        ground, mode, ranks = case
        keys = list(ranks)
        fault = data.draw(st.sampled_from(["twice", "empty", "missing", "unknown", "non-numeric"]))
        bad = dict(ranks)
        if fault == "twice" and ground.n >= 2:  # "a,b" together with "b,a"
            pair = data.draw(st.sampled_from([k for k in keys if k.count(",") == 1]))
            bad[",".join(reversed(pair.split(",")))] = bad[pair]
        elif fault == "twice":  # "a" together with "a,"
            bad[keys[0] + ","] = 1
        elif fault == "empty":
            bad[""] = 0
        elif fault == "missing":
            for key in data.draw(st.lists(st.sampled_from(keys), min_size=1, unique=True)):
                del bad[key]
        elif fault == "unknown":
            bad[keys[-1] + "," + "\N{SNOWMAN}" * 5] = 1  # labels are at most four characters
        else:
            bad[data.draw(st.sampled_from(keys))] = data.draw(
                st.sampled_from(["1", True, None, [1], 1j]))
        bad = dict(data.draw(st.permutations(list(bad.items()))))
        got = outcome(lambda: RankVector.from_ranks(ground, bad, mode))
        assert got[0] == "error"
        assert got == outcome(lambda: reference_from_ranks(ground, bad, mode))

    @pytest.mark.parametrize("mode", ["int", "float"])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(labels=st.lists(ESCAPED_LABEL, min_size=1, max_size=6, unique=True), data=st.data())
    def test_saved_bytes_match_the_reference(self, mode, labels, data):
        """save_rank_vector writes json.dumps(indent=1) of the reference
        document, whatever the labels need escaped and the values look like."""
        ground = GroundSet(labels)
        ints = st.integers(-(2**40), 2**40) | st.integers(-3, 3)
        floats = st.sampled_from([1e-07, 1e+16, -2.5e-300, -0.5, 1 / 3, 123456789.0]) | st.floats(
            -1e300, 1e300)
        values = data.draw(st.lists(ints if mode == "int" else floats | ints,
                                    min_size=ground.full_mask, max_size=ground.full_mask))
        rv = RankVector(ground, [0] + values, mode)
        with tempfile.TemporaryDirectory() as tmp:
            save_rank_vector(rv, Path(tmp) / "r.json")
            written = (Path(tmp) / "r.json").read_bytes()
        doc = rank_vector_to_json(rv)
        assert written == (json.dumps(doc, indent=1) + "\n").encode()
        assert load_rank_vector_text(written) == rv

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.lists(ESCAPED_LABEL, min_size=1, max_size=5, unique=True),
           st.sampled_from([1, 1e-07, 1e+16, 3.0]), st.integers(1, 5))
    def test_cli_output_bytes_match_the_reference(self, labels, scale, rank):
        """polyshare dual and tighten print json.dumps(indent=1) of the
        reference document of the library's result."""
        M = uniform_matroid(min(rank, len(labels)), labels)
        mode = "int" if scale == 1 else "float"
        M = validate_polymatroid(RankVector(M.ground, M.values * scale, mode))
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "m.json")
            save_rank_vector(M.rank, path)
            for command, op in (("dual", dual), ("tighten", tighten)):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main([command, "--in", path]) == 0
                result = op(M).rank
                doc = rank_vector_to_json(result)
                assert out.getvalue() == json.dumps(doc, indent=1) + "\n"


EDGE_INTS = [2**63 - 1, -(2**63 - 1), 2**63, -(2**63), -(2**63) - 1, 2**64, 2**70, -(2**70),
             10**400]
EDGE_FLOATS = [json.loads(t) for t in ("1e+16", "1E-7", "-2.5e-300", "1.7976931348623157e308",
                                      "-0.0", "0.0", "5e-324", "1e22")]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.sampled_from(["int", "float"]), st.data())
def test_from_ranks_in_file_order_is_the_checked_read(n, mode, data):
    """Ranks in file order, ints and floats near the int64 and float limits
    mixed: the fast read gives the checked read's vector or its named error."""
    ground = GroundSet([f"x{i}" for i in range(n)])
    value = st.one_of(st.integers(-3, 3), st.sampled_from(EDGE_INTS), st.sampled_from(EDGE_FLOATS),
                      st.integers(-(2**64), 2**64), st.floats(allow_nan=False, allow_infinity=False))
    values = data.draw(st.lists(value, min_size=ground.full_mask, max_size=ground.full_mask))
    ranks = dict(zip(ground.subset_keys()[0], values))
    got = outcome(lambda: RankVector.from_ranks(ground, ranks, mode))
    want = outcome(lambda: RankVector(ground, core._checked_values(ground, ranks, mode == "int"),
                                      mode))
    assert got == want


def load_rank_vector_text(text: bytes) -> RankVector:
    return rank_vector_from_json(json.loads(text))


class TestFileOrderLoad:
    """A file in rank-file order is read by one comparison with the key table;
    any other mapping is checked key by key, with the reference's errors."""

    @pytest.fixture()
    def no_checked_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the key-by-key path ran")

        monkeypatch.setattr(core, "_checked_values", refuse)
        monkeypatch.setattr(core, "subset_parse", refuse)

    @pytest.mark.parametrize("mode", ["int", "float"])
    def test_saved_file_skips_the_checked_path(self, mode, tmp_path, no_checked_path):
        ground = GroundSet(["a", 'q"', "\\", "\n", "\u00e9", "x_1", "日本"])
        values = np.random.default_rng(3).integers(0, 50, size=1 << ground.n)
        values[0] = 0
        rv = RankVector(ground, values if mode == "int" else values / 7, mode)
        save_rank_vector(rv, tmp_path / "r.json")
        assert load_rank_vector(tmp_path / "r.json") == rv

    def test_reordered_keys_take_the_checked_path(self, monkeypatch):
        ground = GroundSet(["a", "b", "c"])
        ranks = rank_vector_to_json(uniform_matroid(2, ground.labels).rank)["ranks"]
        calls = []
        checked = core._checked_values
        monkeypatch.setattr(core, "_checked_values", lambda *a: calls.append(1) or checked(*a))
        reordered = dict(reversed(list(ranks.items())))
        assert RankVector.from_ranks(ground, reordered, "int") == \
            RankVector.from_ranks(ground, ranks, "int")
        assert calls == [1]

    @pytest.mark.parametrize("mode", ["int", "float"])
    @pytest.mark.parametrize("bad", ["1", True, None, 2.0, 2.5, float("nan"), float("inf"),
                                     2**63, 2**64 - 1, 2**70, 10**400, -(2**63) - 1])
    def test_file_order_with_bad_values(self, mode, bad):
        """Keys in file order with one unusual value: the same outcome as
        the reference, whichever path reads it."""
        ground = GroundSet(["a", "b", "c"])
        for position in range(ground.full_mask):
            ranks = rank_vector_to_json(uniform_matroid(2, ground.labels).rank)["ranks"]
            ranks[list(ranks)[position]] = bad
            for values in (ranks, {k: bad for k in ranks}):
                assert outcome(lambda: RankVector.from_ranks(ground, values, mode)) == \
                    outcome(lambda: reference_from_ranks(ground, values, mode))

    def test_missing_subsets_named_in_mask_order(self):
        ground = GroundSet(["a", "b", "c"])
        ranks = {"a": 1, "a,b,c": 2}
        with pytest.raises(ValueError, match="5 subset\\(s\\) missing, first: b, a,b, c, a,c, b,c"):
            RankVector.from_ranks(ground, ranks, "int")


class TestMu:
    def test_u23_pair(self):
        u23 = uniform_matroid(2, ("a", "b", "c"))
        assert mu(u23.rank, subset_parse(ABC, "a,b")) == 2

    def test_empty_set(self):
        u23 = uniform_matroid(2, ("a", "b", "c"))
        assert mu(u23.rank, 0) == 0

    def test_full_ground_set_totals_singletons(self):
        from polyshare.reproduce import fixture_doc

        middle = rank_vector_from_json(fixture_doc("table2_middle.json"))
        assert mu(middle, middle.ground.full_mask) == 241

    def test_modularity_small(self):
        p = pm({"a": 2, "b": 1, "a,b": 2})
        for a in range(4):
            for b in range(4):
                assert mu(p.rank, a | b) + mu(p.rank, a & b) == mu(p.rank, a) + mu(p.rank, b)

    def test_mu_vector_matches_pointwise(self):
        p = pm({"a": 2, "b": 1, "a,b": 2})
        vec = additive(p.values[[1, 2]])
        assert [mu(p.rank, m) for m in range(4)] == vec.tolist()


class TestJsonFiles:
    def test_round_trip(self, tmp_path):
        u23 = uniform_matroid(2, ("a", "b", "c"))
        path = tmp_path / "u23.json"
        save_rank_vector(u23.rank, path)
        assert load_rank_vector(path) == u23.rank

    def test_missing_field_rejected(self):
        doc = rank_vector_to_json(uniform_matroid(2, ("a", "b", "c")).rank)
        for key in ("ground", "mode", "ranks"):
            broken = dict(doc)
            del broken[key]
            with pytest.raises(ValueError, match=key):
                rank_vector_from_json(broken)

    @pytest.mark.parametrize("doc, field", [
        ({"ground": "ab", "mode": "int", "ranks": {}}, "'ground' must be a list"),
        ({"ground": ["a"], "mode": "int", "ranks": [1]}, "'ranks' must be an object"),
        ({"ground": ["a"], "mode": 1, "ranks": {"a": 1}}, "'mode' must be a string"),
        ([["a"], "int", {"a": 1}], "must be a JSON object"),
    ])
    def test_malformed_document_names_the_field(self, doc, field):
        with pytest.raises(ValueError, match=field):
            rank_vector_from_json(doc)

    def test_file_is_stable(self, tmp_path):
        u23 = uniform_matroid(2, ("a", "b", "c"))
        p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
        save_rank_vector(u23.rank, p1)
        save_rank_vector(u23.rank, p2)
        assert p1.read_bytes() == p2.read_bytes()

