"""The one number rule of every entry point that takes a number.

core.integer and core.real decide what counts as a number: an integral or a
real one, numpy's and Fraction too, never a bool.  Each property draws one
value of every kind (Python int, float and bool; numpy int8 to uint64,
float16 to float64 and bool_; Fraction, Decimal and str) into one entry
point.  A number must give what its Python int or float gives, in value and
in type; anything else must be refused with a ValueError that names it.
"""

import math
import numbers
from decimal import Decimal
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from polyshare import (
    GroundSet,
    InfoTerm,
    JointDistribution,
    RankVector,
    check_polymatroid,
    eval_term,
    helgason_expand,
    linear_combine,
    principal_extension,
    rank_vector_from_json,
    split_atom,
    threshold_structure,
    uniform_matroid,
)

from generators import pm

NUMPY_INTS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
NUMPY_FLOATS = (np.float16, np.float32, np.float64)
U23 = uniform_matroid(2, "abc")
U24 = uniform_matroid(2, "abcd")
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def moderate(floats):
    """Floats that no entry point scales past the float range, and the non-finite ones."""
    return floats.filter(lambda x: abs(x) < 1e30 or not math.isfinite(x))


def every_kind(small):
    """Values of every kind, many of them near ``small``, the Python ints
    that matter to the entry point under test."""
    def numpy_int(kind):
        info = np.iinfo(kind)
        near = small.filter(lambda v: info.min <= v <= info.max)
        return (near | st.integers(info.min, info.max)).map(kind)

    def numpy_float(kind):
        return (small.map(float) | moderate(st.floats(width=np.finfo(kind).bits))).map(kind)

    return st.one_of(
        small, st.integers(-(2**70), 2**70), st.just(10**400), moderate(st.floats()), st.booleans(),
        st.sampled_from(NUMPY_INTS).flatmap(numpy_int),
        st.sampled_from(NUMPY_FLOATS).flatmap(numpy_float),
        st.booleans().map(np.bool_),
        small.map(Fraction) | st.fractions(max_denominator=7),
        small.map(Decimal) | st.decimals(allow_nan=False, places=2),
        small.map(str) | st.text(max_size=3),
    )


def as_python(value):
    """The Python int or float of a number; None for a bool, a Decimal or a str."""
    if isinstance(value, (bool, np.bool_, Decimal, str)):
        return None
    return int(value) if isinstance(value, (int, np.integer)) else float(value)


def outcome(call, value):
    """call(value), or the type of the ValueError it raises."""
    try:
        return call(value)
    except ValueError as exc:
        return type(exc)


def check(call, value, key=lambda result: result):
    """A number gives what its Python number gives: the same result, with
    Python scalars, or the same kind of refusal.  Anything else is refused
    with a ValueError that names it."""
    number = as_python(value)
    if number is None:
        try:
            call(value)
        except ValueError as exc:
            assert repr(value)[:40] in str(exc) or str(value)[:40] in str(exc), str(exc)
            return
        raise AssertionError(f"{value!r} was taken as a number")
    got, want = outcome(call, value), outcome(call, number)
    if isinstance(want, type):
        assert got is want
        return
    assert key(got) == key(want)
    scalars = key(got) if isinstance(key(got), tuple) else (key(got),)
    assert all(type(x) in (int, float) for x in scalars if isinstance(x, (numbers.Number, np.generic)))


def test_a_narrow_numpy_coefficient_does_not_wrap():
    """np.uint8(200) times I(ab;cd) = 2 is 400, a Python int, not np.uint8(144)."""
    value = eval_term(InfoTerm(0b0011, 0b1100, 0, np.uint8(200)), U24)
    assert value == 400 and type(value) is int
    assert eval_term(InfoTerm(0b0011, 0b1100, 0, np.int8(100)), U24) == 200
    assert type(eval_term(InfoTerm(0b0011, 0b1100, 0, np.float16(0.1)), U24)) is float


@SETTINGS
@given(every_kind(st.integers(-3, 16)))
def test_info_term(value):
    def term(coeff):
        t = InfoTerm(0b0011, 0b1100, 0, coeff)
        return t.coeff, eval_term(t, U24)

    check(term, value)
    check(lambda mask: eval_term(InfoTerm(mask, 0b1000), U24), value)


@SETTINGS
@given(every_kind(st.integers(-1, 3)))
def test_principal_extension(value):
    for base in (U23, pm({"a": 1, "b": 1, "a,b": 2}, "float")):
        check(lambda alpha: principal_extension(base, "a", alpha, "z"), value)


@SETTINGS
@given(every_kind(st.integers(-1, 3)))
def test_split_atom(value):
    for base in (pm({"a": 2, "b": 1, "a,b": 2}), pm({"a": 2, "b": 1, "a,b": 2}, "float")):
        check(lambda alpha: split_atom(base, "a", alpha, 1, ("a1", "a2")), value)


@SETTINGS
@given(every_kind(st.integers(-1, 3)))
def test_linear_combine(value):
    check(lambda coeff: linear_combine([(1, U23), (coeff, U23)]), value)


@SETTINGS
@given(every_kind(st.integers(-1, 3)))
def test_check_polymatroid_tolerance(value):
    noisy = RankVector(GroundSet("ab"), [0, 1, 1, 2 + 1e-6], "float")  # submodular within 1e-6
    check(lambda tolerance: check_polymatroid(noisy, tolerance), value)


@SETTINGS
@given(every_kind(st.integers(-1, 5)))
def test_uniform_matroid(value):
    check(lambda k: uniform_matroid(k, "abc"), value)


@SETTINGS
@given(every_kind(st.integers(-1, 4)))
def test_threshold_structure(value):
    check(lambda k: threshold_structure(k, "pqr"), value)


@SETTINGS
@given(every_kind(st.integers(-1, 3)))
def test_rank_of_counts(value):
    E = helgason_expand(pm({"a": 2, "b": 1, "a,b": 2}))
    check(lambda count: E.rank_of_counts((count, 1)), value)


@SETTINGS
@given(every_kind(st.integers(-2, 2)))
def test_joint_distribution(value):
    def rows(d):
        return d.outcomes.tolist(), d.probs.tolist()

    check(lambda v: JointDistribution(GroundSet("a"), [[v], [7]], [0.5, 0.5]), value, rows)
    check(lambda p: JointDistribution(GroundSet("a"), [[0], [1]], [p, 0.5]), value, rows)


@SETTINGS
@given(every_kind(st.integers(-2, 3)))
def test_rank_vector_from_json(value):
    for mode in ("int", "float"):
        doc = {"ground": ["a", "b"], "mode": mode, "ranks": {"b": 1, "a": 0, "a,b": 1}}
        check(lambda rank: rank_vector_from_json({**doc, "ranks": {**doc["ranks"], "a": rank}}),
              value, lambda rv: (rv, rv.value(1)))

