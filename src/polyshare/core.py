"""Ground sets, bitmask subsets, and rank vectors.

A ground set is an ordered tuple of distinct labels; subsets of it are plain
Python ints used as bitmasks, with bit ``i`` standing for the ``i``-th label.
A rank vector stores one value per subset, indexed directly by mask, in one of
two numeric modes: ``"int"`` (exact, int64) or ``"float"`` (binary64).  Int
mode refuses values large enough that int64 sums over them could wrap.  Dense
storage is capped at 20 elements; larger ground sets must go through the lazy
oracles in :mod:`polyshare.matroid`.
"""

import contextlib
import functools
import json
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from . import lattice

MAX_DENSE_ELEMENTS = 20

MODES = ("int", "float")


class UnknownLabel(ValueError):
    """A label that does not occur in the ground set."""


class DuplicateLabel(ValueError):
    """A label repeated where distinct labels are required."""


class CommaInLabel(ValueError):
    """A label containing ",", which separates the labels of a subset key."""


class ModeError(ValueError):
    """Numeric modes mixed without an explicit conversion."""


class GroundSetMismatch(ValueError):
    """Operands defined over different ground sets."""


class NonFiniteRank(ValueError):
    """A NaN or infinite value where a rank is expected."""


class NonNumericRank(ValueError):
    """A rank given as something other than a real number (a string, a bool)."""


class RankOverflow(ValueError):
    """Int-mode ranks so large that int64 sums over them could wrap around."""


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", bool: "true or false",
               (int, float): "a number"}


def json_field(doc, name: str, kind, where: str):
    """``doc[name]`` of a parsed JSON document, checked to be a ``kind`` (a key
    of _JSON_TYPES); the ValueError names the field when it is missing or of
    another type.  A boolean is not a number here."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {doc!r:.40}")
    if name not in doc:
        raise ValueError(f"{where} missing {name!r}")
    value = doc[name]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{where} field {name!r} must be {_JSON_TYPES[kind]}, got {value!r:.40}")
    return value


def check_dense(ground: "GroundSet", added: int = 0) -> None:
    """Raise before anything is allocated when one value per subset of
    ``ground`` and ``added`` more elements would exceed the dense cap."""
    if ground.n + added > MAX_DENSE_ELEMENTS:
        raise ValueError(
            f"dense storage is capped at {MAX_DENSE_ELEMENTS} elements "
            f"(got {ground.n + added}); use a lazy oracle instead"
        )


@dataclass(frozen=True)
class GroundSet:
    """Ordered labels with a fixed label-to-bit bijection."""

    labels: tuple[str, ...]

    def __init__(self, labels):
        object.__setattr__(self, "labels", tuple(labels))
        if not self.labels:
            raise ValueError("ground set must have at least one element")
        seen = set()
        for lbl in self.labels:
            if not isinstance(lbl, str) or not lbl:
                raise ValueError(f"labels must be non-empty strings, got {lbl!r}")
            if "," in lbl:
                raise CommaInLabel(f"label {lbl!r} contains ',', which separates subset labels")
            if lbl in seen:
                raise DuplicateLabel(f"duplicate label {lbl!r}")
            seen.add(lbl)
        object.__setattr__(self, "_index", {l: i for i, l in enumerate(self.labels)})
        object.__setattr__(self, "n", len(self.labels))
        object.__setattr__(self, "full_mask", (1 << self.n) - 1)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"label {label!r} not in ground set {self.labels}") from None

    def bit(self, label: str) -> int:
        return 1 << self.index(label)

    def mask_of(self, labels) -> int:
        """Mask with exactly the given labels set; duplicates are rejected."""
        mask = 0
        for lbl in labels:
            b = self.bit(lbl)
            if mask & b:
                raise DuplicateLabel(f"duplicate label {lbl!r}")
            mask |= b
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(l for i, l in enumerate(self.labels) if mask >> i & 1)

    def subset_keys(self) -> tuple[list[str], np.ndarray]:
        """(keys, masks) of the non-empty subsets in rank-file order, within the cap (shared)."""
        check_dense(self)
        return _subset_keys(self.labels)

    def __contains__(self, label) -> bool:
        return label in self._index

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


@functools.lru_cache(maxsize=1)  # the last labels' table, so that a reload builds none
def _subset_keys(labels: tuple[str, ...]) -> tuple[list[str], np.ndarray]:
    masks = lattice.by_size(len(labels))
    masks.setflags(write=False)
    return _key_table(labels), masks


def _key_table(labels) -> list[str]:
    """Keys of the non-empty subsets by size, ties by mask: the size-k keys with highest
    label j are the first C(j, k - 1) keys of size k - 1, each extended by "," + label j."""
    level = list(labels)
    keys = list(level)
    for k in range(2, len(labels) + 1):
        below, level = level, []
        for j in range(k - 1, len(labels)):
            tail = "," + labels[j]
            level += [key + tail for key in below[:math.comb(j, k - 1)]]
        keys += level
    return keys


def subset_parse(ground: GroundSet, key) -> int:
    """Parse a subset key (comma-joined labels, or an iterable) into a mask."""
    if isinstance(key, str):
        key = [t for t in key.split(",") if t != ""] if key else []
    return ground.mask_of(key)


def check_mask(ground: GroundSet, mask: int) -> None:
    """Raise unless ``mask`` is a subset of ``ground``: an integer, not a bool, in 0..full."""
    is_int = type(mask) is int or isinstance(mask, numbers.Integral) and not isinstance(mask, bool)
    if not is_int or not 0 <= mask <= ground.full_mask:
        raise ValueError(f"mask {mask!r} is not a subset: out of range for {ground.n} "
                         f"elements (valid: integers 0..{ground.full_mask})")


def subset_format(ground: GroundSet, mask: int) -> str:
    """Subset key for a mask: labels joined by "," in ground-set order."""
    check_mask(ground, mask)
    return ",".join(ground.labels_of(mask))


@dataclass(frozen=True, eq=False)
class RankVector:
    """Dense set function on all subsets of a ground set.

    ``values[mask]`` holds the rank of the subset ``mask``; ``values[0]`` is
    the empty set and is always 0.  The array is read-only after construction.
    """

    ground: GroundSet
    values: np.ndarray = field(repr=False)
    mode: str = "float"

    def __init__(self, ground: GroundSet, values, mode: str = "float"):
        if mode not in MODES:
            raise ModeError(f"mode must be one of {MODES}, got {mode!r}")
        check_dense(ground)
        arr = np.asarray(values)
        if arr.shape != (1 << ground.n,):
            raise ValueError(
                f"expected {1 << ground.n} values (one per subset), got shape {arr.shape}"
            )
        if mode == "float":
            try:
                arr = np.asarray(arr, dtype=np.float64)
            except OverflowError:  # a Python int beyond the float range
                bad = next(i for i, v in enumerate(arr.tolist()) if abs(v) > sys.float_info.max)
                raise NonFiniteRank(
                    f"rank of subset {subset_format(ground, bad)!r} is too large for a float; "
                    "ranks must be finite"
                ) from None
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise NonFiniteRank(
                f"rank of subset {subset_format(ground, bad)!r} is {arr[bad]}; "
                "ranks must be finite"
            )
        if mode == "int":
            # every library sum stays below (n + 2) * max|value|
            limit = -(-(1 << 63) // (ground.n + 2))
            if arr.max() >= limit or arr.min() <= -limit:
                raise RankOverflow(
                    f"int-mode ranks must lie strictly between -{limit} and {limit} "
                    f"on {ground.n} elements, or int64 sums could wrap"
                )
            cast = np.asarray(arr, dtype=np.int64)
            if not np.array_equal(cast, arr):
                raise ModeError("non-integer values in int mode")
            arr = cast
        if arr[0] != 0:
            raise ValueError(f"rank of the empty set must be 0, got {arr[0]}")
        # a fresh array; in float mode + 0.0 also stores -0.0 as 0.0, so that
        # equal vectors hash equal
        arr = arr + 0.0 if mode == "float" else arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "mode", mode)

    @classmethod
    def from_ranks(cls, ground: GroundSet, ranks: dict, mode: str = "float") -> "RankVector":
        """Build from a {subset key: value} mapping covering every nonempty subset.

        One comparison with the key table reads the keys of a rank file in its
        order, with plain int or float values the mode takes; others are checked."""
        keys, order = ground.subset_keys()  # checks the dense cap first
        types = set(map(type, ranks.values()))
        if list(ranks) == keys and types <= ({int} if mode == "int" else {int, float}):
            dense = np.zeros(1 << ground.n, np.float64 if float in types else np.int64)
            with contextlib.suppress(OverflowError):  # an int beyond int64 is checked below
                dense[order] = np.fromiter(ranks.values(), dense.dtype, count=len(keys))
                return cls(ground, dense, mode)
        return cls(ground, _checked_values(ground, ranks, mode == "int"), mode)

    def value(self, mask: int):
        """Rank of a subset as a Python number (int in int mode)."""
        check_mask(self.ground, mask)
        v = self.values[mask]
        return int(v) if self.mode == "int" else float(v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RankVector):
            return NotImplemented
        return (
            self.ground.labels == other.ground.labels
            and self.mode == other.mode
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.ground.labels, self.mode, self.values.tobytes()))


def _checked_values(ground: GroundSet, ranks: dict, int_mode: bool) -> list:
    """Values of ``ranks`` indexed by mask, checked key by key: raises on the first
    empty, repeated or unparsable key or non-numeric value, then on missing
    subsets; integral floats become ints in int mode."""
    keys, order = ground.subset_keys()
    table = dict(zip(keys, order.tolist()))
    dense = [0] * (1 << ground.n)  # Python numbers, so big ints stay exact
    seen = set()
    for key, val in ranks.items():
        mask = table.get(key)
        if mask is None:
            mask = subset_parse(ground, key)
        if mask == 0:
            raise ValueError("rank of the empty set is implicit; drop the '' key")
        if mask in seen:
            raise ValueError(f"subset {key!r} given twice")
        seen.add(mask)
        # plain ints and floats skip the slower abstract-base-class check
        if type(val) not in (int, float) and (
            isinstance(val, bool) or not isinstance(val, numbers.Real)
        ):
            raise NonNumericRank(f"rank of subset {key!r} is {val!r}; ranks must be real numbers")
        if int_mode and type(val) is not int and float(val).is_integer():
            val = int(val)  # 2.0 in int mode, kept exact beside big ints
        dense[mask] = val
    if len(seen) != ground.full_mask:
        missing = [m for m in range(1, 1 << ground.n) if m not in seen]
        first = ", ".join(subset_format(ground, m) for m in missing[:5])
        raise ValueError(f"{len(missing)} subset(s) missing, first: {first}")
    return dense


def mu(rank: RankVector, mask: int):
    """Additive measure: sum of singleton ranks over the subset."""
    check_mask(rank.ground, mask)
    total = sum(rank.value(1 << i) for i in range(rank.ground.n) if mask >> i & 1)
    return total if rank.mode == "int" else float(total)


def rank_vector_from_json(doc: dict, added: int = 0) -> RankVector:
    """The rank vector of a document; one that would leave no room for
    ``added`` more elements within the dense cap is refused before any rank is read."""
    where = "rank-vector file"
    ground = GroundSet(json_field(doc, "ground", list, where))
    mode = json_field(doc, "mode", str, where)
    check_dense(ground, added)
    return RankVector.from_ranks(ground, json_field(doc, "ranks", dict, where), mode)


def load_rank_vector(path, added: int = 0) -> RankVector:
    with open(path) as fh:
        return rank_vector_from_json(json.load(fh), added)


def save_rank_vector(rank: RankVector, path) -> None:
    with open(path, "w") as fh:
        print(rank_document(rank), file=fh)


def rank_document(rank: RankVector) -> str:
    """The rank file of ``rank``: the text of ``json.dumps(doc, indent=1)`` for
    the document of the labels, the mode and a {subset key: rank} object in
    key-table order, filled into the one "%" template of its labels, not a dict."""
    values = rank.values[rank.ground.subset_keys()[1]].tolist()
    head = json.dumps({"ground": list(rank.ground.labels), "mode": rank.mode}, indent=1)[:-2]
    ranks = _ranks_template(rank.ground.labels) % tuple(values)
    return head + ',\n "ranks": {\n  ' + ranks + "\n }\n}"  # head is still open: no "\n}"


@functools.lru_cache(maxsize=1)  # the last labels written, so that a rewrite builds none
def _ranks_template(labels: tuple[str, ...]) -> str:
    """The "ranks" object's members, with "%s" for each rank.  JSON escapes keys
    character by character, never ",", so the quoted keys are the key table of
    the escaped labels, with "%" doubled for the template: the ground set's own
    table when no label needs either."""
    escaped = [json.dumps(label)[1:-1].replace("%", "%%") for label in labels]
    keys = _subset_keys(labels)[0] if escaped == list(labels) else _key_table(escaped)
    return '"' + '": %s,\n  "'.join(keys) + '": %s'
