"""Ground sets, bitmask subsets, and rank vectors.

A ground set is an ordered tuple of distinct labels; subsets of it are plain
Python ints used as bitmasks, with bit ``i`` standing for the ``i``-th label.
A rank vector stores one value per subset, indexed directly by mask, in one of
two numeric modes: ``"int"`` (exact, int64) or ``"float"`` (binary64).  Int
mode refuses values large enough that int64 sums over them could wrap.  Dense
storage is capped at 20 elements; larger ground sets must go through the lazy
oracles in :mod:`polyshare.matroid`.
"""

import json
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


def check_dense(ground: "GroundSet") -> None:
    """Raise before anything is allocated when one value per subset of
    ``ground`` would exceed the dense cap."""
    if ground.n > MAX_DENSE_ELEMENTS:
        raise ValueError(
            f"dense storage is capped at {MAX_DENSE_ELEMENTS} elements "
            f"(got {ground.n}); use a lazy oracle instead"
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
        object.__setattr__(self, "_keys", None)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

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

    def subset_keys(self) -> list[str]:
        """``subset_format`` of every mask, indexed by mask; built on first
        use (within the dense cap) and kept for the life of the ground set."""
        if self._keys is None:
            check_dense(self)
            object.__setattr__(self, "_keys", _key_table(self.labels))
        return self._keys

    def __contains__(self, label) -> bool:
        return label in self._index

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


def _key_table(labels) -> list[str]:
    """Subset keys of all masks: those with bit i set are the keys below
    2^i, each extended by "," + label i."""
    keys = [""]
    for lbl in labels:
        tail = "," + lbl
        keys += [lbl] + [k + tail for k in keys[1:]]
    return keys


def subset_parse(ground: GroundSet, key) -> int:
    """Parse a subset key (comma-joined labels, or an iterable) into a mask."""
    if isinstance(key, str):
        key = [t for t in key.split(",") if t != ""] if key else []
    return ground.mask_of(key)


def check_mask(ground: GroundSet, mask: int) -> None:
    """Raise unless ``mask`` is a subset of ``ground``, that is 0..full."""
    if mask < 0 or mask > ground.full_mask:
        raise ValueError(f"mask {mask:#x} out of range for {ground.n} elements")


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

        Keys as ``to_ranks`` writes them are looked up in the ground set's key
        table; any other key (labels out of order, stray commas, a label
        iterable) goes through ``subset_parse``."""
        keys = ground.subset_keys()  # checks the dense cap first
        masks = list(map(dict(zip(keys, range(len(keys)))).get, ranks))
        values = list(ranks.values())
        types = set(map(type, values))
        if None in masks or 0 in masks or not types <= {int, float} or (
            mode == "int" and float in types
        ):
            masks, values = _checked_items(ground, ranks, masks, mode == "int")
        dense = [0] * (1 << ground.n)  # Python numbers, so big ints stay exact
        for mask, val in zip(masks, values):
            dense[mask] = val
        if len(masks) != ground.full_mask:  # masks are distinct and non-empty here
            seen = set(masks)
            missing = [m for m in range(1, 1 << ground.n) if m not in seen]
            first = ", ".join(keys[m] for m in missing[:5])
            raise ValueError(f"{len(missing)} subset(s) missing, first: {first}")
        return cls(ground, dense, mode)

    def value(self, mask: int):
        """Rank of a subset as a Python number (int in int mode)."""
        check_mask(self.ground, mask)
        v = self.values[mask]
        return int(v) if self.mode == "int" else float(v)

    def to_ranks(self) -> dict:
        """Ordered {subset key: value} dict, smallest subsets first."""
        keys = self.ground.subset_keys()
        order = lattice.by_size(self.ground.n)
        return dict(zip([keys[m] for m in order.tolist()], self.values[order].tolist()))

    def to_float(self) -> "RankVector":
        return RankVector(self.ground, np.asarray(self.values, dtype=np.float64), "float")

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


def _checked_items(ground: GroundSet, ranks: dict, masks: list, int_mode: bool):
    """(masks, values) of ``ranks`` checked key by key, in order: ``masks``
    holds the key-table lookups, None where a key must be parsed.  Raises on
    the first empty, repeated or unparsable key and on the first value that
    is not a real number; integral floats become ints in int mode."""
    seen = set()
    out_masks, out_values = [], []
    for key, mask, val in zip(ranks, masks, ranks.values()):
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
        out_masks.append(mask)
        out_values.append(val)
    return out_masks, out_values


def mu(rank: RankVector, mask: int):
    """Additive measure: sum of singleton ranks over the subset."""
    check_mask(rank.ground, mask)
    total = sum(rank.value(1 << i) for i in range(rank.ground.n) if mask >> i & 1)
    return total if rank.mode == "int" else float(total)


def rank_vector_to_json(rank: RankVector) -> dict:
    return {
        "ground": list(rank.ground.labels),
        "mode": rank.mode,
        "ranks": rank.to_ranks(),
    }


def rank_vector_from_json(doc: dict) -> RankVector:
    where = "rank-vector file"
    ground = GroundSet(json_field(doc, "ground", list, where))
    mode = json_field(doc, "mode", str, where)
    return RankVector.from_ranks(ground, json_field(doc, "ranks", dict, where), mode)


def load_rank_vector(path) -> RankVector:
    with open(path) as fh:
        return rank_vector_from_json(json.load(fh))


def save_rank_vector(rank: RankVector, path) -> None:
    text = dumps(rank_vector_to_json(rank))  # one write, not one per token
    with open(path, "w") as fh:
        fh.write(text + "\n")


def dumps(doc) -> str:
    """The text of ``json.dumps(doc, indent=1)``.

    Any ``indent`` makes json fall back to its pure-Python encoder.  Here the
    containers at each depth of ``doc`` go to the C encoder in one call, with
    the line break and indent of their items as the item separator, and the
    containers inside them written as null, to be replaced by their own
    text.  JSON text has a raw line break only between items (strings escape
    it), and no scalar ends with "]" or "}", so the text splits exactly."""
    if not isinstance(doc, _CONTAINERS):
        return json.dumps(doc)
    levels = []
    _collect(doc, levels, 0)
    below = []  # texts of the containers one level down, in document order
    for depth in reversed(range(len(levels))):
        sep = ",\n" + " " * (depth + 1)
        text = json.dumps([flat for flat, _ in levels[depth]], separators=(sep, ": "))
        children = iter(below)
        below = []
        start = 1
        for flat, nested in levels[depth]:
            close = "}" if isinstance(flat, dict) else "]"
            end = text.find(close + sep, start) + 1 or len(text) - 1  # the last one: before "]"
            body = text[start + 1:end - 1]
            if nested:
                items = body.split(sep)
                for i in nested:
                    items[i] = items[i][:-4] + next(children)  # in place of "null"
                body = sep.join(items)
            below.append(text[start] + sep[1:] + body + sep[1:-1] + close if body else text[start:end])
            start = end + len(sep)
    return below[0]


_CONTAINERS = (dict, list, tuple)
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _collect(obj, levels: list, depth: int) -> None:
    """Append ``(obj with each container in it as None, the positions of
    those containers)`` to ``levels[depth]``, then collect those containers
    one level down."""
    if depth == len(levels):
        levels.append([])
    values = list(obj.values()) if isinstance(obj, dict) else obj
    nested = []
    if not set(map(type, values)) <= _SCALARS:  # the exact scalar types skip this scan
        nested = [i for i, v in enumerate(values) if isinstance(v, _CONTAINERS)]
    if nested:
        flat = [None if isinstance(v, _CONTAINERS) else v for v in values]
        obj = dict(zip(obj, flat)) if isinstance(obj, dict) else flat
    levels[depth].append((obj, nested))
    for i in nested:
        _collect(values[i], levels, depth + 1)
