"""Matroids, circuits, and the unit-atom expansion of integer polymatroids.

The expansion replaces each element i by f(i) fresh unit-rank atoms.  Its rank
never needs dense storage: rank(S) = min over base subsets A of
h(A) + |S - X(A)|, a minimum over 2^|base| terms.  That value only depends on
how many atoms S takes from each block, which collapses both the memo table
and the query syntax to per-block counts.
"""

from itertools import combinations

import numpy as np

from . import lattice
from .core import DuplicateLabel, GroundSet, ModeError, RankVector, UnknownLabel
from .polymatroid import Polymatroid

MAX_CIRCUIT_ELEMENTS = 15


def is_matroid(M: Polymatroid) -> bool:
    """True when M is an integer polymatroid with singleton ranks 0 or 1."""
    if M.mode != "int":
        raise ModeError("matroid predicate needs integer mode; round or convert first")
    return all(M.value(1 << i) <= 1 for i in range(M.ground.n))


def _require_matroid(M: Polymatroid):
    if not is_matroid(M):
        raise ValueError("not a matroid: some singleton rank exceeds 1")
    if M.ground.n > MAX_CIRCUIT_ELEMENTS:
        raise ValueError(
            f"circuit enumeration capped at {MAX_CIRCUIT_ELEMENTS} elements, "
            f"got {M.ground.n}"
        )


def circuits(M: Polymatroid) -> list[int]:
    """All minimal dependent sets, ordered by size then mask."""
    _require_matroid(M)
    return lattice.minimal(M.values < lattice.sizes(M.ground.n))


def _is_circuit(vals: np.ndarray, mask: int) -> bool:
    size = mask.bit_count()
    if vals[mask] >= size:
        return False
    rest = mask
    while rest:
        bit = rest & -rest
        rest ^= bit
        sub = mask ^ bit
        if vals[sub] < size - 1:
            return False
    return True


def circuit_connected(M: Polymatroid, x: str, y: str):
    """(True, circuit mask) for the smallest circuit through both, else (False, None)."""
    _require_matroid(M)
    bx = M.ground.bit(x)
    by = M.ground.bit(y)
    if bx == by:
        raise ValueError(f"need two distinct elements, got {x!r} twice")
    pair = bx | by
    others = [1 << i for i in range(M.ground.n) if not (1 << i) & pair]
    vals = M.values
    for r in range(len(others) + 1):
        for extra in combinations(others, r):
            mask = pair
            for b in extra:
                mask |= b
            if _is_circuit(vals, mask):
                return True, mask
    return False, None


class ExpandedMatroid:
    """Lazy rank oracle for the unit-atom expansion of an integer polymatroid.

    Block i contributes atoms "<label>_1" ... "<label>_k" with k the base rank
    of i.  With dualized=True the oracle answers for the dual matroid of the
    expansion instead: rank(S) = |S| + r(E - S) - r(E).
    """

    def __init__(self, base: Polymatroid, dualized: bool = False):
        if base.mode != "int":
            raise ModeError("expansion needs an integer-mode polymatroid")
        self.base = base
        self.dualized = bool(dualized)
        ground = base.ground
        self.block_sizes = tuple(base.value(1 << i) for i in range(ground.n))
        self.blocks = {
            label: tuple(f"{label}_{k}" for k in range(1, size + 1))
            for label, size in zip(ground.labels, self.block_sizes)
        }
        self.element_names = tuple(
            name for label in ground.labels for name in self.blocks[label]
        )
        self._block_of = {
            name: i
            for i, label in enumerate(ground.labels)
            for name in self.blocks[label]
        }
        masks = np.arange(1 << ground.n, dtype=np.int64)
        self._membership = (masks[:, None] >> np.arange(ground.n) & 1).astype(np.int64)
        self._memo: dict[tuple[int, ...], int] = {}

    @property
    def n_elements(self) -> int:
        return len(self.element_names)

    def block_of(self, name: str) -> int:
        """Index of the base element whose block holds the atom ``name``."""
        try:
            return self._block_of[name]
        except KeyError:
            raise UnknownLabel(f"{name!r} is not an element of the expansion") from None

    def dual(self) -> "ExpandedMatroid":
        flipped = ExpandedMatroid(self.base, not self.dualized)
        flipped._memo = self._memo  # same underlying min-formula values
        return flipped

    def _g(self, counts: tuple[int, ...]) -> int:
        cached = self._memo.get(counts)
        if cached is None:
            c = np.asarray(counts, dtype=np.int64)
            cached = int(c.sum() + (self.base.values - self._membership @ c).min())
            self._memo[counts] = cached
        return cached

    def counts_of(self, S) -> tuple[int, ...]:
        """Per-block atom counts for a subset given as a dict {block: count},
        a string "a:12,b:3" or "a_1,b_2", or an iterable of atom names."""
        n = self.base.ground.n
        counts = [0] * n
        if isinstance(S, dict):
            for label, cnt in S.items():
                counts[self.base.ground.index(label)] = int(cnt)
            return tuple(counts)
        if isinstance(S, str):
            tokens = [t.strip() for t in S.split(",") if t.strip()]
            if any(":" in t for t in tokens):
                seen = set()
                for t in tokens:
                    label, _, cnt = t.partition(":")
                    if label in seen:
                        raise DuplicateLabel(f"block {label!r} given twice")
                    seen.add(label)
                    counts[self.base.ground.index(label)] = int(cnt)
                return tuple(counts)
            S = tokens
        seen = set()
        for name in S:
            idx = self.block_of(name)
            if name in seen:
                raise DuplicateLabel(f"element {name!r} given twice")
            seen.add(name)
            counts[idx] += 1
        return tuple(counts)

    def rank_of_counts(self, counts) -> int:
        counts = tuple(int(c) for c in counts)
        if len(counts) != self.base.ground.n:
            raise ValueError(f"need {self.base.ground.n} block counts, got {len(counts)}")
        for c, size, label in zip(counts, self.block_sizes, self.base.ground.labels):
            if c < 0 or c > size:
                raise ValueError(f"block {label!r} holds {size} atoms, asked for {c}")
        if not self.dualized:
            return self._g(counts)
        comp = tuple(s - c for s, c in zip(self.block_sizes, counts))
        return self._g(comp) + sum(counts) - self._g(self.block_sizes)

    def rank(self, S) -> int:
        return self.rank_of_counts(self.counts_of(S))

    def block_rank(self, block_mask: int) -> int:
        """Rank of the union of whole blocks."""
        counts = tuple(
            size if block_mask >> i & 1 else 0
            for i, size in enumerate(self.block_sizes)
        )
        return self.rank_of_counts(counts)


def helgason_expand(M: Polymatroid, dualized: bool = False) -> ExpandedMatroid:
    """Expand each element of an integer polymatroid into unit atoms."""
    return ExpandedMatroid(M, dualized)


def block_collapse(E: ExpandedMatroid) -> Polymatroid:
    """Dense polymatroid of block-union ranks; recovers the base when not
    dualized, and the base's dual when the base is tight."""
    ground = E.base.ground
    values = np.fromiter(
        (E.block_rank(m) for m in range(1 << ground.n)), dtype=np.int64, count=1 << ground.n
    )
    return Polymatroid(RankVector(ground, values, "int"))


def expanded_mmrv(E: ExpandedMatroid, roles=None) -> int:
    """MMRV evaluated on the ranks of unions of five blocks."""
    from .inequalities import mmrv

    base_ground = E.base.ground
    if base_ground.n < 5:
        raise ValueError(f"need at least five blocks, got {base_ground.n}")
    labels = tuple(roles) if roles is not None else base_ground.labels
    if len(labels) != 5 or len(set(labels)) != 5:
        raise ValueError(f"roles must pick five distinct blocks, got {labels}")
    block_masks = lattice.additive([base_ground.bit(lbl) for lbl in labels])
    values = [E.block_rank(m) for m in block_masks.tolist()]
    ground5 = GroundSet(labels)
    return mmrv(Polymatroid(RankVector(ground5, values, "int")))
