"""Matroids, circuits, and the unit-atom expansion of integer polymatroids.

The expansion replaces each element i by f(i) fresh unit-rank atoms.  Its rank
never needs dense storage: rank(S) = min over base subsets A of
h(A) + |S - X(A)|, a minimum over 2^|base| terms.  That value only depends on
how many atoms S takes from each block, which collapses both the memo table
and the query syntax to per-block counts.
"""

import numpy as np

from . import lattice
from .core import DuplicateLabel, ModeError, RankVector, UnknownLabel
from .polymatroid import Polymatroid, dual

# at about 123 B per entry, the rank_of_counts memo stays under ~8 MB
MEMO_ENTRIES = 2**16
_INT = frozenset((int,))


def is_matroid(M: Polymatroid) -> bool:
    """True when M is an integer polymatroid with singleton ranks 0 or 1."""
    if M.mode != "int":
        raise ModeError("matroid predicate needs integer mode; round or convert first")
    return all(M.value(1 << i) <= 1 for i in range(M.ground.n))


def circuits(M: Polymatroid) -> list[int]:
    """All minimal dependent sets, ordered by size then mask."""
    if not is_matroid(M):
        raise ValueError("not a matroid: some singleton rank exceeds 1")
    return lattice.minimal(M.values < lattice.sizes(M.ground.n))


def circuit_connected(M: Polymatroid, x: str, y: str):
    """(True, circuit mask) for the smallest circuit through both, ties broken
    by the lower mask, else (False, None)."""
    found = circuits(M)
    bx = M.ground.bit(x)
    by = M.ground.bit(y)
    if bx == by:
        raise ValueError(f"need two distinct elements, got {x!r} twice")
    pair = bx | by
    for c in found:
        if c & pair == pair:
            return True, c
    return False, None


class ExpandedMatroid:
    """Lazy rank oracle for the unit-atom expansion of an integer polymatroid.

    Block i contributes atoms "<label>_1" ... "<label>_k" with k the base rank
    of i.  With dualized=True the oracle answers for the dual matroid of the
    expansion instead: rank(S) = |S| + r(E - S) - r(E).

    Both orientations are one min-formula over the base subsets A:
    rank(C) = |C| + min_A h(A) - C(A), where C holds the per-block atom counts
    and C(A) is the number of atoms it takes from the blocks of A.  h is the
    base itself for the expansion and, for its dual, the dual base
    h*(A) = h(E - A) + s(A) - r(E) with s the block sizes (put A -> E - A in
    the formula for r(E - S)).  The expansion loses no rank, r(E) = h(E), by
    monotonicity and subadditivity, so h* is ``dual(base)``.  h(A) - C(A) is
    the slack of A.
    """

    def __init__(self, base: Polymatroid, dualized: bool = False):
        if base.mode != "int":
            raise ModeError("expansion needs an integer-mode polymatroid")
        self.base = base
        self.dualized = bool(dualized)
        ground = base.ground
        self.block_sizes = tuple(base.value(1 << i) for i in range(ground.n))
        self._block_of = {
            f"{label}_{k}": i
            for i, (label, size) in enumerate(zip(ground.labels, self.block_sizes))
            for k in range(1, size + 1)
        }
        self.element_names = tuple(self._block_of)
        self._sizes = np.array(self.block_sizes, dtype=np.int64)
        self._in = lattice.masks(ground.n) >> np.arange(ground.n)[:, None] & 1  # [i, A]: is i in A
        self._h = (dual(base) if self.dualized else base).values
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
        return ExpandedMatroid(self.base, not self.dualized)

    def _slack(self, C) -> np.ndarray:
        """h(A) - C(A) for every base subset A, for one count row or per row
        of a (k, n) array."""
        return self._h - C @ self._in

    def counts_of(self, S) -> tuple[int, ...]:
        """Per-block atom counts for a subset given as a dict {block: count},
        a string "a:12,b:3" or "a_1,b_2", or an iterable of atom names."""
        n = self.base.ground.n
        counts = [0] * n
        if isinstance(S, dict):
            for label, cnt in S.items():
                counts[self.base.ground.index(label)] = cnt
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
                    index = self.base.ground.index(label)
                    try:
                        counts[index] = int(cnt)
                    except ValueError:
                        raise ValueError(
                            f"block {label!r} count must be an integer, got {cnt.strip()!r}"
                        ) from None
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

    def _checked(self, counts) -> tuple[int, ...]:
        """The counts as Python ints, one per block, each an integer within
        its block."""
        counts = tuple(counts)
        labels = self.base.ground.labels
        if len(counts) != len(labels):
            raise ValueError(f"need {len(labels)} block counts, got {len(counts)}")
        for c, size, label in zip(counts, self.block_sizes, labels):
            if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
                raise ValueError(f"block {label!r} count must be an integer, got {c!r}")
            if not 0 <= c <= size:
                raise ValueError(f"block {label!r} holds {size} atoms, asked for {c}")
        return tuple(map(int, counts))

    def rank_of_counts(self, counts) -> int:
        """Rank of the subset with these per-block atom counts, memoised up
        to MEMO_ENTRIES distinct counts."""
        try:
            value = self._memo.get(counts)
        except TypeError:  # counts that cannot be a key, such as a list
            value = None
        # 1 == 1.0 == True as keys, so a hit stands only for counts of type int
        if value is None or not _INT.issuperset(map(type, counts)):
            key = self._checked(counts)
            value = self._memo.get(key)
            if value is None:
                value = sum(key) + int(self._slack(key).min())
                if len(self._memo) < MEMO_ENTRIES:
                    self._memo[key] = value
        return value

    def ranks_of_counts(self, C) -> np.ndarray:
        """Ranks of many subsets at once, one per row of the (k, n) array of
        per-block atom counts C.  The memo is neither read nor filled."""
        n = self.base.ground.n
        shape = np.shape(C)
        if len(shape) != 2 or shape[1] != n:
            raise ValueError(f"need a (k, {n}) array of block counts, got shape {shape}")
        if not (isinstance(C, np.ndarray) and C.dtype.kind in "iu") or (
            (C < 0) | (C > self._sizes)
        ).any():  # each row checked in turn, so the first bad count is reported
            C = np.array([self._checked(row) for row in C], dtype=np.int64).reshape(shape)
        C = C.astype(np.int64, copy=False)
        return C.sum(axis=1) + self._slack(C).min(axis=1)

    def spans(self, C, block: int):
        """Does the subset with per-block atom counts C span the atoms of
        ``block`` it leaves out, that is, does one more add no rank?  One
        flag for one count row, one per row of a (k, n) array.  Nothing is
        checked or memoised: each row must leave an atom of the block out."""
        # with m1 and m0 the least slack over the A that hold the block and
        # over the rest, one more atom takes the rank from |C| + min(m0, m1)
        # to |C| + min(m0 + 1, m1): no gain exactly when m1 <= m0
        least = lattice.split_min(self._slack(C), block)
        return least[..., 1] <= least[..., 0]

    def rank(self, S) -> int:
        return self.rank_of_counts(self.counts_of(S))


def helgason_expand(M: Polymatroid, dualized: bool = False) -> ExpandedMatroid:
    """Expand each element of an integer polymatroid into unit atoms."""
    return ExpandedMatroid(M, dualized)


def block_collapse(E: ExpandedMatroid) -> Polymatroid:
    """Dense polymatroid of block-union ranks; recovers the base when not
    dualized, and the base's dual when the base is tight.  The union of the
    blocks in B takes s(B) atoms, so its rank is
    s(B) + min over A of h(A) - s(A & B)."""
    values = lattice.least_over(E._h, E.block_sizes) + lattice.additive(E._sizes)
    return Polymatroid(RankVector(E.base.ground, values, "int"))


def expanded_mmrv(E: ExpandedMatroid, roles=None) -> int:
    """MMRV evaluated on the ranks of unions of blocks: the five of roles,
    or all of a five-block base in ground order."""
    from .inequalities import mmrv

    return mmrv(block_collapse(E), roles=roles)
