"""Matroids, circuits, and the unit-atom expansion of integer polymatroids.

The expansion replaces each element i by f(i) fresh unit-rank atoms.  Its rank
never needs dense storage: rank(S) = min over base subsets A of
h(A) + |S - X(A)|, a minimum over 2^|base| terms.  That value only depends on
how many atoms S takes from each block, which collapses both the memo table
and the query syntax to per-block counts.
"""

import operator
from itertools import accumulate

import numpy as np

from . import lattice
from .core import MAX_DENSE_ELEMENTS, DuplicateLabel, GroundSet, ModeError, RankVector, UnknownLabel, integer
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
    rank(C) = min_A h(A) + C(E - A), where C holds the per-block atom counts
    and C(E - A) is the number of atoms it takes from the blocks outside A.
    h is the base itself for the expansion and, for its dual, the dual base
    h*(A) = h(E - A) + s(A) - r(E) with s the block sizes (put A -> E - A in
    the formula for r(E - S)).  The expansion loses no rank, r(E) = h(E), by
    monotonicity and subadditivity, so h* is ``dual(base)``.  One int64 table
    ``_rows`` holds h, then [i not in A] per element i, so (1, C) @ _rows is
    every term: (n + 1) * 2^n entries, 168 MiB at n = 20.
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
        self._rows = np.empty((ground.n + 1, 1 << ground.n), dtype=np.int64)
        self._rows[0] = (dual(base) if self.dualized else base).values
        bits = self._rows[1:]  # [i, A]: is i outside A, filled in place
        np.right_shift(lattice.masks(ground.n), np.arange(ground.n)[:, None], out=bits)
        bits &= 1
        bits ^= 1
        self._rows.setflags(write=False)
        # an atom's rank: the least h(A) + [i not in A], at A = {} or {i} as h is monotone
        self.atom_ranks = tuple(min(1, int(self._rows[0, 1 << i])) for i in range(ground.n))
        self._memo: dict[tuple[int, ...], int] = {}

    def block_of(self, name: str) -> int:
        """Index of the base element whose block holds the atom ``name``."""
        try:
            return self._block_of[name]
        except (KeyError, TypeError):
            raise UnknownLabel(f"{name!r} is not an element of the expansion") from None

    def dual(self) -> "ExpandedMatroid":
        return ExpandedMatroid(self.base, not self.dualized)

    def counts_of(self, S) -> tuple[int, ...]:
        """Per-block atom counts for a subset given as a string "a:12,b:3" or
        "a_1,b_2", or an iterable of atom names."""
        counts = [0] * self.base.ground.n
        if isinstance(S, str):
            tokens = [t.strip() for t in S.split(",") if t.strip()]
            if any(":" in t for t in tokens):
                seen = set()
                for t in tokens:
                    label, _, cnt = t.partition(":")
                    if label in seen:
                        raise DuplicateLabel(f"block {label!r} given twice")
                    seen.add(label)
                    index, cnt = self.base.ground.index(label), cnt.strip()
                    if not (cnt.isascii() and cnt.isdigit()):  # no sign, "_" or other digits
                        raise ValueError(f"block {label!r} count must be an integer, got {cnt!r}")
                    counts[index] = int(cnt)
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
        """The counts as Python ints, one per block, each an integer within its
        block; only input other than a tuple of such ints meets the loop."""
        sizes = self.block_sizes
        if (type(counts) is tuple and len(counts) == len(sizes)
                and _INT.issuperset(map(type, counts))
                and all(map(operator.le, counts, sizes)) and min(counts) >= 0):
            return counts
        counts = tuple(counts)
        if len(counts) != len(sizes):
            raise ValueError(f"need {len(sizes)} block counts, got {len(counts)}")
        checked = tuple(map(integer, counts))
        for c, count, size, label in zip(counts, checked, sizes, self.base.ground.labels):
            if count is None:
                raise ValueError(f"block {label!r} count must be an integer, got {c!r}")
            if not 0 <= count <= size:
                raise ValueError(f"block {label!r} holds {size} atoms, asked for {c}")
        return checked

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
            terms = ((1,) + key) @ self._rows
            value = int(terms[terms.argmin()])  # cheaper than terms.min()
            if len(self._memo) < MEMO_ENTRIES:
                self._memo[key] = value
        return value

    def rank(self, S) -> int:
        return self.rank_of_counts(self.counts_of(S))

    def port(self, secret: str):
        """(participants, answer) of the port at the atom ``secret``, whose
        participants are the other atoms, block by block.  Up to
        MAX_DENSE_ELEMENTS of them, the answer is the gap r(secret + S) - r(S)
        of every participant mask S, read off the count-space rank grid
        ``lattice.least_over(h, [range(s_i + 1)])``; past that, the test of
        r(secret + S) = r(S): (2, 2C) plus 1 at 1 + b times ``_rows`` is
        2(h(A) + C(E - A)) + [b not in A] (at most 2 * len(element_names) + 1), and S
        passes iff some A holding b attains the rank, iff the least term is even."""
        sblock = self.block_of(secret)
        participants = GroundSet(tuple(name for name in self.element_names if name != secret))
        counts = [size - (i == sblock) for i, size in enumerate(self.block_sizes)]
        if participants.n <= MAX_DENSE_ELEMENTS:
            strides = np.cumprod([1] + [size + 1 for size in self.block_sizes[:-1]])
            ranks = lattice.least_over(self._rows[0], [range(s + 1) for s in self.block_sizes])
            idx = lattice.additive(np.repeat(strides, counts))
            return participants, ranks[idx + strides[sblock]] - ranks[idx]
        block_masks = [(1 << end) - (1 << end - c) for end, c in zip(accumulate(counts), counts)]
        rows = self._rows

        def member(mask: int) -> bool:
            row = [2, *[(mask & bm).bit_count() << 1 for bm in block_masks]]
            row[1 + sblock] += 1
            terms = row @ rows
            return not terms[terms.argmin()] & 1

        return participants, member


def helgason_expand(M: Polymatroid, dualized: bool = False) -> ExpandedMatroid:
    """Expand each element of an integer polymatroid into unit atoms."""
    return ExpandedMatroid(M, dualized)


def block_collapse(E: ExpandedMatroid) -> Polymatroid:
    """Dense polymatroid of block-union ranks; recovers the base when not
    dualized, and the base's dual when the base is tight.  The union of the
    blocks in B takes s(B) atoms, so its rank is the least h(A) + s(B - A)
    over the base subsets A: the count-space grid at the levels (0, s_i)."""
    values = lattice.least_over(E._rows[0], [(0, size) for size in E.block_sizes])
    return Polymatroid(RankVector(E.base.ground, values, "int"))


def expanded_mmrv(E: ExpandedMatroid) -> int:
    """MMRV evaluated on the ranks of unions of the blocks of a five-element
    base, roles in ground order."""
    from .inequalities import mmrv

    return mmrv(block_collapse(E))
