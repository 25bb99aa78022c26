"""Per-mask transforms on the subset lattice of an n-element ground set.

Every dense object in polyshare is an array with one entry per subset mask.
The recurring step "for each element i, pair every mask without i with the
same mask plus i" is a reshape: bit i splits the index into (high bits, bit i,
low bits), so ``split`` returns views, not copies, and the masks
themselves come from the same view of ``masks(n)``.  This is the bitwise
layout of Yates' transform (zeta/Moebius over subsets).
"""

import numpy as np


def masks(n: int) -> np.ndarray:
    """All 2^n masks in increasing order."""
    return np.arange(1 << n, dtype=np.int64)


def additive(weights) -> np.ndarray:
    """Sum of weights[i] over the bits i of each mask, in bit order."""
    weights = np.asarray(weights)
    out = np.zeros(1, dtype=weights.dtype)
    for w in weights:
        out = np.concatenate((out, out + w))
    return out


def sizes(n: int) -> np.ndarray:
    """Popcount of every mask."""
    return additive(np.ones(n, dtype=np.int64))


def by_size(n: int) -> np.ndarray:
    """Non-empty masks, smallest cardinality first, ties by mask value."""
    return np.argsort(sizes(n), kind="stable")[1:]


def split(a: np.ndarray, i: int):
    """Views (without i, with i) of a per-mask array, each indexed by
    (mask bits above i, mask bits below i)."""
    view = a.reshape(-1, 2, 1 << i)
    return view[:, 0], view[:, 1]


def least_over(values, levels) -> np.ndarray:
    """For every vector c with c[i] in levels[i], the least values[A] plus
    the sum of c[i] over the bits i not in A, over all masks A; flat, bit 0
    fastest.  Axis by axis, the pair (i not in A, i in A) becomes one entry
    per level of i, shortest axes first, so no intermediate outgrows both
    2^n and the result: the min-plus form of Yates' transform."""
    n = len(levels)
    out = np.asarray(values).reshape((2,) * n)
    for i in sorted(range(n), key=lambda i: len(levels[i])):
        low = (slice(None),) * i  # bit i's axis has the i lower bits' axes after it
        least = out[(..., slice(0, 1), *low)] + np.reshape(levels[i], (-1,) + (1,) * i)
        out = np.minimum(least, out[(..., slice(1, 2), *low)], out=least)
    return out.reshape(-1)


def _bits(family: np.ndarray) -> int:
    return len(family).bit_length() - 1


def up_closure(family) -> np.ndarray:
    """Flags of every mask containing some member of the family."""
    out = np.array(family, dtype=bool)
    for i in range(_bits(out)):
        without, with_i = split(out, i)
        with_i |= without
    return out


def minimal(family) -> list[int]:
    """Members of the family with no proper subset in it, smallest
    cardinality first, ties by mask value."""
    flags = np.array(family, dtype=bool)
    below = up_closure(flags)
    for i in range(_bits(flags)):
        with_i = split(flags, i)[1]
        with_i &= ~split(below, i)[0]
    members = np.flatnonzero(flags)  # in mask order, so a stable sort keeps ties by mask
    return members[np.argsort(sizes(_bits(flags))[members], kind="stable")].tolist()
