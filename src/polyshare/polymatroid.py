"""Polymatroid algebra on dense rank vectors.

Validation runs the elemental inequalities (enough to imply monotonicity and
submodularity in full), so it costs O(n^2 * 2^n) instead of O(4^n).  It reads
them off first differences: per element i, one subtraction gives the gain
d_i(A) = f(A + i) - f(A) over the subsets A of the other elements.  Its last
entry f(M) - f(M - i) is the monotone inequality for i, and f is submodular
exactly when d_i(A) >= d_i(A + j) for every j, one more subtraction per pair,
so a float tolerance bounds a difference of two differences.  It runs
where data enters the program: files, fixtures, entropy vectors and rounding.
The operations here map polymatroids to polymatroids and build their result
directly; re-checking it could fail only through float rounding, and would
then reject a valid input.  Property tests check each operation's output.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import lattice
from .core import (
    GroundSet,
    GroundSetMismatch,
    ModeError,
    RankVector,
    check_dense,
    check_mask,
    subset_format,
    subset_parse,
)

VALIDATION_TOL = 1e-9
DECISION_TOL = 1e-6
ROUNDING_TOL = 1e-3


def resolve_tol(tolerance, default, mode: str):
    """``tolerance`` as a float; for None, 0 in int mode (exact) and else
    ``default``.  Only what ``_require_mode_value`` takes as a float passes."""
    if tolerance is None:
        return 0 if mode == "int" else default
    try:
        return _require_mode_value("float", tolerance, "tolerance")
    except ValueError:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance}") from None


@dataclass(frozen=True)
class Violation:
    """One failed elemental inequality.

    kind "monotone": f(M) >= f(M - i), elements = (i,), subset = M - i,
    lhs = f(M), rhs = f(M - i).
    kind "submodular": f(iA) + f(jA) >= f(ijA) + f(A), elements = (i, j),
    subset = A, lhs and rhs the two sides.
    """

    kind: str
    elements: tuple[str, ...]
    subset: str
    lhs: float
    rhs: float


class ValidationError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        first = self.violations[0]
        super().__init__(
            f"{len(self.violations)} elemental inequality violation(s), "
            f"first: {first.kind} at elements={first.elements} subset={first.subset!r} "
            f"({first.lhs} < {first.rhs})"
        )


class ResidualTooLarge(ValueError):
    def __init__(self, subset: str, value: float, residual: float, tol: float):
        self.subset = subset
        self.value = value
        self.residual = residual
        super().__init__(
            f"value {value} at subset {subset!r} is {residual:.3e} from an integer "
            f"(allowed {tol:.3e})"
        )


@dataclass(frozen=True)
class Polymatroid:
    """A rank vector satisfying the elemental inequalities: one that passed
    validate_polymatroid, or the result of an operation closed on polymatroids."""

    rank: RankVector

    @property
    def ground(self) -> GroundSet:
        return self.rank.ground

    @property
    def mode(self) -> str:
        return self.rank.mode

    @property
    def values(self) -> np.ndarray:
        return self.rank.values

    def value(self, mask: int):
        return self.rank.value(mask)

    def rank_of(self, key):
        """Rank of a subset given as a key string, label iterable, or an integer mask."""
        mask = key if isinstance(key, numbers.Number) else subset_parse(self.ground, key)
        return self.rank.value(mask)


def check_polymatroid(rank: RankVector, tolerance=None) -> list[Violation]:
    """Every violated elemental inequality, empty list when rank is valid:
    the monotone ones by element, then the submodular ones by pair and subset."""
    tol = resolve_tol(tolerance, VALIDATION_TOL, rank.mode)
    g, full, f = rank.ground, rank.ground.full_mask, rank.value
    monotone, submodular = [], []
    for i in range(g.n):
        without, with_i = lattice.split(rank.values, i)
        gain = (with_i - without).ravel()  # f(A + i) - f(A), A over the other elements
        if gain[-1] < -tol:
            drop = full ^ (1 << i)
            monotone.append(Violation("monotone", (g.labels[i],), subset_format(g, drop),
                                      f(full), f(drop)))
        for j in range(i + 1, g.n):
            before, after = lattice.split(gain, j - 1)  # j is bit j - 1 of gain's index
            bad = before - after < -tol
            if bad.any():  # the masks are built only to name a violation
                others = lattice.split(lattice.masks(g.n), i)[0].ravel()
                bi, bj = 1 << i, 1 << j
                submodular += [
                    Violation("submodular", (g.labels[i], g.labels[j]), subset_format(g, a),
                              f(a | bi) + f(a | bj), f(a | bi | bj) + f(a))
                    for a in lattice.split(others, j - 1)[0][bad].tolist()
                ]
    return monotone + submodular


def validate_polymatroid(rank: RankVector) -> Polymatroid:
    """Gate a rank vector into a Polymatroid, or raise ValidationError."""
    violations = check_polymatroid(rank)
    if violations:
        raise ValidationError(violations)
    return Polymatroid(rank)


def dual(M: Polymatroid) -> Polymatroid:
    """Dual polymatroid: A maps to f(M-A) + mu(A) - f(M).  Always tight."""
    rank = M.rank
    vals = rank.values
    singletons = vals[[1 << i for i in range(rank.ground.n)]]
    out = vals[::-1] + lattice.additive(singletons) - vals[-1]  # vals[::-1][A] = f(M - A)
    return Polymatroid(RankVector(rank.ground, out, rank.mode))


def _private(M: Polymatroid) -> np.ndarray:
    """f(M) - f(M - i) per element i: the private information of i."""
    return M.values[-1] - M.values[M.ground.full_mask ^ (1 << np.arange(M.ground.n))]


def tighten(M: Polymatroid) -> Polymatroid:
    """Drop each element's private information: f(A) - sum over i in A of
    (f(M) - f(M-i)).  Order-independent, hence computed in one pass."""
    return Polymatroid(RankVector(M.ground, M.values - lattice.additive(_private(M)), M.mode))


def is_tight(M: Polymatroid) -> bool:
    return bool((np.abs(_private(M)) <= resolve_tol(None, DECISION_TOL, M.mode)).all())


def is_connected(M: Polymatroid):
    """(True, None), or (False, (A, B)) for the first proper bipartition with
    f(A) + f(B) = f(M) within the mode's decision tolerance."""
    tol = resolve_tol(None, DECISION_TOL, M.mode)
    n = M.ground.n
    if n == 1:
        return True, None
    full = M.ground.full_mask
    vals = M.values
    halves = np.arange(1, full, 2)  # bit 0 fixed in A, so each split appears once
    gap = vals[halves] + vals[full ^ halves] - vals[full]
    hits = np.nonzero(gap <= tol)[0]
    if hits.size:
        a = int(halves[hits[0]])
        return False, (a, full ^ a)
    return True, None


def factor(M: Polymatroid, block: dict, target) -> Polymatroid:
    """Collapse M along ``block``, a map from every label of M onto the labels
    ``target``: the rank of a target subset is the rank of the union of its
    preimages, whose masks are built in one pass over the map."""
    target = GroundSet(target)
    sides = {"missing": [label for label in M.ground if label not in block],
             "extra": [label for label in block if label not in M.ground]}
    if any(sides.values()):  # in ground and map order, so the message is fixed
        named = [f"{side} {labels}" for side, labels in sides.items() if labels]
        raise ValueError("map domain mismatch: " + ", ".join(named))
    preimages = [0] * target.n
    for label, image in block.items():
        preimages[target.index(image)] |= M.ground.bit(label)
    if not all(preimages):
        unhit = [label for label, preimage in zip(target, preimages) if not preimage]
        raise ValueError(f"map not surjective: {unhit} never hit")
    return Polymatroid(RankVector(target, M.values[lattice.additive(preimages)], M.mode))


def _require_mode_value(mode: str, alpha, name: str):
    """alpha as a number of the given mode: finite, within the float range,
    >= 0, and integral in int mode; a string or a bool is not a number."""
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real):
        raise ValueError(f"{name} must be a number, got {alpha!r:.40}")
    try:
        value = float(alpha)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite and within the float range, got {alpha!s:.40}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {alpha}")
    if mode == "int":
        if not value.is_integer():
            raise ModeError(f"{name}={alpha} is not an integer; convert to float mode first")
        return int(alpha)
    return value


def principal_extension(M: Polymatroid, a: str, alpha, new_label: str) -> Polymatroid:
    """Adjoin a new element below a: rank of (new + A) is min(f(A) + alpha, f(aA))."""
    alpha = _require_mode_value(M.mode, alpha, "alpha")
    ground = M.ground
    abit = ground.bit(a)
    if M.mode == "int":  # f(aA) <= f(A) + f(a), so a larger alpha only risks int64 wrap
        alpha = min(alpha, M.value(abit))
    new_ground = GroundSet(ground.labels + (new_label,))
    old = M.values
    size_old = old.shape[0]
    out = np.empty(2 * size_old, dtype=old.dtype)
    out[:size_old] = old
    masks = np.arange(size_old)
    out[size_old:] = np.minimum(old + alpha, old[masks | abit])
    return Polymatroid(RankVector(new_ground, out, M.mode))


def split_atom(M: Polymatroid, a: str, alpha1, alpha2, labels) -> Polymatroid:
    """Replace a by two fresh elements of ranks alpha1, alpha2 summing to f(a).

    For A not containing a the new ranks are h(A); h(A)+alpha_i capped by h(aA)
    for one new element; h(aA) for both together.  Collapsing the pair back via
    factor recovers M.
    """
    l1, l2 = labels
    ground = M.ground
    k = ground.index(a)
    ha = M.value(1 << k)
    a1 = _require_mode_value(M.mode, alpha1, "alpha1")
    a2 = _require_mode_value(M.mode, alpha2, "alpha2")
    if abs((a1 + a2) - ha) > resolve_tol(None, VALIDATION_TOL, M.mode):
        raise ValueError(f"alpha1 + alpha2 = {a1 + a2} but f({a}) = {ha}")
    new_ground = GroundSet(ground.labels[:k] + (l1, l2) + ground.labels[k + 1 :])
    h_plain, h_with = lattice.split(M.values, k)
    # old bits above a shift past both atoms, which take bits k and k + 1: the
    # result is one row (A, A + l1, A + l2, A + l1 + l2) per mask A avoiding both
    parts = (h_plain, np.minimum(h_plain + a1, h_with), np.minimum(h_plain + a2, h_with), h_with)
    return Polymatroid(RankVector(new_ground, np.stack(parts, axis=1).reshape(-1), M.mode))


def collapse_pair(M: Polymatroid, l1: str, l2: str, label: str) -> Polymatroid:
    """Undo split_atom: ``factor`` M onto its labels with the adjacent l1, l2
    merged into the one element ``label``."""
    src = M.ground
    i = src.index(l1)
    j = src.index(l2)
    if j != i + 1:
        raise ValueError(f"{l1!r}, {l2!r} must be adjacent in the ground set")
    block = {l: l for l in src.labels}
    block[l1] = block[l2] = label
    return factor(M, block, src.labels[:i] + (label,) + src.labels[j + 1 :])


def basis_r(ground: GroundSet, A: int) -> Polymatroid:
    """Indicator polymatroid of hitting A: rank 1 on subsets meeting A, else 0."""
    check_mask(ground, A)
    if A == 0:
        raise ValueError("basis_r needs a non-empty subset")
    check_dense(ground)
    vals = ((lattice.masks(ground.n) & A) != 0).astype(np.int64)
    return Polymatroid(RankVector(ground, vals, "int"))


def linear_combine(terms) -> RankVector:
    """Pointwise sum of coefficient * polymatroid, in input order, float mode."""
    terms = list(terms)
    if not terms:
        raise ValueError("need at least one term")
    ground = terms[0][1].ground
    out = np.zeros(1 << ground.n, dtype=np.float64)
    for coeff, pm in terms:
        coeff = _require_mode_value("float", coeff, "coefficient")
        if pm.ground.labels != ground.labels:
            raise GroundSetMismatch(
                f"term ground {pm.ground.labels} != first term's {ground.labels}"
            )
        out += coeff * np.asarray(pm.values, dtype=np.float64)
    return RankVector(ground, out, "float")


def round_to_integer(rank: RankVector) -> RankVector:
    """Snap a float vector onto the integers and validate it exactly.

    Raises ResidualTooLarge when any value sits further than ROUNDING_TOL
    from an integer, naming the worst subset.
    """
    vals = np.asarray(rank.values, dtype=np.float64)
    rounded = np.rint(vals)
    resid = np.abs(vals - rounded)
    worst = int(np.argmax(resid))
    if resid[worst] > ROUNDING_TOL:
        raise ResidualTooLarge(
            subset_format(rank.ground, worst), float(vals[worst]), float(resid[worst]), ROUNDING_TOL
        )
    out = RankVector(rank.ground, rounded.astype(np.int64), "int")
    validate_polymatroid(out)
    return out


def uniform_matroid(k: int, labels) -> Polymatroid:
    """Rank min(|A|, k) on the given labels, integer mode."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 0:
        raise ValueError(f"uniform matroid rank k must be an integer >= 0, got {k!r}")
    ground = GroundSet(labels)
    check_dense(ground)
    k = min(int(k), ground.n)  # the same ranks, and no k past int64 reaches numpy
    return Polymatroid(RankVector(ground, np.minimum(lattice.sizes(ground.n), k), "int"))
