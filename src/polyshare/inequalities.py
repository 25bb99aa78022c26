"""Linear information expressions and the MMRV five-variable inequality.

One term rule: coeff * I(a;b|c) is coeff * (f(ac) + f(bc) - f(abc) - f(c)),
and H(a|c) is I(a;a|c).  An expression is any sequence of terms; it expands
linearly into rank values, so evaluation is exact in integer mode.  The MMRV
inequality holds for every entropy vector but not for every polymatroid; a
strictly negative value certifies that a polymatroid is not almost entropic.
"""

import math
import numbers
from dataclasses import dataclass

from .core import check_mask
from .polymatroid import Polymatroid


@dataclass(frozen=True)
class InfoTerm:
    """coeff * I(a;b|given); b == a gives coeff * H(a|given)."""

    a: int
    b: int
    given: int = 0
    coeff: float = 1

    def __post_init__(self):
        for mask in (self.a, self.b, self.given):
            if isinstance(mask, bool) or not isinstance(mask, numbers.Integral) or mask < 0:
                raise ValueError(f"mask {mask!r} is not a subset: masks are integers >= 0")
        c = self.coeff
        try:  # an int beyond the float range overflows, as it would in float mode
            finite = not isinstance(c, bool) and isinstance(c, numbers.Real) and math.isfinite(c)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"coefficient {c!r:.40} is not a finite real number in the float range")
        if not (self.a and self.b):
            raise ValueError("argument masks must be non-empty")
        if (self.a | self.b) & self.given or self.a & self.b and self.a != self.b:
            raise ValueError("argument and conditioning masks must be disjoint")


def conditional_entropy(A: int, C: int = 0, coeff=1) -> InfoTerm:
    return InfoTerm(A, A, C, coeff)


def mutual_information(A: int, B: int, C: int = 0, coeff=1) -> InfoTerm:
    return InfoTerm(A, B, C, coeff)


def _term_value(f, a: int, b: int, c: int, coeff):
    return coeff * (f(a | c) + f(b | c) - f(a | b | c) - f(c))


def eval_term(term: InfoTerm, M: Polymatroid):
    for mask in (term.a, term.b, term.given):
        check_mask(M.ground, mask)
    return _term_value(M.value, term.a, term.b, term.given, term.coeff)


def eval_expression(terms, M: Polymatroid):
    """Sum of a sequence of terms, in order."""
    return sum(eval_term(t, M) for t in terms)


# Rows (a, b, given, coeff) in role letters: "bc" is the union of the labels
# playing b and c, and "" is the empty set.
MMRV = (
    ("a", "b", "c", 1),
    ("b", "c", "a", 1),
    ("c", "a", "b", 1),
    ("b", "c", "d", 1),
    ("b", "c", "e", 1),
    ("d", "e", "", 1),
    ("b", "c", "", -1),
)
# 3 I(a;de|bc), non-negative on every polymatroid; MMRV + MMRV_SLACK is the
# sum of the ten plainly non-negative terms of MMRV_DECOMPOSITION
MMRV_SLACK = (("a", "de", "bc", 3),)
MMRV_DECOMPOSITION = (
    ("a", "d", "b", 1),
    ("a", "d", "c", 1),
    ("a", "e", "b", 1),
    ("a", "e", "c", 1),
    ("b", "c", "ad", 1),
    ("b", "c", "ae", 1),
    ("a", "bc", "de", 1),
    ("d", "e", "a", 1),
    ("a", "e", "bcd", 1),
    ("a", "d", "bce", 1),
)


def _table_value(M: Polymatroid, rows, roles=None):
    """Sum of role-letter rows on M, in order.  roles names the labels
    playing a, b, c, d, e on any ground set; without roles the ground set
    must have five elements, which play the roles in their own order."""
    ground = M.ground
    if roles is None and ground.n != 5:
        raise ValueError(f"need a five-element ground set, got {ground.n} elements")
    labels = tuple(roles) if roles is not None else ground.labels
    if len(labels) != 5 or len(set(labels)) != 5:
        raise ValueError(f"roles must be five distinct labels, got {labels}")
    bit = dict(zip("abcde", map(ground.bit, labels)))
    mask = {letters: sum(map(bit.__getitem__, letters)) for row in rows for letters in row[:3]}
    return sum(_term_value(M.value, mask[a], mask[b], mask[c], k) for a, b, c, k in rows)


def mmrv(M: Polymatroid, roles=None):
    """Value of the MMRV inequality; negative means not almost entropic."""
    return _table_value(M, MMRV, roles)


def mmrv_identity_residual(M: Polymatroid, roles=None):
    """MMRV(M) + 3*I(a,de|bc) minus the ten-term decomposition: zero (up to
    float noise) on every set function, an identity check, not an inequality."""
    return _table_value(M, MMRV + MMRV_SLACK, roles) - _table_value(M, MMRV_DECOMPOSITION, roles)
