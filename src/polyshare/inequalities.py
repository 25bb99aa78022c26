"""Linear information expressions and the MMRV five-variable inequality.

An expression is a weighted sum of conditional entropies H(A|C) and
conditional mutual informations I(A,B|C); both expand linearly into rank
values, so evaluation is exact in integer mode.  The MMRV inequality holds for
every entropy vector but not for every polymatroid; a strictly negative value
certifies that a polymatroid is not almost entropic.
"""

import numbers
from dataclasses import dataclass

from .core import GroundSet, check_mask
from .polymatroid import Polymatroid


@dataclass(frozen=True)
class InfoTerm:
    """coeff * H(args[0] | given) or coeff * I(args[0], args[1] | given)."""

    kind: str
    args: tuple[int, ...]
    given: int = 0
    coeff: float = 1

    def __post_init__(self):
        if self.kind not in ("H", "I"):
            raise ValueError(f"kind must be 'H' or 'I', got {self.kind!r}")
        want = 1 if self.kind == "H" else 2
        if len(self.args) != want:
            raise ValueError(f"{self.kind} takes {want} argument mask(s)")
        for mask in (*self.args, self.given):
            if isinstance(mask, bool) or not isinstance(mask, numbers.Integral) or mask < 0:
                raise ValueError(f"mask {mask!r} is not a subset: masks are integers >= 0")
        combined = self.given
        for mask in self.args:
            if mask == 0:
                raise ValueError("argument masks must be non-empty")
            if mask & combined:
                raise ValueError("argument and conditioning masks must be disjoint")
            combined |= mask


@dataclass(frozen=True)
class InfoExpression:
    terms: tuple[InfoTerm, ...]

    def __init__(self, terms):
        object.__setattr__(self, "terms", tuple(terms))

    def __add__(self, other: "InfoExpression") -> "InfoExpression":
        return InfoExpression(self.terms + other.terms)


def conditional_entropy(A: int, C: int = 0, coeff=1) -> InfoTerm:
    return InfoTerm("H", (A,), C, coeff)


def mutual_information(A: int, B: int, C: int = 0, coeff=1) -> InfoTerm:
    return InfoTerm("I", (A, B), C, coeff)


def eval_term(term: InfoTerm, M: Polymatroid):
    for mask in (*term.args, term.given):
        check_mask(M.ground, mask)
    c = term.given
    if term.kind == "H":
        raw = M.value(term.args[0] | c) - M.value(c)
    else:
        a, b = term.args
        raw = M.value(a | c) + M.value(b | c) - M.value(a | b | c) - M.value(c)
    return term.coeff * raw


def eval_expression(expr: InfoExpression, M: Polymatroid):
    return sum(eval_term(t, M) for t in expr.terms)


def _role_masks(ground: GroundSet, roles=None) -> tuple[int, ...]:
    """The bits of the labels playing a, b, c, d, e, in that order.

    roles names them on any ground set; without roles the ground set must
    have five elements, which play the roles in their own order.
    """
    if roles is None and ground.n != 5:
        raise ValueError(f"need a five-element ground set, got {ground.n} elements")
    labels = tuple(roles) if roles is not None else ground.labels
    if len(labels) != 5 or len(set(labels)) != 5:
        raise ValueError(f"roles must be five distinct labels, got {labels}")
    return tuple(ground.bit(lbl) for lbl in labels)


def mmrv_expression(ground: GroundSet, roles=None) -> InfoExpression:
    """I(a,b|c) + I(b,c|a) + I(c,a|b) + I(b,c|d) + I(b,c|e) + I(d,e) - I(b,c)."""
    a, b, c, d, e = _role_masks(ground, roles)
    return InfoExpression(
        [
            mutual_information(a, b, c),
            mutual_information(b, c, a),
            mutual_information(c, a, b),
            mutual_information(b, c, d),
            mutual_information(b, c, e),
            mutual_information(d, e),
            mutual_information(b, c, coeff=-1),
        ]
    )


def mmrv(M: Polymatroid, roles=None):
    """Value of the MMRV inequality; negative means not almost entropic."""
    return eval_expression(mmrv_expression(M.ground, roles), M)


def mmrv_slack_expression(ground: GroundSet, roles=None) -> InfoExpression:
    """MMRV plus 3*I(a, de|bc), which is non-negative on every polymatroid."""
    a, b, c, d, e = _role_masks(ground, roles)
    return mmrv_expression(ground, roles) + InfoExpression(
        [mutual_information(a, d | e, b | c, coeff=3)]
    )


def mmrv_decomposition(ground: GroundSet, roles=None) -> InfoExpression:
    """Ten plainly non-negative terms summing to mmrv_slack_expression."""
    a, b, c, d, e = _role_masks(ground, roles)
    return InfoExpression(
        [
            mutual_information(a, d, b),
            mutual_information(a, d, c),
            mutual_information(a, e, b),
            mutual_information(a, e, c),
            mutual_information(b, c, a | d),
            mutual_information(b, c, a | e),
            mutual_information(a, b | c, d | e),
            mutual_information(d, e, a),
            mutual_information(a, e, b | c | d),
            mutual_information(a, d, b | c | e),
        ]
    )


def mmrv_identity_residual(M: Polymatroid, roles=None):
    """MMRV(M) + 3*I(a,de|bc) minus the ten-term decomposition.

    Zero (up to float noise) on every set function, polymatroid or not; this
    is an identity check, not an inequality check.
    """
    lhs = eval_expression(mmrv_slack_expression(M.ground, roles), M)
    rhs = eval_expression(mmrv_decomposition(M.ground, roles), M)
    return lhs - rhs
