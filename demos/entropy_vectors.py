"""From a joint distribution to a validated entropy polymatroid.

Builds two correlated bits plus their XOR, reads off all seven subset
entropies, and shows the two closure operations on distributions:
marginalisation and the max-entropy conditional product.
"""

import numpy as np

from polyshare import (
    GroundSet,
    InfoTerm,
    JointDistribution,
    conditional_entropy,
    conditional_product,
    entropy_vector,
    eval_term,
    marginal,
    subset_format,
)


def main():
    g = GroundSet(("x", "y", "z"))
    # x, y uniform independent bits; z = x xor y
    rows = [(x, y, x ^ y) for x in (0, 1) for y in (0, 1)]
    d = JointDistribution(g, rows, [0.25] * 4)

    H = entropy_vector(d)  # validation happens here; raises if not a polymatroid
    print("entropy vector of (x, y, x xor y), bits:")
    for mask in range(1, g.full_mask + 1):
        print(f"  H({subset_format(g, mask):5s}) = {H.value(mask):.4f}")
    print("any two variables determine the third, so every pair has the")
    print("same entropy as the whole:", H.value(0b011) == H.value(0b111))

    xz = g.mask_of(("x", "z"))
    print("\nI(x;y) =", round(eval_term(InfoTerm(g.bit('x'), g.bit('y')), H), 10))
    print("I(x;y|z) =", round(
        eval_term(InfoTerm(g.bit("x"), g.bit("y"), g.bit("z")), H), 10))
    print("H(y|x,z) =", round(eval_term(conditional_entropy(g.bit("y"), xz), H), 10))

    # marginals drop variables; gluing stitches two overlapping marginals
    # back together with maximum entropy in between
    p1 = marginal(d, g.mask_of(("x", "y")))
    p2 = marginal(d, g.mask_of(("y", "z")))
    glued = conditional_product(p1, p2)
    Hg = entropy_vector(glued)
    print("\nglue of the (x,y) and (y,z) marginals:")
    print("  H(x,y,z) original:", round(H.value(g.full_mask), 6))
    print("  H(x,y,z) glued:   ", round(Hg.value(glued.variables.full_mask), 6))
    print("  gluing forgets that z was determined; x and z become independent")
    print("  given y, which can only raise the joint entropy")

    probs = {tuple(r): p for r, p in zip(glued.outcomes.tolist(), glued.probs)}
    print("  glued support has", len(probs), "rows, each with probability",
          round(next(iter(probs.values())), 4))


if __name__ == "__main__":
    main()
