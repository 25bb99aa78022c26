"""A seven-term inequality as a one-sided entropy certificate.

The MMRV expression is non-negative on every entropy vector (and on every
limit of entropy vectors), but not on every polymatroid.  A negative value
is therefore a certificate that a rank function is NOT almost entropic.
The bundled five-variable distribution is the interesting case: its own
entropy vector scores positive, its polymatroid dual scores negative.
"""

from polyshare import dual, entropy_vector, mmrv, mmrv_identity_residual, tighten
from polyshare.entropy import distribution_from_json
from polyshare.inequalities import MMRV
from polyshare.reproduce import fixture_doc


def render(rows):
    """Rows (a, b, given, coeff) of role letters as signed I(a,b|given) terms."""
    parts = []
    for a, b, given, coeff in rows:
        body = f"I({a},{b}|{given})" if given else f"I({a},{b})"
        parts.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(parts).lstrip("+ ")


def main():
    d = distribution_from_json(fixture_doc("table1.json"))
    print(f"bundled distribution: {d.variables.n} variables, "
          f"{len(d.probs)} support rows")

    M = entropy_vector(d)
    print("\nthe expression, role order (a, b, c, d, e):")
    print(" ", render(MMRV))

    v = mmrv(M)
    print(f"\nvalue on the entropy vector itself: {v:+.7f}")
    print("non-negative, as it must be for anything entropic")

    vd = mmrv(dual(M))
    print(f"value on the polymatroid dual:      {vd:+.7f}")
    print("negative: the dual of this entropy vector cannot be written as")
    print("an entropy vector, nor approximated by them")

    # the certificate is one-sided: a positive score proves nothing
    vt = mmrv(tighten(M))
    print(f"value on the tightening:            {vt:+.7f}  (no verdict)")

    # sanity: the expression is itself checked against a term-by-term
    # rewriting into conditional informations; the residual is numerics only
    r = mmrv_identity_residual(M)
    print(f"\nrewriting residual on this vector: {abs(r):.2e}")


if __name__ == "__main__":
    main()
