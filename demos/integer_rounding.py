"""From a float entropy vector to an exact integer counterexample.

The float entropy vector scores positive on the MMRV test and its dual
scores negative, but float arithmetic leaves wiggle room.  This pipeline
removes it: combine the scaled entropy vector with cut-rank basis
functions so every subset lands within 1e-3 of an integer, snap to
integer mode, and redo the dual test exactly.
"""

from polyshare import (
    basis_r,
    dual,
    entropy_vector,
    linear_combine,
    mmrv,
    round_to_integer,
    subset_parse,
    tighten,
    validate_polymatroid,
)
from polyshare.entropy import distribution_from_json
from polyshare.reproduce import fixture_doc


def main():
    M = entropy_vector(distribution_from_json(fixture_doc("table1.json")))
    g = M.ground
    doc = fixture_doc("coefficients.json")

    print(f"float vector: mmrv = {mmrv(M):+.6f}, dual mmrv = {mmrv(dual(M)):+.6f}")

    # r_A is 1 on subsets meeting A, 0 otherwise; each term nudges a few
    # subset values without breaking submodularity of the sum
    terms = [(doc["entropy_scale"], M.rank)]
    for key, coeff in doc["terms"].items():
        terms.append((coeff, basis_r(g, subset_parse(g, key)).rank))
    combo = linear_combine(terms)
    print(f"\ncombined {len(terms)} terms "
          f"(scale {doc['entropy_scale']} on the entropy vector)")

    snapped = validate_polymatroid(round_to_integer(combo))
    worst = max(abs(float(c) - int(s)) for c, s in zip(combo.values, snapped.values))
    print(f"every subset within {worst:.2e} of an integer; snapped to int mode")

    print("\ninteger vector, a few entries:")
    for key in ("a", "a,b", "d,e", "a,b,c,d,e"):
        print(f"  f({key}) = {snapped.rank_of(key)}")

    T = tighten(snapped)
    print(f"\ntightened: f(full) drops {snapped.value(g.full_mask)} -> "
          f"{T.value(g.full_mask)}")

    verdict = mmrv(dual(snapped))
    print(f"mmrv of the dual, exact integer arithmetic: {verdict}")
    print("an integer polymatroid whose dual fails the entropy test, no epsilons")


if __name__ == "__main__":
    main()
