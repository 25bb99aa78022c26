"""Splitting an integer polymatroid into a matroid of unit atoms.

Small warm-up first: one explicit split step, then the lazy expansion of
the bundled 5-block fixture, whose 175 atoms are far past dense storage
(2^175 subsets) but whose rank oracle only ever needs per-block counts.
"""

from polyshare import (
    block_collapse,
    expanded_mmrv,
    helgason_expand,
    split_atom,
    tighten,
    validate_polymatroid,
)
from polyshare.core import rank_vector_from_json
from polyshare.reproduce import fixture_doc


def main():
    # -- warm-up: splitting by hand ------------------------------------
    two = validate_polymatroid(
        rank_vector_from_json(
            {"ground": ["a", "b"], "mode": "int",
             "ranks": {"a": 2, "b": 1, "a,b": 2}}
        )
    )
    S = split_atom(two, "a", 1, 1, ("a_1", "a_2"))
    print("split f(a)=2 into two unit atoms:")
    for key in ("a_1", "a_2", "a_1,a_2", "a_1,b", "a_1,a_2,b"):
        print(f"  r({key}) = {S.rank_of(key)}")
    print("a_1 and a_2 are parallel to nothing, together they are a; the")
    print("result is a matroid because every singleton now has rank 1")

    # -- the big one ---------------------------------------------------
    base = tighten(validate_polymatroid(
        rank_vector_from_json(fixture_doc("table2_middle.json"))))
    E = helgason_expand(base)
    sizes = dict(zip(base.ground.labels, E.block_sizes))
    print(f"\nexpansion of the tight fixture: {len(E.element_names)} atoms, "
          f"blocks {sizes}")

    # ranks by count: which block each atom came from is all that matters
    for q in ("a:1", "a:37", "a:37,b:5", "a:37,b:31,c:31,d:38,e:38"):
        print(f"  rank[{q}] = {E.rank(q)}")

    back = block_collapse(E)
    print("  collapsing atoms back to blocks recovers the base:",
          bool((back.values == base.values).all()))

    Ed = helgason_expand(base, dualized=True)
    print(f"  dual oracle, same query style: rank*[a:37] = {Ed.rank('a:37')}")
    print(f"  block-level MMRV of the dual: {expanded_mmrv(Ed)}")


if __name__ == "__main__":
    main()
