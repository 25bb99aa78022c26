"""Command-line front end.

Exit codes: 0 = success (or a true predicate), 1 = mathematical failure
(validation violations, a false predicate, a negative MMRV certificate, a
failed reproduction), 2 = usage error.  Rank-vector output is JSON ordered by
subset size then mask, so identical inputs give byte-identical output and
every produced file feeds back into the other commands.

Each ``cmd_*`` returns ``(exit code, document, table lines)``: the document
is a RankVector, an AccessStructure or a JSON-ready dict, never text, and the
lines are None for JSON-only commands.  ``main`` alone turns the result into
text: the lines for ``--format table``, ``rank_document`` for a RankVector,
``json.dumps(doc, indent=1)`` for a dict and ``access_document`` for an
AccessStructure, whose module only ``port`` and ``access-dual`` load.
Each command imports the modules it runs, so a command loads only those.
"""

import argparse
import json
import os
import sys


def _load_pm(path: str, added: int = 0):
    """The polymatroid of a rank file, for a result with ``added`` more elements."""
    from .core import load_rank_vector
    from .polymatroid import validate_polymatroid

    return validate_polymatroid(load_rank_vector(path, added))


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _split_list(text: str, count: int, what: str) -> list[str]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count or any(not p for p in parts):
        raise ValueError(f"expected {count} comma-separated {what}, got {text!r}")
    return parts


def _ranks(rank) -> tuple:
    """A rank-vector result: the vector; a "subset<TAB>value" line per subset, made when read."""
    def lines():
        keys, order = rank.ground.subset_keys()
        yield from map("{}\t{}".format, keys, rank.values[order].tolist())

    return 0, rank, lines()


def cmd_validate(args) -> tuple:
    from dataclasses import asdict

    from .core import load_rank_vector
    from .polymatroid import check_polymatroid

    violations = check_polymatroid(load_rank_vector(args.infile), args.tolerance)
    if not violations:
        return 0, {"valid": True}, ["valid"]
    lines = [
        f"{v.kind} violated at elements={','.join(v.elements)} subset={v.subset!r}: "
        f"{v.lhs} < {v.rhs}"
        for v in violations
    ]
    return 1, {"valid": False, "violations": [asdict(v) for v in violations]}, lines


def cmd_dual(args) -> tuple:
    from .polymatroid import dual

    return _ranks(dual(_load_pm(args.infile)).rank)


def cmd_tighten(args) -> tuple:
    from .polymatroid import tighten

    return _ranks(tighten(_load_pm(args.infile)).rank)


def cmd_entropy(args) -> tuple:
    from .entropy import entropy_vector, load_distribution

    return _ranks(entropy_vector(load_distribution(args.infile)).rank)


def cmd_mmrv(args) -> tuple:
    from .inequalities import mmrv

    pm = _load_pm(args.infile)
    roles = _split_list(args.roles, 5, "role labels") if args.roles else None
    value = mmrv(pm, roles)
    return (0 if value >= 0 else 1), {"mmrv": value}, [str(value)]


def cmd_split(args) -> tuple:
    from .polymatroid import split_atom

    pm = _load_pm(args.infile, added=1)
    alphas = [_number(a) for a in _split_list(args.alphas, 2, "alphas")]
    labels = _split_list(args.labels, 2, "labels")
    return _ranks(split_atom(pm, args.element, alphas[0], alphas[1], labels).rank)


def cmd_extend(args) -> tuple:
    from .polymatroid import principal_extension

    pm = _load_pm(args.infile, added=1)
    return _ranks(principal_extension(pm, args.element, _number(args.alpha), args.label).rank)


def cmd_expand(args) -> tuple:
    from .matroid import helgason_expand

    pm = _load_pm(args.infile)
    expansion = helgason_expand(pm, dualized=args.dual)
    if args.query is not None:
        value = expansion.rank(args.query)
        return 0, {"rank": value, "query": args.query}, [str(value)]
    doc = {
        "elements": len(expansion.element_names),
        "dualized": expansion.dualized,
        "blocks": dict(zip(pm.ground.labels, expansion.block_sizes)),
        "full_rank": expansion.rank_of_counts(expansion.block_sizes),
    }
    lines = [f"elements\t{doc['elements']}", f"dualized\t{doc['dualized']}"]
    lines += [f"block {k}\t{v}" for k, v in doc["blocks"].items()]
    return 0, doc, lines + [f"full_rank\t{doc['full_rank']}"]


def cmd_circuits(args) -> tuple:
    from .core import subset_format
    from .matroid import circuits

    pm = _load_pm(args.infile)
    found = circuits(pm)
    doc = {"circuits": [list(pm.ground.labels_of(m)) for m in found]}
    return 0, doc, [subset_format(pm.ground, m) for m in found] or ["(none)"]


def cmd_port(args) -> tuple:
    from .matroid import helgason_expand
    from .polymatroid import dual
    from .secret_sharing import expanded_port_doc, matroid_port

    pm = _load_pm(args.infile)
    M = helgason_expand(pm, dualized=args.dual) if args.expanded else dual(pm) if args.dual else pm
    port = matroid_port(M, args.secret, args.tolerance)  # an expanded one only to raise if unusable
    if not args.expanded:
        return 0, port, None
    return 0, expanded_port_doc(args.infile, args.dual, args.secret, args.out), None


def cmd_access_dual(args) -> tuple:
    from .secret_sharing import (
        access_structure_from_json,
        dual_structure,
        expanded_port_doc,
        expanded_port_spec,
    )

    with open(args.infile) as fh:
        doc = json.load(fh)
    base_dir = os.path.dirname(os.path.abspath(args.infile))
    structure = access_structure_from_json(doc, base_dir)  # a pointer's port is built, so checked
    expanded = expanded_port_spec(doc, base_dir)
    if expanded is None:
        return 0, dual_structure(structure), None
    base_path, dualized, secret = expanded
    return 0, expanded_port_doc(base_path, not dualized, secret, args.out), None


def cmd_realizes(args) -> tuple:
    from .core import subset_format
    from .secret_sharing import load_access_structure, realizes

    pm = _load_pm(args.infile)
    structure = load_access_structure(args.access)
    ok, witness = realizes(pm, structure, args.secret, args.tolerance)
    if ok:
        return 0, {"realizes": True, "counterexample": None}, ["realizes"]
    labels = list(structure.participants.labels_of(witness))
    line = f"violated at {subset_format(structure.participants, witness)!r}"
    return 1, {"realizes": False, "counterexample": labels}, [line]


def cmd_sigma(args) -> tuple:
    from .secret_sharing import sigma

    value = sigma(_load_pm(args.infile), args.secret)
    return 0, {"sigma": str(value), "value": float(value)}, [str(value)]


def cmd_reproduce(args) -> tuple:
    from .reproduce import run_reproduction

    report = run_reproduction(args.step)
    return (0 if report.passed else 1), report.as_dict(), [report.format_table()]


# name: (handler, help, default format; None writes JSON only)
COMMANDS = {
    "validate": (cmd_validate, "check the polymatroid inequalities", "table"),
    "dual": (cmd_dual, "dual polymatroid", "json"),
    "tighten": (cmd_tighten, "remove private information at every element", "json"),
    "entropy": (cmd_entropy, "entropy vector of a distribution file", "json"),
    "mmrv": (cmd_mmrv, "MMRV inequality value (exit 1 when negative)", "table"),
    "split": (cmd_split, "split an element into two fresh parts", "json"),
    "extend": (cmd_extend, "principal extension by one element", "json"),
    "expand": (cmd_expand, "unit-atom expansion summary or rank query", "table"),
    "circuits": (cmd_circuits, "minimal dependent sets of a matroid", "table"),
    "port": (cmd_port, "access structure of a matroid port", None),
    "access-dual": (cmd_access_dual, "dual access structure", None),
    "realizes": (cmd_realizes, "does the polymatroid realize the structure", "table"),
    "sigma": (cmd_sigma, "worst share-to-secret ratio", "table"),
    "reproduce": (cmd_reproduce, "re-derive every bundled reference value", "table"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyshare",
        description="Polymatroid duality, entropy vectors, MMRV certificates, and matroid ports.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    sub = {}
    for name, (func, help_text, fmt) in COMMANDS.items():
        p = sub[name] = subs.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if name != "reproduce":
            p.add_argument("--in", dest="infile", required=True, help="input file")
        p.add_argument("--out", help="write output here instead of stdout")
        p.add_argument(
            "--format", choices=("json", "table") if fmt else ("json",),
            default=fmt or "json", help="output format",
        )
        if name in ("validate", "port", "realizes"):
            p.add_argument("--tolerance", type=float, help="override the mode default")

    sub["mmrv"].add_argument(
        "--roles", help="five labels playing a,b,c,d,e (default: ground order)"
    )
    sub["split"].add_argument("--element", required=True)
    sub["split"].add_argument(
        "--alphas", required=True, help="two values summing to the element's rank"
    )
    sub["split"].add_argument("--labels", required=True, help="two fresh labels")
    sub["extend"].add_argument("--element", required=True)
    sub["extend"].add_argument("--alpha", required=True)
    sub["extend"].add_argument("--label", required=True)
    sub["expand"].add_argument(
        "--dual", action="store_true", help="answer for the dual of the expansion"
    )
    sub["expand"].add_argument("--query", help='subset, e.g. "a:12,b:3" or "a_1,b_2"')
    sub["port"].add_argument(
        "--secret", required=True, help="an element label; an atom name with --expanded"
    )
    sub["port"].add_argument(
        "--expanded", action="store_true", help="port of the unit-atom expansion"
    )
    sub["port"].add_argument("--dual", action="store_true", help="port of the dual instead")
    sub["realizes"].add_argument("--secret", required=True, help="an element label")
    sub["realizes"].add_argument("--access", required=True, help="access-structure file")
    sub["sigma"].add_argument("--secret", required=True, help="an element label")
    sub["reproduce"].add_argument("--step", type=int, help="run a single step (1-10)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from .core import RankVector, rank_document  # every command loads these modules anyway
    from .polymatroid import ValidationError

    try:
        code, doc, table = args.func(args)
        if args.format == "table":
            text = "\n".join(table)
        elif isinstance(doc, RankVector):
            text = rank_document(doc)
        elif isinstance(doc, dict):
            text = json.dumps(doc, indent=1)
        else:  # an AccessStructure
            from .secret_sharing import access_document

            text = access_document(doc)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return code
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
