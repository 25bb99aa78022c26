"""Access structures, their duals, and matroid ports.

An access structure is the upward-closed family of participant subsets that
can recover the secret.  Structures on at most MAX_DENSE_ELEMENTS participants
are stored as one flag per subset; larger ones, such as the ports of expanded
matroids (174 participants for the bundled construction), are membership
oracles answering one subset at a time.
"""

import json
import os
from fractions import Fraction
from itertools import compress

import numpy as np

from . import lattice
from .core import (
    MAX_DENSE_ELEMENTS,
    GroundSet,
    GroundSetMismatch,
    check_dense,
    check_mask,
    integer,
    json_field,
    load_rank_vector,
)
from .matroid import ExpandedMatroid, helgason_expand
from .polymatroid import DECISION_TOL, resolve_tol, validate_polymatroid


class AccessStructure:
    """Qualified-subset family over a participant ground set.

    On at most MAX_DENSE_ELEMENTS participants the structure is its
    ``qualified`` table, one flag per subset mask, and its upward closure is
    checked.  Larger structures are a membership ``oracle``, ``qualified`` is
    None, and only the empty and the full set are checked.
    """

    def __init__(self, participants: GroundSet, qualified=None, oracle=None):
        small = participants.n <= MAX_DENSE_ELEMENTS
        if (qualified is not None, oracle is not None) != (small, not small):
            raise ValueError(f"give exactly one form: the qualified table on at most "
                             f"{MAX_DENSE_ELEMENTS} participants, a membership oracle on more")
        self.participants = participants
        full = participants.full_mask
        self.qualified = None
        self.oracle = oracle
        if small:
            q = np.array(qualified, dtype=bool)
            if q.shape != (full + 1,):
                raise ValueError(f"need one flag per subset, got shape {q.shape}")
            q.setflags(write=False)
            self.qualified = q
        if is_qualified(self, 0):
            raise ValueError("the empty set must not be qualified")
        if not is_qualified(self, full):
            raise ValueError("the full participant set must be qualified")
        if self.qualified is not None and (bad := lattice.up_closure(q) & ~q).any():
            # every smaller mask is qualified or holds no qualified set, so the least
            # bad one stays qualified less any member outside its qualified subset
            worst = int(bad.argmax())
            bits = 1 << np.arange(participants.n)
            bit = int(bits[(worst & bits > 0) & q[worst ^ bits]][0])
            raise ValueError(
                f"not upward closed: {participants.labels_of(worst ^ bit)} qualified "
                f"but adding {participants.labels[bit.bit_length() - 1]!r} loses qualification"
            )

    def __eq__(self, other):
        if not isinstance(other, AccessStructure):
            return NotImplemented
        if self.qualified is None or other.qualified is None:
            return NotImplemented
        return self.participants.labels == other.participants.labels and np.array_equal(
            self.qualified, other.qualified
        )

    def __hash__(self):
        return hash(self.participants.labels)


def from_minimal(participants: GroundSet, minimal_masks) -> AccessStructure:
    """Explicit structure as the upward closure of the given sets."""
    check_dense(participants)
    q = np.zeros(participants.full_mask + 1, dtype=bool)
    masks = list(minimal_masks)
    if not ({int}.issuperset(map(type, masks))
            and 0 <= min(masks, default=0) and max(masks, default=0) <= participants.full_mask):
        for m in masks:  # names the first bad mask
            check_mask(participants, m)
    q[masks] = True
    return AccessStructure(participants, qualified=lattice.up_closure(q))


def threshold_structure(k: int, labels) -> AccessStructure:
    """Qualified iff at least k participants are present; k is an integer."""
    participants = GroundSet(labels)
    n = participants.n
    if (number := integer(k)) is None:
        raise ValueError(f"threshold must be an integer, got {k!r}")
    if not 1 <= number <= n:
        raise ValueError(f"threshold must be in 1..{n}, got {number}")
    check_dense(participants)
    return AccessStructure(participants, qualified=lattice.sizes(n) >= number)


def is_qualified(A: AccessStructure, S: int) -> bool:
    S = check_mask(A.participants, S)  # a Python int, which an oracle may mix with ints past 64 bits
    if A.qualified is not None:
        return bool(A.qualified[S])
    return bool(A.oracle(S))


def dual_structure(A: AccessStructure) -> AccessStructure:
    """Qualified in the dual iff the complement is unqualified."""
    if A.qualified is not None:  # reversed order maps each mask to its complement
        return AccessStructure(A.participants, qualified=~A.qualified[::-1])
    full = A.participants.full_mask
    inner = A.oracle
    return AccessStructure(A.participants, oracle=lambda m: not inner(full ^ m))


def minimal_qualified(A: AccessStructure) -> list[int]:
    """Inclusion-minimal qualified sets, ordered by size then mask."""
    if A.qualified is None:
        raise ValueError(
            f"structures on more than {MAX_DENSE_ELEMENTS} participants cannot be enumerated"
        )
    return lattice.minimal(A.qualified)


def _secret_rank(M, secret: str, tolerance=None):
    """(index, f(secret), tolerance) of a dense polymatroid or an expansion M,
    whose secret is one element label or atom name, read once, and the one loop
    rule: a secret of rank within the tolerance is refused.  An expansion is
    exact and takes no tolerance; the index is its secret's block."""
    if isinstance(M, ExpandedMatroid):
        if tolerance is not None:
            raise ValueError(f"an expansion is exact and takes no tolerance, got {tolerance}")
        tol, i = 0, M.block_of(secret)
        fs = M.atom_ranks[i]
    else:
        tol, i = resolve_tol(tolerance, DECISION_TOL, M.mode), M.ground.index(secret)
        fs = M.value(1 << i)
    if fs <= tol:
        raise ValueError(f"secret {secret!r} is a loop (rank {fs}); the secret must be non-trivial")
    return i, fs, tol


def _secret_gaps(M, secret: str, tolerance):
    """(participants, gaps, f(secret), tolerance) of M and a secret that
    ``_secret_rank`` takes: the participants are M's elements but the secret,
    and the gaps f(secret + S) - f(S) for every participant mask S; past
    MAX_DENSE_ELEMENTS participants of an expansion, its membership test
    ``ExpandedMatroid.port`` gives in their place."""
    i, fs, tol = _secret_rank(M, secret, tolerance)
    if isinstance(M, ExpandedMatroid):
        return *M.port(secret), fs, tol
    labels = M.ground.labels
    without, with_secret = lattice.split(M.values, i)
    return GroundSet(labels[:i] + labels[i + 1:]), (with_secret - without).ravel(), fs, tol


def matroid_port(M, secret: str, tolerance=None) -> AccessStructure:
    """Access structure {S : f(secret + S) = f(S)}: a table of the gaps of
    ``_secret_gaps`` within the tolerance, else the membership test given in
    their place.  A secret with private information leaves the full set
    unqualified, which the structure invariants reject."""
    participants, gaps, _, tol = _secret_gaps(M, secret, tolerance)
    if callable(gaps):
        return AccessStructure(participants, oracle=gaps)
    return AccessStructure(participants, qualified=np.abs(gaps) <= tol)


def realizes(M, A: AccessStructure, secret: str, tolerance=None):
    """Does M with this secret realize A?  (ok, counterexample mask or None).

    M is a dense polymatroid or an expansion of at most MAX_DENSE_ELEMENTS
    participants.  Qualified sets must satisfy f(sS) = f(S); unqualified sets
    must satisfy f(sS) = f(S) + f(s).  Every participant subset is checked,
    and the counterexample is the smallest failing mask.
    """
    participants, gaps, fs, tol = _secret_gaps(M, secret, tolerance)
    if callable(gaps):
        raise ValueError(f"a port on more than {MAX_DENSE_ELEMENTS} participants "
                         "cannot be checked set by set")
    if participants.labels != A.participants.labels:
        raise GroundSetMismatch(
            f"structure participants {A.participants.labels} do not match "
            f"ground set minus secret {participants.labels}"
        )
    failing = np.flatnonzero(np.where(A.qualified, np.abs(gaps), np.abs(gaps - fs)) > tol)
    if failing.size:
        return False, int(failing[0])
    return True, None


def sigma(M, secret: str):
    """Largest share-to-secret rank ratio over the participants."""
    s, fs, _ = _secret_rank(M, secret)
    if isinstance(M, ExpandedMatroid):  # exact; every block with an atom besides the secret
        exact = True
        others = [M.atom_ranks[i] for i, size in enumerate(M.block_sizes) if size > (i == s)]
    else:
        exact = M.mode == "int"
        others = [M.value(1 << i) for i in range(M.ground.n) if i != s]
    if not others:
        raise ValueError("no participants besides the secret")
    top = max(others)
    return Fraction(int(top), int(fs)) if exact else float(top / fs)


def access_document(A: AccessStructure) -> str:
    """The text of ``json.dumps(doc, indent=1)`` for the document of the
    participants and the minimal qualified sets, each a list of labels: one
    shift gives the sets' bit rows, and each row picks its quoted labels."""
    quoted = list(map(json.dumps, A.participants.labels))
    minimal = np.array(minimal_qualified(A), dtype=np.int64)
    rows = (minimal[:, None] >> np.arange(len(quoted)) & 1).tolist()
    groups = ["[\n   " + ",\n   ".join(compress(quoted, row)) + "\n  ]" for row in rows]
    return ('{\n "participants": [\n  ' + ",\n  ".join(quoted)
            + '\n ],\n "minimal_qualified": [\n  ' + ",\n  ".join(groups) + "\n ]\n}")


def expanded_port_doc(base_path: str, dualized: bool, secret: str, out=None) -> dict:
    """Document naming the port of the expansion of the rank vector in ``base_path``,
    written relative to the directory of ``out``, the file it goes to, else absolute."""
    base_file = os.path.abspath(base_path)
    if out is not None:
        base_file = os.path.relpath(base_file, os.path.dirname(os.path.abspath(out)))
    return {"port": {"expanded": {"base_file": base_file, "dualized": dualized}, "secret": secret}}


def expanded_port_spec(doc, base_dir: str = ".") -> tuple[str, bool, str] | None:
    """(base path, dualized, secret) of a port document read from ``base_dir``,
    None for a document without a port; a port must name an expansion, and its
    ``base_file`` is relative to the document's directory."""
    if not (isinstance(doc, dict) and "port" in doc):
        return None
    spec = json_field(doc, "port", dict, "access-structure file")
    exp = json_field(spec, "expanded", dict, "port spec")
    dualized = json_field(exp, "dualized", bool, "expanded port") if "dualized" in exp else False
    base_path = os.path.join(base_dir, json_field(exp, "base_file", str, "expanded port"))
    return base_path, dualized, json_field(spec, "secret", str, "port spec")


def access_structure_from_json(doc: dict, base_dir: str = ".") -> AccessStructure:
    expanded = expanded_port_spec(doc, base_dir)
    if expanded is not None:
        base_path, dualized, secret = expanded
        base = validate_polymatroid(load_rank_vector(base_path))
        return matroid_port(helgason_expand(base, dualized=dualized), secret)
    where = "access-structure file"
    participants = GroundSet(json_field(doc, "participants", list, where))
    groups = json_field(doc, "minimal_qualified", list, where)
    bit = {label: 1 << i for i, label in enumerate(participants.labels)}
    try:  # a sum of distinct bits has one bit per label
        masks = [sum(map(bit.__getitem__, group)) for group in groups if isinstance(group, list)]
    except (KeyError, TypeError):
        masks = []
    if len(masks) < len(groups) or list(map(int.bit_count, masks)) != list(map(len, groups)):
        for group in groups:  # name the first malformed group, else the first bad label
            if not (isinstance(group, list) and all(isinstance(label, str) for label in group)):
                raise ValueError(
                    f"{where} field 'minimal_qualified' holds {group!r:.40}, not a list of labels"
                )
        masks = [participants.mask_of(group) for group in groups]
    return from_minimal(participants, masks)


def load_access_structure(path) -> AccessStructure:
    with open(path) as fh:
        return access_structure_from_json(json.load(fh), os.path.dirname(os.path.abspath(path)))


def save_access_structure(A: AccessStructure, path) -> None:
    with open(path, "w") as fh:
        fh.write(access_document(A) + "\n")
