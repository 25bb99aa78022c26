"""Access structures, their duals, and matroid ports.

An access structure is the upward-closed family of participant subsets that
can recover the secret.  Structures on at most MAX_DENSE_ELEMENTS participants
are stored as one flag per subset; larger ones, such as the ports of expanded
matroids (174 participants for the bundled construction), are membership
oracles answering one subset at a time.
"""

import json
import os
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import lattice
from .core import (
    MAX_DENSE_ELEMENTS,
    GroundSet,
    GroundSetMismatch,
    check_dense,
    check_mask,
    json_field,
    load_rank_vector,
)
from .matroid import ExpandedMatroid, helgason_expand
from .polymatroid import Polymatroid, default_decision_tol, validate_polymatroid


class AccessStructure:
    """Qualified-subset family over a participant ground set.

    Give either the ``qualified`` flags (one per subset mask) or a membership
    ``oracle``.  On at most MAX_DENSE_ELEMENTS participants the structure always
    holds the ``qualified`` table: an oracle is evaluated on every subset at
    construction, so its upward closure is checked too.  Larger structures
    keep the oracle, ``qualified`` is None, and only the empty and the full
    set are checked.
    """

    def __init__(self, participants: GroundSet, qualified=None, oracle=None):
        if (qualified is None) == (oracle is None):
            raise ValueError("provide exactly one of qualified array or oracle")
        self.participants = participants
        full = participants.full_mask
        if oracle is not None and participants.n <= MAX_DENSE_ELEMENTS:
            qualified = np.fromiter(map(oracle, range(full + 1)), dtype=bool, count=full + 1)
            oracle = None
        self.qualified = None
        self.oracle = oracle
        if qualified is not None:
            check_dense(participants)
            q = np.array(qualified, dtype=bool)
            if q.shape != (full + 1,):
                raise ValueError(f"need one flag per subset, got shape {q.shape}")
            q.setflags(write=False)
            self.qualified = q
        if is_qualified(self, 0):
            raise ValueError("the empty set must not be qualified")
        if not is_qualified(self, full):
            raise ValueError("the full participant set must be qualified")
        if self.is_explicit:
            for i in range(participants.n):
                without, with_i = lattice.split(self.qualified, i)
                bad = without & ~with_i
                if bad.any():
                    worst = int(lattice.split(lattice.masks(participants.n), i)[0][bad][0])
                    raise ValueError(
                        f"not upward closed: {participants.labels_of(worst)} qualified "
                        f"but adding {participants.labels[i]!r} loses qualification"
                    )

    @property
    def is_explicit(self) -> bool:
        return self.qualified is not None

    def __eq__(self, other):
        if not isinstance(other, AccessStructure):
            return NotImplemented
        if not (self.is_explicit and other.is_explicit):
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
    for m in minimal_masks:
        check_mask(participants, m)
        q[m] = True
    return AccessStructure(participants, qualified=lattice.up_closure(q))


def threshold_structure(k: int, labels) -> AccessStructure:
    """Qualified iff at least k participants are present."""
    participants = GroundSet(labels)
    n = participants.n
    if not 1 <= k <= n:
        raise ValueError(f"threshold must be in 1..{n}, got {k}")
    check_dense(participants)
    return AccessStructure(participants, qualified=lattice.sizes(n) >= k)


def is_qualified(A: AccessStructure, S: int) -> bool:
    check_mask(A.participants, S)
    if A.is_explicit:
        return bool(A.qualified[S])
    return bool(A.oracle(S))


def dual_structure(A: AccessStructure) -> AccessStructure:
    """Qualified in the dual iff the complement is unqualified."""
    if A.is_explicit:  # reversed order maps each mask to its complement
        return AccessStructure(A.participants, qualified=~A.qualified[::-1])
    full = A.participants.full_mask
    inner = A.oracle
    return AccessStructure(A.participants, oracle=lambda m: not inner(full ^ m))


def _table(A: AccessStructure) -> np.ndarray:
    if not A.is_explicit:
        raise ValueError(
            f"structures on more than {MAX_DENSE_ELEMENTS} participants cannot be enumerated"
        )
    return A.qualified


def minimal_qualified(A: AccessStructure) -> list[int]:
    """Inclusion-minimal qualified sets, ordered by size then mask."""
    return lattice.minimal(_table(A))


def important_participants(A: AccessStructure):
    """(important labels, connected flag); i is important when joining some
    unqualified set makes it qualified.  Connected means everyone matters."""
    q = _table(A)
    important = set()
    for i, label in enumerate(A.participants.labels):
        without, with_i = lattice.split(q, i)
        if (~without & with_i).any():
            important.add(label)
    return important, len(important) == A.participants.n


def _secret_gaps(M: Polymatroid, secret: str, tolerance):
    """(participants, gaps, f(secret), tolerance): the participants are the
    ground set minus the secret, the gaps f(secret + S) - f(S) for every
    participant mask S.  A secret of rank within the tolerance is rejected."""
    tol = default_decision_tol(M.mode) if tolerance is None else tolerance
    fs = M.rank_of(secret)
    if fs <= tol:
        raise ValueError(f"secret {secret!r} is a loop (rank {fs}); the secret must be non-trivial")
    k = M.ground.index(secret)
    participants = GroundSet(M.ground.labels[:k] + M.ground.labels[k + 1 :])
    without, with_secret = lattice.split(M.values, k)
    return participants, (with_secret - without).ravel(), fs, tol


def _port_table(E: ExpandedMatroid, n: int, block_masks, block: int) -> np.ndarray:
    """Port flags of every subset of n participants, through the batch
    kernel about 2^18 slack entries at a time.  A subset takes from each
    block the popcount of its mask under the block's participant bits."""
    masks = lattice.masks(n)
    popcount = lattice.sizes(n)
    step = max(1, (1 << 18) >> E.base.ground.n)
    return np.concatenate([
        E.spans(popcount[masks[start : start + step, None] & block_masks], block)
        for start in range(0, len(masks), step)
    ])


def matroid_port(M, secret: str, tolerance=None) -> AccessStructure:
    """Access structure {S : f(secret + S) = f(S)}.

    Dense polymatroids give an explicit structure; an ExpandedMatroid gives a
    membership oracle over its atom names.  The secret must not be a loop, and
    a secret with private information leaves the full set unqualified, which
    is rejected by the structure invariants.
    """
    if isinstance(M, ExpandedMatroid):
        sblock = M.block_of(secret)
        if M.rank([secret]) == 0:
            raise ValueError(f"secret {secret!r} is a loop")
        participants = GroundSet(tuple(n for n in M.element_names if n != secret))
        block_masks = [0] * M.base.ground.n
        for i, name in enumerate(participants.labels):
            block_masks[M.block_of(name)] |= 1 << i
        if participants.n <= MAX_DENSE_ELEMENTS:
            table = _port_table(M, participants.n, block_masks, sblock)
            return AccessStructure(participants, qualified=table)

        def member(mask: int) -> bool:
            return bool(M.spans([(mask & bm).bit_count() for bm in block_masks], sblock))

        return AccessStructure(participants, oracle=member)

    participants, gaps, _, tol = _secret_gaps(M, secret, tolerance)
    return AccessStructure(participants, qualified=np.abs(gaps) <= tol)


def realizes(M: Polymatroid, A: AccessStructure, secret: str, tolerance=None):
    """Does M with this secret realize A?  (ok, counterexample mask or None).

    Qualified sets must satisfy f(sS) = f(S); unqualified sets must satisfy
    f(sS) = f(S) + f(s).  Every participant subset is checked, and the
    counterexample is the smallest failing mask.
    """
    participants, gaps, fs, tol = _secret_gaps(M, secret, tolerance)
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
    if isinstance(M, ExpandedMatroid):
        sblock = M.block_of(secret)
        blocks = [i for i, size in enumerate(M.block_sizes) if size > 0]
        units = np.eye(M.base.ground.n, dtype=np.int64)[blocks]  # one atom of a block each
        atom_rank = dict(zip(blocks, M.ranks_of_counts(units).tolist()))
        fs = atom_rank[sblock]
        if fs == 0:
            raise ValueError(f"secret {secret!r} has rank zero")
        tops = [
            rank for i, rank in atom_rank.items()
            if not (i == sblock and M.block_sizes[i] == 1)
        ]
        if not tops:
            raise ValueError("no participants besides the secret")
        return Fraction(max(tops), fs)

    fs = M.rank_of(secret)
    if fs == 0:
        raise ValueError(f"secret {secret!r} has rank zero")
    others = [M.value(1 << i) for i in range(M.ground.n) if M.ground.labels[i] != secret]
    if not others:
        raise ValueError("no participants besides the secret")
    top = max(others)
    if M.mode == "int":
        return Fraction(int(top), int(fs))
    return float(top / fs)


@dataclass(frozen=True)
class ImportantBoundReport:
    ok: bool
    margins: dict

    def as_dict(self) -> dict:
        return asdict(self)


def important_bound_check(M: Polymatroid, A: AccessStructure, secret: str) -> ImportantBoundReport:
    """Margins f(i) - f(secret) for every important participant; all must be
    non-negative when M realizes A."""
    tol = default_decision_tol(M.mode)
    fs = M.rank_of(secret)
    important, _ = important_participants(A)
    margins = {}
    for label in sorted(important, key=A.participants.index):
        margins[label] = M.rank_of(label) - fs
    ok = all(m >= -tol for m in margins.values())
    return ImportantBoundReport(ok, margins)


def access_structure_to_json(A: AccessStructure) -> dict:
    return {
        "participants": list(A.participants.labels),
        "minimal_qualified": [
            list(A.participants.labels_of(m)) for m in minimal_qualified(A)
        ],
    }


def expanded_port_doc(base_file: str, dualized: bool, secret: str) -> dict:
    """Document naming the port of the expansion of the rank vector in
    ``base_file`` (a path relative to the document's own directory)."""
    expanded = {"base_file": base_file, "dualized": dualized}
    return {"port": {"expanded": expanded, "secret": secret}}


def expanded_port_spec(doc) -> tuple[str, bool, str] | None:
    """(base_file, dualized, secret) of an expanded-port document, None for
    any other document."""
    spec = doc.get("port") if isinstance(doc, dict) else None
    if not (isinstance(spec, dict) and "expanded" in spec):
        return None
    exp = json_field(spec, "expanded", dict, "port spec")
    dualized = json_field(exp, "dualized", bool, "expanded port") if "dualized" in exp else False
    base_file = json_field(exp, "base_file", str, "expanded port")
    return base_file, dualized, json_field(spec, "secret", str, "port spec")


def _port_from_doc(doc: dict, base_dir: str) -> AccessStructure:
    expanded = expanded_port_spec(doc)
    if expanded is not None:
        base_file, dualized, secret = expanded
        base = validate_polymatroid(load_rank_vector(os.path.join(base_dir, base_file)))
        return matroid_port(helgason_expand(base, dualized=dualized), secret)
    spec = json_field(doc, "port", dict, "access-structure file")
    if "matroid_file" not in spec:
        raise ValueError("port spec needs either 'matroid_file' or 'expanded'")
    path = os.path.join(base_dir, json_field(spec, "matroid_file", str, "port spec"))
    pm = validate_polymatroid(load_rank_vector(path))
    return matroid_port(pm, json_field(spec, "secret", str, "port spec"))


def access_structure_from_json(doc: dict, base_dir: str = ".") -> AccessStructure:
    if isinstance(doc, dict) and "port" in doc:
        return _port_from_doc(doc, base_dir)
    where = "access-structure file"
    participants = GroundSet(json_field(doc, "participants", list, where))
    groups = json_field(doc, "minimal_qualified", list, where)
    for group in groups:
        if not (isinstance(group, list) and all(isinstance(label, str) for label in group)):
            raise ValueError(
                f"{where} field 'minimal_qualified' holds {group!r:.40}, not a list of labels"
            )
    return from_minimal(participants, [participants.mask_of(group) for group in groups])


def load_access_structure(path) -> AccessStructure:
    with open(path) as fh:
        doc = json.load(fh)
    return access_structure_from_json(doc, os.path.dirname(os.path.abspath(path)))


def save_access_structure(A: AccessStructure, path) -> None:
    text = json.dumps(access_structure_to_json(A), indent=1)
    with open(path, "w") as fh:
        fh.write(text + "\n")
