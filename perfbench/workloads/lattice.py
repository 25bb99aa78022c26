"""lattice: the rank-vector JSON codec, the subset-lattice kernels and dense ports.

One op takes a fresh random polymatroid on N elements from a file through
load -> validate -> tighten -> dual -> save, then builds the ports of the
tight vector T and of its dual D at one secret, dualizes the first port and
saves that structure.  Ops alternate between weighted-coverage polymatroids
and truncated partition matroids (tight by construction, so T = M there).
"""

import json
from types import SimpleNamespace

import numpy as np

import formulas
from harness import require
from workloads import Workload

N = 14
LABELS = tuple(f"x{i:02d}" for i in range(N))
COVER_ITEMS = 24


def coverage(rng):
    """sum over items j of w_j * [A meets S_j], random S_j and w_j."""
    masks = np.arange(1 << N, dtype=np.int64)
    values = np.zeros(1 << N, dtype=np.int64)
    for _ in range(COVER_ITEMS):
        members = int((rng.random(N) < 0.2) @ (1 << np.arange(N))) or 1 << int(rng.integers(N))
        values += int(rng.integers(1, 6)) * ((masks & members) != 0)
    return values


def truncated_partition(rng):
    """min(k, sum over blocks b of min(|A & B_b|, cap_b)) with k below the
    partition rank, so that no element is a coloop; None when that rank is 1."""
    blocks = rng.integers(0, int(rng.integers(3, 7)), size=N)
    counts = np.zeros((1 << N, blocks.max() + 1), dtype=np.int64)
    member = formulas.membership(N)
    for i in range(N):
        counts[:, blocks[i]] += member[:, i]
    sizes = counts[-1]
    caps = np.array([int(rng.integers(1, s + 1)) if s else 0 for s in sizes])
    partition = np.minimum(counts, caps).sum(axis=1)
    if partition[-1] < 2:
        return None
    k = int(rng.integers(max(1, partition[-1] // 2), partition[-1]))
    return np.minimum(partition, k)


class Lattice(Workload):
    name = "lattice"
    setup_code = "import polyshare"

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.keyed = formulas.subset_keys(LABELS)
        self.ops = 0

    def prepare(self):
        kind = ("coverage", "matroid")[self.ops % 2]
        self.ops += 1
        while True:
            f = coverage(self.rng) if kind == "coverage" else truncated_partition(self.rng)
            if f is None:
                continue
            tight = formulas.tighten(f)
            candidates = [i for i in range(N) if tight[1 << i] > 0]
            if candidates:
                break
        secret = int(self.rng.choice(candidates))
        path = self.workdir / "lattice_in.json"
        formulas.write_rank_json(path, LABELS, f, self.keyed)
        return SimpleNamespace(
            kind=kind,
            f=f,
            secret=secret,
            path=path,
            rank_out=self.workdir / "lattice_rank_out.json",
            access_out=self.workdir / "lattice_access_out.json",
        )

    def run(self, api, inp):
        M = api.validate_polymatroid(api.load_rank_vector(inp.path))
        T = api.tighten(M)
        D = api.dual(T)
        api.save_rank_vector(D.rank, inp.rank_out)
        secret = LABELS[inp.secret]
        PT = api.matroid_port(T, secret)
        PD = api.matroid_port(D, secret)
        DS = api.dual_structure(PT)
        api.save_access_structure(DS, inp.access_out)
        return SimpleNamespace(
            T=np.asarray(T.values),
            D=np.asarray(D.values),
            PT=np.asarray(PT.qualified),
            PD=np.asarray(PD.qualified),
            DS=np.asarray(DS.qualified),
        )

    def counts(self, inp, result):
        return {"core.json_bytes": inp.path.stat().st_size + inp.rank_out.stat().st_size}

    def check(self, inp, res):
        T = formulas.tighten(inp.f)
        require(np.array_equal(res.T, T), "tighten differs from f(A) - sum(f(E) - f(E-i))")
        D = formulas.dual(T)
        require(np.array_equal(res.D, D), "dual differs from f(E-A) + mu(A) - f(E)")
        require(np.array_equal(formulas.dual(res.D), T), "dual(dual(T)) != T")
        qT = formulas.port(T, inp.secret)
        require(np.array_equal(res.PT, qT), "port of T differs from [f(S+s) = f(S)]")
        require(np.array_equal(res.PD, formulas.port(D, inp.secret)), "port of dual(T) differs")
        dq = formulas.dual_flags(qT)
        require(np.array_equal(res.DS, dq), "dual_structure differs from the complement rule")
        if inp.kind == "matroid":
            require(np.array_equal(res.PD, dq), "port of the dual matroid != dual of the port")
        saved = formulas.parse_rank_doc(json.loads(inp.rank_out.read_text()), LABELS, self.keyed)
        require(saved is not None and np.array_equal(saved, D), "saved rank vector does not parse back")
        participants = LABELS[: inp.secret] + LABELS[inp.secret + 1 :]
        bit = {label: 1 << i for i, label in enumerate(participants)}
        access = json.loads(inp.access_out.read_text())
        require(access.get("participants") == list(participants), "saved participants differ")
        saved_min = {sum(bit[l] for l in group) for group in access["minimal_qualified"]}
        require(saved_min == formulas.minimal_sets(dq), "saved minimal qualified sets differ")
