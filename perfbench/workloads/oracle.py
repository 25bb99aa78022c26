"""oracle: the lazy rank oracle of the bundled 175-atom expansion.

One op is one session on a fresh expansion E of the tight fixture (so the
memo starts empty every op): E and its dual, the ports of both at one random
atom, SUBSETS random participant subsets and their complements through
is_qualified on both ports, COUNT_QUERIES count vectors through
rank_of_counts on E and on the dual (half of them repeat an earlier vector
of the batch), then block_collapse, expanded_mmrv of the dual and sigma.
"""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np

import formulas
from harness import FIXTURES, require
from workloads import Workload

SUBSETS = 150
COUNT_QUERIES = 600


class Oracle(Workload):
    name = "oracle"
    setup_code = (
        "import polyshare as p\n"
        "from importlib import resources\n"
        "path = resources.files('polyshare.data') / 'table2_middle.json'\n"
        "E = p.helgason_expand(p.tighten(p.validate_polymatroid(p.load_rank_vector(path))))\n"
        "E.dual()\n"
    )

    def __init__(self, seed, workdir):
        import polyshare

        self.rng = np.random.default_rng(seed)
        self.N = polyshare.tighten(polyshare.validate_polymatroid(
            polyshare.load_rank_vector(FIXTURES / "table2_middle.json")))
        self.labels, self.h = formulas.read_int_rank_file(FIXTURES / "table2_tight.json")
        _, middle = formulas.read_int_rank_file(FIXTURES / "table2_middle.json")
        require(np.array_equal(formulas.tighten(middle), self.h), "tight fixture is not tighten(middle)")
        self.sizes = self.h[[1 << i for i in range(len(self.labels))]]
        self.atoms = [(f"{label}_{k}", b) for b, label in enumerate(self.labels)
                      for k in range(1, self.sizes[b] + 1)]
        self.qualified = []
        self.repeats = []

    def prepare(self):
        rng = self.rng
        secret = int(rng.integers(len(self.atoms)))
        blocks = np.array([b for i, (_, b) in enumerate(self.atoms) if i != secret])
        n = len(blocks)
        sizes = rng.integers(0, n + 1, size=SUBSETS)
        chosen = rng.random((SUBSETS, n)).argsort(axis=1).argsort(axis=1) < sizes[:, None]
        chosen = np.repeat(chosen, 2, axis=0)
        chosen[1::2] = ~chosen[1::2]  # each subset followed by its complement
        packed = np.packbits(chosen, axis=1, bitorder="little")
        subsets = [int.from_bytes(row.tobytes(), "little") for row in packed]
        block_counts = np.stack([chosen[:, blocks == b].sum(axis=1) for b in range(len(self.labels))], 1)
        distinct = np.stack([rng.integers(0, s + 1, size=COUNT_QUERIES // 2) for s in self.sizes], axis=1)
        repeats = distinct[rng.integers(0, len(distinct), size=COUNT_QUERIES // 2)]
        counts = np.concatenate([distinct, repeats])
        counts = counts[rng.permutation(len(counts))]
        self.repeats.append(1 - len(np.unique(counts, axis=0)) / len(counts))
        return SimpleNamespace(
            secret=self.atoms[secret][0],
            secret_block=self.atoms[secret][1],
            subsets=subsets,
            block_counts=block_counts,
            counts=[tuple(c) for c in counts.tolist()],
        )

    def run(self, api, inp):
        E = api.helgason_expand(self.N)
        Ed = E.dual()
        port = api.matroid_port(E, inp.secret)
        port_dual = api.matroid_port(Ed, inp.secret)
        q = [api.is_qualified(port, S) for S in inp.subsets]
        qd = [api.is_qualified(port_dual, S) for S in inp.subsets]
        r = [api.rank_of_counts(E, c) for c in inp.counts]
        rd = [api.rank_of_counts(Ed, c) for c in inp.counts]
        collapsed = api.block_collapse(E)
        value = api.expanded_mmrv(Ed)
        ratio = api.sigma(E, inp.secret)
        return SimpleNamespace(
            q=q, qd=qd, r=r, rd=rd, collapsed=np.asarray(collapsed.values), mmrv=value, sigma=ratio
        )

    def rank(self, counts, dualized):
        counts = np.atleast_2d(counts)
        if not dualized:
            return formulas.expansion_rank(self.h, counts)
        full = formulas.expansion_rank(self.h, self.sizes)[0]
        return formulas.expansion_rank(self.h, self.sizes - counts) + counts.sum(axis=1) - full

    def check(self, inp, res):
        counts = np.array(inp.counts)
        require(np.array_equal(res.r, self.rank(counts, False)), "rank_of_counts differs from the formula")
        require(np.array_equal(res.rd, self.rank(counts, True)), "dual rank_of_counts differs from the formula")
        with_secret = inp.block_counts.copy()
        with_secret[:, inp.secret_block] += 1
        for answers, dualized in ((res.q, False), (res.qd, True)):
            want = self.rank(with_secret, dualized) == self.rank(inp.block_counts, dualized)
            require(np.array_equal(answers, want), "is_qualified differs from [r(S + s) = r(S)]")
        q, qd = np.array(res.q), np.array(res.qd)
        require(np.array_equal(qd[0::2], ~q[1::2]) and np.array_equal(qd[1::2], ~q[0::2]),
                "the port of the dual is not the dual of the port")
        require(np.array_equal(res.collapsed, self.h), "block_collapse differs from the tight fixture")
        require(res.mmrv == -1, f"expanded_mmrv of the dual is {res.mmrv}, not -1")
        atom = self.rank(np.eye(len(self.labels), dtype=np.int64), False)
        want = Fraction(int(atom.max()), int(atom[inp.secret_block]))
        require(res.sigma == want, f"sigma is {res.sigma}, not {want}")
        self.qualified.append(float(np.mean(q)))

    def describe(self):
        return {
            "qualified share of port queries (mean)": round(float(np.mean(self.qualified)), 4),
            "repeat share of count vectors (mean)": round(float(np.mean(self.repeats)), 4),
        }
