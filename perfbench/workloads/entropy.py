"""entropy: entropy vectors, marginals and the conditional product.

One op takes a fresh random distribution of N variables over ROWS distinct
outcome rows, computes its entropy vector, then the MMRV value of a random
five-variable marginal, then glues the marginals on X+Y and Y+Z (three
random disjoint pairs) with conditional_product.
"""

from types import SimpleNamespace

import numpy as np

import formulas
from harness import require
from workloads import Workload

N = 9
ROWS = 300
VALUES = 3
LABELS = tuple("abcdefghijklmnop"[:N])
TOL = 1e-9


def columns(mask):
    return [i for i in range(N) if mask >> i & 1]


def bits(indices):
    return sum(1 << i for i in indices)


class Entropy(Workload):
    name = "entropy"
    setup_code = "import polyshare"

    def __init__(self, seed, workdir):
        import polyshare

        self.ps = polyshare
        self.rng = np.random.default_rng(seed)
        self.row_counts = []

    def prepare(self):
        rng = self.rng
        rows = np.unique(rng.integers(0, VALUES, size=(ROWS, N)), axis=0)
        probs = rng.random(len(rows)) + 0.05
        probs /= probs.sum()
        self.row_counts.append(len(rows))
        five = sorted(rng.choice(N, size=5, replace=False).tolist())
        x, y, z = rng.choice(N, size=(3, 2), replace=False).tolist()
        dist = self.ps.JointDistribution(self.ps.GroundSet(LABELS), rows, probs)
        return SimpleNamespace(
            dist=dist, rows=rows, probs=probs, five=bits(five), xy=bits(x + y), yz=bits(y + z), y=bits(y)
        )

    def run(self, api, inp):
        H = api.entropy_vector(inp.dist)
        H5 = api.entropy_vector(api.marginal(inp.dist, inp.five))
        value = api.mmrv(H5)
        dxy = api.marginal(inp.dist, inp.xy)
        dyz = api.marginal(inp.dist, inp.yz)
        glued = api.conditional_product(dxy, dyz)
        return SimpleNamespace(
            H=np.asarray(H.values), H5=np.asarray(H5.values), mmrv=value, dxy=dxy, dyz=dyz, glued=glued
        )

    def counts(self, inp, result):
        return {"entropy.subsets": (1 << N) - 1 + (1 << 5) - 1}

    def describe(self):
        return {"rows per distribution (median)": int(np.median(self.row_counts))}

    def check(self, inp, res):
        want = formulas.entropies(inp.rows, inp.probs)
        require(np.allclose(res.H, want, rtol=0, atol=TOL), "entropy_vector differs from the rows")
        five = columns(inp.five)
        require(np.allclose(res.H5, formulas.entropies(inp.rows[:, five], inp.probs), rtol=0, atol=TOL),
                "entropy vector of the marginal differs from the rows")
        require(res.mmrv >= -TOL, f"mmrv of an entropic vector is {res.mmrv}")
        for d, mask in ((res.dxy, inp.xy), (res.dyz, inp.yz)):
            require(same_distribution(d, formulas.aggregate(inp.rows, inp.probs, columns(mask))),
                    "marginal differs from the rows")
        g = res.glued
        names = list(g.variables.labels)
        for d in (res.dxy, res.dyz):
            cols = [names.index(v) for v in d.variables.labels]
            require(same_distribution(d, formulas.aggregate(g.outcomes, g.probs, cols)),
                    "conditional_product does not keep its input marginals")
        h = formulas.entropies(g.outcomes, g.probs)
        xy, yz, y = (bits(names.index(LABELS[i]) for i in columns(m)) for m in (inp.xy, inp.yz, inp.y))
        gap = h[-1] - (h[xy] + h[yz] - h[y])
        require(abs(gap) <= TOL, f"H(XYZ) - H(XY) - H(YZ) + H(Y) = {gap}")


def same_distribution(d, want):
    """d (a JointDistribution) has the outcomes and probabilities of want."""
    got = dict(zip(map(tuple, d.outcomes.tolist()), d.probs.tolist()))
    return got.keys() == want.keys() and all(abs(got[k] - want[k]) <= TOL for k in want)
