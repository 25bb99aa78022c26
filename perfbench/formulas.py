"""The benchmark's own computations, written without polyshare.

The checks compare every polyshare result with these formulas, so that a
run is correct by construction and not by agreement with a stored output.
"""

import json

import numpy as np


def subset_order(n):
    """Nonempty masks by size then value: the order of polyshare's JSON keys."""
    masks = np.arange(1, 1 << n, dtype=np.int64)
    sizes = popcounts(n)[1:]
    return masks[np.lexsort((masks, sizes))]


def popcounts(n):
    masks = np.arange(1 << n, dtype=np.int64)
    out = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        out += masks >> i & 1
    return out


def subset_keys(labels):
    """(masks in key order, key strings, {key: mask})."""
    order = subset_order(len(labels))
    keys = [",".join(l for i, l in enumerate(labels) if m >> i & 1) for m in order.tolist()]
    return order, keys, dict(zip(keys, order.tolist()))


def write_rank_json(path, labels, values, keyed):
    order, keys, _ = keyed
    ranks = dict(zip(keys, values[order].tolist()))
    with open(path, "w") as fh:
        json.dump({"ground": list(labels), "mode": "int", "ranks": ranks}, fh)


def parse_rank_doc(doc, labels, keyed):
    """Values array from a rank-vector document, or None when it is malformed."""
    _, _, key_mask = keyed
    if doc.get("ground") != list(labels) or len(doc.get("ranks", ())) != (1 << len(labels)) - 1:
        return None
    values = np.zeros(1 << len(labels), dtype=np.float64)
    for key, value in doc["ranks"].items():
        if key not in key_mask:
            return None
        values[key_mask[key]] = value
    return values


def read_int_rank_file(path):
    """(labels, int values) of an int-mode rank-vector file."""
    doc = json.loads(path.read_text())
    labels = doc["ground"]
    return labels, parse_rank_doc(doc, labels, subset_keys(labels)).astype(np.int64)


def mu(f):
    """Sum of singleton values over each subset."""
    n = len(f).bit_length() - 1
    masks = np.arange(len(f), dtype=np.int64)
    out = np.zeros(len(f), dtype=f.dtype)
    for i in range(n):
        out = out + (masks >> i & 1) * f[1 << i]
    return out


def tighten(f):
    """f(A) - sum over i in A of (f(E) - f(E - i))."""
    n = len(f).bit_length() - 1
    full = len(f) - 1
    masks = np.arange(len(f), dtype=np.int64)
    out = f.copy()
    for i in range(n):
        out = out - (masks >> i & 1) * (f[full] - f[full ^ (1 << i)])
    return out


def dual(f):
    """f(E - A) + mu(A) - f(E)."""
    full = len(f) - 1
    masks = np.arange(len(f), dtype=np.int64)
    return f[full ^ masks] + mu(f) - f[full]


def port(f, k, tol=0):
    """Qualified flags over the other elements: [f(S + k) = f(S)] (bit k removed)."""
    n = len(f).bit_length() - 1
    s = np.arange(1 << (n - 1), dtype=np.int64)
    low = (1 << k) - 1
    base = (s & low) | (s >> k) << (k + 1)
    return np.abs(f[base | (1 << k)] - f[base]) <= tol


def dual_flags(q):
    """Dual access structure: S qualified iff its complement is not."""
    full = len(q) - 1
    return ~q[full ^ np.arange(len(q), dtype=np.int64)]


def minimal_sets(q):
    """Masks of the inclusion-minimal qualified sets."""
    n = len(q).bit_length() - 1
    masks = np.arange(len(q), dtype=np.int64)
    keep = q.copy()
    for i in range(n):
        has = (masks >> i & 1).astype(bool)
        keep[has] &= ~q[masks[has] ^ (1 << i)]
    return set(masks[keep].tolist())


def membership(n):
    """(2^n, n) 0/1 matrix: row A lists the elements of A."""
    masks = np.arange(1 << n, dtype=np.int64)
    return (masks[:, None] >> np.arange(n) & 1).astype(np.int64)


def expansion_rank(h, counts):
    """Rank in the unit-atom expansion of h for each row of per-block counts:
    min over A of h(A) + sum of the counts outside A."""
    counts = np.atleast_2d(np.asarray(counts, dtype=np.int64))
    outside = 1 - membership(counts.shape[1])
    return (h[None, :] + counts @ outside.T).min(axis=1)


def entropies(rows, probs):
    """H in bits of every subset of the columns, indexed by mask.  Each
    subset's outcomes are coded as one integer and summed with bincount."""
    n = rows.shape[1]
    base = int(rows.max()) + 1
    weights = base ** np.arange(n, dtype=np.int64)
    out = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        cols = [i for i in range(n) if mask >> i & 1]
        _, label = np.unique(rows[:, cols] @ weights[cols], return_inverse=True)
        p = np.bincount(label, weights=probs)
        p = p[p > 0]
        out[mask] = -(p * np.log2(p)).sum()
    return out


def aggregate(rows, probs, columns):
    """{outcome on the columns: summed probability}."""
    sums = {}
    for row, p in zip(rows[:, columns].tolist(), probs.tolist()):
        key = tuple(row)
        sums[key] = sums.get(key, 0.0) + p
    return sums


def mmrv(f):
    """I(a,b|c) + I(b,c|a) + I(c,a|b) + I(b,c|d) + I(b,c|e) + I(d,e) - I(b,c)
    of a five-element set function, roles in ground order."""
    a, b, c, d, e = 1, 2, 4, 8, 16

    def info(x, y, z=0):
        return f[x | z] + f[y | z] - f[x | y | z] - f[z]

    return (info(a, b, c) + info(b, c, a) + info(c, a, b) + info(b, c, d) + info(b, c, e)
            + info(d, e) - info(b, c))
