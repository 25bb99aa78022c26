"""Shared machinery: child launches, reference tasks, drift correction, tracing.

Every reported time is scaled by ``nominal / measured`` of a reference task
timed right before and right after it, so that host speed drift between runs
cancels.  The nominal constants are documented in README.md.
"""

import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
FIXTURES = SRC / "polyshare" / "data"


class CheckFailed(AssertionError):
    """A result disagrees with the benchmark's own computation."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def child_env():
    """This process's environment (BLAS threads already pinned by run.py)
    with the checkout's sources on the path."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def launch(argv, workdir):
    """Run one child to completion: (wall seconds, exit code, stdout, stderr, peak RSS MB).

    Output goes through files in ``workdir`` so that the child can be reaped
    with ``wait4``, which reports that child's own peak RSS.
    """
    out_path = workdir / "child.out"
    err_path = workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, out_path.read_bytes(), err_path.read_bytes(), usage.ru_maxrss / 1024


IMPORT_REFERENCE = [sys.executable, "-c", "import numpy"]


def time_import_reference(workdir):
    """Seconds for a fresh interpreter to import numpy (the launch reference)."""
    wall, code, _, err, _ = launch(IMPORT_REFERENCE, workdir)
    if code != 0:
        raise RuntimeError(f"reference launch failed: {err.decode(errors='replace')}")
    return wall


# In-process reference parts.  None touches polyshare; each mimics one kind of
# work the ops do (codec, small numpy calls, per-subset Python loops), so that
# the reference drifts with the ops.
_DOC = {f"k{i}": [i, i / 7, f"v{i}", {"n": i % 13}] for i in range(300)}
_SMALL = np.random.default_rng(0).integers(0, 3, size=(60, 4))
_BIG = [int(x) * ((1 << 112) + (1 << 50) + 1)
        for x in np.random.default_rng(2).integers(0, 1 << 62, size=1500)]
_BLOCKS = [((1 << 35) - 1) << (35 * i) for i in range(5)]


def _json_round_trip():
    json.loads(json.dumps(_DOC))


def _small_unique():
    for _ in range(15):
        np.unique(_SMALL, axis=0, return_inverse=True)


def _bigint_counts():
    memo = {}
    for x in _BIG:
        key = tuple((x & m).bit_count() for m in _BLOCKS)
        memo[key] = memo.get(key, 0) + 1


# The in-process reference runs every part; README.md lists the nominal times.
REFERENCE_PARTS = {
    "json": (_json_round_trip, 1.5),
    "unique": (_small_unique, 2.0),
    "bigint": (_bigint_counts, 2.0),
}
NOMINAL_IMPORT_MS = 150.0


class Reference:
    """The reference task: the in-process parts, or with ``launch`` a fresh
    interpreter importing numpy."""

    def __init__(self, launch, workdir):
        self.launch = launch
        self.workdir = workdir
        nominal_ms = NOMINAL_IMPORT_MS if launch else sum(n for _, n in REFERENCE_PARTS.values())
        self.nominal_s = nominal_ms / 1e3

    def time(self):
        """Seconds the reference takes now."""
        if self.launch:
            return time_import_reference(self.workdir)
        t0 = time.perf_counter()
        for task, _ in REFERENCE_PARTS.values():
            task()
        return time.perf_counter() - t0


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# the polyshare calls the workloads make, optionally traced

LAYERS = {
    "core": ("load_rank_vector", "save_rank_vector"),
    "polymatroid": ("validate_polymatroid", "tighten", "dual"),
    "entropy": ("entropy_vector", "marginal", "conditional_product"),
    "inequalities": ("mmrv",),
    "matroid": ("helgason_expand", "block_collapse", "expanded_mmrv", "rank_of_counts"),
    "secret_sharing": (
        "matroid_port",
        "dual_structure",
        "save_access_structure",
        "is_qualified",
        "sigma",
    ),
    "cli": ("main",),
    "reproduce": ("run_reproduction",),
}


def _layer_function(module, name):
    mod = importlib.import_module(f"polyshare.{module}")
    if name == "rank_of_counts":
        return mod.ExpandedMatroid.rank_of_counts  # called as api.rank_of_counts(E, counts)
    return getattr(mod, name)


class Tracer:
    """Keeps spans (name, start, end, parent index, op id) in memory."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, t0, t1, parent, self.op)

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent, "op": op}))
                fh.write("\n")


def bind(tracer=None):
    """Namespace of the polyshare functions the workloads call."""
    api = SimpleNamespace()
    for module, names in LAYERS.items():
        for name in names:
            fn = _layer_function(module, name)
            setattr(api, name, tracer.wrap(f"{module}.{name}", fn) if tracer else fn)
    return api
