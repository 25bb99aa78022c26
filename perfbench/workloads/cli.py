"""cli: one `python -m polyshare.cli ...` process per op, as a user runs it.

A round is the fixed cycle of COMMANDS on the bundled five-element fixtures.
The seed picks the expansion queries and the port secret once per run, so a
command's output must be byte-identical every time it runs.  The reference
of each op is a fresh `python -c "import numpy"` launch.
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

import formulas
from harness import FIXTURES, launch, require
from workloads import Workload

COMMANDS = (
    "reproduce",
    "validate",
    "tighten",
    "dual",
    "mmrv",
    "expand",
    "expand-dual",
    "port",
    "sigma",
    "access-dual",
)


def access_doc(labels, flags):
    """An access-structure document, minimal sets ordered by size then mask."""
    sets = sorted(formulas.minimal_sets(flags), key=lambda m: (m.bit_count(), m))
    return {
        "participants": list(labels),
        "minimal_qualified": [[l for i, l in enumerate(labels) if m >> i & 1] for m in sets],
    }


class Cli(Workload):
    name = "cli"
    setup_code = "import polyshare.cli"
    launches = True
    ops_per_round = len(COMMANDS)

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.middle_path = FIXTURES / "table2_middle.json"
        self.tight_path = FIXTURES / "table2_tight.json"
        self.labels, self.middle = formulas.read_int_rank_file(self.middle_path)
        _, self.tight = formulas.read_int_rank_file(self.tight_path)
        keyed = formulas.subset_keys(self.labels)
        self.middle_dual_path = workdir / "middle_dual.json"
        formulas.write_rank_json(self.middle_dual_path, self.labels, formulas.dual(self.middle), keyed)
        self.sizes = self.tight[[1 << i for i in range(len(self.labels))]]
        self.query_counts = np.array([int(rng.integers(0, s + 1)) for s in self.sizes])
        self.query = ",".join(f"{l}:{c}" for l, c in zip(self.labels, self.query_counts))
        self.secret = int(rng.integers(len(self.labels)))
        self.participants = [l for i, l in enumerate(self.labels) if i != self.secret]
        self.port_flags = formulas.port(self.tight, self.secret)
        self.port_path = workdir / "port.json"
        self.port_path.write_text(json.dumps(access_doc(self.participants, self.port_flags)))
        self.expected = self.expected_outputs()
        self.first = {}
        self.child_peak_mb = 0.0
        self.ops = 0

    def argv(self, command):
        secret = self.labels[self.secret]
        return {
            "reproduce": ["reproduce"],
            "validate": ["validate", "--in", str(self.middle_path)],
            "tighten": ["tighten", "--in", str(self.middle_path)],
            "dual": ["dual", "--in", str(self.middle_path)],
            "mmrv": ["mmrv", "--in", str(self.middle_dual_path)],
            "expand": ["expand", "--in", str(self.tight_path), "--query", self.query],
            "expand-dual": ["expand", "--in", str(self.tight_path), "--dual", "--query", self.query],
            "port": ["port", "--in", str(self.tight_path), "--secret", secret],
            "sigma": ["sigma", "--in", str(self.tight_path), "--secret", secret],
            "access-dual": ["access-dual", "--in", str(self.port_path)],
        }[command]

    def expected_outputs(self):
        """{command: (exit code, check of stdout)} from the benchmark's formulas."""
        h = self.tight
        rank = formulas.expansion_rank(h, self.query_counts)[0]
        full = formulas.expansion_rank(h, self.sizes)[0]
        complement = formulas.expansion_rank(h, self.sizes - self.query_counts)[0]
        dual_rank = complement + self.query_counts.sum() - full
        mmrv = formulas.mmrv(formulas.dual(self.middle))
        others = [v for i, v in enumerate(self.sizes) if i != self.secret]
        sigma = Fraction(int(max(others)), int(self.sizes[self.secret]))

        def ranks_equal(values):
            keyed = formulas.subset_keys(self.labels)
            return lambda out: np.array_equal(formulas.parse_rank_doc(json.loads(out), self.labels, keyed), values)

        def structure_equal(flags):
            return lambda out: json.loads(out) == access_doc(self.participants, flags)

        def reproduction(out):
            lines = out.decode().splitlines()
            passes = [l for l in lines if l.startswith("[") and "] PASS " in l]
            return len(passes) == 10 and lines[-1] == "reproduction PASSED"

        return {
            "reproduce": (0, reproduction),
            "validate": (0, lambda out: out == b"valid\n"),
            "tighten": (0, ranks_equal(formulas.tighten(self.middle))),
            "dual": (0, ranks_equal(formulas.dual(self.middle))),
            "mmrv": (0 if mmrv >= 0 else 1, lambda out: out == f"{mmrv}\n".encode()),
            "expand": (0, lambda out: out == f"{rank}\n".encode()),
            "expand-dual": (0, lambda out: out == f"{dual_rank}\n".encode()),
            "port": (0, structure_equal(self.port_flags)),
            "sigma": (0, lambda out: out == f"{sigma}\n".encode()),
            "access-dual": (0, structure_equal(formulas.dual_flags(self.port_flags))),
        }

    def prepare(self):
        command = COMMANDS[self.ops % len(COMMANDS)]
        self.ops += 1
        return SimpleNamespace(command=command, args=self.argv(command))

    def run(self, api, inp):
        _, code, out, err, rss = launch([sys.executable, "-m", "polyshare.cli", *inp.args], self.workdir)
        self.child_peak_mb = max(self.child_peak_mb, rss)
        return SimpleNamespace(code=code, out=out, err=err)

    def check(self, inp, res):
        code, ok = self.expected[inp.command]
        require(res.code == code, f"{inp.command} exited {res.code}, expected {code}: {res.err[-300:]!r}")
        require(ok(res.out), f"{inp.command} printed a wrong result: {res.out[:300]!r}")
        first = self.first.setdefault(inp.command, res.out)
        require(res.out == first, f"{inp.command} output differs from its first output in this run")

    def traced_extras(self, api, inp, res):
        """The same command through cli.main in process; its stdout must equal the child's."""
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = api.main(inp.args)
        require(code == res.code and buffer.getvalue().encode() == res.out,
                f"in-process {inp.command} differs from the child process")
        if inp.command == "reproduce":
            require(api.run_reproduction().passed, "run_reproduction did not pass")

    def describe(self):
        return {"expand query": self.query, "port secret": self.labels[self.secret]}
