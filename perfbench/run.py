"""Run one benchmark workload against the polyshare sources of this checkout.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 15 --trace 0

Each workload is a closed loop with one caller: the next op starts when the
previous one has ended.  A reference task is timed right before and right
after every op, and the op's time is scaled by nominal / (mean of the two);
see README.md, "Drift correction".  Every op's result is checked against the
benchmark's own computations outside its timed region.  The last line of
stdout is one JSON object: correct, attempted, failed and the metrics,
end-to-end ones with --trace 0 and per-layer ones with --trace 1.
--workload all runs every workload in turn, each in a child process, and
prints one line per workload.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
WORKLOADS = {
    "cli": "workloads.cli:Cli",
    "lattice": "workloads.lattice:Lattice",
    "entropy": "workloads.entropy:Entropy",
    "oracle": "workloads.oracle:Oracle",
}
ROOT = Path(__file__).resolve().parent.parent

SETUP_LAUNCHES = 7
IMPORTTIME_LAUNCHES = 5
HOT_CALLS = ("secret_sharing.is_qualified", "matroid.rank_of_counts")  # timed in us, counted per op
OP_COUNTS = {"core.json_bytes": "bytes", "entropy.subsets": "count"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def scale(seconds, reference_s, nominal_s):
    """A time at nominal machine speed."""
    return seconds * nominal_s / reference_s


def load_workload(name):
    module, cls = WORKLOADS[name].split(":")
    return getattr(importlib.import_module(module), cls)


class Runner:
    def __init__(self, workload, seed, seconds, trace):
        import harness

        self.h = harness
        self.seed = seed
        self.seconds = seconds
        self.trace = bool(trace)
        self.workdir = harness.OUT / f"{workload}-{seed}-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.wl = load_workload(workload)(seed, self.workdir)
        self.reference = harness.Reference(self.wl.launches, self.workdir)
        self.nominal_s = self.reference.nominal_s
        self.tracer = harness.Tracer() if self.trace else None
        self.raw_api = harness.bind()
        self.traced_api = harness.bind(self.tracer) if self.trace else None
        self.ops = []  # (op id, traced, op seconds, reference seconds)
        self.op_counts = []  # per traced op: {count name: value}
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def paired_launches(self, argv, count):
        """(wall, reference, stderr) of `count` fresh launches.  Numpy-import
        reference launches run before, between and after them, and each launch
        takes the mean of its two neighbours; one untimed launch first fills
        the bytecode cache."""
        self.h.launch(argv, self.workdir)
        refs = [self.h.time_import_reference(self.workdir)]
        out = []
        for _ in range(count):
            wall, code, _, err, _ = self.h.launch(argv, self.workdir)
            if code != 0:
                raise RuntimeError(f"set-up launch failed: {err.decode(errors='replace')}")
            refs.append(self.h.time_import_reference(self.workdir))
            out.append((wall, (refs[-2] + refs[-1]) / 2, err))
        return out

    def measure_setup(self):
        argv = [sys.executable, "-c", self.wl.setup_code]
        nominal = self.h.NOMINAL_IMPORT_MS / 1e3
        pairs = self.paired_launches(argv, SETUP_LAUNCHES)
        self.setup_raw = [w for w, _, _ in pairs]
        self.setup_ref = [r for _, r, _ in pairs]
        return self.h.median([scale(w, r, nominal) for w, r, _ in pairs])

    def measure_import_ms(self):
        argv = [sys.executable, "-X", "importtime", "-c", "import polyshare"]
        samples = []
        for wall, ref, err in self.paired_launches(argv, IMPORTTIME_LAUNCHES):
            line = next(l for l in err.decode().splitlines() if l.rstrip().endswith("| polyshare"))
            cumulative_us = int(line.split("|")[1])
            samples.append(scale(cumulative_us / 1e3, ref, self.h.NOMINAL_IMPORT_MS / 1e3))
        return self.h.median(samples)

    def one_op(self, traced):
        api = self.traced_api if traced else self.raw_api
        inp = self.wl.prepare()
        op_id = self.attempted
        self.attempted += 1
        if self.tracer:
            self.tracer.op = op_id
        before = self.reference.time()
        t0 = time.perf_counter()
        try:
            result = self.wl.run(api, inp)
        except Exception:
            self.failed += 1
            print(f"# op {op_id} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return
        elapsed = time.perf_counter() - t0
        after = self.reference.time()
        self.ops.append((op_id, traced, elapsed, (before + after) / 2))
        try:
            self.wl.check(inp, result)
            if traced:
                self.wl.traced_extras(api, inp, result)
                self.op_counts.append(self.wl.counts(inp, result))
        except Exception:
            self.correct = False
            print(f"# op {op_id} check failed:\n{traceback.format_exc()}", file=sys.stderr)

    def loop(self):
        """Whole rounds until the time is up; in trace mode rounds alternate
        untraced and traced, and the count of rounds is even."""
        deadline = time.perf_counter() + self.seconds
        rounds = 0
        while True:
            traced = self.trace and rounds % 2 == 1
            for _ in range(self.wl.ops_per_round):
                self.one_op(traced)
            rounds += 1
            if time.perf_counter() >= deadline and (not self.trace or rounds % 2 == 0):
                return

    def corrected_op_s(self, traced):
        return [scale(s, r, self.nominal_s) for _, t, s, r in self.ops if t == traced]

    def end_to_end(self, setup_s):
        times = self.corrected_op_s(False)
        if self.reference.launch:
            rss = self.wl.child_peak_mb
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(times) / sum(times) if times else 0.0, "1/s"),
            "op_ms.p50": (self.h.median(times) * 1e3, "ms"),
            "peak_rss_mb": (rss, "MB"),
        }

    def per_layer(self, import_ms):
        """Hot calls: median corrected time of one call, in us.  Every other
        function: median corrected time spent in it per traced op that calls
        it, in ms.  Counts: median per traced op."""
        h = self.h
        ratio = {op: self.nominal_s / ref for op, t, _, ref in self.ops if t}
        per_call = {}
        per_op = {}
        calls = {}
        for name, t0, t1, _, op in self.tracer.spans:
            if op in ratio:
                per_call.setdefault(name, []).append((t1 - t0) * ratio[op])
                per_op[(name, op)] = per_op.get((name, op), 0.0) + (t1 - t0) * ratio[op]
                calls[(name, op)] = calls.get((name, op), 0) + 1
        out = {"cli.import_ms": (import_ms, "ms")}
        for module, functions in h.LAYERS.items():
            for fn in functions:
                span = f"{module}.{fn}"
                if span in HOT_CALLS:
                    out[span + "_us"] = (h.median(per_call.get(span, [])) * 1e6, "us")
                else:
                    totals = [t for (name, _), t in per_op.items() if name == span]
                    out[span + "_ms"] = (h.median(totals) * 1e3, "ms")
        for span in HOT_CALLS:
            out[f"{span}.calls"] = (h.median([calls.get((span, op), 0) for op in ratio]), "count")
        for name, unit in OP_COUNTS.items():
            out[name] = (h.median([c.get(name, 0) for c in self.op_counts]), unit)
        return out

    def summary(self, setup_s):
        h = self.h
        raw = [s for _, t, s, _ in self.ops if not t]
        refs = [r for _, t, _, r in self.ops if not t]
        lines = [
            f"# {self.wl.name}: {len(raw)} untraced ops, raw op_ms.p50={h.median(raw) * 1e3:.3f} "
            f"reference_ms.p50={h.median(refs) * 1e3:.3f} (nominal {self.nominal_s * 1e3:g})",
            f"# setup: raw_s.p50={h.median(self.setup_raw):.4f} "
            f"import_reference_s.p50={h.median(self.setup_ref):.4f} corrected={setup_s:.4f}",
        ]
        for key, value in self.wl.describe().items():
            lines.append(f"# input {key}: {value}")
        if self.trace:
            traced = h.median(self.corrected_op_s(True)) * 1e3
            untraced = h.median(self.corrected_op_s(False)) * 1e3
            lines.append(
                f"# tracing overhead: {traced - untraced:+.3f} ms per op "
                f"(traced op_ms.p50={traced:.3f}, untraced op_ms.p50={untraced:.3f})"
            )
        return lines

    def run(self):
        try:
            setup_s = self.measure_setup()
            import_ms = self.measure_import_ms() if self.trace else None
            self.loop()
            metrics = self.per_layer(import_ms) if self.trace else self.end_to_end(setup_s)
            for line in self.summary(setup_s):
                print(line)
            if self.trace:
                trace_path = self.h.OUT / f"trace-{self.wl.name}-{self.seed}.jsonl"
                self.tracer.write(trace_path)
                print(f"# spans written to {trace_path.relative_to(self.h.ROOT)}")
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def run_all(args):
    """Every workload in turn, one child process at a time."""
    lines = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        lines[name] = json.loads(out[-1])
        print(f"{name} {out[-1]}")
    print(json.dumps({
        "correct": all(r["correct"] for r in lines.values()),
        "attempted": sum(r["attempted"] for r in lines.values()),
        "failed": sum(r["failed"] for r in lines.values()),
        "metrics": {f"{w}/{k}": v for w, r in lines.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "polyshare" / "__init__.py").is_file():
        print(f"error: no polyshare sources at {ROOT / 'src' / 'polyshare'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    result = Runner(args.workload, args.seed, args.seconds, args.trace).run()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
