"""Fast self-tests of the benchmark: every workload's checks accept a real
result and reject a deliberately corrupted one.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import run  # noqa: E402
from harness import CheckFailed  # noqa: E402


def one_op(name, tmp_path, seed=7):
    """A workload, one op's inputs and its checked result."""
    workload = run.load_workload(name)(seed, tmp_path)
    inputs = workload.prepare()
    result = workload.run(harness.bind(), inputs)
    workload.check(inputs, result)
    return workload, inputs, result


def rejects(workload, inputs, result):
    with pytest.raises(CheckFailed):
        workload.check(inputs, result)


def test_lattice_rejects_a_flipped_port_bit(tmp_path):
    workload, inputs, result = one_op("lattice", tmp_path)
    result.PT = result.PT.copy()
    result.PT[3] = ~result.PT[3]
    rejects(workload, inputs, result)


def test_lattice_rejects_a_rank_off_by_one(tmp_path):
    workload, inputs, result = one_op("lattice", tmp_path)
    result.D = result.D.copy()
    result.D[5] += 1
    rejects(workload, inputs, result)


def test_lattice_rejects_a_saved_rank_off_by_one(tmp_path):
    workload, inputs, result = one_op("lattice", tmp_path)
    doc = json.loads(inputs.rank_out.read_text())
    key = next(iter(doc["ranks"]))
    doc["ranks"][key] += 1
    inputs.rank_out.write_text(json.dumps(doc))
    rejects(workload, inputs, result)


def test_entropy_rejects_an_entropy_off_by_1e_6(tmp_path):
    workload, inputs, result = one_op("entropy", tmp_path)
    result.H = result.H.copy()
    result.H[77] += 1e-6
    rejects(workload, inputs, result)


def test_oracle_rejects_a_flipped_port_bit(tmp_path):
    workload, inputs, result = one_op("oracle", tmp_path)
    result.qd[11] = not result.qd[11]
    rejects(workload, inputs, result)


def test_oracle_rejects_a_rank_off_by_one(tmp_path):
    workload, inputs, result = one_op("oracle", tmp_path)
    result.r[4] += 1
    rejects(workload, inputs, result)


@pytest.mark.parametrize("command", ["sigma", "tighten", "port"])
def test_cli_rejects_a_changed_byte(tmp_path, command):
    workload = run.load_workload("cli")(7, tmp_path)
    while True:
        inputs = workload.prepare()
        if inputs.command == command:
            break
    result = workload.run(harness.bind(), inputs)
    workload.check(inputs, result)
    out = bytearray(result.out)
    out[len(out) // 2] ^= 0x01
    result.out = bytes(out)
    rejects(workload, inputs, result)


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    runner = run.Runner("oracle", 0, 1, 1)
    try:
        assert list(runner.end_to_end(0.1)) == [m["name"] for m in spec["end_to_end"]]
        assert sorted(runner.per_layer(1.0)) == sorted(m["name"] for m in spec["per_layer"])
        assert sorted(run.WORKLOADS) == sorted(w["name"] for w in spec["workloads"])
    finally:
        shutil.rmtree(runner.workdir)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
