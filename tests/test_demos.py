"""Every walkthrough in demos/ runs in process, as ``python demos/<name>.py``
would run it, so a library change that breaks a demo fails here, and prints
the same bytes in two processes with different hash seeds."""

import json
import os
import pathlib
import runpy
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
SCRIPTS = sorted(DEMOS.glob("*.py"))

# runs each demo named on the command line and prints {name: its stdout} as JSON
RUN_ALL = """
import contextlib, io, json, runpy, sys
outputs = {}
for path in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        runpy.run_path(path, run_name="__main__")
    outputs[path] = out.getvalue()
print(json.dumps(outputs))
"""


def run_demo(path, capsys) -> str:
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr()
    assert out.err == ""
    return out.out


def test_demos_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    assert run_demo(path, capsys)


def test_mmrv_demo_prints_the_expression(capsys):
    lines = run_demo(DEMOS / "non_shannon_certificate.py", capsys).splitlines()
    assert "  I(a,b|c) + I(b,c|a) + I(c,a|b) + I(b,c|d) + I(b,c|e) + I(d,e) - I(b,c)" in lines


def test_demos_print_the_same_bytes_under_two_hash_seeds():
    """One fresh process per seed runs all the demos; set and dict orders
    that follow string hashes would print differently."""
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run([sys.executable, "-c", RUN_ALL, *map(str, SCRIPTS)],
                              capture_output=True, env=env, check=True)
        outputs.append(json.loads(done.stdout))
    first, second = outputs
    assert sorted(first) == sorted(map(str, SCRIPTS))
    for path in first:
        assert first[path] == second[path], path
