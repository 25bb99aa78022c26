"""Every walkthrough in demos/ runs in process, as ``python demos/<name>.py``
would run it, so a library change that breaks a demo fails here."""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SCRIPTS = sorted(DEMOS.glob("*.py"))


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
