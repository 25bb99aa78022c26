"""End-to-end runs of the command-line front end, in process."""

import argparse
import contextlib
import copy
import functools
import io
import json
import math
import operator
import time
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import polyshare.core
from polyshare import (
    RankVector,
    dual,
    load_rank_vector,
    principal_extension,
    save_access_structure,
    save_rank_vector,
    threshold_structure,
    uniform_matroid,
)
from polyshare.cli import build_parser, main
from polyshare.reproduce import fixture_doc
from polyshare.secret_sharing import expanded_port_doc

from generators import pm, split_fully

U23 = uniform_matroid(2, ("a", "b", "c"))


@pytest.fixture()
def u23_file(tmp_path):
    path = tmp_path / "u23.json"
    save_rank_vector(U23.rank, path)
    return str(path)


@pytest.fixture()
def middle_file(tmp_path):
    path = tmp_path / "middle.json"
    with open(path, "w") as fh:
        json.dump(fixture_doc("table2_middle.json"), fh)
    return str(path)


@pytest.fixture()
def tight_file(tmp_path, tight_pm):
    path = tmp_path / "tight.json"
    save_rank_vector(tight_pm.rank, path)
    return str(path)


@pytest.fixture()
def table1_file(tmp_path):
    path = tmp_path / "table1.json"
    with open(path, "w") as fh:
        json.dump(fixture_doc("table1.json"), fh)
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestValidate:
    def test_valid_file(self, capsys, u23_file):
        code, out, _ = run(capsys, "validate", "--in", u23_file)
        assert code == 0
        assert out.strip() == "valid"

    def test_violations_reported(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        with open(bad, "w") as fh:
            json.dump(
                {
                    "ground": ["a", "b"],
                    "mode": "int",
                    "ranks": {"a": 1, "b": 1, "a,b": 3},
                },
                fh,
            )
        code, out, _ = run(capsys, "validate", "--in", str(bad))
        assert code == 1
        assert "submodular" in out

    @pytest.mark.parametrize("mode", ["float", "int"])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_rank_is_usage_error(self, capsys, tmp_path, mode, bad):
        path = tmp_path / "nonfinite.json"
        path.write_text(
            '{"ground":["a","b"],"mode":"%s","ranks":{"a":%s,"b":1,"a,b":1}}' % (mode, bad)
        )
        for command in ("validate", "dual"):
            code, out, err = run(capsys, command, "--in", str(path))
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and "must be finite" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("ranks", ['{"a":"1","b":true,"a,b":"2"}', '{"a":1,"b":1,"a,b":false}'])
    def test_non_numeric_rank_is_usage_error(self, capsys, tmp_path, ranks):
        path = tmp_path / "strings.json"
        path.write_text('{"ground":["a","b"],"mode":"int","ranks":%s}' % ranks)
        for command in ("validate", "dual"):
            code, out, err = run(capsys, command, "--in", str(path))
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and "must be real numbers" in err
            assert "Traceback" not in err

    def test_violations_as_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        with open(bad, "w") as fh:
            json.dump(
                {
                    "ground": ["a", "b"],
                    "mode": "int",
                    "ranks": {"a": 1, "b": 1, "a,b": 3},
                },
                fh,
            )
        code, out, _ = run(capsys, "validate", "--in", str(bad), "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["valid"] is False
        assert doc["violations"][0]["kind"] == "submodular"

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", "--in", str(tmp_path / "nope.json"))
        assert code == 2
        assert "error" in err

    def test_garbage_json_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "validate", "--in", str(path))
        assert code == 2

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_argument_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate"])
        assert exc.value.code == 2


class TestPipelines:
    def test_tighten_dual_mmrv_certificate(self, capsys, tmp_path, middle_file):
        tightened = str(tmp_path / "tightened.json")
        dualized = str(tmp_path / "dualized.json")
        assert run(capsys, "tighten", "--in", middle_file, "--format", "json",
                   "--out", tightened)[0] == 0
        assert run(capsys, "dual", "--in", tightened, "--format", "json",
                   "--out", dualized)[0] == 0
        code, out, _ = run(capsys, "mmrv", "--in", dualized)
        assert code == 1  # negative certificate
        assert out.strip() == "-1"

    def test_tighten_output_matches_reference(self, capsys, tmp_path, middle_file, tight_pm):
        out_path = str(tmp_path / "tightened.json")
        run(capsys, "tighten", "--in", middle_file, "--format", "json", "--out", out_path)
        doc = read_json(out_path)
        assert doc["ranks"] == fixture_doc("table2_tight.json")["ranks"]

    def test_entropy_then_mmrv(self, capsys, tmp_path, table1_file):
        vector = str(tmp_path / "vector.json")
        code, _, _ = run(capsys, "entropy", "--in", table1_file, "--format", "json",
                         "--out", vector)
        assert code == 0
        code, out, _ = run(capsys, "mmrv", "--in", vector, "--roles", "a,b,c,d,e")
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.1084939586639172, abs=1e-12)

    @pytest.mark.parametrize("values", [[-1, 2**63], [2**63, 0], [0, -2**63 - 1]])
    def test_entropy_of_an_integer_past_int64_names_it(self, capsys, tmp_path, values):
        path = tmp_path / "wide.json"
        rows = [{"values": [v], "prob": 0.5} for v in values]
        path.write_text(json.dumps({"variables": ["x"], "rows": rows}))
        code, out, err = run(capsys, "entropy", "--in", str(path))
        bad = next(v for v in values if not -2**63 <= v < 2**63)
        assert (code, out) == (2, "")
        assert err == f"error: outcome values must be integers that fit in a 64-bit signed integer, got {bad}\n"

    def test_entropy_of_a_constant_writes_positive_zero(self, capsys, tmp_path):
        path = tmp_path / "xy.json"
        rows = [{"values": [x, 5], "prob": 0.5} for x in (0, 1)]
        path.write_text(json.dumps({"variables": ["x", "y"], "rows": rows}))
        vector = tmp_path / "vector.json"
        code, out, _ = run(capsys, "entropy", "--in", str(path), "--format", "json")
        assert code == 0 and '"y": 0.0,' in out and "-0.0" not in out
        argv = ("entropy", "--in", str(path), "--format", "json", "--out", str(vector))
        assert run(capsys, *argv)[0] == 0
        assert vector.read_text() == out

    def test_mmrv_json_payload(self, capsys, tmp_path, table1_file):
        vector = str(tmp_path / "vector.json")
        run(capsys, "entropy", "--in", table1_file, "--format", "json", "--out", vector)
        code, out, _ = run(capsys, "mmrv", "--in", vector, "--format", "json")
        doc = json.loads(out)
        assert doc["mmrv"] == pytest.approx(0.1084939586639172, abs=1e-12)

    def test_mmrv_roles_on_six_elements(self, capsys, tmp_path, middle):
        vector = tmp_path / "six.json"
        save_rank_vector(principal_extension(dual(middle), "c", 3, "f").rank, vector)
        assert run(capsys, "mmrv", "--in", str(vector), "--roles", "a,b,c,d,e") == (1, "-1\n", "")
        code, _, err = run(capsys, "mmrv", "--in", str(vector))
        assert code == 2 and "five-element" in err

    def test_bad_roles_count(self, capsys, tmp_path, table1_file):
        vector = str(tmp_path / "vector.json")
        run(capsys, "entropy", "--in", table1_file, "--format", "json", "--out", vector)
        code, _, err = run(capsys, "mmrv", "--in", vector, "--roles", "a,b")
        assert code == 2
        assert "5" in err


class TestRewriting:
    def test_split_then_output_validates(self, capsys, tmp_path):
        base = tmp_path / "base.json"
        save_rank_vector(pm({"a": 2, "b": 1, "a,b": 2}).rank, base)
        out_path = str(tmp_path / "split.json")
        code, _, _ = run(capsys, "split", "--in", str(base), "--element", "a",
                         "--alphas", "1,1", "--labels", "a1,a2",
                         "--format", "json", "--out", out_path)
        assert code == 0
        assert run(capsys, "validate", "--in", out_path)[0] == 0
        doc = read_json(out_path)
        assert doc["ground"] == ["a1", "a2", "b"]

    def test_split_with_wrong_alpha_sum(self, capsys, tmp_path):
        base = tmp_path / "base.json"
        save_rank_vector(pm({"a": 2, "b": 1, "a,b": 2}).rank, base)
        code, _, err = run(capsys, "split", "--in", str(base), "--element", "a",
                           "--alphas", "1,3", "--labels", "a1,a2")
        assert code == 2
        assert "alpha" in err

    def test_extend_appends_element(self, capsys, tmp_path, u23_file):
        out_path = str(tmp_path / "extended.json")
        code, _, _ = run(capsys, "extend", "--in", u23_file, "--element", "a",
                         "--alpha", "1", "--label", "t",
                         "--format", "json", "--out", out_path)
        assert code == 0
        doc = read_json(out_path)
        assert doc["ground"] == ["a", "b", "c", "t"]
        assert doc["ranks"]["t"] == 1


@pytest.fixture()
def u23_float_file(tmp_path):
    path = tmp_path / "u23f.json"
    save_rank_vector(RankVector(U23.ground, np.asarray(U23.values, float), "float"), path)
    return str(path)


class TestNumericArguments:
    """Non-finite and unrepresentable numbers are usage errors naming the argument."""

    def assert_refused(self, capsys, argv, name):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {name} must be finite") and "Traceback" not in err

    def test_extend_alpha_inf_on_int_file(self, capsys, u23_file):
        argv = ["extend", "--in", u23_file, "--element", "a", "--alpha", "inf", "--label", "t"]
        self.assert_refused(capsys, argv, "alpha")

    @pytest.mark.parametrize("mode", ["int", "float"])
    def test_extend_alpha_beyond_float_range(self, capsys, u23_file, u23_float_file, mode):
        path = u23_file if mode == "int" else u23_float_file
        argv = ["extend", "--in", path, "--element", "a", "--alpha", "1" + "0" * 400,
                "--label", "t"]
        self.assert_refused(capsys, argv, "alpha")

    def test_split_alphas_with_inf(self, capsys, u23_file):
        argv = ["split", "--in", u23_file, "--element", "a", "--alphas", "1,inf",
                "--labels", "a1,a2"]
        self.assert_refused(capsys, argv, "alpha2")

    def test_huge_int_alpha_is_exact_in_int_mode(self, capsys, u23_file):
        # any alpha >= f(a) gives the free extension; 2^70 must not reach int64
        argv = ["extend", "--in", u23_file, "--element", "a", "--label", "t", "--format", "table"]
        assert run(capsys, *argv, "--alpha", str(2**70)) == run(capsys, *argv, "--alpha", "1")


class TestCommaLabels:
    def test_comma_label_in_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "comma.json"
        path.write_text(json.dumps({"ground": ["a", "b", "a,b"], "mode": "int",
                                    "ranks": {"a": 1}}))
        code, out, err = run(capsys, "validate", "--in", str(path))
        assert (code, out) == (2, "")
        assert err == "error: label 'a,b' contains ',', which separates subset labels\n"

    def test_comma_label_for_extend_exits_two(self, capsys, u23_file):
        code, out, err = run(capsys, "extend", "--in", u23_file, "--element", "a",
                             "--alpha", "1", "--label", "x,y")
        assert (code, out) == (2, "")
        assert "'x,y' contains ','" in err


class TestExpand:
    def test_summary_table(self, capsys, tight_file):
        code, out, _ = run(capsys, "expand", "--in", tight_file)
        assert code == 0
        assert "elements\t175" in out
        assert "block a\t37" in out
        assert "full_rank\t89" in out

    def test_summary_json(self, capsys, tight_file):
        code, out, _ = run(capsys, "expand", "--in", tight_file, "--format", "json")
        doc = json.loads(out)
        assert doc["elements"] == 175
        assert doc["blocks"] == {"a": 37, "b": 31, "c": 31, "d": 38, "e": 38}
        assert doc["dualized"] is False

    def test_dual_summary(self, capsys, tight_file):
        code, out, _ = run(capsys, "expand", "--in", tight_file, "--dual")
        assert code == 0
        assert "dualized\tTrue" in out and out.endswith("full_rank\t86\n")

    def test_rank_query(self, capsys, tight_file, tight_pm):
        code, out, _ = run(capsys, "expand", "--in", tight_file,
                           "--query", "a:37,b:31,c:31,d:38,e:38")
        assert code == 0
        assert out.strip() == "89"

    def test_dual_rank_query(self, capsys, tight_file):
        code, out, _ = run(capsys, "expand", "--in", tight_file, "--dual",
                           "--query", "a:1", "--format", "json")
        doc = json.loads(out)
        assert doc["rank"] == 1
        assert doc["query"] == "a:1"

    def test_bad_query_is_usage_error(self, capsys, tight_file):
        code, _, err = run(capsys, "expand", "--in", tight_file, "--query", "a:99")
        assert code == 2

    def test_fractional_query_is_usage_error(self, capsys, tight_file):
        code, out, err = run(capsys, "expand", "--in", tight_file, "--query", "a:1.5")
        assert code == 2
        assert out == ""
        assert err == "error: block 'a' count must be an integer, got '1.5'\n"


class TestCircuits:
    def test_u13_circuit_listing(self, capsys, tmp_path):
        path = tmp_path / "u13.json"
        save_rank_vector(uniform_matroid(1, ("a", "b", "c")).rank, path)
        code, out, _ = run(capsys, "circuits", "--in", str(path))
        assert code == 0
        assert out.splitlines() == ["a,b", "a,c", "b,c"]

    def test_free_matroid_has_none(self, capsys, tmp_path):
        path = tmp_path / "free.json"
        save_rank_vector(uniform_matroid(2, ("a", "b")).rank, path)
        code, out, _ = run(capsys, "circuits", "--in", str(path))
        assert code == 0
        assert out.strip() == "(none)"

    def test_json_listing(self, capsys, u23_file):
        code, out, _ = run(capsys, "circuits", "--in", u23_file, "--format", "json")
        assert json.loads(out) == {"circuits": [["a", "b", "c"]]}


class TestPortCommands:
    def test_port_of_u23(self, capsys, u23_file):
        code, out, _ = run(capsys, "port", "--in", u23_file, "--secret", "a")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"participants": ["b", "c"], "minimal_qualified": [["b", "c"]]}

    def test_dual_port_of_u23(self, capsys, u23_file):
        code, out, _ = run(capsys, "port", "--in", u23_file, "--secret", "a", "--dual")
        doc = json.loads(out)
        assert doc["minimal_qualified"] == [["b"], ["c"]]

    def test_access_dual_round_trip(self, capsys, tmp_path, u23_file):
        port_file = str(tmp_path / "port.json")
        dual_file = str(tmp_path / "dualport.json")
        run(capsys, "port", "--in", u23_file, "--secret", "a", "--out", port_file)
        code, _, _ = run(capsys, "access-dual", "--in", port_file, "--out", dual_file)
        assert code == 0
        assert read_json(dual_file)["minimal_qualified"] == [["b"], ["c"]]
        code, out, _ = run(capsys, "access-dual", "--in", dual_file)
        assert json.loads(out)["minimal_qualified"] == [["b", "c"]]

    def test_expanded_port_realizes_dense_split(self, capsys, tmp_path):
        base = pm({"a": 2, "b": 2, "a,b": 3})
        base_file = tmp_path / "base.json"
        save_rank_vector(base.rank, base_file)
        port_file = str(tmp_path / "port.json")
        code, _, _ = run(capsys, "port", "--in", str(base_file), "--secret", "a_1",
                         "--expanded", "--out", port_file)
        assert code == 0
        doc = read_json(port_file)
        assert doc["port"]["expanded"]["base_file"] == "base.json"
        assert doc["port"]["expanded"]["dualized"] is False

        dense_file = tmp_path / "dense.json"
        save_rank_vector(split_fully(base, ("a", "b")).rank, dense_file)
        code, out, _ = run(capsys, "realizes", "--in", str(dense_file),
                           "--secret", "a_1", "--access", port_file)
        assert code == 0
        assert out.strip() == "realizes"

    def test_expanded_port_on_stdout_names_an_absolute_base(self, capsys, tmp_path, monkeypatch):
        """port --in base.json --expanded > sub/port.json, then read sub/port.json."""
        monkeypatch.chdir(tmp_path)
        base = pm({"a": 2, "b": 2, "a,b": 3})
        save_rank_vector(base.rank, "base.json")
        save_rank_vector(split_fully(base, ("a", "b")).rank, "dense.json")
        code, out, _ = run(capsys, "port", "--in", "base.json", "--secret", "a_1", "--expanded")
        assert code == 0
        assert json.loads(out)["port"]["expanded"]["base_file"] == str(tmp_path / "base.json")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "port.json").write_text(out)
        code, out, _ = run(capsys, "realizes", "--in", "dense.json", "--secret", "a_1",
                           "--access", "sub/port.json")
        assert (code, out) == (0, "realizes\n")
        code, out, _ = run(capsys, "access-dual", "--in", "sub/port.json")
        assert code == 0
        assert json.loads(out) == expanded_port_doc(str(tmp_path / "base.json"), True, "a_1")

    def test_expanded_access_dual_flips_the_flag(self, capsys, tmp_path):
        base_file = tmp_path / "base.json"
        save_rank_vector(pm({"a": 2, "b": 2, "a,b": 3}).rank, base_file)
        port_file = str(tmp_path / "port.json")
        run(capsys, "port", "--in", str(base_file), "--secret", "a_1", "--expanded",
            "--out", port_file)
        flipped_file = str(tmp_path / "flipped.json")
        code, _, _ = run(capsys, "access-dual", "--in", port_file, "--out", flipped_file)
        assert code == 0
        want = json.dumps(expanded_port_doc("base.json", True, "a_1"), indent=1) + "\n"
        with open(flipped_file) as fh:
            assert fh.read() == want

    @pytest.mark.parametrize("base, secret, code", [
        ("missing.json", "a_1", 2),
        ("base.json", "zz_1", 2),
        ("base.json", "a_99", 2),
        ("left.json", "a_1", 1),
    ])
    def test_expanded_access_dual_refuses_what_port_refuses(self, capsys, tmp_path, base, secret,
                                                             code):
        """A pointer to a missing or invalid base, or to an atom the base
        has not, exits as ``port --expanded`` does on it and writes no file."""
        save_rank_vector(pm({"a": 2, "b": 2, "a,b": 3}).rank, tmp_path / "base.json")
        (tmp_path / "left.json").write_text(json.dumps(fixture_doc("table2_left.json")))
        pointer = tmp_path / "pointer.json"
        pointer.write_text(json.dumps(expanded_port_doc(base, False, secret)))
        out = tmp_path / "out.json"
        assert run(capsys, "port", "--in", str(tmp_path / base), "--secret", secret,
                   "--expanded", "--out", str(out))[0] == code
        assert run(capsys, "access-dual", "--in", str(pointer), "--out", str(out))[0] == code
        assert not out.exists()

    def test_realizes_failure_prints_witness(self, capsys, tmp_path, u23_file):
        access_file = str(tmp_path / "access.json")
        with open(access_file, "w") as fh:
            json.dump({"participants": ["b", "c"],
                       "minimal_qualified": [["b"]]}, fh)
        code, out, _ = run(capsys, "realizes", "--in", u23_file,
                           "--secret", "a", "--access", access_file)
        assert code == 1
        assert "violated at" in out
        assert "b" in out

    def test_loop_secret_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "looped.json"
        save_rank_vector(pm({"a": 0, "b": 1, "a,b": 1}).rank, path)
        code, _, err = run(capsys, "port", "--in", str(path), "--secret", "a")
        assert code == 2
        assert "loop" in err


class TestSigmaCommand:
    def test_table_output_is_a_fraction(self, capsys, tight_file):
        code, out, _ = run(capsys, "sigma", "--in", tight_file, "--secret", "a")
        assert code == 0
        assert out.strip() == "38/37"

    def test_json_output_carries_both_forms(self, capsys, tight_file):
        code, out, _ = run(capsys, "sigma", "--in", tight_file, "--secret", "a",
                           "--format", "json")
        doc = json.loads(out)
        assert doc["sigma"] == "38/37"
        assert doc["value"] == pytest.approx(38 / 37)


class TestSecretIsOneLabel:
    """Every subcommand with a --secret reads it as one element label: a
    subset key, the empty key or a repeated label is an unknown label."""

    @pytest.mark.parametrize("secret", ["a,b", "", "a,a"])
    def test_non_label_secret_is_usage_error(self, capsys, tmp_path, secret):
        access = tmp_path / "access.json"
        access.write_text(json.dumps({"participants": list("bcde"), "minimal_qualified": [["b"]]}))
        extra = {"port": [], "realizes": ["--access", str(access)], "sigma": []}
        named = {name for name, sub in subcommands().items() if "--secret" in sub.format_usage()}
        assert named == set(extra)
        for name, more in extra.items():
            argv = [name, "--in", data_file("table2_tight.json"), "--secret", secret, *more]
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), name
            assert err == f"error: label {secret!r} not in ground set ('a', 'b', 'c', 'd', 'e')\n"


class TestReproduceCommand:
    def test_full_run_passes(self, capsys):
        code, out, _ = run(capsys, "reproduce")
        assert code == 0
        lines = [l for l in out.splitlines() if "PASS " in l]
        assert len(lines) == 10
        assert "FAIL" not in out

    def test_single_step(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--step", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert len(doc["steps"]) == 1

    def test_out_of_range_step(self, capsys):
        code, _, err = run(capsys, "reproduce", "--step", "11")
        assert code == 2


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, capsys, tmp_path, middle_file):
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        run(capsys, "dual", "--in", middle_file, "--format", "json", "--out", str(first))
        run(capsys, "dual", "--in", middle_file, "--format", "json", "--out", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_table_and_json_agree_on_ranks(self, capsys, u23_file):
        _, table_out, _ = run(capsys, "dual", "--in", u23_file, "--format", "table")
        _, json_out, _ = run(capsys, "dual", "--in", u23_file, "--format", "json")
        doc = json.loads(json_out)
        table = dict(line.split("\t") for line in table_out.splitlines())
        for key, value in doc["ranks"].items():
            assert table[key or "(empty)"] == str(value)


# Command sequences whose files must come back byte for byte, and verdicts on
# the data files as shipped.

def data_file(name):
    return str(resources.files("polyshare.data").joinpath(name))


def is_own_dump(path) -> bool:
    """The file is json.dumps(indent=1) of its own document and a line break."""
    text = path.read_text()
    return text == json.dumps(json.loads(text), indent=1) + "\n"


ESCAPED = ["p%", 'q"', "r\\", "sé"]


class TestRankFileAtSixteen:
    def test_dual_twice_gives_back_the_bytes(self, capsys, tmp_path):
        """U_{8,16} is tight, so dual(dual(U)) = U exactly in int mode."""
        u816 = tmp_path / "u816.json"
        save_rank_vector(uniform_matroid(8, [f"x{i}" for i in range(16)]).rank, u816)
        d1, d2 = str(tmp_path / "dual.json"), str(tmp_path / "dual2.json")
        assert run(capsys, "dual", "--in", str(u816), "--out", d1) == (0, "", "")
        assert run(capsys, "dual", "--in", d1, "--out", d2) == (0, "", "")
        assert u816.read_bytes() == (tmp_path / "dual2.json").read_bytes()


class TestEscapedLabels:
    def test_dual_twice_validate_and_own_dump(self, capsys, tmp_path):
        """Labels that JSON escapes or the writer's template doubles."""
        esc = tmp_path / "esc.json"
        save_rank_vector(uniform_matroid(2, ESCAPED).rank, esc)
        d1, d2 = str(tmp_path / "esc_dual.json"), str(tmp_path / "esc_dual2.json")
        assert run(capsys, "dual", "--in", str(esc), "--out", d1)[0] == 0
        assert run(capsys, "dual", "--in", d1, "--out", d2)[0] == 0
        assert esc.read_bytes() == (tmp_path / "esc_dual2.json").read_bytes()
        assert run(capsys, "validate", "--in", str(esc)) == (0, "valid\n", "")
        assert is_own_dump(esc)


class TestTwoGroundSets:
    def test_each_file_holds_its_own_labels(self, tmp_path):
        """Plain, escaped, then plain labels again in one process: the writer
        keeps the template of the last labels written, never another's."""
        for i, labels in enumerate((["s0", "s1", "s2", "s3"], ESCAPED, ["s0", "s1", "s2", "s3"])):
            path = tmp_path / f"two{i}.json"
            save_rank_vector(uniform_matroid(2, labels).rank, path)
            assert is_own_dump(path), labels
            assert load_rank_vector(path) == uniform_matroid(2, labels).rank, labels


class TestValidationVerdicts:
    def test_middle_column_is_valid(self, capsys):
        assert run(capsys, "validate", "--in", data_file("table2_middle.json")) == (0, "valid\n", "")

    def test_left_column_misses_two_inequalities(self, capsys):
        """By the source table's six-decimal rounding, and nothing else."""
        code, out, _ = run(capsys, "validate", "--in", data_file("table2_left.json"))
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 2
        assert all(l.startswith("submodular violated at elements=d,e subset=") for l in lines)

    def test_nan_tolerance_is_usage_error(self, capsys):
        argv = ["validate", "--in", data_file("table2_middle.json"), "--tolerance", "nan"]
        assert run(capsys, *argv)[:2] == (2, "")


class TestZeroProbabilityRows:
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_output_is_byte_identical(self, capsys, tmp_path, fmt):
        doc = fixture_doc("table1.json")
        new = [[1, 1, 1, 1, 1], [0, 0, 0, 1, 1], [1, 0, 0, 1, 0]]
        assert not any(r["values"] in new for r in doc["rows"])
        doc["rows"] += [{"values": v, "prob": 0.0} for v in new]
        zeros = tmp_path / "zeros.json"
        zeros.write_text(json.dumps(doc, indent=1))
        code, plain, _ = run(capsys, "entropy", "--in", data_file("table1.json"), "--format", fmt)
        assert code == 0
        assert run(capsys, "entropy", "--in", str(zeros), "--format", fmt) == (0, plain, "")


class TestAccessRoundTrip:
    def test_access_dual_twice_gives_back_the_port_bytes(self, capsys, tmp_path):
        p, d, p2 = (str(tmp_path / name) for name in ("p.json", "d.json", "p2.json"))
        argv = ["port", "--in", data_file("table2_tight.json"), "--secret", "a", "--out", p]
        assert run(capsys, *argv)[0] == 0
        assert run(capsys, "access-dual", "--in", p, "--out", d)[0] == 0
        assert run(capsys, "access-dual", "--in", d, "--out", p2)[0] == 0
        assert (tmp_path / "p.json").read_bytes() == (tmp_path / "p2.json").read_bytes()


class TestAccessFileAtTwenty:
    def test_threshold_file_round_trip(self, capsys, tmp_path):
        """The 10-of-20 threshold structure has C(20, 10) minimal sets."""
        t20, d20, t20b = (tmp_path / name for name in ("t20.json", "d20.json", "t20b.json"))
        save_access_structure(threshold_structure(10, [f"p{i}" for i in range(20)]), t20)
        assert run(capsys, "access-dual", "--in", str(t20), "--out", str(d20))[0] == 0
        assert run(capsys, "access-dual", "--in", str(d20), "--out", str(t20b))[0] == 0
        assert t20.read_bytes() == t20b.read_bytes()
        assert is_own_dump(t20)


class TestExpandedPortByAtoms:
    def test_atoms_realize_the_port_of_their_orientation(self, capsys, tmp_path, monkeypatch):
        """Three splits turn the base into its atoms a_1, a_2, b_1, b_2, b_3."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "base.json").write_text(
            '{"ground": ["a", "b"], "mode": "int", "ranks": {"a": 2, "b": 3, "a,b": 4}}\n')
        for argv in (
            ["split", "--in", "base.json", "--element", "a", "--alphas", "1,1",
             "--labels", "a_1,a_2", "--out", "s1.json"],
            ["split", "--in", "s1.json", "--element", "b", "--alphas", "1,2",
             "--labels", "b_1,b_r", "--out", "s2.json"],
            ["split", "--in", "s2.json", "--element", "b_r", "--alphas", "1,1",
             "--labels", "b_2,b_3", "--out", "atoms.json"],
            ["dual", "--in", "atoms.json", "--out", "atoms_dual.json"],
            ["port", "--in", "base.json", "--expanded", "--secret", "b_2", "--out", "port.json"],
            ["port", "--in", "base.json", "--expanded", "--dual", "--secret", "b_2",
             "--out", "port_dual.json"],
        ):
            assert run(capsys, *argv)[0] == 0, argv
        realizes = ["realizes", "--secret", "b_2", "--in"]
        assert run(capsys, *realizes, "atoms.json", "--access", "port.json")[:2] == (0, "realizes\n")
        assert run(capsys, *realizes, "atoms_dual.json", "--access", "port_dual.json")[:2] == \
            (0, "realizes\n")
        assert run(capsys, *realizes, "atoms_dual.json", "--access", "port.json")[0] == 1


def expand_query(capsys, dual_flag, query):
    code, out, _ = run(capsys, "expand", "--in", data_file("table2_tight.json"),
                       "--query", query, *dual_flag)
    assert code == 0
    return out


DUAL_FLAGS = pytest.mark.parametrize("dual_flag", [[], ["--dual"]], ids=["primal", "dual"])


@DUAL_FLAGS
class TestQuerySpellings:
    def test_counts_and_atom_names_agree(self, capsys, dual_flag):
        """The counts "a:2,b:1" and the atom names "a_1,a_2,b_1" spell the
        same subset."""
        counts = expand_query(capsys, dual_flag, "a:2,b:1")
        assert counts.strip()
        assert counts == expand_query(capsys, dual_flag, "a_1,a_2,b_1")


@DUAL_FLAGS
class TestEmptyAndFullAtomSets:
    def test_ranks(self, capsys, dual_flag):
        """All 175 atoms have rank h(E) = 89, in the dual 175 - 89 = 86, and
        the empty set 0 both ways: pins which row of the oracle's table holds
        h and which the element bits."""
        full = expand_query(capsys, dual_flag, "a:37,b:31,c:31,d:38,e:38")
        assert full == ("86\n" if dual_flag else "89\n")
        assert expand_query(capsys, dual_flag, "") == "0\n"


def subcommands() -> dict:
    """{name: subparser}, read from the parser itself."""
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


TOLERANT = {"validate", "port", "realizes"}
JSON_ONLY = {"port", "access-dual"}


@pytest.fixture()
def valid_args(tmp_path, u23_file, middle_file, tight_file, table1_file):
    """Arguments of one run of every subcommand that exits 0."""
    access = tmp_path / "access.json"
    access.write_text(json.dumps({"participants": ["b", "c"], "minimal_qualified": [["b", "c"]]}))
    return {
        "validate": ["--in", u23_file],
        "dual": ["--in", middle_file],
        "tighten": ["--in", middle_file],
        "entropy": ["--in", table1_file],
        "mmrv": ["--in", middle_file],
        "split": ["--in", tight_file, "--element", "a", "--alphas", "1,36", "--labels", "a1,a2"],
        "extend": ["--in", u23_file, "--element", "a", "--alpha", "1", "--label", "t"],
        "expand": ["--in", tight_file, "--query", "a:1"],
        "circuits": ["--in", u23_file],
        "port": ["--in", u23_file, "--secret", "a"],
        "access-dual": ["--in", str(access)],
        "realizes": ["--in", u23_file, "--secret", "a", "--access", str(access)],
        "sigma": ["--in", tight_file, "--secret", "a"],
        "reproduce": ["--step", "1"],
    }


class TestFlags:
    def test_tolerance_and_table_only_where_honoured(self):
        usage = {name: sub.format_usage() for name, sub in subcommands().items()}
        assert {name for name, u in usage.items() if "--tolerance" in u} == TOLERANT
        assert {name for name, u in usage.items() if "--format {json}" in u} == JSON_ONLY

    def test_every_subcommand_has_a_valid_run(self, valid_args):
        assert set(valid_args) == set(subcommands())

    @pytest.mark.parametrize("name", sorted(subcommands()))
    def test_unhonoured_flags_exit_two(self, capsys, valid_args, name):
        argv = [name, *valid_args[name]]
        assert run(capsys, *argv)[0] == 0
        if name in TOLERANT:
            assert run(capsys, *argv, "--tolerance", "1e-3")[0] == 0
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--tolerance", "1e-3"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --tolerance" in capsys.readouterr().err
        if name in JSON_ONLY:
            assert run(capsys, *argv, "--format", "json")[0] == 0
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--format", "table"])
            assert exc.value.code == 2
            assert "invalid choice: 'table'" in capsys.readouterr().err


class TestTablePath:
    @pytest.mark.parametrize("name", ["dual", "tighten", "entropy", "split", "extend"])
    def test_table_does_not_write_the_rank_file(self, capsys, monkeypatch, valid_args, name):
        """--format table prints a subset<TAB>value line per subset, and
        builds no rank file on the way."""
        argv = [name, *valid_args[name], "--format", "table"]
        expected = run(capsys, *argv)
        assert expected[0] == 0
        assert all(line.count("\t") == 1 for line in expected[1].splitlines())

        def refuse(rank):
            raise AssertionError("rank file written")

        monkeypatch.setattr(polyshare.core, "rank_document", refuse)
        assert run(capsys, *argv) == expected
        with pytest.raises(AssertionError, match="rank file written"):
            main(argv[:-2])  # the patch holds: --format json needs the rank file


class TestOutFile:
    @pytest.mark.parametrize("name", sorted(subcommands()))
    def test_out_bytes_are_the_stdout_bytes(self, capsys, tmp_path, valid_args, name):
        argv = [name, *valid_args[name]]
        code, out, _ = run(capsys, *argv)
        path = tmp_path / "out.txt"
        assert run(capsys, *argv, "--out", str(path)) == (code, "", "")
        assert path.read_bytes() == out.encode()

    def test_text_ending_in_a_line_break(self, capsys, tmp_path):
        matroid = tmp_path / "u12.json"
        save_rank_vector(uniform_matroid(1, ("a", "b\n")).rank, matroid)
        path = tmp_path / "out.txt"
        assert run(capsys, "circuits", "--in", str(matroid)) == (0, "a,b\n\n", "")
        assert run(capsys, "circuits", "--in", str(matroid), "--out", str(path))[0] == 0
        assert path.read_bytes() == b"a,b\n\n"


class TestTolerance:
    @pytest.fixture()
    def near_file(self, tmp_path):
        """f(a,b) - f(b) = 5e-4: the secret a is recovered from b within 1e-3 only."""
        path = tmp_path / "near.json"
        path.write_text(json.dumps(
            {"ground": ["a", "b"], "mode": "float", "ranks": {"a": 1.0, "b": 1.0, "a,b": 1.0005}}
        ))
        return str(path)

    def test_validate(self, capsys, tmp_path):
        path = tmp_path / "off.json"
        path.write_text(json.dumps(
            {"ground": ["a", "b"], "mode": "float", "ranks": {"a": 1.0, "b": 1.0, "a,b": 2.000001}}
        ))
        code, out, _ = run(capsys, "validate", "--in", str(path))
        assert code == 1 and "submodular" in out
        code, out, _ = run(capsys, "validate", "--in", str(path), "--tolerance", "1e-3")
        assert (code, out) == (0, "valid\n")
        # dual validates with the default tolerance and has no flag to change it
        with pytest.raises(SystemExit) as exc:
            main(["dual", "--in", str(path), "--tolerance", "1e-3"])
        assert exc.value.code == 2

    def test_port(self, capsys, near_file):
        argv = ["port", "--in", near_file, "--secret", "a"]
        code, _, err = run(capsys, *argv)
        assert code == 2 and "full participant set must be qualified" in err
        code, out, _ = run(capsys, *argv, "--tolerance", "1e-3")
        assert code == 0
        assert json.loads(out) == {"participants": ["b"], "minimal_qualified": [["b"]]}

    def test_realizes(self, capsys, tmp_path, near_file):
        access = tmp_path / "access.json"
        access.write_text(json.dumps({"participants": ["b"], "minimal_qualified": [["b"]]}))
        argv = ["realizes", "--in", near_file, "--secret", "a", "--access", str(access)]
        assert run(capsys, *argv) == (1, "violated at 'b'\n", "")
        assert run(capsys, *argv, "--tolerance", "1e-3") == (0, "realizes\n", "")

    @pytest.mark.parametrize("name", sorted(TOLERANT))
    @pytest.mark.parametrize("bad", ["-1", "nan", "inf", "-inf"])
    def test_bad_tolerance_exits_two(self, capsys, valid_args, name, bad):
        """A NaN or infinite tolerance would accept every input, a negative one
        refuse equalities: each is a usage error, before any verdict."""
        code, out, err = run(capsys, name, *valid_args[name], f"--tolerance={bad}")
        assert (code, out) == (2, "")
        assert err == f"error: tolerance must be a finite number >= 0, got {float(bad)}\n"

    @pytest.mark.parametrize("name", sorted(TOLERANT))
    def test_zero_tolerance_accepted(self, capsys, valid_args, name):
        assert run(capsys, name, *valid_args[name], "--tolerance", "0") == \
            run(capsys, name, *valid_args[name])

    @pytest.mark.parametrize("bad", ["0", "nan", "-5"])
    def test_expanded_port_refuses_tolerance(self, capsys, bad):
        """An expansion is exact, so matroid_port refuses a tolerance for it
        and the flag is a usage error, whatever its value; without it the
        output stays."""
        tight = data_file("table2_tight.json")
        argv = ["port", "--in", tight, "--secret", "a_1", "--expanded"]
        code, out, err = run(capsys, *argv, f"--tolerance={bad}")
        assert (code, out) == (2, "")
        assert err == f"error: an expansion is exact and takes no tolerance, got {float(bad)}\n"
        expected = json.dumps(expanded_port_doc(tight, False, "a_1"), indent=1) + "\n"
        assert run(capsys, *argv) == (0, expected, "")

    def test_nan_no_longer_realizes(self, capsys, tmp_path, tight_file):
        access = tmp_path / "access.json"
        access.write_text(json.dumps(
            {"participants": ["b", "c", "d", "e"], "minimal_qualified": [["b"]]}
        ))
        argv = ["realizes", "--in", tight_file, "--secret", "a", "--access", str(access)]
        assert run(capsys, *argv) == (1, "violated at 'b'\n", "")
        assert run(capsys, *argv, "--tolerance", "nan")[:2] == (2, "")


# valid, but its dual's elemental inequalities hold only up to float rounding
# (3920408.4959999993 < 3920408.496000001), beyond the default 1e-9
FLOAT_DOC = {
    "ground": ["a", "b", "c"],
    "mode": "float",
    "ranks": {"a": 993121.278, "b": 967082.97, "c": 2887735.995, "a,b": 1960204.2480000001,
              "a,c": 2887735.995, "b,c": 2887735.995, "a,b,c": 2887735.995},
}


class TestClosedOperations:
    @pytest.mark.parametrize("command", ["dual", "tighten"])
    def test_valid_float_input_is_not_rejected(self, capsys, tmp_path, command):
        path = tmp_path / "float.json"
        path.write_text(json.dumps(FLOAT_DOC))
        assert run(capsys, "validate", "--in", str(path))[0] == 0
        code, out, err = run(capsys, command, "--in", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["ground"] == ["a", "b", "c"]


class TestDenseCap:
    def test_entropy_of_21_variables_refused_at_once(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        rows = [{"values": [v] * 21, "prob": 0.5} for v in (0, 1)]
        path.write_text(json.dumps({"variables": [f"x{i}" for i in range(21)], "rows": rows}))
        start = time.perf_counter()
        code, out, err = run(capsys, "entropy", "--in", str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "capped at 20 elements" in err

    @pytest.mark.parametrize("argv", [
        ("split", "--element", "x0", "--alphas", "0,1", "--labels", "p,q"),
        ("extend", "--element", "x0", "--alpha", "1", "--label", "z"),
    ])
    def test_result_past_the_cap_refused_before_the_ranks(self, capsys, tmp_path, argv):
        """A 20-element input has no room for one more element: the ground set
        alone decides, so an empty ranks object is not reported missing."""
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"ground": [f"x{i}" for i in range(20)],
                                    "mode": "int", "ranks": {}}))
        code, out, err = run(capsys, argv[0], "--in", str(path), *argv[1:])
        assert (code, out) == (2, "")
        assert err == ("error: dense storage is capped at 20 elements (got 21); "
                       "use a lazy oracle instead\n")

    def test_access_dual_of_64_participants(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        participants = [f"p{i}" for i in range(64)]
        path.write_text(json.dumps({"participants": participants,
                                    "minimal_qualified": [["p0", "p1"]]}))
        code, out, err = run(capsys, "access-dual", "--in", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "capped at 20 elements" in err


class TestIntMode:
    def test_big_ranks_tighten_exactly(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(
            {"ground": ["a", "b"], "mode": "int",
             "ranks": {"a": 2**60 + 1, "b": 1, "a,b": 2**60 + 2}}
        ))
        # beyond 2^53: float64 would read 2^60, 1, 2^60 and tighten to 1, 1, 1
        code, out, _ = run(capsys, "tighten", "--in", str(path), "--format", "table")
        assert (code, out) == (0, "a\t0\nb\t0\na,b\t0\n")

    def test_wrapping_ranks_are_usage_error(self, capsys, tmp_path):
        path = tmp_path / "wrap.json"
        keys = ("a", "b", "c", "a,b", "a,c", "b,c", "a,b,c")
        path.write_text(json.dumps({"ground": ["a", "b", "c"], "mode": "int",
                                    "ranks": {k: 2**62 for k in keys}}))
        # int64 sums would wrap dual's pairs to -2^63, and its re-validation too
        code, out, err = run(capsys, "dual", "--in", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "could wrap" in err


# replacement values for the fuzz, one of each JSON type
SWAPS = (None, True, "x", 7, math.nan, math.inf, [], ["a"], {}, {"a": 1})


def _kind(value) -> str:
    """JSON type of a value; ints and finite floats are both numbers."""
    if isinstance(value, float) and not math.isfinite(value):
        return "non-finite"
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "number"
    return type(value).__name__


def _entries(doc, path=()):
    """(path, value) of every entry of a JSON document, the document itself first."""
    yield path, doc
    items = ()
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield from _entries(value, path + (key,))


# name: (document, commands reading it from {doc}); other paths are under {dir}
FUZZ_DOCS = {
    "table2_middle": (
        fixture_doc("table2_middle.json"),
        [["dual", "--in", "{doc}"],
         ["split", "--in", "{doc}", "--element", "a", "--alphas", "30,25", "--labels", "a1,a2"],
         ["extend", "--in", "{doc}", "--element", "a", "--alpha", "7", "--label", "x"]],
    ),
    "float ranks": (
        FLOAT_DOC,
        [["dual", "--in", "{doc}"], ["tighten", "--in", "{doc}"],
         ["split", "--in", "{doc}", "--element", "a", "--alphas", "496560.639,496560.639",
          "--labels", "a1,a2"],
         ["extend", "--in", "{doc}", "--element", "a", "--alpha", "0.5", "--label", "x"]],
    ),
    "table1": (fixture_doc("table1.json"), [["entropy", "--in", "{doc}"]]),
    "access": (
        {"participants": ["b", "c"], "minimal_qualified": [["b", "c"]]},
        [["access-dual", "--in", "{doc}"],
         ["realizes", "--in", "{dir}/u23.json", "--secret", "a", "--access", "{doc}"]],
    ),
    "expanded port": (
        expanded_port_doc("base.json", False, "a_1"),
        [["access-dual", "--in", "{doc}"],
         ["realizes", "--in", "{dir}/dense.json", "--secret", "a_1", "--access", "{doc}"]],
    ),
}


def _label_mutations():
    """A duplicate label, an empty label, and 21 labels in each label list."""
    lists = {"table2_middle": "ground", "float ranks": "ground", "table1": "variables",
             "access": "participants"}
    cases = {
        "duplicate": lambda labels: labels.append(labels[0]),
        "empty": lambda labels: labels.append(""),
        "21": lambda labels: labels.extend(f"x{i}" for i in range(21 - len(labels))),
    }
    for name, key in lists.items():
        for case, mutate in cases.items():
            yield pytest.param(name, lambda doc, k=key, m=mutate: m(doc[k]),
                               id=f"{name}-{key}-{case}")


def _ranks_mutations():
    """A dropped, an unknown and a repeated subset key in each rank vector."""
    cases = {
        "dropped": lambda ranks: ranks.popitem(),
        "unknown": lambda ranks: ranks.update({"a,z": 1}),
        "repeated": lambda ranks: ranks.update({"b,a": ranks["a,b"]}),
    }
    for name in ("table2_middle", "float ranks"):
        for case, mutate in cases.items():
            yield pytest.param(name, lambda doc, m=mutate: m(doc["ranks"]),
                               id=f"{name}-ranks-{case}")


class TestMalformedDocuments:
    @pytest.fixture(scope="class")
    def fuzz_dir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz")
        base = pm({"a": 2, "b": 2, "a,b": 3})
        save_rank_vector(U23.rank, path / "u23.json")
        save_rank_vector(base.rank, path / "base.json")
        save_rank_vector(split_fully(base, ("a", "b")).rank, path / "dense.json")
        return path

    def outcomes(self, fuzz_dir, name, doc):
        """(argv, exit code, stdout, stderr) of each command on the document."""
        (fuzz_dir / "doc.json").write_text(json.dumps(doc))
        for command in FUZZ_DOCS[name][1]:
            argv = [a.format(doc=fuzz_dir / "doc.json", dir=fuzz_dir) for a in command]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            yield argv, code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("name", sorted(FUZZ_DOCS))
    def test_unmutated_documents_run(self, fuzz_dir, name):
        for argv, code, _, err in self.outcomes(fuzz_dir, name, FUZZ_DOCS[name][0]):
            assert code == 0, (argv, err)

    def test_matroid_file_port_exits_two(self, fuzz_dir):
        """A port document names an expansion: one naming a matroid file is
        refused by both commands that read access structures."""
        doc = {"port": {"matroid_file": "u23.json", "secret": "a"}}
        for argv, code, out, err in self.outcomes(fuzz_dir, "access", doc):
            assert (code, out, err) == (2, "", "error: port spec missing 'expanded'\n"), argv

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_dropped_field_or_swapped_type_exits_two(self, fuzz_dir, data):
        name = data.draw(st.sampled_from(sorted(FUZZ_DOCS)))
        doc = copy.deepcopy(FUZZ_DOCS[name][0])
        path, value = data.draw(st.sampled_from(list(_entries(doc))))
        parent = functools.reduce(operator.getitem, path[:-1], doc)
        if path and isinstance(parent, dict) and data.draw(st.booleans()):
            assume(path[-1] != "dualized")  # the one optional field
            del parent[path[-1]]
        else:
            swap = data.draw(st.sampled_from([v for v in SWAPS if _kind(v) != _kind(value)]))
            if path:
                parent[path[-1]] = swap
            else:
                doc = swap
        self.assert_refused(fuzz_dir, name, doc)

    def assert_refused(self, fuzz_dir, name, doc):
        for argv, code, out, err in self.outcomes(fuzz_dir, name, doc):
            assert (code, out) == (2, ""), (argv, doc)
            assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("name, mutate", [*_label_mutations(), *_ranks_mutations()])
    def test_bad_labels_or_ranks_keys_exit_two(self, fuzz_dir, name, mutate):
        doc = copy.deepcopy(FUZZ_DOCS[name][0])
        mutate(doc)
        self.assert_refused(fuzz_dir, name, doc)

    @pytest.mark.parametrize("name", ["table2_middle", "float ranks", "table1"])
    def test_every_number_out_of_range_exits_two(self, fuzz_dir, name):
        """Ranks, outcome values and probabilities, each in turn set to 10**400."""
        paths = [p for p, value in _entries(FUZZ_DOCS[name][0]) if _kind(value) == "number"]
        assert paths
        for path in paths:
            doc = copy.deepcopy(FUZZ_DOCS[name][0])
            functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = 10**400
            self.assert_refused(fuzz_dir, name, doc)
