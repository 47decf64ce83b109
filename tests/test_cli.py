"""Tests for the command-line front end."""

from __future__ import annotations

import json
import math

import pytest

from paramtc.bounds import TCReport
from paramtc.cli import UsageError, execute, load_descriptor
from paramtc.verify import VerificationOutcome
import paramtc.cli as cli_mod


def run(capsys, *argv):
    code = execute(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SPLIT_DESCRIPTOR = """
{
  "base": {"family": "CPn", "n": 2},
  "construction": {
    "op": "sum",
    "summands": [{"op": "canonical"}, {"op": "trivial", "rank": 1}]
  }
}
"""


def _pair_json(n=2):
    z = [[1.0, 0.0]] + [[0.0, 0.0]] * n
    x = {"z": z, "w": [[0.6, 0.0]] + [[0.0, 0.0]] * n, "s": 0.8}
    return json.dumps({"x": x, "y": x})


class TestBounds:
    def test_k_eta_human(self, capsys):
        code, out, _ = run(capsys, "bounds", "--family", "k-eta", "--n", "5", "--k", "2")
        assert code == 0
        assert "value = 2 (exact)" in out
        assert "dimension-equality" in out

    def test_eta_plus_eps_even_n(self, capsys):
        code, out, _ = run(capsys, "bounds", "--family", "eta-plus-eps", "--n", "2")
        assert code == 0
        assert "value = 4 (exact)" in out
        assert "[R3]" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--family", "eta-plus-eps", "--n", "4", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        report = TCReport.from_dict(payload["report"])
        assert report.exact and report.lower == 6
        assert report.to_dict() == payload["report"]

    def test_tsv(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--family", "eta", "--n", "3", "--format", "tsv"
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.split("\t")[-3:] == ["lower", "upper", "exact"]
        assert row.split("\t")[-3:] == ["1", "1", "true"]

    def test_descriptor_file(self, capsys, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text(SPLIT_DESCRIPTOR)
        code, out, _ = run(capsys, "bounds", "--descriptor", str(path), "--format", "json")
        assert code == 0
        report = TCReport.from_dict(json.loads(out)["report"])
        assert report.exact and report.lower == 4

    def test_secat_quantity_for_descriptor(self, capsys, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text(SPLIT_DESCRIPTOR)
        code, out, _ = run(
            capsys, "bounds", "--descriptor", str(path), "--quantity", "secat", "--format", "json"
        )
        assert code == 0
        report = TCReport.from_dict(json.loads(out)["report"])
        assert report.exact and report.lower == 0

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bounds", "--family", "moebius", "--n", "1")
        assert code == 1
        assert "error:" in err

    def test_missing_n_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bounds", "--family", "eta")
        assert code == 1
        assert "--n" in err

    def test_family_and_descriptor_conflict(self, capsys):
        code, _, err = run(
            capsys, "bounds", "--family", "eta", "--n", "1", "--descriptor", "x.json"
        )
        assert code == 1
        assert "exactly one" in err


class TestDescriptorLoading:
    def test_unknown_keys_rejected(self):
        with pytest.raises(UsageError, match="unknown keys"):
            load_descriptor('{"base": {"family": "point"}, "construction": {"op": "trivial"}, "extra": 1}')

    def test_unknown_op_rejected(self):
        with pytest.raises(UsageError, match="construction op"):
            load_descriptor('{"base": {"family": "point"}, "construction": {"op": "pullback"}}')

    def test_malformed_json_rejected(self):
        with pytest.raises(UsageError, match="malformed"):
            load_descriptor("{not json")

    def test_missing_file_rejected(self):
        with pytest.raises(UsageError, match="not found"):
            load_descriptor("/nonexistent/descriptor.json")

    def test_flags_apply(self):
        doc = """
        {
          "base": {"family": "CPn", "n": 1},
          "construction": {"op": "sum",
                           "summands": [{"op": "trivial", "rank": 2},
                                        {"op": "trivial", "rank": 2}]},
          "flags": {"complex_structure": true}
        }
        """
        bundle = load_descriptor(doc)
        assert bundle.has_complex_structure
        assert bundle.rank == 4

    def test_inconsistent_flags_rejected(self):
        doc = """
        {
          "base": {"family": "CPn", "n": 1},
          "construction": {"op": "trivial", "rank": 3},
          "flags": {"complex_structure": true}
        }
        """
        with pytest.raises(UsageError, match="inconsistent flags"):
            load_descriptor(doc)


class TestPlan:
    def test_equal_endpoints_inline(self, capsys):
        code, out, _ = run(capsys, "plan", "--family", "eta-plus-eps", "--n", "2", "--pair", _pair_json())
        assert code == 0
        assert "piece: 0" in out
        assert "interpolation" in out

    def test_json_samples(self, capsys):
        code, out, _ = run(
            capsys,
            "plan", "--n", "2", "--pair", _pair_json(), "--format", "json", "--samples", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["piece"] == 0
        assert len(payload["samples"]) == 3
        assert payload["samples"][0]["s"] == pytest.approx(0.8)

    def test_pair_from_file(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(_pair_json())
        code, out, _ = run(capsys, "plan", "--pair", str(path))
        assert code == 0
        assert "piece: 0" in out

    def test_hopf_family(self, capsys):
        c = 1 / math.sqrt(2)
        pair = json.dumps(
            {"z": [[c, 0.0], [0.0, c]], "z2": [[0.0, c], [-c, 0.0]]}
        )
        code, out, _ = run(capsys, "plan", "--family", "hopf", "--pair", pair, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["segments"][0]["kind"] == "phase-rotation"

    def test_invalid_point_rejected(self, capsys):
        bad = json.dumps(
            {
                "x": {"z": [[1.0, 0.0]], "w": [[0.5, 0.0]], "s": 0.5},
                "y": {"z": [[1.0, 0.0]], "w": [[0.0, 0.0]], "s": 1.0},
            }
        )
        code, _, err = run(capsys, "plan", "--pair", bad)
        assert code == 1
        assert "invalid pair.x" in err

    def test_cross_fiber_pair_rejected(self, capsys):
        bad = json.dumps(
            {
                "x": {"z": [[1.0, 0.0], [0.0, 0.0]], "w": [[1.0, 0.0], [0.0, 0.0]], "s": 0.0},
                "y": {"z": [[0.0, 0.0], [1.0, 0.0]], "w": [[0.0, 0.0], [1.0, 0.0]], "s": 0.0},
            }
        )
        code, _, err = run(capsys, "plan", "--pair", bad)
        assert code == 1
        assert "cannot plan" in err

    def test_dimension_mismatch_rejected(self, capsys):
        code, _, err = run(capsys, "plan", "--n", "3", "--pair", _pair_json(n=2))
        assert code == 1
        assert "C^4" in err


class TestVerifyCommand:
    def test_tables_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "tables", "--n-max", "4")
        assert code == 0
        assert "PASS" in out

    def test_partition_suite_small(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "partition", "--n", "1", "--trials", "50"
        )
        assert code == 0
        assert "partition(n=1)" in out

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PARAMTC_SEED", "911")
        code, out, _ = run(
            capsys, "verify", "--suite", "partition", "--n", "1", "--trials", "20"
        )
        assert code == 0
        assert "seed: 911" in out

    def test_explicit_seed_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PARAMTC_SEED", "911")
        code, out, _ = run(
            capsys,
            "verify", "--suite", "partition", "--n", "1", "--trials", "20", "--seed", "7",
        )
        assert code == 0
        assert "seed: 7" in out

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("PARAMTC_SEED", "not-a-number")
        code, _, err = run(capsys, "verify", "--suite", "tables")
        assert code == 1
        assert "PARAMTC_SEED" in err

    def test_failures_exit_two(self, capsys, monkeypatch):
        failing = VerificationOutcome("tables")
        failing.cases = 1
        failing.record("x", "pinned value", 0)
        monkeypatch.setattr(cli_mod.verify_mod, "check_bounds_tables", lambda n_max: failing)
        code, out, _ = run(capsys, "verify", "--suite", "tables")
        assert code == 2
        assert "FAIL" in out


class TestTable:
    def test_tsv_shape(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "k-eta", "--n-max", "3", "--format", "tsv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n\tk\tsecat"
        assert len(lines) == 1 + 9

    def test_floor_values(self, capsys):
        _, out, _ = run(capsys, "table", "--family", "k-eta", "--n-max", "4", "--format", "json")
        for cell in json.loads(out):
            assert int(cell["secat"]) == int(cell["n"]) // int(cell["k"])

    def test_byte_identical_runs(self, capsys):
        _, first, _ = run(capsys, "table", "--family", "eta-plus-eps", "--n-max", "8")
        _, second, _ = run(capsys, "table", "--family", "eta-plus-eps", "--n-max", "8")
        assert first == second

    def test_eta_rows_exact_one(self, capsys):
        _, out, _ = run(capsys, "table", "--family", "eta", "--n-max", "5", "--format", "json")
        for cell in json.loads(out):
            assert cell["lower"] == "1" and cell["exact"] == "true"


def _descriptor(base_n=2, rank=1, flags=None):
    doc = {
        "base": {"family": "CPn", "n": base_n},
        "construction": {"op": "sum", "summands": [{"op": "canonical"}, {"op": "trivial", "rank": rank}]},
    }
    if flags is not None:
        doc["flags"] = flags
    return json.dumps(doc)


def _pair_with(**changes):
    x = {"z": [[1.0, 0.0], [0.0, 0.0]], "w": [[0.6, 0.0], [0.0, 0.0]], "s": 0.8}
    x.update(changes)
    return json.dumps({"x": x, "y": x})


# every probe is bad input that must be refused with exit 1, never a traceback
BAD_INPUT_PROBES = {
    "nan-in-w": ["plan", "--pair", _pair_with(w=[[math.nan, 0.0], [0.0, 0.0]])],
    "nan-s": ["plan", "--pair", _pair_with(s=math.nan)],
    "hopf-nan": ["plan", "--family", "hopf", "--pair", '{"z": [[1, 0], [0, 0]], "z2": [[NaN, 0], [0, 0]]}'],
    "string-entry": ["plan", "--pair", _pair_with(w=[["abc", 0.0], [0.0, 0.0]])],
    "null-entry": ["plan", "--pair", _pair_with(w=[[None, 0.0], [0.0, 0.0]])],
    "bool-entry": ["plan", "--pair", _pair_with(w=[[True, 0.0], [0.0, 0.0]], s=0.0)],
    "string-s": ["plan", "--pair", _pair_with(s="0.8")],
    "huge-int-entry": ["plan", "--pair", _pair_with(w=[[10**400, 0], [0, 0]])],
    "over-long-int": ["plan", "--pair", '{"x": ' + "1" * 5000 + "}"],
    "tol-anti-nan": ["plan", "--pair", _pair_with(), "--tol-anti", "nan"],
    "tol-cell-nan": ["plan", "--pair", _pair_with(), "--tol-cell", "nan"],
    "tol-anti-inf": ["plan", "--pair", _pair_with(), "--tol-anti", "inf"],
    "tol-cell-negative": ["plan", "--pair", _pair_with(), "--tol-cell", "-1e-10"],
    "tol-anti-one": ["plan", "--pair", _pair_with(), "--tol-anti", "1"],
    "bool-n": ["bounds", "--descriptor", _descriptor(base_n=True)],
    "bool-rank": ["bounds", "--descriptor", _descriptor(rank=True)],
    "bool-sections": ["bounds", "--descriptor", _descriptor(flags={"independent_sections": True})],
    "verify-samples-1": ["verify", "--suite", "paths", "--samples", "1"],
    "verify-negative-n": ["verify", "--suite", "paths", "--n", "-1"],
    "verify-n-0-partition": ["verify", "--suite", "partition", "--n", "0"],
    "verify-n-0-all": ["verify", "--n", "0"],
}


@pytest.mark.parametrize("probe", sorted(BAD_INPUT_PROBES))
def test_bad_input_is_usage_error(capsys, probe):
    code, out, err = run(capsys, *BAD_INPUT_PROBES[probe])
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert out == ""  # refused before any suite or plan ran


def test_verify_paths_accepts_n_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "paths", "--n", "0", "--trials", "5")
    assert code == 0
    assert "paths(n=0)" in out


class TestParsing:
    def test_no_command_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "table", "--family", "k-eta", "--frobnicate")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "bounds" in out
