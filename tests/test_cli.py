"""Tests for the command-line front end."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from paramtc.bounds import NOTE_STRONGER, TCReport
from paramtc.cli import UsageError, execute, load_descriptor
from paramtc.planner import plan, plan_hopf
from paramtc.verify import VerificationOutcome
import paramtc.cli as cli_mod
import paramtc.verify


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


def _nested_sums(depth):
    # built as a string: json.dumps recurses as deeply as the document nests
    node = '{"op": "canonical"}'
    for _ in range(depth):
        node = '{"op": "sum", "summands": [{"op": "canonical"}, ' + node + "]}"
    return '{"base": {"family": "CPn", "n": 2}, "construction": ' + node + "}"


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

    @pytest.mark.parametrize(
        "argv, row",
        [
            (("--family", "eta-plus-eps", "--n", "1024"), "eta-plus-eps\t1024\ttc\t1026\t1026\ttrue"),
            (("--family", "eta-plus-eps", "--n", "1023"), "eta-plus-eps\t1023\ttc\t1024\t1024\ttrue"),
            (("--family", "k-eta", "--n", "1000", "--k", "3"), "k-eta\t3\t1000\tsecat\t333\t333\ttrue"),
        ],
    )
    def test_closed_forms_at_scale(self, capsys, argv, row):
        code, out, _ = run(capsys, "bounds", *argv, "--format", "tsv")
        assert code == 0
        assert out.splitlines()[1] == row

    def test_odd_n_at_scale_carries_the_stronger_note(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--family", "eta-plus-eps", "--n", "1023", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["report"]["notes"] == [NOTE_STRONGER]

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
        assert "(choose from 'k-eta', 'eta', 'eta-plus-eps')" in err

    def test_k_defaults_to_one(self, capsys):
        _, implicit, _ = run(capsys, "bounds", "--family", "k-eta", "--n", "3", "--format", "tsv")
        _, explicit, _ = run(
            capsys, "bounds", "--family", "k-eta", "--n", "3", "--k", "1", "--format", "tsv"
        )
        assert implicit == explicit
        assert implicit.splitlines()[0].split("\t")[:3] == ["family", "k", "n"]

    def test_k_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bounds", "--family", "k-eta", "--n", "3", "--k", "0")
        assert code == 1
        assert err == "error: --k must be a positive integer\n"

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

    def test_construction_depth_cap(self):
        # 63 nested sums put the innermost nodes at level 64, the deepest allowed
        assert load_descriptor(_nested_sums(63)).rank == 2 * 64  # 64 canonical lines
        with pytest.raises(UsageError, match="nest at most 64 levels"):
            load_descriptor(_nested_sums(64))

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

    def test_sections_contradicting_the_classes_rejected(self, capsys):
        # η over CP^2 has Euler class x != 0: no nowhere-zero section
        doc = '{"base": {"family": "CPn", "n": 2}, "construction": {"op": "canonical"}, "flags": {"independent_sections": 1}}'
        code, out, err = run(capsys, "bounds", "--format", "tsv", "--descriptor", doc)
        assert (code, out) == (1, "")
        assert err.startswith("error: inconsistent flags: ")

    def test_section_of_the_trivial_summand_accepted(self, capsys):
        # η⊕ε has a section already: declaring it changes no report
        reports = []
        for flags in (None, {"independent_sections": 1}):
            code, out, _ = run(capsys, "bounds", "--format", "json", "--descriptor", _descriptor(flags=flags))
            assert code == 0
            reports.append(json.loads(out)["report"])
        assert reports[0] == reports[1]


# one pair per kind of plan over the line of (0.6, 0.8i) in C^2, with the
# literal `plan --format tsv --samples 5` output (columns split at spaces)
_Z = [[0.6, 0.0], [0.0, 0.8]]
_X = {"z": _Z, "w": [[0.36, 0.0], [0.0, 0.48]], "s": 0.8}
PLAN_TSV_SAMPLES_5 = {
    "piece-0": (
        "eta-plus-eps",
        {"x": _X, "y": {"z": _Z, "w": [[0.6, 0.0], [0.0, 0.8]], "s": 0.0}},
        """\
t s w
0.000000 0.8 0.36,0;0,0.48
0.250000 0.640747439246 0.460651038071,0;0,0.614201384095
0.500000 0.4472135955 0.5366563146,0;0,0.7155417528
0.750000 0.229752920547 0.583949393681,0;0,0.778599191574
1.000000 1.66533453694e-16 0.6,0;0,0.8
""",
    ),
    # y is -x turned by 1e-5 rad in phase: piece 1, ended by a snap segment
    "piece-1-snap": (
        "eta-plus-eps",
        {"x": _X, "y": {"z": _Z, "w": [[-0.36, 6e-06], [-8e-06, -0.48]], "s": -0.8}},
        """\
t s w
0.000000 0.8 0.36,0;0,0.48
0.250000 0 0.6,0;0,0.8
0.500000 0 -0.6,0;0,-0.8
0.750000 -0.8 -0.36,0;0,-0.48
1.000000 -0.79999999996 -0.359999999982,5.9999999997e-06;-7.9999999996e-06,-0.479999999976
""",
    ),
    "pole": (
        "eta-plus-eps",
        {"x": {"z": _Z, "w": [[0.0, 0.0]] * 2, "s": 1.0}, "y": {"z": _Z, "w": [[0.0, 0.0]] * 2, "s": -1.0}},
        """\
t s w
0.000000 1 0,0;0,0
0.250000 0.707106781187 0,-0.424264068712;0.565685424949,0
0.500000 6.12323399574e-17 0,-0.6;0.8,0
0.750000 -0.707106781187 0,-0.424264068712;0.565685424949,0
1.000000 -1 0,-7.34788079488e-17;9.79717439318e-17,0
""",
    ),
    "hopf": (
        "hopf",
        {"z": _Z, "z2": [[0.0, 0.6], [-0.8, 0.0]]},
        """\
t s w
0.000000 0 0.6,0;0,0.8
0.250000 0 0.554327719507,0.229610059419;-0.306146745892,0.739103626009
0.500000 0 0.424264068712,0.424264068712;-0.565685424949,0.565685424949
0.750000 0 0.229610059419,0.554327719507;-0.739103626009,0.306146745892
1.000000 0 3.67394039744e-17,0.6;-0.8,4.89858719659e-17
""",
    ),
}

# the literal `plan --format json` piece and segment list (kind, t0, t1) of
# each path shape; piece 1 takes 3 segments for y = -x, 4 with a snap segment
_ANTIPODE = {"x": _X, "y": {"z": _Z, "w": [[-0.36, 0.0], [0.0, -0.48]], "s": -0.8}}
_THIRD, _TWO_THIRDS = 0.3333333333333333, 0.6666666666666666
PLAN_SEGMENTS = {
    "piece-0": (0, [("interpolation", 0.0, 1.0)]),
    "piece-1": (1, [
        ("interpolation", 0.0, _THIRD),
        ("phase-rotation", _THIRD, _TWO_THIRDS),
        ("interpolation", _TWO_THIRDS, 1.0),
    ]),
    "piece-1-snap": (1, [
        ("interpolation", 0.0, 0.25),
        ("phase-rotation", 0.25, 0.5),
        ("interpolation", 0.5, 0.75),
        ("interpolation", 0.75, 1.0),
    ]),
    "pole": (3, [("polar-rotation", 0.0, 1.0)]),
    "hopf": (0, [("phase-rotation", 0.0, 1.0)]),
}


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

    @pytest.mark.parametrize("kind", sorted(PLAN_TSV_SAMPLES_5))
    def test_tsv_at_five_samples(self, capsys, kind):
        family, pair, expected = PLAN_TSV_SAMPLES_5[kind]
        argv = ["plan", "--family", family, "--pair", json.dumps(pair), "--samples", "5"]
        code, out, _ = run(capsys, *argv, "--format", "tsv")
        assert code == 0
        assert out == expected.replace(" ", "\t")

    @pytest.mark.parametrize("kind", sorted(PLAN_TSV_SAMPLES_5))
    def test_json_samples_are_the_path_on_the_grid(self, capsys, kind):
        family, pair, _ = PLAN_TSV_SAMPLES_5[kind]
        argv = ["plan", "--family", family, "--pair", json.dumps(pair), "--samples", "9"]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        samples = json.loads(out)["samples"]
        planner = plan_hopf if family == "hopf" else plan
        grid = np.arange(9) / 8
        w, s = planner(*cli_mod._load_pair(json.dumps(pair), family, None)).fiber_at(grid)
        # bit for bit, signed zeros included
        assert np.array([e["t"] for e in samples]).tobytes() == grid.tobytes()
        assert np.array([e["s"] for e in samples]).tobytes() == s.tobytes()
        got_w = np.array([[complex(re, im) for re, im in e["w"]] for e in samples])
        assert got_w.tobytes() == w.tobytes()

    @pytest.mark.parametrize("kind", sorted(PLAN_SEGMENTS))
    def test_json_segments(self, capsys, kind):
        family, pair = ("eta-plus-eps", _ANTIPODE) if kind == "piece-1" else PLAN_TSV_SAMPLES_5[kind][:2]
        code, out, _ = run(capsys, "plan", "--family", family, "--pair", json.dumps(pair), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        segments = [(seg["kind"], seg["t0"], seg["t1"]) for seg in payload["segments"]]
        assert (payload["piece"], segments) == PLAN_SEGMENTS[kind]

    def test_hopf_accepts_tol_anti_zero(self, capsys):
        _, pair, _ = PLAN_TSV_SAMPLES_5["hopf"]
        argv = ["plan", "--family", "hopf", "--pair", json.dumps(pair), "--tol-anti", "0"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "piece: 0" in out


class TestVerifyCommand:
    def test_tables_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "tables", "--n-max", "4")
        assert code == 0
        assert "PASS" in out

    def test_tables_suite_runs_n_max_one(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "tables", "--n-max", "1")
        assert code == 0
        # secat of eta, TC of eta and TC of eta + eps (pinned at n + 1 = 2) over CP^1
        assert "bounds-tables(n_max=1): 3 cases, 0 failures - PASS" in out

    def test_partition_suite_small(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "partition", "--n", "1", "--trials", "50"
        )
        assert code == 0
        assert "partition(n=1)" in out

    def test_json_reports_worst_margins(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "all", "--n", "1", "--trials", "20", "--n-max", "2",
            "--format", "json",
        )
        assert code == 0
        outcomes = {o["suite"]: o for o in json.loads(out)["outcomes"]}
        assert outcomes["partition(n=1)"]["worst"] == {}
        worst = outcomes["paths(n=1)"]["worst"]
        assert sorted(worst) == ["base-line drift", "continuity", "endpoint", "normalization"]
        assert 0.0 < worst["continuity"] < 2 * math.pi + 2

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
        monkeypatch.setattr(paramtc.verify, "check_bounds_tables", lambda n_max: failing)
        code, out, _ = run(capsys, "verify", "--suite", "tables")
        assert code == 2
        assert "FAIL" in out


# `paramtc table --format tsv` at n_max = 5, one space per tab
TABLE_TSV_N_MAX_5 = {
    "k-eta": """\
n k secat
1 1 1
1 2 0
1 3 0
1 4 0
1 5 0
2 1 2
2 2 1
2 3 0
2 4 0
2 5 0
3 1 3
3 2 1
3 3 1
3 4 0
3 5 0
4 1 4
4 2 2
4 3 1
4 4 1
4 5 0
5 1 5
5 2 2
5 3 1
5 4 1
5 5 1
""",
    "eta": """\
n lower upper exact
1 1 1 true
2 1 1 true
3 1 1 true
4 1 1 true
5 1 1 true
""",
    # odd n: R5 pins n + 1, inside the stated interval [n + 1, n + 2]
    "eta-plus-eps": """\
n lower upper exact
1 2 2 true
2 4 4 true
3 4 4 true
4 6 6 true
5 6 6 true
""",
}


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

    @pytest.mark.parametrize("family", sorted(TABLE_TSV_N_MAX_5))
    def test_tsv_at_n_max_5(self, capsys, family):
        code, out, _ = run(capsys, "table", "--family", family, "--n-max", "5", "--format", "tsv")
        assert code == 0
        assert out == TABLE_TSV_N_MAX_5[family].replace(" ", "\t")


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


def _antipodes(c, s):
    """x = (c z, s) and its exact antipode, z the line of (0.6, 0.8i)."""
    x = {"z": _Z, "w": [[0.6 * c, 0.0], [0.0, 0.8 * c]], "s": s}
    y = {"z": _Z, "w": [[-0.6 * c, 0.0], [0.0, -0.8 * c]], "s": -s}
    return json.dumps({"x": x, "y": y})


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
    # fiber_inner of these exact antipodes rounds above -1: at tol 0 the pair
    # counts as piece 0, and its geodesic leaves the line of z
    "tol-anti-zero": ["plan", "--pair", _antipodes(0.7, math.sqrt(1 - 0.7 * 0.7)), "--tol-anti", "0"],
    "tol-anti-below-floor": ["plan", "--pair", _pair_with(), "--tol-anti", "1e-11"],
    "bool-n": ["bounds", "--descriptor", _descriptor(base_n=True)],
    "bool-rank": ["bounds", "--descriptor", _descriptor(rank=True)],
    "bool-sections": ["bounds", "--descriptor", _descriptor(flags={"independent_sections": True})],
    "verify-samples-1": ["verify", "--suite", "paths", "--samples", "1"],
    # --samples caps: refused before any suite or plan runs, so huge values cost nothing
    "plan-samples-1e9": ["plan", "--pair", _pair_with(), "--samples", str(10**9)],
    "verify-all-samples-1e9": ["verify", "--samples", str(10**9)],
    "verify-negative-n": ["verify", "--suite", "paths", "--n", "-1"],
    "verify-n-0-partition": ["verify", "--suite", "partition", "--n", "0"],
    "verify-n-0-all": ["verify", "--n", "0"],
    "verify-n-max-0": ["verify", "--suite", "oracle", "--n-max", "0"],
    "verify-n-max-negative": ["verify", "--suite", "oracle", "--n-max", "-3"],
    "verify-trials-negative": ["verify", "--suite", "partition", "--n", "1", "--trials", "-5"],
    "bounds-k-with-eta": ["bounds", "--family", "eta", "--n", "2", "--k", "1"],
    "bounds-k-with-eta-plus-eps": ["bounds", "--family", "eta-plus-eps", "--n", "2", "--k", "9"],
    "bounds-n-with-descriptor": ["bounds", "--descriptor", _descriptor(), "--n", "7"],
    "bounds-k-with-descriptor": ["bounds", "--descriptor", _descriptor(), "--k", "4"],
    "descriptor-sum-600": ["bounds", "--descriptor", _nested_sums(600)],
    "descriptor-sum-1500": ["bounds", "--descriptor", _nested_sums(1500)],
    "pair-nested-2000": ["plan", "--pair", '{"x": ' + "[" * 2000 + "]" * 2000 + "}"],
    # sections that contradict the classes are inconsistent flags: η over CP^1
    # has Euler class x != 0, η⊕ε over CP^2 has w_2 = x above degree 3 - 2
    "bounds-conflicting-exact": [
        "bounds", "--quantity", "secat", "--descriptor",
        '{"base": {"family": "CPn", "n": 1}, "construction": {"op": "canonical"}, "flags": {"independent_sections": 2}}',
    ],
    "bounds-empty-interval": ["bounds", "--descriptor", _descriptor(2, 1, {"independent_sections": 2})],
    # the bound engine refuses this bundle: rank below 2
    "bounds-rank-1": ["bounds", "--descriptor", '{"base": {"family": "point"}, "construction": {"op": "trivial", "rank": 1}}'],
}


@pytest.mark.parametrize("probe", sorted(BAD_INPUT_PROBES))
def test_bad_input_is_usage_error(capsys, probe):
    code, out, err = run(capsys, *BAD_INPUT_PROBES[probe])
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert out == ""  # refused before any suite or plan ran


@pytest.mark.parametrize(
    "argv, cap",
    [
        (["plan", "--pair", _pair_with(), "--format", "json"], cli_mod.MAX_PLAN_SAMPLES),
        (["verify", "--suite", "paths", "--n", "0", "--trials", "2"], cli_mod.MAX_VERIFY_SAMPLES),
    ],
    ids=["plan", "verify"],
)
def test_samples_cap_is_accepted_and_named(capsys, argv, cap):
    code, _, _ = run(capsys, *argv, "--samples", str(cap))
    assert code == 0
    code, out, err = run(capsys, *argv, "--samples", str(cap + 1))
    assert (code, out, err) == (1, "", f"error: --samples must be at most {cap}\n")


def test_verify_paths_accepts_n_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "paths", "--n", "0", "--trials", "5")
    assert code == 0
    assert "paths(n=0)" in out


def test_verify_trials_zero_runs_the_boundary_pairs(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "partition", "--n", "2", "--trials", "0")
    assert code == 0
    # 12 boundary pairs, the coverage check and the cross-fiber check
    assert "partition(n=2): 14 cases, 0 failures - PASS" in out


def test_verify_oracle_suite_at_n_max_10(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--n-max", "10", "--format", "json")
    assert code == 0
    (outcome,) = json.loads(out)["outcomes"]
    assert outcome["passed"] is True
    assert outcome["cases"] == 4825


def test_closed_pipe_exits_1_without_traceback():
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody will read what the child writes
    try:
        result = subprocess.run(
            [sys.executable, "-m", "paramtc.cli", "bounds", "--family", "eta", "--n", "3", "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=path),
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert "Exception ignored" not in result.stderr


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


def _near_antipodes(angle=0.3, gap=0.1):
    """x = (cos a, sin a) in the fiber over [1 : 0] and y a `gap` short of its antipode."""
    z = [[1.0, 0.0], [0.0, 0.0]]
    x = {"z": z, "w": [[math.cos(angle), 0.0], [0.0, 0.0]], "s": math.sin(angle)}
    b = angle + math.pi - gap
    y = {"z": z, "w": [[math.cos(b), 0.0], [0.0, 0.0]], "s": math.sin(b)}
    return json.dumps({"x": x, "y": y})


def test_shared_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    assert cli_mod._build_parser() is cli_mod._build_parser()
    near = _near_antipodes()
    argvs = [
        ["bounds", "--family", "eta-plus-eps", "--n", "4", "--format", "json"],
        ["bounds", "--family", "no-such-family", "--n", "2"],
        # piece 1 at --tol-anti 0.5; the default tolerance must come back after it
        ["plan", "--pair", near, "--tol-anti", "0.5", "--format", "json"],
        ["plan", "--n", "1"],
        ["plan", "--pair", near, "--format", "json"],
        ["verify", "--suite", "tables", "--n-max", "3"],
        ["verify", "--suite", "paths", "--samples", "1"],
        ["table", "--family", "k-eta", "--n-max", "4", "--format", "tsv"],
        ["--help"],
        ["plan", "--help"],
        ["bounds", "--family", "k-eta", "--n", "5", "--k", "2"],
        ["plan", "--pair", near, "--tol-cell", "0.5", "--format", "tsv"],
    ]

    def transcript():
        return [run(capsys, *argv) for argv in argvs]

    shared = transcript()
    assert [code for code, _, _ in shared] == [0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0]
    assert json.loads(shared[2][1])["piece"] != json.loads(shared[4][1])["piece"]
    assert transcript() == shared
    monkeypatch.setattr(cli_mod, "_build_parser", cli_mod._build_parser.__wrapped__)
    assert transcript() == shared
