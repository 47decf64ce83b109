"""``paramtc plan`` output against a reference built the plain way.

The CLI writes its three formats straight from the checked sample arrays;
``references.render_plan`` builds them from ``PlannedPath.sample``'s points,
a dict per sample and ``json.dumps``.  Their stdout must be byte-identical
over a corpus of every piece, circle-bundle pairs and pairs just inside a
tolerance, and the JSON template must equal ``json.dumps`` on any finite
floats.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramtc.cli import MAX_PLAN_SAMPLES, PLAN_SLICE, _load_pair, _render_plan, _render_plan_json, execute
from paramtc.planner import BundlePoint, PlannedPath, ProjectiveRep, plan, plan_hopf
from references import boundary_pairs, plan_json, random_pair, render_plan

FORMATS = ("json", "tsv", "human")


def _vector_json(v) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in v]


def _point_json(p: BundlePoint) -> dict:
    return {"z": _vector_json(p.z.z), "w": _vector_json(p.w), "s": p.s}


def _pair_json(x: BundlePoint, y: BundlePoint) -> str:
    return json.dumps({"x": _point_json(x), "y": _point_json(y)})


def _sphere_cases():
    """(id, family, pair JSON, tolerances, expected piece), every piece for n = 1 ... 4 first."""
    cases = []
    for n in range(1, 5):
        for i, (x, y, piece) in enumerate(boundary_pairs(n)):
            cases.append((f"n{n}-boundary{i}-piece{piece}", "eta-plus-eps", _pair_json(x, y), {}, piece))
        rng = np.random.default_rng(n)
        for i in range(2):
            cases.append((f"n{n}-random{i}", "eta-plus-eps", _pair_json(*random_pair(rng, n)), {}, None))
    tol = 1e-6
    tols = {"tol_anti": tol}
    z = ProjectiveRep.normalized([0.6, 0.8j, 0.3 - 0.1j])
    p = np.array([0.6 * math.cos(0.7), 0.6 * math.sin(0.7), 0.8])  # x off the poles, as a unit vector of C + R
    v = np.array([-math.sin(0.7), math.cos(0.7), 0.0])  # a unit vector orthogonal to p
    x = BundlePoint.from_fiber(z, complex(p[0], p[1]), p[2])
    # y at angle gap from -x, with 1 - cos(gap) about gap^2 / 2: just inside piece 1, then just inside piece 0
    for side, piece in ((0.99, 1), (1.01, 0)):
        gap = math.sqrt(2 * side * tol)
        q = -math.cos(gap) * p + math.sin(gap) * v
        y = BundlePoint.from_fiber(z, complex(q[0], q[1]), q[2])
        cases.append((f"tol-anti-{side}-piece{piece}", "eta-plus-eps", _pair_json(x, y), tols, piece))
    # |xw| just under tol_anti is a pole pair, just over it piece 1
    for side, piece in ((0.99, 4), (1.01, 1)):
        r = side * tol
        x = BundlePoint.from_fiber(z, r, math.sqrt(1.0 - r * r))
        pair = _pair_json(x, x.antipode())
        cases.append((f"tol-anti-pole-{side}-piece{piece}", "eta-plus-eps", pair, tols, piece))
    # a last coordinate just over tol_cell puts a pole pair on the top cell, just under it on the cell below
    tol_cell = 1e-6
    for side, piece in ((1.01, 3), (0.99, 2)):
        zc = ProjectiveRep.normalized([0.6 + 0.8j, side * tol_cell * complex(math.cos(0.3), math.sin(0.3))])
        down = BundlePoint.section_point(zc, -1)
        pair = _pair_json(down, down.antipode())
        cases.append((f"tol-cell-{side}-piece{piece}", "eta-plus-eps", pair, {"tol_cell": tol_cell}, piece))
    return cases


def _hopf_cases():
    z = np.array([0.6, 0.8j, 0.0])

    def turn(a: float) -> str:
        return json.dumps({"z": _vector_json(z), "z2": _vector_json(complex(math.cos(a), math.sin(a)) * z)})

    tol = 1e-6
    delta = lambda side: math.acos(1.0 - side * tol)  # noqa: E731
    return [
        ("hopf-piece0", "hopf", turn(2.0), {}, 0),
        ("hopf-piece1", "hopf", turn(math.pi), {}, 1),
        ("hopf-tol-anti-0.99-piece1", "hopf", turn(math.pi - delta(0.99)), {"tol_anti": tol}, 1),
        ("hopf-tol-anti-1.01-piece0", "hopf", turn(math.pi - delta(1.01)), {"tol_anti": tol}, 0),
    ]


CASES = {case[0]: case[1:] for case in _sphere_cases() + _hopf_cases()}


def _assert_stdout_matches(capsys, case: str, samples: int) -> None:
    family, pair, tols, piece = CASES[case]
    path = (plan_hopf if family == "hopf" else plan)(*_load_pair(pair, family, None), **tols)
    flags = [arg for name, tol in tols.items() for arg in ("--" + name.replace("_", "-"), repr(tol))]
    if piece is not None:
        assert path.piece == piece
    for fmt in FORMATS:
        argv = ["plan", "--family", family, "--pair", pair, "--samples", str(samples), "--format", fmt, *flags]
        code = execute(argv)
        out = capsys.readouterr().out
        assert code == 0
        expected = render_plan(path, samples, fmt)
        if out != expected:  # name the first differing line: pytest's diff of two long outputs takes minutes
            got, want = out.splitlines(), expected.splitlines()
            i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
            pytest.fail(f"{fmt} at {samples} samples, line {i}: {got[i : i + 1]} != {want[i : i + 1]}")


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_the_reference(capsys, case):
    for samples in (2, 3, 9):
        _assert_stdout_matches(capsys, case, samples)


def test_corpus_covers_every_piece():
    assert {piece for family, _, _, piece in CASES.values() if family == "hopf"} == {0, 1}
    for n in range(1, 5):
        got = {CASES[case][3] for case in CASES if case.startswith(f"n{n}-boundary")}
        assert got == set(range(n + 3))


def test_stdout_matches_the_reference_at_the_cap(capsys):
    _assert_stdout_matches(capsys, "n2-boundary7-piece1", MAX_PLAN_SAMPLES)


@pytest.mark.parametrize("fmt", FORMATS)
def test_samples_are_written_in_slices(fmt):
    path = plan(*_load_pair(CASES["n2-boundary7-piece1"][1], "eta-plus-eps", None))
    count = 2 * PLAN_SLICE + 3
    slices = list(_render_plan(fmt, path, *path._checked_samples(count)))
    marker = '"t": ' if fmt == "json" else "\nt=" if fmt == "human" else "\n"
    per_slice = [text.count(marker) for text in slices]
    assert max(per_slice) <= PLAN_SLICE and sum(per_slice) == count
    assert "".join(slices) + "\n" == render_plan(path, count, fmt)


def test_a_sample_failing_in_the_last_slice_leaves_stdout_empty(capsys, monkeypatch):
    fiber_at = PlannedPath.fiber_at

    def nan_height(path, t):
        w, s = fiber_at(path, t)
        s[-1] = math.nan
        return w, s

    monkeypatch.setattr(PlannedPath, "fiber_at", nan_height)
    pair = CASES["n2-boundary7-piece1"][1]
    for fmt in FORMATS:
        code = execute(["plan", "--pair", pair, "--samples", str(2 * PLAN_SLICE + 1), "--format", fmt])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: cannot plan this pair: s must be finite, got nan\n"


# -- the JSON template on any finite floats --------------------------------------

_SPECIAL = [-0.0, 0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308]
_FLOATS = st.sampled_from(_SPECIAL + [-v for v in _SPECIAL]) | st.floats(allow_nan=False, allow_infinity=False)
_KINDS = ("interpolation", "phase-rotation", "polar-rotation")


def _assert_template_matches(piece: int, kinds: tuple[str, ...], t: list[float], s: list[float], w: list[list[float]]):
    m = len(kinds)
    breakpoints = tuple(i / m for i in range(m)) + (1.0,)
    samples = [
        {"t": ti, "s": si, "w": [wi[j : j + 2] for j in range(0, len(wi), 2)]} for ti, si, wi in zip(t, s, w)
    ]
    got = "".join(_render_plan_json(piece, kinds, breakpoints, np.array(t), np.array(w).view(complex), np.array(s)))
    assert got == plan_json(piece, kinds, breakpoints, samples)


@st.composite
def _payloads(draw):
    count, dim = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    floats = lambda size: draw(st.lists(_FLOATS, min_size=size, max_size=size))  # noqa: E731
    return (
        draw(st.integers(0, 66)),
        tuple(draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=3))),
        floats(count),
        floats(count),
        [floats(2 * dim) for _ in range(count)],
    )


@settings(max_examples=200, deadline=None)
@given(_payloads())
def test_json_template_matches_json_dumps(payload):
    _assert_template_matches(*payload)


@pytest.mark.parametrize("value", _SPECIAL + [-v for v in _SPECIAL])
def test_json_template_writes_each_special_float_in_every_slot(value):
    _assert_template_matches(1, _KINDS, [value, value], [value, value], [[value, value, value, value]] * 2)
