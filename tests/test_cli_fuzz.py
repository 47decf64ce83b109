"""Property tests for the command-line edge: random descriptor and pair documents.

Every invocation runs ``execute`` in-process.  Whatever the document holds,
no exception may escape, the exit code is 0, 1 or 2, stderr holds no
traceback and every number in a JSON stdout is finite.  Well-formed pairs
with in-range options must plan (exit 0).
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from paramtc.cli import UsageError, _complex_vector_from_json, execute
from paramtc.planner import TOL_ANTI_MIN
from references import complex_vector_from_json


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = execute(argv)
    return code, out.getvalue(), err.getvalue()


def _refuse_constant(name):
    raise AssertionError(f"non-finite JSON number {name}")


def _assert_finite(value):
    if isinstance(value, float):
        assert math.isfinite(value), value
    elif isinstance(value, dict):
        for v in value.values():
            _assert_finite(v)
    elif isinstance(value, list):
        for v in value:
            _assert_finite(v)


def _check(argv, fmt):
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (code, argv)
    assert "Traceback" not in err
    if fmt == "json" and out:
        _assert_finite(json.loads(out, parse_constant=_refuse_constant))
    return code


# -- descriptor documents --------------------------------------------------------

_RANKS = st.sampled_from([1, 2, 3, 0, -1, True, 1.5])

_BASES = st.one_of(
    st.builds(lambda n: {"family": "CPn", "n": n}, st.integers(-1, 6) | st.booleans()),
    st.just({"family": "point"}),
)

_LEAVES = st.one_of(
    st.just({"op": "canonical"}),
    st.just({"op": "trivial"}),
    st.builds(lambda r: {"op": "trivial", "rank": r}, _RANKS),
)

_CONSTRUCTIONS = st.recursive(
    _LEAVES,
    lambda children: st.builds(
        lambda s: {"op": "sum", "summands": s}, st.lists(children, min_size=1, max_size=3)
    ),
    max_leaves=6,
)

_FLAGS = st.fixed_dictionaries(
    {},
    optional={
        "complex_structure": st.sampled_from([True, False, 1, 0, None]),
        "independent_sections": st.sampled_from([0, 1, 2, 3, 5, 9, -1, True, False, 1.0]),
    },
)


@st.composite
def _descriptors(draw):
    doc = {"base": draw(_BASES), "construction": draw(_CONSTRUCTIONS)}
    flags = draw(st.none() | _FLAGS)
    if flags is not None:
        doc["flags"] = flags
    return json.dumps(doc)


@given(
    _descriptors(),
    st.sampled_from([None, "secat", "tc"]),
    st.sampled_from(["human", "json", "tsv"]),
)
@settings(max_examples=150, deadline=None)
def test_descriptor_documents(doc, quantity, fmt):
    argv = ["bounds", "--descriptor", doc, "--format", fmt]
    if quantity is not None:
        argv += ["--quantity", quantity]
    _check(argv, fmt)


# -- pair documents ----------------------------------------------------------------

_UNIT = st.floats(-1.0, 1.0)
_ANGLE = st.floats(0.0, math.pi)

# replacements for one value of a document; each makes the document invalid
_BAD_VALUES = [math.nan, math.inf, -math.inf, 1e308, 10**400, True, "0.5"]


@st.composite
def _unit_vectors(draw, n):
    parts = draw(st.lists(st.tuples(_UNIT, _UNIT), min_size=n + 1, max_size=n + 1))
    v = np.array([complex(re, im) for re, im in parts])
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        v, norm = np.eye(n + 1, dtype=complex)[0], 1.0
    return v / norm


def _as_json(v):
    return [[float(c.real), float(c.imag)] for c in v]


@st.composite
def _fiber_points(draw):
    """A point (a, s) of the fiber sphere, |a|^2 + s^2 = 1."""
    theta, phi = draw(_ANGLE), draw(st.floats(-math.pi, math.pi))
    return complex(math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi)), math.cos(theta)


@st.composite
def _eta_plus_eps_pairs(draw, n):
    z = draw(_unit_vectors(n))
    kind = draw(st.sampled_from(["random", "antipode", "pole", "pole-antipode", "equal"]))
    if kind.startswith("pole"):
        a, s = 0j, draw(st.sampled_from([1.0, -1.0]))
    else:
        a, s = draw(_fiber_points())
    if kind.endswith("antipode"):
        b, t = -a, -s
    elif kind == "equal":
        b, t = a, s
    else:
        b, t = draw(_fiber_points())
    x = {"z": _as_json(z), "w": _as_json(a * z), "s": s}
    y = {"z": _as_json(z), "w": _as_json(b * z), "s": t}
    return {"x": x, "y": y}


@st.composite
def _hopf_pairs(draw, n):
    z = draw(_unit_vectors(n))
    phase = draw(st.sampled_from([0.0, math.pi]) | st.floats(-math.pi, math.pi))
    lam = -1.0 if phase == math.pi else complex(math.cos(phase), math.sin(phase))
    return {"z": _as_json(z), "z2": _as_json(lam * z)}


def _slots(node, path=()):
    """Paths to every number and every complex vector of a pair document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _slots(value, path + (key,))
    elif isinstance(node, list):
        if node and all(isinstance(e, list) and len(e) == 2 for e in node):
            yield path  # a complex vector
        for i, value in enumerate(node):
            yield from _slots(value, path + (i,))
    else:
        yield path


def _replace(node, path, value):
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(node, dict):
        return {**node, head: _replace(node[head], rest, value)}
    return [_replace(v, rest, value) if i == head else v for i, v in enumerate(node)]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_pair_documents(data):
    family = data.draw(st.sampled_from(["eta-plus-eps", "hopf"]))
    n = data.draw(st.integers(0, 3))
    pairs = _hopf_pairs(n) if family == "hopf" else _eta_plus_eps_pairs(n)
    doc = data.draw(pairs)
    valid = True
    if data.draw(st.booleans()):
        valid = False
        slots = list(_slots(doc))
        path = data.draw(st.sampled_from(slots))
        target = doc
        for key in path:
            target = target[key]
        if isinstance(target, list) and data.draw(st.booleans()):
            bad = target + [[0.0, 0.0]] if data.draw(st.booleans()) else target[:-1]
        else:
            bad = data.draw(st.sampled_from(_BAD_VALUES))
        doc = _replace(doc, path, bad)

    floor = 0.0 if family == "hopf" else TOL_ANTI_MIN
    tol_anti = data.draw(
        st.sampled_from([None, floor, 1e-8, 0.5, 0.999999, 1e-11, 0.0, -1e-10, 1.0, math.nan, math.inf])
    )
    samples = data.draw(st.sampled_from([None, 2, 3, 9, 1, 0, -2]))
    fmt = data.draw(st.sampled_from(["human", "json", "tsv"]))

    # json.dumps writes NaN and Infinity, which the reader must refuse
    argv = ["plan", "--family", family, "--pair", json.dumps(doc), "--format", fmt]
    if tol_anti is not None:
        argv += ["--tol-anti", repr(tol_anti)]
        valid = valid and floor <= tol_anti < 1.0
    if samples is not None:
        argv += ["--samples", str(samples)]
        valid = valid and samples >= 2
    code = _check(argv, fmt)
    if valid:
        assert code == 0, argv


# -- complex vectors, read in one conversion when every entry is well-typed --------

_JSON_SCALARS = st.one_of(
    st.floats(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([10**400, -(10**400), 2**1024 - 1, True, False, None, "0.5", "nan", b"1"]),
)
_ENTRIES = st.one_of(
    st.lists(st.floats() | st.integers(-(2**70), 2**70), min_size=2, max_size=2),  # well-typed
    st.lists(_JSON_SCALARS, min_size=2, max_size=2),
    st.lists(_JSON_SCALARS, max_size=3),
    st.lists(st.lists(st.integers(0, 3), max_size=2), min_size=2, max_size=2),
    _JSON_SCALARS,
    st.just({"re": 1, "im": 0}),
    st.just("ab"),
)


def _read_vector(read, data):
    try:
        return "vector", read(data, "pair.z").tobytes()
    except UsageError as exc:
        return "usage error", str(exc)


@settings(max_examples=400, deadline=None)
@given(st.lists(_ENTRIES, max_size=5) | _JSON_SCALARS)
def test_complex_vectors_read_as_entry_by_entry(data):
    assert _read_vector(_complex_vector_from_json, data) == _read_vector(complex_vector_from_json, data)
