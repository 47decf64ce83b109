"""Seeded workloads for the paramtc benchmark.

Every workload turns a seed into an endless stream of blocks.  A block is a
list of calls into the library, balanced so that its mix of input sizes is
the same for every seed; the seed picks the order and the concrete inputs.
The benchmark stops only at block boundaries, so every run measures whole
blocks and the mix does not drift with the seed.

A workload has three parts:

* ``blocks(seed)`` -- the generator; the library never sees the seed;
* ``call(c)`` -- one call into the library, the only code that is timed;
* ``check(c, output)`` -- the output check, run outside the timed region.
  It returns a list of :class:`Outcome`, one per item the call completed.

The library is reached through module attributes (``verify.plan``,
``ring.lh_power``, ...) at call time, so the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from paramtc import bounds, bundle, cli, planner, ring, verify


@dataclass(frozen=True)
class Outcome:
    """Check result of one item: ``error`` is None when the item passed."""

    error: str | None = None
    piece: int | None = None  # planner piece of a plan query, for the per-piece counts


@dataclass(frozen=True)
class Call:
    """One call into the library with everything its check needs."""

    kind: str
    args: tuple
    expect: dict = field(default_factory=dict)
    oracle_words: int = 0  # words the rewrite oracle expands, from the factor lengths


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    blocks: Callable[[int], Iterator[list[Call]]]
    call: Callable[[Call], Any]
    check: Callable[[Call, Any], list[Outcome]]
    round_blocks: int  # blocks per measured round: whole blocks, a tenth of a second or so


# -- paths: planner + check_path through the randomized suite ------------------

PATHS_TRIALS = 8  # random pairs per call; each call also runs the boundary pairs
PATHS_SAMPLES = 21


def paths_blocks(seed: int) -> Iterator[list[Call]]:
    rng = np.random.default_rng(seed)
    while True:
        yield [
            Call("paths", (n, PATHS_TRIALS, int(rng.integers(2**31)), PATHS_SAMPLES))
            for n in (1, 2, 3)
        ]


def paths_call(c: Call) -> verify.VerificationOutcome:
    n, trials, seed, samples = c.args
    return verify.check_paths_random(n, trials=trials, seed=seed, samples=samples)


def paths_check(c: Call, out) -> list[Outcome]:
    n, trials, _, _ = c.args
    expected = trials + len(verify.boundary_pairs(n))
    if isinstance(out, Exception):
        return [Outcome(f"raised {out!r}")] * expected
    if out.cases != expected:
        return [Outcome(f"{out.cases} cases, expected {expected}")] * expected
    failed = {digest.split(" ", 1)[0] for digest, _, _ in out.failures}
    return [Outcome(f"path invariant failed: {d}") for d in sorted(failed)] + [
        Outcome() for _ in range(expected - len(failed))
    ]


# -- shared pair builders ---------------------------------------------------------


def _random_rep(rng: np.random.Generator, n: int, cell: int | None = None) -> planner.ProjectiveRep:
    """A representative whose last nonzero coordinate is ``cell`` (default n).

    Magnitudes stay in [0.2, 1] so no coordinate comes near the cell tolerance.
    """
    cell = n if cell is None else cell
    v = np.zeros(n + 1, dtype=complex)
    mags = rng.uniform(0.2, 1.0, cell + 1)
    phases = rng.uniform(0.0, 2 * math.pi, cell + 1)
    v[: cell + 1] = mags * np.exp(1j * phases)
    return planner.ProjectiveRep.normalized(v)


def _sphere_point(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def generic_pair(rng: np.random.Generator, n: int) -> tuple[planner.BundlePoint, planner.BundlePoint]:
    """Two fiber points at least a little away from antipodal: piece 0."""
    z = _random_rep(rng, n)
    while True:
        a, b = _sphere_point(rng), _sphere_point(rng)
        if float(a @ b) > -0.99:
            break
    return (
        planner.BundlePoint.from_fiber(z, complex(a[0], a[1]), float(a[2])),
        planner.BundlePoint.from_fiber(z, complex(b[0], b[1]), float(b[2])),
    )


def off_pole_antipodes(rng: np.random.Generator, n: int) -> tuple[planner.BundlePoint, planner.BundlePoint]:
    """An exact antipodal pair with |w| log-uniform in [2 TOL_ANTI, 1]: piece 1."""
    z = _random_rep(rng, n)
    r = math.exp(rng.uniform(math.log(2 * planner.TOL_ANTI), 0.0))
    c = r * complex(np.exp(1j * rng.uniform(0.0, 2 * math.pi)))
    s = math.copysign(math.sqrt(max(0.0, 1.0 - r * r)), rng.uniform(-1.0, 1.0))
    x = planner.BundlePoint.from_fiber(z, c, s)
    return x, x.antipode()


def pole_antipodes(rng: np.random.Generator, n: int, cell: int) -> tuple[planner.BundlePoint, planner.BundlePoint]:
    """An antipodal pole pair over the open 2*cell cell: piece 2 + cell."""
    x = planner.BundlePoint.section_point(_random_rep(rng, n, cell), rng.choice((-1.0, 1.0)))
    return x, x.antipode()


# -- queries: interactive CLI queries, in process ---------------------------------

QUERY_N_MAX = 6
QUERY_SAMPLES = 9
UNIT_TOL = verify.NORM_DRIFT_TOL


def _point_json(p: planner.BundlePoint) -> dict:
    return {
        "z": [[float(c.real), float(c.imag)] for c in p.z.z],
        "w": [[float(c.real), float(c.imag)] for c in p.w],
        "s": p.s,
    }


def plan_query(n: int, x: planner.BundlePoint, y: planner.BundlePoint, piece: int) -> Call:
    pair = json.dumps({"x": _point_json(x), "y": _point_json(y)})
    argv = ["plan", "--family", "eta-plus-eps", "--n", str(n), "--pair", pair,
            "--samples", str(QUERY_SAMPLES), "--format", "json"]
    return Call("plan", tuple(argv), {"n": n, "x": x, "y": y, "piece": piece})


def descriptor_json(family: str, n: int, k: int = 1) -> str:
    canonical = {"op": "canonical"}
    if family == "eta":
        construction = canonical
    elif family == "eta-plus-eps":
        construction = {"op": "sum", "summands": [canonical, {"op": "trivial", "rank": 1}]}
    else:
        construction = canonical if k == 1 else {"op": "sum", "summands": [canonical] * k}
    return json.dumps({"base": {"family": "CPn", "n": n}, "construction": construction})


def bounds_query(family: str, n: int, k: int = 1) -> Call:
    quantity = "secat" if family == "k-eta" else "tc"
    argv = ["bounds", "--descriptor", descriptor_json(family, n, k),
            "--quantity", quantity, "--format", "json"]
    return Call("bounds", tuple(argv), {"family": family, "n": n, "k": k})


def query_round(rng: np.random.Generator, n: int, pieces_off_pole: bool = True) -> list[Call]:
    """Every piece 0 ... n+2 over CP^n, plus bounds queries for a quarter of the round.

    Without ``pieces_off_pole`` the round skips piece 1 (the off-pole antipodes).
    """
    calls = [plan_query(n, *generic_pair(rng, n), 0) for _ in range(2)]
    if pieces_off_pole:
        calls += [plan_query(n, *off_pole_antipodes(rng, n), 1) for _ in range(2)]
    calls += [plan_query(n, *pole_antipodes(rng, n, j), 2 + j) for j in range(n + 1)]
    families = ("k-eta", "eta", "eta-plus-eps")
    for i in range(-(-len(calls) // 3)):
        calls.append(bounds_query(families[i % 3], n, int(rng.integers(1, 4))))
    return [calls[i] for i in rng.permutation(len(calls))]


def query_blocks(seed: int, pieces_off_pole: bool = True) -> Iterator[list[Call]]:
    rng = np.random.default_rng(seed)
    while True:
        for n in rng.permutation(np.arange(1, QUERY_N_MAX + 1)):
            yield query_round(rng, int(n), pieces_off_pole)


def cli_blocks(seed: int) -> Iterator[list[Call]]:
    return query_blocks(seed, pieces_off_pole=False)


def query_call(c: Call) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.execute(list(c.args))
    return code, out.getvalue(), err.getvalue()


def _fiber_gap(sample: dict, p: planner.BundlePoint) -> float:
    w = np.array([complex(re, im) for re, im in sample["w"]])
    return math.hypot(float(np.linalg.norm(w - p.w)), sample["s"] - p.s)


def check_plan_output(c: Call, code: int, stdout: str) -> str | None:
    x, y, piece = c.expect["x"], c.expect["y"], c.expect["piece"]
    if code != 0:
        return f"exit code {code}"
    doc = json.loads(stdout)
    if doc["piece"] != piece:
        return f"piece {doc['piece']}, built as {piece}"
    samples = doc["samples"]
    if len(samples) != QUERY_SAMPLES:
        return f"{len(samples)} samples"
    if _fiber_gap(samples[0], x) > verify.ENDPOINT_TOL or _fiber_gap(samples[-1], y) > verify.ENDPOINT_TOL:
        return "endpoint"
    for sample in samples:
        norm2 = sum(re * re + im * im for re, im in sample["w"]) + sample["s"] ** 2
        if abs(math.sqrt(norm2) - 1.0) > UNIT_TOL:
            return f"sample norm {math.sqrt(norm2)!r} at t={sample['t']}"
    path_check = verify.check_path(planner.plan(x, y), samples=PATHS_SAMPLES)
    if not path_check.passed:
        digest, invariant, value = path_check.failures[0]
        return f"check_path: {invariant} = {value} at {digest}"
    return None


def expected_report(family: str, n: int, k: int) -> tuple[int, bool]:
    """Closed forms: (exact value, whether NOTE_STRONGER must be attached)."""
    if family == "k-eta":
        return n // k, False
    if family == "eta":
        return 1, False
    return (n + 2, False) if n % 2 == 0 else (n + 1, True)


def check_report(family: str, n: int, k: int, report: bounds.TCReport) -> str | None:
    value, stronger = expected_report(family, n, k)
    if not (report.exact and report.lower == value):
        return f"{family} n={n} k={k}: [{report.lower}, {report.upper}], expected {value}"
    if (bounds.NOTE_STRONGER in report.notes) != stronger:
        return f"{family} n={n}: NOTE_STRONGER {'missing' if stronger else 'unexpected'}"
    if bounds.TCReport.from_dict(report.to_dict()) != report:
        return "to_dict / from_dict does not round-trip"
    return None


def query_check(c: Call, out) -> list[Outcome]:
    piece = c.expect.get("piece")
    if isinstance(out, Exception):
        return [Outcome(f"raised {out!r}", piece)]
    code, stdout, stderr = out
    try:
        if c.kind == "plan":
            error = check_plan_output(c, code, stdout)
        elif code != 0:
            error = f"exit code {code}: {stderr.strip()}"
        else:
            report = bounds.TCReport.from_dict(json.loads(stdout)["report"])
            error = check_report(c.expect["family"], c.expect["n"], c.expect["k"], report)
    except (ValueError, KeyError, TypeError) as exc:  # malformed output
        error = f"unreadable output: {exc!r}"
    return [Outcome(error, piece)]


# -- bounds: bound reports from the public constructors ----------------------------

BOUNDS_STRATUM = 8  # one base in each stretch of 8 up to 128, at most 3 below its top
BOUNDS_N_MAX = 128


def bounds_blocks(seed: int) -> Iterator[list[Call]]:
    rng = np.random.default_rng(seed)
    bases = [top - int(rng.integers(0, 4)) for top in range(BOUNDS_STRATUM, BOUNDS_N_MAX + 1, BOUNDS_STRATUM)]
    while True:
        calls = []
        for n in bases:
            calls.append(Call("k-eta", (n, int(rng.integers(1, 5)))))
            calls.append(Call("eta", (n, 1)))
            calls.append(Call("eta-plus-eps", (n, 1)))
        yield [calls[i] for i in rng.permutation(len(calls))]


def bounds_call(c: Call) -> bounds.TCReport:
    n, k = c.args
    eta = bundle.canonical_line_bundle(bundle.cpn(n))
    if c.kind == "k-eta":
        return bounds.secat_sphere_bundle(bundle.k_fold_sum(eta, k))
    if c.kind == "eta":
        return bounds.tc_sphere_bundle(eta)
    return bounds.tc_sphere_bundle(bundle.whitney_sum(eta, bundle.trivial_bundle(bundle.cpn(n), 1)))


def bounds_check(c: Call, out) -> list[Outcome]:
    if isinstance(out, Exception):
        return [Outcome(f"raised {out!r}")]
    return [Outcome(check_report(c.kind, *c.args, out))]


# -- oracle: ring products against the rewrite oracle ------------------------------

# A block is one round and should last a tenth of a second or two; at n = 7 its
# largest power alone expands 2^17 words and a block takes about 0.8 s.
ORACLE_N_MAX = 6
POWER_TERMS = {"U-x": [(1, "U"), (-1, "x")], "-x+2U": [(-1, "x"), (2, "U")]}


def cpn_module(n: int) -> ring.LHModule:
    r = ring.RingDescriptor((ring.Generator("x", 2, n + 1),))
    return ring.LHModule(r, r.generator("x"), 2)


def _power_element(m: ring.LHModule, name: str) -> ring.LHElement:
    x = m.from_base(m.ring.generator("x"))
    return m.u() - x if name == "U-x" else m.u() * 2 - x


def oracle_block(rng: np.random.Generator, name: str) -> list[Call]:
    """Every power of one element for k <= 2n+3 and n <= ORACLE_N_MAX, and as many monomial products."""
    terms = POWER_TERMS[name]
    calls = []
    for n in range(1, ORACLE_N_MAX + 1):
        m = cpn_module(n)
        for k in range(1, 2 * n + 4):
            calls.append(Call("power", (n, _power_element(m, name), k, terms), oracle_words=len(terms) ** k))
            a1, a2 = (int(a) for a in rng.integers(0, n + 1, 2))
            b1, b2 = (int(b) for b in rng.integers(0, 3, 2))
            calls.append(Call("monomial", (n, m, a1, b1, a2, b2), oracle_words=1))
    return [calls[i] for i in rng.permutation(len(calls))]


def oracle_blocks(seed: int) -> Iterator[list[Call]]:
    rng = np.random.default_rng(seed)
    while True:
        for name in POWER_TERMS:
            yield oracle_block(rng, name)


def oracle_call(c: Call):
    if c.kind == "power":
        n, element, k, terms = c.args
        return (
            ring.lh_power(element, k),
            verify.lh_rewrite_oracle(verify.oracle_power(terms, k), n),
        )
    n, m, a1, b1, a2, b2 = c.args
    x, u = m.from_base(m.ring.generator("x")), m.u()
    left, right = m.one(), m.one()
    for _ in range(a1):
        left = ring.lh_multiply(left, x)
    for _ in range(b1):
        left = ring.lh_multiply(left, u)
    for _ in range(a2):
        right = ring.lh_multiply(right, x)
    for _ in range(b2):
        right = ring.lh_multiply(right, u)
    word = "x" * (a1 + a2) + "U" * (b1 + b2)
    return ring.lh_multiply(left, right), verify.lh_rewrite_oracle([[(1, word)]], n)


def oracle_check(c: Call, out) -> list[Outcome]:
    if isinstance(out, Exception):
        return [Outcome(f"raised {out!r}")]
    ring_result, oracle_result = out
    if verify.lh_to_dense(ring_result, c.args[0]) != oracle_result:
        return [Outcome(f"{c.kind} over CP^{c.args[0]}: ring result differs from the oracle")]
    return [Outcome()]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paths",
            "planner segment evaluation and check_path do nearly all the work; ring, bounds and cli sit idle",
            paths_blocks, paths_call, paths_check, 2,
        ),
        Workload(
            "queries",
            "argparse, JSON in and out, validation and per-query setup dominate; the only workload reaching piece 1 in volume",
            query_blocks, query_call, query_check, 6,
        ),
        Workload(
            "cli",
            "the queries mix without piece 1, whose small-|w| pairs fail today: the cli layer with no failing query",
            cli_blocks, query_call, query_check, 6,
        ),
        Workload(
            "bounds",
            "the ring does nearly all the work, in long power chains; repeated bases let a cache show",
            bounds_blocks, bounds_call, bounds_check, 1,
        ),
        Workload(
            "oracle",
            "the exponential word expansion of the rewrite oracle dominates time and memory, beside many small ring products",
            oracle_blocks, oracle_call, oracle_check, 1,
        ),
    )
}
