"""Command-line front end.

Subcommands: ``bounds`` (interval reports for bundle families or descriptor
files), ``plan`` (run a planner query on a pair of points), ``verify``
(execute the verification suites) and ``table`` (emit whole bound tables).
Output formats: human, json (stable key order) and tsv.  Exit codes: 0 on
success, 1 on usage errors (and when the reader closes the output pipe
early), 2 on verification failure.  ``--samples`` is capped at
``MAX_PLAN_SAMPLES`` for ``plan`` and ``MAX_VERIFY_SAMPLES`` for ``verify``,
``verify --n`` at ``MAX_VERIFY_N`` and ``--n-max`` at ``MAX_N_MAX``.

``bounds`` and ``table`` run on the ring and bound layers alone; only
``plan`` and ``verify`` import the planner, the suites and numpy.  The
parser is built once per process and shared by every :func:`execute` call;
an argv whose first word is a command goes straight to that command's
subparser, which is where the top-level parser would hand it.  Bound
reports and plans are written as JSON by fixed templates, byte-identical to
``json.dumps(..., sort_keys=True, indent=2)``, and a plan's samples are
evaluated, checked and written in slices of ``PLAN_SLICE``, so no temporary
and no text grows with the whole grid.

Descriptor files are JSON documents with keys ``base`` (family plus
parameter), ``construction`` (a tree of sum / canonical / trivial nodes)
and optional ``flags`` (complex_structure, independent_sections); unknown
keys, and flags that contradict the construction's characteristic classes,
are rejected.  The ``PARAMTC_SEED`` environment variable overrides the
default verification seed; an explicit ``--seed`` wins over both.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .bounds import QUANTITIES, ContradictionError, TCReport, default_quantity, family_table
from .bundle import (
    FAMILIES,
    BundleDescriptor,
    canonical_line_bundle,
    cpn,
    family_bundle,
    point,
    trivial_bundle,
    whitney_sum,
)

if TYPE_CHECKING:  # plan and verify import these on first use: bounds and table never load numpy
    import numpy as np

    from .planner import BundlePoint, PlannedPath

__all__ = ["execute", "main", "UsageError"]


MAX_CONSTRUCTION_DEPTH = 64  # nested construction nodes in a descriptor
# plan --samples: points on one planned path.  At the cap, one in-process query
# on a piece-1 pair, stdout to /dev/null, peaked at 38 MB for n = 2 (json, 0.06 s)
# and for n = 64 at 57 MB in json (0.9 s), 52 in tsv and 51 in human, from 36 MB
# before it, on a shared 2-vCPU host: the grid is evaluated, checked and written
# PLAN_SLICE samples at a time (evaluated whole it peaked at 68 MB in every
# format; written whole too, at 217 MB in json).
MAX_PLAN_SAMPLES = 10_000
PLAN_SLICE = 256
MAX_VERIFY_SAMPLES = 1_000  # grid points per checked path; chunks hold verify.CHECK_POINTS points
# verify --n: each path-suite chunk holds CHECK_POINTS // samples paths of n + 1
# complex coordinates; 600 trials peaked at 41 MB for n = 2 and 107 MB (0.09 s)
# for n = 64, from 30 MB before the query.
# --trials needs no cap: the path and partition suites draw their pairs chunk by
# chunk (verify --suite all --n 2 peaked at 41.6 MB at 2,000 and 41.7 MB at 200,000).
MAX_VERIFY_N = 64
# --n-max of verify and table: table --family k-eta builds one chain of n_max
# k-fold sums per n, n_max^2 descriptors (0.10 s end to end at 32; 0.16 s at 64),
# and the oracle suite grows about as n_max^3 (2.8 s at 32), timed on a shared
# 2-vCPU host.
MAX_N_MAX = 64


class UsageError(ValueError):
    """Bad invocation: unknown family, malformed file, out-of-range parameter."""


class _Parser(argparse.ArgumentParser):
    commands: dict[str, _Parser]  # the top-level parser's subparsers by name, set by _build_parser

    def error(self, message):  # argparse would exit 2; usage errors are exit 1
        raise UsageError(message)


@functools.cache  # the handlers and _Parser.error keep no per-call state
def _build_parser() -> _Parser:
    parser = _Parser(prog="paramtc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p_bounds = sub.add_parser("bounds", help="compute a bound report")
    p_bounds.set_defaults(run=_cmd_bounds)
    p_bounds.add_argument("--family", choices=FAMILIES)
    p_bounds.add_argument("--descriptor", help="path to a bundle descriptor JSON file")
    p_bounds.add_argument("--n", type=int, help="projective dimension of the base")
    p_bounds.add_argument("--k", type=int, help="number of summed copies (k-eta only; default 1)")
    p_bounds.add_argument("--quantity", choices=QUANTITIES)
    p_bounds.add_argument("--format", choices=["human", "json", "tsv"], default="human")

    p_plan = sub.add_parser("plan", help="run a planner query")
    p_plan.set_defaults(run=_cmd_plan)
    p_plan.add_argument("--family", choices=["eta-plus-eps", "hopf"], default="eta-plus-eps")
    p_plan.add_argument("--n", type=int, help="projective dimension (validated against the pair)")
    p_plan.add_argument("--pair", required=True, help="inline JSON object or path to a JSON file")
    p_plan.add_argument("--samples", type=int, default=5)
    p_plan.add_argument("--tol-anti", type=float)  # default planner.TOL_ANTI
    p_plan.add_argument("--tol-cell", type=float)  # default planner.TOL_CELL
    p_plan.add_argument("--format", choices=["human", "json", "tsv"], default="human")

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument(
        "--suite",
        choices=["all", "tables", "partition", "paths", "oracle"],
        default="all",
    )
    p_verify.add_argument("--n", type=int, default=2)
    p_verify.add_argument("--n-max", type=int, default=6)
    p_verify.add_argument("--trials", type=int, default=2000)
    p_verify.add_argument("--samples", type=int, default=21)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--format", choices=["human", "json"], default="human")

    p_table = sub.add_parser("table", help="emit a whole bound table")
    p_table.set_defaults(run=_cmd_table)
    p_table.add_argument("--family", choices=FAMILIES, required=True)
    p_table.add_argument("--n-max", type=int, default=8)
    p_table.add_argument("--format", choices=["human", "json", "tsv"], default="human")

    return parser


# -- descriptor files ---------------------------------------------------------


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise UsageError(f"unknown keys in {where}: {sorted(unknown)}")


def _load_json(text_or_path: str, what: str):
    text = text_or_path
    missing = False  # a value naming no file is parsed too: inline JSON of another type
    if not text_or_path.lstrip().startswith("{"):
        path = Path(text_or_path)
        try:
            missing = not path.exists()
            if not missing:
                text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, a name too long, not UTF-8
            raise UsageError(f"cannot read {what} file {path}: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        if missing:
            raise UsageError(f"{what} file not found: {text_or_path}") from exc
        raise UsageError(f"malformed {what} JSON: {exc}") from exc
    except RecursionError as exc:
        raise UsageError(f"{what} JSON is nested too deeply") from exc


def _base_from_json(node) -> "object":
    if not isinstance(node, dict):
        raise UsageError("descriptor base must be an object")
    _reject_unknown(node, {"family", "n"}, "base")
    family = node.get("family")
    if family == "CPn":
        n = node.get("n")
        if type(n) is not int or n < 0:
            raise UsageError("base CPn requires a non-negative integer n")
        return cpn(n)
    if family == "point":
        return point()
    raise UsageError(f"unknown base family: {family!r}")


def _construction_from_json(node, base, depth: int = 1) -> BundleDescriptor:
    if depth > MAX_CONSTRUCTION_DEPTH:
        raise UsageError(f"constructions may nest at most {MAX_CONSTRUCTION_DEPTH} levels deep")
    if not isinstance(node, dict):
        raise UsageError("construction nodes must be objects")
    op = node.get("op")
    if op == "canonical":
        _reject_unknown(node, {"op"}, "canonical node")
        if base.family != "CPn":
            raise UsageError("canonical nodes need a CPn base")
        return canonical_line_bundle(base)
    if op == "trivial":
        _reject_unknown(node, {"op", "rank"}, "trivial node")
        rank = node.get("rank", 1)
        if type(rank) is not int or rank < 1:
            raise UsageError("trivial node rank must be a positive integer")
        return trivial_bundle(base, rank)
    if op == "sum":
        _reject_unknown(node, {"op", "summands"}, "sum node")
        summands = node.get("summands")
        if not isinstance(summands, list) or len(summands) < 2:
            raise UsageError("sum nodes need a list of at least two summands")
        out = _construction_from_json(summands[0], base, depth + 1)
        for child in summands[1:]:
            out = whitney_sum(out, _construction_from_json(child, base, depth + 1))
        return out
    raise UsageError(f"unknown construction op: {op!r}")


def load_descriptor(source: str) -> BundleDescriptor:
    doc = _load_json(source, "descriptor")
    if not isinstance(doc, dict):
        raise UsageError("descriptor must be a JSON object")
    _reject_unknown(doc, {"base", "construction", "flags"}, "descriptor")
    if "base" not in doc or "construction" not in doc:
        raise UsageError("descriptor needs 'base' and 'construction'")
    base = _base_from_json(doc["base"])
    bundle = _construction_from_json(doc["construction"], base)
    flags = doc.get("flags", {})
    if not isinstance(flags, dict):
        raise UsageError("flags must be an object")
    _reject_unknown(flags, {"complex_structure", "independent_sections"}, "flags")
    updates = {}
    if "complex_structure" in flags:
        if not isinstance(flags["complex_structure"], bool):
            raise UsageError("complex_structure must be a boolean")
        updates["has_complex_structure"] = flags["complex_structure"]
    if "independent_sections" in flags:
        v = flags["independent_sections"]
        if type(v) is not int or v < 0:
            raise UsageError("independent_sections must be a non-negative integer")
        updates["independent_sections"] = max(v, bundle.independent_sections)
    if updates:
        try:
            bundle = dataclasses.replace(bundle, **updates)
        except ValueError as exc:
            raise UsageError(f"inconsistent flags: {exc}") from exc
    return bundle


# -- point / pair parsing ------------------------------------------------------


def _number_from_json(value, what: str) -> float:
    # JSON booleans decode to bool, a subclass of int: `type` keeps them out
    if type(value) not in (int, float):
        raise UsageError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise UsageError(f"{what} is too large: {exc}") from exc


def _complex_vector_from_json(data, what: str) -> np.ndarray:
    import numpy as np

    if not isinstance(data, list) or not data:
        raise UsageError(f"{what} must be a non-empty list of [re, im] pairs")
    try:  # well-typed [re, im] pairs in one conversion; anything else is refused entry by entry below
        pairs = np.array(data, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pairs = None
    # the shape makes every entry a sequence of two; the types keep out booleans, strings and None
    if pairs is not None and pairs.shape == (len(data), 2):
        if {type(v) for entry in data for v in entry} <= {int, float}:
            return pairs.view(complex)[:, 0]
    out = []
    for entry in data:
        if not isinstance(entry, list) or len(entry) != 2:
            raise UsageError(f"{what} entries must be [re, im] pairs")
        out.append(complex(_number_from_json(entry[0], what), _number_from_json(entry[1], what)))
    return np.array(out, dtype=complex)


def _point_from_json(node, what: str) -> BundlePoint:
    from .planner import BundlePoint, ProjectiveRep

    if not isinstance(node, dict):
        raise UsageError(f"{what} must be an object")
    _reject_unknown(node, {"z", "w", "s"}, what)
    for key in ("z", "w", "s"):
        if key not in node:
            raise UsageError(f"{what} needs fields z, w, s")
    z = _complex_vector_from_json(node["z"], f"{what}.z")
    w = _complex_vector_from_json(node["w"], f"{what}.w")
    s = _number_from_json(node["s"], f"{what}.s")
    try:
        return BundlePoint(ProjectiveRep(z), w, s)
    except ValueError as exc:
        raise UsageError(f"invalid {what}: {exc}") from exc


def _load_pair(source: str, family: str, n: int | None):
    doc = _load_json(source, "pair")
    if not isinstance(doc, dict):
        raise UsageError("pair must be a JSON object")
    if family == "hopf":
        _reject_unknown(doc, {"z", "z2"}, "pair")
        if "z" not in doc or "z2" not in doc:
            raise UsageError("hopf pairs need fields z and z2")
        z = _complex_vector_from_json(doc["z"], "pair.z")
        z2 = _complex_vector_from_json(doc["z2"], "pair.z2")
        for v in (z, z2) if n is not None else ():
            if v.size != n + 1:
                raise UsageError(f"expected vectors in C^{n + 1}, got C^{v.size}")
        return z, z2
    _reject_unknown(doc, {"x", "y"}, "pair")
    if "x" not in doc or "y" not in doc:
        raise UsageError("pairs need fields x and y")
    x = _point_from_json(doc["x"], "pair.x")
    y = _point_from_json(doc["y"], "pair.y")
    if n is not None and x.w.size != n + 1:
        raise UsageError(f"expected vectors in C^{n + 1}, got C^{x.w.size}")
    return x, y


# -- rendering -----------------------------------------------------------------


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


# a string as JSON: the escaper json.dumps itself uses with ensure_ascii, for the fixed templates
_quote = json.encoder.encode_basestring_ascii


def _format_bound(value: int | None) -> str:
    return "inf" if value is None else str(value)


def _render_report_human(report: TCReport, heading: str) -> str:
    lines = [heading]
    if report.exact:
        lines.append(f"value = {report.lower} (exact)")
    else:
        lines.append(f"bounds: {report.lower} <= value <= {_format_bound(report.upper)}")
    lines.append("provenance:")
    for entry in report.provenance:
        lines.append(f"  [{entry.rule}] {entry.detail} -- {entry.citation}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


_PROVENANCE_ENTRY = '      {\n        "citation": %s,\n        "detail": %s,\n        "rule": %s\n      }'
_REPORT = (
    '{\n    "exact": %s,\n    "lower": %d,\n    "notes": %s,\n    "provenance": %s,\n'
    '    "quantity": %s,\n    "upper": %s\n  }'
)


def _report_list(items: list[str]) -> str:
    """A list-valued key of the report, its items written already: ``[]`` when empty."""
    return "[\n" + ",\n".join(items) + "\n    ]" if items else "[]"


def _render_report_json(report: TCReport, params: dict[str, str | int]) -> str:
    """``_json_dumps({"report": report.to_dict(), **params})``, written by one fixed template.

    The report's shape is fixed: ``exact``, ``lower``, ``notes``,
    ``provenance`` (entries of ``citation``, ``detail`` and ``rule``),
    ``quantity`` and ``upper``.  Strings go through :data:`_quote`; the
    params are strings and integers.
    """
    notes = [f"      {_quote(note)}" for note in report.notes]
    provenance = [_PROVENANCE_ENTRY % (_quote(p.citation), _quote(p.detail), _quote(p.rule)) for p in report.provenance]
    fields = {key: _quote(value) if isinstance(value, str) else "%d" % value for key, value in params.items()}
    fields["report"] = _REPORT % (
        "true" if report.exact else "false",
        report.lower,
        _report_list(notes),
        _report_list(provenance),
        _quote(report.quantity.value),
        "null" if report.upper is None else "%d" % report.upper,
    )
    return "{\n" + ",\n".join(f"  {_quote(key)}: {fields[key]}" for key in sorted(fields)) + "\n}"


def _render_report(report: TCReport, fmt: str, heading: str, **params) -> str:
    if fmt == "human":
        return _render_report_human(report, heading)
    if fmt == "json":
        return _render_report_json(report, params)
    # tsv: one header row, one data row
    keys = sorted(params)
    header = keys + ["lower", "upper", "exact"]
    row = [str(params[k]) for k in keys] + [
        str(report.lower),
        _format_bound(report.upper),
        str(report.exact).lower(),
    ]
    return "\t".join(header) + "\n" + "\t".join(row)


def _plan_slices(t: np.ndarray, w: np.ndarray, s: np.ndarray):
    """The samples in slices of at most ``PLAN_SLICE``, each sample as plain floats.

    A sample is its time, its height and its ``w`` as ``re, im, re, im, ...``.
    """
    for i in range(0, len(t), PLAN_SLICE):
        j = i + PLAN_SLICE
        yield zip(t[i:j].tolist(), s[i:j].tolist(), w[i:j].view(float).tolist())


def _render_plan_json(
    piece: int, kinds: tuple[str, ...], breakpoints: tuple[float, ...], t: np.ndarray, w: np.ndarray, s: np.ndarray
):
    """``_json_dumps`` of the plan payload, written by one fixed template and yielded in slices.

    The payload is ``{"piece", "samples": [{"s", "t", "w": [[re, im], ...]},
    ...], "segments": [{"kind", "t0", "t1"}, ...]}``, keys sorted, two-space
    indents.  ``%r`` of a float is the repr ``json`` writes for a finite
    float, and the samples are checked finite before they get here.  The
    lists it writes are never empty: two samples, one segment and one
    coordinate at least.
    """
    pair = "        [\n          %r,\n          %r\n        ]"
    sample = '    {\n      "s": %r,\n      "t": %r,\n      "w": [\n' + ",\n".join([pair] * w.shape[1])
    sample += "\n      ]\n    }"
    segment = '    {\n      "kind": %s,\n      "t0": %r,\n      "t1": %r\n    }'
    segments = ",\n".join(
        segment % (_quote(kind), t0, t1) for kind, t0, t1 in zip(kinds, breakpoints, breakpoints[1:])
    )
    yield '{\n  "piece": %d,\n  "samples": [\n' % piece
    separator = ""
    for rows in _plan_slices(t, w, s):
        yield separator + ",\n".join([sample % (si, ti, *wi) for ti, si, wi in rows])
        separator = ",\n"
    yield '\n  ],\n  "segments": [\n%s\n  ]\n}' % segments


def _render_plan(fmt: str, path: PlannedPath, t: np.ndarray, w: np.ndarray, s: np.ndarray):
    """A plan query's output in slices: the path's piece and segments, then its samples ``(t, w, s)``."""
    breaks = path.breakpoints
    if fmt == "json":
        yield from _render_plan_json(path.piece, path.kinds, breaks, t, w, s)
        return
    if fmt == "tsv":
        row = "%.6f\t%.12g\t" + ";".join(["%.12g,%.12g"] * w.shape[1])
        yield "t\ts\tw"
    else:
        row = "t=%.3f  s=%+.6f  w=(" + ", ".join(["%.6f%+.6fi"] * w.shape[1]) + ")"
        segments = " | ".join(f"{kind} [{t0:.3f}, {t1:.3f}]" for kind, t0, t1 in zip(path.kinds, breaks, breaks[1:]))
        yield f"piece: {path.piece}\nsegments: {segments}"
    for rows in _plan_slices(t, w, s):
        yield "\n" + "\n".join([row % (ti, si, *wi) for ti, si, wi in rows])


# -- subcommands ---------------------------------------------------------------


def _family_bundle(family: str, n: int | None, k: int | None) -> BundleDescriptor:
    if n is None:
        raise UsageError("--n is required for bundle families")
    if n < 0:
        raise UsageError("--n must be non-negative")
    if k is not None and family != "k-eta":
        raise UsageError(f"--k applies only to the k-eta family, not {family}")
    if k is not None and k < 1:
        raise UsageError("--k must be a positive integer")
    return family_bundle(family, n, 1 if k is None else k)


def _cmd_bounds(args) -> int:
    if (args.family is None) == (args.descriptor is None):
        raise UsageError("give exactly one of --family or --descriptor")
    if args.family is not None:
        bundle = _family_bundle(args.family, args.n, args.k)
        params = {"family": args.family, "n": args.n}
        if args.family == "k-eta":
            params["k"] = 1 if args.k is None else args.k
    else:
        if args.n is not None or args.k is not None:
            raise UsageError("--n and --k apply only to --family, not to --descriptor")
        bundle = load_descriptor(args.descriptor)
        params = {"descriptor": args.descriptor}
    quantity = args.quantity or default_quantity(args.family)
    try:
        report = QUANTITIES[quantity](bundle)
    except (ContradictionError, ValueError) as exc:  # the engine refuses this bundle
        raise UsageError(f"cannot bound this bundle: {exc}") from exc
    label = "sectional category" if quantity == "secat" else "parametrized TC"
    heading = f"{label} of the unit sphere bundle ({', '.join(f'{k}={v}' for k, v in params.items())})"
    print(_render_report(report, args.format, heading, quantity=quantity, **params))
    return 0


def _check_samples(samples: int, cap: int) -> None:
    if samples < 2:
        raise UsageError("--samples must be at least 2")
    if samples > cap:
        raise UsageError(f"--samples must be at most {cap}")


def _cmd_plan(args) -> int:
    import numpy as np

    from . import planner

    _check_samples(args.samples, MAX_PLAN_SAMPLES)
    if args.n is not None and args.n < 0:
        raise UsageError("--n must be non-negative")
    tol_anti = planner.TOL_ANTI if args.tol_anti is None else args.tol_anti
    tol_cell = planner.TOL_CELL if args.tol_cell is None else args.tol_cell
    anti_floor = 0.0 if args.family == "hopf" else planner.TOL_ANTI_MIN  # plan_hopf is well-conditioned at 0
    for flag, tol, floor in (("--tol-anti", tol_anti, anti_floor), ("--tol-cell", tol_cell, 0.0)):
        if not floor <= tol < 1.0:  # also false for NaN
            raise UsageError(f"{flag} must be a number in [{floor:g}, 1)")
    # a huge finite entry overflows a norm to inf, which the unit checks refuse
    with np.errstate(over="ignore"):
        pair = _load_pair(args.pair, args.family, args.n)
        try:
            if args.family == "hopf":
                path = planner.plan_hopf(*pair, tol_anti=tol_anti)
            else:
                path = planner.plan(*pair, tol_anti=tol_anti, tol_cell=tol_cell)
            t, w, s = path._checked_samples(args.samples, PLAN_SLICE)
        except ValueError as exc:
            raise UsageError(f"cannot plan this pair: {exc}") from exc
    write = sys.stdout.write  # every sample is checked: nothing is written before that
    for text in _render_plan(args.format, path, t, w, s):
        write(text)
    write("\n")
    return 0


def _resolve_seed(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("PARAMTC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"PARAMTC_SEED must be an integer, got {env!r}") from exc
    from .verify import DEFAULT_SEED

    return DEFAULT_SEED


def _cmd_verify(args) -> int:
    from . import verify

    _check_samples(args.samples, MAX_VERIFY_SAMPLES)
    if args.n < 0:
        raise UsageError("--n must be non-negative")
    if args.n > MAX_VERIFY_N:
        raise UsageError(f"--n must be at most {MAX_VERIFY_N}")
    if args.n < 1 and args.suite in ("all", "partition"):
        raise UsageError("--n must be at least 1 for the partition suite")
    if args.n_max < 1:
        raise UsageError("--n-max must be at least 1")
    if args.n_max > MAX_N_MAX:
        raise UsageError(f"--n-max must be at most {MAX_N_MAX}")
    if args.trials < 0:
        raise UsageError("--trials must be non-negative")
    seed = _resolve_seed(args.seed)
    outcomes = []
    if args.suite in ("all", "oracle"):
        outcomes.append(verify.check_lh_oracle(args.n_max))
    if args.suite in ("all", "tables"):
        outcomes.append(verify.check_bounds_tables(args.n_max))
    if args.suite in ("all", "partition"):
        outcomes.append(verify.check_partition(args.n, trials=args.trials, seed=seed))
    if args.suite in ("all", "paths"):
        outcomes.append(
            verify.check_paths_random(
                args.n, trials=args.trials, seed=seed, samples=args.samples
            )
        )

    if args.format == "json":
        payload = [{**dataclasses.asdict(o), "passed": o.passed} for o in outcomes]
        print(_json_dumps({"seed": seed, "outcomes": payload}))
    else:
        print(f"seed: {seed}")
        for o in outcomes:
            print(o.summary())
            for digest, invariant, value in o.failures[:10]:
                print(f"  {digest}: {invariant} = {value}")
    return 0 if all(o.passed for o in outcomes) else 2


def _table_rows(family: str, n_max: int) -> tuple[list[str], list[list[str]]]:
    rows = family_table(family, n_max)
    if family == "k-eta":
        return ["n", "k", "secat"], [
            [str(n), str(k), str(r.lower) if r.exact else "?"] for n, k, r in rows
        ]
    return ["n", "lower", "upper", "exact"], [
        [str(n), str(r.lower), _format_bound(r.upper), str(r.exact).lower()] for n, _, r in rows
    ]


def _cmd_table(args) -> int:
    if args.n_max < 1:
        raise UsageError("--n-max must be positive")
    if args.n_max > MAX_N_MAX:
        raise UsageError(f"--n-max must be at most {MAX_N_MAX}")
    header, rows = _table_rows(args.family, args.n_max)
    if args.format == "json":
        print(_json_dumps([dict(zip(header, row)) for row in rows]))
    elif args.format == "tsv":
        print("\n".join("\t".join(r) for r in [header] + rows))
    else:
        widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
        for r in [header] + rows:
            print("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return 0


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, parsed once when argv starts with a command.

    The top-level parser hands everything after the command word to that
    command's subparser and sets ``command``, so this does the same
    directly.  Anything else -- no argument, ``-h``, an unknown or
    abbreviated command -- goes through the top-level parser.
    """
    parser = _build_parser()
    if argv and argv[0] in parser.commands:
        return parser.commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return parser.parse_args(argv)


def execute(argv: list[str]) -> int:
    """Run one invocation; returns the process exit code."""
    try:
        try:
            args = _parse_args(argv)
        except SystemExit as exc:  # --help and friends
            return int(exc.code or 0)
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = execute(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed the pipe: the output is lost, print no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
