"""Command-line front end.

Subcommands: ``bounds`` (interval reports for bundle families or descriptor
files), ``plan`` (run a planner query on a pair of points), ``verify``
(execute the verification suites) and ``table`` (emit whole bound tables).
Output formats: human, json (stable key order) and tsv.  Exit codes: 0 on
success, 1 on usage errors (and when the reader closes the output pipe
early), 2 on verification failure.  ``--samples`` is capped at
``MAX_PLAN_SAMPLES`` for ``plan`` and ``MAX_VERIFY_SAMPLES`` for ``verify``.

``bounds`` and ``table`` run on the ring and bound layers alone; only
``plan`` and ``verify`` import the planner, the suites and numpy.  The
parser is built once per process and shared by every :func:`execute` call.

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

    from .planner import BundlePoint

__all__ = ["execute", "main", "UsageError"]


MAX_CONSTRUCTION_DEPTH = 64  # nested construction nodes in a descriptor
MAX_PLAN_SAMPLES = 10_000  # points on one planned path: about 50 MB peak at the cap
MAX_VERIFY_SAMPLES = 1_000  # grid points per checked path, 512 paths at once: about 240 MB peak


class UsageError(ValueError):
    """Bad invocation: unknown family, malformed file, out-of-range parameter."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; usage errors are exit 1
        raise UsageError(message)


@functools.cache  # the handlers and _Parser.error keep no per-call state
def _build_parser() -> _Parser:
    parser = _Parser(prog="paramtc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

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
    if not text_or_path.lstrip().startswith("{"):
        path = Path(text_or_path)
        if not path.exists():
            raise UsageError(f"{what} file not found: {text_or_path}")
        text = path.read_text()
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
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
    out = []
    for entry in data:
        if not isinstance(entry, list) or len(entry) != 2:
            raise UsageError(f"{what} entries must be [re, im] pairs")
        out.append(complex(_number_from_json(entry[0], what), _number_from_json(entry[1], what)))
    return np.array(out, dtype=complex)


def _complex_vector_to_json(v: np.ndarray) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in v]


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
        if n is not None and z.size != n + 1:
            raise UsageError(f"expected vectors in C^{n + 1}, got C^{z.size}")
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


def _report_payload(report: TCReport, **params) -> dict:
    payload = {"report": report.to_dict()}
    payload.update(params)
    return payload


def _render_report(report: TCReport, fmt: str, heading: str, **params) -> str:
    if fmt == "human":
        return _render_report_human(report, heading)
    if fmt == "json":
        return _json_dumps(_report_payload(report, **params))
    # tsv: one header row, one data row
    keys = sorted(params)
    header = keys + ["lower", "upper", "exact"]
    row = [str(params[k]) for k in keys] + [
        str(report.lower),
        _format_bound(report.upper),
        str(report.exact).lower(),
    ]
    return "\t".join(header) + "\n" + "\t".join(row)


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
        except ValueError as exc:
            raise UsageError(f"cannot plan this pair: {exc}") from exc
        samples = [
            {"t": i / (args.samples - 1), "w": _complex_vector_to_json(p.w), "s": p.s}
            for i, p in enumerate(path.sample(args.samples))
        ]
    segments = [
        {"kind": seg.kind, "t0": path.breakpoints[i], "t1": path.breakpoints[i + 1]}
        for i, seg in enumerate(path.segments)
    ]

    if args.format == "json":
        print(_json_dumps({"piece": path.piece, "segments": segments, "samples": samples}))
    elif args.format == "tsv":
        lines = ["t\ts\tw"]
        for entry in samples:
            w = ";".join(f"{re:.12g},{im:.12g}" for re, im in entry["w"])
            lines.append(f"{entry['t']:.6f}\t{entry['s']:.12g}\t{w}")
        print("\n".join(lines))
    else:
        seg_text = " | ".join(f"{s['kind']} [{s['t0']:.3f}, {s['t1']:.3f}]" for s in segments)
        print(f"piece: {path.piece}")
        print(f"segments: {seg_text}")
        for entry in samples:
            w = ", ".join(f"{re:.6f}{im:+.6f}i" for re, im in entry["w"])
            print(f"t={entry['t']:.3f}  s={entry['s']:+.6f}  w=({w})")
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
    if args.n < 1 and args.suite in ("all", "partition"):
        raise UsageError("--n must be at least 1 for the partition suite")
    if args.n_max < 1:
        raise UsageError("--n-max must be at least 1")
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
        print(
            _json_dumps(
                {
                    "seed": seed,
                    "outcomes": [
                        {
                            "suite": o.suite,
                            "cases": o.cases,
                            "failures": [list(f) for f in o.failures],
                            "passed": o.passed,
                            "worst": o.worst,
                        }
                        for o in outcomes
                    ],
                }
            )
        )
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


def execute(argv: list[str]) -> int:
    """Run one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
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
