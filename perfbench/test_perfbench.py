"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import dataclasses
import itertools
import json
import re

import pytest

import run
import spans
from paramtc import bounds, planner, ring
from workloads import WORKLOADS, Call, Workload, bounds_check, cpn_module, oracle_check, query_check, query_round

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def first_blocks(name: str, seed: int, count: int = 3) -> list[str]:
    blocks = itertools.islice(WORKLOADS[name].blocks(seed), count)
    return [repr([(c.kind, c.args) for c in block]) for block in blocks]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic(name):
    assert first_blocks(name, 7) == first_blocks(name, 7)
    assert first_blocks(name, 7) != first_blocks(name, 8)


def test_queries_witness_every_piece_for_every_n():
    import numpy as np

    rng = np.random.default_rng(3)
    for n in range(1, 7):
        plans = [c for c in query_round(rng, n) if c.kind == "plan"]
        built = {c.expect["piece"] for c in plans}
        classified = {planner.classify_pair(c.expect["x"], c.expect["y"]) for c in plans}
        assert built == classified == set(range(n + 3))


def test_cli_workload_skips_only_piece_one():
    block = next(WORKLOADS["cli"].blocks(5))
    n = next(c.expect["n"] for c in block if c.kind == "plan")
    assert {c.expect["piece"] for c in block if c.kind == "plan"} == set(range(n + 3)) - {1}


def forged(workload: Workload, forge) -> Workload:
    """The same workload with every output passed through ``forge``."""
    return dataclasses.replace(workload, call=lambda c: forge(c, workload.call(c)), round_blocks=1)


def test_report_off_by_one_is_a_failed_item():
    def off_by_one(c, report):
        return dataclasses.replace(report, lower=report.lower + 1, upper=report.upper + 1)

    m = run.measure(forged(WORKLOADS["bounds"], off_by_one), WORKLOADS["bounds"].blocks(1), 1e-9)
    assert m.items > 0 and m.failed == m.items


def test_missing_note_is_a_failed_item():
    report = WORKLOADS["bounds"].call(Call("eta-plus-eps", (5, 1)))
    assert bounds_check(Call("eta-plus-eps", (5, 1)), report)[0].error is None
    stripped = dataclasses.replace(report, notes=())
    assert bounds_check(Call("eta-plus-eps", (5, 1)), stripped)[0].error


def test_wrong_piece_and_raised_calls_fail():
    c = next(c for c in next(WORKLOADS["cli"].blocks(2)) if c.kind == "plan")
    code, stdout, stderr = WORKLOADS["cli"].call(c)
    assert query_check(c, (code, stdout, stderr))[0].error is None
    doc = json.loads(stdout)
    doc["piece"] += 1
    assert query_check(c, (0, json.dumps(doc), ""))[0].error
    assert query_check(c, (1, "", "error"))[0].error
    assert query_check(c, ValueError("boom"))[0].error


def test_ring_result_off_by_one_fails_the_oracle_check():
    c = next(c for c in next(WORKLOADS["oracle"].blocks(4)) if c.kind == "power")
    ring_result, oracle_result = WORKLOADS["oracle"].call(c)
    assert oracle_check(c, (ring_result, oracle_result))[0].error is None
    bumped = ring_result + cpn_module(c.args[0]).one()
    assert oracle_check(c, (bumped, oracle_result))[0].error


def test_metric_names_and_units_match_the_benchmark_file():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    for name in [*end_to_end, *per_layer, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name), name


def test_tracing_wraps_callers_and_restores():
    original = ring.cup
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert ring.cup is not original and bounds.height is ring.height and hasattr(ring.height, "__wrapped__")
        WORKLOADS["bounds"].call(Call("eta-plus-eps", (4, 1)))
    assert ring.cup is original and bounds.height is ring.height
    calls, self_s = tracer.self_times()
    index = {name: i for i, name in enumerate(tracer.names)}
    assert calls[index["bounds.tc_sphere_bundle"]] == 1
    assert calls[index["ring.lh_height"]] == 2  # R2 and the known-secat rule each compute it
    assert calls[index["ring.cup"]] > 0
    assert (self_s >= -1e-9).all()


def test_tail_has_ten_calls_beyond_it():
    latencies = [float(i) for i in range(100)]
    value, percentile = run.tail(latencies)
    assert sum(x > value for x in latencies) == 10
    assert percentile == 90.0
