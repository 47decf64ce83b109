"""``paramtc bounds --format json`` against ``json.dumps``.

The CLI writes a bound report's JSON through one fixed template;
``references.report_json`` is ``json.dumps(..., sort_keys=True, indent=2)``
of the same payload.  They must agree on any report and on every params
shape ``_cmd_bounds`` passes, and so must the CLI's stdout on every family
and quantity.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramtc.bounds import QUANTITIES, ContradictionError, ProvenanceEntry, Quantity, TCReport
from paramtc.bundle import FAMILIES, family_bundle
from paramtc.cli import _render_report, execute
from references import report_json

# non-ASCII (outside the BMP too), quotes, backslashes and control characters
_SPECIAL_TEXT = ["", '"', "\\", "\\\\n", "\n\t\r\b\f", "\x00\x1f\x7f", "é ∞ ≤", "\U0001d54a", "\ud800"]
_TEXT = st.sampled_from(_SPECIAL_TEXT) | st.text(max_size=12)


@st.composite
def _reports(draw) -> TCReport:
    lower = draw(st.integers(0, 10**20))
    upper = draw(st.none() | st.integers(0, 10**20).map(lambda gap: lower + gap))
    provenance = draw(st.lists(st.builds(ProvenanceEntry, _TEXT, _TEXT, _TEXT), max_size=3))
    notes = draw(st.lists(_TEXT, max_size=3))
    return TCReport(draw(st.sampled_from(Quantity)), lower, upper, tuple(provenance), tuple(notes))


@st.composite
def _params(draw) -> dict:
    """The params of ``_cmd_bounds``: a family with its n (and k for k-eta), or a descriptor; then the quantity."""
    if draw(st.booleans()):
        family = draw(st.sampled_from(FAMILIES))
        params = {"family": family, "n": draw(st.integers(0, 10**6))}
        if family == "k-eta":
            params["k"] = draw(st.integers(1, 10**6))
    else:
        params = {"descriptor": draw(_TEXT)}
    return {"quantity": draw(st.sampled_from(sorted(QUANTITIES))), **params}


@settings(max_examples=300, deadline=None)
@given(_reports(), _params())
def test_json_template_matches_json_dumps(report, params):
    assert _render_report(report, "json", "unused heading", **params) == report_json(report, params)


def test_json_template_writes_empty_lists_and_no_upper():
    report = TCReport(Quantity.PARAMETRIZED_TC, 3, None)
    got = _render_report(report, "json", "unused heading", quantity="tc", descriptor="{}")
    assert got == report_json(report, {"quantity": "tc", "descriptor": "{}"})
    assert '"notes": []' in got and '"provenance": []' in got and '"upper": null' in got


@pytest.mark.parametrize("family", FAMILIES)
def test_stdout_matches_the_reference_for_every_family(capsys, family):
    for quantity in sorted(QUANTITIES):
        for n in range(9):
            for k in (None, 1, 2, 3) if family == "k-eta" else (None,):
                argv = ["bounds", "--family", family, "--n", str(n), "--quantity", quantity, "--format", "json"]
                params = {"quantity": quantity, "family": family, "n": n}
                if k is not None:
                    argv += ["--k", str(k)]
                if family == "k-eta":
                    params["k"] = 1 if k is None else k
                try:
                    report = QUANTITIES[quantity](family_bundle(family, n, params.get("k", 1)))
                except (ContradictionError, ValueError):  # the engine refuses this bundle, and so does the CLI
                    assert execute(argv) == 1
                    capsys.readouterr()
                    continue
                assert execute(argv) == 0
                assert capsys.readouterr().out == report_json(report, params) + "\n"
