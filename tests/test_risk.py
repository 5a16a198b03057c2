import itertools
import json

import pytest

from fivegsim.risk import (
    ComponentKind,
    Impact,
    Likelihood,
    RiskLevel,
    Stride,
    UnsupportedFormat,
    build_risk_matrix,
    classify_risk,
    place,
    render_report,
    stride_exposure,
    stride_set,
)
from fivegsim.scenarios import list_scenarios


def test_exposure_table():
    assert stride_exposure(ComponentKind.PROCESS) == stride_set("STRIDE")
    assert stride_exposure(ComponentKind.DATA_FLOW) == stride_set("TID")
    assert stride_exposure(ComponentKind.DATA_STORE) == stride_set("TID")
    assert stride_exposure(ComponentKind.EXTERNAL_ENTITY) == stride_set("SR")
    assert stride_exposure(ComponentKind.DEVICE) == stride_set("STIDE")


def test_stride_set_reads_letters_in_any_order():
    assert stride_set("DIT") == {Stride.TAMPERING, Stride.INFORMATION_DISCLOSURE,
                                 Stride.DENIAL_OF_SERVICE}


def test_grid_examples():
    assert classify_risk(Likelihood.UNLIKELY, Impact.CRITICAL) == RiskLevel.MEDIUM
    assert classify_risk(Likelihood.VERY_PROBABLE, Impact.MODERATE) == RiskLevel.MEDIUM
    assert classify_risk(Likelihood.ALMOST_CERTAIN, Impact.CATASTROPHIC) == RiskLevel.EXTREME
    assert classify_risk(Likelihood.VERY_UNLIKELY, Impact.LOW) == RiskLevel.LOW


def test_grid_monotone_exhaustive():
    for l1, l2 in itertools.product(Likelihood, Likelihood):
        for i1, i2 in itertools.product(Impact, Impact):
            if l1 <= l2 and i1 <= i2:
                assert classify_risk(l1, i1) <= classify_risk(l2, i2)


def test_place_range_at_upper_bound():
    cell = place("X", Likelihood.UNLIKELY, (Impact.HIGH, Impact.CATASTROPHIC))
    assert cell.impact == Impact.CATASTROPHIC
    assert cell.impact_range == (Impact.HIGH, Impact.CATASTROPHIC)
    assert cell.level == classify_risk(Likelihood.UNLIKELY, Impact.CATASTROPHIC)
    with pytest.raises(ValueError):
        place("X", Likelihood.UNLIKELY, (Impact.CATASTROPHIC, Impact.HIGH))


def test_matrix_places_all_scenarios():
    cells = build_risk_matrix(list_scenarios())
    assert len(cells) == 12
    by_id = {c.scenario_id: c for c in cells}
    very_probable = {c.scenario_id for c in cells
                     if c.likelihood == Likelihood.VERY_PROBABLE}
    assert {"TS_06", "TS_10", "TS_11"} <= very_probable
    assert by_id["TS_08"].impact == Impact.CATASTROPHIC
    assert by_id["TS_08"].impact_range == (Impact.HIGH, Impact.CATASTROPHIC)
    assert by_id["TS_12"].likelihood == Likelihood.PROBABLE
    assert by_id["TS_12"].likelihood_range == (Likelihood.UNLIKELY, Likelihood.PROBABLE)


def test_empty_matrix():
    assert build_risk_matrix([]) == []


def _cells():
    return build_risk_matrix(list_scenarios())


def test_csv_has_header_plus_one_row_per_scenario():
    text = render_report(_cells(), "csv").decode()
    lines = text.strip().split("\n")
    assert len(lines) == 13
    assert lines[0] == "id,stride,likelihood,impact_lo,impact_hi,level"


def test_markdown_grid_dimensions():
    text = render_report(_cells(), "markdown").decode()
    table_rows = [line for line in text.splitlines()
                  if line.startswith("| **")]
    assert len(table_rows) == len(Likelihood)  # 5 likelihood rows
    for row in table_rows:
        assert row.count("|") == len(Impact) + 2  # label + 6 impact columns


def test_render_deterministic():
    for fmt in ("markdown", "csv", "json"):
        assert render_report(_cells(), fmt) == render_report(_cells(), fmt)


def test_json_render_parses():
    records = json.loads(render_report(_cells(), "json").decode())
    assert len(records) == 12
    assert records[0]["id"] == "TS_01"


def test_unsupported_format():
    with pytest.raises(UnsupportedFormat):
        render_report(_cells(), "xml")
