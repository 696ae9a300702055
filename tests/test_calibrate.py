"""Tests for the calibration report (`repro.obs.calib`) and its CLI path.

The heavy lifting — dispatch counters and spans on a live machine, the
term-breakdown invariant — is covered in test_dispatch.py and
test_machine_costmodel.py; this file exercises the report builder itself:
document shape, schema validation, jobs-determinism, crossover checks, the
regret scorecard, and the predicted-vs-measured scatter.
"""

import copy
import json

import pytest

from repro.bench.figures import calibration_scatter
from repro.core import SRMConfig
from repro.errors import ConfigurationError
from repro.obs.calib import (
    CALIBRATION_KIND,
    CALIBRATION_SCHEMA_VERSION,
    PAPER_SWITCH_POINTS,
    QUICK_SIZES,
    SCORECARD_POLICIES,
    _crossover_checks,
    _headlines,
    collect_calibration,
    load_calibration_report,
    run_calibrate,
    validate_calibration_report,
)

KB = 1024

# One micro-grid shared by every test in this file: allreduce on 2 nodes,
# two sizes straddling the 16 KB exchange->pipeline switch point.
GRID = dict(
    operations=("allreduce",),
    sizes=[8 * KB, 32 * KB],
    nodes_axis=[2],
    tasks_per_node=2,
    repeats=1,
    label="test",
)


@pytest.fixture(scope="module")
def report():
    return collect_calibration(**GRID)


def test_report_shape_and_cells(report):
    assert report["kind"] == CALIBRATION_KIND
    assert report["schema_version"] == CALIBRATION_SCHEMA_VERSION
    assert report["label"] == "test"
    assert report["fingerprint"]
    assert report["grid"]["sizes"] == [8 * KB, 32 * KB]
    assert set(report["terms"]) == {"copy", "wire", "reduce", "eager", "other"}
    assert len(report["cells"]) == 2
    for cell in report["cells"]:
        assert cell["operation"] == "allreduce"
        assert set(cell["variants"]) == {"exchange", "pipeline", "ring"}
        assert cell["best"] in cell["variants"]
        best_entry = cell["variants"][cell["best"]]
        assert best_entry["measured_us"] == cell["best_us"] > 0
        # Selections were scored for every scorecard policy.
        assert set(cell["selections"]) == set(SCORECARD_POLICIES)
        for entry in cell["variants"].values():
            if entry["measured_us"] is None:
                continue
            assert entry["predicted_us"] == pytest.approx(
                sum(entry["predicted_terms_us"].values()), rel=1e-3
            )


def test_report_validates(report):
    validate_calibration_report(report)


def test_model_error_groups_carry_term_attribution(report):
    (group,) = report["model_error"]
    assert group["operation"] == "allreduce" and group["nodes"] == 2
    assert group["mean_abs_log2_error"] is not None
    for entry in group["by_variant"].values():
        assert entry["cells"] >= 1
        # With 2 cells and >=2 active terms the lstsq fit may be
        # underdetermined (None); when present, scales are positive-keyed.
        if entry["term_scales"] is not None:
            assert all(term in report["terms"] for term in entry["term_scales"])


def test_crossover_check_spans_the_exchange_switch(report):
    checks = [c for c in report["crossovers"] if c["switch"] == "allreduce_exchange_max"]
    assert len(checks) == 1
    check = checks[0]
    assert check["paper_bytes"] == 16 * KB
    assert check["below"] == "exchange" and check["above"] == "pipeline"
    assert check["spanned"] is True
    # The threshold is inclusive-below: paper's first pipeline size is the
    # first grid size *above* 16 KB.
    assert check["paper_first_above"] == 32 * KB
    assert check["agrees"] in (True, False)


def test_regret_scorecard_covers_all_policies(report):
    regret = report["regret"]
    assert set(SCORECARD_POLICIES) <= set(regret)
    for name in SCORECARD_POLICIES:
        entry = regret[name]
        assert entry["cells"] == 2
        assert entry["total_regret_us"] >= 0
        assert entry["mis_selections"] >= 0
        assert "allreduce" in entry["by_op"]
    # The self-trained tuned row replays this grid's winners: zero regret
    # by construction, and flagged as such.
    assert regret["tuned"]["trained_on_grid"] is True
    assert regret["tuned"]["total_regret_us"] == 0
    assert regret["tuned"]["mis_selections"] == 0


def test_headlines_lead_with_the_scorecard(report):
    assert report["headlines"]
    assert report["headlines"][0].startswith("policy scorecard over 2 cells:")
    assert all(name in report["headlines"][0] for name in SCORECARD_POLICIES)


def test_cost_mis_selections_are_headlined_on_the_picked_variant():
    """A hand-built report of the default grid's 16-node 1 MB allreduce:
    exchange drifts most, the cost policy picked pipeline and ring won.  The
    regret is counted once, on the line naming pipeline and ring, and the
    exchange drift line carries none."""
    drift = {"term": "copy", "direction": "over", "factor": 1.6}
    model_error = [
        {
            "operation": "allreduce",
            "nodes": 16,
            "by_variant": {
                "exchange": {"dominant_term_drift": drift},
                "pipeline": {"dominant_term_drift": None},
                "ring": {"dominant_term_drift": None},
            },
        }
    ]
    regret = {
        name: {"cells": 3, "total_regret_us": 0.0, "mis_selections": 0}
        for name in SCORECARD_POLICIES
    }
    regret["cost"].update(total_regret_us=5076.9, mis_selections=1)
    cost_misses = {("allreduce", 16, "pipeline", "ring"): [(1024 * KB, 5076.9)]}
    lines = _headlines(model_error, regret, [], cost_misses)
    assert lines[1:] == [
        "cost model overpredicts copy 1.6x for allreduce exchange on 16 nodes",
        "cost policy picked pipeline over winner ring for allreduce at 1MB on 16 nodes "
        "-> 1 mis-selection, +5076.9us regret",
    ]


def test_crossovers_report_the_bracket_the_grid_resolves():
    """Hand-built reduce cells on the default grid's sizes.  The measured
    switch is only known to lie above the last size where ``below`` still
    wins and at or below the first where ``above`` wins; the error is that
    bracket against the paper's threshold, not the distance between the
    measured switch and the paper's first switched grid size."""
    sizes = (8, 512, 8 * KB, 64 * KB, 1024 * KB)

    def cell(nodes, nbytes, small, pipelined, large):
        measured = {"small": small, "pipelined": pipelined, "large": large}
        return {
            "operation": "reduce",
            "nodes": nodes,
            "nbytes": nbytes,
            "variants": {name: {"measured_us": us} for name, us in measured.items()},
        }

    cells = [
        # 4 nodes: small wins up to 512 B, pipelined from 8 KB.
        *(cell(4, n, 1.0, 2.0, 3.0) for n in sizes[:2]),
        *(cell(4, n, 3.0, 1.0, 2.0) for n in sizes[2:]),
        # 1 node: large beats pipelined from 8 KB.
        *(cell(1, n, 1.0, 2.0, 3.0) for n in sizes[:2]),
        *(cell(1, n, 3.0, 2.0, 1.0) for n in sizes[2:]),
    ]
    checks = {
        (check["nodes"], check["switch"]): check
        for check in _crossover_checks(cells, ("reduce",), [1, 4])
    }
    early = checks[(4, "pipeline_min")]
    assert early["measured_bracket"] == [512, 8 * KB]
    assert early["error_octaves"] == [-4.0, 0.0]
    assert early["agrees"] is False
    assert checks[(1, "small_protocol_max")]["error_octaves"] == [-7.0, -3.0]
    # 4 nodes, pipelined->large: pipelined wins everywhere, so the switch
    # lies beyond the grid, more than 4 octaves above 64 KB.
    late = checks[(4, "small_protocol_max")]
    assert late["measured_bracket"] == [1024 * KB, None]
    assert late["error_octaves"] == [4.0, None]
    # 1 node, small->pipelined: the switch lies inside (512 B, 8 KB] and
    # the paper's (just above 8 KB) does not, so it disagrees.
    assert checks[(1, "pipeline_min")]["agrees"] is False

    regret = {
        name: {"cells": 10, "total_regret_us": 0.0, "mis_selections": 0}
        for name in SCORECARD_POLICIES
    }
    lines = _headlines([], regret, [early, checks[(1, "small_protocol_max")], late], {})
    assert lines[1:] == [
        "measured reduce small->pipelined crossover in (512B, 8KB] vs paper's switch "
        "above 8KB (pipeline_min) on 4 nodes, 0 to 4 octaves early",
        "measured reduce pipelined->large crossover in (512B, 8KB] vs paper's switch "
        "above 64KB (small_protocol_max) on 1 nodes, 3 to 7 octaves early",
        "measured reduce pipelined->large crossover never inside the grid (above 1MB) "
        "vs paper's switch above 64KB (small_protocol_max) on 4 nodes, more than 4 "
        "octaves late",
    ]


def test_a_crossover_inside_the_papers_bracket_agrees():
    cells = [
        {
            "operation": "allreduce",
            "nodes": 2,
            "nbytes": nbytes,
            "variants": {
                "exchange": {"measured_us": 1.0 if nbytes <= 16 * KB else 2.0},
                "pipeline": {"measured_us": 1.5},
            },
        }
        for nbytes in (8 * KB, 16 * KB, 32 * KB)
    ]
    (check,) = _crossover_checks(cells, ("allreduce",), [2])
    assert check["measured_bracket"] == [16 * KB, 32 * KB]
    assert check["error_octaves"] == [0.0, 1.0]
    assert check["agrees"] is True


def test_report_is_byte_identical_at_any_jobs_setting(report):
    parallel = collect_calibration(**GRID, jobs=2)
    assert json.dumps(parallel, sort_keys=True) == json.dumps(
        report, sort_keys=True
    )


def test_external_tuned_table_is_scored_instead_of_grid_winners(report):
    from repro.core.dispatch import TUNED_TABLE_KIND, TUNED_TABLE_SCHEMA_VERSION

    # A deliberately wrong table: pipeline everywhere, including 8 KB where
    # exchange wins. Scoring it must cost regret and drop the grid flag.
    table = {
        "kind": TUNED_TABLE_KIND,
        "schema_version": TUNED_TABLE_SCHEMA_VERSION,
        "label": "wrong",
        "table": {"allreduce": {"2": [[1024 * KB, "pipeline"]]}},
    }
    document = collect_calibration(**GRID, tuned_document=table)
    tuned = document["regret"]["tuned"]
    assert tuned["trained_on_grid"] is False
    expected = [
        cell for cell in document["cells"] if cell["best"] != "pipeline"
    ]
    assert tuned["mis_selections"] == len(expected)
    if expected:
        assert tuned["total_regret_us"] > 0


def test_calibration_scores_the_tune_race_and_ties_go_to_registration_order():
    from repro.bench.tune import collect_table
    from repro.core.dispatch import variants_for

    grid = dict(
        operations=("broadcast",), sizes=[8, 8 * KB], nodes_axis=[1, 2],
        tasks_per_node=2, repeats=1,
    )
    winners = {
        (cell["operation"], cell["nodes"], cell["nbytes"]): cell["winner"]
        for cell in collect_table(**grid)["cells"]
    }
    report = collect_calibration(**grid)
    assert {
        (cell["operation"], cell["nodes"], cell["nbytes"]): cell["best"]
        for cell in report["cells"]
    } == winners
    # On one node an 8 B broadcast never leaves the node, so all three
    # variants run the same steps and tie exactly; the tie goes to the
    # variant registered first, in the race and in the report alike.
    from repro.bench.tune import race

    (tied,) = race(("broadcast",), [8], [1], tasks_per_node=2, repeats=1)
    assert len(set(tied["microseconds"].values())) == 1
    first = variants_for("broadcast")[0].name
    assert tied["winner"] == first == winners[("broadcast", 1, 8)]


def test_validation_rejects_malformed_documents(report):
    with pytest.raises(ConfigurationError):
        validate_calibration_report({"kind": "something-else"})
    with pytest.raises(ConfigurationError):
        validate_calibration_report({**report, "schema_version": 999})
    for key in ("cells", "model_error", "crossovers", "headlines"):
        with pytest.raises(ConfigurationError):
            validate_calibration_report({**report, key: []})
    missing = dict(report)
    del missing["fingerprint"]
    with pytest.raises(ConfigurationError):
        validate_calibration_report(missing)
    negative = copy.deepcopy(report)
    negative["regret"]["paper"]["total_regret_us"] = -1.0
    with pytest.raises(ConfigurationError):
        validate_calibration_report(negative)
    unknown_term = copy.deepcopy(report)
    first_variant = next(iter(unknown_term["cells"][0]["variants"].values()))
    first_variant["predicted_terms_us"]["teleport"] = 1.0
    with pytest.raises(ConfigurationError):
        validate_calibration_report(unknown_term)


def test_validation_rejects_unknown_operation():
    with pytest.raises(ConfigurationError):
        collect_calibration(operations=("telepathy",), sizes=[1024], nodes_axis=[2])


def test_run_calibrate_writes_a_loadable_validated_report(tmp_path, report, monkeypatch):
    # Route the full-grid branch through the micro-grid so the CLI path
    # (validate -> write_snapshot -> reload) stays test-sized.
    import repro.obs.calib as calib

    def tiny(operations=None, label="calibration", progress=None, jobs=1,
             tuned_document=None, **kwargs):
        return collect_calibration(**{**GRID, "label": label})

    monkeypatch.setattr(calib, "collect_calibration", tiny)
    path = tmp_path / "CALIB_report.json"
    document = run_calibrate(out=str(path), label="roundtrip")
    assert document["label"] == "roundtrip"
    loaded = load_calibration_report(str(path))
    assert loaded == json.loads(json.dumps(document))
    # Byte-stable serialization: a rewrite reproduces the file exactly.
    first = path.read_bytes()
    run_calibrate(out=str(path), label="roundtrip")
    assert path.read_bytes() == first


def test_quick_grid_spans_the_paper_switch_points():
    # The CI micro-grid must keep straddling the 8 KB (pipeline_min) and
    # 16 KB (allreduce_exchange_max) switch points.
    assert min(QUICK_SIZES) <= 8 * KB < max(QUICK_SIZES)
    assert min(QUICK_SIZES) <= 16 * KB < max(QUICK_SIZES)


def test_calibration_scatter_renders(report):
    chart = calibration_scatter(report)
    assert "predicted vs measured latency" in chart
    assert "measured us" in chart and "predicted us" in chart
    empty = calibration_scatter({**report, "cells": []})
    assert empty == "calibration scatter: no measured cells"


def test_srm_config_defaults_are_the_paper_switch_points():
    # Two independent witnesses of the paper's §2.4 thresholds: moving
    # either the SRMConfig default or the table alone fails here.
    config = SRMConfig()
    for _op, switch, paper_bytes, _below, _above in PAPER_SWITCH_POINTS:
        assert getattr(config, switch) == paper_bytes, switch
