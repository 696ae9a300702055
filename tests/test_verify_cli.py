"""Tests for ``python -m repro verify``: report schema, exit codes, smoke."""

import json

import pytest

from repro.cli import main
from repro.errors import VerificationError
from repro.verify import build_report, load_report, run_verify, write_report
from repro.verify.report import (
    CELL_KEYS,
    ENVELOPE_KEYS,
    REPORT_SCHEMA,
    SCHEMA_VERSION,
    VERIFY_BODY_KEYS,
)
from repro.verify.runner import Cell

ONE_CELL = [Cell(2, 2, "broadcast", "small", 2048)]


# ---------------------------------------------------------------------------
# golden report schema
# ---------------------------------------------------------------------------


def test_report_carries_full_golden_schema(tmp_path):
    body = run_verify(ONE_CELL, schedules=4, seed=0)
    report = build_report(body, label="test")
    path = tmp_path / "report.json"
    write_report(str(path), report)
    loaded = load_report(str(path))

    assert sorted(loaded) == sorted(ENVELOPE_KEYS)
    assert loaded["schema"] == REPORT_SCHEMA
    assert loaded["schema_version"] == SCHEMA_VERSION
    assert loaded["label"] == "test"
    for key in VERIFY_BODY_KEYS:
        assert key in loaded["body"], key
    for cell_entry in loaded["body"]["cells"]:
        assert sorted(cell_entry) == sorted(CELL_KEYS)
    totals = loaded["body"]["totals"]
    assert totals["cells"] == 1
    assert totals["schedules"] >= 4
    assert loaded["body"]["ok"] is True


def test_report_serialization_is_byte_stable(tmp_path):
    body = run_verify(ONE_CELL, schedules=4, seed=0)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_report(str(a), build_report(body, label="x"))
    write_report(str(b), build_report(run_verify(ONE_CELL, schedules=4, seed=0), label="x"))
    assert a.read_bytes() == b.read_bytes()


def test_load_report_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "something-else", "schema_version": 1}))
    with pytest.raises(VerificationError):
        load_report(str(path))
    path.write_text(json.dumps({"schema": REPORT_SCHEMA, "schema_version": 999}))
    with pytest.raises(VerificationError):
        load_report(str(path))


def test_report_counts_schedules_and_violations():
    body = run_verify(ONE_CELL, schedules=5, seed=2)
    entry = body["cells"][0]
    assert entry["schedules_explored"] == entry["distinct_signatures"] >= 5
    assert body["totals"]["schedules"] == entry["schedules_explored"]
    assert body["totals"]["violations"] == 0


# ---------------------------------------------------------------------------
# CLI behaviour
# ---------------------------------------------------------------------------


def test_cli_verify_quick_writes_report_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(
        [
            "verify",
            "--quick",
            "--quiet",
            "--schedules",
            "4",
            "--json-out",
            str(out),
        ]
    )
    assert code == 0
    report = load_report(str(out))
    assert report["body"]["ok"] is True
    assert report["body"]["totals"]["violations"] == 0
    assert "cells ok" in capsys.readouterr().out


def test_cli_verify_explicit_grid_and_dfs(capsys):
    code = main(
        [
            "verify",
            "--nodes",
            "2",
            "--procs",
            "2",
            "--ops",
            "barrier",
            "--schedules",
            "4",
            "--explorer",
            "dfs",
            "--no-faults",
            "--quiet",
        ]
    )
    assert code == 0
    assert "(ok)" in capsys.readouterr().out


def test_cli_verify_rejects_unknown_operation(capsys):
    assert main(["verify", "--ops", "alltoallv", "--quiet"]) == 2


def test_cli_verify_smoke_passes_and_reports(tmp_path, capsys):
    out = tmp_path / "smoke.json"
    code = main(["verify", "--smoke", "--quiet", "--json-out", str(out)])
    assert code == 0
    report = load_report(str(out))
    assert report["body"]["mode"] == "mutation-smoke"
    assert report["body"]["ok"] is True
    detected = [m for m in report["body"]["mutations"] if m["detected"]]
    assert len(detected) == len(report["body"]["mutations"]) >= 5
    assert "5/5 injected bugs detected" in capsys.readouterr().out


def test_cli_verify_progress_lines(capsys):
    code = main(
        ["verify", "--nodes", "2", "--procs", "2", "--ops", "barrier", "--schedules", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    # One blocking cell, the two overlap (plan2/plans) cells, and the
    # compiled-replay windows cell (barrier has no buffers to rebind).
    assert "verify [1/4] barrier/n2xp2" in out
    assert "/plan2" in out and "/plans" in out and "/replay" in out
