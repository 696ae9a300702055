"""Tests for the CSV/JSON export of sweep results."""

import csv
import io
import json

import pytest

from repro.bench.export import (
    bench_identity as make_identity,
)
from repro.bench.export import (
    collect_sweep,
    identity_fingerprint,
    rows_from_measurements,
    to_csv,
    to_json,
)
from repro.bench.runner import Measurement
from repro.bench.sweeps import clear_cache
from repro.cli import main


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


SAMPLE = [
    Measurement("srm", "broadcast", 1024, 32, 12.5e-6, 3, nodes=2),
    Measurement("ibm", "broadcast", 1024, 32, 25.0e-6, 3, nodes=2),
]


def test_rows_preserve_fields():
    rows = rows_from_measurements(SAMPLE)
    assert rows[1] == {
        "stack": "srm",
        "operation": "broadcast",
        "nbytes": 1024,
        "nodes": 2,
        "total_tasks": 32,
        "repeats": 3,
        "microseconds": pytest.approx(12.5),
    }


def test_rows_sorted_by_op_stack_size_nodes():
    shuffled = [
        Measurement("srm", "reduce", 64, 4, 1e-6, 3, nodes=1),
        Measurement("srm", "broadcast", 1024, 4, 1e-6, 3, nodes=1),
        Measurement("srm", "broadcast", 64, 8, 1e-6, 3, nodes=2),
        Measurement("ibm", "broadcast", 64, 4, 1e-6, 3, nodes=1),
        Measurement("srm", "broadcast", 64, 4, 1e-6, 3, nodes=1),
    ]
    keys = [
        (row["operation"], row["stack"], row["nbytes"], row["nodes"])
        for row in rows_from_measurements(shuffled)
    ]
    assert keys == sorted(keys)


def test_identity_embeds_cost_model_and_config():
    identity = make_identity()
    assert identity["tasks_per_node"] == 16
    assert identity["srm_config"]["small_protocol_max"] == 64 * 1024
    assert "cost_model" in identity
    json.dumps(identity)  # nested dataclasses must flatten to plain JSON


def test_identity_fingerprint_is_stable_and_sensitive():
    identity = make_identity()
    assert identity_fingerprint(identity) == identity_fingerprint(make_identity())
    other = make_identity(tasks_per_node=4)
    assert identity_fingerprint(other) != identity_fingerprint(identity)


def test_csv_round_trips():
    text = to_csv(SAMPLE)
    comment, body = text.split("\n", 1)
    assert comment.startswith("# repro-bench identity ")
    parsed = list(csv.DictReader(io.StringIO(body)))
    assert len(parsed) == 2
    assert parsed[0]["stack"] == "ibm"
    assert float(parsed[1]["microseconds"]) == pytest.approx(12.5)


def test_json_round_trips():
    parsed = json.loads(to_json(SAMPLE))
    assert parsed["fingerprint"] == identity_fingerprint(parsed["identity"])
    rows = parsed["rows"]
    assert rows[0]["operation"] == "broadcast"
    assert rows[0]["microseconds"] == pytest.approx(25.0)


def test_collect_sweep_barrier_only(monkeypatch):
    # Shrink the grid so the test is quick.
    monkeypatch.setattr("repro.bench.figures.processor_configs", lambda: [1])
    monkeypatch.setattr("repro.bench.figures.message_sizes", lambda: [64])
    measurements = collect_sweep(operations=("barrier",), stacks=("srm", "ibm"))
    assert len(measurements) == 2
    assert {m.stack for m in measurements} == {"SRM", "IBM MPI"}


def test_collect_sweep_sized_operations(monkeypatch):
    monkeypatch.setattr("repro.bench.figures.processor_configs", lambda: [1])
    monkeypatch.setattr("repro.bench.figures.message_sizes", lambda: [64, 1024])
    measurements = collect_sweep(operations=("broadcast",), stacks=("srm",))
    assert len(measurements) == 2
    assert {m.nbytes for m in measurements} == {64, 1024}


def test_cli_export_stdout(monkeypatch, capsys):
    monkeypatch.setattr("repro.bench.figures.processor_configs", lambda: [1])
    monkeypatch.setattr("repro.bench.figures.message_sizes", lambda: [64])
    assert main(["export", "--ops", "barrier", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# repro-bench identity ")
    assert out.splitlines()[1].startswith("operation,stack")
    assert "SRM" in out


def test_cli_export_file(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr("repro.bench.figures.processor_configs", lambda: [1])
    monkeypatch.setattr("repro.bench.figures.message_sizes", lambda: [64])
    target = tmp_path / "sweep.json"
    assert main(["export", "--ops", "barrier", "--format", "json", "--out", str(target)]) == 0
    parsed = json.loads(target.read_text())
    assert all(row["operation"] == "barrier" for row in parsed["rows"])
    assert "wrote" in capsys.readouterr().out
