"""Tests for benchmark telemetry snapshots (capture, schema, determinism)."""

import json
from pathlib import Path

import pytest

from repro.bench.snapshot import (
    bench_sizes as snapshot_sizes,
)
from repro.bench.snapshot import (
    SCHEMA_VERSION,
    SNAPSHOT_KIND,
    capture_cell,
    cell_key,
    cell_seed,
    collect_snapshot,
    load_snapshot,
    write_snapshot,
)
from repro.cli import main
from repro.errors import ConfigurationError


@pytest.fixture
def tiny_grid(monkeypatch):
    monkeypatch.setattr("repro.bench.snapshot.message_sizes", lambda: [512])
    monkeypatch.setattr("repro.bench.snapshot.processor_configs", lambda: [1, 2])


# -- grid -------------------------------------------------------------------


def test_bench_sizes_capped_at_1mb_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
    sizes = snapshot_sizes()
    assert max(sizes) == 1024 * 1024
    assert 8 in sizes


def test_bench_sizes_full_grid(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_FULL", "1")
    assert max(snapshot_sizes()) == 8 * 1024 * 1024


# -- capture ----------------------------------------------------------------


def test_capture_cell_srm_has_telemetry():
    cell = capture_cell("srm", "allreduce", 4096, nodes=2, tasks_per_node=2)
    assert cell["microseconds"] > 0
    assert cell["total_tasks"] == 4
    assert cell["metrics"]["task.copies"] > 0
    path = cell["critical_path"]
    assert path is not None
    assert path["phases_us"]
    # The walk partitions the timed window: attribution is essentially total.
    assert path["attributed_us"] == pytest.approx(path["total_us"], rel=1e-6)


def test_capture_cell_baseline_stack_records_substrate_only():
    # MPI baselines record substrate spans (copies, reduce-apply) but no SRM
    # protocol phases, so much of their critical path stays untracked.
    cell = capture_cell("ibm", "allreduce", 4096, nodes=2, tasks_per_node=2)
    assert cell["microseconds"] > 0
    path = cell["critical_path"]
    assert path is not None
    assert "(untracked)" in path["phases_us"]


def test_capture_cell_rejects_unknown_operation():
    with pytest.raises(ConfigurationError):
        capture_cell("srm", "transmogrify", 64, nodes=1, tasks_per_node=2)


SEED = Path(__file__).resolve().parent.parent / "BENCH_seed.json"

#: One-node cells whose capture, critical path and wait states included,
#: must equal the committed baseline byte for byte.
PINNED_CELLS = [
    *(
        ("srm", operation, nbytes)
        for operation in ("broadcast", "reduce", "allreduce")
        for nbytes in (8192, 65536)
    ),
    ("srm", "barrier", 0),
    ("ibm", "allreduce", 65536),
    ("mpich", "allreduce", 65536),
]


@pytest.fixture(scope="module")
def seed_cells():
    return {cell_key(cell): cell for cell in load_snapshot(SEED)["cells"]}


@pytest.mark.parametrize("stack,operation,nbytes", PINNED_CELLS)
def test_capture_cell_matches_seed_bytes(seed_cells, stack, operation, nbytes):
    reference = seed_cells[(operation, stack, nbytes, 1)]
    cell = capture_cell(
        stack, operation, nbytes, nodes=1, tasks_per_node=16,
        seed=cell_seed(operation, stack, nbytes, 1),
    )
    assert reference["critical_path"] is not None
    assert json.dumps(cell, sort_keys=True) == json.dumps(reference, sort_keys=True)


# -- snapshot document ------------------------------------------------------


def test_collect_snapshot_document_shape(tiny_grid):
    snapshot = collect_snapshot(
        label="t", operations=("barrier", "reduce"), stacks=("srm",), tasks_per_node=2
    )
    assert snapshot["kind"] == SNAPSHOT_KIND
    assert snapshot["schema_version"] == SCHEMA_VERSION
    assert snapshot["label"] == "t"
    assert snapshot["grid"]["operations"] == ["barrier", "reduce"]
    # barrier is sized once (nbytes=0); reduce once per size.
    assert len(snapshot["cells"]) == 2 + 2
    keys = [cell_key(cell) for cell in snapshot["cells"]]
    assert keys == sorted(keys)


def test_collect_snapshot_is_deterministic(tiny_grid):
    first = collect_snapshot(label="t", operations=("reduce",), stacks=("srm",),
                             tasks_per_node=2)
    second = collect_snapshot(label="t", operations=("reduce",), stacks=("srm",),
                              tasks_per_node=2)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_collect_snapshot_rejects_unknown_operation(tiny_grid):
    with pytest.raises(ConfigurationError):
        collect_snapshot(operations=("reduce", "gossip"))


def test_collect_snapshot_reports_progress(tiny_grid):
    seen = []
    collect_snapshot(operations=("barrier",), stacks=("srm",), tasks_per_node=2,
                     progress=seen.append)
    assert len(seen) == 2
    assert all("barrier srm" in line for line in seen)


# -- persistence ------------------------------------------------------------


def test_write_load_roundtrip(tiny_grid, tmp_path):
    snapshot = collect_snapshot(operations=("barrier",), stacks=("srm",),
                                tasks_per_node=2)
    target = tmp_path / "BENCH_t.json"
    write_snapshot(str(target), snapshot)
    assert load_snapshot(str(target)) == snapshot
    # Serialization is byte-stable: write twice, compare bytes.
    again = tmp_path / "BENCH_u.json"
    write_snapshot(str(again), snapshot)
    assert target.read_bytes() == again.read_bytes()


def test_load_rejects_non_snapshot(tmp_path):
    stray = tmp_path / "stray.json"
    stray.write_text(json.dumps({"rows": []}))
    with pytest.raises(ConfigurationError):
        load_snapshot(str(stray))


def test_load_rejects_missing_fields(tmp_path):
    crippled = tmp_path / "crippled.json"
    crippled.write_text(json.dumps({"kind": SNAPSHOT_KIND, "cells": []}))
    with pytest.raises(ConfigurationError):
        load_snapshot(str(crippled))


# -- CLI --------------------------------------------------------------------


def test_cli_bench_writes_snapshot(tiny_grid, tmp_path, capsys):
    target = tmp_path / "BENCH_head.json"
    code = main(["bench", "--ops", "barrier", "--json-out", str(target), "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "wrote" in out and "cells" in out
    snapshot = load_snapshot(str(target))
    assert snapshot["label"] == "head"
    assert all(cell["operation"] == "barrier" for cell in snapshot["cells"])
