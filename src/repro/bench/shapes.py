"""Executable figure-shape assertions, evaluated from a snapshot.

EXPERIMENTS.md argues that the accountable claims of this reproduction are
*shapes* — who wins, where the crossovers and protocol switches fall — not
absolute microseconds.  This module turns those prose claims into checks a
CI gate can run against any ``BENCH_*.json`` snapshot:

* ``monotone-in-size`` / ``monotone-in-procs`` — Figs. 6-8's log-log curves
  grow with message size and with processor count, for every stack;
* ``srm-wins-small`` — SRM at or under both MPI baselines for every size
  ≤ 64 KB at the largest P, on broadcast/reduce/allreduce (the headline of
  Figs. 6-8's right panels);
* ``srm-wins-barrier`` — Fig. 12: SRM fastest at every processor count;
* ``fig8-baseline-crossing`` — MPICH above IBM MPI for tiny allreduces but
  below it in the 4-16 KB band at the largest P (the visible crossing caused
  by IBM's recursive doubling paying rendezvous handshakes);
* ``broadcast-protocol-switch`` — the paper's §2.4 switch points are intact
  (64 KB small→large, 8 KB pipelining threshold) and the cost *per byte*
  falls from the latency-bound small regime through 64 KB to the streamed
  large protocol, i.e. each protocol earns its regime.

A slowdown that preserves all shapes is a calibration question; a shape
violation means the reproduction no longer shows what the paper showed —
the gate fails on either, but reports them differently.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.bench.report import format_bytes
from repro.obs.calib import PAPER_SWITCH_POINTS

__all__ = ["ShapeResult", "check_shapes", "format_shape_results", "SMALL_MAX"]

#: The paper's broadcast switch points: ``SRMConfig`` field -> bytes.
_BROADCAST_SWITCHES = {s: n for op, s, n, _, _ in PAPER_SWITCH_POINTS if op == "broadcast"}
#: The paper's small-message band (and broadcast protocol switch): 64 KB.
SMALL_MAX = _BROADCAST_SWITCHES["small_protocol_max"]

#: Slack for the monotonicity checks: simulated curves are deterministic,
#: but buffer-alternation effects allow a hair of non-monotone jitter.
_MONOTONE_SLACK = 0.02


@dataclass(frozen=True)
class ShapeResult:
    """One shape claim's verdict against one snapshot."""

    name: str
    ok: bool
    detail: str


class _Grid:
    """Index of snapshot cells: (operation, stack, nbytes, nodes) -> µs."""

    def __init__(self, snapshot: dict) -> None:
        self.cells: dict[tuple, float] = {}
        for cell in snapshot["cells"]:
            key = (cell["operation"], cell["stack"], cell["nbytes"], cell["nodes"])
            self.cells[key] = cell["microseconds"]
        self.operations = sorted({key[0] for key in self.cells})
        self.stacks = sorted({key[1] for key in self.cells})
        self.nodes = sorted({key[3] for key in self.cells})

    def us(self, operation: str, stack: str, nbytes: int, nodes: int) -> float | None:
        return self.cells.get((operation, stack, nbytes, nodes))

    def sizes(self, operation: str, stack: str, nodes: int) -> list[int]:
        return sorted(
            key[2]
            for key in self.cells
            if key[0] == operation and key[1] == stack and key[3] == nodes
        )


def check_shapes(snapshot: dict) -> list[ShapeResult]:
    """Every shape claim the snapshot's grid can support, evaluated."""
    grid = _Grid(snapshot)
    results = [
        _monotone_in_size(grid),
        _monotone_in_procs(grid),
        _srm_wins_small(grid),
        _srm_wins_barrier(grid),
        _fig8_crossing(grid),
        _broadcast_protocol_switch(grid, snapshot),
    ]
    return [result for result in results if result is not None]


def format_shape_results(results: typing.Sequence[ShapeResult]) -> str:
    lines = []
    for result in results:
        mark = "ok " if result.ok else "FAIL"
        lines.append(f"  [{mark}] {result.name}: {result.detail}")
    failed = sum(1 for result in results if not result.ok)
    lines.append(
        f"shapes: {len(results) - failed}/{len(results)} hold"
        + ("" if not failed else f" ({failed} violated)")
    )
    return "\n".join(lines)


def _monotone_in_size(grid: _Grid) -> ShapeResult:
    violations = []
    for operation in grid.operations:
        if operation == "barrier":
            continue
        for stack in grid.stacks:
            for nodes in grid.nodes:
                sizes = grid.sizes(operation, stack, nodes)
                for small, large in zip(sizes, sizes[1:]):
                    t_small = grid.us(operation, stack, small, nodes)
                    t_large = grid.us(operation, stack, large, nodes)
                    if t_large < t_small * (1 - _MONOTONE_SLACK):
                        violations.append(
                            f"{operation}/{stack} x{nodes}: "
                            f"{format_bytes(large)} ({t_large:.1f}us) < "
                            f"{format_bytes(small)} ({t_small:.1f}us)"
                        )
    return _verdict(
        "monotone-in-size", violations, "latency grows with message size everywhere"
    )


def _monotone_in_procs(grid: _Grid) -> ShapeResult:
    violations = []
    for operation in grid.operations:
        for stack in grid.stacks:
            sizes = {key[2] for key in grid.cells if key[0] == operation and key[1] == stack}
            for nbytes in sorted(sizes):
                for few, many in zip(grid.nodes, grid.nodes[1:]):
                    t_few = grid.us(operation, stack, nbytes, few)
                    t_many = grid.us(operation, stack, nbytes, many)
                    if t_few is None or t_many is None:
                        continue
                    if t_many < t_few * (1 - _MONOTONE_SLACK):
                        violations.append(
                            f"{operation}/{stack} {format_bytes(nbytes)}: "
                            f"x{many} nodes ({t_many:.1f}us) < x{few} ({t_few:.1f}us)"
                        )
    return _verdict(
        "monotone-in-procs", violations, "latency grows with processor count everywhere"
    )


def _srm_wins_small(grid: _Grid) -> ShapeResult | None:
    if "srm" not in grid.stacks:
        return None
    baselines = [stack for stack in grid.stacks if stack != "srm"]
    top = grid.nodes[-1]
    violations = []
    checked = 0
    for operation in ("allreduce", "broadcast", "reduce"):
        if operation not in grid.operations:
            continue
        for nbytes in grid.sizes(operation, "srm", top):
            if nbytes > SMALL_MAX:
                continue
            srm = grid.us(operation, "srm", nbytes, top)
            for baseline in baselines:
                other = grid.us(operation, baseline, nbytes, top)
                if other is None:
                    continue
                checked += 1
                if srm > other:
                    violations.append(
                        f"{operation} {format_bytes(nbytes)} x{top}: "
                        f"srm {srm:.1f}us > {baseline} {other:.1f}us"
                    )
    return _verdict(
        "srm-wins-small",
        violations,
        f"SRM <= both baselines at every size <= 64KB, x{top} nodes "
        f"({checked} comparisons)",
    )


def _srm_wins_barrier(grid: _Grid) -> ShapeResult | None:
    if "barrier" not in grid.operations or "srm" not in grid.stacks:
        return None
    violations = []
    for nodes in grid.nodes:
        srm = grid.us("barrier", "srm", 0, nodes)
        for baseline in grid.stacks:
            if baseline == "srm":
                continue
            other = grid.us("barrier", baseline, 0, nodes)
            if other is not None and srm is not None and srm >= other:
                violations.append(
                    f"x{nodes} nodes: srm {srm:.1f}us >= {baseline} {other:.1f}us"
                )
    return _verdict(
        "srm-wins-barrier", violations, "SRM barrier fastest at every node count"
    )


def _fig8_crossing(grid: _Grid) -> ShapeResult | None:
    if "ibm" not in grid.stacks or "mpich" not in grid.stacks:
        return None
    if "allreduce" not in grid.operations:
        return None
    top = grid.nodes[-1]
    sizes = grid.sizes("allreduce", "ibm", top)
    if not sizes:
        return None
    tiny = sizes[0]
    mid_band = [nbytes for nbytes in sizes if 4 * 1024 <= nbytes <= 16 * 1024]
    violations = []
    ibm_tiny = grid.us("allreduce", "ibm", tiny, top)
    mpich_tiny = grid.us("allreduce", "mpich", tiny, top)
    if mpich_tiny <= ibm_tiny:
        violations.append(
            f"{format_bytes(tiny)}: mpich {mpich_tiny:.1f}us <= ibm {ibm_tiny:.1f}us "
            f"(expected MPICH above IBM for tiny messages)"
        )
    if not mid_band:
        violations.append("grid has no 4-16KB cell to probe the crossing")
    for nbytes in mid_band:
        ibm_mid = grid.us("allreduce", "ibm", nbytes, top)
        mpich_mid = grid.us("allreduce", "mpich", nbytes, top)
        if mpich_mid >= ibm_mid:
            violations.append(
                f"{format_bytes(nbytes)}: mpich {mpich_mid:.1f}us >= ibm "
                f"{ibm_mid:.1f}us (expected the IBM curve above MPICH mid-band)"
            )
    return _verdict(
        "fig8-baseline-crossing",
        violations,
        f"MPICH above IBM at {format_bytes(tiny)}, below in the 4-16KB band, x{top} nodes",
    )


def _broadcast_protocol_switch(grid: _Grid, snapshot: dict) -> ShapeResult | None:
    if "broadcast" not in grid.operations or "srm" not in grid.stacks:
        return None
    violations = []
    config = snapshot.get("identity", {}).get("srm_config", {})
    for switch, paper_bytes in _BROADCAST_SWITCHES.items():
        if config.get(switch) != paper_bytes:
            violations.append(
                f"{switch} moved off the paper's {format_bytes(paper_bytes)}: {config.get(switch)}"
            )
    top = grid.nodes[-1]
    sizes = grid.sizes("broadcast", "srm", top)
    small = [nbytes for nbytes in sizes if nbytes <= 1024]
    large = [nbytes for nbytes in sizes if nbytes > SMALL_MAX]
    if small and SMALL_MAX in sizes:
        per_byte_small = grid.us("broadcast", "srm", small[-1], top) / small[-1]
        per_byte_switch = grid.us("broadcast", "srm", SMALL_MAX, top) / SMALL_MAX
        if per_byte_switch >= per_byte_small:
            violations.append(
                f"per-byte cost did not fall from {format_bytes(small[-1])} to 64KB "
                f"({per_byte_small:.4f} -> {per_byte_switch:.4f} us/B)"
            )
        if large:
            per_byte_large = grid.us("broadcast", "srm", large[-1], top) / large[-1]
            if per_byte_large >= per_byte_switch:
                violations.append(
                    f"streamed large protocol not cheaper per byte than the 64KB "
                    f"switch point ({per_byte_large:.4f} vs {per_byte_switch:.4f} us/B)"
                )
    return _verdict(
        "broadcast-protocol-switch",
        violations,
        "64KB/8KB switch points intact; per-byte cost falls into each regime",
    )


def _verdict(name: str, violations: list[str], ok_detail: str) -> ShapeResult:
    if violations:
        return ShapeResult(name, False, "; ".join(violations))
    return ShapeResult(name, True, ok_detail)
