"""Post-run invariant auditing for simulated machines.

After a collective program completes (and the engine drains), the machine
must be back in a steady state: no live transfers on any link, no posted or
unexpected MPI messages left behind, eager pools back at full credit, and no
process still blocked.  :func:`audit_machine` checks all of that and returns
a report; tests call it to catch protocol leaks that produce correct *data*
but would poison the next operation.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.machine.cluster import Machine

__all__ = ["AuditReport", "audit_machine"]


@dataclass
class AuditReport:
    """Findings of one machine audit; empty ``problems`` means clean."""

    problems: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.problems

    def __str__(self) -> str:
        if self.clean:
            return "audit: clean"
        return "audit problems:\n  " + "\n  ".join(self.problems)


def audit_machine(machine: Machine, drain: bool = True) -> AuditReport:
    """Check the machine's steady-state invariants.

    ``drain`` first runs the engine to exhaustion so off-critical-path
    helpers (acknowledgement puts, deliveries) can finish — but stalled
    deliveries waiting on a disabled-interrupt gate cannot complete and are
    reported as problems.
    """
    report = AuditReport()
    if drain:
        machine.engine.run()

    for node in machine.nodes:
        for link, label in (
            (node.bus, f"bus[{node.index}]"),
            (node.nic_out, f"nic_out[{node.index}]"),
            (node.nic_in, f"nic_in[{node.index}]"),
        ):
            if link.active_transfers:
                report.problems.append(
                    f"{label} still has {link.active_transfers} active transfers"
                )

    for task in machine.tasks:
        endpoint = task.mpi
        posted, unexpected = endpoint.queues.depth
        if posted:
            report.problems.append(f"rank {task.rank}: {posted} receives still posted")
        if unexpected:
            report.problems.append(
                f"rank {task.rank}: {unexpected} unexpected messages never received"
            )
        if endpoint.eager_pool.free != endpoint.eager_pool.capacity:
            report.problems.append(
                f"rank {task.rank}: eager pool holds "
                f"{endpoint.eager_pool.capacity - endpoint.eager_pool.free} leaked bytes"
            )
        if task.lapi.in_lapi_call:
            report.problems.append(f"rank {task.rank}: still inside a LAPI call")
        if task.lapi.stats.stalled_deliveries and not task.lapi.interrupts_enabled:
            # Not necessarily a leak (counts historical stalls), but a task
            # left with interrupts off can strand future deliveries.
            report.problems.append(
                f"rank {task.rank}: interrupts left disabled after stalled deliveries"
            )
    return report


def assert_clean(machine: Machine) -> None:
    """Raise ``AssertionError`` with the findings if the audit is not clean."""
    report = audit_machine(machine)
    assert report.clean, str(report)


if typing.TYPE_CHECKING:  # pragma: no cover
    __all__.append("assert_clean")
