"""The sequence ledger: every slot cursor of a context in one place.

Both ends of every shared-slot edge pick a slot by the parity of a
cumulative count, so after any call every member must hold the same
SMP-broadcast sequence — on single-member nodes too, where the large
broadcast and the exchange allreduce move nothing through shared memory.
"""

import numpy as np
import pytest

from repro.core import SRM, FixedPolicy
from repro.machine import ClusterSpec, Machine
from repro.mpi.ops import SUM

KB = 1024

#: name -> (cluster, group members or None for every task).
SHAPES = {
    "2x2": (ClusterSpec(nodes=2, tasks_per_node=2), None),
    "3-2-3": (ClusterSpec(nodes=3, tasks_per_node=[3, 2, 3]), None),
    "3-1-2": (ClusterSpec(nodes=3, tasks_per_node=[3, 1, 2]), None),
    "group-0-1-2": (ClusterSpec(nodes=2, tasks_per_node=2), [0, 1, 2]),
}
#: At and around the 8 KB, 16 KB and 64 KB cutoffs, and one large message.
SIZES = [8, 8 * KB, 8 * KB + 8, 16 * KB, 16 * KB + 8, 64 * KB, 64 * KB + 8, 150_000]
OPERATIONS = (
    "broadcast", "reduce", "allreduce", "barrier", "scatter",
    "gather", "allgather", "alltoall", "scan", "reduce_scatter",
)


def _calls(srm, members, nbytes):
    """Operation name -> one blocking call per rank, each op's buffers
    sized from ``nbytes`` (bytes per member's contribution)."""
    size = len(members)
    root = members[-1]
    count = max(1, nbytes // 8)

    def doubles(scale=1):
        return {r: np.full(count * scale, float(r + 1)) for r in members}

    def bytes_(length):
        return {r: np.zeros(length, np.uint8) for r in members}

    bcast = bytes_(nbytes)
    src, dst = doubles(), doubles()
    wide, narrow = doubles(size), doubles()
    block, blocks = bytes_(nbytes), bytes_(nbytes * size)
    square = size * max(1, nbytes // size)
    square_send, square_recv = bytes_(square), bytes_(square)
    return {
        "broadcast": lambda t: srm.broadcast(t, bcast[t.rank], root=root),
        "reduce": lambda t: srm.reduce(t, src[t.rank], dst[t.rank], SUM, root=root),
        "allreduce": lambda t: srm.allreduce(t, src[t.rank], dst[t.rank], SUM),
        "barrier": lambda t: srm.barrier(t),
        "scatter": lambda t: srm.scatter(t, blocks[t.rank], block[t.rank], root=root),
        "gather": lambda t: srm.gather(t, block[t.rank], blocks[t.rank], root=root),
        "allgather": lambda t: srm.allgather(t, block[t.rank], blocks[t.rank]),
        "alltoall": lambda t: srm.alltoall(t, square_send[t.rank], square_recv[t.rank]),
        "scan": lambda t: srm.scan(t, src[t.rank], dst[t.rank], SUM),
        "reduce_scatter": lambda t: srm.reduce_scatter(t, wide[t.rank], narrow[t.rank], SUM),
    }


def _bcast_sequences(op, shape, nbytes, policy=None):
    spec, group = SHAPES[shape]
    machine = Machine(spec)
    srm = SRM(machine, group=group, policy=policy)
    members = list(srm.members)
    call = _calls(srm, members, nbytes)[op]

    def program(task):
        yield from call(task)

    machine.launch(program, ranks=members)
    return {rank: srm.ctx.ledger["bcast", rank] for rank in members}


@pytest.mark.parametrize("shape", list(SHAPES))
def test_every_member_agrees_on_the_broadcast_sequence(shape):
    for op in OPERATIONS:
        for nbytes in SIZES if op != "barrier" else [0]:
            sequences = _bcast_sequences(op, shape, nbytes)
            assert len(set(sequences.values())) == 1, (op, nbytes, sequences)
    for nbytes in SIZES:
        sequences = _bcast_sequences("allreduce", shape, nbytes, FixedPolicy({"allreduce": "ring"}))
        assert len(set(sequences.values())) == 1, ("ring", nbytes, sequences)


# ---------------------------------------------------------------------------
# mixed programs on a group whose node 1 holds only rank 2
# ---------------------------------------------------------------------------


def _group_machine():
    machine = Machine(ClusterSpec(nodes=2, tasks_per_node=2))
    return machine, SRM(machine, group=[0, 1, 2])


def test_large_then_small_broadcast_on_a_single_member_node():
    machine, srm = _group_machine()
    members = [0, 1, 2]
    first = ((np.arange(150_000) + 97) % 251).astype(np.uint8)
    second = ((np.arange(40_000) + 194) % 251).astype(np.uint8)
    big = {r: first.copy() if r == 0 else np.zeros_like(first) for r in members}
    small = {r: second.copy() if r == 0 else np.zeros_like(second) for r in members}

    def program(task):
        yield from srm.broadcast(task, big[task.rank], root=0)
        yield from srm.broadcast(task, small[task.rank], root=0)

    machine.launch(program, ranks=members)
    for rank in members:
        assert np.array_equal(big[rank], first), rank
        assert np.array_equal(small[rank], second), rank


def test_exchange_allreduce_then_small_broadcast_on_a_single_member_node():
    machine, srm = _group_machine()
    members = [0, 1, 2]
    sources = {r: np.full(1024, float(r + 1)) for r in members}  # 8 KB
    results = {r: np.zeros(1024) for r in members}
    buffers = {r: np.full(1, 9 if r == 1 else 0, np.float64) for r in members}

    def program(task):
        yield from srm.allreduce(task, sources[task.rank], results[task.rank], SUM)
        yield from srm.broadcast(task, buffers[task.rank], root=1)

    machine.launch(program, ranks=members)
    for rank in members:
        assert np.all(results[rank] == 6.0)
        assert buffers[rank][0] == 9
