"""Message-passing collective algorithms over the p2p substrate.

These are the baselines the paper compares SRM against (§3): collectives
built the traditional way, on top of MPI send/receive, with shared memory
used only as a *point-to-point transport* inside a node ("in MPI, shared
memory was used to implement point-to-point message passing topped by
collective operations, whereas SRM used shared memory to implement
collective operations directly").

Algorithms (the 2002/2003 state of practice):

* broadcast / reduce — binomial trees over the rotated rank order (§2.1
  notes MPICH used binomial trees), with no topology awareness;
* allreduce — either recursive doubling ([15], the better algorithm IBM's
  MPI shipped) or reduce-then-broadcast (MPICH 1.2's composition),
  selected per stack;
* barrier — pairwise exchange with recursive doubling or the dissemination
  pattern [22], selected per stack.

Every transfer goes through :class:`~repro.mpi.p2p.MpiEndpoint`, so the
eager/rendezvous switching, P−1 eager buffer pools, tag matching, and
unexpected-message costs all apply — the overheads §1 and §2.3 blame.
The endpoint moves a buffer as raw bytes, so each operation first rejects
a non-C-contiguous argument it sends or receives
(:func:`~repro.machine.memops.require_contiguous`, the SRM entry points'
check), naming the operation and the argument.
"""

from __future__ import annotations

import typing
import weakref

import numpy as np

from repro.machine.cluster import Machine
from repro.machine.memops import require_contiguous
from repro.mpi.ops import SUM, ReduceOp
from repro.sim.process import ProcessGenerator
from repro.trees.base import RankTree
from repro.trees.embedding import naive_rank_tree

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import Task

__all__ = ["MpiCollectives"]

#: One tag range per operation, 1,000 wide: the per-round and per-step tags
#: (barrier rounds, allgather and alltoall steps, up to P - 1) stay inside
#: their own range at 256 ranks, so no operation can match another's message.
_BCAST_TAG = 1000
_REDUCE_TAG = 2000
_ALLREDUCE_TAG = 3000
_BARRIER_TAG = 4000
_SCATTER_TAG = 5000
_GATHER_TAG = 6000
_ALLGATHER_TAG = 7000
_ALLTOALL_TAG = 8000
_SCAN_TAG = 9000
_SIGNAL = np.zeros(0, dtype=np.uint8)


def _bytes(buffer: np.ndarray) -> np.ndarray:
    return buffer.reshape(-1).view(np.uint8)


class MpiCollectives:
    """Baseline collectives; subclasses pick the per-stack algorithms."""

    name = "MPI"
    #: "recursive_doubling" or "reduce_broadcast"
    allreduce_algorithm = "recursive_doubling"
    #: With recursive doubling, messages above this fall back to
    #: reduce+broadcast (RD sends the full message log2(P) times, so tuned
    #: stacks switch algorithms for large payloads).  None = never.
    allreduce_rd_max: int | None = None
    #: "recursive_doubling" (pairwise XOR with fold) or "dissemination"
    barrier_algorithm = "recursive_doubling"
    #: Tree family for broadcast/reduce.
    tree_family = "binomial"

    def __init__(self, machine: Machine) -> None:
        # Weak: a program blocked in a collective holds this stack, and the
        # machine must stay free to go when its owner drops it.
        self._machine = weakref.ref(machine)
        self.spec = machine.spec
        self._trees: dict[int, RankTree] = {}

    @property
    def machine(self) -> Machine | None:
        """The machine these collectives run on (``None`` once it was freed)."""
        return self._machine()

    def _tree(self, root: int) -> RankTree:
        if root not in self._trees:
            self._trees[root] = naive_rank_tree(self.spec, root, self.tree_family)
        return self._trees[root]

    # ------------------------------------------------------------------
    # broadcast
    # ------------------------------------------------------------------

    def broadcast(self, task: "Task", buffer: np.ndarray, root: int = 0) -> ProcessGenerator:
        """Binomial-tree broadcast over point-to-point messages."""
        require_contiguous("broadcast", buffer=buffer)
        tree = self._tree(root)
        parent = tree.parent_of(task.rank)
        if parent is not None:
            yield from task.mpi.recv(parent, _BCAST_TAG, buffer)
        for child in tree.children_of(task.rank):
            yield from task.mpi.send(child, buffer, _BCAST_TAG)

    # ------------------------------------------------------------------
    # reduce
    # ------------------------------------------------------------------

    def reduce(
        self,
        task: "Task",
        src: np.ndarray,
        dst: np.ndarray | None = None,
        op: ReduceOp = SUM,
        root: int = 0,
    ) -> ProcessGenerator:
        """Binomial-tree reduce: every edge is a full message + combine."""
        require_contiguous("reduce", src=src)
        tree = self._tree(root)
        parent = tree.parent_of(task.rank)
        children = tree.children_of(task.rank)
        flat_src = src.reshape(-1)
        if parent is None and not children:
            # Single-rank job: the reduction is a copy.
            if dst is None:
                raise ValueError("the reduce root needs a destination buffer")
            yield from task.copy(dst.reshape(-1), flat_src)
            return
        if not children:
            yield from task.mpi.send(parent, flat_src, _REDUCE_TAG)
            return
        # Interior/root: accumulate in the destination (root) or a system
        # temporary (interior) — both start with a copy of the send buffer.
        if parent is None:
            if dst is None:
                raise ValueError("the reduce root needs a destination buffer")
            accumulator = dst.reshape(-1)
        else:
            accumulator = np.empty_like(flat_src)
        yield from task.copy(accumulator, flat_src)
        incoming = np.empty_like(flat_src)
        for child in reversed(children):  # smallest subtree checks in first
            yield from task.mpi.recv(child, _REDUCE_TAG, incoming)
            yield from task.reduce_into(accumulator, incoming, op)
        if parent is not None:
            yield from task.mpi.send(parent, accumulator, _REDUCE_TAG)

    # ------------------------------------------------------------------
    # allreduce
    # ------------------------------------------------------------------

    def allreduce(
        self,
        task: "Task",
        src: np.ndarray,
        dst: np.ndarray,
        op: ReduceOp = SUM,
    ) -> ProcessGenerator:
        """Recursive doubling or reduce+broadcast, per stack."""
        require_contiguous("allreduce", src=src, dst=dst)
        if dst.nbytes != src.nbytes:
            raise ValueError("allreduce buffers must match in size")
        use_composition = self.allreduce_algorithm == "reduce_broadcast" or (
            self.allreduce_rd_max is not None and src.nbytes > self.allreduce_rd_max
        )
        if use_composition:
            yield from self.reduce(task, src, dst if task.rank == 0 else None, op, root=0)
            yield from self.broadcast(task, dst, root=0)
            return
        yield from self._allreduce_recursive_doubling(task, src, dst, op)

    def _allreduce_recursive_doubling(
        self, task: "Task", src: np.ndarray, dst: np.ndarray, op: ReduceOp
    ) -> ProcessGenerator:
        """MPICH's classic algorithm [15] with the non-power-of-two fold."""
        total = task.spec.total_tasks
        rank = task.rank
        accumulator = dst.reshape(-1)
        yield from task.copy(accumulator, src.reshape(-1))
        if total == 1:
            return
        incoming = np.empty_like(accumulator)
        group = 1 << ((total).bit_length() - 1)
        if group > total:
            group >>= 1
        excess = total - group

        if rank < 2 * excess:
            if rank % 2 == 0:
                # Fold into the odd partner; sit out; collect the result.
                yield from task.mpi.send(rank + 1, accumulator, _ALLREDUCE_TAG)
                yield from task.mpi.recv(rank + 1, _ALLREDUCE_TAG, accumulator)
                return
            yield from task.mpi.recv(rank - 1, _ALLREDUCE_TAG, incoming)
            yield from task.reduce_into(accumulator, incoming, op)
            virtual = rank // 2
        else:
            virtual = rank - excess

        rounds = group.bit_length() - 1
        for round_index in range(rounds):
            peer_virtual = virtual ^ (1 << round_index)
            peer = peer_virtual * 2 + 1 if peer_virtual < excess else peer_virtual + excess
            yield from task.mpi.sendrecv(peer, accumulator, peer, incoming, _ALLREDUCE_TAG)
            yield from task.reduce_into(accumulator, incoming, op)

        if rank < 2 * excess and rank % 2 == 1:
            yield from task.mpi.send(rank - 1, accumulator, _ALLREDUCE_TAG)

    # ------------------------------------------------------------------
    # scatter / gather / allgather (block-data collectives)
    # ------------------------------------------------------------------
    #
    # MPICH's binomial algorithms: in the rotated virtual-rank space the
    # subtree of vertex u occupies the contiguous range [u, u + lowbit(u))
    # (clipped at P), so interior vertices forward whole packed sub-ranges.

    @staticmethod
    def _subtree_span(virtual: int, total: int) -> int:
        """Number of virtual ranks in the binomial subtree rooted at u."""
        if virtual == 0:
            return total
        return min(virtual & -virtual, total - virtual)

    def scatter(
        self,
        task: "Task",
        sendbuf: np.ndarray | None,
        recvbuf: np.ndarray,
        root: int = 0,
    ) -> ProcessGenerator:
        """Binomial scatter: packed sub-ranges travel down the tree."""
        root_sendbuf = sendbuf if task.rank == root else None
        require_contiguous("scatter", sendbuf=root_sendbuf, recvbuf=recvbuf)
        total = task.spec.total_tasks
        block = recvbuf.nbytes
        tree = self._tree(root)
        virtual = (task.rank - root) % total
        span = self._subtree_span(virtual, total)
        if virtual == 0:
            if sendbuf is None:
                raise ValueError("the scatter root needs a send buffer")
            if sendbuf.nbytes != block * total:
                raise ValueError("scatter send buffer must hold P blocks")
            if root == 0:
                packed = _bytes(sendbuf)
            else:
                # Rotate blocks into virtual order (the root-side copy the
                # rotated mapping costs on real MPICH too).
                packed = np.empty(block * total, np.uint8)
                source = _bytes(sendbuf)
                for v in range(total):
                    rank = (root + v) % total
                    yield from task.copy(
                        packed[v * block : (v + 1) * block],
                        source[rank * block : (rank + 1) * block],
                    )
        else:
            packed = np.empty(block * span, np.uint8)
            yield from task.mpi.recv(tree.parent_of(task.rank), _SCATTER_TAG, packed)
        yield from task.copy(_bytes(recvbuf), packed[:block])
        for child in tree.children_of(task.rank):
            child_virtual = (child - root) % total
            child_span = self._subtree_span(child_virtual, total)
            offset = (child_virtual - virtual) * block
            yield from task.mpi.send(
                child, packed[offset : offset + child_span * block], _SCATTER_TAG
            )

    def gather(
        self,
        task: "Task",
        sendbuf: np.ndarray,
        recvbuf: np.ndarray | None,
        root: int = 0,
    ) -> ProcessGenerator:
        """Binomial gather: children's packed sub-ranges merge upward."""
        root_recvbuf = recvbuf if task.rank == root else None
        require_contiguous("gather", sendbuf=sendbuf, recvbuf=root_recvbuf)
        total = task.spec.total_tasks
        block = sendbuf.nbytes
        tree = self._tree(root)
        virtual = (task.rank - root) % total
        span = self._subtree_span(virtual, total)
        packed = np.empty(block * span, np.uint8)
        yield from task.copy(packed[:block], _bytes(sendbuf))
        for child in tree.children_of(task.rank):
            child_virtual = (child - root) % total
            child_span = self._subtree_span(child_virtual, total)
            offset = (child_virtual - virtual) * block
            # Received straight into the packed range: no repack copy.
            yield from task.mpi.recv(
                child, _GATHER_TAG, packed[offset : offset + child_span * block]
            )
        if virtual != 0:
            yield from task.mpi.send(tree.parent_of(task.rank), packed, _GATHER_TAG)
            return
        if recvbuf is None:
            raise ValueError("the gather root needs a receive buffer")
        if recvbuf.nbytes != block * total:
            raise ValueError("gather receive buffer must hold P blocks")
        destination = _bytes(recvbuf)
        if root == 0:
            yield from task.copy(destination, packed)
        else:
            for v in range(total):
                rank = (root + v) % total
                yield from task.copy(
                    destination[rank * block : (rank + 1) * block],
                    packed[v * block : (v + 1) * block],
                )

    def allgather(
        self,
        task: "Task",
        sendbuf: np.ndarray,
        recvbuf: np.ndarray,
    ) -> ProcessGenerator:
        """Ring allgather: P-1 neighbour exchanges of one block each."""
        require_contiguous("allgather", sendbuf=sendbuf, recvbuf=recvbuf)
        total = task.spec.total_tasks
        block = sendbuf.nbytes
        if recvbuf.nbytes != block * total:
            raise ValueError("allgather receive buffer must hold P blocks")
        rank = task.rank
        data = _bytes(recvbuf)
        yield from task.copy(data[rank * block : (rank + 1) * block], _bytes(sendbuf))
        if total == 1:
            return
        right = (rank + 1) % total
        left = (rank - 1) % total
        for step in range(total - 1):
            send_owner = (rank - step) % total
            recv_owner = (rank - step - 1) % total
            yield from task.mpi.sendrecv(
                right,
                data[send_owner * block : (send_owner + 1) * block],
                left,
                data[recv_owner * block : (recv_owner + 1) * block],
                _ALLGATHER_TAG + step,
            )

    def scan(
        self,
        task: "Task",
        src: np.ndarray,
        dst: np.ndarray,
        op: ReduceOp = SUM,
    ) -> ProcessGenerator:
        """Inclusive prefix reduction via the classic linear chain:
        receive the running prefix from rank-1, combine, forward."""
        require_contiguous("scan", dst=dst)
        if dst.nbytes != src.nbytes:
            raise ValueError("scan buffers must match in size")
        total = task.spec.total_tasks
        rank = task.rank
        flat_src = src.reshape(-1)
        flat_dst = dst.reshape(-1)
        if rank == 0:
            yield from task.copy(flat_dst, flat_src)
        else:
            incoming = np.empty_like(flat_src)
            yield from task.mpi.recv(rank - 1, _SCAN_TAG, incoming)
            yield from task.combine_into(flat_dst, incoming, flat_src, op)
        if rank + 1 < total:
            yield from task.mpi.send(rank + 1, flat_dst, _SCAN_TAG)

    def reduce_scatter(
        self,
        task: "Task",
        src: np.ndarray,
        dst: np.ndarray,
        op: ReduceOp = SUM,
    ) -> ProcessGenerator:
        """Block-regular reduce-scatter as reduce + scatter (the MPICH 1.x
        composition): ``dst`` receives this rank's block of the full sum."""
        require_contiguous("reduce_scatter", src=src, dst=dst)
        total = task.spec.total_tasks
        if src.nbytes != dst.nbytes * total:
            raise ValueError("reduce_scatter src must hold P blocks of dst's size")
        scratch = np.empty(src.reshape(-1).shape, dtype=src.dtype) if task.rank == 0 else None
        yield from self.reduce(task, src, scratch, op, root=0)
        yield from self.scatter(task, scratch, dst, root=0)

    def alltoall(
        self,
        task: "Task",
        sendbuf: np.ndarray,
        recvbuf: np.ndarray,
    ) -> ProcessGenerator:
        """Pairwise-exchange alltoall: P-1 shifted sendrecv steps."""
        require_contiguous("alltoall", sendbuf=sendbuf, recvbuf=recvbuf)
        total = task.spec.total_tasks
        if sendbuf.nbytes != recvbuf.nbytes or sendbuf.nbytes % total:
            raise ValueError("alltoall buffers must both hold P equal blocks")
        block = sendbuf.nbytes // total
        rank = task.rank
        send_data = _bytes(sendbuf)
        recv_data = _bytes(recvbuf)
        yield from task.copy(
            recv_data[rank * block : (rank + 1) * block],
            send_data[rank * block : (rank + 1) * block],
        )
        for step in range(1, total):
            to_peer = (rank + step) % total
            from_peer = (rank - step) % total
            yield from task.mpi.sendrecv(
                to_peer,
                send_data[to_peer * block : (to_peer + 1) * block],
                from_peer,
                recv_data[from_peer * block : (from_peer + 1) * block],
                _ALLTOALL_TAG + step,
            )

    # ------------------------------------------------------------------
    # barrier
    # ------------------------------------------------------------------

    def barrier(self, task: "Task") -> ProcessGenerator:
        """Zero-byte synchronization over all ranks (no SMP shortcut)."""
        total = task.spec.total_tasks
        if total == 1:
            return
        if self.barrier_algorithm == "dissemination":
            yield from self._barrier_dissemination(task)
        else:
            yield from self._barrier_recursive_doubling(task)

    def _barrier_dissemination(self, task: "Task") -> ProcessGenerator:
        total = task.spec.total_tasks
        rank = task.rank
        rounds = (total - 1).bit_length()
        scratch = np.zeros(0, dtype=np.uint8)
        for round_index in range(rounds):
            to_peer = (rank + (1 << round_index)) % total
            from_peer = (rank - (1 << round_index)) % total
            yield from task.mpi.sendrecv(
                to_peer, _SIGNAL, from_peer, scratch, _BARRIER_TAG + round_index
            )

    def _barrier_recursive_doubling(self, task: "Task") -> ProcessGenerator:
        """Pairwise XOR exchange with the fold for non-power-of-two P."""
        total = task.spec.total_tasks
        rank = task.rank
        scratch = np.zeros(0, dtype=np.uint8)
        group = 1 << (total.bit_length() - 1)
        if group > total:
            group >>= 1
        excess = total - group
        if rank >= group:
            yield from task.mpi.send(rank - group, _SIGNAL, _BARRIER_TAG)
            yield from task.mpi.recv(rank - group, _BARRIER_TAG, scratch)
            return
        if rank < excess:
            yield from task.mpi.recv(rank + group, _BARRIER_TAG, scratch)
        rounds = group.bit_length() - 1
        for round_index in range(rounds):
            peer = rank ^ (1 << round_index)
            yield from task.mpi.sendrecv(peer, _SIGNAL, peer, scratch, _BARRIER_TAG + 1 + round_index)
        if rank < excess:
            yield from task.mpi.send(rank + group, _SIGNAL, _BARRIER_TAG)
