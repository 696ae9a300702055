"""SRM tuning parameters (the paper's protocol switch points, §2.4).

Defaults follow the paper exactly where it gives numbers:

* broadcast switches from the shared-buffer ("small") protocol to the
  direct-to-user-buffer ("large") protocol at **64 KB**;
* small-protocol messages above **8 KB** are split into **4 KB** chunks and
  pipelined through the two shared buffers;
* allreduce uses recursive-doubling pairwise exchange up to **16 KB** and
  the pipelined reduce+broadcast beyond it (Fig. 5).

The large-message streaming chunk and the put window are implementation
parameters (the paper tunes them implicitly through LAPI); both are exposed
for the pipeline ablation (bench A4).

Which algorithm variant runs (the ring allreduce, a tree family) is not a
config field but the dispatch policy's choice:
:class:`~repro.core.dispatch.PaperPolicy` applies the thresholds above, and
:class:`~repro.core.dispatch.FixedPolicy` forces a variant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError

__all__ = ["SRMConfig"]

KB = 1024


@dataclass(frozen=True)
class SRMConfig:
    """All knobs of the SRM collectives."""

    #: Broadcast small→large protocol switch (bytes).  Paper: 64 KB.
    small_protocol_max: int = 64 * KB
    #: Small-protocol messages above this are chunked and pipelined. Paper: 8 KB.
    pipeline_min: int = 8 * KB
    #: Chunk size for small-protocol pipelining.  Paper: 4 KB.
    pipeline_chunk: int = 4 * KB
    #: Chunk size for large-message streaming (network + SMP pipelining).
    large_chunk: int = 64 * KB
    #: In-flight put window per inter-node child for streamed large messages.
    put_window: int = 4
    #: Allreduce recursive-doubling cutoff.  Paper: 16 KB.
    allreduce_exchange_max: int = 16 * KB
    #: Allgather (extension op) switches from gather+broadcast (latency-
    #: optimal) to the hierarchical master ring (bandwidth-optimal) once the
    #: concatenated result exceeds this many bytes.
    allgather_ring_min: int = 64 * KB
    #: Disable LAPI interrupts while inside a small-message collective (§2.3).
    manage_interrupts: bool = True
    #: Record persistent-plan windows as compiled schedules and replay
    #: repeated (plan, parity) windows with the vectorized kernel
    #: (:mod:`repro.core.replay`).  ``False`` (the ``--no-replay`` escape
    #: hatch) always re-drives the engine's processes and generators.
    compiled_replay: bool = True

    def __post_init__(self) -> None:
        if self.pipeline_chunk < 1 or self.large_chunk < 1:
            raise ConfigurationError("chunk sizes must be >= 1 byte")
        if self.pipeline_min < self.pipeline_chunk:
            raise ConfigurationError(
                "pipeline_min must be >= pipeline_chunk "
                f"({self.pipeline_min} < {self.pipeline_chunk})"
            )
        if self.small_protocol_max < self.pipeline_min:
            raise ConfigurationError("small_protocol_max must be >= pipeline_min")
        if self.put_window < 1:
            raise ConfigurationError("put_window must be >= 1")
        if self.allreduce_exchange_max < 0:
            raise ConfigurationError("allreduce_exchange_max must be >= 0")
        if self.allgather_ring_min < 0:
            raise ConfigurationError("allgather_ring_min must be >= 0")

    @property
    def shared_buffer_bytes(self) -> int:
        """Size of each shared buffer: must hold the largest single chunk."""
        return max(
            self.large_chunk, self.pipeline_min, self.allreduce_exchange_max, self.pipeline_chunk
        )

    def evolve(self, **changes) -> "SRMConfig":
        """Copy with ``changes`` applied (for ablations)."""
        return replace(self, **changes)

    # -- chunking rules ------------------------------------------------------

    def is_large(self, nbytes: int) -> bool:
        """True when the direct-to-user-buffer broadcast protocol applies."""
        return nbytes > self.small_protocol_max

    def chunks(self, nbytes: int) -> list[tuple[int, int]]:
        """Split a message into ``(offset, size)`` pipeline chunks.

        * ``<= pipeline_min`` — one chunk (no pipelining, §2.2);
        * ``<= small_protocol_max`` — 4 KB chunks through shared buffers;
        * larger — streaming chunks of ``large_chunk``.

        Both thresholds are **inclusive**: exactly ``pipeline_min`` bytes is
        still one chunk, and exactly ``small_protocol_max`` bytes still uses
        ``pipeline_chunk`` tiles; one byte beyond each threshold switches
        regime.  Offsets always tile ``[0, nbytes)`` exactly — contiguous,
        non-overlapping, sizes summing to ``nbytes``, with only the final
        chunk allowed to be short.  Zero bytes yields the single sentinel
        chunk ``(0, 0)`` so control-flow-only collectives still run their
        signalling round.  (Boundary behavior is pinned down by the
        exhaustive tiling tests in ``tests/test_core_config.py``.)
        """
        if nbytes < 0:
            raise ConfigurationError(f"message size must be >= 0, got {nbytes}")
        if nbytes == 0:
            return [(0, 0)]
        if nbytes <= self.pipeline_min:
            return [(0, nbytes)]
        chunk = self.large_chunk if self.is_large(nbytes) else self.pipeline_chunk
        return [
            (offset, min(chunk, nbytes - offset)) for offset in range(0, nbytes, chunk)
        ]
