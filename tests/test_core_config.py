"""Unit tests for SRMConfig: switch points, chunking rules, validation."""

import pytest

from repro.core import FixedPolicy, SRMConfig
from repro.errors import ConfigurationError
from repro.machine import CostModel

KB = 1024


def test_paper_defaults():
    config = SRMConfig()
    assert config.small_protocol_max == 64 * KB  # §2.4 switch point
    assert config.pipeline_min == 8 * KB
    assert config.pipeline_chunk == 4 * KB
    assert config.allreduce_exchange_max == 16 * KB


def test_is_large_boundary():
    config = SRMConfig()
    assert not config.is_large(64 * KB)
    assert config.is_large(64 * KB + 1)


def test_chunks_small_single():
    config = SRMConfig()
    assert config.chunks(100) == [(0, 100)]
    assert config.chunks(8 * KB) == [(0, 8 * KB)]


def test_chunks_pipelined_4k():
    config = SRMConfig()
    chunks = config.chunks(10 * KB)
    assert chunks == [(0, 4 * KB), (4 * KB, 4 * KB), (8 * KB, 2 * KB)]


def test_chunks_exactly_divisible():
    config = SRMConfig()
    chunks = config.chunks(16 * KB)
    assert len(chunks) == 4
    assert all(size == 4 * KB for _offset, size in chunks)


def test_chunks_large_64k():
    config = SRMConfig()
    chunks = config.chunks(200 * KB)
    assert chunks[0] == (0, 64 * KB)
    assert chunks[-1] == (192 * KB, 8 * KB)
    assert sum(size for _o, size in chunks) == 200 * KB


def test_chunks_zero_bytes():
    assert SRMConfig().chunks(0) == [(0, 0)]


def test_chunks_negative_rejected():
    with pytest.raises(ConfigurationError):
        SRMConfig().chunks(-1)


def test_chunks_cover_message_exactly():
    config = SRMConfig()
    for nbytes in (1, 4095, 4096, 4097, 65535, 65536, 65537, 1_000_000):
        chunks = config.chunks(nbytes)
        # Contiguous, ordered, complete coverage.
        position = 0
        for offset, size in chunks:
            assert offset == position
            assert size > 0
            position += size
        assert position == nbytes


def test_shared_buffer_holds_any_chunk():
    config = SRMConfig()
    assert config.shared_buffer_bytes >= config.large_chunk
    assert config.shared_buffer_bytes >= config.allreduce_exchange_max
    small = SRMConfig(pipeline_chunk=KB, pipeline_min=2 * KB, large_chunk=8 * KB)
    assert small.shared_buffer_bytes >= 16 * KB  # still >= allreduce cutoff


def test_validation():
    with pytest.raises(ConfigurationError):
        SRMConfig(pipeline_chunk=0)
    with pytest.raises(ConfigurationError):
        SRMConfig(pipeline_min=KB, pipeline_chunk=2 * KB)
    with pytest.raises(ConfigurationError):
        SRMConfig(small_protocol_max=KB, pipeline_min=8 * KB)
    with pytest.raises(ConfigurationError):
        SRMConfig(put_window=0)
    with pytest.raises(ConfigurationError):
        SRMConfig(allreduce_exchange_max=-1)


def test_evolve():
    base = SRMConfig()
    changed = base.evolve(pipeline_chunk=2 * KB, pipeline_min=8 * KB)
    assert changed.pipeline_chunk == 2 * KB
    assert base.pipeline_chunk == 4 * KB


# -- construction-time validation of families and allgather_ring_min --------
#
# A tree family is a dispatch choice, not a config field: FixedPolicy makes
# it and rejects a bad name when it is built (not deep inside the embedding
# builder), naming the tree operation.


def test_bad_inter_family_rejected_at_construction():
    with pytest.raises(ConfigurationError, match="inter-tree"):
        FixedPolicy({"inter-tree": "bogus"})


def test_bad_intra_reduce_family_rejected_at_construction():
    with pytest.raises(ConfigurationError, match="intra-reduce-tree"):
        FixedPolicy({"intra-reduce-tree": "kary"})  # needs explicit arity: not valid here


def test_family_error_lists_valid_choices():
    with pytest.raises(ConfigurationError, match="binomial"):
        FixedPolicy({"inter-tree": ""})


def test_all_registered_families_accepted():
    from repro.core.dispatch import SelectionEnv
    from repro.trees.embedding import TREE_FAMILIES

    for family in TREE_FAMILIES:
        policy = FixedPolicy({"inter-tree": family, "intra-reduce-tree": family})
        for op in ("inter-tree", "intra-reduce-tree"):
            env = SelectionEnv(
                op=op, nbytes=0, nodes=4, ppn=2, config=SRMConfig(),
                cost=CostModel.ibm_sp_colony(),
            )
            assert policy.select(env) == family


def test_negative_allgather_ring_min_rejected():
    with pytest.raises(ConfigurationError, match="allgather_ring_min"):
        SRMConfig(allgather_ring_min=-1)


def test_zero_allgather_ring_min_allowed():
    assert SRMConfig(allgather_ring_min=0).allgather_ring_min == 0


# -- exhaustive chunk-boundary tiling ---------------------------------------


def _assert_exact_tiling(config, nbytes):
    """Offsets tile [0, nbytes) exactly: contiguous, no overlap, no gap."""
    chunks = config.chunks(nbytes)
    assert chunks, f"no chunks for {nbytes} B"
    position = 0
    for offset, size in chunks:
        assert offset == position, f"gap/overlap at {offset} (expected {position})"
        position += size
    assert position == nbytes
    if nbytes > 0:
        assert all(size > 0 for _o, size in chunks)
        # Only the final chunk may be short.
        sizes = [size for _o, size in chunks]
        assert all(size == sizes[0] for size in sizes[:-1])
        assert sizes[-1] <= sizes[0]


@pytest.mark.parametrize(
    "nbytes",
    [
        8 * KB - 1, 8 * KB, 8 * KB + 1,          # pipeline_min boundary
        64 * KB - 1, 64 * KB, 64 * KB + 1,       # small_protocol_max boundary
        12 * KB - 1, 12 * KB, 12 * KB + 1,       # pipeline_chunk multiple
        128 * KB - 1, 128 * KB, 128 * KB + 1,    # large_chunk multiple
        1, 4 * KB, 192 * KB + 17,
    ],
)
def test_chunks_tile_exactly_at_boundaries(nbytes):
    _assert_exact_tiling(SRMConfig(), nbytes)


def test_pipeline_min_boundary_is_inclusive():
    config = SRMConfig()
    assert config.chunks(8 * KB) == [(0, 8 * KB)]            # still one chunk
    assert config.chunks(8 * KB + 1)[0] == (0, 4 * KB)       # now pipelined


def test_small_protocol_max_boundary_is_inclusive():
    config = SRMConfig()
    at_limit = config.chunks(64 * KB)
    assert all(size == 4 * KB for _o, size in at_limit)      # still 4 KB tiles
    over = config.chunks(64 * KB + 1)
    assert over[0] == (0, 64 * KB)                           # now streaming
    assert over[-1] == (64 * KB, 1)


def test_chunks_boundary_tiling_with_odd_chunk_sizes():
    config = SRMConfig(pipeline_chunk=3 * KB, pipeline_min=6 * KB, large_chunk=7 * KB)
    for nbytes in (6 * KB - 1, 6 * KB, 6 * KB + 1, 9 * KB, 9 * KB + 1, 70 * KB + 3):
        _assert_exact_tiling(config, nbytes)
