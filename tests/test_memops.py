"""The compiled replay kernel (:func:`repro.machine.memops.compile_tape`)
leaves every byte as the reference interpreter :func:`apply_batch` does.

Random tapes over a few float64 user buffers and uint8 slot segments mix
overlapping ranges, raw copies between dtypes, every shipped operator and
one strided copy that the kernel must leave to :func:`raw_copyto`; both
sides start from the same bytes, apply the tape twice with fresh data in
between, and must end byte-identical in every base buffer.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.memops import (
    OP_COMBINE,
    OP_COPY,
    OP_REDUCE,
    apply_batch,
    compile_tape,
    run_kernel,
)
from repro.mpi.ops import BAND, BOR, LAND, LOR, MAX, MIN, PROD, SUM

OPS = (SUM, PROD, MIN, MAX, LAND, LOR, BAND, BOR)
#: Bitwise operators need integer views; the rest run on float64 views.
INT_OPS = {"band", "bor"}

#: Buffer sizes in 8-byte units: small, so random ranges overlap often.
USER_UNITS = 12
SEGMENT_UNITS = 10


def _view(bases, spec):
    """The view ``spec`` names: (base index, byte offset, bytes, dtype)."""
    index, offset, nbytes, dtype = spec
    raw = bases[index].reshape(-1).view(np.uint8)[offset : offset + nbytes]
    return raw.view(dtype)


@st.composite
def _spec(draw, units, dtype, n_bases):
    """A contiguous view of ``units`` 8-byte units in a random base."""
    index = draw(st.integers(0, n_bases - 1))
    size = USER_UNITS if index < 3 else SEGMENT_UNITS
    aligned = dtype != np.uint8
    # uint8 views may start on any byte; typed ones on an 8-byte boundary.
    limit = (size - units) * 8 if not aligned else size - units
    start = draw(st.integers(0, limit))
    return (index, start * 8 if aligned else start, units * 8, dtype)


@st.composite
def tapes(draw):
    n_bases = 5  # three float64 user buffers, two uint8 slot segments
    entries = []
    for _ in range(draw(st.integers(1, 24))):
        units = draw(st.integers(1, 6))
        kind = draw(st.sampled_from([OP_COPY, OP_COPY, OP_REDUCE, OP_COMBINE]))
        if kind == OP_COPY:
            dst_dtype = draw(st.sampled_from([np.float64, np.uint8]))
            src_dtype = draw(st.sampled_from([np.float64, np.uint8]))
            entries.append(
                (
                    kind,
                    draw(_spec(units, dst_dtype, n_bases)),
                    draw(_spec(units, src_dtype, n_bases)),
                    None,
                    None,
                )
            )
            continue
        op = draw(st.sampled_from(OPS))
        dtype = np.int64 if op.name in INT_OPS else np.float64
        specs = [draw(_spec(units, dtype, n_bases)) for _ in range(3)]
        b = specs[2] if kind == OP_COMBINE else None
        entries.append((kind, specs[0], specs[1], b, op))
    strided_at = draw(st.integers(0, len(entries)))
    return entries, strided_at


def _world(seed):
    rng = np.random.default_rng(seed)
    users = [rng.standard_normal(USER_UNITS) for _ in range(3)]
    segments = [rng.integers(0, 256, SEGMENT_UNITS * 8, dtype=np.uint8) for _ in range(2)]
    return users + segments


def _tape(bases, entries, strided_at):
    tape = [
        (kind, _view(bases, dst), _view(bases, a), None if b is None else _view(bases, b), op)
        for kind, dst, a, b, op in entries
    ]
    # One strided copy: every other element of user buffer 0 from buffer 1.
    tape.insert(strided_at, (OP_COPY, bases[0][::2], bases[1][:USER_UNITS // 2], None, None))
    return tape


def _refill(bases, seed):
    fresh = _world(seed)
    for base, data in zip(bases, fresh):
        base[...] = data


@settings(max_examples=300, deadline=None)
@given(tape=tapes(), seed=st.integers(0, 2**32 - 1))
def test_kernel_matches_apply_batch(tape, seed):
    entries, strided_at = tape
    reference, compiled = _world(seed), _world(seed)
    reference_tape = _tape(reference, entries, strided_at)
    kernel = compile_tape(_tape(compiled, entries, strided_at))

    assert len(kernel) == len(reference_tape)
    # The strided copy keeps its views; every contiguous copy is a byte slice.
    strided = kernel[strided_at]
    assert strided[0] is not None and strided[1].base is compiled[0]
    copies = sum(1 for kind, *_rest in entries if kind == OP_COPY)
    assert sum(1 for entry in kernel if entry[0] is None) == copies
    assert all(isinstance(entry[1], memoryview) for entry in kernel if entry[0] is None)

    for window in range(2):
        if window:
            _refill(reference, seed + 1)
            _refill(compiled, seed + 1)
        with np.errstate(all="ignore"):
            apply_batch(reference_tape)
            run_kernel(kernel)
        for index, (want, got) in enumerate(zip(reference, compiled)):
            assert want.tobytes() == got.tobytes(), f"window {window}: base {index} differs"
