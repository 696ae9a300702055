"""Raw byte-level memory operations shared by the data-moving substrates.

:func:`raw_copyto` is the single byte-moving primitive of the simulated
transports, and :func:`require_contiguous` the one check, made by the SRM
and MPI entry points alike, that a user buffer can be viewed as bytes in
place.  Compiled-schedule replay (:mod:`repro.core.replay`) records a
window's memory operations as a flat *tape* of ``(kind, dst, a, b, op)``
entries and compiles it once with :func:`compile_tape` into a kernel that
:func:`run_kernel` executes with no per-entry interpretation.
:func:`apply_batch` interprets a tape entry by entry; it is the reference
the kernel is tested against.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "OP_COPY",
    "OP_REDUCE",
    "OP_COMBINE",
    "raw_copyto",
    "require_contiguous",
    "apply_batch",
    "compile_tape",
    "run_kernel",
]

#: Tape entry kinds: raw copy ``a`` → ``dst``, operator application
#: ``op(dst, a)``, and two-source combine ``op.combine_into(dst, a, b)``.
OP_COPY = 0
OP_REDUCE = 1
OP_COMBINE = 2


def raw_copyto(dst: np.ndarray, src: np.ndarray) -> None:
    """Copy ``src``'s bytes into ``dst`` regardless of dtype.

    Simulated transports move bytes between typed user buffers and untyped
    shared-memory/staging regions; a dtype-aware ``np.copyto`` would *cast*
    values instead.  Sizes must already match (callers validate).
    """
    if dst.dtype == src.dtype:
        np.copyto(dst, src)
    else:
        np.copyto(dst.reshape(-1).view(np.uint8), src.reshape(-1).view(np.uint8))


def require_contiguous(op: str, **buffers: np.ndarray | None) -> None:
    """Reject a buffer whose bytes a transport cannot view in place.

    The SRM protocols and the MPI point-to-point layer move a buffer as
    ``reshape(-1).view(np.uint8)``, which needs C-contiguous memory: a
    strided view would fail inside a half-started schedule, and a
    Fortran-ordered one would be copied and the result lost.  ``None``
    stands for a buffer this rank does not use.
    """
    for name, buffer in buffers.items():
        if buffer is not None and not buffer.flags.c_contiguous:
            raise ConfigurationError(
                f"{op}: {name} must be C-contiguous, got strides {buffer.strides} "
                f"for shape {buffer.shape}"
            )


def apply_batch(ops) -> int:
    """Apply a tape of memory operations in capture order, entry by entry.

    The tape is ordered, so overlapping extents resolve exactly as the
    recorded schedule resolved them.  Returns the number of operations
    applied.
    """
    for kind, dst, a, b, op in ops:
        if kind == OP_COPY:
            raw_copyto(dst, a)
        elif kind == OP_REDUCE:
            op(dst, a)
        else:
            op.combine_into(dst, a, b)
    return len(ops)


def _copy_views(dst: np.ndarray, src: np.ndarray, out: None = None) -> None:
    raw_copyto(dst, src)


def compile_tape(ops) -> list[tuple]:
    """Compile a tape into kernel entries ``(fn, x, y, out)`` for
    :func:`run_kernel`, in capture order.

    A copy between C-contiguous views of C-contiguous base buffers becomes
    ``(None, target, source, None)``: two ``memoryview`` byte slices, both
    cut from one byte view per base buffer, so the kernel holds no NumPy
    view per copy.  CPython copies between contiguous slices with
    ``memmove``, so overlapping extents resolve as ``np.copyto`` resolves
    them, source first.  Any other copy keeps its views and runs
    :func:`raw_copyto`.  An operator pass becomes the operator's ufunc with
    the recorded views, the destination as ``out``.  Nothing is merged or
    reordered, so the kernel leaves every byte as :func:`apply_batch` does.
    """
    bases: dict[int, tuple[memoryview, int, int]] = {}
    cuts: dict[tuple[int, int, int], memoryview] = {}

    def cut(view: np.ndarray) -> memoryview | None:
        """``view``'s bytes as a slice of its base's byte view, or None."""
        if not view.flags.c_contiguous or view.dtype.hasobject:
            return None
        base = view
        while isinstance(base.base, np.ndarray):
            base = base.base
        entry = bases.get(id(base))
        if entry is None:
            if not base.flags.c_contiguous or base.dtype.hasobject:
                return None
            entry = bases[id(base)] = (
                memoryview(base.reshape(-1).view(np.uint8)),
                base.__array_interface__["data"][0],
                base.nbytes,
            )
        data, address, size = entry
        start = view.__array_interface__["data"][0] - address
        stop = start + view.nbytes
        if start < 0 or stop > size:
            return None
        key = (id(base), start, stop)
        piece = cuts.get(key)
        if piece is None:
            piece = cuts[key] = data[start:stop]
        return piece

    kernel: list[tuple] = []
    for kind, dst, a, b, op in ops:
        if kind == OP_COPY:
            target, source = cut(dst), cut(a)
            if target is None or source is None:
                kernel.append((_copy_views, dst, a, None))
            else:
                kernel.append((None, target, source, None))
        elif kind == OP_REDUCE:
            kernel.append((op.ufunc, dst, a, dst))
        else:
            kernel.append((op.ufunc, a, b, dst))
    return kernel


def run_kernel(kernel: list[tuple]) -> None:
    """Run a :func:`compile_tape` kernel in capture order."""
    for fn, x, y, out in kernel:
        if fn is None:
            x[:] = y
        else:
            fn(x, y, out=out)
