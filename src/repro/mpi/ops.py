"""Reduction operators for reduce/allreduce.

Each operator is an in-place combiner ``op(dst, src)`` meaning
``dst = dst OP src`` element-wise: one NumPy ufunc called with ``out=``, so
no temporaries are allocated (the simulated cost is charged separately by
:meth:`Task.reduce_into`).
"""

from __future__ import annotations

import typing

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["ReduceOp", "SUM", "PROD", "MIN", "MAX", "LAND", "LOR", "BAND", "BOR", "by_name"]


class ReduceOp:
    """A named, associative, commutative element-wise reduction: one NumPy
    binary ufunc and the identity element it reduces from."""

    def __init__(
        self,
        name: str,
        ufunc: np.ufunc,
        identity: typing.Callable[[np.dtype], typing.Any],
    ) -> None:
        self.name = name
        #: The element-wise operator; compiled replay calls it directly.
        self.ufunc = ufunc
        self._identity = identity

    def __call__(self, dst: np.ndarray, src: np.ndarray) -> None:
        """``dst = dst OP src`` in place."""
        self.ufunc(dst, src, out=dst)

    def combine_into(self, dst: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
        """``dst = a OP b`` in one streaming pass (``dst`` may alias ``a``).

        This is how the SRM reduce root writes its final combine straight
        into the destination buffer instead of an intermediate (§4's
        comparison against Sistare et al.).
        """
        self.ufunc(a, b, out=dst)

    def identity_for(self, dtype: np.dtype) -> typing.Any:
        """The operator's identity element for ``dtype`` (for rooted inits)."""
        return self._identity(np.dtype(dtype))

    def __repr__(self) -> str:
        return f"<ReduceOp {self.name}>"


def _min_identity(dtype: np.dtype) -> typing.Any:
    if np.issubdtype(dtype, np.floating):
        return np.inf
    return np.iinfo(dtype).max


def _max_identity(dtype: np.dtype) -> typing.Any:
    if np.issubdtype(dtype, np.floating):
        return -np.inf
    return np.iinfo(dtype).min


SUM = ReduceOp("sum", np.add, lambda _dt: 0)
PROD = ReduceOp("prod", np.multiply, lambda _dt: 1)
MIN = ReduceOp("min", np.minimum, _min_identity)
MAX = ReduceOp("max", np.maximum, _max_identity)
# logical_and/or write their boolean result straight into the numeric out
# array (0/1 in its dtype) — no .astype(bool) temporaries.
LAND = ReduceOp("land", np.logical_and, lambda _dt: 1)
LOR = ReduceOp("lor", np.logical_or, lambda _dt: 0)
BAND = ReduceOp("band", np.bitwise_and, lambda _dt: ~0)
BOR = ReduceOp("bor", np.bitwise_or, lambda _dt: 0)

_REGISTRY = {op.name: op for op in (SUM, PROD, MIN, MAX, LAND, LOR, BAND, BOR)}


def by_name(name: str) -> ReduceOp:
    """Look an operator up by name (``"sum"``, ``"max"``, ...)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown reduce op {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
