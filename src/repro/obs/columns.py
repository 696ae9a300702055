"""Records stored as parallel columns: the one recording format.

Phase spans, flow links and resource-monitor samples are each recorded into
a :class:`ColumnTable`: numeric fields in ``array.array`` columns, string
fields in lists of shared ``str`` objects.  A table is a handful of objects
however many records it holds, so the cyclic garbage collector has nothing
to walk — a persistent session records about a million records, and one
object per record made the collector the session's largest cost.

Readers see records: indexing and iteration build the table's record type
(:class:`~repro.obs.spans.PhaseSpan`, :class:`~repro.obs.spans.FlowLink`,
:class:`~repro.obs.monitor.ResourceSample`) on demand, and ``append`` /
item assignment write one back.  Hot readers may read the columns directly
once :meth:`ColumnTable.materialize` has run.

Compiled replay (:mod:`repro.core.replay`) keeps a window's records in the
same format: :meth:`ColumnTable.tail` copies the rows from a mark on as
NumPy arrays with clock fields made window-relative.  A replayed window
hands its trace's tail to :meth:`ColumnTable.extend`, which keeps it by
reference as a *pending block*: ``len()`` counts its rows, and the first
read or append copies every pending block into the columns, oldest first,
with one bulk copy per column.  A session that reads nothing between
windows holds a few references per window instead of a copy of every row,
and no object per block for the garbage collector to track.
"""

from __future__ import annotations

import typing
from array import array

import numpy as np

__all__ = ["ColumnTable"]


class ColumnTable:
    """A table of records held as one column per field.

    Subclasses declare :attr:`FIELDS` (and a slot per field), the
    :attr:`CLOCKS` fields that hold simulated times, and :meth:`_record`.
    """

    #: (field, ``array`` typecode or ``""`` for a list of str), in record order.
    FIELDS: typing.ClassVar[tuple[tuple[str, str], ...]] = ()
    #: Fields holding simulated clock readings (shifted between windows).
    CLOCKS: typing.ClassVar[tuple[str, ...]] = ()

    __slots__ = ("_pending", "_pending_rows")

    def __init__(self) -> None:
        for field, code in self.FIELDS:
            setattr(self, field, array(code) if code else [])
        #: Blocks :meth:`extend` kept by reference, oldest first, flat: the
        #: three arguments of each :meth:`_copy` in turn.
        self._pending: list[typing.Any] = []
        self._pending_rows = 0

    def _record(self, index: int, values: tuple) -> typing.Any:
        """The record at row ``index`` holding ``values``, in field order."""
        raise NotImplementedError

    def _values(self, record: typing.Any) -> list:
        """``record``'s field values, in field order (inverse of _record)."""
        return [getattr(record, field) for field, _code in self.FIELDS]

    # -- the sequence of records ------------------------------------------------

    def __len__(self) -> int:
        return len(getattr(self, self.FIELDS[0][0])) + self._pending_rows

    def __getitem__(self, index: typing.Any) -> typing.Any:
        self.materialize()
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        return self._record(index, tuple(getattr(self, field)[index] for field, _ in self.FIELDS))

    def __iter__(self) -> typing.Iterator[typing.Any]:
        self.materialize()
        record = self._record
        columns = [getattr(self, field) for field, _code in self.FIELDS]
        for index, values in enumerate(zip(*columns)):
            yield record(index, values)

    def __setitem__(self, index: int, record: typing.Any) -> None:
        self.materialize()
        for (field, _code), value in zip(self.FIELDS, self._values(record)):
            getattr(self, field)[index] = value

    def append(self, record: typing.Any) -> None:
        self.materialize()
        for (field, _code), value in zip(self.FIELDS, self._values(record)):
            getattr(self, field).append(value)

    # -- replay tails -------------------------------------------------------------

    def tail(self, mark: int, t0: float) -> dict[str, typing.Any]:
        """Copies of the rows from ``mark`` on, clock fields minus ``t0``.

        Numeric columns come back as NumPy arrays that own their data: a
        live view would pin the column and fail its next append.
        """
        self.materialize()
        out: dict[str, typing.Any] = {}
        for field, code in self.FIELDS:
            column = getattr(self, field)
            if not code:
                out[field] = column[mark:]
            elif field in self.CLOCKS:
                out[field] = np.frombuffer(column, dtype=code)[mark:] - t0
            else:
                out[field] = np.frombuffer(column, dtype=code)[mark:].copy()
        return out

    def extend(self, tail: dict[str, typing.Any], t0: float, payload: typing.Any = None) -> None:
        """Append rows shaped like :meth:`tail`'s, clock fields plus ``t0``.

        The rows are kept by reference as a pending block, so ``tail`` must
        not change afterwards; ``payload`` goes to :meth:`_copy` with it.
        """
        self._pending += (tail, t0, payload)
        self._pending_rows += len(tail[self.FIELDS[0][0]])

    def materialize(self) -> None:
        """Copy every pending block into the columns, oldest first."""
        pending = self._pending
        if pending:
            self._pending = []
            self._pending_rows = 0
            for index in range(0, len(pending), 3):
                self._copy(*pending[index : index + 3])

    def _copy(self, tail: dict[str, typing.Any], t0: float, payload: typing.Any = None) -> None:
        """Append one block's rows to the columns, clock fields plus ``t0``.

        NumPy's float64 add rounds exactly like Python's, so the appended
        clocks are bit-identical to adding ``t0`` record by record.
        """
        for field, code in self.FIELDS:
            values = tail[field]
            column = getattr(self, field)
            if not code:
                column.extend(values)
            elif field in self.CLOCKS:
                column.frombytes((values + t0).tobytes())
            else:
                column.frombytes(np.asarray(values, dtype=code).tobytes())
