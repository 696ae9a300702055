"""The paper's evaluation figures: one table of panels, and ASCII charts.

:data:`FIGURES` maps each figure of the paper's evaluation (Figs. 6–12) to
its panels.  A :class:`Panel` names an operation, the stacks it compares
and two axes, and yields its grid points, its values and its table rows, so
``python -m repro figures``, the figure benchmarks, the ``--jobs`` warm
cache and ``python -m repro export`` all enumerate one grid.
:func:`ascii_chart` draws the chart panels as terminal scatter plots, so a
reproduction run can be eyeballed against the paper without any plotting
dependency.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.bench.report import format_bytes, format_us
from repro.bench.runner import Measurement
from repro.bench.sweeps import (
    measure,
    message_sizes,
    processor_configs,
    ratio_percent,
    small_message_sizes,
)

__all__ = ["FIGURES", "Panel", "ascii_chart", "calibration_scatter", "Series"]

#: One plotted curve: a label, a glyph, and (x, y) points.
Series = tuple[str, str, list[tuple[float, float]]]

#: Table header and chart glyph per stack.
_STACK_NAMES = {"srm": "SRM", "ibm": "IBM MPI", "mpich": "MPICH"}
_STACK_GLYPHS = {"srm": "s", "ibm": "i", "mpich": "m"}


@dataclasses.dataclass(frozen=True)
class Panel:
    """One panel of a paper figure: ``operation`` on ``stacks`` over two axes.

    ``sizes`` is :func:`message_sizes` (``"all"``, 8 B – 8 MB),
    :func:`small_message_sizes` (``"small"``, up to 64 KB) or barrier's one
    size 0 (``"none"``); ``nodes`` is every processor count (``"all"``) or
    only the largest (``"largest"``).  Both are read each time the panel is
    enumerated, so ``--full`` and ``REPRO_BENCH_FULL`` widen them.  Each
    kind of panel yields its ``values()`` by name (the figure benchmarks'
    ``extra_info``) and its ``table()`` as
    :func:`~repro.bench.report.print_table` takes it; a chart panel also
    draws its ``chart()``.
    """

    figure: int
    operation: str
    stacks: tuple[str, ...] = ("srm", "ibm", "mpich")
    sizes: str = "all"
    nodes: str = "all"

    def size_axis(self) -> list[int]:
        if self.sizes == "none":
            return [0]
        return small_message_sizes() if self.sizes == "small" else message_sizes()

    def node_axis(self) -> list[int]:
        configs = processor_configs()
        return configs if self.nodes == "all" else configs[-1:]

    def points(self) -> list[tuple[str, str, int, int]]:
        """Every ``(stack, operation, nbytes, nodes)`` point the panel reads."""
        return [
            (stack, self.operation, nbytes, nodes)
            for stack in self.stacks
            for nodes in self.node_axis()
            for nbytes in self.size_axis()
        ]

    def _measure(self, stack: str, nbytes: int, nodes: int) -> Measurement:
        return measure(stack, self.operation, nbytes, nodes)

    def chart(self) -> str | None:
        """The panel as an :func:`ascii_chart`; None for a panel read as a table."""
        return None


class SrmCurves(Panel):
    """Figs. 6–8 (left): SRM time over every size, one curve per processor count."""

    def values(self) -> dict[str, float]:
        return {
            f"P{16 * nodes}_{nbytes}B": self._measure("srm", nbytes, nodes).microseconds
            for nodes in self.node_axis()
            for nbytes in self.size_axis()
        }

    def table(self) -> tuple[str, list[str], list[list[str]]]:
        configs = self.node_axis()
        headers = ["size"] + [f"P={16 * nodes}" for nodes in configs]
        rows = [
            [format_bytes(nbytes)]
            + [format_us(self._measure("srm", nbytes, nodes).seconds) for nodes in configs]
            for nbytes in self.size_axis()
        ]
        return f"Fig. {self.figure} (left): SRM {self.operation} time [us]", headers, rows

    def chart(self) -> str:
        series = []
        for index, nodes in enumerate(self.node_axis()):
            data = [
                (float(nbytes), self._measure("srm", nbytes, nodes).microseconds)
                for nbytes in self.size_axis()
            ]
            series.append((f"P={16 * nodes}", "ox+*#"[index % 5], data))
        return ascii_chart(f"Fig. {self.figure}: SRM {self.operation} time (log-log)", series)


class StackComparison(Panel):
    """Figs. 6–8 (right): every stack over the small sizes at the largest P;
    the values are SRM's time as a percentage of each baseline's."""

    def values(self) -> dict[str, float]:
        (nodes,) = self.node_axis()
        return {
            f"ratio_{base}_{nbytes}B": ratio_percent(
                self._measure("srm", nbytes, nodes), self._measure(base, nbytes, nodes)
            )
            for nbytes in self.size_axis()
            for base in self.stacks[1:]
        }

    def table(self) -> tuple[str, list[str], list[list[str]]]:
        (nodes,) = self.node_axis()
        headers = ["size"] + [_STACK_NAMES[stack] for stack in self.stacks]
        rows = [
            [format_bytes(nbytes)]
            + [format_us(self._measure(stack, nbytes, nodes).seconds) for stack in self.stacks]
            for nbytes in self.size_axis()
        ]
        return f"{self._title(nodes)} [us]", headers, rows

    def chart(self) -> str:
        (nodes,) = self.node_axis()
        series = [
            (stack, _STACK_GLYPHS[stack], [
                (float(nbytes), self._measure(stack, nbytes, nodes).microseconds)
                for nbytes in self.size_axis()
            ])
            for stack in self.stacks
        ]
        return ascii_chart(self._title(nodes), series)

    def _title(self, nodes: int) -> str:
        return f"Fig. {self.figure} (right): {self.operation} <=64KB at P={16 * nodes}"


class RatioSurface(Panel):
    """Figs. 9–11: SRM time as a percentage of one baseline's, size × P."""

    def values(self) -> dict[str, float]:
        srm, base = self.stacks
        return {
            f"P{16 * nodes}_{nbytes}B": ratio_percent(
                self._measure(srm, nbytes, nodes), self._measure(base, nbytes, nodes)
            )
            for nodes in self.node_axis()
            for nbytes in self.size_axis()
        }

    def table(self) -> tuple[str, list[str], list[list[str]]]:
        values = self.values()
        configs = self.node_axis()
        headers = ["size"] + [f"P={16 * nodes}" for nodes in configs]
        rows = [
            [format_bytes(nbytes)]
            + [f"{values[f'P{16 * nodes}_{nbytes}B']:.1f}%" for nodes in configs]
            for nbytes in self.size_axis()
        ]
        base = self.stacks[1]
        side = "left" if base == "ibm" else "right"
        title = f"Fig. {self.figure} ({side}): SRM {self.operation} as % of {_STACK_NAMES[base]}"
        return f"{title} (lower is better)", headers, rows


class BarrierScaling(Panel):
    """Fig. 12: barrier time of every stack over the processor counts."""

    def values(self) -> dict[str, float]:
        info: dict[str, float] = {}
        for nodes in self.node_axis():
            for stack in self.stacks:
                info[f"{stack}_P{16 * nodes}"] = self._measure(stack, 0, nodes).microseconds
            info[f"ratio_ibm_P{16 * nodes}"] = ratio_percent(
                self._measure("srm", 0, nodes), self._measure("ibm", 0, nodes)
            )
        return info

    def table(self) -> tuple[str, list[str], list[list[str]]]:
        headers = ["procs"] + [_STACK_NAMES[stack] for stack in self.stacks]
        rows = [
            [f"P={16 * nodes}"]
            + [format_us(self._measure(stack, 0, nodes).seconds) for stack in self.stacks]
            for nodes in self.node_axis()
        ]
        return f"Fig. {self.figure}: barrier time vs processor count [us]", headers, rows

    def chart(self) -> str:
        series = [
            (stack, _STACK_GLYPHS[stack], [
                (float(16 * nodes), self._measure(stack, 0, nodes).microseconds)
                for nodes in self.node_axis()
            ])
            for stack in self.stacks
        ]
        title = f"Fig. {self.figure}: barrier vs processors"
        return ascii_chart(title, series, log_x=False, log_y=False, x_label="procs")


#: The paper's evaluation, figure by figure: absolute SRM curves and a
#: three-stack <= 64 KB comparison per operation (6–8), SRM-to-MPI ratio
#: surfaces against IBM MPI (left) and MPICH (right) (9–11), and barrier
#: scaling (12).
FIGURES: dict[int, tuple[Panel, ...]] = {
    6: (
        SrmCurves(6, "broadcast", ("srm",)),
        StackComparison(6, "broadcast", sizes="small", nodes="largest"),
    ),
    7: (
        SrmCurves(7, "reduce", ("srm",)),
        StackComparison(7, "reduce", sizes="small", nodes="largest"),
    ),
    8: (
        SrmCurves(8, "allreduce", ("srm",)),
        StackComparison(8, "allreduce", sizes="small", nodes="largest"),
    ),
    9: (
        RatioSurface(9, "broadcast", ("srm", "ibm")),
        RatioSurface(9, "broadcast", ("srm", "mpich")),
    ),
    10: (
        RatioSurface(10, "reduce", ("srm", "ibm")),
        RatioSurface(10, "reduce", ("srm", "mpich")),
    ),
    11: (
        RatioSurface(11, "allreduce", ("srm", "ibm")),
        RatioSurface(11, "allreduce", ("srm", "mpich")),
    ),
    12: (BarrierScaling(12, "barrier", sizes="none"),),
}


def _log_position(value: float, low: float, high: float, extent: int) -> int:
    if value <= 0 or low <= 0:
        raise ValueError("log-scale values must be positive")
    span = math.log10(high) - math.log10(low)
    if span == 0:
        return 0
    fraction = (math.log10(value) - math.log10(low)) / span
    return round(fraction * (extent - 1))


def _linear_position(value: float, low: float, high: float, extent: int) -> int:
    span = high - low
    if span == 0:
        return 0
    return round((value - low) / span * (extent - 1))


def ascii_chart(
    title: str,
    series: typing.Sequence[Series],
    width: int = 68,
    height: int = 18,
    log_x: bool = True,
    log_y: bool = True,
    x_label: str = "bytes",
    y_label: str = "us",
) -> str:
    """Render curves as an ASCII chart (log axes by default, like Figs 6-8)."""
    points = [point for _label, _glyph, data in series for point in data]
    if not points:
        return f"{title}\n(no data)"
    x_low = min(x for x, _y in points)
    x_high = max(x for x, _y in points)
    y_low = min(y for _x, y in points)
    y_high = max(y for _x, y in points)
    x_place = _log_position if log_x else _linear_position
    y_place = _log_position if log_y else _linear_position

    grid = [[" "] * width for _ in range(height)]
    for _label, glyph, data in series:
        for x, y in data:
            column = x_place(x, x_low, x_high, width)
            row = height - 1 - y_place(y, y_low, y_high, height)
            grid[row][column] = glyph

    def fmt(value: float) -> str:
        if value >= 1e6:
            return f"{value / 1e6:.3g}M"
        if value >= 1e3:
            return f"{value / 1e3:.3g}K"
        return f"{value:.3g}"

    lines = [title]
    top_label = f"{fmt(y_high)} {y_label}"
    bottom_label = f"{fmt(y_low)} {y_label}"
    margin = max(len(top_label), len(bottom_label)) + 1
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = top_label.rjust(margin)
        elif row_index == height - 1:
            prefix = bottom_label.rjust(margin)
        else:
            prefix = " " * margin
        lines.append(prefix + "|" + "".join(row))
    axis = " " * margin + "+" + "-" * width
    lines.append(axis)
    x_axis = f"{fmt(x_low)} {x_label}".ljust(width // 2) + f"{fmt(x_high)} {x_label}".rjust(
        width // 2
    )
    lines.append(" " * (margin + 1) + x_axis)
    legend = "   ".join(f"{glyph}={label}" for label, glyph, _data in series)
    lines.append(" " * (margin + 1) + legend)
    return "\n".join(lines)


#: Scatter glyph per operation (falls back to the op's first letter).
_SCATTER_GLYPHS = {"allgather": "g", "allreduce": "a", "broadcast": "b", "reduce": "r"}


def calibration_scatter(document: typing.Mapping[str, typing.Any]) -> str:
    """Predicted-vs-measured scatter from a ``repro calibrate`` report.

    Every measured (variant, size, nodes) candidate becomes one point —
    measured latency on the x axis, the cost hook's analytic prediction on
    the y axis — glyphed per operation, with the ``predicted = measured``
    diagonal dotted in for reference.  Points above the diagonal are
    overpredictions; the vertical spread is exactly the model error the
    report's ``model_error`` section quantifies per term.
    """
    by_op: dict[str, list[tuple[float, float]]] = {}
    for cell in document["cells"]:
        for entry in cell["variants"].values():
            measured = entry["measured_us"]
            predicted = entry["predicted_us"]
            if measured is None or measured <= 0 or predicted <= 0:
                continue
            by_op.setdefault(cell["operation"], []).append((measured, predicted))
    points = [value for data in by_op.values() for point in data for value in point]
    if not points:
        return "calibration scatter: no measured cells"
    low, high = min(points), max(points)
    steps = 24
    if high > low:
        ratio = (high / low) ** (1 / (steps - 1))
        diagonal = [(low * ratio**i,) * 2 for i in range(steps)]
    else:
        diagonal = [(low, low)]
    series: list[Series] = [("predicted=measured", ".", diagonal)]
    series += [
        (op, _SCATTER_GLYPHS.get(op, op[:1]), data)
        for op, data in sorted(by_op.items())
    ]
    return ascii_chart(
        f"predicted vs measured latency [{document.get('label', 'calibration')}]",
        series,
        x_label="measured us",
        y_label="predicted us",
    )
