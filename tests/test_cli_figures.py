"""Tests for the ASCII chart renderer, the figure table and the CLI."""

import pytest

from repro.bench.figures import FIGURES, ascii_chart
from repro.bench.runner import Measurement
from repro.bench.sweeps import clear_cache
from repro.cli import main


# ---------------------------------------------------------------------------
# ascii_chart
# ---------------------------------------------------------------------------


def test_chart_contains_points_and_legend():
    art = ascii_chart(
        "demo",
        [("alpha", "a", [(1.0, 10.0), (100.0, 1000.0)]), ("beta", "b", [(10.0, 100.0)])],
        width=40,
        height=10,
    )
    assert art.startswith("demo")
    assert "a" in art and "b" in art
    assert "a=alpha" in art and "b=beta" in art


def test_chart_log_extremes_on_borders():
    art = ascii_chart("d", [("s", "#", [(1.0, 1.0), (1000.0, 1000.0)])], width=30, height=8)
    rows = [line for line in art.splitlines() if "|" in line]
    # Min point bottom-left, max point top-right.
    assert rows[0].rstrip().endswith("#")
    assert rows[-1].split("|")[1].startswith("#")


def test_chart_linear_axes():
    art = ascii_chart(
        "lin",
        [("s", "*", [(0.0, 0.0), (10.0, 5.0)])],
        width=20,
        height=6,
        log_x=False,
        log_y=False,
        x_label="procs",
    )
    assert "procs" in art


def test_chart_rejects_nonpositive_on_log_axis():
    with pytest.raises(ValueError):
        ascii_chart("bad", [("s", "*", [(0.0, 1.0), (10.0, 2.0)])])


def test_chart_empty():
    assert "(no data)" in ascii_chart("empty", [])


def test_chart_unit_formatting():
    art = ascii_chart("u", [("s", "*", [(8.0, 1.0), (8.0e6, 1.0e6)])], width=30, height=6)
    assert "8M" in art  # megabyte x end
    assert "1M" in art  # mega-us y end


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "net_latency" in out
    assert "small_protocol_max" in out


def test_cli_compare(capsys):
    assert main(["compare", "--op", "barrier", "--nodes", "2", "--tasks", "2"]) == 0
    out = capsys.readouterr().out
    assert "SRM" in out and "MPICH" in out
    assert "100.0%" in out


def test_cli_trace(capsys):
    assert (
        main(["trace", "--op", "reduce", "--bytes", "1024", "--nodes", "2", "--tasks", "2"])
        == 0
    )
    out = capsys.readouterr().out
    assert "rank" in out
    assert "makespan" in out


def test_cli_trace_rejects_negative_size():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="message size"):
        main(["trace", "--bytes", "-8", "--nodes", "2", "--tasks", "2"])


def test_cli_trace_rejects_zero_width():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="width"):
        main(["trace", "--width", "0", "--nodes", "2", "--tasks", "2"])


def test_cli_trace_rejects_zero_width_before_simulating(monkeypatch):
    from repro.errors import ConfigurationError

    def build(*_args, **_kwargs):
        raise AssertionError("trace built a machine before checking --width")

    monkeypatch.setattr("repro.cli.build", build)
    with pytest.raises(ConfigurationError, match="width must be >= 1 column, got 0"):
        main(["trace", "--width", "0", "--nodes", "2", "--tasks", "2"])


def test_cli_trace_mpi_stack(capsys):
    assert main(["trace", "--op", "barrier", "--stack", "ibm", "--nodes", "2", "--tasks", "2"]) == 0
    assert "MPI sends" in capsys.readouterr().out


def test_cli_unknown_figure(capsys):
    assert main(["figures", "--fig", "99"]) == 2


# ---------------------------------------------------------------------------
# the figure table
# ---------------------------------------------------------------------------


def _fake_measure(read):
    """A stand-in for ``measure`` that records every point it is asked for."""
    scale = {"srm": 1.0, "ibm": 2.0, "mpich": 3.0}

    def measure(stack, operation, nbytes=0, nodes=16, *_rest):
        read.add((stack, operation, nbytes, nodes))
        seconds = scale[stack] * (nbytes + 64) * nodes * 1e-9
        return Measurement(stack, operation, nbytes, 16 * nodes, seconds, 1, nodes=nodes)

    return measure


@pytest.mark.parametrize("full", [False, True], ids=["quick", "full"])
@pytest.mark.parametrize("number", sorted(FIGURES))
def test_figures_read_only_warmed_points(number, full, monkeypatch, capsys):
    """``--jobs`` warms every point a figure reads: a point missing from
    the warm set would be measured serially after the pool finished."""
    if full:
        monkeypatch.setenv("REPRO_BENCH_FULL", "1")
    warmed, read = set(), set()
    monkeypatch.setattr("repro.bench.figures.measure", _fake_measure(read))
    monkeypatch.setattr("repro.cli.warm_cache", lambda specs, jobs: warmed.update(specs))
    assert main(["figures", "--fig", str(number), "--jobs", "2"]) == 0
    assert read, "the figure read no point"
    assert read <= warmed, sorted(read - warmed)
    panels = FIGURES[number]
    assert warmed == {point for panel in panels for point in panel.points()}
    out = capsys.readouterr().out
    for panel in panels:
        assert (panel.table()[0] if panel.chart() is None else panel.chart()) in out


def test_ratio_surface_titles_print_one_percent(monkeypatch, capsys):
    monkeypatch.setattr("repro.bench.figures.measure", _fake_measure(set()))
    assert main(["figures", "--fig", "10"]) == 0
    out = capsys.readouterr().out
    assert "== Fig. 10 (left): SRM reduce as % of IBM MPI (lower is better) ==" in out
    assert "== Fig. 10 (right): SRM reduce as % of MPICH (lower is better) ==" in out
    assert "%%" not in out
    # Every processor count is a column: the surface, not its P=256 edge.
    assert ["size", "P=16", "P=64", "P=256"] in [line.split() for line in out.splitlines()]


def test_fig12_prints_the_same_at_any_jobs(monkeypatch, capsys):
    monkeypatch.setattr("repro.bench.figures.processor_configs", lambda: [1, 2])
    outputs = []
    for jobs in ("1", "2"):
        clear_cache()
        assert main(["figures", "--fig", "12", "--jobs", jobs]) == 0
        outputs.append(capsys.readouterr().out)
    clear_cache()
    assert outputs[0] == outputs[1]
    assert "Fig. 12: barrier vs processors" in outputs[0]


def test_export_points_are_the_full_axis_panels(monkeypatch):
    """``export`` writes the surfaces' and the barrier's points, each once."""
    monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
    read = set()
    monkeypatch.setattr("repro.bench.export.measure", _fake_measure(read))
    from repro.bench.export import collect_sweep

    measurements = collect_sweep()
    assert len(measurements) == len(read) == 171  # 3 ops x 3 stacks x 6 sizes x 3 P + 9
    surfaces = [panel for number in (9, 10, 11, 12) for panel in FIGURES[number]]
    assert read == {point for panel in surfaces for point in panel.points()}


def test_export_rejects_an_operation_no_figure_measures():
    from repro.bench.export import collect_sweep
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="scatter"):
        collect_sweep(operations=("scatter",))


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])
