"""Tests for the ASCII chart renderer and the CLI."""

import pytest

from repro.bench.figures import ascii_chart
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


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])
