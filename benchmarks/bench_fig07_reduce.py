"""Figure 7 — SRM reduce performance (sum over doubles, §3).

Left: absolute SRM reduce time per size per processor count.
Right: SRM vs IBM MPI vs MPICH MPI_Reduce for messages up to 64 KB at the
largest configuration.
"""

from repro.bench.figures import FIGURES

LEFT, RIGHT = FIGURES[7]


def bench_fig07_left_srm_absolute(run_panel):
    info = run_panel(LEFT)
    for nodes in LEFT.node_axis():
        series = [info[f"P{16 * nodes}_{nbytes}B"] for nbytes in LEFT.size_axis()]
        assert series == sorted(series), f"non-monotonic size scaling at {nodes} nodes"


def bench_fig07_right_comparison_small(run_panel):
    info = run_panel(RIGHT)
    for key, percent in info.items():
        assert percent < 100.0, f"SRM reduce not fastest: {key}={percent:.1f}%"
