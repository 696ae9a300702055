"""Figure 6 — SRM broadcast performance.

Left panel: absolute SRM broadcast time, 8 B – 8 MB, one curve per
processor count (16 tasks/node).  Right panel: SRM vs IBM MPI vs MPICH for
messages up to 64 KB on the largest configuration.
"""

from repro.bench.figures import FIGURES

LEFT, RIGHT = FIGURES[6]


def bench_fig06_left_srm_absolute(run_panel):
    info = run_panel(LEFT)
    configs = LEFT.node_axis()
    sizes = LEFT.size_axis()
    # Shape: time grows with message size and with processor count.
    for nodes in configs:
        series = [info[f"P{16 * nodes}_{nbytes}B"] for nbytes in sizes]
        assert series == sorted(series), f"non-monotonic size scaling at {nodes} nodes"
    largest = sizes[-1]
    assert info[f"P{16 * configs[-1]}_{largest}B"] >= info[f"P{16 * configs[0]}_{largest}B"]


def bench_fig06_right_comparison_small(run_panel):
    info = run_panel(RIGHT)
    # SRM is fastest at every size in the sub-range (Fig. 6 right), against
    # both baselines.
    for key, percent in info.items():
        assert percent < 100.0, f"SRM broadcast not fastest: {key}={percent:.1f}%"
