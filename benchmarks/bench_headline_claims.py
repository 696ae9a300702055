"""The paper's §3 headline claims, checked at the largest configuration.

"Depending on the message size and number of processors, SRM broadcast
outperforms IBM MPI_Bcast by 27% to 84% ... reduce by 24% to 79% ...
allreduce by 30% to 73% ... barrier by 73% on 256 processors."

The simulated reproduction asserts the direction and the rough factor: the
best-case improvement in each operation's sweep reaches the paper's lower
band, and SRM never loses.  The sweeps are the largest-P columns of the
Figs. 9–11 surfaces against IBM MPI and Fig. 12's barrier.
"""

import dataclasses

from repro.bench import print_table
from repro.bench.figures import FIGURES

#: Per operation: its ratio-surface figure, and the paper's band (min, max %)
#: of SRM's improvement over IBM MPI.
PAPER_BANDS = {
    "broadcast": (9, 27.0, 84.0),
    "reduce": (10, 24.0, 79.0),
    "allreduce": (11, 30.0, 73.0),
}


def bench_headline_improvement_bands(run_once):
    def sweep():
        rows = []
        info = {}
        for operation, (figure, low, high) in PAPER_BANDS.items():
            vs_ibm = dataclasses.replace(FIGURES[figure][0], nodes="largest")
            improvements = [100.0 - percent for percent in vs_ibm.values().values()]
            info[f"{operation}_min"] = min(improvements)
            info[f"{operation}_max"] = max(improvements)
            rows.append(
                [
                    operation,
                    f"{min(improvements):.1f}%",
                    f"{max(improvements):.1f}%",
                    f"{low:.0f}%-{high:.0f}%",
                ]
            )
        barrier = dataclasses.replace(FIGURES[12][0], nodes="largest")
        (nodes,) = barrier.node_axis()
        info["barrier"] = 100.0 - barrier.values()[f"ratio_ibm_P{16 * nodes}"]
        rows.append(["barrier", f"{info['barrier']:.1f}%", "", "73%"])
        print_table(
            f"Headline: SRM improvement over IBM MPI at P={16 * nodes}",
            ["operation", "min", "max", "paper band"],
            rows,
        )
        return info

    info = run_once(sweep)
    for operation, (_figure, low, _high) in PAPER_BANDS.items():
        assert info[f"{operation}_min"] > 0.0, f"SRM lost somewhere on {operation}"
        assert info[f"{operation}_max"] >= low, (
            f"{operation}: best improvement {info[f'{operation}_max']:.1f}% "
            f"below the paper's lower band {low}%"
        )
    assert info["barrier"] >= 50.0
