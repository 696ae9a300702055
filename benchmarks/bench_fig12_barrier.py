"""Figure 12 — barrier time versus processor count (SRM, IBM MPI, MPICH).

Acceptance shape: SRM is fastest at every processor count, scales gently
(~log in node count), and at 256 processors clearly outperforms both MPI
implementations (the paper reports a 73% improvement; the simulated
substrate reproduces a >=50% improvement — see EXPERIMENTS.md for the
residual discussion).
"""

from repro.bench.figures import FIGURES

(BARRIER,) = FIGURES[12]


def bench_fig12_barrier_scaling(run_panel):
    info = run_panel(BARRIER)
    configs = BARRIER.node_axis()
    for nodes in configs:
        P = 16 * nodes
        assert info[f"srm_P{P}"] < info[f"ibm_P{P}"], f"SRM barrier not fastest at P={P}"
        assert info[f"srm_P{P}"] < info[f"mpich_P{P}"], f"SRM barrier not fastest at P={P}"
    # At the largest configuration the improvement is substantial (>= 50%).
    largest = 16 * configs[-1]
    assert info[f"ratio_ibm_P{largest}"] < 50.0
