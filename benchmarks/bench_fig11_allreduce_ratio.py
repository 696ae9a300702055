"""Figure 11 — SRM allreduce time as a fraction of IBM MPI (left) and MPICH
(right) MPI_Allreduce.

Acceptance shape: SRM wins everywhere; improvements overlap the paper's
30–73% band.
"""

from repro.bench.figures import FIGURES

VS_IBM, VS_MPICH = FIGURES[11]


def bench_fig11_vs_ibm(run_panel):
    info = run_panel(VS_IBM)
    assert all(percent < 100.0 for percent in info.values())
    improvements = [100.0 - percent for percent in info.values()]
    assert max(improvements) > 30.0


def bench_fig11_vs_mpich(run_panel):
    info = run_panel(VS_MPICH)
    assert all(percent < 100.0 for percent in info.values())
