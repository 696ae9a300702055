"""Figure 10 — SRM reduce time as a fraction of IBM MPI (left) and MPICH
(right) MPI_Reduce.

Acceptance shape: SRM wins everywhere; P=256 improvements overlap the
paper's 24–79% band.
"""

from repro.bench.figures import FIGURES

VS_IBM, VS_MPICH = FIGURES[10]


def bench_fig10_vs_ibm(run_panel):
    info = run_panel(VS_IBM)
    assert all(percent < 100.0 for percent in info.values())
    improvements = [100.0 - percent for percent in info.values()]
    assert max(improvements) > 24.0


def bench_fig10_vs_mpich(run_panel):
    info = run_panel(VS_MPICH)
    assert all(percent < 100.0 for percent in info.values())
