"""Figure 9 — SRM broadcast time as a fraction of IBM MPI (left) and MPICH
(right) MPI_Bcast, full 8 B – 8 MB range, P = 16 ... 256.

Acceptance shape: every ratio is below 100% (SRM always wins, as in every
test run of the paper), and the P=256 improvements overlap the paper's
27–84% headline band.
"""

from repro.bench.figures import FIGURES

VS_IBM, VS_MPICH = FIGURES[9]


def bench_fig09_vs_ibm(run_panel):
    info = run_panel(VS_IBM)
    assert all(percent < 100.0 for percent in info.values())
    # Paper: SRM bcast beats IBM MPI by 27%-84% depending on size/P.
    improvements = [100.0 - percent for percent in info.values()]
    assert max(improvements) > 27.0
    assert min(improvements) > 0.0


def bench_fig09_vs_mpich(run_panel):
    info = run_panel(VS_MPICH)
    assert all(percent < 100.0 for percent in info.values())
