"""Figure 9 regeneration: DSM-Sort speedup vs number of ASUs.

Paper setup (§6): one host; ASUs with 1/8 the host's processing power
(c = 8); 128-byte records with 4-byte keys; input pre-distributed across the
ASUs; timings from the first pass (run formation) only.  Series: α ∈
{1, 4, 16, 64, 256} plus the adaptive configuration; speedup is relative to a
passive-storage baseline where all computation happens at the host.

The calibrated cost family below sets the host:ASU work ratio so the
qualitative shape matches the paper: slowdown (<1×) for high α with few
ASUs, rising speedup as ASUs are added, host saturation flattening each
series, higher α winning at large D, and adaptive tracking the envelope to
≈1.8×.  Absolute saturation points differ from the paper's (theirs: 16 ASUs)
because their absolute CPU/disk constants are unpublished; see EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.config import ConfigSolver, DSMConfig
from ..dsmsort.runtime import DsmSortJob
from ..emulator.params import SystemParams
from .parallel import parallel_map
from .report import ascii_plot, render_series_table

__all__ = ["FIG9_ALPHAS", "FIG9_ASU_COUNTS", "fig9_params", "Figure9Result", "run_figure9"]

FIG9_ALPHAS = (1, 4, 16, 64, 256)
FIG9_ASU_COUNTS = (2, 4, 8, 16, 32, 64)
FIG9_GAMMA = 64
BASELINE_ALPHA = 64


def fig9_params(n_asus: int, c: float = 8.0, n_hosts: int = 1) -> SystemParams:
    """The calibrated platform family used for the figure benches."""
    return SystemParams(
        n_hosts=n_hosts,
        n_asus=n_asus,
        asu_ratio=c,
        cycles_per_compare=100.0,
        cycles_per_record=300.0,
        cycles_per_net_byte=1.5,
        cycles_per_io_byte=0.5,
        block_records=1024,
    )


@dataclass
class Figure9Result:
    """Speedup series, paper-figure style."""

    n_records: int
    asu_counts: list[int]
    #: series name -> speedup per ASU count
    speedup: dict[str, list[float]] = field(default_factory=dict)
    #: baseline makespans per ASU count
    baseline_makespan: list[float] = field(default_factory=list)
    #: adaptive α chosen per ASU count
    adaptive_alpha: list[int] = field(default_factory=list)

    def to_csv(self) -> str:
        """Comma-separated speedup series (one row per ASU count)."""
        names = list(self.speedup)
        lines = ["asus," + ",".join(names)]
        for i, d in enumerate(self.asu_counts):
            lines.append(
                f"{d}," + ",".join(f"{self.speedup[n][i]:.4f}" for n in names)
            )
        return "\n".join(lines) + "\n"

    def render(self) -> str:
        table = render_series_table(
            "ASUs",
            self.asu_counts,
            self.speedup,
            title=(
                f"Figure 9 — DSM-Sort pass-1 speedup vs #ASUs "
                f"(n={self.n_records}, 1 host, c=8; baseline = passive storage)"
            ),
        )
        plot = ascii_plot(
            [float(d) for d in self.asu_counts],
            self.speedup,
            title="speedup vs num ASUs",
        )
        out = f"{table}\n\n{plot}\n"
        if self.adaptive_alpha:
            alphas = ", ".join(
                f"D={d}: alpha={a}" for d, a in zip(self.asu_counts, self.adaptive_alpha)
            )
            out += f"\nadaptive configuration chose: {alphas}\n"
        return out


def _cell_makespan(task: tuple[int, float, DSMConfig, bool, int]) -> float:
    """One cell's pass-1 makespan; a module-level function, so it pickles."""
    n_asus, c, cfg, active, seed = task
    job = DsmSortJob(fig9_params(n_asus, c=c), cfg, policy="static", workload="uniform",
                     active=active, seed=seed)
    return job.run_pass1().makespan


def run_figure9(
    n_records: int = 1 << 18,
    asu_counts=FIG9_ASU_COUNTS,
    alphas=FIG9_ALPHAS,
    gamma: int = FIG9_GAMMA,
    c: float = 8.0,
    seed: int = 42,
    include_adaptive: bool = True,
) -> Figure9Result:
    """Emulate the full Figure-9 sweep and return the speedup series."""
    result = Figure9Result(n_records=n_records, asu_counts=list(asu_counts))
    series: dict[str, list[float]] = {str(a): [] for a in alphas}
    if include_adaptive:
        series["adaptive"] = []

    # Per ASU count: the passive baseline cell, then one active cell per
    # series (the adaptive pick last).
    grid: list[tuple[int, list[DSMConfig]]] = []
    for D in asu_counts:
        solver = ConfigSolver(fig9_params(D, c=c), gamma=gamma)
        cfgs = [solver.config_for_alpha(n_records, a) for a in alphas]
        if include_adaptive:
            cfgs.append(solver.choose(n_records))
            result.adaptive_alpha.append(cfgs[-1].alpha)
        grid.append((D, [solver.config_for_alpha(n_records, BASELINE_ALPHA), *cfgs]))

    # A cell is a pure function of (params, cfg, active, seed), and the
    # adaptive configuration is by construction one the solver could also be
    # handed — usually an α of the grid — so each distinct cell is emulated
    # once.  The cells fan out across processes longest first (a cell costs
    # its run count, n / β), so the slowest cell never starts last; results
    # are keyed by cell, so completion order cannot reach a float.
    cells = dict.fromkeys(
        (D, cfg, i > 0) for D, cfgs in grid for i, cfg in enumerate(cfgs)
    )
    order = sorted(cells, key=lambda cell: cell[1].n_records // cell[1].beta, reverse=True)
    tasks = [(D, c, cfg, active, seed) for D, cfg, active in order]
    makespan = dict(zip(order, parallel_map(_cell_makespan, tasks)))

    for D, (base_cfg, *cfgs) in grid:
        t_base = makespan[D, base_cfg, False]
        result.baseline_makespan.append(t_base)
        for name, cfg in zip([*map(str, alphas), "adaptive"], cfgs):
            series[name].append(t_base / makespan[D, cfg, True])

    result.speedup = series
    return result
