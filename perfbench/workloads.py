"""The benchmark's workloads: the sweeps each one runs through the CLI, and why.

Sizes follow the regimes of the acceptance suite and the layers each workload
is meant to load; README.md in this directory gives the reasoning in full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# The spectral test's margin: a draw is flagged when its scaled top singular
# value reaches 2 + SPECTRAL_EPSILON.  It is the program's default.
SPECTRAL_EPSILON = 0.1


@dataclass(frozen=True)
class Sweep:
    """One ``tourney-lab run`` config, minus the seed and the output path."""

    experiment: str
    n_values: tuple
    gammas: tuple
    trials: int

    @property
    def trial_count(self) -> int:
        """Trials the sweep runs; a chi2-table (n, gamma) point counts as one."""
        return len(self.n_values) * len(self.gammas) * self.trials

    def config(self, seed: int, output_path: str) -> dict:
        return {
            "experiment": self.experiment,
            "n_values": list(self.n_values),
            "gamma_spec": list(self.gammas),
            "trials": self.trials,
            "seed": seed,
            "epsilon": SPECTRAL_EPSILON,
            "output_path": output_path,
        }


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sweeps: tuple
    summarize: bool = False  # also run ``summarize`` on the first sweep's CSV


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wedge-large",
            "criterion-3 regime; edge-index work (to_matrix, upper_pairwise_signs) dominates",
            (Sweep("detect-wedge", (2000,), (0.0, 8.0 * 2000**-0.75), 10),),
        ),
        Workload(
            "spectral-large",
            "criterion-5 regime; the full SVD in spectral_statistic dominates",
            (Sweep("detect-spectral", (1200,), (0.0, 1.5 / math.sqrt(1200)), 3),),
        ),
        Workload(
            "recover-small",
            "0.3 ms recover trials, then summarize; per-call core overhead, the sweep loop, CSV write and read-back",
            (Sweep("recover", (32, 64), (0.05, 0.2), 500),),
            summarize=True,
        ),
        Workload(
            "exact-oracles",
            "Python-loop oracles (fourier enumerations, brute-force MLE) no other workload reaches",
            (
                Sweep("chi2-table", (5, 6), (0.05, 0.2), 1),
                Sweep("mle-compare", (9,), (0.05, 0.2), 10),
            ),
        ),
    )
}
