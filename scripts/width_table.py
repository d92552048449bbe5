"""Print the lockstep width table: microseconds per trial-iteration of
``engine.run_trials`` alone, with K seeds run in lockstep.

Each cell is one (config, defense, attack) triple: the default regression
config, ``configs/table1_synthetic.ini``, with AFLGuard and no attack, and
with Zeno++, Kardam and BASGD under gradient deviation; and AFLGuard under
the backdoor on ``configs/classification_backdoor.ini``, the softmax task.
Its data is prepared once, and
``run_trials`` on seeds 1, ..., K is timed three times for each K in
{3, 12, 48}; the table shows the best run's time over T * K
trial-iterations. This times less
than ``perfbench``'s ``iter_us``, which also times data preparation and
the output files. BLAS runs on one thread. Usage (about 30 s):

    python3 scripts/width_table.py
"""
from __future__ import annotations

import dataclasses
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

# One BLAS thread: set before numpy is first imported.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from aflbench.config import ExperimentConfig, load_config  # noqa: E402
from aflbench.engine import prepare_data, run_trials  # noqa: E402

REGRESSION = ROOT / "configs" / "table1_synthetic.ini"
CELLS = (("AFLGuard, no attack", REGRESSION, "aflguard", "none"),
         ("Zeno++, gradient deviation", REGRESSION, "zenopp", "gradient_deviation"),
         ("Kardam, gradient deviation", REGRESSION, "kardam", "gradient_deviation"),
         ("BASGD, gradient deviation", REGRESSION, "basgd", "gradient_deviation"),
         ("AFLGuard, backdoor (softmax)",
          ROOT / "configs" / "classification_backdoor.ini", "aflguard", "backdoor"))
WIDTHS = (3, 12, 48)
REPEATS = 3


def cell_config(base: ExperimentConfig, defense: str, attack: str,
                iterations: int) -> ExperimentConfig:
    return dataclasses.replace(
        base, defense=dataclasses.replace(base.defense, kind=defense),
        attack=dataclasses.replace(base.attack, kind=attack),
        schedule=dataclasses.replace(base.schedule, iterations=iterations))


def us_per_trial_iteration(config: ExperimentConfig, prepared, width: int,
                           repeats: int) -> float:
    """The best of ``repeats`` timed ``run_trials`` calls on seeds 1..width."""
    seeds = tuple(range(1, width + 1))
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run_trials(config, prepared, seeds)
        best = min(best, time.perf_counter() - start)
    return best / (config.schedule.iterations * width) * 1e6


def main(widths: Sequence[int] = WIDTHS, repeats: int = REPEATS,
         iterations: Optional[int] = None) -> int:
    """Print the table; ``iterations`` defaults to each cell's config's."""
    print("| cell | " + " | ".join(f"K = {k}" for k in widths) + " |")
    print("|---|" + "---|" * len(widths))
    for label, path, defense, attack in CELLS:
        base = load_config(path)
        config = cell_config(base, defense, attack, base.schedule.iterations
                             if iterations is None else iterations)
        prepared = prepare_data(config)
        times = [us_per_trial_iteration(config, prepared, k, repeats)
                 for k in widths]
        print(f"| {label} | " + " | ".join(f"{t:.1f}" for t in times) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
