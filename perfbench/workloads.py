"""Benchmark workloads: (task, defense, attack) cells the acceptance suite runs.

Each workload is a shipped config file plus overrides. A workload seed
expands into an endless sequence of repetitions; each repetition is one
``aflbench run`` over its own ``data_seed`` and trial seeds, so no two
repetitions of a run share inputs and an in-process result cache cannot
shorten a later one.
"""
from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Dict, Iterator

from aflbench.config import ExperimentConfig, SeedConfig, load_config

# Trials per repetition, as in the shipped configs' run_seeds.
TRIALS_PER_REP = 3


@dataclass(frozen=True)
class Workload:
    config_file: str
    overrides: Dict[str, Dict[str, object]]
    # Repetitions whose trials give the final_* quality metrics. Always run,
    # even past the measurement window, so the metric depends only on the seed.
    quality_reps: int


WORKLOADS: Dict[str, Workload] = {
    "reg_clean": Workload("configs/table1_synthetic.ini", {}, quality_reps=20),
    "reg_adaptive": Workload("configs/table1_synthetic.ini",
                             {"attack": {"kind": "adaptive"}}, quality_reps=6),
    "cls_backdoor": Workload("configs/classification_backdoor.ini", {},
                             quality_reps=15),
    "reg_kardam_gd": Workload("configs/table1_synthetic.ini",
                              {"defense": {"kind": "kardam"},
                               "attack": {"kind": "gradient_deviation"}},
                              # final MSE here is heavy-tailed across trials
                              quality_reps=30),
}


def derived_seed(*parts) -> int:
    """A 31-bit seed from a stable hash of its parts."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def base_config(workload: Workload, root) -> ExperimentConfig:
    config = load_config(root / workload.config_file)
    for section, fields in workload.overrides.items():
        part = dataclasses.replace(getattr(config, section), **fields)
        config = dataclasses.replace(config, **{section: part})
    return config


def repetitions(base: ExperimentConfig, name: str,
                seed: int) -> Iterator[ExperimentConfig]:
    """Configs for repetition 0, 1, ... of a workload under one seed."""
    rep = 0
    while True:
        trial_seeds = tuple(derived_seed(name, seed, rep, "trial", k)
                            for k in range(TRIALS_PER_REP))
        seeds = SeedConfig(data_seed=derived_seed(name, seed, rep, "data"),
                           run_seeds=trial_seeds)
        yield dataclasses.replace(base, seeds=seeds)
        rep += 1
