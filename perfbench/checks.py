"""Output checks for one ``aflbench run``: trial CSVs, summary.json and
byte-for-byte determinism. A check returns the trial seeds that failed, with
the reason, so a failure counts against exactly the trials it concerns."""
from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from aflbench.cli import CSV_COLUMNS
from aflbench.config import ExperimentConfig, config_to_dict
from aflbench.engine import METRIC_CADENCE

COUNT_COLUMNS = ("iteration", "accepted", "rejected", "buffered")

Row = Dict[str, Optional[float]]


class OutputError(ValueError):
    pass


def expected_iterations(total: int) -> List[int]:
    """Record iterations: every METRIC_CADENCE-th plus the final one."""
    marks = list(range(METRIC_CADENCE, total + 1, METRIC_CADENCE))
    if total % METRIC_CADENCE:
        marks.append(total)
    return marks


def _parse_cell(column: str, text: str):
    if text == "":
        return None
    return int(text) if column in COUNT_COLUMNS else float(text)


def _config_echo(config: ExperimentConfig) -> dict:
    return json.loads(json.dumps(config_to_dict(config)))


def read_trial_csv(path: Path, config: ExperimentConfig, seed: int) -> List[Row]:
    """Parse and check one trial CSV; return its rows."""
    lines = path.read_text(encoding="utf-8").split("\n")
    if len(lines) < 4 or lines[-1] != "":
        raise OutputError("truncated file")
    prefix = "# config: "
    if (not lines[0].startswith(prefix)
            or json.loads(lines[0][len(prefix):]) != _config_echo(config)):
        raise OutputError("config echo does not match the config run")
    if lines[1] != f"# seed: {seed}":
        raise OutputError("seed line does not match the seed run")
    if lines[2] != ",".join(CSV_COLUMNS):
        raise OutputError("unexpected header")
    rows = []
    for line in lines[3:-1]:
        cells = line.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise OutputError(f"row has {len(cells)} cells: {line!r}")
        rows.append({col: _parse_cell(col, cell)
                     for col, cell in zip(CSV_COLUMNS, cells)})
    marks = [row["iteration"] for row in rows]
    if marks != expected_iterations(config.schedule.iterations):
        raise OutputError(f"record iterations {marks[:3]}... are not one per "
                          f"{METRIC_CADENCE} iterations plus the final one")
    primary = "mse" if rows[0]["mse"] is not None else "test_error_rate"
    for row in rows:
        if row["accepted"] + row["rejected"] + row["buffered"] != row["iteration"]:
            raise OutputError(f"decisions do not sum to iteration {row['iteration']}")
        if row[primary] is None or not math.isfinite(row[primary]):
            raise OutputError(f"non-finite {primary} at iteration {row['iteration']}")
    return rows


def check_run(out_dir: Path, config: ExperimentConfig) -> Tuple[Dict[int, Row], Dict[int, str]]:
    """Check a run's outputs; return (final row per passing seed, reason per
    failed seed)."""
    seeds = config.seeds.run_seeds
    finals: Dict[int, Row] = {}
    failures: Dict[int, str] = {}
    for seed in seeds:
        try:
            finals[seed] = read_trial_csv(out_dir / f"trial_seed{seed}.csv",
                                          config, seed)[-1]
        except (OSError, UnicodeDecodeError, ValueError) as exc:
            failures[seed] = f"trial_seed{seed}.csv: {exc}"
    try:
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        if summary["seeds"] != list(seeds) or summary["config"] != _config_echo(config):
            raise OutputError("seeds or config differ from the run")
        for seed, row in finals.items():
            reported = summary["per_seed"][str(seed)]
            if reported["diverged"]:
                failures[seed] = f"summary.json marks seed {seed} divergent"
            elif any(reported[col] != row[col] for col in CSV_COLUMNS):
                failures[seed] = f"summary.json disagrees with trial_seed{seed}.csv"
        for col in ("mse", "test_error_rate", "mee", "attack_success_rate"):
            values = [summary["per_seed"][str(s)][col] for s in seeds]
            mean, std = summary["mean"][col], summary["std"][col]
            if None in values:
                if (mean, std) != (None, None):
                    raise OutputError(f"{col} aggregated over a missing column")
                continue
            spread = statistics.stdev(values) if len(values) > 1 else 0.0
            if not (math.isclose(mean, statistics.fmean(values), rel_tol=1e-9, abs_tol=1e-15)
                    and math.isclose(std, spread, rel_tol=1e-9, abs_tol=1e-15)):
                raise OutputError(f"{col} mean or std is not that of per_seed")
    except (OSError, UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        for seed in seeds:
            failures.setdefault(seed, f"summary.json: {exc!r}")
    return ({s: row for s, row in finals.items() if s not in failures}, failures)


def compare_runs(first: Path, second: Path, config: ExperimentConfig) -> Dict[int, str]:
    """Trials whose outputs differ by a byte between two runs of one config."""
    failures: Dict[int, str] = {}

    def same(name: str) -> bool:
        try:
            return (first / name).read_bytes() == (second / name).read_bytes()
        except OSError:
            return False

    for seed in config.seeds.run_seeds:
        if not same(f"trial_seed{seed}.csv"):
            failures[seed] = f"trial_seed{seed}.csv differs on re-run"
    if not same("summary.json"):
        for seed in config.seeds.run_seeds:
            failures.setdefault(seed, "summary.json differs on re-run")
    return failures
