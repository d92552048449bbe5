"""Command-line harness: gen-data, run, sweep, verify.

Outputs are plot-ready: one CSV per trial (a row per metric record) plus a
summary.json aggregating final metrics across seeds. Every output embeds
the exact config and seed that produced it. Runs whose error leaves the
finite reporting range carry the divergence marker in the summary.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .config import (SWEEP_AXES, ConfigError, ExperimentConfig, apply_axis,
                     config_to_dict, load_config, parse_seeds)
from .data import save_csv, split_train_test
from .engine import (DIVERGENCE_MARKER, PreparedData, TrialResult,
                     beyond_reporting_range, make_dataset, prepare_data,
                     run_trials)
from .metrics import MetricRecord

CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(MetricRecord))
# the metric columns, each a MetricRecord field, which a divergent run
# reports as the divergence marker
METRIC_COLUMNS = ("mse", "test_error_rate", "mee", "attack_success_rate")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_trial_csv(path: Path, result: TrialResult,
                    config: ExperimentConfig) -> None:
    lines = [
        "# config: " + json.dumps(config_to_dict(config), sort_keys=True),
        f"# seed: {result.seed}",
        ",".join(CSV_COLUMNS),
    ]
    for rec in result.records:
        lines.append(",".join(_fmt(getattr(rec, col)) for col in CSV_COLUMNS))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _final_metrics(result: TrialResult) -> dict:
    final = {col: getattr(result.final_record, col) for col in CSV_COLUMNS}
    for key in METRIC_COLUMNS:
        if final[key] is not None and (result.diverged
                                       or beyond_reporting_range(final[key])):
            final[key] = DIVERGENCE_MARKER
    final["diverged"] = result.is_divergent()
    return final


def _aggregate(per_seed: List[dict], key: str):
    values = [m[key] for m in per_seed]
    if any(v is None for v in values):
        return None, None
    if any(v == DIVERGENCE_MARKER for v in values):
        return DIVERGENCE_MARKER, DIVERGENCE_MARKER
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return mean, std


def write_summary(path: Path, config: ExperimentConfig,
                  results: Sequence[TrialResult]) -> None:
    per_seed = {str(r.seed): _final_metrics(r) for r in results}
    finals = list(per_seed.values())
    summary = {
        "artifact_version": __version__,
        "config": config_to_dict(config),
        "seeds": [r.seed for r in results],
        "per_seed": per_seed,
        "mean": {}, "std": {},
    }
    for key in METRIC_COLUMNS:
        mean, std = _aggregate(finals, key)
        summary["mean"][key] = mean
        summary["std"][key] = std
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def run_command(config: ExperimentConfig, out_dir: Path) -> List[TrialResult]:
    """Run one trial per run seed; write per-trial CSVs and a summary JSON."""
    return _run_prepared(config, prepare_data(config), out_dir)


def _run_prepared(config: ExperimentConfig, prepared: PreparedData,
                  out_dir: Path) -> List[TrialResult]:
    """``run_command`` on data already prepared: the output directory is
    made only once the data is known good."""
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = config.seeds.run_seeds
    results = run_trials(config, prepared, seeds)
    for seed, result in zip(seeds, results):
        write_trial_csv(out_dir / f"trial_seed{seed}.csv", result, config)
    write_summary(out_dir / "summary.json", config, results)
    return results


def _label(value: float) -> str:
    """Text of a sweep value: ``:g`` where that parses back to the value,
    else the exact repr."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def sweep_command(config: ExperimentConfig, axis: str, values: Sequence[float],
                  out_dir: Path) -> int:
    """One run per axis value; emit a combined long-format CSV."""
    if not values:
        raise ConfigError("sweep needs at least one value")
    if len(set(values)) != len(values):
        raise ConfigError(f"sweep values must be distinct, got {list(values)}")
    runs = [(_label(value), apply_axis(config, axis, value)) for value in values]
    # every value's data before the first run, so that a value whose data
    # is rejected writes nothing
    prepared = [prepare_data(run_config) for _, run_config in runs]
    if axis == "ds" and prepared[0].trusted.num_classes is None:
        # data.sample_trusted draws a regression trusted set uniformly
        raise ConfigError("sweep axis ds (distribution_shift) is not read by a "
                          "regression task, so every value would run the same")
    combined = [",".join(("axis", "value", "seed") + CSV_COLUMNS)]
    for (label, run_config), data in zip(runs, prepared):
        results = _run_prepared(run_config, data, out_dir / f"{axis}_{label}")
        for result in results:
            for rec in result.records:
                row = [axis, label, str(result.seed)]
                row += [_fmt(getattr(rec, col)) for col in CSV_COLUMNS]
                combined.append(",".join(row))
    (out_dir / "sweep.csv").write_text("\n".join(combined) + "\n", encoding="utf-8")
    return 0


def gen_data_command(config: ExperimentConfig, out_dir: Path) -> int:
    """Materialize the configured task's train/test split as CSV files.

    It generates and splits only: the client, trusted-set and attack
    settings do not apply to the files, so they are not checked here."""
    pool, true_model = make_dataset(config)
    train, test = split_train_test(len(pool), config.task.train_count,
                                   config.seeds.data_seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_csv(pool.subset(train), out_dir / "train.csv")
    save_csv(pool.subset(test), out_dir / "test.csv")
    if true_model is not None:
        (out_dir / "true_model.csv").write_text(
            ",".join(repr(float(v)) for v in true_model) + "\n",
            encoding="utf-8")
    print(f"wrote {len(train)} train / {len(test)} test examples to {out_dir}")
    return 0


def _parse_values(raw: str) -> List[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError("--values expects comma-separated numbers") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aflbench",
        description="Byzantine-robust asynchronous federated learning benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment (all configured seeds)")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", default=None,
                       help="override run seeds, e.g. 1,2,3")

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values")

    p_gen = sub.add_parser("gen-data", help="write the configured dataset as CSV")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out", required=True)

    sub.add_parser("verify", help="run the property and acceptance suites")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            from .acceptance import verify_main
            return verify_main()
        config = load_config(args.config)
        if args.command == "run":
            if args.seed is not None:
                seeds = dataclasses.replace(config.seeds,
                                            run_seeds=parse_seeds(args.seed, "--seed"))
                config = dataclasses.replace(config, seeds=seeds)
            run_command(config, Path(args.out))
            return 0
        if args.command == "sweep":
            return sweep_command(config, args.axis, _parse_values(args.values),
                                 Path(args.out))
        if args.command == "gen-data":
            return gen_data_command(config, Path(args.out))
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
