"""Paired benchmark of two checkouts: parent against change.

For every workload of ``BENCHMARK.json`` and each of seeds 301-310, runs
``python3 perfbench/run.py --trace 0`` for the declared ``run_seconds`` once
in each checkout, alternating which side goes first from one seed to the
next, then one pair on a held-out seed, and one traced ``reg_clean`` run per
side. Writes a JSON record with every run's end-to-end metrics, each
side's median and quartiles, the change's pair wins, the traced per-layer
metrics, and each side's environment (its ``source_sha256`` of ``src/``, and
its ``git_commit`` when the checkout is a clone). Runs are sequential, so no
two runs compete for a CPU.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --held-out 347 --out BENCH_5.json

Pick a held-out seed that was not used while writing the change.

A run takes about 25 s, so ten pairs of four workloads take about 40 min.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
TRACED_WORKLOAD = "reg_clean"
SEEDS = list(range(301, 311))


def bench(checkout: Path, workload: str, seed: int, seconds: int,
          trace: int) -> dict:
    """One perfbench run; its full record and its result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"record": record, "result": result}


def _values(run: dict) -> dict:
    result = run["result"]
    out = {name: m["value"] for name, m in result["metrics"].items()}
    out["attempted"], out["failed"] = result["attempted"], result["failed"]
    return out


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        side_stats = {}
        for side in SIDES:
            q1, med, q3 = np.percentile([p[side][name] for p in pairs], [25, 50, 75])
            side_stats[side] = {"median": float(med), "q1": float(q1),
                                "q3": float(q3)}
        wins = sum((p["change"][name] < p["parent"][name]) if lower
                   else (p["change"][name] > p["parent"][name]) for p in pairs)
        ties = sum(p["change"][name] == p["parent"][name] for p in pairs)
        out[name] = {**side_stats, "change_wins": wins, "ties": ties,
                     "pairs": len(pairs),
                     "median_ratio_change_over_parent":
                         side_stats["change"]["median"] / side_stats["parent"]["median"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--held-out", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.held_out in SEEDS:
        parser.error(f"--held-out must not be one of seeds {SEEDS[0]}-{SEEDS[-1]}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = {w: [] for w in workloads}
    held_out = {}
    environment = {}
    for i, seed in enumerate(SEEDS + [args.held_out]):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                run = bench(checkouts[side], workload, seed, seconds, 0)
                env = {k: v for k, v in run["record"]["environment"].items()
                       if k != "workload_seed"}
                if environment.setdefault(side, env) != env:
                    raise SystemExit(f"the {side} checkout changed mid-benchmark")
                pair[side] = _values(run)
            print(json.dumps({"workload": workload, **pair}), file=sys.stderr,
                  flush=True)
            if seed == args.held_out:
                held_out[workload] = pair
            else:
                pairs[workload].append(pair)

    traced = {}
    for side in SIDES:
        run = bench(checkouts[side], TRACED_WORKLOAD, SEEDS[0], seconds, 1)
        traced[side] = {"seed": SEEDS[0], **_values(run),
                        "missing_trace_points": run["record"]["missing_trace_points"]}

    record = {
        "command": f"perfbench/run.py --seconds {seconds} --trace 0",
        "nproc": os.cpu_count(),
        "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": environment,
        "seeds": SEEDS,
        "held_out_seed": args.held_out,
        "summary": {w: summarize(pairs[w], declared["end_to_end"]) for w in workloads},
        "held_out": held_out,
        "pairs": pairs,
        "traced": {"workload": TRACED_WORKLOAD, **traced},
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
