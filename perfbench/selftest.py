"""Self-tests of the benchmark, on shrunken workloads (a few seconds in all).

Run from the root of the repository with either of:

    python3 -m pytest -q perfbench/selftest.py
    python3 perfbench/selftest.py
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from measure import measure  # noqa: E402
from tracer import LAYERS, LOOP  # noqa: E402
from workloads import WORKLOADS, base_config  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str):
    """The workload's config at 120 iterations over 2,400 examples of
    dimension 10, small enough that no error reaches the divergence marker."""
    config = base_config(WORKLOADS[name], ROOT)
    return dataclasses.replace(
        config,
        task=dataclasses.replace(config.task, num_samples=2400, train_count=2000,
                                 dim=10),
        schedule=dataclasses.replace(config.schedule, iterations=120))


def run_tiny(name: str, trace: bool = False, seed: int = 1, after_rep=None) -> dict:
    return measure(name, seed, 0.0, trace, ROOT, base=tiny(name),
                   quality_reps=2, after_rep=after_rep)


def flip_byte(path: Path, fraction: float) -> None:
    data = bytearray(path.read_bytes())
    data[int(fraction * (len(data) - 1))] ^= 0x01
    path.write_bytes(bytes(data))


def test_clean_run_has_no_failures():
    record = run_tiny("reg_clean", trace=True)
    assert record["attempted"] >= 6
    assert record["failed"] == 0, record["failures"]
    assert record["metrics"]["failed_share"][0] == 0.0


def test_corrupted_csv_byte_counts_as_failed():
    # Header, a metric value mid-file, the final row: each is caught.
    for fraction in (0.02, 0.5, 0.97):
        def corrupt(rep, out_dir, fraction=fraction):
            if rep == 0:
                flip_byte(out_dir / sorted(os.listdir(out_dir))[0], fraction)

        record = run_tiny("reg_clean", trace=True, after_rep=corrupt)
        assert record["failed"] > 0, fraction
        assert record["metrics"]["failed_share"][0] > 0.0, fraction


def test_corrupted_summary_in_a_later_repetition_is_caught():
    def corrupt(rep, out_dir):
        if rep == 1:
            flip_byte(out_dir / "summary.json", 0.5)

    assert run_tiny("cls_backdoor", after_rep=corrupt)["failed"] > 0


def test_self_times_and_loop_sum_to_trial_time():
    record = run_tiny("reg_adaptive", trace=True)
    acct = record["trace_accounting"]
    assert acct["trial_ns"] > 0
    assert acct["in_trial_self_ns"] + acct["loop_self_ns"] == acct["trial_ns"]
    metrics = record["metrics"]
    in_trial = ("data.minibatch", LOOP, "tasks.gradient.client",
                "tasks.gradient.threat", "tasks.gradient.server",
                "engine.make_threat_knowledge", "attacks.adaptive_update",
                "defenses.filter", "metrics.evaluate")
    shares = math.fsum(metrics[f"{layer}.self_share"][0] for layer in in_trial)
    assert math.isclose(shares, 1.0, rel_tol=1e-9)
    assert metrics["tasks.gradient.threat.calls_per_iter"][0] > 0
    assert metrics["attacks.adaptive_update.calls_per_iter"][0] > 0


def test_printed_metrics_are_the_declared_ones():
    declared = {mode: {m["name"]: m["unit"] for m in DECLARED[mode]}
                for mode in ("end_to_end", "per_layer")}
    assert {w["name"] for w in DECLARED["workloads"]} == set(WORKLOADS)
    assert {f"{layer}.{stat}" for layer in LAYERS
            for stat in ("calls_per_iter", "us_per_call", "self_share")} <= set(
                declared["per_layer"])
    for name in WORKLOADS:
        for trace, mode in ((False, "end_to_end"), (True, "per_layer")):
            metrics = run_tiny(name, trace=trace)["metrics"]
            printed = {metric: unit for metric, (_, unit) in metrics.items()}
            assert printed == declared[mode], (name, mode)
            assert all(isinstance(value, float) and math.isfinite(value)
                       for value, _ in metrics.values()), (name, mode)


def test_same_seed_gives_same_quality():
    first = run_tiny("reg_kardam_gd", seed=7)
    assert first["metrics"]["final_error"] == run_tiny("reg_kardam_gd", seed=7)["metrics"]["final_error"]
    assert first["data_seed_rep0"] != run_tiny("reg_kardam_gd", seed=8)["data_seed_rep0"]


def test_fails_without_the_program():
    bare = ROOT / ".benchout" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "reg_clean",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
