"""One benchmark run of one workload: set-up timing, a timed loop of
``aflbench run`` repetitions, output checks, a determinism re-run, and the
metrics the run reports."""
from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from aflbench import cli, engine
from checks import check_run, compare_runs
from reference import (BULK_NOMINAL_S, LOOP_NOMINAL_S, ReferenceClock,
                       bulk_kernel, loop_kernel)
from tracer import LAYERS, LOOP, Tracer
from workloads import WORKLOADS, base_config, repetitions

# prepare_data calls timed for setup_s; the median is reported.
SETUP_SAMPLES = 15


def _iterations(config) -> int:
    return config.schedule.iterations * len(config.seeds.run_seeds)


def _git_commit(root: Path) -> Optional[str]:
    """HEAD's commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int) -> dict:
    """What the result was measured on, recorded with every result."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python_threads": threading.active_count(),
        "git_commit": _git_commit(root),
        "source_sha256": digest.hexdigest(),
        "workload_seed": seed,
    }


def _quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {"median": values[0]} if values else {}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3, "n": len(values)}


class Run:
    """Counts and samples gathered over one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed: Dict[tuple, str] = {}  # (rep, trial seed) -> reason
        # us per iteration by traced flag: scaled to the nominal speed, and wall
        self.iter_us: Dict[bool, List[float]] = {False: [], True: []}
        self.wall_iter_us: Dict[bool, List[float]] = {False: [], True: []}
        self.quality: List[dict] = []
        self.decisions = [0, 0]  # accepted, all
        self.traced_iterations = 0

    def fail(self, rep: int, failures: Dict[int, str]) -> None:
        for seed, reason in failures.items():
            self.failed.setdefault((rep, seed), reason)


def _run_command(config, out_dir: Path, tracer: Optional[Tracer]) -> None:
    if tracer is None:
        cli.run_command(config, out_dir)
    else:
        with tracer.span("cli.run_command"):
            cli.run_command(config, out_dir)


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path,
            base=None, quality_reps: Optional[int] = None,
            after_rep=None) -> dict:
    """Run one workload and return its result record.

    ``base`` and ``quality_reps`` replace the workload's config and quality
    repetition count (the self-tests shrink them); ``after_rep(rep, out_dir)``
    is called after each repetition's outputs are written.
    """
    workload = WORKLOADS[name]
    if base is None:
        base = base_config(workload, root)
    if quality_reps is None:
        quality_reps = workload.quality_reps
    work = root / ".benchout"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work))
    reps = repetitions(base, name, seed)
    configs = [next(reps) for _ in range(max(SETUP_SAMPLES, quality_reps))]
    run = Run()
    tracer = Tracer() if trace else None
    bulk_clock = ReferenceClock(bulk_kernel, BULK_NOMINAL_S)
    clock = ReferenceClock(loop_kernel(), LOOP_NOMINAL_S)
    try:
        wall_setup_s, setup_s = [], []
        for config in configs[:SETUP_SAMPLES]:
            wall, scaled = bulk_clock.time(lambda: engine.prepare_data(config))
            wall_setup_s.append(wall)
            setup_s.append(scaled)

        deadline = time.monotonic() + seconds
        rep = 0
        min_reps = max(quality_reps, 2 if trace else 1)  # a traced rep is odd
        while rep < min_reps or time.monotonic() < deadline:
            config = configs[rep] if rep < len(configs) else next(reps)
            traced = trace and rep % 2 == 1
            out_dir = scratch / f"rep{rep}"
            seeds = config.seeds.run_seeds
            run.attempted += len(seeds)
            try:
                # The split wrapper goes on last, outside any trial span.
                with tracer.installed() if traced else nullcontext(), \
                        clock.splitting(cli, "run_trial"):
                    wall, scaled = clock.time(
                        lambda: _run_command(config, out_dir, tracer if traced else None))
            except Exception:  # a failing run counts against its trials
                traceback.print_exc(file=sys.stderr)
                run.fail(rep, {s: "aflbench run raised" for s in seeds})
            else:
                iterations = _iterations(config)
                run.iter_us[traced].append(scaled * 1e6 / iterations)
                run.wall_iter_us[traced].append(wall * 1e6 / iterations)
                run.traced_iterations += traced * iterations
            if after_rep is not None:
                after_rep(rep, out_dir)
            finals, failures = check_run(out_dir, config)
            run.fail(rep, failures)
            for row in finals.values():
                run.decisions[0] += row["accepted"]
                run.decisions[1] += row["iteration"]
            if rep < quality_reps:
                run.quality.extend(finals.values())
            if rep > 0:
                shutil.rmtree(out_dir, ignore_errors=True)
            rep += 1

        # Determinism: the first repetition again, byte for byte.
        rerun = scratch / "rerun"
        try:
            cli.run_command(configs[0], rerun)
        except Exception:
            traceback.print_exc(file=sys.stderr)
        run.fail(0, compare_runs(scratch / "rep0", rerun, configs[0]))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "repetitions": rep, "trial_seeds_rep0": list(configs[0].seeds.run_seeds),
        "data_seed_rep0": configs[0].seeds.data_seed,
        "environment": environment(root, seed),
        "setup_s": _quartiles(setup_s),
        "wall_setup_s": _quartiles(wall_setup_s),
        "iter_us": _quartiles(run.iter_us[False]),
        "wall_iter_us": _quartiles(run.wall_iter_us[False]),
        "loop_kernel_s": _quartiles(clock.kernel_s),
        "bulk_kernel_s": _quartiles(bulk_clock.kernel_s),
        "failures": sorted(f"rep {r} seed {s}: {why}"
                           for (r, s), why in run.failed.items())[:10],
        "attempted": run.attempted,
        "failed": len(run.failed),
    }
    if trace:
        record["iter_us_traced"] = _quartiles(run.iter_us[True])
        record["wall_iter_us_traced"] = _quartiles(run.wall_iter_us[True])
        summary = tracer.summarize()
        record["trace_accounting"] = {
            "trial_ns": summary["trial_ns"],
            "in_trial_self_ns": summary["in_trial_self_ns"],
            "loop_self_ns": summary["layers"][LOOP]["self_ns"],
        }
        record["metrics"] = _layer_metrics(run, tracer, summary)
        record["missing_trace_points"] = tracer.missing
        tracer.write(work / f"spans-{name}.csv")
    else:
        record["metrics"] = _end_to_end(run, setup_s)
    return record


def _median(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def _mean(values: List[float]) -> Optional[float]:
    return math.fsum(values) / len(values) if values else None


def _per(amount: float, base: float) -> float:
    """amount / base, or 0.0 when nothing was measured (every run failed)."""
    return amount / base if base else 0.0


def _end_to_end(run: Run, setup_s: List[float]) -> dict:
    primary = [row["mse"] if row["mse"] is not None else row["test_error_rate"]
               for row in run.quality]
    return {
        "iter_us": (_median(run.iter_us[False]), "us"),
        "setup_s": (_median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MiB"),
        "final_error": (_mean(primary), "mse_or_rate"),
    }


def _layer_metrics(run: Run, tracer: Tracer, summary: dict) -> dict:
    iterations = run.traced_iterations
    trial_ns = summary["trial_ns"]
    metrics = {}
    for layer in LAYERS:
        entry = summary["layers"][layer]
        if layer == LOOP:  # one loop pass per iteration, timed by its self time
            calls, call_ns = iterations, entry["self_ns"]
        else:
            calls, call_ns = entry["calls"], entry["total_ns"]
        metrics[f"{layer}.calls_per_iter"] = (_per(calls, iterations), "1/iter")
        metrics[f"{layer}.us_per_call"] = (_per(call_ns / 1e3, calls), "us")
        metrics[f"{layer}.self_share"] = (_per(entry["self_ns"], trial_ns), "share")
    traced, untraced = _median(run.iter_us[True]), _median(run.iter_us[False])
    asr = [row["attack_success_rate"] for row in run.quality
           if row["attack_success_rate"] is not None]
    metrics.update({
        "defenses.accept_share": (_per(*run.decisions), "share"),
        "cli.bytes_per_iter": (_per(tracer.bytes_written, iterations), "B/iter"),
        "trace.iter_us": (traced, "us"),
        "trace.overhead_share": (traced / untraced - 1.0 if traced and untraced else 0.0,
                                 "share"),
        "failed_share": (_per(len(run.failed), run.attempted), "share"),
        "metrics.attack_success_rate": (_mean(asr) if asr else 0.0, "share"),
    })
    return metrics
