"""Golden-output gate: hash the outputs of a fixed set of runs.

Runs, from the ``src/`` tree next to this script:

* every defense x attack cell of ``configs/table1_synthetic.ini``;
* the no-attack and backdoor cells of
  ``configs/classification_backdoor.ini`` for asyncsgd, aflguard and zenopp;
* the aflguard label-flip cell of the classification config, and its
  backdoor cell under ``partition = noniid`` (``noniid_degree = 0.5``);
* the aflguard backdoor cell of the classification config at a second
  shape, d = 20 with 3 classes, for 400 iterations: BLAS may take other
  kernel paths there than at d = 60 with 6 classes;
* the aflguard adaptive cell of the classification config for 400
  iterations, which pins the logistic threat-knowledge path;
* the aflguard backdoor cell of the classification config at
  ``bd_replication_fraction = 0.25``, the ``AttackConfig`` default, where
  a poisoned set adds fewer replica rows than it has clean rows (the
  shipped config adds one per clean row);
* the aflguard gaussian cell of the regression config at
  ``max_client_delay = 0``, where every block of ``engine.plan_blocks`` is
  one iteration, and at ``server_refresh_period = 50`` with
  ``max_client_delay = 40``, which gives its longest blocks;
* a two-value lambda sweep of the regression config at 300 iterations;
* an asyncsgd gradient-deviation run that diverges, through the command
  line with a ``--seed`` override;
* ``gen-data`` for both shipped configs;
* a ``kind = csv`` regression run, read from a file ``save_csv`` writes;
* a ``kind = csv`` run of the classification config's aflguard backdoor
  cell, d = 20 with 3 classes, for 400 iterations, read the same way: the
  header's class count reaches ``Dataset.arranged``, which reserves the
  replica rows.

It prints one SHA-256 per output directory. Two checkouts that print the
same lines write byte-identical trial CSVs, ``summary.json`` and
``sweep.csv`` files. BLAS runs on one thread. The outputs were measured
equal on one and two OpenBLAS threads (the adaptive cells' threat moments
take gemm, not syrk, in ``engine.threat_scope``), but BLAS does not
promise a summation order, so the gate keeps the pin.

It then compares the hashes with ``golden_baseline.txt`` next to this
script, the recorded one-thread output, and exits 1 naming every cell that
differs from it (or is missing on either side). A change that alters output
bytes on purpose rewrites that file in the same commit. Usage (about 15 s
on one core):

    python3 scripts/golden_outputs.py
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import os
import sys
import tempfile
from pathlib import Path

# One BLAS thread: set before numpy is first imported.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from aflbench import cli  # noqa: E402
from aflbench.config import ExperimentConfig, TaskConfig, load_config  # noqa: E402
from aflbench.data import (gen_synthetic_classification,  # noqa: E402
                           gen_synthetic_regression, save_csv)
from aflbench.defenses import DEFENSE_KINDS  # noqa: E402

BASELINE = Path(__file__).resolve().with_name("golden_baseline.txt")
REGRESSION_CONFIG = ROOT / "configs" / "table1_synthetic.ini"
CLASSIFICATION_CONFIG = ROOT / "configs" / "classification_backdoor.ini"
REGRESSION_ATTACKS = ("none", "label_flip", "gaussian", "gradient_deviation",
                      "adaptive")
CLASSIFICATION_DEFENSES = ("asyncsgd", "aflguard", "zenopp")
CLASSIFICATION_ATTACKS = ("none", "backdoor")


def cell(config: ExperimentConfig, defense: str, attack: str) -> ExperimentConfig:
    return dataclasses.replace(
        config,
        defense=dataclasses.replace(config.defense, kind=defense),
        attack=dataclasses.replace(config.attack, kind=attack))


def digest(directory: Path) -> str:
    """SHA-256 over every file below directory: relative path, then bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def main() -> int:
    # no options: this parses only so that --help and a stray argument do
    # not start the gate
    argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    regression = load_config(REGRESSION_CONFIG)
    classification = load_config(CLASSIFICATION_CONFIG)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        names = []
        for defense in DEFENSE_KINDS:
            for attack in REGRESSION_ATTACKS:
                name = f"reg_{defense}_{attack}"
                cli.run_command(cell(regression, defense, attack), out / name)
                names.append(name)
        for defense in CLASSIFICATION_DEFENSES:
            for attack in CLASSIFICATION_ATTACKS:
                name = f"cls_{defense}_{attack}"
                cli.run_command(cell(classification, defense, attack), out / name)
                names.append(name)

        flip = cell(classification, "aflguard", "label_flip")
        cli.run_command(flip, out / "cls_aflguard_label_flip")
        noniid = dataclasses.replace(
            classification, data=dataclasses.replace(
                classification.data, partition="noniid", noniid_degree=0.5))
        cli.run_command(noniid, out / "cls_aflguard_backdoor_noniid")
        names += ["cls_aflguard_label_flip", "cls_aflguard_backdoor_noniid"]

        small = dataclasses.replace(
            classification,
            task=dataclasses.replace(classification.task, dim=20, num_classes=3),
            attack=dataclasses.replace(classification.attack, bd_target_class=2),
            schedule=dataclasses.replace(classification.schedule, iterations=400))
        cli.run_command(small, out / "cls_aflguard_backdoor_d20_c3")
        names.append("cls_aflguard_backdoor_d20_c3")

        adaptive = dataclasses.replace(
            cell(classification, "aflguard", "adaptive"),
            schedule=dataclasses.replace(classification.schedule, iterations=400))
        cli.run_command(adaptive, out / "cls_aflguard_adaptive_400")
        names.append("cls_aflguard_adaptive_400")

        quarter = dataclasses.replace(classification, attack=dataclasses.replace(
            classification.attack, bd_replication_fraction=0.25))
        cli.run_command(quarter, out / "cls_aflguard_backdoor_rep025")
        names.append("cls_aflguard_backdoor_rep025")

        for name, schedule in (
                ("reg_aflguard_gaussian_delay0", dict(max_client_delay=0)),
                ("reg_aflguard_gaussian_refresh50_delay40",
                 dict(server_refresh_period=50, max_client_delay=40))):
            blocks = dataclasses.replace(regression, schedule=dataclasses.replace(
                regression.schedule, **schedule))
            cli.run_command(cell(blocks, "aflguard", "gaussian"), out / name)
            names.append(name)

        short = dataclasses.replace(regression, schedule=dataclasses.replace(
            regression.schedule, iterations=300))
        cli.sweep_command(short, "lambda", [1.0, 2.0], out / "sweep_lambda")
        names.append("sweep_lambda")

        text = REGRESSION_CONFIG.read_text(encoding="utf-8")
        text = text.replace("kind = none", "kind = gradient_deviation")
        text = text.replace("kind = aflguard", "kind = asyncsgd")
        divergent_ini = out / "divergent.ini"
        divergent_ini.write_text(text, encoding="utf-8")
        rc = cli.main(["run", "--config", str(divergent_ini),
                       "--out", str(out / "cli_divergent"), "--seed", "1,2"])
        if rc != 0:
            print(f"cli run exited {rc}", file=sys.stderr)
            return 1
        names.append("cli_divergent")

        with contextlib.redirect_stdout(sys.stderr):
            cli.gen_data_command(regression, out / "gen_data_reg")
            cli.gen_data_command(classification, out / "gen_data_cls")
        names += ["gen_data_reg", "gen_data_cls"]

        # a small pool: 20 rows for each of the 100 clients, 500 to test.
        # The outputs embed the path, so it is relative to the temp dir.
        pool, _ = gen_synthetic_regression(7, 2_500, 20)
        save_csv(pool, out / "pool.csv")
        from_csv = dataclasses.replace(regression, task=TaskConfig(
            kind="csv", path="pool.csv", num_samples=2_500, train_count=2_000))
        with contextlib.chdir(out):
            cli.run_command(from_csv, Path("reg_csv"))
        names.append("reg_csv")

        pool, _ = gen_synthetic_classification(7, 2_500, 20, 3, 0.4, 1.5)
        save_csv(pool, out / "cls_pool.csv")
        cls_csv = dataclasses.replace(
            classification,
            task=TaskConfig(kind="csv", path="cls_pool.csv", num_samples=2_500,
                            train_count=2_000),
            attack=dataclasses.replace(classification.attack, bd_target_class=2),
            schedule=dataclasses.replace(classification.schedule, iterations=400))
        with contextlib.chdir(out):
            cli.run_command(cls_csv, Path("cls_csv_backdoor"))
        names.append("cls_csv_backdoor")

        got = {name: digest(out / name) for name in names}
    for name, sha in got.items():
        print(f"{sha}  {name}")
    expected = {name: sha for sha, name in
                (line.split() for line in BASELINE.read_text(encoding="utf-8").splitlines())}
    differ = [name for name in dict.fromkeys([*got, *expected])
              if got.get(name) != expected.get(name)]
    if differ:
        print(f"{len(differ)} cells differ from {BASELINE.name}: {', '.join(differ)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
