import contextlib
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aflbench import acceptance, cli, data
from aflbench.attacks import AttackConfig
from aflbench.config import (ClientConfig, ConfigError, DataConfig,
                             DefenseConfig, ExperimentConfig, ScheduleConfig,
                             SeedConfig, TaskConfig, apply_axis,
                             config_to_dict, load_config)
from aflbench.engine import prepare_data
from aflbench.metrics import MetricRecord

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def test_shipped_config_matches_benchmark_defaults():
    cfg = load_config(CONFIG_DIR / "table1_synthetic.ini")
    assert cfg.clients.num_clients == 100
    assert cfg.clients.malicious_fraction == 0.2
    assert cfg.defense.kind == "aflguard"
    assert cfg.defense.lam == 1.5
    assert cfg.schedule.iterations == 2000
    assert cfg.schedule.learning_rate == pytest.approx(1 / 1600)
    assert cfg.schedule.batch_size == 16
    assert cfg.schedule.max_client_delay == 10
    assert cfg.schedule.server_refresh_period == 10
    assert cfg.data.trusted_size == 100
    assert cfg.seeds.run_seeds == (1, 2, 3)


def test_unknown_key_is_hard_error(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[defense]\nkind = aflguard\nfrobnicate = 1\n")
    with pytest.raises(ConfigError, match="frobnicate"):
        load_config(path)


def test_unknown_section_is_hard_error(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match="mystery"):
        load_config(path)


def test_num_malicious_is_the_floor_of_the_exact_share():
    # int(0.29 * 100) is 28: the product's float noise must not drop a client
    for fraction, clients, expected in ((0.29, 100, 29), (0.57, 100, 57),
                                        (0.58, 100, 58), (15 / 22, 22, 15),
                                        (0.0, 100, 0), (0.2, 100, 20),
                                        (0.25, 100, 25), (0.45, 100, 45),
                                        (0.5, 100, 50), (1 / 3, 3, 1),
                                        (0.299, 100, 29), (0.5, 7, 3)):
        cfg = ClientConfig(num_clients=clients, malicious_fraction=fraction)
        assert cfg.num_malicious == expected, (fraction, clients)
        assert cfg.malicious_ids() == range(expected)


def test_invalid_malicious_fraction(tmp_path):
    # DefenseConfig is the only check of lambda and num_buffers, and
    # ExperimentConfig the only check that every float is finite; each
    # section's own checks follow
    path = tmp_path / "bad.ini"
    for text, match in (("[clients]\nmalicious_fraction = 1.0\n", "malicious_fraction"),
                        ("[task]\nkind = images\n", "unknown task kind: 'images'"),
                        ("[task]\nkind = csv\n", "csv task requires a path"),
                        ("[task]\nnum_samples = 1\n", "num_samples must be >= 2"),
                        ("[task]\ntrain_count = 10000\n",
                         r"train_count must lie in \(0, num_samples\)"),
                        ("[clients]\nnum_clients = 0\n", "num_clients must be >= 1"),
                        ("[defense]\nkind = krum\n", "unknown defense kind: 'krum'"),
                        ("[defense]\nlambda = abc\n",
                         r"\[defense\] lambda: cannot parse 'abc' as float"),
                        ("[schedule]\niterations = 0\n", "iterations must be >= 1"),
                        ("[schedule]\nlearning_rate = 0\n", "learning_rate must be positive"),
                        ("[schedule]\nmax_client_delay = -1\n",
                         "max_client_delay must be >= 0"),
                        ("[schedule]\nserver_refresh_period = 0\n",
                         "server_refresh_period must be >= 1"),
                        ("[schedule]\nbatch_size = 0\n", "batch_size must be >= 1"),
                        ("[data]\npartition = skewed\n", "unknown partition mode: 'skewed'"),
                        ("[data]\ntrusted_size = 0\n", "trusted_size must be >= 1"),
                        ("[data]\ndistribution_shift = 1.5\n",
                         r"distribution_shift must lie in \[0, 1\]"),
                        ("[attack]\nbd_trigger_period = 0\n", "bd_trigger_period must be >= 1"),
                        ("[attack]\nknowledge = some\n",
                         "knowledge must be 'full' or 'partial'"),
                        ("[defense]\nlambda = 0\n", "lambda"),
                        ("[defense]\nlambda = -1\n", "lambda"),
                        ("[defense]\nnum_buffers = 0\n", "num_buffers"),
                        ("[defense]\nlambda = nan\n", r"\[defense\] lambda must be finite"),
                        ("[defense]\nlambda = inf\n", r"\[defense\] lambda must be finite"),
                        ("[schedule]\nlearning_rate = nan\n", "learning_rate must be finite"),
                        ("[attack]\ngauss_sigma = nan\n", "gauss_sigma must be finite"),
                        ("[attack]\ngd_scale = -inf\n", "gd_scale must be finite"),
                        ("[attack]\nbd_scale_factor = nan\n", "bd_scale_factor must be finite")):
        path.write_text(text)
        with pytest.raises(ConfigError, match=match):
            load_config(path)


# every field of every section away from its default
NON_DEFAULT = ExperimentConfig(
    task=TaskConfig(kind="synthetic_classification", path="unused.csv",
                    num_samples=500, dim=7, num_classes=4, class_spread=0.5,
                    feature_offset=1.25, train_count=400),
    clients=ClientConfig(num_clients=12, malicious_fraction=0.25),
    attack=AttackConfig(kind="backdoor", gauss_sigma=3.5, gd_scale=-2.5,
                        bd_trigger_period=3, bd_target_class=2,
                        bd_replication_fraction=0.5, bd_scale_factor=2.0,
                        knowledge="partial"),
    defense=DefenseConfig(kind="basgd", lam=0.75, num_buffers=4),
    schedule=ScheduleConfig(iterations=30, learning_rate=0.01,
                            max_client_delay=3, server_refresh_period=5,
                            batch_size=4),
    data=DataConfig(partition="noniid", noniid_degree=0.75, trusted_size=20,
                    distribution_shift=0.25),
    seeds=SeedConfig(data_seed=5, run_seeds=(4, 5)),
)


def test_every_config_field_is_settable(tmp_path):
    default = config_to_dict(ExperimentConfig())
    expected = config_to_dict(NON_DEFAULT)
    lines = []
    for section, fields in expected.items():
        lines.append(f"[{section}]")
        for name, value in fields.items():
            assert value != default[section][name], f"{section}.{name} is at its default"
            key = "lambda" if (section, name) == ("defense", "lam") else name
            text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            lines.append(f"{key} = {text}")
    path = tmp_path / "all.ini"
    path.write_text("\n".join(lines) + "\n")
    assert config_to_dict(load_config(path)) == expected

    # the file key is lambda; the field name is not a key; a removed field
    # is not a key either
    for text, key in (("[defense]\nlam = 1.0\n", "lam"),
                      ("[attack]\nadaptive_gamma_iters = 30\n", "adaptive_gamma_iters")):
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            load_config(path)


def test_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.ini")


def _quick_config(tmp_path, **extra):
    lines = [
        "[task]", "kind = synthetic_regression", "num_samples = 600",
        "dim = 10", "train_count = 480",
        "[clients]", "num_clients = 10", "malicious_fraction = 0.2",
        "[attack]", "kind = gaussian",
        "[defense]", "kind = aflguard", "lambda = 1.5",
        "[schedule]", "iterations = 120", "learning_rate = 0.000625",
        "max_client_delay = 5", "server_refresh_period = 10",
        "batch_size = 8",
        "[data]", "partition = iid", "trusted_size = 50",
        "[seeds]", "data_seed = 9", "run_seeds = 1,2",
    ]
    path = tmp_path / "quick.ini"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_run_writes_csvs_and_summary(tmp_path):
    cfg = load_config(_quick_config(tmp_path))
    out = tmp_path / "out"
    results = cli.run_command(cfg, out)
    assert [r.seed for r in results] == [1, 2]
    csvs = sorted(out.glob("trial_seed*.csv"))
    assert [p.name for p in csvs] == ["trial_seed1.csv", "trial_seed2.csv"]
    lines = csvs[0].read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "# seed: 1"
    assert lines[2] == ",".join(cli.CSV_COLUMNS)
    assert len(lines) == 3 + 3  # records at 50, 100, 120
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seeds"] == [1, 2]
    assert "mse" in summary["mean"]
    assert summary["mean"]["mse"] is not None
    assert summary["config"]["defense"]["kind"] == "aflguard"


def test_run_seed_override(tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(_quick_config(tmp_path)),
                   "--out", str(out), "--seed", "7"])
    assert rc == 0
    assert sorted(p.name for p in out.glob("trial_seed*.csv")) == ["trial_seed7.csv"]
    # the config echoes carry the seeds that ran, not the file's
    echo = (out / "trial_seed7.csv").read_text().splitlines()[0]
    assert json.loads(echo[len("# config: "):])["seeds"]["run_seeds"] == [7]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seeds"] == [7]
    assert summary["config"]["seeds"]["run_seeds"] == [7]


def test_trial_output_does_not_depend_on_the_other_seeds(tmp_path):
    # a trial draws only from its own seed's streams; the config echo on the
    # first line names the seeds that ran, so it differs in run_seeds alone
    path = _quick_config(tmp_path)
    texts = {}
    for seeds in ("1", "1,2,3", "3,2,1"):
        out = tmp_path / seeds.replace(",", "_")
        assert cli.main(["run", "--config", str(path), "--out", str(out),
                         "--seed", seeds]) == 0
        texts[seeds] = (out / "trial_seed1.csv").read_text()
    echo, rest = texts["1"].split("\n", 1)
    for seeds in ("1,2,3", "3,2,1"):
        other_echo, other_rest = texts[seeds].split("\n", 1)
        assert other_rest == rest
        config = json.loads(other_echo[len("# config: "):])
        assert config["seeds"]["run_seeds"] == [int(s) for s in seeds.split(",")]
        config["seeds"]["run_seeds"] = [1]
        assert config == json.loads(echo[len("# config: "):])


def test_metric_columns_are_record_fields():
    # the divergence marker replaces these four columns by name, whatever
    # the order of MetricRecord's fields
    fields = [f.name for f in dataclasses.fields(MetricRecord)]
    assert len(set(cli.METRIC_COLUMNS)) == 4
    for name in cli.METRIC_COLUMNS:
        assert name in fields, name


def test_divergent_run_reports_marker(tmp_path):
    path = _quick_config(tmp_path)
    text = path.read_text().replace("kind = gaussian", "kind = gradient_deviation")
    text = text.replace("kind = aflguard", "kind = asyncsgd")
    text = text.replace("iterations = 120", "iterations = 600")
    path.write_text(text)
    cfg = load_config(path)
    out = tmp_path / "out"
    cli.run_command(cfg, out)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mean"]["mse"] == ">1000"
    assert all(entry["diverged"] for entry in summary["per_seed"].values())


def test_diverged_backdoor_run_reports_the_attack_success_marker(tmp_path):
    # features this large overflow AsyncSGD's softmax steps within a few
    # iterations; a divergence record holds the worst attack success rate,
    # as it holds the worst test error, so neither reads as missing
    pool, _ = data.gen_synthetic_classification(7, 2500, 20, 3, 0.4, 1.5)
    data.save_csv(data.Dataset(pool.features * 1e200, pool.labels, 3),
                  tmp_path / "huge.csv")
    text = _quick_config(tmp_path).read_text()
    for old, new in (("kind = synthetic_regression\n", f"kind = csv\npath = "
                      f"{tmp_path / 'huge.csv'}\n"),
                     ("num_samples = 600", "num_samples = 2500"),
                     ("train_count = 480", "train_count = 2000"),
                     ("kind = gaussian", "kind = backdoor\nbd_target_class = 2"),
                     ("kind = aflguard", "kind = asyncsgd"),
                     ("iterations = 120", "iterations = 200")):
        text = text.replace(old, new)
    path = tmp_path / "huge.ini"
    path.write_text(text)
    cfg = load_config(path)
    out = tmp_path / "out"
    results = cli.run_command(cfg, out)
    for r in results:
        final = r.final_record
        assert r.diverged and final.iteration <= 3
        assert (final.test_error_rate, final.attack_success_rate) == (1.0, 1.0)
    last = (out / "trial_seed1.csv").read_text().splitlines()[-1].split(",")
    assert last[2:5] == ["1.0", "", "1.0"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mean"]["test_error_rate"] == ">1000"
    assert summary["mean"]["attack_success_rate"] == ">1000"
    runner = acceptance.ScenarioRunner()
    assert runner.mean_final(cfg, "attack_success_rate") == 1.0


def test_sweep_produces_one_run_per_value(tmp_path):
    cfg = load_config(_quick_config(tmp_path))
    out = tmp_path / "sweep"
    # the last two values print alike with :g and keep their exact text
    values = [0.5, 1.5, 5.0, 1.0000001, 1.0000002]
    assert cli.sweep_command(cfg, "lambda", values, out) == 0
    subdirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert subdirs == ["lambda_0.5", "lambda_1.0000001", "lambda_1.0000002",
                       "lambda_1.5", "lambda_5"]
    combined = (out / "sweep.csv").read_text().splitlines()
    assert combined[0].startswith("axis,value,seed,iteration")
    # 5 values x 2 seeds x 3 records
    assert len(combined) == 1 + 30
    labels = sorted({row.split(",")[1] for row in combined[1:]})
    assert labels == ["0.5", "1.0000001", "1.0000002", "1.5", "5"]


def test_sweep_rejects_unknown_axis_and_empty_values(tmp_path):
    cfg = load_config(_quick_config(tmp_path))
    with pytest.raises(ConfigError):
        cli.sweep_command(cfg, "nonsense", [1.0], tmp_path / "x")
    with pytest.raises(ConfigError):
        cli.sweep_command(cfg, "lambda", [], tmp_path / "y")


def test_apply_axis_covers_all_axes():
    cfg = ExperimentConfig()
    assert apply_axis(cfg, "malicious_fraction", 0.45).clients.malicious_fraction == 0.45
    assert apply_axis(cfg, "lambda", 3.0).defense.lam == 3.0
    assert apply_axis(cfg, "tau_max", 5).schedule.max_client_delay == 5
    assert apply_axis(cfg, "tau_s", 20).schedule.server_refresh_period == 20
    assert apply_axis(cfg, "trusted_size", 50).data.trusted_size == 50
    assert apply_axis(cfg, "ds", 0.8).data.distribution_shift == 0.8
    assert apply_axis(cfg, "num_clients", 40).clients.num_clients == 40


def test_gen_data_round_trips(tmp_path):
    cfg = load_config(_quick_config(tmp_path))
    out = tmp_path / "datadir"
    assert cli.gen_data_command(cfg, out) == 0
    train = data.load_csv(out / "train.csv")
    test = data.load_csv(out / "test.csv")
    assert len(train) == 480 and len(test) == 120
    theta = np.array([float(v) for v in
                      (out / "true_model.csv").read_text().strip().split(",")])
    assert theta.shape == (10,)


def test_gen_data_only_generates_and_splits(tmp_path):
    # 800 train rows over 100 clients leave 8 each, fewer than a batch of 16:
    # a run rejects that, but gen-data writes no client data
    cfg = ExperimentConfig(task=TaskConfig(num_samples=1_000, dim=5,
                                           train_count=800))
    with pytest.raises(ValueError, match="client 0 holds 8 examples"):
        prepare_data(cfg)
    assert cli.gen_data_command(cfg, tmp_path) == 0
    assert len(data.load_csv(tmp_path / "train.csv")) == 800
    assert len(data.load_csv(tmp_path / "test.csv")) == 200


def test_integer_axes_reject_fractional_values():
    cfg = ExperimentConfig()
    for axis in ("tau_max", "tau_s", "trusted_size", "num_clients"):
        for value in (5.4, 0.5, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=f"sweep axis {axis} takes integers"):
                apply_axis(cfg, axis, value)
    assert apply_axis(cfg, "tau_max", 5.0).schedule.max_client_delay == 5


def test_cli_sweep_with_fractional_integer_value_writes_nothing(tmp_path, capsys):
    # and with a non-finite value on a float axis
    out = tmp_path / "sweep"
    for axis, values, message in (
            ("tau_max", "5,5.4", "sweep axis tau_max takes integers, got 5.4"),
            ("lambda", "nan,inf", "[defense] lambda must be finite, got nan"),
            ("lambda", "1.5,inf", "[defense] lambda must be finite, got inf")):
        rc = cli.main(["sweep", "--config", str(_quick_config(tmp_path)),
                       "--out", str(out), "--axis", axis, "--values", values])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_cli_main_run(tmp_path):
    path = _quick_config(tmp_path)
    out = tmp_path / "cli_out"
    rc = cli.main(["run", "--config", str(path), "--out", str(out), "--seed", "3"])
    assert rc == 0
    assert (out / "trial_seed3.csv").exists()


def test_cli_main_rejects_empty_seed_list(tmp_path):
    path = _quick_config(tmp_path)
    for raw in (",", " ", ""):
        out = tmp_path / "cli_out"
        rc = cli.main(["run", "--config", str(path), "--out", str(out), "--seed", raw])
        assert rc == 2
        assert not (out / "summary.json").exists()


def test_seeds_must_be_distinct_and_non_negative(tmp_path, capsys):
    # from the file and from --seed alike, and the run writes nothing
    base = _quick_config(tmp_path).read_text()
    for line, seeds, message in (
            ("run_seeds = 1,1", None, "run seeds must be distinct, got [1, 1]"),
            ("run_seeds = 2,-1", None, "run seeds must be >= 0, got -1"),
            ("data_seed = -2", None, "data_seed must be >= 0, got -2"),
            (None, "1,1", "run seeds must be distinct, got [1, 1]"),
            (None, "3,2,3", "run seeds must be distinct, got [3, 2, 3]"),
            (None, "1,-1", "run seeds must be >= 0, got -1")):
        path = tmp_path / "seeds.ini"
        if line is None:
            path.write_text(base)
        else:
            key = line.split(" =")[0]
            old = next(l for l in base.splitlines() if l.startswith(key))
            path.write_text(base.replace(old, line))
            with pytest.raises(ConfigError, match=re.escape(message)):
                load_config(path)
        out = tmp_path / "out"
        argv = ["run", "--config", str(path), "--out", str(out)]
        rc = cli.main(argv + (["--seed", seeds] if seeds else []))
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_unparsable_config_files_exit_cleanly(tmp_path, capsys):
    # configparser's own errors name the file, on one line, and the run
    # writes nothing
    for name, text, message in (
            ("headless.ini", "kind = aflguard\n", "contains no section headers"),
            ("sections.ini", "[task]\ndim = 5\n[task]\ndim = 6\n",
             "section 'task' already exists"),
            ("keys.ini", "[task]\nclass_spread = 1.0\nclass_spread = 2.0\n",
             "option 'class_spread' in section 'task' already exists"),
            ("percent.ini", "[task]\nkind = csv\npath = a%b.csv\n",
             "'%' must be followed by '%' or '('")):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(path)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot parse config file {path}: "), err
        assert message in err and len(err.splitlines()) == 1, err
        assert not out.exists()


def test_task_sizes_are_checked_before_anything_is_written(tmp_path, capsys):
    base = _quick_config(tmp_path).read_text()
    classes = "kind = synthetic_classification\nnum_classes = 3"
    for task, message in (
            ("dim = 0", "dim must be >= 1, got 0"),
            ("kind = synthetic_classification\ndim = 0", "dim must be >= 1, got 0"),
            ("kind = synthetic_classification\nnum_classes = 1",
             "num_classes must be >= 2, got 1"),
            (f"{classes}\nclass_spread = -1", "class_spread must be >= 0, got -1.0")):
        path = tmp_path / "task.ini"
        path.write_text(base.replace("kind = synthetic_regression\n", "")
                        .replace("dim = 10\n", "")
                        .replace("[task]\n", f"[task]\n{task}\n"))
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(path)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
    # the checks that need a class count apply to classification only
    path.write_text(base.replace("dim = 10\n", "dim = 10\nnum_classes = 1\n"
                                 "class_spread = -1\n"))
    assert load_config(path).task.num_classes == 1
    # a CSV task takes its dim from the file's columns, so dim is not checked
    path.write_text(base.replace("kind = synthetic_regression",
                                 "kind = csv\npath = pool.csv")
                    .replace("dim = 10", "dim = 0"))
    assert load_config(path).task.dim == 0


def test_rejected_data_plans_write_nothing(tmp_path, capsys):
    # the row plan rejects these after the config loads; the run checks
    # them before it makes its output directory. The backdoor's
    # requirements hold with no malicious client too.
    base = _quick_config(tmp_path).read_text()
    honest = {"malicious_fraction = 0.2": "malicious_fraction = 0.0"}
    # 40 rows of 2 classes; the one test row carries the target class
    labels = np.arange(40) % 2
    target = int(labels[data.split_train_test(40, 39, 9)[1][0]])
    data.save_csv(data.Dataset(np.ones((40, 3)), labels, 2), tmp_path / "two.csv")
    for edits, message in (
            ({"trusted_size = 50": "trusted_size = 500"},
             "trusted set larger than source dataset"),
            ({"batch_size = 8": "batch_size = 60"},
             "client 0 holds 48 examples, fewer than batch size 60"),
            ({"num_clients = 10": "num_clients = 600"},
             "client 0 holds 1 examples, fewer than batch size 8"),
            ({"kind = gaussian": "kind = backdoor"},
             "backdoor poisoning requires classification data"),
            ({**honest, "kind = gaussian": "kind = backdoor"},
             "backdoor poisoning requires classification data"),
            ({**honest, "kind = gaussian": "kind = backdoor\nbd_target_class = 9",
              "kind = synthetic_regression":
                  "kind = synthetic_classification\nnum_classes = 6"},
             "bd_target_class out of range"),
            ({"kind = synthetic_regression": f"kind = csv\npath = {tmp_path / 'two.csv'}",
              "train_count = 480": "train_count = 39",
              "num_clients = 10": "num_clients = 2",
              "trusted_size = 50": "trusted_size = 10",
              "kind = gaussian": f"kind = backdoor\nbd_target_class = {target}"},
             "no eligible test inputs (all carry the target label)"),
            # not run iid under a header that says noniid
            ({"partition = iid": "partition = noniid\nnoniid_degree = 0.9"},
             "noniid partitioning requires classification data")):
        text = base
        for old, new in edits.items():
            text = text.replace(old, new)
        path = tmp_path / "plan.ini"
        path.write_text(text)
        load_config(path)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
    # gen-data reads a malformed file before it makes its directory too
    (tmp_path / "bad.csv").write_text("# kind=regression\n1.0,2.0\nabc,1.0\n")
    path.write_text(base.replace("kind = synthetic_regression",
                                 "kind = csv\npath = bad.csv"))
    out = tmp_path / "out"
    for command in ("gen-data", "run"):
        with contextlib.chdir(tmp_path):
            assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
        assert "bad.csv:3: could not convert string to float" in capsys.readouterr().err
        assert not out.exists()


def test_sweep_prepares_every_value_before_writing(tmp_path, capsys):
    # the second value's trusted set is larger than the 480 training rows;
    # the first value's run would be valid, but nothing is written
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--config", str(_quick_config(tmp_path)),
                   "--out", str(out), "--axis", "trusted_size",
                   "--values", "50,500"])
    assert rc == 2
    assert "trusted set larger than source dataset" in capsys.readouterr().err
    assert not (out / "trusted_size_50").exists()
    assert not out.exists()


def test_sweep_rejects_repeated_values_before_writing(tmp_path, capsys):
    # 1.5 and 1.50 parse to one value, which would run and be written twice
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--config", str(_quick_config(tmp_path)),
                   "--out", str(out), "--axis", "lambda",
                   "--values", "1.5,1.50,2"])
    assert rc == 2
    assert ("sweep values must be distinct, got [1.5, 1.5, 2.0]"
            in capsys.readouterr().err)
    assert not out.exists()


def test_sweep_rejects_an_axis_the_task_does_not_read(tmp_path, capsys):
    # a regression trusted set is a uniform sample whatever the
    # distribution shift, so a ds sweep would write equal runs under
    # different labels; it exits 2 and writes nothing, for a synthetic and
    # for a CSV regression task
    quick = _quick_config(tmp_path)
    pool, _ = data.gen_synthetic_regression(10, 600, 3)
    data.save_csv(pool, tmp_path / "pool.csv")
    csv = tmp_path / "csv.ini"
    csv.write_text(quick.read_text().replace(
        "kind = synthetic_regression", "kind = csv\npath = pool.csv"))
    for path in (quick, csv):
        out = tmp_path / f"sweep_{path.stem}"
        with contextlib.chdir(tmp_path):
            rc = cli.main(["sweep", "--config", str(path), "--out", str(out),
                           "--axis", "ds", "--values", "0,1"])
        assert rc == 2
        assert "sweep axis ds (distribution_shift)" in capsys.readouterr().err
        assert not out.exists()
    # a classification task reads it: the two values draw other trusted sets
    cls = tmp_path / "cls.ini"
    cls.write_text(quick.read_text().replace(
        "kind = synthetic_regression", "kind = synthetic_classification"))
    out = tmp_path / "sweep_cls"
    assert cli.main(["sweep", "--config", str(cls), "--out", str(out),
                     "--axis", "ds", "--values", "0,1"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["ds_0", "ds_1", "sweep.csv"]
    trusted = [prepare_data(apply_axis(load_config(cls), "ds", v)).trusted.labels
               for v in (0, 1)]
    assert np.count_nonzero(trusted[0] == 0) == 0
    assert np.count_nonzero(trusted[1] == 0) == len(trusted[1])


def test_csv_train_count_is_bounded_by_the_files_rows(tmp_path, capsys):
    # a CSV task reads no num_samples: the file's 12,000 rows bound
    # train_count, not the default num_samples of 10,000
    pool, _ = data.gen_synthetic_regression(5, 12_000, 3)
    data.save_csv(pool, tmp_path / "pool.csv")
    base = _quick_config(tmp_path).read_text()
    for old, new in (("kind = synthetic_regression", "kind = csv\npath = pool.csv"),
                     ("num_samples = 600\n", ""), ("dim = 10", "dim = 3")):
        assert old in base
        base = base.replace(old, new)
    path = tmp_path / "csv.ini"
    for train_count in (11_000, 12_000, 13_000):
        path.write_text(base.replace("train_count = 480",
                                     f"train_count = {train_count}"))
        assert load_config(path).task.num_samples == 10_000
        out = tmp_path / f"out_{train_count}"
        with contextlib.chdir(tmp_path):
            rc = cli.main(["run", "--config", str(path), "--out", str(out)])
            if train_count < 12_000:
                assert rc == 0
                prepared = prepare_data(load_config(path))
                assert len(prepared.test) == 1_000
                assert sum(rows.stop - rows.start
                           for rows in prepared.client_rows) == 11_000
                assert (out / "summary.json").exists()
            else:
                assert rc == 2
                assert ("train_count must lie in (0, 12000)"
                        in capsys.readouterr().err)
                assert not out.exists()


def test_cli_main_errors_cleanly(tmp_path):
    rc = cli.main(["run", "--config", str(tmp_path / "absent.ini"),
                   "--out", str(tmp_path / "o")])
    assert rc == 2


def test_python_m_aflbench_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ else []))}
    proc = subprocess.run([sys.executable, "-m", "aflbench", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "verify" in proc.stdout
