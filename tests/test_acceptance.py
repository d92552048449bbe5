"""Desk-scale acceptance gate: one test per criterion, shared scenario runs.

Criterion 1 bounds AFLGuard's MSE under every attack by PARITY_FACTOR times
AsyncSGD's attack-free MSE on the same seeds, plus MEE <= 0.40. It used to
be an absolute MSE <= 0.05, which sits below the floor a perfect filter
reaches in this scenario (about 0.051; tests/test_floor_oracle.py computes
it). The mutation test below shows the restated clause still fails when the
filter lets everything through.

Criterion 3 is red and asserted as stated. Kardam under gradient deviation
ends near MSE 0.15 against a required >= 5, and Zeno++'s cosine gate admits
updates the clause expects it to stop. CHANGES.md records the measured
values and causes of both.
"""
import itertools
from pathlib import Path

import numpy as np
import pytest

from aflbench import acceptance, cli, defenses, tasks
from aflbench.config import load_config

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def runner():
    return acceptance.ScenarioRunner()


@pytest.mark.parametrize("criterion", acceptance.CRITERIA,
                         ids=[c.__name__ for c in acceptance.CRITERIA])
def test_criterion(criterion, runner):
    result = criterion(runner)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.name}: {result.details}")
    assert result.passed, f"{result.name}: {result.details}"


def test_scenarios_equal_the_shipped_configs():
    # each scenario is written twice, in code and in a config file
    assert acceptance.regression_config() == load_config(
        CONFIG_DIR / "table1_synthetic.ini")
    assert acceptance.classification_config("aflguard", "backdoor") == load_config(
        CONFIG_DIR / "classification_backdoor.ini")


@pytest.mark.parametrize("check", acceptance.EXAMPLE_CHECKS,
                         ids=[c.__name__ for c in acceptance.EXAMPLE_CHECKS])
def test_example_check(check):
    # criterion 8 one group at a time, so a failure names its line in src/
    check()


def test_suite_detects_flipped_acceptance_rule(monkeypatch, runner):
    # mutation check: inverting the acceptance inequality must trip the
    # filter unit suite, and the detail must name the failing line
    from aflbench.vecmath import l2norm

    def flipped(client_update, server_update, radius):
        return l2norm(client_update - server_update) > radius

    monkeypatch.setattr(defenses, "aflguard_accept", flipped)
    result = acceptance.criterion_8(runner)
    assert not result.passed
    assert result.details.startswith("_check_aflguard_examples line "), result.details


def test_criterion_1_fails_without_filtering(monkeypatch):
    # mutation check: an AFLGuard that accepts every update must fail the
    # restated criterion 1. A fresh runner, because the module fixture
    # memoises results of the real filter.
    monkeypatch.setattr(defenses, "aflguard_accept", lambda *args: True)
    result = acceptance.criterion_1(acceptance.ScenarioRunner())
    assert not result.passed, result.details


def _basgd_mean_of_means(states, client_id, update):
    """BASGD with the coordinate median of buffer means replaced by their
    mean, on one row of one trial, as criterion 9 calls it."""
    [state] = states
    state.buffers[client_id % state.num_buffers].append(update)
    if not all(state.buffers):
        return defenses.BUFFERED, np.zeros(update.shape)
    means = np.stack([np.mean(buf, axis=0) for buf in state.buffers])
    state.buffers = [[] for _ in state.buffers]
    return defenses.ACCEPT, means.mean(axis=0)


@pytest.mark.parametrize("module, name, mutate", [
    (tasks, "regression_gradient", lambda f: lambda *a: 2.0 * f(*a)),
    (tasks, "logistic_gradient", lambda f: lambda *a: -f(*a)),
    (defenses, "basgd_step", lambda f: _basgd_mean_of_means),
], ids=["doubled_regression_gradient", "flipped_logistic_gradient",
        "basgd_mean_not_median"])
def test_criterion_9_detects_mutation(monkeypatch, module, name, mutate):
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    result = acceptance.criterion_9(None)
    assert not result.passed, result.details


def test_criterion_10_detects_runs_that_differ(monkeypatch):
    # mutation check: each trial also consumes a counter shared across
    # runs, so the second run writes other bytes under the same names
    calls = itertools.count()
    real = cli.run_trials
    monkeypatch.setattr(cli, "run_trials", lambda config, prepared, seeds:
                        real(config, prepared,
                             [seed + next(calls) for seed in seeds]))
    result = acceptance.criterion_10(None)
    assert not result.passed, result.details


def test_verify_exit_code_semantics(monkeypatch):
    good = [acceptance.CriterionResult("a", True, "")]
    bad = good + [acceptance.CriterionResult("b", False, "")]
    monkeypatch.setattr(acceptance, "run_all", lambda: good)
    assert acceptance.verify_main() == 0
    monkeypatch.setattr(acceptance, "run_all", lambda: bad)
    assert acceptance.verify_main() == 1
