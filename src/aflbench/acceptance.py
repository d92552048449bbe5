"""Desk-scale acceptance suite.

Each criterion is a function returning a CriterionResult; ``run_all``
executes them in order, printing one pass/fail line per criterion. Trial
results are memoized per config so criteria can share scenario runs.

Criteria 8-10 are the one copy of the filter examples, the numerical
oracles and the run-twice determinism check; ``tests/`` keeps only what
they do not assert (error paths, more inputs, tighter bounds). They live
here, not in ``tests/``, because ``aflbench verify`` ships without pytest.

The synthetic-regression scenarios use the benchmark defaults (100 clients,
20% malicious, 2000 iterations, learning rate 1/1600, batch 16, lambda 1.5,
client delay cap 10, server refresh period 10, trusted set 100, 3 seeds).
The classification scenarios use a 6-class Gaussian-mixture logistic task.
"""
from __future__ import annotations

import dataclasses
import filecmp
import itertools
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import attacks, defenses, metrics, tasks, vecmath
from .config import DataConfig, DefenseConfig, ExperimentConfig, TaskConfig
from .data import gen_synthetic_regression
from .defenses import ACCEPT, BUFFERED, REJECT
from .engine import TrialResult, prepare_data, run_trials


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    details: str


# ---------------------------------------------------------------------------
# scenario construction and caching
# ---------------------------------------------------------------------------

def regression_config(defense: str = "aflguard", attack: str = "none",
                      lam: float = 1.5,
                      malicious_fraction: float = 0.2) -> ExperimentConfig:
    cfg = ExperimentConfig()
    return dataclasses.replace(
        cfg,
        clients=dataclasses.replace(cfg.clients,
                                    malicious_fraction=malicious_fraction),
        attack=dataclasses.replace(cfg.attack, kind=attack),
        defense=DefenseConfig(kind=defense, lam=lam),
    )


def classification_config(defense: str = "aflguard", attack: str = "none",
                          distribution_shift: float = 1.0 / 6.0) -> ExperimentConfig:
    """Six-class Gaussian-mixture logistic task at desk scale."""
    cfg = ExperimentConfig()
    return dataclasses.replace(
        cfg,
        task=TaskConfig(kind="synthetic_classification", num_samples=10_000,
                        dim=60, num_classes=6, class_spread=0.4,
                        feature_offset=1.5, train_count=8_000),
        attack=dataclasses.replace(cfg.attack, kind=attack,
                                   bd_trigger_period=10, bd_target_class=5,
                                   bd_replication_fraction=1.0,
                                   bd_scale_factor=5.0),
        defense=DefenseConfig(kind=defense),
        data=DataConfig(partition="iid", trusted_size=100,
                        distribution_shift=distribution_shift),
    )


class ScenarioRunner:
    """Runs trials for configs, memoizing on the (frozen, hashable) config,
    and prints a ``running:`` line for each config it runs."""

    def __init__(self):
        self._results: Dict[ExperimentConfig, List[TrialResult]] = {}

    def results(self, config: ExperimentConfig) -> List[TrialResult]:
        if config not in self._results:
            print(f"  running: task={config.task.kind} defense={config.defense.kind} "
                  f"attack={config.attack.kind} lam={config.defense.lam} "
                  f"mal={config.clients.malicious_fraction}", flush=True)
            prepared = prepare_data(config)
            self._results[config] = run_trials(config, prepared,
                                               config.seeds.run_seeds)
        return self._results[config]

    def mean_final(self, config: ExperimentConfig, field: str) -> float:
        values = [getattr(r.final_record, field) for r in self.results(config)]
        return float(np.mean(values))

    def all_divergent(self, config: ExperimentConfig) -> bool:
        return all(r.is_divergent() for r in self.results(config))

    def any_divergent(self, config: ExperimentConfig) -> bool:
        return any(r.is_divergent() for r in self.results(config))


# ---------------------------------------------------------------------------
# criteria 1-7: synthetic-regression benchmark behavior
# ---------------------------------------------------------------------------

UNTARGETED = ("label_flip", "gaussian", "gradient_deviation", "adaptive")

# How far above AsyncSGD's attack-free MSE (same seeds) AFLGuard may end:
# the paper's claim that AFLGuard under attack is about as accurate as
# AsyncSGD without attack, shared by criteria 1 and 4.
PARITY_FACTOR = 1.5


def criterion_1(runner: ScenarioRunner) -> CriterionResult:
    """AFLGuard robustness: under every attack (and none), the mean final MSE
    is at most PARITY_FACTOR x AsyncSGD's attack-free mean final MSE on the
    same seeds, and the mean final MEE is at most 0.40.

    The MSE bound is relative because the scenario's attack-free floor is
    about 0.05: a filter that drops exactly the malicious clients trains on
    the 6,400 benign examples and ends near 0.051 (see
    tests/test_floor_oracle.py), so an absolute 0.05 bound fails a perfect
    filter about three times in four.
    """
    plain = runner.mean_final(regression_config("asyncsgd", "none"), "mse")
    rows = [f"asyncsgd none: mse={plain:.4f}"]
    ok = True
    for attack in ("none",) + UNTARGETED:
        cfg = regression_config("aflguard", attack)
        if runner.any_divergent(cfg):
            ok = False
            rows.append(f"{attack}: diverged")
            continue
        mse = runner.mean_final(cfg, "mse")
        mee = runner.mean_final(cfg, "mee")
        ok &= mse <= PARITY_FACTOR * plain and mee <= 0.40
        rows.append(f"{attack}: mse={mse:.4f} ({mse / plain:.2f}x) mee={mee:.3f}")
    return CriterionResult(
        f"1 aflguard robustness (mse<={PARITY_FACTOR}x asyncsgd no-attack, "
        f"mee<=0.40)", ok, "; ".join(rows))


def criterion_2(runner: ScenarioRunner) -> CriterionResult:
    """AsyncSGD fragility: GD and Adapt diverge; Gauss at least 5x AFLGuard."""
    gd_div = runner.all_divergent(regression_config("asyncsgd", "gradient_deviation"))
    adapt_div = runner.all_divergent(regression_config("asyncsgd", "adaptive"))
    gauss_async = runner.mean_final(regression_config("asyncsgd", "gaussian"), "mse")
    gauss_guard = runner.mean_final(regression_config("aflguard", "gaussian"), "mse")
    ratio_ok = gauss_async >= 5.0 * gauss_guard
    ok = gd_div and adapt_div and ratio_ok
    return CriterionResult(
        "2 asyncsgd fragility (gd/adapt marker, gauss >= 5x aflguard)", ok,
        f"gd diverged={gd_div}; adapt diverged={adapt_div}; "
        f"gauss mse {gauss_async:.3f} vs aflguard {gauss_guard:.4f}")


def criterion_3(runner: ScenarioRunner) -> CriterionResult:
    """Baseline ordering: Kardam-GD >= 5, BASGD-GD marker, Zeno++ <= 0.06."""
    kardam_cfg = regression_config("kardam", "gradient_deviation")
    kardam_mse = runner.mean_final(kardam_cfg, "mse")
    kardam_ok = runner.any_divergent(kardam_cfg) or kardam_mse >= 5.0
    basgd_ok = runner.all_divergent(regression_config("basgd", "gradient_deviation"))
    zeno_rows = []
    zeno_ok = True
    for attack in UNTARGETED:
        cfg = regression_config("zenopp", attack)
        if runner.any_divergent(cfg):
            zeno_ok = False
            zeno_rows.append(f"{attack}: diverged")
            continue
        mse = runner.mean_final(cfg, "mse")
        zeno_ok &= mse <= 0.06
        zeno_rows.append(f"{attack}: {mse:.4f}")
    ok = kardam_ok and basgd_ok and zeno_ok
    return CriterionResult(
        "3 baseline ordering (kardam-gd>=5, basgd-gd marker, zeno<=0.06)", ok,
        f"kardam-gd mse={kardam_mse:.3f}; basgd-gd marker={basgd_ok}; "
        f"zeno {'; '.join(zeno_rows)}")


def criterion_4(runner: ScenarioRunner) -> CriterionResult:
    """No-attack parity: AFLGuard within PARITY_FACTOR of AsyncSGD."""
    guard = runner.mean_final(regression_config("aflguard", "none"), "mse")
    plain = runner.mean_final(regression_config("asyncsgd", "none"), "mse")
    ok = guard <= PARITY_FACTOR * plain
    return CriterionResult(
        f"4 no-attack parity (aflguard <= {PARITY_FACTOR}x asyncsgd)", ok,
        f"aflguard mse={guard:.4f} vs asyncsgd {plain:.4f}")


def criterion_5(runner: ScenarioRunner) -> CriterionResult:
    """45% malicious GD: AFLGuard still converges (MSE <= 0.06)."""
    cfg = regression_config("aflguard", "gradient_deviation",
                            malicious_fraction=0.45)
    diverged = runner.any_divergent(cfg)
    mse = runner.mean_final(cfg, "mse")
    ok = (not diverged) and mse <= 0.06
    return CriterionResult("5 high-malicious robustness (45% gd, mse<=0.06)", ok,
                           f"mse={mse:.4f}")


def criterion_6(runner: ScenarioRunner) -> CriterionResult:
    """Contraction: running min of ||theta - theta*|| non-increasing, final < 5%."""
    cfg = regression_config("aflguard", "none")
    effective_step = cfg.schedule.learning_rate * cfg.schedule.batch_size
    bound = 2.0 / (tasks.REGRESSION_STRONG_CONVEXITY + tasks.REGRESSION_SMOOTHNESS)
    if effective_step > bound:
        return CriterionResult("6 contraction face", False,
                               f"learning-rate precondition violated: "
                               f"{effective_step} > {bound}")
    # the model starts at zero, so the initial error is ||theta*||
    _, theta_star = gen_synthetic_regression(cfg.seeds.data_seed,
                                             cfg.task.num_samples, cfg.task.dim)
    initial = vecmath.l2norm(theta_star)
    ok = True
    details = []
    for result in runner.results(cfg):
        mees = [rec.mee for rec in result.records]
        running = np.minimum.accumulate([initial] + mees)
        nonincreasing = all(b <= a + 1e-12 for a, b in zip(running, running[1:]))
        final_ok = running[-1] < 0.05 * initial
        ok &= nonincreasing and final_ok
        details.append(f"seed {result.seed}: min {running[-1]:.3f} "
                       f"vs 5%={0.05 * initial:.3f}")
    return CriterionResult("6 contraction face (running-min mee < 5% initial)",
                           ok, "; ".join(details))


def criterion_7(runner: ScenarioRunner) -> CriterionResult:
    """Acceptance-knob regimes: tiny lambda hurts accuracy or rejects heavily;
    huge lambda admits the GD attack."""
    base_none = runner.mean_final(regression_config("aflguard", "none"), "mse")
    small = regression_config("aflguard", "none", lam=0.1)
    small_mse = runner.mean_final(small, "mse")
    rejected = [r.final_record.rejected / max(1, r.final_record.iteration)
                for r in runner.results(small)]
    small_ok = small_mse >= 2.0 * base_none or min(rejected) >= 0.5

    base_gd_cfg = regression_config("aflguard", "gradient_deviation")
    base_gd = runner.mean_final(base_gd_cfg, "mse")
    large = regression_config("aflguard", "gradient_deviation", lam=50.0)
    large_div = runner.any_divergent(large)
    large_mse = runner.mean_final(large, "mse")
    large_ok = large_div or large_mse >= 10.0 * base_gd

    ok = small_ok and large_ok
    return CriterionResult(
        "7 lambda regimes (0.1 hurts or rejects; 50 admits gd)", ok,
        f"lam=0.1: mse={small_mse:.4f} rejected>={min(rejected):.2f} "
        f"(base {base_none:.4f}); lam=50 gd: mse={large_mse:.3g} "
        f"diverged={large_div} (base {base_gd:.4f})")


# ---------------------------------------------------------------------------
# criterion 8: filter unit examples (condensed in-process re-checks)
# ---------------------------------------------------------------------------

def _check_aflguard_examples() -> None:
    radius = defenses.aflguard_radius
    v = np.array([1.0, 0.0])
    assert defenses.aflguard_accept(v, v, radius(v, 0.5))
    assert not defenses.aflguard_accept(np.array([-1.0, 0.0]), v, radius(v, 1.5))
    lam = 0.7
    server = np.array([2.0, -1.0, 0.5])
    boundary = (1 + lam) * server
    # boundary inclusion
    assert defenses.aflguard_accept(boundary, server, radius(server, lam))
    # scale equivariance
    client = np.array([0.3, 1.4, -2.0])
    for c in (3.0, -0.25):
        assert (defenses.aflguard_accept(client, server, radius(server, lam))
                == defenses.aflguard_accept(c * client, c * server,
                                            radius(c * server, lam)))


def _decision(answer) -> Tuple[int, np.ndarray]:
    """A one-row answer's decision code and step, once its contract is
    checked: a rejected or buffered row of the step is zero."""
    assert answer[0] == ACCEPT or not np.any(answer[1])
    return int(answer[0]), answer[1]


def _check_kardam_examples() -> None:
    # one trial's schedule: each client twice in turn, then clients 0 and 1
    history = defenses.KardamHistory(np.c_[[0, 1, 2, 0, 1, 2, 0, 1]], 3, 2)
    iterations = itertools.count()

    def decide(cid, update, base):
        t = next(iterations)
        assert history.keys[t] == cid
        return _decision(defenses.kardam_step(history, t, t + 1, update, base))[0]

    base0 = np.zeros(2)
    # bootstrap accepts for every client
    for cid in range(3):
        assert decide(cid, np.ones(2) * (cid + 1), base0) == ACCEPT
    # build coefficients {0.5, 1.0, 2.0}: client c moves its update by k*delta
    # over a unit base-model change
    base1 = np.array([1.0, 0.0])
    for cid, k in zip(range(3), (0.5, 1.0, 2.0)):
        update = np.ones(2) * (cid + 1) + np.array([k, 0.0])
        decide(cid, update, base1)
    assert sorted(history.trials[0].coefficients.values()) == [0.5, 1.0, 2.0]
    base2 = np.array([2.0, 0.0])
    incoming_ok = history.prev_update[0] + np.array([0.8, 0.0])
    assert decide(0, incoming_ok, base2) == ACCEPT
    base3 = np.array([3.0, 0.0])
    incoming_bad = history.prev_update[1] + np.array([5.0, 0.0])
    assert decide(1, incoming_bad, base3) == REJECT


def _check_basgd_examples() -> None:
    def decide(state, cid, update):
        return _decision(defenses.basgd_step([state], cid, update))

    assert decide(defenses.BasgdState(2), 0, np.array([1.0]))[0] == BUFFERED
    code, step = decide(defenses.BasgdState(1), 7, np.array([3.0, -1.0]))
    assert code == ACCEPT and np.array_equal(step, [3.0, -1.0])
    three = defenses.BasgdState(3)
    for cid, x in ((0, 0.0), (3, 1.0), (1, 2.0)):
        assert decide(three, cid, np.array([x]))[0] == BUFFERED
    # buffer means are {0.5, 2, 10}; their coordinate median is 2
    code, step = decide(three, 2, np.array([10.0]))
    assert code == ACCEPT and step[0] == 2.0
    assert all(not buf for buf in three.buffers)


def _check_zeno_examples() -> None:
    server = np.array([1.0, 2.0, 2.0])
    norms = defenses.zeno_norms(server)
    code, step = _decision(defenses.zeno_step(3.0 * server, server, norms))
    assert code == ACCEPT
    assert abs(vecmath.l2norm(step) - vecmath.l2norm(server)) < 1e-12
    assert np.allclose(step, server)
    orth = np.array([2.0, -1.0, 0.0])
    assert _decision(defenses.zeno_step(orth, server, norms))[0] == REJECT
    assert _decision(defenses.zeno_step(-server, server, norms))[0] == REJECT


def _check_adaptive_examples() -> None:
    rng = np.random.default_rng(7)
    for trial in range(20):
        dim = 5
        g_s = rng.normal(size=dim)
        g_bar = rng.normal(size=dim)
        lam = float(rng.uniform(0.2, 3.0))
        crafted = attacks.adaptive_update(g_bar, g_s, lam)
        norm_gs = vecmath.l2norm(g_s)
        if vecmath.l2norm(g_bar - g_s) > lam * norm_gs:
            # even gamma = 0 is infeasible: benign mean returned unchanged
            assert np.array_equal(crafted, g_bar)
            continue
        assert vecmath.l2norm(crafted - g_s) <= lam * norm_gs + 1e-9
        s = g_bar / vecmath.l2norm(g_bar)
        gamma = float(np.dot(g_bar - crafted, s))
        if 0 < gamma < 10.0 * norm_gs - 1e-9:
            probe = crafted - (norm_gs * 1e-3) * s
            assert vecmath.l2norm(probe - g_s) > lam * norm_gs
    # g_bar == g_s: gamma equals lam*||g_s||
    g = np.array([3.0, 4.0])
    crafted = attacks.adaptive_update(g, g, 1.5)
    gamma = float(np.dot(g - crafted, g / 5.0))
    assert abs(gamma - 1.5 * 5.0) < 1e-12
    assert vecmath.l2norm(crafted - g) <= 1.5 * 5.0 + 1e-9
    # lam = 0 degenerate ball
    assert np.allclose(attacks.adaptive_update(g, g, 0.0), g)


def _check_vecmath_examples() -> None:
    assert vecmath.l2norm(np.array([3.0, 4.0])) == 5.0


def _check_attack_examples() -> None:
    assert attacks.flip_dataset_labels(np.array([1, 9]), 10).tolist() == [8, 0]
    six = np.arange(6)
    twice = attacks.flip_dataset_labels(attacks.flip_dataset_labels(six, 6), 6)
    assert np.array_equal(twice, six)
    gd = attacks.gradient_deviation_update(np.array([1.0, 2.0]), -10.0)
    assert np.array_equal(gd, [-10.0, -20.0])
    honest = np.array([0.5, -1.5])
    crafted = attacks.gradient_deviation_update(honest, -3.0)
    reversed_cos = np.vecdot(honest, crafted) / (vecmath.l2norm(honest)
                                                 * vecmath.l2norm(crafted))
    assert abs(reversed_cos - (-1.0)) < 1e-12


def _check_metric_examples() -> None:
    assert metrics.mse([0.0, 1.0], [1.0, 1.0]) == 0.5
    theta = np.array([1.0, 2.0])
    assert metrics.mee(theta, theta) == 0.0
    e1 = theta + np.array([1.0, 0.0])
    assert metrics.mee(e1, theta) == 1.0


EXAMPLE_CHECKS = (_check_aflguard_examples, _check_kardam_examples,
                  _check_basgd_examples, _check_zeno_examples,
                  _check_adaptive_examples, _check_vecmath_examples,
                  _check_attack_examples, _check_metric_examples)


def criterion_8(runner: ScenarioRunner) -> CriterionResult:
    failures = []
    for check in EXAMPLE_CHECKS:
        try:
            check()
        except AssertionError as exc:
            # frame 0 is this loop, frame 1 the check's failing line
            frame = traceback.extract_tb(exc.__traceback__)[1]
            failures.append(f"{check.__name__} line {frame.lineno}: "
                            f"{str(exc) or frame.line}")
    return CriterionResult("8 filter unit suites", not failures,
                           "; ".join(failures)
                           or f"{len(EXAMPLE_CHECKS)} check groups pass")


# ---------------------------------------------------------------------------
# criterion 9: numerical oracles
# ---------------------------------------------------------------------------

def _finite_difference(loss: Callable[[np.ndarray], float], point: np.ndarray,
                       step: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(point)
    for i in range(point.size):
        up, down = point.copy(), point.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (loss(up) - loss(down)) / (2 * step)
    return grad


def criterion_9(runner: ScenarioRunner) -> CriterionResult:
    rng = np.random.default_rng(123)
    worst_reg = worst_log = 0.0
    for _ in range(20):
        d, m = 6, 5
        X = rng.normal(size=(m, d))
        y = rng.normal(size=m)
        theta = rng.normal(size=d)

        def reg_loss(p):
            return float(np.mean((X @ p - y) ** 2) / 2)

        g = tasks.regression_gradient(theta, X, y)
        fd = _finite_difference(reg_loss, theta)
        worst_reg = max(worst_reg,
                        vecmath.l2norm(g - fd) / max(vecmath.l2norm(fd), 1e-12))

        C = 3
        labels = rng.integers(0, C, m)
        params = rng.normal(size=d * C)

        def log_loss(p):
            scores = X @ np.ascontiguousarray(p.reshape(C, d).T)
            shifted = scores - scores.max(axis=1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            return float(-np.mean(logp[np.arange(m), labels]))

        g = tasks.logistic_gradient(params, X, labels, C)
        fd = _finite_difference(log_loss, params)
        worst_log = max(worst_log,
                        vecmath.l2norm(g - fd) / max(vecmath.l2norm(fd), 1e-12))
    grad_ok = worst_reg <= 1e-5 and worst_log <= 1e-5

    median_ok = True
    for _ in range(100):
        k = int(rng.integers(1, 9))
        d = int(rng.integers(1, 6))
        vs = [rng.normal(size=d) for _ in range(k)]
        state = defenses.BasgdState(k)  # k buffers of one update each
        for cid, v in enumerate(vs):
            _, got = defenses.basgd_step([state], cid, v)
        stacked = np.stack(vs)
        for j in range(d):
            col = np.sort(stacked[:, j])
            expect = (col[(k - 1) // 2] + col[k // 2]) / 2.0
            median_ok &= abs(got[j] - expect) < 1e-15

    # Monte-Carlo population gradient: E[u(<u,theta> - y)] = theta - theta*
    d = 20
    theta_star = rng.normal(0, 5, d)
    theta = rng.normal(0, 5, d)
    num = 100_000
    U = rng.normal(size=(num, d))
    y = U @ theta_star + rng.normal(size=num)
    mc = tasks.regression_gradient(theta, U, y)
    expected = theta - theta_star
    rel = vecmath.l2norm(mc - expected) / vecmath.l2norm(expected)
    mc_ok = rel <= 0.05

    ok = grad_ok and median_ok and mc_ok
    return CriterionResult(
        "9 numerical oracles (fd gradients, median sort, mc population grad)",
        ok, f"fd rel err reg={worst_reg:.2e} log={worst_log:.2e}; "
            f"median oracle ok={median_ok}; mc rel err={rel:.3f}")


# ---------------------------------------------------------------------------
# criterion 10: determinism of run outputs
# ---------------------------------------------------------------------------

def criterion_10(runner: ScenarioRunner) -> CriterionResult:
    from .cli import run_command
    cfg = regression_config("aflguard", "gaussian")
    cfg = dataclasses.replace(
        cfg, schedule=dataclasses.replace(cfg.schedule, iterations=400),
        seeds=dataclasses.replace(cfg.seeds, run_seeds=(1, 2)))
    with tempfile.TemporaryDirectory() as tmp:
        dir_a, dir_b = Path(tmp) / "a", Path(tmp) / "b"
        run_command(cfg, dir_a)
        run_command(cfg, dir_b)
        names = sorted(p.name for p in dir_a.glob("*.csv"))
        same = (len(names) == len(cfg.seeds.run_seeds)
                and names == sorted(p.name for p in dir_b.glob("*.csv"))
                and all(filecmp.cmp(dir_a / n, dir_b / n, shallow=False)
                        for n in names)
                and ((dir_a / "summary.json").read_bytes()
                     == (dir_b / "summary.json").read_bytes()))
    return CriterionResult("10 determinism (byte-identical outputs)", same,
                           f"compared {len(names)} csv files + summary")


# ---------------------------------------------------------------------------
# criterion 11: classification / backdoor property suite
# ---------------------------------------------------------------------------

def criterion_11(runner: ScenarioRunner) -> CriterionResult:
    asr_plain = runner.mean_final(classification_config("asyncsgd", "backdoor"),
                                  "attack_success_rate")
    a_ok = asr_plain >= 0.5

    guard_bd = classification_config("aflguard", "backdoor")
    asr_guard = runner.mean_final(guard_bd, "attack_success_rate")
    err_guard = runner.mean_final(guard_bd, "test_error_rate")
    baseline = runner.mean_final(classification_config("asyncsgd", "none"),
                                 "test_error_rate")
    b_ok = asr_guard <= 0.1 and err_guard <= 1.5 * baseline

    zeno_ds = runner.mean_final(
        classification_config("zenopp", "none", distribution_shift=1.0),
        "test_error_rate")
    guard_ds = runner.mean_final(
        classification_config("aflguard", "none", distribution_shift=1.0),
        "test_error_rate")
    c_ok = zeno_ds > guard_ds

    ok = a_ok and b_ok and c_ok
    return CriterionResult(
        "11 classification/backdoor suite", ok,
        f"(a) asyncsgd asr={asr_plain:.2f}; (b) aflguard asr={asr_guard:.2f} "
        f"err={err_guard:.3f} vs 1.5x baseline {1.5 * baseline:.3f}; "
        f"(c) ds=1.0 zeno err={zeno_ds:.3f} > aflguard {guard_ds:.3f}")


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11)


def run_all() -> List[CriterionResult]:
    runner = ScenarioRunner()
    results = []
    for criterion in CRITERIA:
        result = criterion(runner)
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.name}: {result.details}", flush=True)
        results.append(result)
    return results


def verify_main() -> int:
    print("running property and acceptance suites...", flush=True)
    results = run_all()
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria pass")
    return 0 if not failed else 1
