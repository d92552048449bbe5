"""Analytic error floor of the synthetic-regression benchmark.

Plain SGD on least squares with identity feature covariance settles around
the pool's least-squares solution theta_ls. A step sums B per-example
gradients at rate eta, so with alpha = eta * B the error e = theta - theta_ls
has the stationary mean square

    E||e||^2 = eta^2 B sigma^2 d / (2 alpha - alpha^2 - eta^2 B (d + 1)),

where sigma^2 is the pool's least-squares residual variance and d the
dimension (the d + 1 comes from the fourth moment of Gaussian features).
The test MSE is scored against the noiseless truth <u, theta*>, so the
floor is the test MSE of theta_ls plus that stationary term. Client delay is
left out of the formula, which is tested at the benchmark's delay cap
tau_max = 10 only (the AsyncSGD check below). Beyond it delay raises the
floor: AsyncSGD's attack-free final MSE, the mean over seeds 1-3 of the
shipped regression config with ``apply_axis(cfg, "tau_max", tau)``, is
0.0525 at tau_max = 0, 0.0550 at 10, 0.0633 at 50 and 0.1102 at 200.
"""
import dataclasses

import numpy as np

from aflbench import acceptance, metrics
from aflbench.engine import prepare_data, run_trials

# Per-seed standard deviation of AsyncSGD's attack-free final MSE, measured
# over 20 trial seeds with the default regression config.
PER_SEED_SD = 0.0077
SEEDS = tuple(range(1, 11))


def sgd_floor(features, labels, prepared, learning_rate, batch_size):
    """Expected final test MSE of SGD trained on the pool (features, labels)."""
    theta_ls, *_ = np.linalg.lstsq(features, labels, rcond=None)
    test_x = prepared.test.features
    ls_mse = metrics.mse(test_x @ theta_ls, test_x @ prepared.true_model)
    sigma2 = float(np.mean((features @ theta_ls - labels) ** 2))
    d = features.shape[1]
    alpha = learning_rate * batch_size
    stationary = (learning_rate ** 2 * batch_size * sigma2 * d
                  / (2 * alpha - alpha ** 2
                     - learning_rate ** 2 * batch_size * (d + 1)))
    return ls_mse + stationary


def _floors(cfg):
    prepared = prepare_data(cfg)
    sched = cfg.schedule

    def floor(sets):
        return sgd_floor(np.concatenate([ds.features for ds in sets]),
                         np.concatenate([ds.labels for ds in sets]),
                         prepared, sched.learning_rate, sched.batch_size)

    # iid: the clients' rows together are the train rows; no attack
    # poisons them
    sets = [prepared.store.subset(rows) for rows in prepared.client_rows]
    benign = [ds for cid, ds in enumerate(sets)
              if cid not in cfg.clients.malicious_ids()]
    return prepared, floor(sets), floor(benign)


def test_asyncsgd_no_attack_sits_on_the_all_data_floor():
    cfg = acceptance.regression_config("asyncsgd", "none")
    cfg = dataclasses.replace(cfg, seeds=dataclasses.replace(cfg.seeds,
                                                             run_seeds=SEEDS))
    prepared, floor, _ = _floors(cfg)
    measured = np.mean([result.final_record.mse
                        for result in run_trials(cfg, prepared, SEEDS)])
    tolerance = 3 * PER_SEED_SD / np.sqrt(len(SEEDS))
    assert abs(measured - floor) <= tolerance, (measured, floor, tolerance)


def test_perfect_filter_floor_is_above_old_bound_and_within_parity():
    # A server that drops exactly the malicious clients trains on the benign
    # pool only. Its floor is above criterion 1's former absolute bound of
    # 0.05, and below the parity bound that replaced it.
    cfg = acceptance.regression_config("aflguard", "none")
    _, all_data, benign_only = _floors(cfg)
    assert benign_only > 0.05
    assert benign_only <= acceptance.PARITY_FACTOR * all_data
