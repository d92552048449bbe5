import numpy as np
import pytest

from aflbench import data, metrics
from aflbench.attacks import AttackConfig, apply_trigger


def test_mse_examples():
    assert metrics.mse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert metrics.mse([0.0, 1.0], [1.0, 1.0]) == 0.5


def test_mse_matches_loop_oracle():
    rng = np.random.default_rng(31)
    p = rng.normal(size=50)
    t = rng.normal(size=50)
    naive = sum((float(p[i]) - float(t[i])) ** 2 for i in range(50)) / 50.0
    assert metrics.mse(p, t) == pytest.approx(naive, rel=1e-12)


def test_mse_errors():
    with pytest.raises(ValueError):
        metrics.mse([], [])
    with pytest.raises(ValueError):
        metrics.mse([1.0], [1.0, 2.0])


def test_mee_examples():
    theta = np.array([1.0, 2.0, 3.0])
    assert metrics.mee(theta, theta) == 0.0
    shifted = theta + np.array([1.0, 0.0, 0.0])
    assert metrics.mee(shifted, theta) == 1.0
    assert metrics.mee(theta, shifted) == metrics.mee(shifted, theta)
    with pytest.raises(ValueError):
        metrics.mee(np.ones(2), np.ones(3))


def test_stacks_give_one_value_per_model():
    # a single model gives a float, a stack an array of its leading shape,
    # each entry the single model's float bit for bit
    rng = np.random.default_rng(41)
    predictions, truths = rng.normal(size=(2, 3, 333)), rng.normal(size=333)
    models, true_model = rng.normal(size=(2, 3, 4)), rng.normal(size=4)
    for got, one in ((metrics.mse(predictions, truths),
                      lambda k: metrics.mse(predictions.reshape(-1, 333)[k], truths)),
                     (metrics.mee(models, true_model),
                      lambda k: metrics.mee(models.reshape(-1, 4)[k], true_model))):
        assert got.shape == (2, 3)
        for k, value in enumerate(got.ravel().tolist()):
            assert type(one(k)) is float and one(k) == value
    # predictions that are not C-contiguous are scored with the same bits
    assert metrics.mse(np.asfortranarray(predictions[0]), truths).tobytes() == \
        metrics.mse(predictions[0], truths).tobytes()
    with pytest.raises(ValueError):
        metrics.mse(predictions, rng.normal(size=332))
    with pytest.raises(ValueError):
        metrics.mse(truths, predictions)
    with pytest.raises(ValueError):
        metrics.mee(models, np.ones(3))


def _tiny_classification():
    features = np.array([[1.0, 0.2], [0.9, 0.1], [0.2, 1.0], [0.1, 0.9]])
    labels = np.array([0, 0, 1, 1])
    return data.Dataset(features, labels, 2)


def test_error_rate_perfect_model():
    ds = _tiny_classification()
    params = np.array([1.0, 0.0, 0.0, 1.0])  # class rows match features
    assert metrics.test_error_rate(params, ds) == 0.0


def test_error_rate_zero_model_balanced():
    ds = _tiny_classification()
    # all scores tie; prediction falls to class 0, misclassifying class 1
    assert metrics.test_error_rate(np.zeros(4), ds) == 0.5


def test_error_rate_matches_enumeration():
    rng = np.random.default_rng(37)
    ds = data.gen_synthetic_classification(37, 60, 5, 3)[0]
    params = rng.normal(size=15)
    W = params.reshape(3, 5)
    wrong = sum(int(np.argmax(W @ ds.features[i])) != ds.labels[i]
                for i in range(len(ds)))
    assert metrics.test_error_rate(params, ds) == pytest.approx(wrong / len(ds))


def test_error_rate_errors():
    with pytest.raises(ValueError):
        metrics.test_error_rate(np.zeros(4), data.Dataset(
            np.ones((1, 2)), np.array([1.0])))


def _bd_cfg(target=1, period=2):
    return AttackConfig(kind="backdoor", bd_target_class=target,
                        bd_trigger_period=period)


def _asr(params, ds, cfg):
    return metrics.attack_success_rate(params, metrics.backdoor_probe(ds, cfg))


def test_asr_hardwired_models():
    ds = _tiny_classification()
    cfg = _bd_cfg(target=1)
    always_target = np.array([0.0, 0.0, 10.0, 10.0])  # class-1 row dominates
    assert _asr(always_target, ds, cfg) == 1.0
    never_target = np.array([10.0, 10.0, 0.0, 0.0])
    assert _asr(never_target, ds, cfg) == 0.0


def test_asr_excludes_target_class_inputs():
    features = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    labels = np.array([1, 1, 0])  # only one non-target example
    ds = data.Dataset(features, labels, 2)
    cfg = _bd_cfg(target=1)
    params = np.array([0.0, 0.0, 5.0, 5.0])
    # rate computed over the single eligible input only
    probe = metrics.backdoor_probe(ds, cfg)
    assert np.array_equal(probe.features, [[0.0, 3.0]])
    assert np.array_equal(probe.labels, [1])
    assert metrics.attack_success_rate(params, probe) == 1.0


def test_asr_matches_enumeration():
    rng = np.random.default_rng(41)
    ds = data.gen_synthetic_classification(41, 50, 6, 3)[0]
    cfg = _bd_cfg(target=2, period=3)
    params = rng.normal(size=18)
    W = params.reshape(3, 6)
    eligible = [i for i in range(len(ds)) if ds.labels[i] != 2]
    hits = 0
    for i in eligible:
        triggered = apply_trigger(ds.features[i], 3)
        hits += int(np.argmax(W @ triggered)) == 2
    assert _asr(params, ds, cfg) == pytest.approx(hits / len(eligible))


def test_backdoor_probe_requires_classification_data():
    # a test set with no eligible input is rejected by the row plan, before
    # the run (test_config_cli.test_rejected_data_plans_write_nothing)
    regression = data.Dataset(np.ones((2, 2)), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="requires classification data"):
        metrics.backdoor_probe(regression, _bd_cfg(target=1))


def test_metric_record_primary():
    rec = metrics.MetricRecord(iteration=1, mse=0.5)
    assert rec.primary == 0.5
    rec = metrics.MetricRecord(iteration=1, test_error_rate=0.25)
    assert rec.primary == 0.25
    with pytest.raises(ValueError):
        metrics.MetricRecord(iteration=1).primary
