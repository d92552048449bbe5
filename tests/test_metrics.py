import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    assert metrics.test_error_rate(params, metrics.class_major(ds)) == 0.0


def test_error_rate_zero_model_balanced():
    ds = _tiny_classification()
    # all scores tie; prediction falls to class 0, misclassifying class 1
    assert metrics.test_error_rate(np.zeros(4), metrics.class_major(ds)) == 0.5


def test_error_rate_matches_enumeration():
    rng = np.random.default_rng(37)
    ds = data.gen_synthetic_classification(37, 60, 5, 3)[0]
    params = rng.normal(size=15)
    W = params.reshape(3, 5)
    wrong = sum(int(np.argmax(W @ ds.features[i])) != ds.labels[i]
                for i in range(len(ds)))
    assert (metrics.test_error_rate(params, metrics.class_major(ds))
            == pytest.approx(wrong / len(ds)))


def test_error_rate_errors():
    with pytest.raises(ValueError, match="requires classification data"):
        metrics.class_major(data.Dataset(np.ones((1, 2)), np.array([1.0])))
    with pytest.raises(ValueError, match="dimension mismatch"):
        metrics.test_error_rate(np.zeros(6), metrics.class_major(_tiny_classification()))


def test_empty_scoring_sets_are_rejected():
    # a probe of a test set whose rows all carry the target is empty; both
    # rates refuse an empty set rather than return a NaN mean
    ds = data.Dataset(np.ones((3, 2)), np.array([1, 1, 1]), 2)
    probe = metrics.backdoor_probe(ds, _bd_cfg(target=1))
    assert probe.features_t.shape == (2, 0)
    empty = metrics.class_major(data.Dataset(np.ones((0, 2)), np.array([], dtype=int), 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rate, scored in ((metrics.attack_success_rate, probe),
                             (metrics.test_error_rate, probe),
                             (metrics.attack_success_rate, empty),
                             (metrics.test_error_rate, empty)):
            with pytest.raises(ValueError, match="empty scoring set"):
                rate(np.zeros(4), scored)


def test_hit_test_tie_breaks_low():
    # the zero model ties every class: each row is predicted as class 0
    X = np.ones((3, 4))
    for labels, rate in (([0, 0, 0], 1.0), ([1, 1, 1], 0.0), ([0, 1, 0], 2 / 3)):
        scored = metrics.class_major(data.Dataset(X, np.array(labels), 2))
        assert metrics.attack_success_rate(np.zeros(8), scored) == rate


def test_hit_test_matching_row_wins():
    x = np.array([1.0, 2.0, -1.0])
    params = np.concatenate([np.zeros(3), x, np.zeros(3)])
    for label, rate in ((0, 0.0), (1, 1.0), (2, 0.0)):
        scored = metrics.class_major(data.Dataset(x[None, :], np.array([label]), 3))
        assert metrics.attack_success_rate(params, scored) == rate


def test_hit_test_matches_score_enumeration():
    rng = np.random.default_rng(26)
    C, d = 4, 5
    params = rng.normal(size=C * d)
    W = params.reshape(C, d)
    X = rng.normal(size=(20, d))
    labels = rng.integers(C, size=20)
    hits = sum(int(np.argmax([float(W[c] @ x) for c in range(C)])) == label
               for x, label in zip(X, labels))
    scored = metrics.class_major(data.Dataset(X, labels, C))
    assert metrics.attack_success_rate(params, scored) == hits / 20
    assert metrics.test_error_rate(params, scored) == (20 - hits) / 20


# column 0 of the weights and the features may hold these, so each score
# has at most one term that is not a small integer, and both products are
# exact in any summation order
_SPECIALS = [math.nan, math.inf, -math.inf, 1e308, -1e308]


@st.composite
def _model_stacks(draw):
    """(W, X, labels): a (..., C, d) stack of integer-valued class rows,
    (n, d) integer-valued features and n labels, at times with specials in
    column 0, a duplicated class row or a zero model."""
    stack = draw(st.sampled_from([(), (1,), (3,), (2, 3)]))
    classes, dim = draw(st.integers(2, 6)), draw(st.integers(1, 5))
    rows = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.integers(-2, 3, size=stack + (classes, dim)).astype(float)
    features = rng.integers(-2, 3, size=(rows, dim)).astype(float)
    for column in (weights[..., 0], features[:, 0]):
        if draw(st.booleans()):
            special = rng.random(column.shape) < 0.3
            column[special] = rng.choice(_SPECIALS, size=np.count_nonzero(special))
    if draw(st.booleans()):
        weights[..., -1, :] = weights[..., 0, :]
    if draw(st.booleans()):
        weights.reshape(-1, classes, dim)[0] = 0.0
    return weights, features, rng.integers(classes, size=rows)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_model_stacks())
# a NaN row (count 0 at its NaN max) beside a 2-way tie (count 2) passes a
# count of maxima equal to the row count; only the NaN check sends it to
# argmax, which takes the NaN row's first class
@example(case=(np.array([[[1.0], [2.0]]]), np.array([[math.nan], [0.0]]),
               np.array([0, 0])))
def test_hit_test_is_the_first_argmax(case):
    weights, features, labels = case
    classes, dim = weights.shape[-2:]
    params = weights.reshape(*weights.shape[:-2], classes * dim)
    scored = metrics.ClassMajorSet(np.ascontiguousarray(features.T), labels, classes)
    with np.errstate(all="ignore"):  # inf * 0, inf - inf
        hit = np.argmax(features @ np.swapaxes(weights, -1, -2), axis=-1) == labels
        asr = metrics.attack_success_rate(params, scored)
        error = metrics.test_error_rate(params, scored)
    assert np.asarray(asr).tobytes() == np.mean(hit, axis=-1).tobytes()
    assert np.asarray(error).tobytes() == np.mean(~hit, axis=-1).tobytes()


def _row_major_scores(params, X, C):
    """The (..., n, C) scores X W^T of (..., d * C) models, each slice one
    gemm on a C-contiguous copy of its W^T."""
    weights = params.reshape(*params.shape[:-1], C, X.shape[-1])
    return np.matmul(X, np.ascontiguousarray(np.swapaxes(weights, -1, -2)))


def test_class_major_hits_equal_the_row_major_argmax():
    # the shipped 2000 x 60 test set with 6 classes, its backdoor probe
    # (the ~5/6 of it not of class 5), 1,600 rows, and the golden gate's
    # d = 20 with 3 classes. The class-major scores differ from the
    # row-major ones in the last places at some of these shapes, which can
    # move an argmax only at a near-exact tie.
    rng = np.random.default_rng(29)
    for n, d, C in ((2000, 60, 6), (1667, 60, 6), (1600, 60, 6), (2000, 20, 3)):
        X = rng.normal(1.5, 1.0, size=(n, d))
        labels = rng.integers(C, size=n)
        scored = metrics.class_major(data.Dataset(X, labels, C))
        assert scored.features_t.flags.c_contiguous
        for _ in range(8):  # 8 x 25 models
            stack = rng.normal(size=(5, 5, C * d))
            hit = np.argmax(_row_major_scores(stack, X, C), axis=-1) == labels
            assert np.array_equal(metrics.attack_success_rate(stack, scored),
                                  np.mean(hit, axis=-1))
            assert np.array_equal(metrics.test_error_rate(stack, scored),
                                  np.mean(~hit, axis=-1))


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
    assert np.array_equal(probe.features_t, [[0.0], [3.0]])
    assert np.array_equal(probe.labels, [1])
    assert metrics.attack_success_rate(params, probe) == 1.0


def test_backdoor_probe_is_the_triggered_rows_class_major():
    # the eligible rows, triggered, transposed to a C-contiguous (d, n')
    # array: a column mask would leave it F-ordered, and a slow gemm
    ds = data.gen_synthetic_classification(43, 300, 60, 6)[0]
    cfg = _bd_cfg(target=5, period=10)
    probe = metrics.backdoor_probe(ds, cfg)
    eligible = ds.labels != 5
    assert probe.features_t.flags.c_contiguous
    assert np.array_equal(probe.features_t.T, apply_trigger(ds.features[eligible], 10))
    assert np.array_equal(probe.labels, np.full(np.count_nonzero(eligible), 5))
    assert probe.num_classes == 6


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
