import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aflbench import tasks
from aflbench.acceptance import _finite_difference


def test_regression_gradient_vanishes_at_true_model():
    theta_star = np.array([1.0, -2.0, 0.5])
    X = np.array([[0.3, 1.1, -0.7]])
    y = X @ theta_star  # noiseless
    g = tasks.regression_gradient(theta_star, X, y)
    assert np.allclose(g, 0.0)


def test_regression_gradient_single_example():
    g = tasks.regression_gradient(np.array([1.0, 0.0]),
                                  np.array([[1.0, 0.0]]), np.array([0.0]))
    assert np.allclose(g, [1.0, 0.0])


def test_regression_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    for _ in range(20):
        X = rng.normal(size=(5, 4))
        y = rng.normal(size=5)
        theta = rng.normal(size=4)

        def loss(p):
            return float(np.mean((X @ p - y) ** 2) / 2.0)

        fd = _finite_difference(loss, theta)
        g = tasks.regression_gradient(theta, X, y)
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel <= 1e-6


def test_regression_gradient_linear_in_residual():
    rng = np.random.default_rng(22)
    X = rng.normal(size=(6, 3))
    theta_star = rng.normal(size=3)
    y = X @ theta_star
    theta = rng.normal(size=3)
    g1 = tasks.regression_gradient(theta, X, y)
    c = 3.5
    g2 = tasks.regression_gradient(c * theta, X, c * y)
    assert np.allclose(g2, c * g1)


def test_regression_gradient_rejects_bad_batch():
    with pytest.raises(ValueError):
        tasks.regression_gradient(np.ones(3), np.empty((0, 3)), np.array([]))
    with pytest.raises(ValueError):
        tasks.regression_gradient(np.ones(3), np.ones((2, 4)), np.ones(2))


def test_regression_predict():
    assert np.array_equal(tasks.regression_predict_batch(np.zeros(4), np.ones((2, 4))),
                          [0.0, 0.0])
    theta_star = np.array([2.0, -1.0])
    U = np.array([[0.5, 0.25], [-1.0, 3.0]])
    got = tasks.regression_predict_batch(theta_star, U)
    assert got == pytest.approx([float(u @ theta_star) for u in U])
    with pytest.raises(ValueError):
        tasks.regression_predict_batch(np.ones(2), np.ones((1, 3)))
    with pytest.raises(ValueError):
        tasks.regression_predict_batch(np.ones((3, 2)), np.ones((1, 3)))


def test_stacked_predictions_are_the_gemv_bits():
    # each slice of a stack is the gemv X @ theta of its model alone, at
    # the shipped 2000 x 100 test set and at small odd sizes
    rng = np.random.default_rng(29)
    for n, d in ((2000, 100), (7, 100), (3, 5)):
        X = rng.normal(size=(n, d))
        thetas = rng.normal(size=(2, 3, d))
        got = tasks.regression_predict_batch(thetas, X)
        assert got.shape == (2, 3, n)
        for theta, row in zip(thetas.reshape(-1, d), got.reshape(-1, n)):
            assert row.tobytes() == (X @ theta).tobytes()


def _matmul_regression_gradient(theta, features, labels):
    """The matmul formula the mat-vec gufuncs replaced, as a bit reference."""
    residual = np.matmul(features, theta[..., None])[..., 0] - labels
    return (np.matmul(np.swapaxes(features, -1, -2), residual[..., None])[..., 0]
            / features.shape[-2])


def _matmul_regression_predict(theta, features):
    return np.matmul(features, theta[..., None])[..., 0]


_SPECIAL = np.array([0.0, 1.0, -1.0, 1e300, -1e300, math.inf, -math.inf, math.nan])


def _with_specials(rng, shape, share):
    """Normal coordinates, each replaced by a special value with
    probability ``share``."""
    values = rng.normal(size=shape)
    special = rng.random(shape) < share
    values[special] = rng.choice(_SPECIAL, size=np.count_nonzero(special))
    return values


def _same_bits(got, want):
    """NaNs at the same positions, every other entry the same bytes."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(layout=st.sampled_from(["stack", "server"]), blocks=st.integers(1, 3),
       trials=st.integers(1, 4), m=st.integers(1, 20), d=st.integers(1, 12),
       share=st.sampled_from([0.0, 0.1, 0.5]), seed=st.integers(0, 2**16))
@example(layout="stack", blocks=2, trials=3, m=1, d=1, share=0.5, seed=1)
@example(layout="server", blocks=1, trials=2, m=1, d=7, share=0.0, seed=2)
@example(layout="server", blocks=1, trials=3, m=9, d=1, share=0.5, seed=3)
def test_regression_kernels_are_the_matmul_bits(layout, blocks, trials, m, d,
                                                share, seed):
    # an (L, K, m, d) block of batches against (L, K, d) models, as the
    # engine's block, or one (m, d) batch against a (K, d) stack, as the
    # server's g_s: the mat-vec gufuncs give the matmul formula's bits
    rng = np.random.default_rng(seed)
    lead = (blocks, trials) if layout == "stack" else ()
    features = _with_specials(rng, lead + (m, d), share)
    labels = _with_specials(rng, lead + (m,), share)
    theta = _with_specials(rng, (blocks, trials, d) if lead else (trials, d), share)
    with np.errstate(all="ignore"):
        _same_bits(tasks.regression_gradient(theta, features, labels),
                   _matmul_regression_gradient(theta, features, labels))
        test = features.reshape(-1, d)
        _same_bits(tasks.regression_predict_batch(theta, test),
                   _matmul_regression_predict(theta, test))


def test_logistic_gradient_zero_params_two_classes():
    x = np.array([[2.0, -1.0, 0.5]])
    g = tasks.logistic_gradient(np.zeros(6), x, np.array([0]), 2)
    rows = g.reshape(2, 3)
    assert np.allclose(rows[0], -0.5 * x[0])
    assert np.allclose(rows[1], 0.5 * x[0])


def test_logistic_gradient_rows_sum_to_zero():
    rng = np.random.default_rng(24)
    X = rng.normal(size=(7, 4))
    labels = rng.integers(0, 3, 7)
    params = rng.normal(size=12)
    g = tasks.logistic_gradient(params, X, labels, 3).reshape(3, 4)
    assert np.allclose(g.sum(axis=0), 0.0, atol=1e-12)


def test_logistic_gradient_label_out_of_range():
    with pytest.raises(ValueError):
        tasks.logistic_gradient(np.zeros(6), np.ones((1, 3)), np.array([2]), 2)
    # a label that is not an integer is no class either (it used to be
    # truncated to one)
    with pytest.raises(ValueError, match="class label out of range"):
        tasks.logistic_gradient(np.zeros(6), np.ones((2, 3)), np.array([0, 0.5]), 2)


def _old_logistic_gradient(params, features, labels, num_classes):
    """The 2-D formula the stacked one replaced, as a bit reference."""
    m, d = features.shape
    scores = features @ params.reshape(num_classes, d).T
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    probs[np.arange(m), labels] -= 1.0
    return (probs.T @ features / m).reshape(-1)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(stack=st.integers(1, 8), m=st.integers(1, 40), d=st.integers(1, 12),
       classes=st.integers(2, 6), shared=st.booleans(), seed=st.integers(0, 2**16),
       bad_label=st.sampled_from((-1, "classes", 0.5)))
def test_stacked_gradients_equal_the_single_calls_bit_for_bit(
        stack, m, d, classes, shared, seed, bad_label):
    # K models on a (K, m, d) stack of batches, or on one shared (m, d)
    # batch (the server's reference update): each row equals the call on its
    # slice alone, which equals the 2-D formula, bit for bit
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 3.0, size=(m, d) if shared else (stack, m, d))
    y = rng.normal(size=X.shape[:-1])
    labels = rng.integers(0, classes, size=X.shape[:-1])
    theta = rng.normal(size=(stack, d))
    params = rng.normal(size=(stack, d * classes))
    reg = tasks.regression_gradient(theta, X, y)
    log = tasks.logistic_gradient(params, X, labels, classes)
    assert reg.shape == (stack, d) and log.shape == (stack, d * classes)
    for k in range(stack):
        xk, yk, lk = (X, y, labels) if shared else (X[k], y[k], labels[k])
        single = tasks.regression_gradient(theta[k], xk, yk)
        assert reg[k].tobytes() == single.tobytes()
        assert single.tobytes() == (xk.T @ (xk @ theta[k] - yk) / m).tobytes()
        single = tasks.logistic_gradient(params[k], xk, lk, classes)
        assert log[k].tobytes() == single.tobytes()
        assert single.tobytes() == _old_logistic_gradient(params[k], xk, lk,
                                                          classes).tobytes()

    if not shared:
        # the engine's block of iterations: two leading axes, (2, K, ...)
        X2, y2, labels2, theta2, params2 = (np.stack([a, a[::-1]]) for a in
                                            (X, y, labels, theta, params))
        reg2 = tasks.regression_gradient(theta2, X2, y2)
        log2 = tasks.logistic_gradient(params2, X2, labels2, classes)
        assert reg2.tobytes() == np.stack([reg, reg[::-1]]).tobytes()
        assert log2.tobytes() == np.stack([log, log[::-1]]).tobytes()

    # one label that is no class index, anywhere in the stack
    bad = labels.astype(float)
    bad.flat[rng.integers(bad.size)] = classes if bad_label == "classes" else bad_label
    with pytest.raises(ValueError, match="class label out of range"):
        tasks.logistic_gradient(params, X, bad, classes)


def _logistic_case(rng, lead, m, d, classes, trigger):
    """Features at the classification generator's offset, with every 10th
    column zeroed in the first ``trigger`` rows (the backdoor's replicas)."""
    X = rng.normal(1.5, 1.0, size=lead + (m, d))
    X[..., :trigger, ::10] = 0.0
    labels = rng.integers(0, classes, size=lead + (m,))
    return X, labels


def _params(rng, shape, special):
    """Normal parameters; with ``special``, about two coordinates per model
    in {+-inf, NaN, +-1e200}, so that most models keep some finite rows."""
    params = rng.normal(size=shape)
    if special:
        hit = rng.random(shape) < 2 / shape[-1]
        params[hit] = rng.choice([math.inf, -math.inf, math.nan, 1e200, -1e200],
                                 size=np.count_nonzero(hit))
    return params


@pytest.mark.parametrize("classes, d", [(6, 60), (3, 20)])
@pytest.mark.parametrize("special", [False, True], ids=["finite", "special"])
def test_class_major_gradient_is_the_row_major_bits(classes, d, special):
    # the engine's (L, 3, 16, d) blocks for L = 1..11, and the server's
    # (100, d) trusted set against a (3, p) stack, at the shipped d = 60
    # with 6 classes and the golden gate's d = 20 with 3: each slice equals
    # the 2-D row-major formula bit for bit (NaNs by position)
    rng = np.random.default_rng(31 + d)
    p = d * classes
    with np.errstate(all="ignore"):
        for blocks in range(1, 12):
            for _ in range(4):
                X, labels = _logistic_case(rng, (blocks, 3), 16, d, classes,
                                           trigger=rng.integers(0, 17))
                params = _params(rng, (blocks, 3, p), special)
                got = tasks.logistic_gradient(params, X, labels, classes)
                assert got.shape == (blocks, 3, p)
                for idx in np.ndindex(blocks, 3):
                    _same_bits(got[idx], _old_logistic_gradient(
                        params[idx], X[idx], labels[idx], classes))
        for _ in range(20):
            X, labels = _logistic_case(rng, (), 100, d, classes,
                                       trigger=rng.integers(0, 101))
            params = _params(rng, (3, p), special)
            got = tasks.logistic_gradient(params, X, labels, classes)
            assert got.shape == (3, p)
            for k in range(3):
                _same_bits(got[k], _old_logistic_gradient(params[k], X, labels,
                                                          classes))


@pytest.mark.parametrize("gradient", ["regression", "logistic"])
def test_gradients_reject_labels_of_another_shape(gradient):
    # one label per batch row: a single label, a short array, or a stack
    # of labels against one shared batch would otherwise broadcast or fail
    # inside numpy
    def call(features, labels):
        if gradient == "regression":
            return tasks.regression_gradient(np.zeros(3), features, labels)
        return tasks.logistic_gradient(np.zeros(6), features, labels, 2)

    for features, labels in ((np.ones((5, 3)), np.array([1])),
                             (np.ones((5, 3)), np.ones(4, dtype=int)),
                             (np.ones((5, 3)), np.ones((2, 5), dtype=int)),
                             (np.ones((2, 5, 3)), np.ones(5, dtype=int)),
                             (np.ones((5, 3)), np.int64(1))):
        with pytest.raises(ValueError, match=r"labels shape .* != batch shape"):
            call(features, labels)
    assert call(np.ones((5, 3)), np.ones(5, dtype=int)).shape in ((3,), (6,))


def test_task_param_dims():
    assert tasks.param_dim(7, None) == 7
    assert tasks.param_dim(5, 3) == 15
