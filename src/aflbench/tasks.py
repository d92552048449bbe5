"""Loss, gradient, and prediction functions for the two model families.

Linear regression uses squared loss f(theta, (u, y)) = (<u, theta> - y)^2 / 2.
Multinomial logistic regression stores its parameters as a single flat
vector, row-major by class, so every defense filter sees plain vectors.
The data name the family: a ``data.Dataset`` with no class count is a
regression set, one with C classes a softmax set (``param_dim``).

Gradients returned here are mini-batch AVERAGES. The training engine owns
the wire-format scaling of updates (``engine.server_update_vector``).

Stack axis: the gradients take any number of leading axes, one formula for
every shape. A (K, m, d) batch with (K, m) labels and a (K, p) model stack
gives the K gradients as a (K, p) array, and the engine's block of L
iterations, an (L, K, m, d) batch against (L, K, p) models, gives an
(L, K, p) array the same way; a single (m, d) feature matrix against a
(K, p) stack gives each model's gradient on that one batch (the server's
reference update for every trial of a run). Each slice of a stacked call
equals the call on that slice alone bit for bit: numpy runs the same BLAS
call per slice, a gemv for the squared loss (``np.matvec`` for X theta,
``np.vecmat`` for r^T X, with no one-column matrices built around them)
and two gemms for the softmax (``matmul``).
One gemm over the stack (``features @ thetas.T``) would sum in another
order; do not use one.

The softmax gradient is class-major: its scores are W X^T, (..., C, m),
so the class max and the class sum reduce over axis -2, one elementwise
pass per class row, rather than over a short last axis of C entries. A
max is exact in any order, and numpy sums a last axis of up to 7 entries
left to right, as the rows are summed here; so for up to 7 classes the
bits are those of the row-major softmax on (..., m, C) scores
(``tests/test_tasks.py`` holds this at the shapes the runs use). From 8
classes numpy's last-axis sum is pairwise, and the last places may differ.
The second product keeps the row-major formula's gemm call, the
transposed view of a C-contiguous (..., m, C) difference; a C-contiguous
(..., C, m) operand there takes another BLAS path, whose bits differ.

The regression predictions take model stacks the same way: (..., p)
models against one (n, d) test set give (..., n) predictions, each slice
the single model's gemv bits. The softmax has no score or prediction
function here: ``metrics`` scores a test set class-major and tests each
row's argmax against its label without forming the argmax.
"""
from __future__ import annotations

import numpy as np


# L: the synthetic regression features have identity covariance, so the
# squared loss's population Hessian is the identity, whose largest eigenvalue is 1.
REGRESSION_SMOOTHNESS = 1.0
# mu: the smallest eigenvalue of that same identity Hessian.
REGRESSION_STRONG_CONVEXITY = 1.0


def param_dim(dim: int, num_classes: int | None) -> int:
    """The model length: d for the squared loss (no classes), d * C for
    the softmax's flat row-major weights."""
    return dim if num_classes is None else dim * num_classes


def _check_labels(features: np.ndarray, labels: np.ndarray) -> None:
    """One label per batch row: a label array of another shape would
    broadcast against the batch, or fail with numpy's own message."""
    if np.shape(labels) != features.shape[:-1]:
        raise ValueError(f"labels shape {np.shape(labels)} != batch shape "
                         f"{features.shape[:-1]}")


def regression_gradient(theta: np.ndarray, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Average gradient of the squared loss over a batch.

    features: (..., m, d) array, labels: (..., m) array, theta: (..., d),
    m >= 1; the leading axes broadcast (module docstring).
    """
    if features.ndim < 2 or features.shape[-2] == 0:
        raise ValueError("batch must be a nonempty (m, d) array")
    if features.shape[-1] != theta.shape[-1]:
        raise ValueError(f"feature dim {features.shape[-1]} != model dim {theta.shape[-1]}")
    _check_labels(features, labels)
    return (np.vecmat(np.matvec(features, theta) - labels, features)
            / features.shape[-2])


def regression_predict_batch(theta: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Predictions (..., n) of (..., d) models on an (n, d) feature matrix."""
    if features.shape[-1] != theta.shape[-1]:
        raise ValueError("dimension mismatch")
    return np.matvec(features, theta)


def logistic_gradient(
    params: np.ndarray, features: np.ndarray, labels: np.ndarray, num_classes: int
) -> np.ndarray:
    """Average softmax cross-entropy gradient, flattened row-major by class.

    features: (..., m, d) array, labels: (..., m) array of class indices,
    params: (..., d * num_classes); the leading axes broadcast (module
    docstring).

    Class-major (module docstring): the (..., C, m) scores W X^T take the
    max and the sum over their class axis, the probabilities minus the
    one-hot are formed in place, and the difference is copied once to
    (..., m, C), so that ``diff^T X`` runs on its transposed view.
    """
    if features.ndim < 2 or features.shape[-2] == 0:
        raise ValueError("batch must be a nonempty (m, d) array")
    m, d = features.shape[-2:]
    if params.shape[-1] != d * num_classes:
        raise ValueError(f"param length {params.shape[-1]} != dim*C = {d * num_classes}")
    labels = np.asarray(labels)
    _check_labels(features, labels)
    one_hot = labels[..., None, :] == np.arange(num_classes)[:, None]
    # a label that is no class index (negative, too large, or not an
    # integer) matches no row
    if np.count_nonzero(one_hot) != labels.size:
        raise ValueError("class label out of range")
    weights = params.reshape(*params.shape[:-1], num_classes, d)
    probs = np.matmul(weights, np.swapaxes(features, -1, -2))
    probs -= probs.max(axis=-2, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-2, keepdims=True)
    probs -= one_hot
    diff = np.swapaxes(probs, -1, -2).copy()
    grad = np.matmul(np.swapaxes(diff, -1, -2), features)
    grad /= m
    return grad.reshape(*grad.shape[:-2], -1)
