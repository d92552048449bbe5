"""Evaluation quantities: MSE, model estimation error, test error rate,
and backdoor attack success rate.

Stack axis: each quantity takes models, or predictions, with any number of
leading axes, one formula for every shape, and gives one value per model:
a float for a single model, an array of the leading shape for a stack.
Each value has the bits of its model's call alone. The means run over the
last axis of a C-contiguous array (``mse`` takes a C-ordered copy of
predictions that are not), so their summation order does not depend on
the leading axes, and the distances come from ``np.vecdot``,
bit-equal to ``vecmath.l2norm`` of a row. The engine scores the live
trials of a record with one call per quantity (``engine._bind_evaluate``).

Classification is scored class-major: a ``ClassMajorSet`` holds the
C-contiguous (d, n) transpose of its features, and the (..., C, n) scores
are W X^T, one gemm per model slice, so a model's value does not depend on
its stack. A row is a hit when its argmax is its label, ties going to the
lowest class and a row with a NaN score to its first NaN. When no row's
class max is NaN and each row has exactly one maximum, that is the row
whose label's score equals the max, which one reduce over the class axis
and one ``take`` test; otherwise ``np.argmax`` over the class axis decides.
The scores' last places may differ from those of the row-major X W^T, which
can move an argmax only at a near-exact tie (``tests/test_metrics.py``
holds the hit counts equal at the shipped shapes).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import attacks
from .attacks import AttackConfig
from .data import Dataset


@dataclass(frozen=True)
class MetricRecord:
    iteration: int
    mse: Optional[float] = None
    test_error_rate: Optional[float] = None
    mee: Optional[float] = None
    attack_success_rate: Optional[float] = None
    accepted: int = 0
    rejected: int = 0
    buffered: int = 0

    @property
    def primary(self) -> float:
        value = self.mse if self.mse is not None else self.test_error_rate
        if value is None:
            raise ValueError("record carries no primary metric")
        return value


def _per_model(values: np.ndarray):
    """A float for a single model's value, else the stack's array."""
    return float(values) if np.ndim(values) == 0 else values


def mse(predictions: Sequence[float], truths: Sequence[float]):
    """Mean squared difference between predictions (..., n) and reference
    values (n,), per model."""
    p = np.asarray(predictions, dtype=np.float64, order="C")
    t = np.asarray(truths, dtype=np.float64)
    if p.shape[p.ndim - t.ndim:] != t.shape:
        raise ValueError("prediction/truth length mismatch")
    if p.size == 0:
        raise ValueError("empty prediction list")
    return _per_model(np.mean((p - t) ** 2, axis=-1))


def mee(estimate: np.ndarray, true_model: np.ndarray):
    """l2 distance between each learnt model (..., p) and the true model."""
    if estimate.shape[estimate.ndim - true_model.ndim:] != true_model.shape:
        raise ValueError("dimension mismatch")
    deviation = estimate - true_model
    return _per_model(np.sqrt(np.vecdot(deviation, deviation)))


@dataclass(frozen=True)
class ClassMajorSet:
    """A labelled classification set laid out for scoring: ``features_t``
    is the C-contiguous (d, n) transpose of its (n, d) features. A
    transposed view or a column mask of a C array is F-ordered, which takes
    a slower gemm path."""
    features_t: np.ndarray
    labels: np.ndarray
    num_classes: int


def class_major(test: Dataset) -> ClassMajorSet:
    """``test`` laid out for scoring; built once per run."""
    if test.num_classes is None:
        raise ValueError("scoring requires classification data")
    return ClassMajorSet(np.ascontiguousarray(test.features.T), test.labels,
                         test.num_classes)


def _hits(params: np.ndarray, scored: ClassMajorSet) -> np.ndarray:
    """How many rows of ``scored`` each model (..., p) predicts as their
    label (module docstring)."""
    d, n = scored.features_t.shape
    if n == 0:
        raise ValueError("empty scoring set")
    if params.shape[-1] != d * scored.num_classes:
        raise ValueError("dimension mismatch")
    scores = np.matmul(params.reshape(*params.shape[:-1], scored.num_classes, d),
                       scored.features_t)
    top = scores.max(axis=-2)
    if (np.count_nonzero(scores == top[..., None, :]) == top.size
            and not np.isnan(top).any()):
        mine = np.take(scores.reshape(*top.shape[:-1], -1),
                       scored.labels * n + np.arange(n), axis=-1)
        return np.count_nonzero(mine == top, axis=-1)
    return np.count_nonzero(np.argmax(scores, axis=-2) == scored.labels, axis=-1)


def test_error_rate(params: np.ndarray, test: ClassMajorSet):
    """Fraction of clean test examples each model (..., p) misclassifies."""
    n = test.labels.shape[0]
    return _per_model((n - _hits(params, test)) / n)


def backdoor_probe(clean_test: Dataset, cfg: AttackConfig) -> ClassMajorSet:
    """The backdoor probe: every test input whose clean label is not the
    target class, with the trigger embedded and labelled as the target.

    Inputs whose clean label already equals the target are excluded so the
    rate measures only attacker-induced predictions. The caller guarantees
    that at least one test input is eligible: ``engine._RowPlan`` rejects a
    backdoor config whose test rows all carry the target class, before any
    row or file exists. The probe does not depend on the model, so it is
    built once per run, for all its trials, straight in the class-major
    layout: the eligible columns of the transposed features are taken into
    a C-contiguous (d, n') array, and ``apply_trigger`` copies its
    F-ordered (n', d) view in that order, so the copy's transpose is
    C-contiguous too.
    """
    if clean_test.num_classes is None:
        raise ValueError("attack success rate requires classification data")
    eligible = np.flatnonzero(clean_test.labels != cfg.bd_target_class)
    columns = clean_test.features.T.take(eligible, axis=1)
    triggered = attacks.apply_trigger(columns.T, cfg.bd_trigger_period).T
    return ClassMajorSet(triggered, np.full(len(eligible), cfg.bd_target_class),
                         clean_test.num_classes)


def attack_success_rate(params: np.ndarray, probe: ClassMajorSet):
    """Fraction of the probe's trigger-embedded inputs that each model
    (..., p) predicts as the target class, their label
    (``backdoor_probe``)."""
    return _per_model(_hits(params, probe) / probe.labels.shape[0])
