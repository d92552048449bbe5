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
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import attacks, tasks
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


def test_error_rate(params: np.ndarray, test: Dataset):
    """Fraction of clean test examples each model (..., p) misclassifies."""
    if test.num_classes is None:
        raise ValueError("test error rate requires classification data")
    if len(test) == 0:
        raise ValueError("empty test set")
    predicted = tasks.logistic_predict_batch(params, test.features, test.num_classes)
    return _per_model(np.mean(predicted != test.labels, axis=-1))


def backdoor_probe(clean_test: Dataset, cfg: AttackConfig) -> Dataset:
    """The backdoor probe: every test input whose clean label is not the
    target class, with the trigger embedded and labelled as the target.

    Inputs whose clean label already equals the target are excluded so the
    rate measures only attacker-induced predictions. The caller guarantees
    that at least one test input is eligible: ``engine._RowPlan`` rejects a
    backdoor config whose test rows all carry the target class, before any
    row or file exists. The probe does not depend on the model, so it is
    built once per run, for all its trials.
    """
    if clean_test.num_classes is None:
        raise ValueError("attack success rate requires classification data")
    eligible = clean_test.labels != cfg.bd_target_class
    triggered = attacks.apply_trigger(clean_test.features[eligible],
                                      cfg.bd_trigger_period)
    return Dataset(triggered, np.full(len(triggered), cfg.bd_target_class),
                   clean_test.num_classes)


def attack_success_rate(params: np.ndarray, probe: Dataset):
    """Fraction of the probe's trigger-embedded inputs that each model
    (..., p) predicts as the target class, their label
    (``backdoor_probe``)."""
    predicted = tasks.logistic_predict_batch(params, probe.features,
                                             probe.num_classes)
    return _per_model(np.mean(predicted == probe.labels, axis=-1))
