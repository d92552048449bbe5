"""Evaluation quantities: MSE, model estimation error, test error rate,
and backdoor attack success rate."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import attacks, tasks
from .attacks import AttackConfig
from .data import CLASSIFICATION, Dataset
from .vecmath import l2norm


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


def mse(predictions: Sequence[float], truths: Sequence[float]) -> float:
    """Mean squared difference between predictions and reference values."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(truths, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError("prediction/truth length mismatch")
    if p.size == 0:
        raise ValueError("empty prediction list")
    return float(np.mean((p - t) ** 2))


def mee(estimate: np.ndarray, true_model: np.ndarray) -> float:
    """l2 distance between the learnt and the true model."""
    if estimate.shape != true_model.shape:
        raise ValueError("dimension mismatch")
    return l2norm(estimate - true_model)


def test_error_rate(params: np.ndarray, test: Dataset) -> float:
    """Fraction of clean test examples the model misclassifies."""
    if test.kind != CLASSIFICATION:
        raise ValueError("test error rate requires classification data")
    if len(test) == 0:
        raise ValueError("empty test set")
    predicted = tasks.logistic_predict_batch(params, test.features, test.num_classes)
    return float(np.mean(predicted != test.labels))


def backdoor_probe(clean_test: Dataset, cfg: AttackConfig) -> Dataset:
    """The backdoor probe: every test input whose clean label is not the
    target class, with the trigger embedded and labelled as the target.

    Inputs whose clean label already equals the target are excluded so the
    rate measures only attacker-induced predictions. The probe does not
    depend on the model, so it is built once per run, for all its trials.
    """
    if clean_test.kind != CLASSIFICATION:
        raise ValueError("attack success rate requires classification data")
    eligible = clean_test.labels != cfg.bd_target_class
    if not np.any(eligible):
        raise ValueError("no eligible test inputs (all carry the target label)")
    triggered = attacks.apply_trigger(clean_test.features[eligible],
                                      cfg.bd_trigger_period)
    return Dataset(triggered, np.full(len(triggered), cfg.bd_target_class),
                   CLASSIFICATION, clean_test.num_classes)


def attack_success_rate(params: np.ndarray, probe: Dataset) -> float:
    """Fraction of the probe's trigger-embedded inputs predicted as the
    target class, their label (``backdoor_probe``)."""
    predicted = tasks.logistic_predict_batch(params, probe.features,
                                             probe.num_classes)
    return float(np.mean(predicted == probe.labels))
