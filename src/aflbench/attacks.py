"""Poisoning behaviors mounted by malicious clients.

Data-level attacks (label flipping, backdoor replication) poison a client's
local data once at setup. They work on arrays and build no set:
``engine.prepare_data`` passes a malicious client's rows of its store, and
the client then behaves honestly on the poisoned data. Update-level attacks
(Gaussian, gradient deviation, backdoor scaling, adaptive) transform or
replace the update a client would send.
Attack parameters are validated once, by ``AttackConfig``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .vecmath import l2norm

ATTACK_KINDS = ("none", "label_flip", "gaussian", "gradient_deviation",
                "backdoor", "adaptive")


@dataclass(frozen=True)
class AttackConfig:
    kind: str = "none"
    gauss_sigma: float = 200.0
    gd_scale: float = -10.0
    bd_trigger_period: int = 20
    bd_target_class: int = 0
    bd_replication_fraction: float = 0.25
    bd_scale_factor: float = 5.0
    knowledge: str = "full"  # full | partial

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind: {self.kind!r}")
        if self.gauss_sigma <= 0:
            raise ValueError("gauss_sigma must be positive")
        if self.gd_scale >= 0:
            raise ValueError("gd_scale must be negative")
        if self.bd_trigger_period < 1:
            raise ValueError("bd_trigger_period must be >= 1")
        if not (0.0 < self.bd_replication_fraction <= 1.0):
            raise ValueError("bd_replication_fraction must lie in (0, 1]")
        if self.bd_scale_factor < 1.0:
            raise ValueError("bd_scale_factor must be >= 1")
        if self.knowledge not in ("full", "partial"):
            raise ValueError("knowledge must be 'full' or 'partial'")


def flip_dataset_labels(labels: np.ndarray, num_classes: Optional[int]) -> np.ndarray:
    """The label-flipped copy of a local set's labels.

    Classification labels map to C-1-y, an involution of the classes.
    Regression labels (``num_classes`` None) are reflected through zero,
    the real-valued analogue of the class reflection. Valid labels flip to
    valid labels, so the result is not checked again.
    """
    if num_classes is None:
        return -labels
    return num_classes - 1 - labels


def gaussian_update(dim: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Pure-noise update with each component drawn from N(0, sigma^2)."""
    return rng.normal(0.0, sigma, dim)


def gradient_deviation_update(honest: np.ndarray, scale: float) -> np.ndarray:
    """Reverse and amplify the honest update by a negative constant."""
    return scale * honest


def apply_trigger(features: np.ndarray, period: int) -> np.ndarray:
    """Zero every period-th feature (indices 0, period, 2*period, ...) of
    one example or of each row."""
    out = np.array(features, dtype=np.float64, copy=True)
    out[..., ::period] = 0.0
    return out


def backdoor_replica_count(num_clean: int, cfg: AttackConfig) -> int:
    """The number of replicas backdoor poisoning adds to a local dataset
    of ``num_clean`` examples."""
    return int(round(cfg.bd_replication_fraction * num_clean))


def backdoor_poison(features: np.ndarray, labels: np.ndarray, num_clean: int,
                    cfg: AttackConfig) -> None:
    """Write trigger-embedded, target-labeled replicas of a local set's
    first ``backdoor_replica_count`` examples after its own rows.

    ``features`` and ``labels`` are the poisoned set's writable rows: its
    ``num_clean`` clean rows, then the rows reserved for the replicas, as a
    store reserves them after a clean set (``engine.prepare_data``). The
    replicas fill that tail; the clean rows are left as they are. The set
    is a classification set with ``cfg.bd_target_class`` one of its classes
    (``engine._RowPlan`` checks both, once per run).
    """
    num_rep = backdoor_replica_count(num_clean, cfg)
    features[num_clean:] = apply_trigger(features[:num_rep], cfg.bd_trigger_period)
    labels[num_clean:] = cfg.bd_target_class


def backdoor_update(honest_on_poisoned: np.ndarray, cfg: AttackConfig) -> np.ndarray:
    """Scale up the update computed on poisoned data."""
    return cfg.bd_scale_factor * honest_on_poisoned


def adaptive_update(g_bar: np.ndarray, g_s: np.ndarray, lam: float) -> np.ndarray:
    """Craft the largest filter-feasible deviation along the reversed benign mean.

    The attacker knows the benign mean update g_bar, its estimate g_s of the
    server update (``engine.make_threat_knowledge`` builds both, in wire
    units) and the filter's lam. Returns g_bar - gamma * s with
    s = g_bar / ||g_bar||, where gamma is the largest value in
    [0, 10 * ||g_s||] keeping the crafted update inside the acceptance ball
    of radius r = lam * ||g_s|| around g_s. With a = g_bar - g_s, the line
    meets the ball's sphere where ||a - gamma * s||^2 = r^2, so gamma is the
    larger root of that quadratic, capped at 10 * ||g_s||. If even
    gamma = 0 is infeasible (||a|| > r) the benign mean is sent unchanged.
    """
    if g_bar.shape != g_s.shape:
        raise ValueError("threat knowledge vectors must share dimension")
    norm_gbar = l2norm(g_bar)
    norm_gs = l2norm(g_s)
    if norm_gbar == 0.0 or norm_gs == 0.0:
        raise ValueError("adaptive attack needs nonzero knowledge vectors")
    s = g_bar / norm_gbar
    a = g_bar - g_s
    r = lam * norm_gs
    norm_a = l2norm(a)
    if norm_a > r:
        return g_bar.copy()
    a_s = float(a.dot(s))
    # r >= ||a|| >= |a.s|, so the discriminant is nonnegative up to rounding
    gamma = a_s + math.sqrt(max(a_s * a_s + (r - norm_a) * (r + norm_a), 0.0))
    # g_bar - gamma * s, written over s
    s *= min(gamma, 10.0 * norm_gs)
    return np.subtract(g_bar, s, out=s)
