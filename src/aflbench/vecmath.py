"""Dense real-vector arithmetic shared by models, attacks, and filters.

All vectors are 1-D float64 numpy arrays. Binary operations insist on
matching dimensions and raise ValueError otherwise; nothing here silently
broadcasts.
"""
from __future__ import annotations

import math

import numpy as np


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product sum(a_i * b_i)."""
    _check_same_dim(a, b)
    return float(np.dot(a, b))


def l2norm(a: np.ndarray) -> float:
    """Euclidean norm; 0 exactly when a is the zero vector. The same
    sqrt(a . a) that ``np.linalg.norm`` computes for a 1-D float vector,
    without its dispatch."""
    return math.sqrt(a @ a)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; zero-norm input is a hard error."""
    _check_same_dim(a, b)
    na, nb = l2norm(a), l2norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine undefined for zero-norm input")
    c = dot(a, b) / (na * nb)
    return float(min(1.0, max(-1.0, c)))
