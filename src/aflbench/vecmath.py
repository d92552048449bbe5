"""Dense real-vector arithmetic shared by models, attacks, and filters.

All vectors are 1-D float64 numpy arrays.
"""
from __future__ import annotations

import math

import numpy as np


def l2norm(a: np.ndarray) -> float:
    """Euclidean norm; 0 exactly when a is the zero vector. The same
    sqrt(a.dot(a)) that ``np.linalg.norm`` computes for a 1-D float vector,
    without its dispatch. ``a.dot(a)`` and ``a @ a`` call the same BLAS
    dot, so they agree bit for bit; ``a @ a`` costs about 2.5 times as
    much per call on 100-vectors."""
    return math.sqrt(a.dot(a))
