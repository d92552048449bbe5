import numpy as np
import pytest

from aflbench import vecmath


def test_l2norm_zero_iff_zero_vector():
    assert vecmath.l2norm(np.zeros(7)) == 0.0
    assert vecmath.l2norm(np.array([0.0, 1e-150])) > 0.0


def test_l2norm_homogeneous():
    rng = np.random.default_rng(3)
    a = rng.normal(size=20)
    for c in (-3.7, 0.0, 0.25):
        assert vecmath.l2norm(c * a) == pytest.approx(abs(c) * vecmath.l2norm(a))


def test_triangle_inequality():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a = rng.normal(size=10)
        b = rng.normal(size=10)
        assert vecmath.l2norm(a + b) <= vecmath.l2norm(a) + vecmath.l2norm(b) + 1e-12
