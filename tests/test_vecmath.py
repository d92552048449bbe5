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


def test_cosine_examples():
    assert vecmath.cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    a = np.array([0.3, -1.2, 4.0])
    assert vecmath.cosine(a, a) == pytest.approx(1.0)
    assert vecmath.cosine(a, -a) == pytest.approx(-1.0)


def test_cosine_zero_norm_is_error():
    with pytest.raises(ValueError):
        vecmath.cosine(np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        vecmath.cosine(np.ones(2), np.zeros(2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        vecmath.cosine(np.ones(3), np.ones(4))


def test_triangle_inequality():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a = rng.normal(size=10)
        b = rng.normal(size=10)
        assert vecmath.l2norm(a + b) <= vecmath.l2norm(a) + vecmath.l2norm(b) + 1e-12
