import numpy as np
import pytest

from aflbench import defenses, vecmath


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


def basgd_median(vs):
    """Coordinate median as BASGD computes it: k buffers of one update each."""
    state = defenses.BasgdState(len(vs))
    for cid, v in enumerate(vs):
        _, step = defenses.basgd_step([state], [0], cid, v)
    return step


def test_coordinate_median_permutation_invariant():
    rng = np.random.default_rng(6)
    vs = [rng.normal(size=4) for _ in range(6)]
    base = basgd_median(vs)
    for _ in range(5):
        rng.shuffle(vs)
        assert np.array_equal(basgd_median(vs), base)


def test_mean_and_median_agree_on_identical_vectors():
    # buffer 0 averages three copies of v, buffer 1 holds one; the median
    # of the two buffer means is v again
    v = np.array([2.0, -3.0, 0.5])
    state = defenses.BasgdState(2)
    for cid in (0, 2, 4, 1):
        code, step = defenses.basgd_step([state], [0], cid, v.copy())
    assert code == defenses.ACCEPT
    assert np.allclose(step, v)


def test_mixed_dims_rejected():
    with pytest.raises(ValueError):
        basgd_median([np.ones(2), np.ones(3)])


def test_triangle_inequality():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a = rng.normal(size=10)
        b = rng.normal(size=10)
        assert vecmath.l2norm(a + b) <= vecmath.l2norm(a) + vecmath.l2norm(b) + 1e-12
