import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aflbench import attacks, data, vecmath
from aflbench.attacks import AttackConfig


def test_flip_label_examples():
    assert attacks.flip_dataset_labels(np.array([1, 9]), 10).tolist() == [8, 0]
    # a label out of range never reaches the flip: the store's set rejects it
    for label in (10, -1):
        with pytest.raises(ValueError, match="class label out of range"):
            data.Dataset(np.zeros((1, 1)), [label], 10)


def test_flip_label_is_involution():
    for c in (2, 6, 10):
        labels = np.arange(c)
        flipped = attacks.flip_dataset_labels(labels, c)
        assert np.array_equal(attacks.flip_dataset_labels(flipped, c), labels)
        # a new array: the caller decides where the flipped labels go
        assert not np.shares_memory(flipped, labels)
        assert flipped.dtype == labels.dtype


def test_flip_dataset_classification():
    flipped = attacks.flip_dataset_labels(np.array([0, 1, 2, 3]), 4)
    assert np.array_equal(flipped, [3, 2, 1, 0])


def test_flip_dataset_regression_negates():
    labels = np.array([1.0, -2.0, 0.0])
    flipped = attacks.flip_dataset_labels(labels, None)
    assert flipped.dtype == np.float64
    assert np.array_equal(flipped, [-1.0, 2.0, 0.0])
    assert labels.tolist() == [1.0, -2.0, 0.0]


def test_gaussian_update_statistics():
    rng = np.random.default_rng(71)
    draws = np.stack([attacks.gaussian_update(100, 200.0, rng) for _ in range(10_000)])
    stds = draws.std(axis=0)
    assert np.all(np.abs(stds - 200.0) <= 0.05 * 200.0)
    means = draws.mean(axis=0)
    assert np.all(np.abs(means) <= 8.0)


def test_gaussian_update_deterministic():
    a = attacks.gaussian_update(10, 200.0, np.random.default_rng(4))
    b = attacks.gaussian_update(10, 200.0, np.random.default_rng(4))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):  # sigma > 0 is checked at the config boundary
        AttackConfig(kind="gaussian", gauss_sigma=0.0)


def test_gradient_deviation_examples():
    assert np.array_equal(
        attacks.gradient_deviation_update(np.array([1.0, 2.0]), -10.0),
        np.array([-10.0, -20.0]))
    assert np.array_equal(
        attacks.gradient_deviation_update(np.zeros(3), -10.0), np.zeros(3))
    honest = np.array([0.5, -2.0, 1.0])
    out = attacks.gradient_deviation_update(honest, -4.0)
    assert vecmath.l2norm(out) == pytest.approx(4.0 * vecmath.l2norm(honest))
    assert np.vecdot(honest, out) == pytest.approx(
        -vecmath.l2norm(honest) * vecmath.l2norm(out))
    with pytest.raises(ValueError):  # scale < 0 is checked at the config boundary
        AttackConfig(kind="gradient_deviation", gd_scale=2.0)


def _poisoned(cfg, n=80, dim=40, c=4):
    """A clean set of n rows, and its poisoned rows as a store holds them:
    the clean rows, then the replicas ``backdoor_poison`` writes into the
    rows reserved after them."""
    local = data.gen_synthetic_classification(83, n, dim, c)[0]
    reserved = attacks.backdoor_replica_count(n, cfg)
    features = np.concatenate([local.features, np.full((reserved, dim), np.nan)])
    labels = np.concatenate([local.labels, np.full(reserved, -1)])
    assert attacks.backdoor_poison(features, labels, n, cfg) is None
    # the clean rows keep their bytes
    assert features[:n].tobytes() == local.features.tobytes()
    assert labels[:n].tobytes() == local.labels.tobytes()
    return local, features, labels


def test_backdoor_poison_counts_and_labels():
    cfg = AttackConfig(kind="backdoor", bd_trigger_period=20, bd_target_class=2,
                       bd_replication_fraction=10 / 80)
    _, features, labels = _poisoned(cfg)
    assert len(features) == len(labels) == 90
    assert np.all(labels[80:] == 2)


def test_backdoor_poison_trigger_zeroes():
    cfg = AttackConfig(kind="backdoor", bd_trigger_period=20, bd_target_class=0,
                       bd_replication_fraction=0.25)
    local, features, _ = _poisoned(cfg, dim=45)
    replica_feats = features[80:]
    assert replica_feats.shape == (20, 45)
    assert np.all(replica_feats[:, [0, 20, 40]] == 0.0)
    # the replicas are the first 20 clean rows with the trigger applied
    assert replica_feats.tobytes() == attacks.apply_trigger(
        local.features[:20], 20).tobytes()
    assert np.array_equal(replica_feats[:, 1], local.features[:20, 1])


def test_backdoor_replica_count_rounds_half_to_even():
    # at fraction 0.25, 6, 10, 11 and 14 clean rows give 1.5, 2.5, 2.75
    # and 3.5 replicas. Half to even takes them to 2, 2, 3 and 4; floor
    # would give 1, 2, 2 and 3, and half up 2, 3, 3 and 4
    cfg = AttackConfig(kind="backdoor", bd_replication_fraction=0.25)
    assert [attacks.backdoor_replica_count(n, cfg) for n in (6, 10, 11, 14)] == [
        2, 2, 3, 4]


def test_backdoor_update_scaling():
    u = np.array([1.0, 0.0])
    assert np.array_equal(
        attacks.backdoor_update(u, AttackConfig(kind="backdoor", bd_scale_factor=1.0)), u)
    assert np.array_equal(
        attacks.backdoor_update(u, AttackConfig(kind="backdoor", bd_scale_factor=5.0)),
        np.array([5.0, 0.0]))
    v = np.array([0.3, -0.4])
    out = attacks.backdoor_update(v, AttackConfig(kind="backdoor", bd_scale_factor=3.0))
    assert vecmath.l2norm(out) == pytest.approx(3.0 * vecmath.l2norm(v))


def test_adaptive_feasibility_and_maximality():
    rng = np.random.default_rng(97)
    checked_boundary = 0
    for _ in range(50):
        dim = 6
        g_s = rng.normal(size=dim)
        g_bar = rng.normal(size=dim)
        lam = float(rng.uniform(0.2, 3.0))
        crafted = attacks.adaptive_update(g_bar, g_s, lam)
        norm_gs = vecmath.l2norm(g_s)
        if vecmath.l2norm(g_bar - g_s) > lam * norm_gs:
            assert np.array_equal(crafted, g_bar)
            continue
        assert vecmath.l2norm(crafted - g_s) <= lam * norm_gs + 1e-9
        s = g_bar / vecmath.l2norm(g_bar)
        gamma = float(np.dot(g_bar - crafted, s))
        if 0 < gamma < 10.0 * norm_gs - 1e-9:
            probe = crafted - (norm_gs * 1e-3) * s
            assert vecmath.l2norm(probe - g_s) > lam * norm_gs
            checked_boundary += 1
    assert checked_boundary > 10


@st.composite
def _knowledge(draw):
    dim = draw(st.integers(1, 6))
    coords = st.floats(-100.0, 100.0, allow_subnormal=False)
    g_bar = draw(arrays(np.float64, dim, elements=coords))
    g_s = draw(arrays(np.float64, dim, elements=coords))
    assume(vecmath.l2norm(g_bar) > 1e-3 and vecmath.l2norm(g_s) > 1e-3)
    # lambda above 5 lets the cap 10 * ||g_s|| bind (gamma <= 2 * lambda * ||g_s||)
    return g_bar, g_s, draw(st.floats(0.05, 8.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_knowledge())
def test_adaptive_is_the_farthest_point_in_the_ball(know):
    g_bar, g_s, lam = know
    crafted = attacks.adaptive_update(g_bar, g_s, lam)
    r = lam * vecmath.l2norm(g_s)
    if vecmath.l2norm(g_bar - g_s) > r:
        # even gamma = 0 is infeasible: the benign mean goes out unchanged
        assert np.array_equal(crafted, g_bar)
        return
    s = g_bar / vecmath.l2norm(g_bar)
    assert vecmath.l2norm(crafted - g_s) <= r * (1 + 1e-12)
    gamma = float(np.dot(g_bar - crafted, s))
    cap = 10.0 * vecmath.l2norm(g_s)
    assert -1e-12 * r <= gamma <= cap * (1 + 1e-12)
    further = crafted - (1e-6 * r) * s
    assert gamma == pytest.approx(cap, rel=1e-12) or vecmath.l2norm(further - g_s) > r


def test_adaptive_rejects_zero_knowledge():
    # without the shape check, (3,) against (1,) broadcasts to a crafted update
    for g_bar, g_s, message in (
            (np.zeros(2), np.ones(2), "nonzero knowledge vectors"),
            (np.ones(3), np.ones(1), "must share dimension")):
        with pytest.raises(ValueError, match=message):
            attacks.adaptive_update(g_bar, g_s, 1.0)


def test_attack_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(kind="bogus")
    with pytest.raises(ValueError):
        AttackConfig(gd_scale=1.0)
    with pytest.raises(ValueError):
        AttackConfig(gauss_sigma=-1.0)
    with pytest.raises(ValueError):
        AttackConfig(bd_replication_fraction=0.0)
    with pytest.raises(ValueError):
        AttackConfig(bd_scale_factor=0.5)
