import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from aflbench import data


def test_synthetic_regression_shapes():
    ds, theta_star = data.gen_synthetic_regression(7, 10_000, 100)
    assert len(ds) == 10_000
    assert ds.dim == 100
    assert theta_star.shape == (100,)
    assert ds.num_classes is None


def test_synthetic_regression_deterministic():
    a, ta = data.gen_synthetic_regression(3, 500, 20)
    b, tb = data.gen_synthetic_regression(3, 500, 20)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(ta, tb)


def test_synthetic_regression_feature_means_small():
    ds, _ = data.gen_synthetic_regression(11, 10_000, 100)
    assert np.all(np.abs(ds.features.mean(axis=0)) <= 0.05)


def test_synthetic_regression_label_construction():
    ds, theta_star = data.gen_synthetic_regression(13, 2_000, 30)
    residuals = ds.labels - ds.features @ theta_star
    # residuals are the unit-variance label noise
    assert abs(residuals.std() - 1.0) < 0.1
    # theta* entries drawn with standard deviation 5
    assert abs(theta_star.std() - 5.0) < 1.5


def test_synthetic_classification_balanced():
    ds, means = data.gen_synthetic_classification(5, 600, 10, 6)
    assert ds.num_classes == 6
    counts = np.bincount(ds.labels, minlength=6)
    assert counts.max() - counts.min() <= 1
    assert means.shape == (6, 10)


def test_layout_places_each_generated_row():
    def reverse(n, labels, num_classes):
        return np.arange(n)[::-1]

    for gen in (lambda layout: data.gen_synthetic_regression(3, 9, 2, layout),
                lambda layout: data.gen_synthetic_classification(3, 9, 2, 3,
                                                                 layout=layout)):
        plain, flipped = gen(None)[0], gen(reverse)[0]
        assert np.array_equal(flipped.features, plain.features[::-1])
        assert np.array_equal(flipped.labels, plain.labels[::-1])
        # negative entries reserve zero rows; a loaded set arranges the same
        order = np.insert(np.arange(9)[::-1], [3, 6], -1)
        for reserved in (gen(lambda n, labels, c: order)[0],
                         plain.arranged(lambda n, labels, c: order)):
            assert len(reserved) == 11
            for arr, want in ((reserved.features, flipped.features),
                              (reserved.labels, flipped.labels)):
                assert arr[order >= 0].tobytes() == want.tobytes()
                assert not arr[order < 0].any()
        for bad in (np.zeros(9, dtype=int), np.arange(8), np.full(9, -1)):
            with pytest.raises(ValueError, match="exactly once"):
                gen(lambda n, labels, c: bad)


def test_row_blocks_cover_the_rows_and_leave_no_single_row():
    # a 1-row X @ theta* can differ in the last bit from the full product
    for n in (1, 2, data.GEN_BLOCK_ROWS, data.GEN_BLOCK_ROWS + 1,
              2 * data.GEN_BLOCK_ROWS + 1, 10_000):
        blocks = data._row_blocks(n)
        assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
        assert blocks[-1][1] == n
        assert all(hi - lo > 1 for lo, hi in blocks) or n == 1


def test_split_sizes_and_disjointness():
    train, test = data.split_train_test(10_000, 8_000, 17)
    assert len(train) == 8_000 and len(test) == 2_000
    joined = np.concatenate([train, test])
    assert np.array_equal(np.sort(joined), np.arange(10_000))


def test_split_determinism_and_edge():
    a1, b1 = data.split_train_test(50, 49, 1)
    assert len(b1) == 1
    a2, b2 = data.split_train_test(50, 49, 1)
    assert np.array_equal(a1, a2)
    a3, _ = data.split_train_test(50, 49, 2)
    assert not np.array_equal(a1, a3)
    with pytest.raises(ValueError):
        data.split_train_test(50, 50, 1)


def test_partition_iid_sizes():
    parts = data.partition(8_000, 100, "iid", 0.5, 23)
    assert len(parts) == 100
    assert all(len(p) == 80 for p in parts)


def test_partition_disjoint_and_exhaustive():
    ds = data.gen_synthetic_classification(29, 1_000, 4, 5)[0]
    for n, mode, q in ((7, "iid", 0.5), (10, "noniid", 0.5), (10, "noniid", 1.0)):
        parts = data.partition(len(ds), n, mode, q, 31, ds.labels, 5)
        assert all(np.array_equal(p, np.sort(p)) for p in parts)
        assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(len(ds)))


def test_partition_noniid_uniform_at_q_equals_one_over_c():
    c = 5
    ds = data.gen_synthetic_classification(37, 10_000, 3, c)[0]
    parts = data.partition(len(ds), c, "noniid", 1.0 / c, 37, ds.labels, c)
    # with q = 1/C group membership is uniform; chi-square should not reject
    group_counts = [len(p) for p in parts]
    _, p_value = stats.chisquare(group_counts)
    assert p_value > 0.01


def test_partition_noniid_own_group_share_matches_degree():
    # each example goes to its own label's group with probability q: per
    # class, the own-group share lies within 3 standard errors of q
    c, num_clients = 5, 10
    ds = data.gen_synthetic_classification(19, 10_000, 2, c)[0]
    group_of = np.repeat(np.arange(c), num_clients // c)
    for q in (0.2, 0.5, 0.9):
        parts = data.partition(len(ds), num_clients, "noniid", q, 19, ds.labels, c)
        client = np.empty(len(ds), dtype=int)
        for cid, rows in enumerate(parts):
            client[rows] = cid
        for label in range(c):
            mine = ds.labels == label
            share = np.mean(group_of[client[mine]] == label)
            se = np.sqrt(q * (1 - q) / mine.sum())
            assert abs(share - q) <= 3 * se, (q, label, share)


def test_partition_noniid_degenerate_q_one():
    c = 4
    ds = data.gen_synthetic_classification(41, 400, 3, c)[0]
    parts = data.partition(len(ds), 8, "noniid", 1.0, 41, ds.labels, c)
    groups = np.array_split(np.arange(8), c)
    for g, members in enumerate(groups):
        for cid in members:
            assert np.all(ds.labels[parts[cid]] == g)


def test_partition_noniid_rejects_regression():
    with pytest.raises(ValueError, match="requires classification data"):
        data.partition(100, 4, "noniid", 0.5, 43)


def test_trusted_classification_shift_counts():
    c = 10
    ds = data.gen_synthetic_classification(47, 5_000, 4, c)[0]
    trusted = data.sample_trusted(len(ds), 100, 1.0 / c, 47, ds.labels)
    assert len(np.unique(trusted)) == 100
    assert np.sum(ds.labels[trusted] == 0) == 10
    full_shift = data.sample_trusted(len(ds), 100, 1.0, 47, ds.labels)
    assert np.all(ds.labels[full_shift] == 0)


def test_trusted_regression_ignores_shift():
    a = data.sample_trusted(400, 100, 0.0, 53)
    b = data.sample_trusted(400, 100, 1.0, 53)
    assert len(np.unique(a)) == 100
    assert np.array_equal(a, b)


def test_trusted_insufficient_class_examples():
    with pytest.raises(ValueError, match="need 4 class-0 examples, have 1"):
        data.sample_trusted(5, 4, 1.0, 1, np.array([0, 1, 1, 1, 1]))


def test_minibatch_contract():
    ds, _ = data.gen_synthetic_regression(59, 40, 3)
    rng = np.random.default_rng(0)
    whole = data.minibatch(np.array([len(ds)]), 40, rng)[0]
    assert np.array_equal(np.sort(ds.labels[whole]), np.sort(ds.labels))
    sizes = np.array([40, 17, 16])
    b1 = data.minibatch(sizes, 16, np.random.default_rng(5))
    b2 = data.minibatch(sizes, 16, np.random.default_rng(5))
    assert np.array_equal(b1, b2)
    assert b1.shape == (3, 16)
    with pytest.raises(ValueError):
        data.minibatch(np.array([len(ds)]), 41, rng)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sizes=st.lists(st.integers(1, 60), min_size=1, max_size=25),
       draw=st.data(), seed=st.integers(0, 2**32 - 1))
def test_minibatch_rows_are_distinct_indices_within_each_set(sizes, draw, seed):
    smallest = min(sizes)
    batch = draw.draw(st.integers(1, smallest), label="batch_size")
    plan = data.minibatch(np.array(sizes), batch, np.random.default_rng(seed))
    assert plan.shape == (len(sizes), batch)
    for size, row in zip(sizes, plan.tolist()):
        assert len(set(row)) == batch
        assert all(0 <= i < size for i in row)
        if batch == size:
            assert sorted(row) == list(range(size))
    for bad in (0, smallest + 1):
        with pytest.raises(ValueError, match="batch_size must lie in"):
            data.minibatch(np.array(sizes), bad, np.random.default_rng(seed))


def _reference_minibatch(sizes, batch_size, rng):
    """The plan as first written: step j compares a len(sizes) x j block of
    the filled columns with the draw and reduces it along the short axis."""
    sizes = np.asarray(sizes, dtype=np.int64)
    rows = np.empty((len(sizes), batch_size), dtype=np.int64)
    for j in range(batch_size):
        top = sizes - (batch_size - j)
        pick = rng.integers(0, top + 1)
        taken = (rows[:, :j] == pick[:, None]).any(axis=1)
        rows[:, j] = np.where(taken, top, pick)
    return rows


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sizes=st.lists(st.integers(1, 60), min_size=1, max_size=40),
       batch=st.sampled_from(["one", "half", "smallest"]),
       seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 4))
@example(sizes=[3, 3, 50, 7], batch="smallest", seed=1, trials=3)
def test_minibatch_is_the_block_compare_plan(sizes, batch, seed, trials):
    # the column-at-a-time draw gives the reference's plan bit for bit,
    # also into a strided column of a T x K x B plan, as the engine draws;
    # a batch as large as the smallest set makes that set's row a permutation
    smallest = min(sizes)
    batch = {"one": 1, "half": (smallest + 1) // 2, "smallest": smallest}[batch]
    want = _reference_minibatch(sizes, batch, np.random.default_rng(seed))
    assert data.minibatch(np.array(sizes), batch,
                          np.random.default_rng(seed)).tobytes() == want.tobytes()
    plan = np.full((len(sizes), trials, batch), -1, dtype=np.intp)
    k = trials - 1
    got = data.minibatch(np.array(sizes), batch, np.random.default_rng(seed),
                         plan[:, k])
    assert got.base is not None and np.shares_memory(got, plan)
    assert plan[:, k].tobytes() == want.tobytes()
    # the other columns are untouched
    assert np.all(np.delete(plan, k, axis=1) == -1)


def test_minibatch_includes_each_index_uniformly():
    # a uniform batch_size-subset of [0, n) holds each index with
    # probability B / n; 20,000 rows put every frequency within 4 standard
    # errors of it. Sizes 79 and 80 are the benchmark's client sets.
    rows = 20_000
    for size, batch in ((80, 16), (79, 16), (20, 16), (5, 1)):
        plan = data.minibatch(np.full(rows, size), batch, np.random.default_rng(11))
        freq = np.bincount(plan.ravel(), minlength=size + 1) / rows
        p = batch / size
        tolerance = 4 * np.sqrt(p * (1 - p) / rows)
        assert freq[size] == 0
        assert np.all(np.abs(freq[:size] - p) <= tolerance), (size, batch)


def test_csv_round_trip(tmp_path):
    ds, _ = data.gen_synthetic_regression(61, 25, 4)
    path = tmp_path / "reg.csv"
    data.save_csv(ds, path)
    loaded = data.load_csv(path)
    assert loaded.num_classes is None
    assert np.allclose(loaded.features, ds.features, atol=1e-9)
    assert np.allclose(loaded.labels, ds.labels, atol=1e-9)


def test_csv_round_trip_classification(tmp_path):
    ds = data.gen_synthetic_classification(67, 30, 3, 6)[0]
    path = tmp_path / "cls.csv"
    data.save_csv(ds, path)
    loaded = data.load_csv(path)
    assert loaded.num_classes == 6
    assert np.array_equal(loaded.labels, ds.labels)


def test_csv_well_formed_small(tmp_path):
    path = tmp_path / "ok.csv"
    path.write_text("# kind=regression\n1.0,2.0,3.5\n0.5,-1.0,2.0\n4.0,0.0,-1.0\n")
    ds = data.load_csv(path)
    assert len(ds) == 3
    assert ds.dim == 2


def test_csv_wrong_width_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    for rows, message in (("1.0,2.0,3.0\n1.0,2.0\n", ":3"),
                          ("1.0\n2.0\n", r"bad\.csv:2: need at least one feature and a label")):
        path.write_text(f"# kind=regression\n{rows}")
        with pytest.raises(ValueError, match=message):
            data.load_csv(path)


def test_csv_non_finite_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    for row in ("nan,2.0,3.0", "1.0,2.0,inf"):
        path.write_text(f"# kind=regression\n1.0,2.0,3.0\n{row}\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3: value is NaN or Inf"):
            data.load_csv(path)


def test_csv_load_peak_memory_is_near_the_feature_bytes(tmp_path):
    # one numpy parse measured 1.36x here; the row-by-row parse it
    # replaced held Python lists of floats and peaked at 5.8x
    ds, _ = data.gen_synthetic_regression(7, 2_500, 20)
    path = tmp_path / "pool.csv"
    data.save_csv(ds, path)
    tracemalloc.start()
    try:
        data.load_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    feature_bytes = ds.features.nbytes
    assert peak <= 1.55 * feature_bytes, peak / feature_bytes


def test_csv_bad_header(tmp_path):
    path = tmp_path / "hdr.csv"
    for text, message in (
            ("1.0,2.0\n", "missing '# kind=...' header line"),
            ("# kind=classification\n1.0,0\n", "classification header missing classes="),
            ("# classes=2\n1.0,0\n",
             "header must declare kind=regression or kind=classification"),
            ("# kind=ranking\n1.0,0\n",
             "header must declare kind=regression or kind=classification"),
            ("# kind=regression\n\n", "no data rows")):
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            data.load_csv(path)
    for classes in ("x", "2.5", ""):
        path.write_text(f"# kind=classification classes={classes}\n1.0,0\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: classes must be an integer, got {classes!r}")):
            data.load_csv(path)


def test_dataset_validation():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="features contain NaN or Inf"):
            data.Dataset(np.array([[bad, 1.0]]), np.array([0.0]))
        with pytest.raises(ValueError, match="labels contain NaN or Inf"):
            data.Dataset(np.ones((2, 2)), np.array([0.0, bad]))
    for label in (-1, 2, 3):
        with pytest.raises(ValueError, match="class label out of range"):
            data.Dataset(np.ones((2, 2)), np.array([0, label]), 2)
    for classes in (1, 0):
        with pytest.raises(ValueError, match="need num_classes >= 2"):
            data.Dataset(np.ones((2, 2)), np.array([0, 0]), classes)


def test_subset_is_a_read_only_copy_equal_to_a_checked_dataset():
    reg, _ = data.gen_synthetic_regression(3, 30, 4)
    cls, _ = data.gen_synthetic_classification(3, 30, 4, 3)
    idx = np.array([7, 0, 29, 7, 12])
    for ds in (reg, cls):
        sub = ds.subset(idx)
        expected = data.Dataset(ds.features[idx], ds.labels[idx], ds.num_classes)
        assert sub.num_classes == expected.num_classes
        for got, want in ((sub.features, expected.features),
                          (sub.labels, expected.labels)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert not got.flags.writeable
            assert not np.shares_memory(got, ds.features)
            assert not np.shares_memory(got, ds.labels)
            with pytest.raises(ValueError):
                got[0] = 0
        # a batch gathered from a plan row is a copy: writing to it
        # cannot reach the read-only set
        rows = data.minibatch(np.array([len(ds)]), 8, np.random.default_rng(1))[0]
        for arr in (ds.features, ds.labels):
            assert not arr.flags.writeable
            assert not np.shares_memory(arr[rows], arr)
