"""Dataset generation, ingestion, partitioning, and sampling.

The synthetic regression benchmark draws features and label noise from
standard normals and true-model entries with standard deviation 5, then
labels y = <u, theta*> + e. Classification data is a Gaussian mixture with
one spherical component per class.

The generators draw their rows in blocks and write each block straight to
its place in a caller's row order, the ``layout``: a callable taking
(num_examples, class labels or None, num_classes or None) and returning
an int array ``order`` with one entry per row of the result. Position i
holds generated row ``order[i]``, or, where ``order[i]`` is negative, a
reserved row of zero features and label 0 for the caller to fill; every
generated row appears exactly once. ``Dataset.arranged`` puts a loaded
set's rows in a layout's order the same way. Class labels are drawn
before the features, so a classification layout can depend on them; a
regression layout cannot. Without a layout, rows come in generation order
and none is reserved. The generators' sizes and class spread are checked
once, by ``config.TaskConfig``. ``split_train_test``, ``partition`` and
``sample_trusted`` work on row indices, so a layout can be planned from
them before any row exists.

A ``Dataset`` names its model family by ``num_classes`` alone: None for
regression, with real labels, or the class count C for classification,
with integer labels in [0, C). CSV files are self-describing: the first
line is either ``# kind=regression`` or ``# kind=classification
classes=C``, the one place the family is spelt as a word, and each
following row is comma-separated features with the label in the last
column.
"""
from __future__ import annotations

import math
import warnings
from typing import Callable, List, Optional, Tuple

import numpy as np

# the CSV header's kind tokens
REGRESSION = "regression"
CLASSIFICATION = "classification"

THETA_STAR_STD = 5.0  # N(0, 25) read as variance 25

# Rows the generators draw per block. A multiple of 4, so that each block's
# X @ theta* takes the BLAS path the full-height product takes (checked bit
# for bit by scripts/golden_outputs.py at the shipped sizes).
GEN_BLOCK_ROWS = 512

Layout = Callable[[int, Optional[np.ndarray], Optional[int]], np.ndarray]


class Dataset:
    """Immutable collection of examples of the model family its
    ``num_classes`` names (module docstring)."""

    def __init__(self, features: np.ndarray, labels: np.ndarray,
                 num_classes: int | None = None):
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] == 0:
            raise ValueError("features must be a (n, d) array with d >= 1")
        # a finite sum has only finite terms, and takes no n x d temporary;
        # a sum that overflows is checked entry by entry
        with np.errstate(over="ignore", invalid="ignore"):
            total = features.sum()
        if not math.isfinite(total) and not np.all(np.isfinite(features)):
            raise ValueError("features contain NaN or Inf")
        if len(labels) != features.shape[0]:
            raise ValueError("label count does not match example count")
        if num_classes is None:
            labels = np.asarray(labels, dtype=np.float64)
            if not np.all(np.isfinite(labels)):
                raise ValueError("labels contain NaN or Inf")
        else:
            labels = np.asarray(labels)
            if not np.all(labels == labels.astype(int)):
                raise ValueError("classification labels must be integers")
            labels = labels.astype(np.int64, copy=False)
            if num_classes < 2:
                raise ValueError("classification datasets need num_classes >= 2")
            if len(labels) and (labels.min() < 0 or labels.max() >= num_classes):
                raise ValueError("class label out of range")
        self._freeze(features, labels, num_classes)

    def _freeze(self, features: np.ndarray, labels: np.ndarray,
                num_classes: int | None) -> None:
        features.setflags(write=False)
        labels.setflags(write=False)
        self.features = features
        self.labels = labels
        self.num_classes = num_classes

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        """The rows at ``indices``: a slice gives a read-only view of this
        set's arrays, an index array a copy. Rows of a checked set pass every
        constructor check, so they are not scanned again."""
        return self._like(self.features[indices], self.labels[indices])

    def arranged(self, layout: "Layout") -> "Dataset":
        """This set's rows in ``layout`` order, reserved rows zero (module
        docstring): one copy, not scanned again."""
        positions, size = _positions(
            layout, len(self), None if self.num_classes is None else self.labels,
            self.num_classes)
        features = np.zeros((size, self.dim))
        labels = np.zeros(size, dtype=self.labels.dtype)
        features[positions], labels[positions] = self.features, self.labels
        return self._like(features, labels)

    def _like(self, features: np.ndarray, labels: np.ndarray) -> "Dataset":
        """A set of this one's family over rows that pass its checks."""
        out = Dataset.__new__(Dataset)
        out._freeze(features, labels, self.num_classes)
        return out


def _row_blocks(num_samples: int) -> List[Tuple[int, int]]:
    """[lo, hi) blocks of GEN_BLOCK_ROWS generated rows. A 1-row tail joins
    the block before it: a 1-row product takes another BLAS path, which can
    change the last bit of a label."""
    bounds = list(range(0, num_samples, GEN_BLOCK_ROWS)) + [num_samples]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def _positions(layout: Optional[Layout], num_samples: int,
               labels: Optional[np.ndarray] = None,
               num_classes: Optional[int] = None) -> Tuple[np.ndarray, int]:
    """Where each generated row goes, the inverse of the layout's order,
    and the number of rows the layout holds, reserved ones included."""
    if layout is None:
        return np.arange(num_samples), num_samples
    order = layout(num_samples, labels, num_classes)
    placed = np.flatnonzero(order >= 0)
    positions = np.full(num_samples, -1)
    if len(placed) == num_samples:
        positions[order[placed]] = placed
    if np.any(positions < 0):
        raise ValueError("a layout must place every generated row exactly once")
    return positions, len(order)


def gen_synthetic_regression(seed: int, num_samples: int, dim: int,
                             layout: Optional[Layout] = None):
    """Generate the linear-regression benchmark; returns (Dataset, theta_star).

    The labels' X @ theta* is computed block by block in generation order,
    before the label noise is drawn, so every layout gives the same rows.
    """
    rng = np.random.default_rng(seed)
    theta_star = rng.normal(0.0, THETA_STAR_STD, dim)
    positions, size = _positions(layout, num_samples)
    features = np.zeros((size, dim))
    signal = np.empty(num_samples)
    for lo, hi in _row_blocks(num_samples):
        block = rng.standard_normal((hi - lo, dim))
        signal[lo:hi] = block @ theta_star
        features[positions[lo:hi]] = block
    labels = np.zeros(size)
    labels[positions] = signal + rng.standard_normal(num_samples)
    return Dataset(features, labels), theta_star


def gen_synthetic_classification(seed: int, num_samples: int, dim: int,
                                 num_classes: int, class_spread: float = 1.0,
                                 feature_offset: float = 0.0,
                                 layout: Optional[Layout] = None):
    """Gaussian-mixture classification data; returns (Dataset, class_means).

    Each class has a spherical unit-variance component centered at a mean
    drawn from N(feature_offset, class_spread^2 I). A nonzero offset makes
    exact-zero feature values atypical, the regime feature-zeroing triggers
    assume. Labels are assigned round-robin so classes are balanced to
    within one example; they are shuffled before any feature is drawn.
    """
    rng = np.random.default_rng(seed)
    means = feature_offset + rng.normal(0.0, class_spread, (num_classes, dim))
    drawn = np.arange(num_samples) % num_classes
    rng.shuffle(drawn)
    positions, size = _positions(layout, num_samples, drawn, num_classes)
    features = np.zeros((size, dim))
    for lo, hi in _row_blocks(num_samples):
        block = rng.standard_normal((hi - lo, dim))
        block += means[drawn[lo:hi]]
        features[positions[lo:hi]] = block
    labels = np.zeros(size, dtype=drawn.dtype)
    labels[positions] = drawn
    return Dataset(features, labels, num_classes), means


def split_train_test(num_examples: int, train_count: int, seed: int):
    """Disjoint seeded random split of rows 0 .. num_examples - 1; returns
    the (train, test) row indices."""
    if not (0 < train_count < num_examples):
        raise ValueError(f"train_count must lie in (0, {num_examples})")
    order = np.random.default_rng(seed).permutation(num_examples)
    return order[:train_count], order[train_count:]


def partition(num_examples: int, num_clients: int, mode: str,
              noniid_degree: float, seed: int,
              labels: Optional[np.ndarray] = None,
              num_classes: Optional[int] = None) -> List[np.ndarray]:
    """Assign each of num_examples rows to exactly one of num_clients
    clients; returns every client's rows as sorted indices.

    mode "iid": shuffle and deal round-robin, client sizes differ by at most
    one; noniid_degree is unused. mode "noniid" needs the rows' class
    ``labels`` and ``num_classes`` C: clients are split into C label groups;
    an example with label c lands on a uniform client of group c with
    probability noniid_degree, otherwise on a uniform client of a uniform
    other group. Each of the three choices is one vectorised draw over all
    rows. ``DataConfig`` and ``ClientConfig`` check mode and
    num_clients; noniid_degree in [1/C, 1] is checked here, where C is known.
    """
    rng = np.random.default_rng(seed)
    if mode == "iid":
        order = rng.permutation(num_examples)
        return [np.sort(order[k::num_clients]) for k in range(num_clients)]

    if labels is None:
        raise ValueError("noniid partitioning requires classification data")
    c = num_classes
    if not (1.0 / c <= noniid_degree <= 1.0):
        raise ValueError(f"noniid_degree must lie in [1/C, 1] = [{1.0 / c:.4f}, 1]")
    groups = np.array_split(np.arange(num_clients), c)
    if any(len(g) == 0 for g in groups):
        raise ValueError("more label groups than clients")
    group_start = np.array([g[0] for g in groups])
    group_size = np.array([len(g) for g in groups])
    own = np.asarray(labels, dtype=np.int64)
    other = rng.integers(c - 1, size=num_examples)
    other += other >= own
    group = np.where(rng.random(num_examples) < noniid_degree, own, other)
    client = group_start[group] + rng.integers(0, group_size[group])
    # the rows by client, in increasing order within a client (client * n
    # + row is distinct, so one plain sort, not a stable argsort)
    order = np.sort(client * num_examples + np.arange(num_examples)) % num_examples
    bounds = np.cumsum(np.bincount(client, minlength=num_clients))[:-1]
    return np.split(order, bounds)


def sample_trusted(num_examples: int, size: int, distribution_shift: float,
                   seed: int, labels: Optional[np.ndarray] = None) -> np.ndarray:
    """Pick the server's trusted set of ``size`` rows from a pool of
    num_examples; returns their sorted indices.

    With class ``labels``: round(distribution_shift * size) examples come
    uniformly from class 0, the remainder uniformly from the other classes,
    all without replacement. Without (regression): uniform subsample,
    distribution_shift ignored. ``DataConfig`` checks size >= 1 and
    distribution_shift in [0, 1].
    """
    if size > num_examples:
        raise ValueError("trusted set larger than source dataset")
    rng = np.random.default_rng(seed)
    if labels is None:
        return np.sort(rng.choice(num_examples, size=size, replace=False))
    num_shifted = int(round(distribution_shift * size))
    class0 = np.flatnonzero(labels == 0)
    others = np.flatnonzero(labels != 0)
    if len(class0) < num_shifted:
        raise ValueError(f"need {num_shifted} class-0 examples, have {len(class0)}")
    if len(others) < size - num_shifted:
        raise ValueError("not enough non-class-0 examples for the trusted set")
    take0 = rng.choice(class0, size=num_shifted, replace=False)
    take_rest = rng.choice(others, size=size - num_shifted, replace=False)
    return np.sort(np.concatenate([take0, take_rest]))


def minibatch(sizes: np.ndarray, batch_size: int, rng: np.random.Generator,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """A minibatch plan: for each set size n in ``sizes``, ``batch_size``
    distinct row indices drawn uniformly from [0, n); returns them as a
    len(sizes) x batch_size array, one plan row per size, written into
    ``out`` when given.

    Floyd's algorithm for a random sample (Bentley and Floyd, "A sample of
    brilliance", CACM 1987), vectorised over the plan rows: step j = 0, ...,
    batch_size - 1 draws t uniformly from [0, m] with m = n - batch_size + j
    in every row and keeps t, or m where t is already in the row. Each row
    is then a uniform batch_size-subset of [0, n); with batch_size = n it is
    a permutation. The steps fill a batch_size x len(sizes) scratch of the
    plan's size one contiguous row at a time, so step j tests the rows
    filled so far with one compare and one reduce; its bool block is at
    most batch_size x len(sizes) bytes, 1/8 of the plan. The scratch is
    then written, as its transpose, into the plan.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if not (1 <= batch_size <= sizes.min()):
        raise ValueError(f"batch_size must lie in [1, {sizes.min()}]")
    rows = np.empty((len(sizes), batch_size), dtype=np.int64) if out is None else out
    cols = np.empty((batch_size, len(sizes)), dtype=np.int64)
    for j in range(batch_size):
        top = sizes - (batch_size - j)
        pick = rng.integers(0, top + 1)
        taken = (cols[:j] == pick).any(axis=0)
        cols[j] = np.where(taken, top, pick)
    rows[...] = cols.T
    return rows


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset in the self-describing CSV format."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if ds.num_classes is None:
            fh.write(f"# kind={REGRESSION}\n")
        else:
            fh.write(f"# kind={CLASSIFICATION} classes={ds.num_classes}\n")
        for i in range(len(ds)):
            row = [repr(float(v)) for v in ds.features[i]]
            if ds.num_classes is not None:
                row.append(str(int(ds.labels[i])))
            else:
                row.append(repr(float(ds.labels[i])))
            fh.write(",".join(row) + "\n")


def _parse_header(line: str, path) -> int | None:
    """The class count a header line declares: None for regression."""
    tokens = line.lstrip("#").split()
    fields = dict(tok.split("=", 1) for tok in tokens if "=" in tok)
    kind = fields.get("kind")
    if kind == REGRESSION:
        return None
    if kind == CLASSIFICATION:
        if "classes" not in fields:
            raise ValueError(f"{path}: classification header missing classes=")
        try:
            return int(fields["classes"])
        except ValueError:
            raise ValueError(f"{path}: classes must be an integer, "
                             f"got {fields['classes']!r}") from None
    raise ValueError(f"{path}: header must declare kind=regression or kind=classification")


def load_csv(path) -> Dataset:
    """Parse a dataset file: the header, then every row in one
    ``np.loadtxt`` call. If the rows do not form a dataset, the file is read
    again line by line to name the first malformed row."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise ValueError(f"{path}: missing '# kind=...' header line")
        num_classes = _parse_header(header, path)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a file with no rows
                rows = np.loadtxt((line for line in fh if line.strip()),
                                  delimiter=",", comments="#", ndmin=2)
            return Dataset(rows[:, :-1], rows[:, -1], num_classes)
        except ValueError as exc:
            raise _row_error(path, exc) from None


def _row_error(path, exc: ValueError) -> ValueError:
    """The error of the first malformed data row of a file, with its line
    number, found by reading the file line by line; ``exc`` names the fault
    when every row is well formed."""
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(",")
            width = width or len(parts)
            if width < 2:
                return ValueError(f"{path}:{lineno}: need at least one feature and a label")
            if len(parts) != width:
                return ValueError(
                    f"{path}:{lineno}: expected {width} columns, found {len(parts)}")
            try:
                values = [float(p) for p in parts]
            except ValueError as err:
                return ValueError(f"{path}:{lineno}: {err}")
            if not np.all(np.isfinite(values)):
                return ValueError(f"{path}:{lineno}: value is NaN or Inf")
    if width is None:
        return ValueError(f"{path}: no data rows")
    return ValueError(f"{path}: {exc}")
