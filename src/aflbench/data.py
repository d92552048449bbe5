"""Dataset generation, ingestion, partitioning, and sampling.

The synthetic regression benchmark draws features and label noise from
standard normals and true-model entries with standard deviation 5, then
labels y = <u, theta*> + e. Classification data is a Gaussian mixture with
one spherical component per class.

CSV files are self-describing: the first line is either
``# kind=regression`` or ``# kind=classification classes=C``, each following
row is comma-separated features with the label in the last column.
"""
from __future__ import annotations

from typing import List

import numpy as np

REGRESSION = "regression"
CLASSIFICATION = "classification"

# Appendix-standard synthetic regression sizes.
DEFAULT_NUM_SAMPLES = 10_000
DEFAULT_DIM = 100
THETA_STAR_STD = 5.0  # N(0, 25) read as variance 25


class Dataset:
    """Immutable collection of examples with homogeneous label kind."""

    def __init__(self, features: np.ndarray, labels: np.ndarray, kind: str,
                 num_classes: int | None = None):
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be a (n, d) array")
        if not np.all(np.isfinite(features)):
            raise ValueError("features contain NaN or Inf")
        if len(labels) != features.shape[0]:
            raise ValueError("label count does not match example count")
        if kind == REGRESSION:
            labels = np.asarray(labels, dtype=np.float64)
            if not np.all(np.isfinite(labels)):
                raise ValueError("labels contain NaN or Inf")
            if num_classes is not None:
                raise ValueError("regression datasets carry no class count")
        elif kind == CLASSIFICATION:
            labels = np.asarray(labels)
            if not np.all(labels == labels.astype(int)):
                raise ValueError("classification labels must be integers")
            labels = labels.astype(np.int64)
            if num_classes is None or num_classes < 2:
                raise ValueError("classification datasets need num_classes >= 2")
            if len(labels) and (labels.min() < 0 or labels.max() >= num_classes):
                raise ValueError("class label out of range")
        else:
            raise ValueError(f"unknown dataset kind: {kind!r}")
        self._freeze(features, labels, kind, num_classes)

    def _freeze(self, features: np.ndarray, labels: np.ndarray, kind: str,
                num_classes: int | None) -> None:
        features.setflags(write=False)
        labels.setflags(write=False)
        self.features = features
        self.labels = labels
        self.kind = kind
        self.num_classes = num_classes

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        """Copy of the rows at ``indices``. Rows of a checked set pass every
        constructor check, so they are not scanned again."""
        out = Dataset.__new__(Dataset)
        out._freeze(self.features[indices], self.labels[indices], self.kind,
                    self.num_classes)
        return out


def gen_synthetic_regression(seed: int, num_samples: int = DEFAULT_NUM_SAMPLES,
                             dim: int = DEFAULT_DIM):
    """Generate the linear-regression benchmark; returns (Dataset, theta_star)."""
    if num_samples < 1 or dim < 1:
        raise ValueError("num_samples and dim must be >= 1")
    rng = np.random.default_rng(seed)
    theta_star = rng.normal(0.0, THETA_STAR_STD, dim)
    features = rng.normal(0.0, 1.0, (num_samples, dim))
    noise = rng.normal(0.0, 1.0, num_samples)
    labels = features @ theta_star + noise
    return Dataset(features, labels, REGRESSION), theta_star


def gen_synthetic_classification(seed: int, num_samples: int, dim: int,
                                 num_classes: int, class_spread: float = 1.0,
                                 feature_offset: float = 0.0):
    """Gaussian-mixture classification data; returns (Dataset, class_means).

    Each class has a spherical unit-variance component centered at a mean
    drawn from N(feature_offset, class_spread^2 I). A nonzero offset makes
    exact-zero feature values atypical, the regime feature-zeroing triggers
    assume. Labels are assigned round-robin so classes are balanced to
    within one example.
    """
    if num_samples < 1 or dim < 1 or num_classes < 2:
        raise ValueError("invalid sizes")
    rng = np.random.default_rng(seed)
    means = feature_offset + rng.normal(0.0, class_spread, (num_classes, dim))
    labels = np.arange(num_samples) % num_classes
    rng.shuffle(labels)
    features = means[labels] + rng.normal(0.0, 1.0, (num_samples, dim))
    return Dataset(features, labels, CLASSIFICATION, num_classes), means


def split_train_test(ds: Dataset, train_count: int, seed: int):
    """Disjoint seeded random split into (train, test)."""
    if not (0 < train_count < len(ds)):
        raise ValueError(f"train_count must lie in (0, {len(ds)})")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ds))
    return ds.subset(order[:train_count]), ds.subset(order[train_count:])


def partition(ds: Dataset, num_clients: int, mode: str, noniid_degree: float,
              seed: int) -> List[Dataset]:
    """Assign every training example to exactly one of num_clients clients.

    mode "iid": shuffle and deal round-robin, client sizes differ by at most
    one; noniid_degree is unused. mode "noniid" (classification only):
    clients are split into C label groups; an example with label c lands on
    a uniform client of group c with probability noniid_degree, otherwise
    on a uniform client of a uniform other group. ``DataConfig`` and
    ``ClientConfig`` check mode and num_clients; noniid_degree in [1/C, 1]
    is checked here, where C is known.
    """
    rng = np.random.default_rng(seed)
    if mode == "iid":
        order = rng.permutation(len(ds))
        buckets = [order[k::num_clients] for k in range(num_clients)]
        return [ds.subset(np.sort(b)) for b in buckets]

    if ds.kind != CLASSIFICATION:
        raise ValueError("noniid partitioning requires classification data")
    c = ds.num_classes
    if not (1.0 / c <= noniid_degree <= 1.0):
        raise ValueError(f"noniid_degree must lie in [1/C, 1] = [{1.0 / c:.4f}, 1]")
    groups = np.array_split(np.arange(num_clients), c)
    if any(len(g) == 0 for g in groups):
        raise ValueError("more label groups than clients")
    assigned: List[List[int]] = [[] for _ in range(num_clients)]
    for i in range(len(ds)):
        own = int(ds.labels[i])
        if rng.random() < noniid_degree:
            g = own
        else:
            g = int(rng.integers(c - 1))
            if g >= own:
                g += 1
        members = groups[g]
        client = int(members[rng.integers(len(members))])
        assigned[client].append(i)
    return [ds.subset(np.array(idx, dtype=int)) for idx in assigned]


def sample_trusted(ds: Dataset, size: int, distribution_shift: float,
                   seed: int) -> Dataset:
    """Draw the server's trusted dataset of ``size`` examples from a pool.

    Classification: round(distribution_shift * size) examples come uniformly
    from class 0, the remainder uniformly from the other classes, all
    without replacement. Regression: uniform subsample, distribution_shift
    ignored. ``DataConfig`` checks size >= 1 and distribution_shift in
    [0, 1].
    """
    if size > len(ds):
        raise ValueError("trusted set larger than source dataset")
    rng = np.random.default_rng(seed)
    if ds.kind == REGRESSION:
        idx = rng.choice(len(ds), size=size, replace=False)
        return ds.subset(np.sort(idx))
    num_shifted = int(round(distribution_shift * size))
    class0 = np.flatnonzero(ds.labels == 0)
    others = np.flatnonzero(ds.labels != 0)
    if len(class0) < num_shifted:
        raise ValueError(f"need {num_shifted} class-0 examples, have {len(class0)}")
    if len(others) < size - num_shifted:
        raise ValueError("not enough non-class-0 examples for the trusted set")
    take0 = rng.choice(class0, size=num_shifted, replace=False)
    take_rest = rng.choice(others, size=size - num_shifted, replace=False)
    return ds.subset(np.sort(np.concatenate([take0, take_rest])))


def minibatch(ds: Dataset, batch_size: int, rng: np.random.Generator) -> Dataset:
    """Uniform sample without replacement, consuming rng state deterministically."""
    if not (1 <= batch_size <= len(ds)):
        raise ValueError(f"batch_size must lie in [1, {len(ds)}]")
    idx = rng.choice(len(ds), size=batch_size, replace=False)
    return ds.subset(idx)


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset in the self-describing CSV format."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if ds.kind == CLASSIFICATION:
            fh.write(f"# kind=classification classes={ds.num_classes}\n")
        else:
            fh.write("# kind=regression\n")
        for i in range(len(ds)):
            row = [repr(float(v)) for v in ds.features[i]]
            if ds.kind == CLASSIFICATION:
                row.append(str(int(ds.labels[i])))
            else:
                row.append(repr(float(ds.labels[i])))
            fh.write(",".join(row) + "\n")


def _parse_header(line: str, path) -> tuple[str, int | None]:
    tokens = line.lstrip("#").split()
    fields = dict(tok.split("=", 1) for tok in tokens if "=" in tok)
    kind = fields.get("kind")
    if kind == REGRESSION:
        return REGRESSION, None
    if kind == CLASSIFICATION:
        if "classes" not in fields:
            raise ValueError(f"{path}: classification header missing classes=")
        return CLASSIFICATION, int(fields["classes"])
    raise ValueError(f"{path}: header must declare kind=regression or kind=classification")


def load_csv(path) -> Dataset:
    """Parse a dataset file; malformed rows are rejected with their line number."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise ValueError(f"{path}: missing '# kind=...' header line")
        kind, num_classes = _parse_header(header, path)
        feats: list[list[float]] = []
        labels: list[float] = []
        width = None
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if width is None:
                width = len(parts)
                if width < 2:
                    raise ValueError(f"{path}:{lineno}: need at least one feature and a label")
            elif len(parts) != width:
                raise ValueError(
                    f"{path}:{lineno}: expected {width} columns, found {len(parts)}")
            try:
                values = [float(p) for p in parts]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{path}:{lineno}: value is NaN or Inf")
            feats.append(values[:-1])
            labels.append(values[-1])
    if not feats:
        raise ValueError(f"{path}: no data rows")
    return Dataset(np.array(feats), np.array(labels), kind, num_classes)
