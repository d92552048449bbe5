"""Experiment configuration: a flat, sectioned key=value file format.

Every key is validated; unknown sections or keys are hard errors. A
section's keys and types are its dataclass's fields (``lambda`` sets
``lam``). ``ExperimentConfig`` rejects a non-finite value in any float
field, whether it came from a file, a sweep value or code. The shipped
``configs/table1_synthetic.ini`` carries the benchmark defaults (100
clients, 20% malicious, lambda 1.5, 2000 iterations, learning rate 1/1600,
batch 16, client delay cap 10, server refresh period 10, trusted set of
100).
"""
from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, Tuple, get_type_hints

from .attacks import AttackConfig
from .defenses import DEFENSE_KINDS

TASK_KINDS = ("synthetic_regression", "synthetic_classification", "csv")


@dataclass(frozen=True)
class TaskConfig:
    kind: str = "synthetic_regression"
    path: str = ""
    num_samples: int = 10_000
    dim: int = 100
    num_classes: int = 6
    class_spread: float = 1.0
    feature_offset: float = 0.0
    train_count: int = 8_000

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind: {self.kind!r}")
        if self.kind == "csv":
            # the file's rows, not num_samples, bound train_count
            # (data.split_train_test), and its columns give the dim
            if not self.path:
                raise ValueError("csv task requires a path")
        elif self.num_samples < 2:
            raise ValueError("num_samples must be >= 2")
        elif not (0 < self.train_count < self.num_samples):
            raise ValueError("train_count must lie in (0, num_samples)")
        elif self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.kind == "synthetic_classification":
            if self.num_classes < 2:
                raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
            if self.class_spread < 0:
                raise ValueError(f"class_spread must be >= 0, got {self.class_spread}")


@dataclass(frozen=True)
class ClientConfig:
    num_clients: int = 100
    malicious_fraction: float = 0.2

    def __post_init__(self):
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if not (0.0 <= self.malicious_fraction < 1.0):
            raise ValueError("malicious_fraction must lie in [0, 1)")

    @property
    def num_malicious(self) -> int:
        # rounded first, so that float noise does not drop a client:
        # 0.29 * 100 is 28.999999999999996
        return math.floor(round(self.malicious_fraction * self.num_clients, 9))

    def malicious_ids(self) -> range:
        return range(self.num_malicious)


@dataclass(frozen=True)
class DefenseConfig:
    kind: str = "aflguard"
    lam: float = 1.5
    num_buffers: int = 10

    def __post_init__(self):
        if self.kind not in DEFENSE_KINDS:
            raise ValueError(f"unknown defense kind: {self.kind!r}")
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if self.num_buffers < 1:
            raise ValueError("num_buffers must be >= 1")


@dataclass(frozen=True)
class ScheduleConfig:
    iterations: int = 2_000
    learning_rate: float = 1.0 / 1600.0
    max_client_delay: int = 10
    server_refresh_period: int = 10
    batch_size: int = 16

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.max_client_delay < 0:
            raise ValueError("max_client_delay must be >= 0")
        if self.server_refresh_period < 1:
            raise ValueError("server_refresh_period must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class DataConfig:
    partition: str = "iid"
    noniid_degree: float = 0.5
    trusted_size: int = 100
    distribution_shift: float = 0.5

    def __post_init__(self):
        if self.partition not in ("iid", "noniid"):
            raise ValueError(f"unknown partition mode: {self.partition!r}")
        if self.trusted_size < 1:
            raise ValueError("trusted_size must be >= 1")
        if not (0.0 <= self.distribution_shift <= 1.0):
            raise ValueError("distribution_shift must lie in [0, 1]")


@dataclass(frozen=True)
class SeedConfig:
    data_seed: int = 42
    run_seeds: Tuple[int, ...] = (1, 2, 3)

    def __post_init__(self):
        if self.data_seed < 0:
            raise ValueError(f"data_seed must be >= 0, got {self.data_seed}")
        if not self.run_seeds:
            raise ValueError("need at least one run seed")
        if min(self.run_seeds) < 0:
            raise ValueError(f"run seeds must be >= 0, got {min(self.run_seeds)}")
        if len(set(self.run_seeds)) != len(self.run_seeds):
            raise ValueError(f"run seeds must be distinct, got {list(self.run_seeds)}")


@dataclass(frozen=True)
class ExperimentConfig:
    task: TaskConfig = field(default_factory=TaskConfig)
    clients: ClientConfig = field(default_factory=ClientConfig)
    attack: AttackConfig = field(default_factory=AttackConfig)
    defense: DefenseConfig = field(default_factory=DefenseConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    data: DataConfig = field(default_factory=DataConfig)
    seeds: SeedConfig = field(default_factory=SeedConfig)

    def __post_init__(self):
        # NaN passes every range check of the sections, and inf most of them
        for section in dataclasses.fields(self):
            for name, value in vars(getattr(self, section.name)).items():
                if isinstance(value, float) and not math.isfinite(value):
                    key = _FILE_KEYS.get((section.name, name), name)
                    raise ValueError(f"[{section.name}] {key} must be finite, got {value!r}")


_SECTION_CLASSES = {
    "task": TaskConfig, "clients": ClientConfig, "attack": AttackConfig,
    "defense": DefenseConfig, "schedule": ScheduleConfig, "data": DataConfig,
    "seeds": SeedConfig,
}

# (section, dataclass field) -> config-file key where the names differ
_FILE_KEYS = {("defense", "lam"): "lambda"}


class ConfigError(ValueError):
    pass


def _schema(section: str) -> Dict[str, Tuple[str, type]]:
    """Config-file key -> (field name, field type) of a section's dataclass."""
    cls = _SECTION_CLASSES[section]
    hints = get_type_hints(cls)
    keys = {name: key for (sec, name), key in _FILE_KEYS.items() if sec == section}
    return {keys.get(f.name, f.name): (f.name, hints[f.name])
            for f in dataclasses.fields(cls)}


def parse_seeds(raw: str, where: str) -> Tuple[int, ...]:
    """Parse a nonempty comma-separated list of integer seeds."""
    try:
        seeds = tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"{where}: expected comma-separated ints") from None
    if not seeds:
        raise ConfigError(f"{where}: need at least one seed")
    return seeds


def _parse_value(raw: str, typ: type, where: str):
    if typ == Tuple[int, ...]:
        return parse_seeds(raw, where)
    raw = raw.strip()
    try:
        return typ(raw)  # int, float or str
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {typ.__name__}") from None


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config file."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case
    try:
        # a missing header, a repeated section or key, or a bad % in a value
        read = parser.read(path)
        sections = {section: parser.items(section) for section in parser.sections()}
    except configparser.Error as exc:
        message = " ".join(str(exc).split())
        raise ConfigError(f"cannot parse config file {path}: {message}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    section_kwargs: Dict[str, dict] = {}
    for section, items in sections.items():
        if section not in _SECTION_CLASSES:
            raise ConfigError(f"unknown config section [{section}]")
        schema = _schema(section)
        kwargs = {}
        for key, raw in items:
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            field_name, typ = schema[key]
            kwargs[field_name] = _parse_value(raw, typ, f"[{section}] {key}")
        section_kwargs[section] = kwargs
    try:
        return ExperimentConfig(**{name: cls(**section_kwargs.get(name, {}))
                                   for name, cls in _SECTION_CLASSES.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def config_to_dict(config: ExperimentConfig) -> dict:
    """Plain-dict echo of a config, suitable for embedding in outputs."""
    return dataclasses.asdict(config)


# sweep axis -> (section, field, cast), in the order the CLI lists them
_AXES = {
    "malicious_fraction": ("clients", "malicious_fraction", float),
    "lambda": ("defense", "lam", float),
    "tau_max": ("schedule", "max_client_delay", int),
    "tau_s": ("schedule", "server_refresh_period", int),
    "trusted_size": ("data", "trusted_size", int),
    "ds": ("data", "distribution_shift", float),
    "num_clients": ("clients", "num_clients", int),
}
SWEEP_AXES = tuple(_AXES)


def apply_axis(config: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    """Return a copy of config with one sweep axis replaced."""
    if axis not in _AXES:
        raise ConfigError(f"unknown sweep axis: {axis!r} (choose from {SWEEP_AXES})")
    section, name, cast = _AXES[axis]
    if cast is int and not float(value).is_integer():
        raise ConfigError(f"sweep axis {axis} takes integers, got {value!r}")
    part = dataclasses.replace(getattr(config, section), **{name: cast(value)})
    return dataclasses.replace(config, **{section: part})
