"""Outside-in tracing of aflbench's layers.

Wrappers are installed over the names each caller resolves at call time:
``engine`` binds ``minibatch`` with ``from .data import ...``, so the
wrapper goes on ``aflbench.engine.minibatch``, while ``engine`` calls
``tasks.regression_gradient`` through the module, so that wrapper goes on
``aflbench.tasks``. Spans are kept in memory and written out by ``write``.
"""
from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, List, Optional, Tuple

TRIAL = "engine.run_trial"
LOOP = "engine.loop"
SERVER_GRADIENT = "tasks.gradient.server"


def _gradient_layer(parent: Optional[str]) -> Optional[str]:
    """Split gradient calls by the span that made them."""
    if parent == SERVER_GRADIENT:
        return None  # already inside the server-update span
    if parent == "engine.make_threat_knowledge":
        return "tasks.gradient.threat"
    return "tasks.gradient.client"


# (module, attribute, layer): a layer named by a string merges directly
# nested calls into one span; a callable picks the layer from the parent.
PATCHES: Tuple[Tuple[str, str, object], ...] = (
    ("aflbench.cli", "prepare_data", "engine.prepare_data"),
    ("aflbench.cli", "run_trial", TRIAL),
    ("aflbench.cli", "write_trial_csv", "cli.write_trial_csv"),
    ("aflbench.cli", "write_summary", "cli.write_summary"),
    ("aflbench.engine", "gen_synthetic_regression", "data.gen"),
    ("aflbench.engine", "gen_synthetic_classification", "data.gen"),
    ("aflbench.engine", "partition", "data.partition"),
    ("aflbench.engine", "sample_trusted", "data.sample_trusted"),
    ("aflbench.attacks", "flip_dataset_labels", "attacks.poison"),
    ("aflbench.attacks", "backdoor_poison", "attacks.poison"),
    ("aflbench.engine", "minibatch", "data.minibatch"),
    ("aflbench.tasks", "regression_gradient", _gradient_layer),
    ("aflbench.tasks", "logistic_gradient", _gradient_layer),
    ("aflbench.engine", "server_update_vector", SERVER_GRADIENT),
    ("aflbench.engine", "make_threat_knowledge", "engine.make_threat_knowledge"),
    ("aflbench.attacks", "adaptive_update", "attacks.adaptive_update"),
    ("aflbench.defenses", "asyncsgd_step", "defenses.filter"),
    ("aflbench.defenses", "aflguard_accept", "defenses.filter"),
    ("aflbench.defenses", "kardam_step", "defenses.filter"),
    ("aflbench.defenses", "basgd_step", "defenses.filter"),
    ("aflbench.defenses", "zeno_step", "defenses.filter"),
    ("aflbench.metrics", "mse", "metrics.evaluate"),
    ("aflbench.metrics", "mee", "metrics.evaluate"),
    ("aflbench.metrics", "test_error_rate", "metrics.evaluate"),
    ("aflbench.metrics", "attack_success_rate", "metrics.evaluate"),
    ("aflbench.tasks", "regression_predict_batch", "metrics.evaluate"),
    ("aflbench.tasks", "logistic_predict_batch", "metrics.evaluate"),
)

# Functions whose first argument is the path of a file they write.
WRITERS = ("cli.write_trial_csv", "cli.write_summary")

# Every layer the trace reports, in report order.
LAYERS = (
    "data.minibatch", LOOP, "tasks.gradient.client", "tasks.gradient.threat",
    SERVER_GRADIENT, "engine.make_threat_knowledge", "attacks.adaptive_update",
    "defenses.filter", "metrics.evaluate", "engine.prepare_data", "data.gen",
    "data.partition", "data.sample_trusted", "attacks.poison",
    "cli.write_trial_csv", "cli.write_summary",
)


class Tracer:
    """Records nested spans (name, parent, start, end) in parallel lists."""

    def __init__(self):
        self.names: List[str] = []
        self.parents: List[int] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.bytes_written = 0
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, Callable]] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn: Callable, layer) -> Callable:
        names, stack, open_, close = self.names, self._stack, self._open, self._close

        if callable(layer):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                name = layer(names[stack[-1]] if stack else None)
                if name is None:
                    return fn(*args, **kwargs)
                idx = open_(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and names[stack[-1]] == layer:
                return fn(*args, **kwargs)
            idx = open_(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        return traced

    def _count_bytes(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            self.bytes_written += Path(path).stat().st_size
            return result
        return counted

    def install(self) -> None:
        """Patch every name in PATCHES; a name the program no longer has is
        reported in ``missing`` and its layer reads zero calls."""
        for module_name, attr, layer in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                    print(f"perfbench: {module_name}.{attr} not found; not traced",
                          file=sys.stderr)
                continue
            self._restore.append((module, attr, original))
            wrapped = self._wrap(original, layer)
            if layer in WRITERS:
                wrapped = self._count_bytes(wrapped)
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def summarize(self) -> dict:
        """Per layer: calls, inclusive ns and self ns (span time minus the
        time its child spans cover). ``engine.loop`` is the self time of the
        trial spans. Also returns the trial time as ``trial_ns`` and the self
        time of spans inside trials as ``in_trial_self_ns``."""
        n = len(self.names)
        child_ns = [0] * n
        inside = [False] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child_ns[parent] += self.ends[i] - self.starts[i]
                inside[i] = inside[parent] or self.names[parent] == TRIAL
        layers = {name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in LAYERS}
        trial_ns = in_trial_self_ns = 0
        for i in range(n):
            name, duration = self.names[i], self.ends[i] - self.starts[i]
            self_ns = duration - child_ns[i]
            if name == TRIAL:
                trial_ns += duration
                name = LOOP
            elif inside[i]:
                in_trial_self_ns += self_ns
            if name in layers:
                entry = layers[name]
                entry["calls"] += 1
                entry["total_ns"] += duration
                entry["self_ns"] += self_ns
        return {"layers": layers, "trial_ns": trial_ns,
                "in_trial_self_ns": in_trial_self_ns}

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,parent,start_ns,end_ns\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.parents[i]},{self.starts[i]},{self.ends[i]}\n")
