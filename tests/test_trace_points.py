import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# trace points whose functions are gone; the tracer skips them
MISSING = {("aflbench.cli", "run_trial"), ("aflbench.defenses", "asyncsgd_step"),
           ("aflbench.tasks", "logistic_predict_batch")}


def test_every_trace_point_resolves():
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    points = {(name, attr) for name, attr, _ in module.PATCHES}
    assert MISSING <= points
    for name, attr in points - MISSING:
        assert callable(getattr(importlib.import_module(name), attr, None)), (name, attr)
    # the set-up poisoning layer hooks both data attacks by name
    assert {(name, attr) for name, attr, layer in module.PATCHES
            if layer == "attacks.poison"} == {
        ("aflbench.attacks", "flip_dataset_labels"),
        ("aflbench.attacks", "backdoor_poison")}
