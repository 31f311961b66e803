"""The benchmark's tracer wraps program functions by name: each must exist."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_is_an_attribute_of_its_owner():
    # `Tracer.installed` looks each target up in owner.__dict__, so a
    # deleted or renamed name would fail only a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [name for name, owner, attr, _ in tracing.TARGETS if attr not in owner.__dict__]
    assert tracing.TARGETS and not missing
