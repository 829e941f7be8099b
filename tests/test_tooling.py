"""Checks that tie the benchmark in perfbench/ to the package's names."""

import importlib.util
import sys
from pathlib import Path


def test_every_traced_target_exists(monkeypatch):
    """perfbench --trace 1 wraps each (owner, attr); a renamed one would crash it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while the module executes
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    targets = workloads.trace_targets()
    assert targets
    for owner, attr, span, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{span}: {owner.__name__}.{attr} is gone"
