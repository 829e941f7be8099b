"""Checks that tie the benchmark in perfbench/ and README's command lines to the package."""

import importlib.util
import sys
from pathlib import Path

from mcflab import cli


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


def test_readme_command_lines_parse():
    """Each documented `mcf` line, optional groups included, is accepted by the parser."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("mcf ")]
    assert lines
    parser = cli.build_parser()
    for line in lines:
        argv = [word.split("|")[0] for word in line.replace("[", "").replace("]", "").split()]
        parser.parse_args(argv[1:])
