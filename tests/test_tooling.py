"""Checks that tie perfbench/, the BENCH records, README's command lines,
the demos and what `mcf evolve` imports to the package."""

import importlib.util
import inspect
import json
import math
import os
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mcflab import cli, flow

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.fixture
def workloads(monkeypatch):
    """perfbench/workloads.py, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while the module executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists(workloads):
    """perfbench --trace 1 wraps each (owner, attr); a renamed one would crash it."""
    targets = workloads.trace_targets()
    assert targets
    for owner, attr, span, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{span}: {owner.__name__}.{attr} is gone"


def test_surface_spectrum_unit_computes_each_surface_quantity_once(workloads, monkeypatch,
                                                                   tmp_path):
    """One timed surface-spectrum unit: no unread tail fit, one spline per
    decay experiment, and one coefficient pass per assembly and FEM matrix."""
    from mcflab import cone_heat, jacobi, minimal_surface

    counts = {}

    def count(module, name, key):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module in (minimal_surface, jacobi, cone_heat):
        count(module, "fit_power_law", "fit_power_law")
    count(cone_heat, "log_spline", "log_spline")
    count(jacobi, "_coefficients", "_coefficients")
    workloads.SurfaceSpectrum(0, tmp_path).timed(0)
    assert counts == {"fit_power_law": 31, "log_spline": 2, "_coefficients": 6}


def test_evolve_rough_unit_computes_curvature_per_stack_and_validates_only_its_inputs(
        workloads, monkeypatch, tmp_path):
    """One timed evolve-rough unit: each run calls profile_curvature once per
    stack of at most _DIAG_BUDGET values, not once per accepted step, and
    check_radii only for the state handed to it (once as the state is built,
    once more as evolve re-checks it on entry), not for its snapshots."""
    counts = {"profile_curvature": 0, "check_radii": 0}

    def count(name):
        real = getattr(flow, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(flow, name, counted)

    count("profile_curvature")
    count("check_radii")
    runs, calls = [], []
    evolve = flow.evolve

    def recorded(*args, **kwargs):
        before = counts["profile_curvature"]
        runs.append(evolve(*args, **kwargs))
        calls.append(counts["profile_curvature"] - before)
        return runs[-1]

    monkeypatch.setattr(flow, "evolve", recorded)
    unit = workloads.EvolveRough(17, tmp_path)
    unit.timed(0)
    assert counts["check_radii"] == 2 * len(runs) == 4
    for (traj, diag), n_calls in zip(runs, calls):
        assert len(traj) == 201
        per_stack = diag.accepted * unit.grid.size / flow._DIAG_BUDGET
        assert n_calls <= math.ceil(per_stack) + 2 < diag.accepted / 20
    assert sum(calls) <= 20


def test_readme_command_lines_parse():
    """Each `mcf` line of every fenced README block, optional groups included
    and a trailing # comment dropped, is accepted by the parser."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = readme.read_text().split("```")[1::2]
    lines = [line.split("#")[0] for block in blocks for line in block.splitlines()
             if line.startswith("mcf ")]
    assert any(line.startswith("mcf verify-all") for line in lines)
    parser = cli.build_parser()
    for line in lines:
        argv = [word.split("|")[0] for word in line.replace("[", "").replace("]", "").split()]
        parser.parse_args(argv[1:])


def test_readme_evolve_paragraph_names_every_config_key():
    """README's `mcf evolve` paragraph names each key and profile kind of the config table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("`mcf evolve` reads a JSON config", 1)[1].split("\n## ", 1)[0]
    names = {"kind", *cli._EVOLVE_KEYS, *cli._EVOLVE_KEYS["stops"].type, *cli._PROFILES}
    for keys, _ in cli._PROFILES.values():
        names.update(keys)
    assert sorted(name for name in names if f"`{name}`" not in paragraph) == []


def test_config_stops_are_the_keyword_only_stops_of_evolve():
    """`mcf evolve` passes its `stops` table to flow.evolve as keywords."""
    params = inspect.signature(flow.evolve).parameters.values()
    keyword_only = {p.name for p in params if p.kind is inspect.Parameter.KEYWORD_ONLY}
    assert set(cli._EVOLVE_KEYS["stops"].type) == keyword_only


def _modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter has loaded after running code."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(' '.join(sys.modules))"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    )
    return set(done.stdout.split())


def test_mcf_evolve_loads_only_its_own_layers(tmp_path):
    """A flow run loads no interpolation, ODE or special-function code, and
    the bare package loads no scipy at all."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(
        {"n": 4, "nodes": 21, "profile": {"kind": "cylinder"}, "horizon": 0.01}))
    argv = ["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")]
    loaded = _modules_after(f"from mcflab.cli import main; assert main({argv!r}) == 0")
    assert (tmp_path / "o" / "report.json").exists()
    assert {"scipy.interpolate", "scipy.integrate", "scipy.special"} & loaded == set()
    assert "mcflab.flow" in loaded
    assert not any(m.split(".")[0] == "scipy" for m in _modules_after("import mcflab"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    """Each demo runs to completion; a copy in tmp_path writes its out/ there."""
    copy = tmp_path / demo.name
    shutil.copy(demo, copy)
    runpy.run_path(str(copy), run_name="__main__")


def test_bench_records_name_claim_protocol_and_holdout_seed():
    """Each committed BENCH_*.json states its claim, result, protocol and
    workloads, and names the hold-out seed a claimed gain must also hold on."""
    benches = sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json"))
    assert benches
    for path in benches:
        text = path.read_text()
        record = json.loads(text)
        missing = sorted({"claim", "result", "protocol", "workloads"} - set(record))
        assert missing == [], f"{path.name} lacks {missing}"
        assert "20260809" in text, f"{path.name} does not name the hold-out seed"


def test_a_failing_property_test_hides_no_other_test(tmp_path):
    """Under the repo's pytest settings a failing @given test is one failure,
    and the tests after it still run."""
    (tmp_path / "test_pair.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x != x\n\n\n"
        "def test_passes():\n    pass\n"
    )
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(pyproject),
         "--rootdir", str(tmp_path), str(tmp_path / "test_pair.py")],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "INTERNALERROR" not in done.stdout
    assert "1 failed, 1 passed" in done.stdout, done.stdout[-2000:]
