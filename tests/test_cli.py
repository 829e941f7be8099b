import csv
import dataclasses
import io
import json
import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcflab import cli, verify
from mcflab.cli import _resolve_config, _write_csv, main
from mcflab.errors import QNonPositive
from mcflab.params import derive_constants, exponent_condition
from mcflab.svgplot import plot_loglog


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constants_json(capsys):
    code, out, _ = run_cli(capsys, "constants", "--n", "4", "--k", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == -2.0
    assert payload["lambda_k"] == 2.5
    assert payload["sigma_k"] == pytest.approx(5.0 / 6.0)
    assert payload["mu"] == 0.5


def test_constants_admissibility_csv(capsys):
    code, out, _ = run_cli(
        capsys, "constants", "--n", "4", "--k", "2", "--a", "2.1", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[-1] == "admissible"
    assert lines[1].split(",")[-1] == "0"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--n", "4", "--badflag"])
    assert exc.value.code == 64


@pytest.mark.parametrize(
    "argv, message",
    [
        (["barriers", "--gamma", "0"], "--gamma: must be positive, got 0"),
        (["barriers", "--gamma", "nan"], "--gamma: must be finite, got nan"),
        (["barriers", "--samples", "0"], "--samples: must be at least 1, got 0"),
        (["heat-kernel", "--delta", "1", "--points", "2", "--out", "d.csv"],
         "--points: must be at least 3, got 2"),
        (["heat-kernel", "--delta", "1", "--tmin", "0", "--out", "d.csv"],
         "--tmin: must be positive, got 0"),
        (["jacobi", "--spectrum", "--rtrunc", "-5"], "--rtrunc: must be positive, got -5"),
        (["jacobi", "--spectrum", "--nodes", "1"], "--nodes: must be at least 3, got 1"),
        (["jacobi", "--jmax", "-1", "--out", "k.csv"], "--jmax: must be at least 0, got -1"),
        (["jacobi", "--spectrum", "--rmax", "0"], "--rmax: must be positive, got 0"),
    ],
)
def test_flag_out_of_range_is_a_usage_error(capsys, argv, message):
    argv = argv[:1] + ["--n", "4"] + (["--k", "4"] if argv[0] == "barriers" else []) + argv[1:]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    assert f"argument {message}" in capsys.readouterr().err


def test_jacobi_kernel_ladder_needs_out(capsys):
    code, _, err = run_cli(capsys, "jacobi", "--n", "4")
    assert code == 64
    assert "--out" in err


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64


def test_domain_error_exit_code(capsys):
    # violated preconditions are validation failures (exit 2), not crashes
    code, _, err = run_cli(capsys, "constants", "--n", "3", "--k", "2")
    assert code == 2
    assert "n must be >= 4" in err


def test_curvature_builtin_profiles(capsys):
    code, out, _ = run_cli(
        capsys, "curvature", "--profile", "cone", "--n", "4", "--at", "2.0"
    )
    assert code == 0
    data = json.loads(out)
    assert data["H"] == pytest.approx(0.0, abs=1e-14)
    assert data["A2"] == pytest.approx(0.75)

    code, out, _ = run_cli(
        capsys, "curvature", "--profile", "sphere:1.0", "--n", "4", "--at", "0.6"
    )
    data = json.loads(out)
    assert data["H"] == pytest.approx(-7.0, rel=1e-12)

    code, out, _ = run_cli(
        capsys, "curvature", "--profile", "cylinder:1.0", "--n", "4", "--at", "1.0"
    )
    data = json.loads(out)
    assert data["H"] == pytest.approx(-3.0)


def test_curvature_csv_profile(tmp_path, capsys):
    path = tmp_path / "prof.csv"
    r = np.linspace(0.2, 3.0, 200)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["r", "Q"])
        for ri, qi in zip(r, np.sqrt(r * r + 1.0)):
            w.writerow([f"{ri:.17g}", f"{qi:.17g}"])
    code, out, _ = run_cli(
        capsys, "curvature", "--profile", str(path), "--n", "4", "--at", "1.5"
    )
    assert code == 0
    data = json.loads(out)
    # evaluation happens at the grid node nearest to --at, echoed as "r"
    assert abs(data["r"] - 1.5) <= (3.0 - 0.2) / 199
    assert data["Q"] == pytest.approx(math.sqrt(data["r"] ** 2 + 1.0), rel=1e-5)
    assert data["Q1"] == pytest.approx(data["r"] / data["Q"], abs=1e-3)


def write_profile_csv(path, r, q):
    path.write_text("r,Q\n" + "".join(f"{ri:.17g},{qi:.17g}\n" for ri, qi in zip(r, q)))


@pytest.mark.parametrize("profile", ["cylinder:nan", "sphere:inf", "csv"])
def test_curvature_refuses_nonfinite_profiles(tmp_path, capsys, profile):
    # NaN and Infinity are not JSON: a non-finite jet is refused before any output
    at = 0.5
    if profile == "csv":
        r = np.linspace(0.2, 3.0, 29)
        q = np.sqrt(r * r + 1.0)
        q[3] = math.nan  # the node nearest to --at
        profile = str(tmp_path / "prof.csv")
        write_profile_csv(tmp_path / "prof.csv", r, q)
    before = sorted(tmp_path.iterdir())
    code, out, err = run_cli(capsys, "curvature", "--profile", profile, "--n", "4",
                             "--at", str(at), "--out", str(tmp_path / "curv.json"))
    assert code == 2
    assert "must be finite" in err and out == ""
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("at", [1, -1])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_curvature_refuses_a_profile_csv_with_a_nonfinite_radius(tmp_path, capsys, at, bad):
    # an inf last radius used to exit 0, and a NaN one was reported as the jet's r
    r = np.linspace(0.2, 3.0, 29)
    q = np.sqrt(r * r + 1.0)
    r[at] = bad
    path = tmp_path / "prof.csv"
    write_profile_csv(path, r, q)
    code, out, err = run_cli(capsys, "curvature", "--profile", str(path), "--n", "4",
                             "--at", "1.0")
    assert code == 2 and out == ""
    assert f"{path}: radii must be finite and strictly increasing" in err


def test_curvature_refuses_a_curvature_that_overflows(tmp_path, capsys):
    # the jet of sphere:1e-160 is finite (Q'' = -1e160), but |A|^2 ~ 1/R^2 is not
    code, out, err = run_cli(capsys, "curvature", "--profile", "sphere:1e-160", "--n", "4",
                             "--at", "0", "--out", str(tmp_path / "curv.json"))
    assert code == 2
    assert "A2 = inf" in err and out == ""
    assert list(tmp_path.iterdir()) == []


def test_curvature_of_a_small_sphere_is_finite(capsys):
    code, out, _ = run_cli(capsys, "curvature", "--profile", "sphere:1e-100", "--n", "4",
                           "--at", "0")
    assert code == 0
    data = json.loads(out)
    assert data["A2"] == pytest.approx(7e200, rel=1e-14)  # (2n-1)/R^2
    assert data["H"] == pytest.approx(-7e100, rel=1e-14)  # -(2n-1)/R


def test_json_reports_refuse_nan_and_infinity(capsys):
    with pytest.raises(ValueError):
        cli._dump_json({"x": math.inf})
    with pytest.raises(ValueError):
        cli._dump_json({"x": [1.0, math.nan]})
    assert capsys.readouterr().out == ""


def test_curvature_refuses_a_sphere_whose_height_underflows(tmp_path, capsys):
    code, out, err = run_cli(capsys, "curvature", "--profile", "sphere:1e-320", "--n", "4",
                             "--at", "0", "--out", str(tmp_path / "curv.json"))
    assert code == 2
    assert "has Q = 0 at r = 0: R^2 underflows" in err and out == ""
    assert list(tmp_path.iterdir()) == []


def test_minimal_surface_refuses_an_axis_height_whose_series_overflows(tmp_path, capsys):
    code, out, err = run_cli(capsys, "minimal-surface", "--n", "4", "--b", "1e-46",
                             "--rmax", "1e-44", "--out", str(tmp_path / "s.csv"))
    assert code == 2
    assert "ValueError: b = 1e-46 is too small" in err and out == ""
    assert list(tmp_path.iterdir()) == []


def test_minimal_surface_artifacts_deterministic(tmp_path, capsys):
    out_csv = tmp_path / "sigma.csv"
    args = [
        "minimal-surface", "--n", "4", "--b", "1.0", "--rmax", "100",
        "--tol", "1e-9", "--out", str(out_csv),
    ]
    assert main(args) == 0
    first = out_csv.read_bytes()
    sidecar = json.loads((tmp_path / "sigma.json").read_text())
    assert sidecar["alpha_fit"] == pytest.approx(-2.0, abs=0.1)
    assert sidecar["C_b"] > 0.0
    assert (tmp_path / "manifest.json").exists()
    assert main(args) == 0
    assert out_csv.read_bytes() == first
    with open(out_csv) as fh:
        header = fh.readline().strip()
    assert header == "r,Q,Q1,Q2,u0"


def test_minimal_surface_small_axis_height(tmp_path, capsys):
    out_csv = tmp_path / "sigma.csv"
    args = ["minimal-surface", "--n", "4", "--b", "0.001", "--rmax", "1", "--out", str(out_csv)]
    assert main(args) == 0
    assert json.loads((tmp_path / "sigma.json").read_text())["b"] == 0.001


@pytest.mark.parametrize("flag, value", [("--rmax", "nan"), ("--rmax", "inf"), ("--b", "nan")])
def test_minimal_surface_refuses_nonfinite_input(tmp_path, capsys, flag, value):
    code, out, err = run_cli(capsys, "minimal-surface", "--n", "4", flag, value,
                             "--out", str(tmp_path / "sigma.csv"))
    assert code == 2
    assert "must be finite" in err and out == ""
    assert list(tmp_path.iterdir()) == []


def test_jacobi_kernel_artifacts(tmp_path, capsys):
    out_csv = tmp_path / "kernel.csv"
    code = main([
        "jacobi", "--n", "4", "--b", "1.0", "--jmax", "2",
        "--tol", "1e-11", "--out", str(out_csv),
    ])
    assert code == 0
    report = json.loads(out_csv.with_suffix(".json").read_text())
    exps = {e["j"]: e for e in report["exponents"]}
    assert exps[1]["inner"] == pytest.approx(2.0, abs=0.1)
    assert exps[2]["outer"] == pytest.approx(2.0, abs=0.15)
    with open(out_csv) as fh:
        assert fh.readline().strip() == "r,u0,u1,u2"


def test_jacobi_spectrum(capsys):
    code, out, _ = run_cli(
        capsys, "jacobi", "--n", "4", "--spectrum", "--rtrunc", "25",
        "--nodes", "1500", "--rmax", "120",
    )
    assert code == 0
    assert json.loads(out)["top_eigenvalue"] <= 1e-3


def test_heat_kernel_artifacts(tmp_path):
    out_csv = tmp_path / "decay.csv"
    svg = tmp_path / "plots" / "decay.svg"  # a missing directory is created
    code = main([
        "heat-kernel", "--n", "4", "--delta", "1.0", "--tmin", "1",
        "--tmax", "30", "--points", "6", "--out", str(out_csv),
        "--plot", str(svg),
    ])
    assert code == 0
    report = json.loads(out_csv.with_suffix(".json").read_text())
    assert report["fitted_slope"] == pytest.approx(-0.5, abs=0.075)
    text = svg.read_text()
    assert text.startswith("<?xml") and "polyline" in text
    assert "slope" in text
    assert json.loads((tmp_path / "manifest.json").read_text())["config"]["plot"] == str(svg)


@pytest.mark.parametrize(
    "argv, config",
    [
        (["constants", "--n", "4", "--k", "4"], {"n": 4, "k": 4, "a": None, "T": 1.0}),
        (["constants", "--n", "4", "--k", "4", "--format", "csv"], {"format": "csv"}),
        (["curvature", "--profile", "cone", "--n", "4", "--at", "2"],
         {"profile": "cone", "at": 2.0}),
        (["jacobi", "--n", "4", "--spectrum", "--rtrunc", "10", "--nodes", "300"],
         {"rtrunc": 10.0, "nodes": 300, "rmax": 50.0, "spectrum": True}),
    ],
    ids=["constants", "constants-csv", "curvature", "jacobi-spectrum"],
)
def test_out_writes_a_manifest_of_the_parsed_arguments(tmp_path, argv, config):
    out = tmp_path / "missing" / "report.txt"  # its directory is created
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text()
    manifest = json.loads((out.parent / "manifest.json").read_text())
    assert manifest["command"] == argv[0]
    assert manifest["config"]["out"] == str(out)
    assert {k: manifest["config"][k] for k in config} == config


def test_evolve_cylinder_run(tmp_path):
    cfg = {
        "n": 4,
        "T": 1.0,
        "rmax": 1.0,
        "nodes": 51,
        "profile": {"kind": "cylinder"},
        "horizon": 0.92,
        "target": 1e-7,
        "max_snapshots": 5,
        "fit_rate": True,
        "plot_rates": True,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "traj"
    assert main(["evolve", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["stopped_by"] == "horizon"
    assert report["Amax_rate_exponent"] == pytest.approx(-0.5, abs=0.01)
    assert (out_dir / "diagnostics.csv").exists()
    assert (out_dir / "rate.svg").exists()
    snaps = sorted(out_dir.glob("snapshot_*.npy"))
    assert len(snaps) == report["snapshots"]
    r, qs = np.load(snaps[-1])  # rows r and Q, on the initial grid
    assert np.array_equal(r, np.linspace(0.0, 1.0, 51))
    assert np.allclose(qs, math.sqrt(6.0 * (1.0 - 0.92)), rtol=1e-4)


def test_evolve_manifest_echoes_resolved_config(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"n": 4, "nodes": 101, "profile": {"kind": "cylinder"}}))
    first = tmp_path / "first"
    assert main(["evolve", "--config", str(cfg_path), "--out", str(first)]) == 0
    resolved = json.loads((first / "manifest.json").read_text())["config"]
    assert {k: resolved[k] for k in ("T", "rmax", "horizon", "target", "max_snapshots")} == {
        "T": 1.0, "rmax": 1.0, "horizon": 0.5, "target": 1e-8, "max_snapshots": 50}
    assert resolved["profile"] == {"kind": "cylinder"}
    # the echoed config is a complete recipe: rerunning it reproduces every artifact
    cfg_path.write_text(json.dumps(resolved))
    again = tmp_path / "again"
    assert main(["evolve", "--config", str(cfg_path), "--out", str(again)]) == 0
    names = sorted(f.name for f in first.iterdir())
    assert names == sorted(f.name for f in again.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


def test_evolve_report_carries_the_flow_counters(tmp_path):
    """report.json holds evolve's deterministic counters beside `steps`."""
    from mcflab import flow
    from mcflab.cli import _initial_state

    cfg = {"n": 4, "rmax": 0.03, "nodes": 80, "profile": {"kind": "sphere"},
           "horizon": 0.5, "target": 1e-8, "max_snapshots": 20}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["evolve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    resolved, errors = _resolve_config(cfg)
    assert errors == []
    _, diag = flow.evolve(_initial_state(resolved), 4, 0.5, target=1e-8, max_snapshots=20)
    assert report["steps"] == diag.accepted
    assert report["rejected"] == diag.rejected
    assert report["stage_iterations"] == diag.stage_iterations
    assert (report["dt_min"], report["dt_max"]) == (diag.dt_min, diag.dt_max)


def test_evolve_sphere_stop(tmp_path):
    cfg = {
        "n": 4,
        "rmax": 0.03,
        "nodes": 80,
        "profile": {"kind": "sphere"},
        "horizon": 0.95,
        "target": 1e-7,
        "stops": {"Qmin_floor": 1.0},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "sph"
    assert main(["evolve", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["stopped_by"] == "Qmin_floor"
    assert report["T_est"] == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize(
    "edit, key",
    [
        ({"stops": {"Qmin_flor": 0.2}}, "stops.Qmin_flor"),
        ({"horizn": 0.5}, "horizn"),
        ({"profile": {"kind": "cylinder", "R0": 2.0}}, "profile.R0"),
        ({"profile": {"kind": "cylinder", "c": 1.0}}, "profile.c"),
    ],
)
def test_evolve_rejects_unknown_config_keys(tmp_path, capsys, edit, key):
    cfg = {"n": 4, "nodes": 21, "profile": {"kind": "cylinder"}, "horizon": 0.01}
    cfg.update(edit)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "traj"
    code, _, err = run_cli(capsys, "evolve", "--config", str(cfg_path), "--out", str(out_dir))
    assert code == 64
    assert key in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "edit, key",
    [
        ({"n": 4.7}, "n"),
        ({"max_snapshots": 2.9}, "max_snapshots"),
        ({"fit_rate": "no"}, "fit_rate"),
        ({"stops": {"Qmin_floor": "0.2"}}, "stops.Qmin_floor"),
        ({"horizon": True}, "horizon"),
    ],
)
def test_evolve_rejects_mistyped_config_values(tmp_path, capsys, edit, key):
    cfg = {"n": 4, "nodes": 51, "profile": {"kind": "cylinder"}, "horizon": 0.01}
    cfg.update(edit)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "traj"
    code, _, err = run_cli(capsys, "evolve", "--config", str(cfg_path), "--out", str(out_dir))
    assert code == 64
    assert f"{key} must be" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "cfg, key",
    [
        ({"profile": {"kind": "cylinder"}, "horizon": 0.01}, "n"),
        ({"n": 4, "horizon": 0.01}, "profile"),
        ({"n": 4, "profile": {"kind": "file"}, "horizon": 0.01}, "profile.path"),
    ],
)
def test_evolve_rejects_missing_required_config_keys(tmp_path, capsys, cfg, key):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "traj"
    code, _, err = run_cli(capsys, "evolve", "--config", str(cfg_path), "--out", str(out_dir))
    assert code == 64
    assert f"missing required config key(s): {key}" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "text, code, message",
    [
        ("[1]", 64, "the config must be a JSON object, got [1]"),
        ('"x"', 64, 'the config must be a JSON object, got "x"'),
        ('{"n": 4, "nodes": 0, "profile": {"kind": "cylinder"}}', 64,
         "nodes must be at least 3, got 0"),
        ('{"n": 4, "T": 0.05, "rmax": 1.0, "profile": {"kind": "sphere"}}', 2,
         "a sphere with T = 0.05 has no graph over [0, rmax = 1]"),
        ('{"n": 4, "rmax": 0.5, "nodes": 21, "profile": {"kind": "sphere"}, "horizon": 0.99}',
         2, "horizon = 0.99 reaches t = 0.982143, where the sphere's edge at rmax = 0.5 "
            "shrinks to 0"),
        ('{"n": 4, "rmax": -1.0, "nodes": 21, "profile": {"kind": "cylinder"}}', 64,
         "rmax must be positive, got -1.0"),
        ('{"n": 4, "profile": {"kind": "cone", "rmin": 0.0}}', 64,
         "profile.rmin must be positive, got 0.0"),
        ('{"n": 4, "rmax": 1.0, "profile": {"kind": "cone", "rmin": 2.0}}', 2,
         "profile.rmin = 2 must be below rmax = 1"),
        ('{"n": 4, "rmax": 0.01, "profile": {"kind": "minimal"}}', 2,
         "profile.rmin = 0.01 must be below rmax = 0.01"),
        ('{"n": 4, "T": 0, "profile": {"kind": "cylinder"}}', 64, "T must be positive, got 0"),
        ('{"n": 4, "T": -1, "profile": {"kind": "cylinder"}}', 64, "T must be positive, got -1"),
        ('{"n": 4, "T": 1e400, "profile": {"kind": "cylinder"}}', 64,
         "T must be finite, got Infinity"),
        ('{"n": 4, "profile": {"kind": "cylinder", "c": 0}}', 64,
         "unknown config key(s): profile.c"),
        ('{"n": 4, "profile": {"kind": "sphere", "R0": -2}}', 64,
         "unknown config key(s): profile.R0"),
        ('{"n": 4, "profile": {"kind": "minimal", "b": 0}}', 64,
         "profile.b must be positive, got 0"),
        ('{"n": 4, "profile": {"kind": "cone", "rmin": NaN}}', 64,
         "profile.rmin must be finite, got NaN"),
        ('{"n": 4, "rmax": NaN, "profile": {"kind": "cylinder"}}', 64,
         "rmax must be finite, got NaN"),
        ('{"n": 4, "profile": {"kind": "cylinder"}, "stops": {"Qmin_floor": NaN}}', 64,
         "stops.Qmin_floor must be finite, got NaN"),
        ('{"n": 1, "profile": {"kind": "cylinder"}}', 64, "n must be at least 2, got 1"),
        ('{"n": 4, "profile": {"kind": "torus"}}', 64,
         'profile.kind must be one of cylinder, sphere, cone, minimal, file, got "torus"'),
        ('{"n": 4, "profile": {"c": 2.0}}', 64, "profile.kind must be one of"),
        ('{"n": 4, "T": 0.01, "nodes": 51, "profile": {"kind": "cylinder"}, "horizon": 0.02}',
         2, "validation error: "),
        ('{"n": 4, "profile": {"kind": "cylinder"}, "max_snapshots": 0}', 64,
         "max_snapshots must be at least 1, got 0"),
        ('{"n": 4, "profile": {"kind": "cylinder"}, "horizon": 0}', 64,
         "horizon must be positive, got 0"),
        ('{"n": 4, "profile": {"kind": "cylinder"}, "horizon": -0.5}', 64,
         "horizon must be positive, got -0.5"),
    ],
    ids=["array", "string", "nodes", "sphere", "sphere-edge-before-horizon", "rmax",
         "cone-rmin", "cone-rmin-rmax", "minimal-default-rmin", "T-zero", "T-negative",
         "T-overflow", "cylinder-c", "sphere-R0", "minimal-b", "cone-rmin-nan", "rmax-nan",
         "stops-nan", "n", "unknown-kind", "no-kind", "past-singular-time", "max-snapshots-zero",
         "horizon-zero", "horizon-negative"],
)
def test_evolve_rejects_invalid_configs(tmp_path, capsys, text, code, message):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(text)
    out_dir = tmp_path / "traj"
    got, _, err = run_cli(capsys, "evolve", "--config", str(cfg_path), "--out", str(out_dir))
    assert got == code
    assert message in err
    assert not out_dir.exists()


def csv_writer_bytes(header, columns) -> bytes:
    """What csv.writer writes for these columns with f"{v:.17g}" fields."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([f"{v:.17g}" for v in row])
    return buf.getvalue().encode()


def reformatted(path) -> bytes:
    """The CSV file at path with each field read back and written as %.17g,
    comma-joined, every line ended by CRLF."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    lines = [",".join(header)] + [",".join("%.17g" % float(v) for v in row) for row in rows]
    return "".join(line + "\r\n" for line in lines).encode()


def test_every_written_csv_is_its_values_as_17g(tmp_path):
    cfg = tmp_path / "sphere.json"
    cfg.write_text(json.dumps({"n": 4, "rmax": 0.5, "nodes": 41, "profile": {"kind": "sphere"},
                               "horizon": 0.5, "max_snapshots": 11, "fit_rate": True,
                               "plot_rates": True}))
    for argv in (["evolve", "--config", str(cfg), "--out", str(tmp_path / "evolve")],
                 ["heat-kernel", "--n", "4", "--delta", "1", "--points", "6",
                  "--out", str(tmp_path / "hk" / "decay.csv")],
                 ["minimal-surface", "--n", "4", "--rmax", "50",
                  "--out", str(tmp_path / "ms" / "sigma.csv")],
                 ["jacobi", "--n", "4", "--jmax", "1",
                  "--out", str(tmp_path / "jac" / "kernel.csv")]):
        assert main(argv) == 0
    assert sorted(p.name for p in (tmp_path / "evolve").glob("*.csv")) == ["diagnostics.csv",
                                                                           "rate.csv"]
    for path in sorted(tmp_path.rglob("*.csv")):
        assert path.read_bytes() == reformatted(path), path.relative_to(tmp_path)


def test_constants_csv_is_csv_writer_bytes_to_a_file_and_to_stdout(tmp_path, capsysbinary):
    argv = ["constants", "--n", "4", "--k", "2", "--a", "2.1", "--format", "csv"]
    assert main(argv) == 0
    printed = capsysbinary.readouterr().out
    assert main(argv + ["--out", str(tmp_path / "c.csv")]) == 0
    p = derive_constants(4, 2)
    cond = exponent_condition(p, 2.1)
    row = {**dataclasses.asdict(p), "a": cond.a, "condition_value": cond.value,
           "admissible": cond.admissible}
    expected = csv_writer_bytes(list(row), [[v] for v in row.values()])
    assert expected.count(b"\r\n") == 2
    assert printed == expected
    assert (tmp_path / "c.csv").read_bytes() == expected


def evolve_snapshots(tmp_path, name, profile):
    """The snapshot files of mcf evolve on a 200-node profile to t = 0.5."""
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps({"n": 4, "rmax": 5, "nodes": 200, "profile": profile,
                                    "horizon": 0.5, "max_snapshots": 5}))
    assert main(["evolve", "--config", str(cfg_path), "--out", str(tmp_path / name)]) == 0
    return sorted((tmp_path / name).glob("snapshot_*.npy"))


def snapshot_drift(paths) -> float:
    """max |Q| difference between the first and the last snapshot file."""
    first, last = (np.load(p)[1] for p in (paths[0], paths[-1]))
    return float(np.abs(last - first).max())


def test_evolve_cone_stays_put(tmp_path):
    snapshots = evolve_snapshots(tmp_path, "cone", {"kind": "cone"})
    assert len(snapshots) == 6
    assert snapshot_drift(snapshots) <= 1e-10


def test_evolve_projected_minimal_profile_stays_put_and_reads_back(tmp_path):
    projected = evolve_snapshots(tmp_path, "projected",
                                 {"kind": "minimal", "project_steady": True})
    # the discrete steady state stays put; the unprojected profile moves by the O(h^2) gap
    assert snapshot_drift(projected) <= 1e-10
    assert snapshot_drift(evolve_snapshots(tmp_path, "raw", {"kind": "minimal"})) > 1e-6
    # the first snapshot, read back as a file profile, gives the same run byte for byte
    again = evolve_snapshots(tmp_path, "again", {"kind": "file", "path": str(projected[0])})
    assert [p.name for p in again] == [p.name for p in projected]
    for a, b in zip(projected, again):
        assert a.read_bytes() == b.read_bytes(), a.name


def test_readme_evolve_config_is_valid():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    configs = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert configs
    for text in configs:
        assert _resolve_config(json.loads(text))[1] == []


def test_evolve_rejects_headerless_profile_file(tmp_path, capsys):
    prof = tmp_path / "prof.csv"
    r = np.linspace(0.5, 5.0, 21)
    prof.write_text("".join(f"{ri:.17g},{ri:.17g}\n" for ri in r))
    cfg = {"n": 4, "profile": {"kind": "file", "path": str(prof)}, "horizon": 0.01}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "traj"
    code, _, err = run_cli(capsys, "evolve", "--config", str(cfg_path), "--out", str(out_dir))
    assert code == 2
    assert "expected header 'r,Q'" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["curvature", "evolve"])
@pytest.mark.parametrize(("bad", "line"), [("", 23), ("1.5", 5), ("1.5,abc", 5)],
                         ids=["blank last line", "one field", "not a number"])
def test_a_profile_csv_row_that_is_not_two_numbers_is_refused(tmp_path, capsys, command, bad,
                                                              line):
    rows = [f"{ri:.17g},{ri:.17g}" for ri in np.linspace(0.5, 5.0, 21)]  # lines 2..22
    rows[line - 2:line - 1] = [bad]
    path = tmp_path / "prof.csv"
    path.write_text("".join(f"{row}\n" for row in ["r,Q"] + rows))
    out_dir = tmp_path / "traj"
    if command == "curvature":
        argv = ["curvature", "--profile", str(path), "--n", "4", "--at", "1"]
    else:
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"n": 4, "profile": {"kind": "file", "path": str(path)},
                                        "horizon": 0.01}))
        argv = ["evolve", "--config", str(cfg_path), "--out", str(out_dir)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"{path}: line {line} is not two numbers r,Q" in err
    assert not out_dir.exists()


def test_curvature_reads_an_evolve_snapshot_as_its_csv(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"n": 4, "rmax": 0.5, "nodes": 41,
                                    "profile": {"kind": "sphere"}, "horizon": 0.3}))
    assert main(["evolve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    snapshot = tmp_path / "o" / "snapshot_0050.npy"
    write_profile_csv(tmp_path / "last.csv", *np.load(snapshot))
    printed = [run_cli(capsys, "curvature", "--profile", str(path), "--n", "4", "--at", "0.2")
               for path in (snapshot, tmp_path / "last.csv")]
    assert printed[0] == printed[1]
    assert printed[0][0] == 0 and json.loads(printed[0][1])["r"] == 0.2


def _truncated(path):
    np.save(path, np.stack([np.linspace(0.5, 5.0, 21)] * 2))
    path.write_bytes(path.read_bytes()[:-8])


def _huge_header(path):
    # 146 TiB promised, 64 bytes held: refused without allocating the promise
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": "<f8", "fortran_order": False, "shape": (2, 10**13)})
        fh.write(bytes(64))


@pytest.mark.parametrize("command", ["curvature", "evolve"])
@pytest.mark.parametrize(("write", "message"), [
    (lambda path: np.save(path, np.stack([np.linspace(0.5, 5.0, 21)] * 3)),
     "expected a (2, N) float array of rows r, Q, got float64 (3, 21)"),
    (lambda path: np.save(path, np.stack([np.arange(1, 22)] * 2)),
     "expected a (2, N) float array of rows r, Q, got int64 (2, 21)"),
    (_truncated, "not a .npy array: mmap length is greater than file size"),
    (_huge_header, "not a .npy array: mmap length is greater than file size"),
    (lambda path: path.write_text("r,Q\n0.5,0.5\n1,1\n1.5,1.5\n"),
     "not a .npy array: the magic string is not correct"),
    (lambda path: np.save(path, np.stack([[0.5, math.nan, 1.5, 2.0], [1.0] * 4])),
     "radii must be finite and strictly increasing"),
], ids=["three rows", "int dtype", "truncated", "huge header", "text", "nan radius"])
def test_a_bad_profile_npy_is_refused(tmp_path, capsys, command, write, message):
    path = tmp_path / "prof.npy"
    write(path)
    out_dir = tmp_path / "traj"
    if command == "curvature":
        argv = ["curvature", "--profile", str(path), "--n", "4", "--at", "1",
                "--out", str(out_dir / "curv.json")]
    else:
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"n": 4, "profile": {"kind": "file", "path": str(path)},
                                        "horizon": 0.01}))
        argv = ["evolve", "--config", str(cfg_path), "--out", str(out_dir)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"validation error: ValueError: {path}: {message}" in err
    assert not out_dir.exists()


def test_evolve_refuses_a_nonfinite_profile_file(tmp_path, capsys):
    r = np.linspace(0.5, 5.0, 21)
    q = r.copy()
    q[7] = math.nan
    write_profile_csv(tmp_path / "prof.csv", r, q)
    cfg = {"n": 4, "profile": {"kind": "file", "path": str(tmp_path / "prof.csv")},
           "horizon": 0.01}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "traj"
    code, _, err = run_cli(capsys, "evolve", "--config", str(cfg_path), "--out", str(out_dir))
    assert code == 2
    assert "profile Q must be finite" in err
    assert not out_dir.exists()


def test_evolve_rejected_target_writes_nothing(tmp_path, capsys):
    cfg = {"n": 4, "nodes": 21, "profile": {"kind": "cylinder"}, "horizon": 0.01,
           "target": 1e-12}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "traj"
    code, _, err = run_cli(capsys, "evolve", "--config", str(cfg_path), "--out", str(out_dir))
    assert code == 64
    assert "target must be at least 1e-10, got 1e-12" in err
    assert not out_dir.exists()


def test_barriers_report(tmp_path, capsys):
    out = tmp_path / "barrier.json"
    code = main([
        "barriers", "--n", "4", "--k", "4", "--c0", "1.0", "--gamma", "10",
        "--samples", "5000", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["C1"] == 51.0
    assert report["residual_nonnegative"] is True
    assert report["domination_holds"] is True


def test_barriers_echoes_T(tmp_path):
    out = tmp_path / "barrier.json"
    code = main([
        "barriers", "--n", "4", "--k", "4", "--T", "2", "--samples", "500",
        "--out", str(out),
    ])
    assert code == 0
    assert json.loads(out.read_text())["T"] == 2.0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["T"] == 2.0


def _strict_json(text):
    """json.loads refusing NaN and Infinity, which JSON does not have."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


BARRIERS = ["barriers", "--n", "4", "--k", "4", "--samples", "10"]


@pytest.mark.parametrize("flags, message", [
    (["--gamma", "1e-200"], "gamma = 1e-200 is too small"),
    (["--gamma", "1e-160"], "gamma = 1e-160 is too small"),
    # C_bar is 1 here, but the sampled radii near 1e200 overflow r^(2 lam + 1)
    (["--gamma", "1e200"], "domination margin nan at gamma = 1e+200"),
    (["--T", "1e308"], "supersolution residual nan at C0 = 1, T = 1e+308"),
    (["--c0", "1e308"], "C0 = 1e+308 is too large"),
])
def test_barriers_refuse_flags_that_overflow(tmp_path, capsys, flags, message):
    code, out, err = run_cli(capsys, *BARRIERS, *flags)
    assert code == 2
    assert f"validation error: ValueError: {message}" in err and out == ""
    code, _, _ = run_cli(capsys, *BARRIERS, *flags, "--out", str(tmp_path / "b.json"))
    assert code == 2
    assert list(tmp_path.iterdir()) == []


def test_barriers_take_a_huge_Qr_bound_at_its_beta_zero_limit(capsys):
    code, out, _ = run_cli(capsys, *BARRIERS, "--qr-bound", "1e200")
    assert code == 0
    report = _strict_json(out)
    assert report["Qr_bound"] == 1e200
    assert report["residual_nonnegative"] is True
    assert report["domination_holds"] is True


def test_verify_all(capsys):
    code, out, _ = run_cli(capsys, "verify-all")
    assert code == 0
    assert out.count("[PASS]") == 8
    assert "FAIL" not in out
    assert out.endswith("8/8 criteria passed\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--quick"])
    assert exc.value.code == 64


def test_verify_all_reports_a_criterion_that_raises_and_runs_the_rest(monkeypatch, capsys):
    def raises():
        raise QNonPositive("Q <= 0 at node 3")

    def passes():
        return [verify.Check("ok", True)]

    planted = tuple(dataclasses.replace(c, measure=raises if c.number == 5 else passes)
                    for c in verify.CRITERIA)
    monkeypatch.setattr(verify, "CRITERIA", planted)
    code, out, _ = run_cli(capsys, "verify-all")
    assert code == 2
    lines = out.splitlines()
    assert [line.split("]")[0] for line in lines[:-1]] == [f"[criterion {k}" for k in range(1, 9)]
    assert lines[4].startswith(
        "[criterion 5] [FAIL] flow: raised QNonPositive: Q <= 0 at node 3 (")
    assert lines[-1] == "7/8 criteria passed"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["constants", "--T", "nan"], "T must be positive and finite, got nan"),
        (["constants", "--T", "inf"], "T must be positive and finite, got inf"),
        (["constants", "--a", "nan"], "weight exponent a must be finite, got nan"),
        (["barriers", "--samples", "10", "--c0", "nan"],
         "C0 must be positive and finite, got nan"),
        (["barriers", "--samples", "10", "--qr-bound", "nan"],
         "Qr_bound must be finite and at least 1"),
        (["barriers", "--samples", "10", "--T", "inf"], "T must be positive and finite, got inf"),
    ],
)
def test_nonfinite_constants_and_barrier_inputs_exit_2(tmp_path, capsys, argv, message):
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, argv[0], "--n", "4", "--k", "4", *argv[1:],
                             "--out", str(out_dir / "r.json"))
    assert code == 2
    assert message in err
    assert out == ""
    assert not out_dir.exists()


def test_heat_kernel_at_one_time_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "o"
    code, _, err = run_cli(capsys, "heat-kernel", "--n", "4", "--delta", "1", "--tmin", "5",
                           "--tmax", "5", "--points", "4", "--out", str(out_dir / "d.csv"))
    assert code == 2
    assert "WindowTooNarrow" in err
    assert not out_dir.exists()


def test_plot_deterministic(tmp_path):
    x = np.geomspace(1.0, 100.0, 30)
    y = x**-1.5
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    plot_loglog(x, y, p1, "x", "y")
    plot_loglog(x, y, p2, "x", "y")
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "kind, n, T",
    [("cylinder", 4, 1.0), ("sphere", 3, 1.0), ("sphere", 5, 1.0), ("sphere", 7, 1.0),
     ("sphere", 4, 0.5)],
)
def test_evolve_report_echoes_T_exactly(tmp_path, kind, n, T):
    # report.json echoes T, not a value recomputed from the shrinker's radius:
    # the cylinder's sqrt(6)^2 / 6 is 0.9999999999999999, and the sphere's
    # R0^2 / (2(2n-1)) with R0 = sqrt(2(2n-1)T) misses T by an ulp for these
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(
        {"n": n, "T": T, "nodes": 21, "profile": {"kind": kind}, "horizon": 0.01}))
    assert main(["evolve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    assert json.loads((tmp_path / "o" / "report.json").read_text())["T"] == T


_FIELD_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, math.inf,
                     -math.inf, math.nan]),
    st.floats(),
    # raw 64-bit patterns sample every binade evenly, which st.floats() does not
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), width=st.integers(1, 5), rows=st.integers(0, 12))
def test_write_csv_matches_csv_writer_on_random_columns(data, width, rows):
    columns = [np.array(data.draw(st.lists(_FIELD_VALUES, min_size=rows, max_size=rows)),
                        dtype=float) for _ in range(width)]
    header = [f"c{k}" for k in range(width)]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        _write_csv(out, header, columns)
        assert out.read_bytes() == csv_writer_bytes(header, columns)
