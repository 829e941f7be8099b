"""Command line entry point (`mcf`).

Subcommands: constants, curvature, minimal-surface, jacobi, heat-kernel,
evolve, barriers, verify-all.  Conventions:

  * exit 0 on success, 2 when a stated hypothesis or validation fails,
    1 on internal error, 64 on usage errors;
  * every run that writes artifacts also writes manifest.json echoing the
    fully resolved configuration and the package version -- no timestamps,
    so reruns with identical inputs are byte-identical;
  * CSV with a header row for tables, JSON for scalar reports, SVG (own
    deterministic writer) for plots;
  * `mcf evolve` rejects config keys it does not know, required keys that
    are missing, and values of the wrong JSON type or out of range on their
    own, with exit 64.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import HypothesisError
from .svgplot import plot_loglog

EX_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EX_USAGE)


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _dump_json(payload, out=None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    if out is None:
        print(text)
    else:
        Path(out).write_text(text + "\n", encoding="utf-8")


def _write_csv(path, header, columns) -> None:
    """Header row, then one row per index with every value as %.17g.

    The bytes are those of csv.writer with f"{v:.17g}" fields (no field needs
    quoting; lines end in CRLF), built by one format template per row and
    written at once.
    """
    row = ",".join(["%.17g"] * len(columns)) + "\r\n"
    lines = [",".join(header) + "\r\n"]
    lines += [row % values for values in zip(*(np.asarray(c).tolist() for c in columns))]
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def _manifest(out_dir: Path, command: str, config: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    _dump_json(
        {"command": command, "config": config, "version": __version__},
        out_dir / "manifest.json",
    )


def _cmd_constants(args) -> int:
    from .params import derive_constants, exponent_condition

    p = derive_constants(args.n, args.k, T=args.T)
    payload = {
        "n": p.n,
        "k": p.k,
        "alpha": p.alpha,
        "alpha_plus": p.alpha_plus,
        "alpha_minus": p.alpha_minus,
        "lambda_k": p.lambda_k,
        "sigma_k": p.sigma_k,
        "mu": p.mu,
        "T": p.T,
    }
    if args.a is not None:
        cond = exponent_condition(p, args.a)
        payload["exponent_condition"] = {
            "a": cond.a,
            "value": cond.value,
            "admissible": cond.admissible,
        }
    if args.format == "json":
        _dump_json(payload, args.out)
    else:
        keys = [k for k in payload if k != "exponent_condition"]
        lines = [",".join(keys), ",".join(f"{payload[k]:.17g}" for k in keys)]
        if "exponent_condition" in payload:
            c = payload["exponent_condition"]
            lines[0] += ",a,condition_value,admissible"
            lines[1] += f",{c['a']:.17g},{c['value']:.17g},{int(c['admissible'])}"
        text = "\n".join(lines)
        if args.out:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        else:
            print(text)
    return 0


def _read_profile_csv(path):
    """Radii and heights of a profile CSV: header `r,Q`, then one node a row."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:2] != ["r", "Q"]:
        raise ValueError(f"{path}: expected header 'r,Q'")
    data = np.array([[float(a), float(b)] for a, b, *_ in rows[1:]]).reshape(-1, 2)
    rs, qs = data[:, 0], data[:, 1]
    if rs.size < 3:
        raise ValueError(f"{path}: a profile needs at least 3 nodes")
    if np.any(np.diff(rs) <= 0.0):
        raise ValueError(f"{path}: radii must be strictly increasing")
    return rs, qs


def _profile_jet_from_spec(spec: str, n: int, r: float):
    from .geometry import ProfileJet, fd_jet

    if spec == "cone":
        return ProfileJet(r=r, q=r, q1=1.0, q2=0.0)
    if spec.startswith("cylinder:"):
        c = float(spec.split(":", 1)[1])
        return ProfileJet(r=r, q=c, q1=0.0, q2=0.0)
    if spec.startswith("sphere:"):
        R = float(spec.split(":", 1)[1])
        if not (0.0 <= r < R):
            raise ValueError(f"sphere of radius {R} has no graph at r={r}")
        q = math.sqrt(R * R - r * r)
        return ProfileJet(r=r, q=q, q1=-r / q, q2=-R * R / q**3)
    if not Path(spec).exists():
        raise ValueError(f"unknown profile spec {spec!r} (and no such file)")
    rs, qs = _read_profile_csv(spec)
    i = int(np.clip(np.argmin(np.abs(rs - r)), 1, len(rs) - 2))
    return fd_jet(rs, qs, i)


def _cmd_curvature(args) -> int:
    from .geometry import curvature, normal_position, unit_normal

    jet = _profile_jet_from_spec(args.profile, args.n, args.at)
    data = curvature(args.n, jet)
    nu = unit_normal(jet)
    payload = {
        "r": jet.r,
        "Q": jet.q,
        "Q1": jet.q1,
        "Q2": jet.q2,
        "g_rr": data.g_rr,
        "a_rr": data.a_rr,
        "a_omega": data.a_omega,
        "a_theta": data.a_theta,
        "H": data.H,
        "A2": data.A2,
        "normal": {"radial": nu[0], "spherical": nu[1]},
        "u0": normal_position(jet),
    }
    _dump_json(payload, args.out)
    return 0


def _cmd_minimal_surface(args) -> int:
    from .minimal_surface import integrate_profile, u0_profile

    mp = integrate_profile(args.n, args.b, args.rmax, tol=args.tol)
    u0 = u0_profile(mp)
    out = Path(args.out)
    _manifest(out.parent, "minimal-surface",
              {"n": args.n, "b": args.b, "rmax": args.rmax, "tol": args.tol,
               "out": str(out)})
    _write_csv(out, ["r", "Q", "Q1", "Q2", "u0"],
               [mp.grid, mp.q, mp.q1, mp.q2, u0.u0])
    _dump_json(
        {
            "n": mp.n,
            "b": mp.b,
            "C_b": mp.C_b,
            "alpha_fit": mp.alpha_fit,
            "tail_resid": mp.tail.resid,
            "accuracy": mp.accuracy,
            "u0_tail_exponent": u0.tail.exponent,
            "u0_tail_coefficient": u0.tail.coefficient,
        },
        out.with_suffix(".json"),
    )
    return 0


def _cmd_jacobi(args) -> int:
    from .jacobi import assemble, generalized_kernel, top_eigenvalue
    from .minimal_surface import integrate_profile

    if args.spectrum:
        rmax = args.rmax if args.rmax else max(4.0 * args.rtrunc, 50.0 * args.b)
        mp = integrate_profile(args.n, args.b, rmax, tol=args.tol)
        jd = assemble(mp)
        lam = top_eigenvalue(jd, args.rtrunc, nodes=args.nodes)
        _dump_json(
            {"n": args.n, "b": args.b, "R_trunc": args.rtrunc, "nodes": args.nodes,
             "top_eigenvalue": lam, "nonpositive_within": max(lam, 0.0)},
            args.out,
        )
        return 0

    rmax = args.rmax if args.rmax else 10.0 ** (2.0 + args.jmax / 2.0) * args.b * 1.05
    mp = integrate_profile(args.n, args.b, rmax, tol=args.tol)
    jd = assemble(mp)
    elems = generalized_kernel(jd, args.jmax)
    out = Path(args.out)
    _manifest(out.parent, "jacobi",
              {"n": args.n, "b": args.b, "jmax": args.jmax, "rmax": rmax,
               "tol": args.tol, "out": str(out)})
    _write_csv(out, ["r"] + [f"u{e.j}" for e in elems],
               [jd.grid] + [e.u for e in elems])
    _dump_json(
        {
            "n": args.n,
            "b": args.b,
            "exponents": [
                {
                    "j": e.j,
                    "inner": e.inner_fit.exponent,
                    "inner_expected": 2.0 * e.j,
                    "outer": e.outer_fit.exponent,
                    "outer_expected": 2.0 * e.j + mp.alpha_fit,
                }
                for e in elems
            ],
        },
        out.with_suffix(".json"),
    )
    return 0


def _cmd_heat_kernel(args) -> int:
    from .cone_heat import decay_experiment
    from .params import derive_constants

    p = derive_constants(args.n, 2)  # mu depends on n alone
    t_grid = np.geomspace(args.tmin, args.tmax, args.points)
    exp = decay_experiment(p, args.delta, t_grid)
    out = Path(args.out)
    _manifest(out.parent, "heat-kernel",
              {"n": args.n, "delta": args.delta, "tmin": args.tmin,
               "tmax": args.tmax, "points": args.points, "out": str(out)})
    header, columns = ["t", "sup_ratio"], [exp.times, exp.sup_ratio]
    _write_csv(out, header, columns)
    _dump_json(
        {
            "n": args.n,
            "mu": p.mu,
            "delta": args.delta,
            "fitted_slope": exp.fit.exponent,
            "expected_slope": -args.delta / 2.0,
            "fit_resid": exp.fit.resid,
        },
        out.with_suffix(".json"),
    )
    if args.plot:
        plot_loglog(*columns, args.plot, *header)
    return 0


class _Required:
    """A config key that must be present, holding the JSON type of its value."""

    def __init__(self, type_):
        self.type = type_


# Every `mcf evolve` config key with the JSON type of its value: int takes a
# JSON integer, float any JSON number, bool a JSON boolean (which counts as
# neither), str a string; a dict is a nested object, and the profile's keys
# depend on its "kind".  Keys wrapped in _Required have no default.
_EVOLVE_KEYS = {
    "n": _Required(int), "T": float, "rmax": float, "nodes": int, "horizon": float,
    "target": float, "max_snapshots": int, "fit_rate": bool, "plot_rates": bool,
    "stops": {"Amax_cap": float, "Qmin_floor": float},
    "profile": _Required({
        "cylinder": {"c": float},
        "sphere": {"R0": float},
        "cone": {"rmin": float},
        "minimal": {"b": float, "tol": float, "rmin": float, "project_steady": bool},
        "file": {"path": _Required(str)},
    }),
}
_JSON_TYPE = {int: "an integer", float: "a number", bool: "a boolean", str: "a string",
              dict: "an object"}


def _is_json_type(value, expected) -> bool:
    if isinstance(value, bool):
        return expected is bool
    if expected is float:
        return isinstance(value, (int, float))
    return isinstance(value, expected)


def _config_errors(cfg) -> list[str]:
    """Error messages naming each `mcf evolve` config key that is required but
    missing, that nothing reads, or whose value has the wrong JSON type or is
    out of range; empty when the config is valid.  A config that is not a JSON
    object gets one message saying so."""
    if not isinstance(cfg, dict):
        return [f"the config must be a JSON object, got {json.dumps(cfg)}"]
    missing, unknown, mistyped = [], [], []

    def walk(obj: dict, table: dict, prefix: str) -> None:
        missing.extend(
            prefix + key for key, spec in table.items()
            if isinstance(spec, _Required) and key not in obj
        )
        for key in sorted(obj):
            name, value, expected = prefix + key, obj[key], table.get(key)
            if isinstance(expected, _Required):
                expected = expected.type
            json_type = dict if isinstance(expected, dict) else expected
            if expected is None:
                unknown.append(name)
            elif not _is_json_type(value, json_type):
                want = _JSON_TYPE[json_type]
                mistyped.append(f"{name} must be {want}, got {json.dumps(value)}")
            elif key == "profile":
                kind = value.get("kind")
                if not isinstance(kind, str):
                    mistyped.append(f"{name}.kind must be a string, got {json.dumps(kind)}")
                elif kind in expected:  # an unknown kind fails later, by name
                    walk(value, {"kind": str, **expected[kind]}, name + ".")
            elif json_type is dict:
                walk(value, expected, name + ".")

    walk(cfg, _EVOLVE_KEYS, "")
    errors = []
    if missing:
        errors.append(f"missing required config key(s): {', '.join(missing)}")
    if unknown:
        errors.append(f"unknown config key(s): {', '.join(unknown)}")
    if mistyped:
        errors.append(f"config value(s) of the wrong type: {'; '.join(mistyped)}")
    nodes = cfg.get("nodes")
    if _is_json_type(nodes, int) and nodes < 3:
        errors.append(f"config value out of range: nodes must be at least 3, got {nodes}")
    prof = cfg.get("profile")
    rmin = prof.get("rmin") if isinstance(prof, dict) else None
    for name, value in (("rmax", cfg.get("rmax")), ("profile.rmin", rmin)):
        if _is_json_type(value, float) and value <= 0:
            errors.append(f"config value out of range: {name} must be positive, "
                          f"got {json.dumps(value)}")
    return errors


def _rmin_below_rmax(rmin: float, rmax: float) -> float:
    if rmin >= rmax:
        raise ValueError(f"profile.rmin = {rmin:g} must be below rmax = {rmax:g}")
    return rmin


def _resolve_config(cfg: dict) -> dict:
    """A valid `mcf evolve` config with every default filled in.

    The computed defaults are the radii that become singular at T, the
    cylinder's c = sqrt(2(n-1)T) and the sphere's R0 = sqrt(2(2n-1)T);
    rmin = rmax/100 for a cone and b/100 for a minimal profile; and horizon =
    half the run's singular time.  `stops` is kept as given: its keys have no
    default.
    """
    n = cfg["n"]
    out = {"T": 1.0, "rmax": 1.0, "nodes": 400, "target": 1e-8, "max_snapshots": 50,
           "fit_rate": False, "plot_rates": False, "stops": {}, **cfg}
    prof = dict(cfg["profile"])
    kind = prof["kind"]
    if kind == "cylinder":
        prof.setdefault("c", math.sqrt(2.0 * (n - 1) * out["T"]))
    elif kind == "sphere":
        prof.setdefault("R0", math.sqrt(2.0 * (2 * n - 1) * out["T"]))
    elif kind == "cone":
        prof.setdefault("rmin", out["rmax"] / 100.0)
    elif kind == "minimal":
        prof = {"b": 1.0, "tol": 1e-10, "project_steady": False, **prof}
        prof.setdefault("rmin", prof["b"] * 1e-2)
    elif kind != "file":
        raise ValueError(f"unknown profile kind {kind!r}")
    out["profile"] = prof
    out.setdefault("horizon", 0.5 * _singular_time(out))
    return out


def _singular_time(cfg: dict) -> float:
    """T of a resolved config, or for a sphere the time its radius R0 sets."""
    prof = cfg["profile"]
    if prof["kind"] == "sphere":
        R0 = float(prof["R0"])
        return R0 * R0 / (2.0 * (2 * cfg["n"] - 1))
    return float(cfg["T"])


def _initial_state(cfg: dict):
    """The initial profile of a resolved `mcf evolve` config."""
    from . import flow
    from .minimal_surface import integrate_profile

    n, rmax, nodes = int(cfg["n"]), float(cfg["rmax"]), int(cfg["nodes"])
    prof = cfg["profile"]
    kind = prof["kind"]
    if kind == "cylinder":
        r = np.linspace(0.0, rmax, nodes)
        return flow.ProfileState(
            r=r, Q=np.full(nodes, float(prof["c"])), t=0.0,
            inner_bc=flow.BC("axis"), outer_bc=flow.BC("neumann0"),
        )
    if kind == "sphere":
        R0 = float(prof["R0"])
        if R0 <= rmax:
            raise ValueError(
                f"profile.R0 = {R0:g} must exceed rmax = {rmax:g}: the sphere "
                "has no graph over [0, rmax]"
            )
        r = np.linspace(0.0, rmax, nodes)

        def edge(t, _r=rmax, _c=2.0 * (2 * n - 1), _T=_singular_time(cfg)):
            return math.sqrt(_c * (_T - t) - _r * _r)

        return flow.ProfileState(
            r=r, Q=np.sqrt(R0 * R0 - r * r), t=0.0,
            inner_bc=flow.BC("axis"), outer_bc=flow.BC("dirichlet", fn=edge),
        )
    if kind == "cone":
        rmin = _rmin_below_rmax(float(prof["rmin"]), rmax)
        r = np.linspace(rmin, rmax, nodes)
        return flow.ProfileState(r=r, Q=r.copy(), t=0.0)
    if kind == "minimal":
        b = float(prof["b"])
        rmin = _rmin_below_rmax(float(prof["rmin"]), rmax)
        mp = integrate_profile(n, b, max(rmax * 2.0, 50.0 * b), tol=float(prof["tol"]))
        r = np.geomspace(rmin, rmax, nodes)
        state = flow.ProfileState(r=r, Q=mp.jet(r)[0], t=0.0)
        return flow.discrete_steady(n, state) if prof["project_steady"] else state
    r, q = _read_profile_csv(prof["path"])
    return flow.ProfileState(r=r, Q=q, t=0.0)


def _cmd_evolve(args) -> int:
    from . import flow

    cfg = json.loads(Path(args.config).read_text())
    errors = _config_errors(cfg)
    for line in errors:
        print(f"mcf evolve: error: {line}", file=sys.stderr)
    if errors:
        return EX_USAGE
    cfg = _resolve_config(cfg)
    state = _initial_state(cfg)
    T = _singular_time(cfg)
    traj, diag = flow.evolve(
        state, int(cfg["n"]), float(cfg["horizon"]), stop=cfg["stops"],
        target=float(cfg["target"]), max_snapshots=int(cfg["max_snapshots"]),
    )
    # nothing is written until the run has been accepted and finished
    out_dir = Path(args.out)
    _manifest(out_dir, "evolve", cfg)
    for i, snap in enumerate(traj):
        _write_csv(out_dir / f"snapshot_{i:04d}.csv", ["r", "Q"], [snap.r, snap.Q])
    _write_csv(out_dir / "diagnostics.csv", ["t", "Hmax", "Amax", "Qmin"],
               [diag.times, diag.Hmax, diag.Amax, diag.Qmin])
    report = {
        "snapshots": len(traj),
        "steps": int(len(diag.times) - 1),
        "t_final": float(diag.times[-1]),
        "T": T,
        "T_est": diag.T_est,
        "stopped_by": diag.stopped_by,
    }
    if cfg["fit_rate"] and diag.times[-1] < T:
        from .errors import WindowTooNarrow

        try:
            fit = flow.fit_rate(diag.times, diag.Amax, T)
            report["Amax_rate_exponent"] = fit.exponent
            report["Amax_rate_resid"] = fit.resid
        except WindowTooNarrow as exc:
            report["Amax_rate_note"] = str(exc)
    _dump_json(report, out_dir / "report.json")
    if cfg["plot_rates"] and diag.times[-1] < T:
        header, columns = ["T_minus_t", "Amax"], [T - diag.times, diag.Amax]
        _write_csv(out_dir / "rate.csv", header, columns)
        plot_loglog(*columns, out_dir / "rate.svg", *header)
    return 0


def _cmd_barriers(args) -> int:
    from .barriers import (bracket_constant, domination_margin, supersolution,
                           supersolution_residual)
    from .params import derive_constants

    p = derive_constants(args.n, args.k, T=args.T)
    s = supersolution(p, args.c0)
    rng = np.random.default_rng(args.seed)
    ts = rng.uniform(0.0, p.T * (1.0 - 1e-3), args.samples)
    rs = s.validity_radius(ts) * (1.0 + rng.uniform(1e-2, 50.0, args.samples))
    res = supersolution_residual(s, args.qr_bound, np.column_stack([rs, ts]))

    # threshold inequality: with C_bar = C0 - C1/Gamma^2 >= 0 the barrier
    # dominates C_bar r^{2 lam + 1} on r >= Gamma sqrt(T-t)
    c_bar = s.C0 - s.C1 / args.gamma**2
    margin = None
    if c_bar >= 0.0:
        r_edge = args.gamma * np.sqrt(p.T - ts)
        r_test = r_edge * (1.0 + rng.uniform(0.0, 10.0, args.samples))
        margin = domination_margin(s, args.gamma, r_test, ts)
    payload = {
        "n": args.n,
        "k": args.k,
        "T": p.T,
        "C0": s.C0,
        "C1": s.C1,
        "bracket": bracket_constant(p.n, p.lambda_k),
        "Qr_bound": args.qr_bound,
        "samples": args.samples,
        "seed": args.seed,
        "min_residual": res,
        "residual_nonnegative": bool(res >= -1e-12),
        "gamma": args.gamma,
        "C_bar": c_bar,
        "domination_margin": margin,
        "domination_holds": (None if margin is None else bool(margin >= -1e-12)),
    }
    out = Path(args.out) if args.out else None
    if out:
        _manifest(out.parent, "barriers",
                  {k: payload[k] for k in
                   ("n", "k", "T", "C0", "Qr_bound", "samples", "seed", "gamma")})
    _dump_json(payload, out)
    if not payload["residual_nonnegative"]:
        raise HypothesisError(f"supersolution residual {res:.3e} went negative")
    return 0


def _cmd_verify_all(args) -> int:
    from .verify import CRITERIA, run_criterion

    chosen = [c for c in CRITERIA if c.quick or not args.quick]
    passed = 0
    for c in chosen:
        ok, line = run_criterion(c)
        print(line, flush=True)
        passed += ok
    print(f"{passed}/{len(chosen)} criteria passed")
    return 0 if passed == len(chosen) else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="mcf", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"mcf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("constants", help="derived constants and admissibility")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--a", type=float, default=None)
    c.add_argument("--T", type=float, default=1.0)
    c.add_argument("--format", choices=("json", "csv"), default="json")
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_constants)

    c = sub.add_parser("curvature", help="curvature data of a profile at one radius")
    c.add_argument("--profile", required=True,
                   help="cone | cylinder:c | sphere:R | path.csv (header r,Q)")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--at", type=float, required=True)
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_curvature)

    c = sub.add_parser("minimal-surface", help="shoot the minimal profile, write CSV+JSON")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--b", type=float, default=1.0)
    c.add_argument("--rmax", type=float, default=100.0)
    c.add_argument("--tol", type=float, default=1e-10)
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_minimal_surface)

    c = sub.add_parser("jacobi", help="generalized kernel ladder or spectral bound")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--b", type=float, default=1.0)
    c.add_argument("--jmax", type=int, default=3)
    c.add_argument("--rmax", type=float, default=None)
    c.add_argument("--tol", type=float, default=1e-10)
    c.add_argument("--spectrum", action="store_true")
    c.add_argument("--rtrunc", type=float, default=50.0)
    c.add_argument("--nodes", type=int, default=4000)
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_jacobi)

    c = sub.add_parser("heat-kernel", help="Bessel kernel decay-rate experiment")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--delta", type=float, required=True)
    c.add_argument("--tmin", type=float, default=1.0)
    c.add_argument("--tmax", type=float, default=100.0)
    c.add_argument("--points", type=int, default=10)
    c.add_argument("--out", required=True)
    c.add_argument("--plot", default=None, help="optional SVG path for the loglog curve")
    c.set_defaults(func=_cmd_heat_kernel)

    c = sub.add_parser("evolve", help="run the profile flow from a JSON config")
    c.add_argument("--config", required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_evolve)

    c = sub.add_parser("barriers", help="supersolution residual and domination report")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--c0", type=float, default=1.0, dest="c0")
    c.add_argument("--T", type=float, default=1.0)
    c.add_argument("--gamma", type=float, default=10.0)
    c.add_argument("--qr-bound", type=float, default=2.0, dest="qr_bound")
    c.add_argument("--samples", type=int, default=10000)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_barriers)

    c = sub.add_parser("verify-all", help="run the acceptance criteria")
    c.add_argument("--quick", action="store_true",
                   help="only the criteria that run no flow code")
    c.set_defaults(func=_cmd_verify_all)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except HypothesisError as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
