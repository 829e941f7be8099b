"""The benchmark workloads: inputs, one timed unit of work, and its oracle checks.

Importing this module imports numpy, scipy and mcflab; the runner times that
import as part of set-up.  Every workload offers

  * ``timed(unit)``: the unit of work the benchmark times, calling mcflab only
    through module attributes so that the tracer's wrappers are seen;
  * ``check(unit, output)``: untimed oracle checks, returning a ``Check``.

Tolerances are those of tests/test_acceptance.py and tests/test_jacobi.py.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.sparse import diags_array

import mcflab
from mcflab import cli, cone_heat, flow, jacobi, minimal_surface
from mcflab.params import derive_constants

EPS = float(np.finfo(float).eps)


def digits(dev: float) -> float:
    """-log10 of a relative deviation, floored at machine epsilon."""
    return -math.log10(max(dev, EPS))


@dataclass
class Check:
    """Outcome of one unit's oracle checks."""

    group: str  # units of one group must repeat every count exactly
    counts: dict
    failures: list = field(default_factory=list)
    digits: float | None = None
    artifacts: tuple[int, int] | None = None  # (files, bytes)

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


class EvolveCylinder:
    """`mcf evolve` in-process on the README cylinder config at N=4000."""

    name = "evolve-cylinder"
    seeded = False
    config = {
        "n": 4, "T": 1.0, "rmax": 1.0, "nodes": 4000,
        "profile": {"kind": "cylinder"},
        "horizon": 0.9, "target": 1e-8,
        "stops": {"Qmin_floor": 0.2},
        "fit_rate": True, "plot_rates": True,
    }

    def __init__(self, seed: int, work_dir):
        self.config_path = work_dir / "cylinder.json"
        self.config_path.write_text(json.dumps(self.config))
        self.work_dir = work_dir

    def timed(self, unit: int):
        out = self.work_dir / f"evolve-{unit}"
        return cli.main(["evolve", "--config", str(self.config_path), "--out", str(out)])

    def check(self, unit: int, code) -> Check:
        out = self.work_dir / f"evolve-{unit}"
        raw = (out / "report.json").read_bytes()
        report = json.loads(raw)
        files = [p for p in out.rglob("*") if p.is_file()]
        chk = Check(
            group="unit",
            counts={
                "flow.accepted_steps": report["steps"],
                "report_sha256": hashlib.sha256(raw).hexdigest(),
            },
            artifacts=(len(files), sum(p.stat().st_size for p in files)),
        )
        chk.require(code == 0, f"mcf evolve exited with {code}")
        n, T = self.config["n"], self.config["T"]
        qmin = np.loadtxt(out / "diagnostics.csv", delimiter=",", skiprows=1)[-1, 3]
        shutil.rmtree(out)
        rel = abs(qmin / math.sqrt(2.0 * (n - 1) * (T - report["t_final"])) - 1.0)
        chk.digits = digits(rel)
        chk.require(rel <= 1e-4, f"cylinder Qmin deviates {rel:.2e} from sqrt(2(n-1)(T-t))")
        rate = report.get("Amax_rate_exponent")
        chk.require(
            rate is not None and abs(rate + 0.5) <= 0.005,
            f"Amax rate exponent {rate} is not -0.5 +- 0.005",
        )
        return chk


class EvolveRough:
    """Ordered rough profile pairs through flow.evolve (comparison principle)."""

    name = "evolve-rough"
    seeded = True
    n = 4
    grid = np.linspace(0.2, 2.0, 120)
    horizon = 0.05
    target = 1e-8
    pairs_per_seed = 3

    def __init__(self, seed: int, work_dir):
        self.pairs = rough_pairs(seed, self.pairs_per_seed, self.grid)
        self._reference: dict[int, list] = {}

    def timed(self, unit: int):
        return [
            flow.evolve(
                flow.ProfileState(r=self.grid, Q=q, t=0.0), self.n, self.horizon,
                target=self.target,
            )
            for q in self.pairs[unit % self.pairs_per_seed]
        ]

    def check(self, unit: int, runs) -> Check:
        k = unit % self.pairs_per_seed
        (lo, dlo), (hi, dhi) = runs
        chk = Check(
            group=f"pair{k}",
            counts={
                "flow.accepted_steps.lower": len(dlo.times) - 1,
                "flow.accepted_steps.upper": len(dhi.times) - 1,
            },
        )
        for diag in (dlo, dhi):
            chk.require(
                abs(diag.times[-1] - self.horizon) <= 1e-12,
                f"run stopped at t={diag.times[-1]} ({diag.stopped_by})",
            )
        chk.require(
            all(np.all(s.Q > 0.0) for s in lo + hi), "a profile lost positivity"
        )
        chk.require(
            bool(np.all(hi[-1].Q > lo[-1].Q)), "upper profile fell below the lower one"
        )
        if k not in self._reference:
            self._reference[k] = [
                reference_final(self.n, self.grid, q, self.horizon) for q in self.pairs[k]
            ]
        dev = max(
            float(np.max(np.abs(traj[-1].Q - ref) / np.abs(ref)))
            for traj, ref in zip((lo, hi), self._reference[k])
        )
        chk.digits = digits(dev)
        return chk


def rough_pairs(seed: int, count: int, r: np.ndarray) -> list:
    """Ordered (lower, upper) profiles, drawn as in test_comparison_principle."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        base = 1.0 + 0.3 * rng.uniform(0.2, 1.0) * np.sin(rng.uniform(1, 3) * r)
        gap = 0.05 + 0.1 * rng.uniform(0.0, 1.0, r.size)
        pairs.append((base, base + gap))
    return pairs


def reference_final(n: int, r: np.ndarray, Q0: np.ndarray, horizon: float) -> np.ndarray:
    """Final profile of the same semi-discrete flow, by scipy's Radau at rtol 1e-11.

    Centered differences on the uniform grid with pinned ends: the spatial
    discretization of flow.evolve, so the deviation measures time-integration
    error alone.  At rtol 1e-11 the reference sits ~1e-13 from one at 1e-13.
    """
    h = r[1] - r[0]

    def rhs(t, Q):
        F = np.zeros_like(Q)
        q1 = (Q[2:] - Q[:-2]) / (2.0 * h)
        q2 = (Q[2:] - 2.0 * Q[1:-1] + Q[:-2]) / (h * h)
        F[1:-1] = q2 / (1.0 + q1 * q1) + (n - 1) * q1 / r[1:-1] - (n - 1) / Q[1:-1]
        return F

    N = r.size
    sparsity = diags_array([np.ones(N - 1), np.ones(N), np.ones(N - 1)], offsets=[-1, 0, 1])
    sol = solve_ivp(
        rhs, (0.0, horizon), Q0, method="Radau", rtol=1e-11, atol=1e-13,
        jac_sparsity=sparsity,
    )
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


class SurfaceSpectrum:
    """Minimal surface, Jacobi operator and cone heat kernel; no flow code."""

    name = "surface-spectrum"
    seeded = False
    dims = (4, 5, 7)
    r_max = 10.0**3.5
    decay_cases = ((4, 1.0), (5, 2.0))
    decay_times = np.geomspace(1.0, 100.0, 10)

    def __init__(self, seed: int, work_dir):
        self.alpha = {n: derive_constants(n, 2).alpha for n in self.dims}
        self.decay_params = [(derive_constants(n, 3), delta) for n, delta in self.decay_cases]

    def timed(self, unit: int):
        per_dim = []
        for n in self.dims:
            mp = minimal_surface.integrate_profile(n, 1.0, self.r_max, tol=1e-12)
            jd = jacobi.assemble(mp)
            jacobi.generalized_kernel(jd, 3)
            roots = jacobi.indicial_roots(n, jd)
            w = jacobi.wronskian(jd, roots)
            lam = jacobi.top_eigenvalue(jd, 50.0, nodes=4000)
            per_dim.append((n, mp, jd, w, lam))
        decays = [
            (delta, cone_heat.decay_experiment(p, delta, self.decay_times))
            for p, delta in self.decay_params
        ]
        return per_dim, decays

    def check(self, unit: int, output) -> Check:
        per_dim, decays = output
        chk = Check(group="unit", counts={})
        worst_w = 0.0
        for n, mp, jd, w, lam in per_dim:
            _, _, W, u0, _, u0p, Wp = jd.coefficients_at(jd.grid)
            res0 = float(np.abs(jacobi.apply_L(jd, u0, jets=(u0p, (Wp + W * W) * u0))).max())
            chk.require(res0 <= 1e-6, f"n={n}: L u0 residual {res0:.2e} > 1e-6")
            fit = minimal_surface.fit_tail(mp, window=(20.0, 200.0))
            tail_dev = abs(fit.exponent / self.alpha[n] - 1.0)
            chk.require(tail_dev <= 0.05, f"n={n}: tail exponent off alpha by {tail_dev:.2%}")
            chk.require(lam <= 1e-3, f"n={n}: top eigenvalue {lam:.2e} > 1e-3")
            spread = float((w.max() - w.min()) / np.abs(w).max())
            chk.require(spread <= 0.01, f"n={n}: Wronskian varies by {spread:.2e}")
            worst_w = max(worst_w, spread)
        for delta, exp in decays:
            dev = abs(exp.fit.exponent + delta / 2.0) / (delta / 2.0)
            chk.require(dev <= 0.15, f"delta={delta}: decay slope off by {dev:.2%}")
        chk.digits = digits(worst_w)
        return chk


WORKLOADS = {w.name: w for w in (EvolveCylinder, EvolveRough, SurfaceSpectrum)}


def _accepted_steps(result) -> dict:
    _, diag = result
    return {
        "accepted_steps": len(diag.times) - 1,
        "t_covered": float(diag.times[-1] - diag.times[0]),
    }


def trace_targets():
    """(owner, attribute, span name, result hook) for every traced layer call."""
    return [
        (cli, "main", "cli.evolve", None),
        (flow, "evolve", "flow.evolve", _accepted_steps),
        (flow, "solve_banded", "flow.solve_banded", None),
        (flow, "profile_curvature", "flow.profile_curvature", None),
        (minimal_surface, "integrate_profile", "minimal_surface.integrate_profile", None),
        (minimal_surface.MinimalProfile, "jet", "minimal_surface.jet", None),
        (jacobi, "assemble", "jacobi.assemble", None),
        (jacobi, "generalized_kernel", "jacobi.generalized_kernel", None),
        (jacobi, "indicial_roots", "jacobi.indicial_roots", None),
        (jacobi, "top_eigenvalue", "jacobi.top_eigenvalue", None),
        (cone_heat, "decay_experiment", "cone_heat.decay_experiment", None),
        (cone_heat, "propagate", "cone_heat.propagate", None),
        (cone_heat, "heat_kernel", "cone_heat.heat_kernel", None),
        (cone_heat, "bessel_I", "cone_heat.bessel_I", None),
    ]
