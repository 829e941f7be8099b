"""mcflab benchmark: run one workload in a closed loop and print its metrics.

    python3 perfbench/run.py --workload evolve-cylinder --seed 17 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; mcflab is imported from src/ there.
One caller runs units back to back in this process and starts a new one only
while the median unit so far would still end within --seconds.  Each unit is
timed, then checked against its oracle outside the timed region.

--trace 0 prints the end_to_end metrics of BENCHMARK.json, with times at a
reference host speed (perfbench/speed.py); --trace 1 alternates traced and
untraced units and prints the per_layer metrics, in wall seconds.  The
last stdout line is one JSON object; a readable summary precedes it, and
per-unit records and spans go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from speed import REF_S, SpeedProbe, interpreter_speed, reference_seconds, setup_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 4  # set-ups in fresh interpreters, besides this process's own
SPAN_COUNTS = {  # span name -> count that must repeat exactly for one input
    "flow.solve_banded": "flow.banded_solves",
    "minimal_surface.jet": "minimal_surface.jet.calls",
    "cone_heat.heat_kernel": "cone_heat.heat_kernel.calls",
}


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the CPUs this process may use; before numpy loads."""
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            cur = int(os.environ[var])
        except (KeyError, ValueError):
            cur = cap
        os.environ[var] = str(max(1, min(cur, cap)))
    return cap


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=17)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child(args, workload, *extra) -> list[str]:
    """Run this script for one workload in a fresh interpreter; its stdout lines."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=900,
    )
    return proc.stdout.strip().splitlines()


@dataclass
class UnitRecord:
    unit: int
    traced: bool
    elapsed: float = 0.0  # timed region
    ref: float = 0.0  # timed region at reference host speed; 0 when traced
    speed: list = field(default_factory=list)  # calibration kernel samples
    wall: float = 0.0  # timed region plus checks
    failures: list = field(default_factory=list)
    check: object = None  # workloads.Check once the checks ran
    spans: dict = field(default_factory=dict)  # Tracer.unit_summary of a traced unit

    def as_dict(self) -> dict:
        chk = self.check
        return {
            "unit": self.unit, "traced": self.traced, "elapsed_s": self.elapsed,
            "ref_s": self.ref, "speed_samples": len(self.speed),
            "speed_mean_s": statistics.fmean(self.speed) if self.speed else None,
            "wall_s": self.wall, "failures": self.failures,
            "digits": chk.digits if chk else None,
            "group": chk.group if chk else None,
            "counts": chk.counts if chk else {},
        }


def run_unit(wl, unit: int, tracer, probe) -> UnitRecord:
    """One timed unit and its checks; `probe` samples host speed, or is None."""
    rec = UnitRecord(unit, tracer is not None)
    start = perf_counter()
    root = tracer.begin_unit(unit) if tracer else None
    if probe:
        probe.start()
    out = error = None
    try:
        out = wl.timed(unit)
    except Exception as exc:  # a unit that raises counts as failed
        error = exc
    finally:
        if probe:
            rec.speed = probe.stop()
        rec.elapsed = perf_counter() - start
        if tracer:
            tracer.end_unit(root)
    if probe:
        rec.ref = reference_seconds(rec.elapsed, rec.speed)
    if error is None:
        try:
            rec.check = wl.check(unit, out)
            rec.failures.extend(rec.check.failures)
        except Exception as exc:  # a check that cannot run is a missed check
            error = exc
    if error is not None:
        traceback.print_exception(error, file=sys.stderr)
        rec.failures.append(f"{type(error).__name__}: {error}")
    if tracer:
        rec.spans = tracer.unit_summary(unit)
        if rec.check:
            rec.check.counts.update(
                {count: rec.spans.get(name, {}).get("calls", 0)
                 for name, count in SPAN_COUNTS.items()}
            )
    rec.wall = perf_counter() - start
    return rec


def check_determinism(records, key: str) -> None:
    """Counts of one group must repeat across units, and across runs of one key."""
    path = OUT / "counts" / f"{key}.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    for rec in records:
        if rec.check is None:
            continue
        ref = seen.setdefault(rec.check.group, {})
        for name, value in rec.check.counts.items():
            if ref.setdefault(name, value) != value:
                rec.failures.append(
                    f"count {name} of {rec.check.group} is {value}, earlier {ref[name]}"
                )
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, path)


def end_to_end(records, setups) -> dict:
    passed = [r.ref for r in records if not r.failures]
    digits = [r.check.digits for r in records if r.check and r.check.digits is not None]
    return {
        "setup_s": statistics.median(s["ref"] for s in setups),
        "solve_s": statistics.median(passed or [r.ref for r in records]),
        "oracle_digits": min(digits) if digits else 0.0,
        "pass_frac": len(passed) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def unit_layers(rec: UnitRecord) -> dict:
    """Per-layer figures of one traced unit from its span summary."""
    spans = rec.spans

    def get(name, key="s"):
        return spans.get(name, {}).get(key, 0)

    info = spans.get("flow.evolve", {}).get("info", {})
    steps = info.get("accepted_steps", 0)
    covered = info.get("t_covered", 0.0)
    solves = get("flow.solve_banded", "calls")
    files, size = rec.check.artifacts if rec.check and rec.check.artifacts else (0, 0)
    return {
        "flow.evolve.self_s": get("flow.evolve", "self_s"),
        "flow.accepted_steps": steps,
        "flow.steps_per_horizon": steps / covered if covered else 0.0,
        "flow.banded_solves": solves,
        "flow.banded_solve.s": get("flow.solve_banded"),
        "flow.solves_per_step": solves / steps if steps else 0.0,
        "flow.newton_iter_us": 1e6 * get("flow.evolve") / solves if solves else 0.0,
        "flow.profile_curvature.s": get("flow.profile_curvature"),
        "flow.profile_curvature.calls": get("flow.profile_curvature", "calls"),
        "cli.evolve.self_s": get("cli.evolve", "self_s"),
        "cli.artifact_bytes": size,
        "cli.artifact_files": files,
        "minimal_surface.integrate_profile.s": get("minimal_surface.integrate_profile"),
        "minimal_surface.integrate_profile.calls":
            get("minimal_surface.integrate_profile", "calls"),
        "minimal_surface.jet.calls": get("minimal_surface.jet", "calls"),
        "jacobi.assemble.s": get("jacobi.assemble"),
        "jacobi.generalized_kernel.s": get("jacobi.generalized_kernel"),
        "jacobi.indicial_roots.self_s": get("jacobi.indicial_roots", "self_s"),
        "jacobi.top_eigenvalue.s": get("jacobi.top_eigenvalue"),
        "cone_heat.decay_experiment.self_s": get("cone_heat.decay_experiment", "self_s"),
        "cone_heat.propagate.s": get("cone_heat.propagate"),
        "cone_heat.propagate.calls": get("cone_heat.propagate", "calls"),
        "cone_heat.heat_kernel.calls": get("cone_heat.heat_kernel", "calls"),
        "cone_heat.bessel_I.s": get("cone_heat.bessel_I"),
        "trace.top_spans_s": get("unit") - get("unit", "self_s"),
        "trace.harness_self_s": get("unit", "self_s"),
    }


def per_layer(records) -> dict:
    traced = [r for r in records if r.traced]
    rows = [unit_layers(r) for r in traced]
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    out["trace.unit_s"] = statistics.median(r.elapsed for r in traced)
    out["trace.untraced_unit_s"] = statistics.median(
        r.elapsed for r in records if not r.traced
    )
    out["trace.overhead_s"] = out["trace.unit_s"] - out["trace.untraced_unit_s"]
    return out


def environment(cap: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "cpu": cpu, "platform": platform.platform(),
        "nproc": os.cpu_count(), "cpus_usable": cap,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_all(args, names) -> int:
    """Every workload in its own process; one JSON line for all at the end."""
    results = {}
    for name in names:
        lines = child(args, name)
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, names)
    cap = cap_threads()
    if not (SRC / "mcflab" / "__init__.py").is_file():
        print(f"perfbench: no mcflab sources in {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, names)
    sys.path.insert(0, str(SRC))
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        before = interpreter_speed()
        start = perf_counter()
        import workloads  # numpy, scipy and mcflab load here: part of set-up

        wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        wall = perf_counter() - start
        own_setup = {"ref": setup_reference(wall, before, interpreter_speed()), "wall": wall}
        if Path(workloads.mcflab.__file__).resolve().parent != SRC / "mcflab":
            print(f"perfbench: mcflab came from {workloads.mcflab.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        if args.setup_probe:
            print(json.dumps(own_setup))
            return 0
        setups = [own_setup] + [
            json.loads(child(args, args.workload, "--setup-probe")[-1])
            for _ in range(SETUP_PROBES)
        ]
        return measure(args, spec, cap, wl, setups, workloads.trace_targets())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args, spec, cap, wl, setups, targets) -> int:
    from spans import Tracer

    tracer = Tracer(targets) if args.trace else None
    probe = None if tracer else SpeedProbe()
    records: list[UnitRecord] = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(records) % 2 == 0
        records.append(run_unit(wl, len(records), tracer if traced else None, probe))
        next_end = perf_counter() - start + statistics.median(r.wall for r in records)
        if next_end > args.seconds and (tracer is None or len(records) >= 2):
            break

    check_determinism(records, f"{wl.name}-seed{args.seed}" if wl.seeded else wl.name)
    declared = spec["per_layer" if tracer else "end_to_end"]
    metrics = per_layer(records) if tracer else end_to_end(records, setups)
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    failed = sum(bool(r.failures) for r in records)
    env = environment(cap)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"units {len(records)}  failed {failed}  fail_frac {failed / len(records):.4g}")
    for m in declared:
        print(f"  {m['name']:<40} {metrics[m['name']]:>14.6g} {m['unit']}")
    if not tracer:
        print(f"  {'fail_frac':<40} {failed / len(records):>14.6g} fraction")
        wall = statistics.median(r.elapsed for r in records)
        speed = statistics.fmean([c for r in records for c in r.speed] or [REF_S])
        print(f"  solve_s: median of {len(records) - failed} passed units at reference "
              f"speed; median unit wall time {wall:.4g} s, calibration kernel "
              f"{speed / REF_S:.3g}x its reference time")
        print(f"  setup_s: median of {len(setups)} set-ups at reference speed; "
              f"median wall time {statistics.median(s['wall'] for s in setups):.4g} s")
    for rec in records:
        for why in rec.failures:
            print(f"  unit {rec.unit} FAILED: {why}")
    print("  env " + json.dumps(env, sort_keys=True))

    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps({
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env, "setups_s": setups,
        "metrics": metrics, "fail_frac": failed / len(records),
        "units": [r.as_dict() for r in records],
    }, indent=1, sort_keys=True))
    if tracer:
        tracer.write_csv(OUT / f"spans-{wl.name}.csv")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
