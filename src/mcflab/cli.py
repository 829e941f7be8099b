"""Command line entry point (`mcf`).

Subcommands: constants, curvature, minimal-surface, jacobi, heat-kernel,
evolve, barriers, verify-all.  Conventions:

  * exit 0 on success, 2 on any package error (mcflab.errors.MCFError) or
    ValueError -- a stated hypothesis or a validation that failed --, 64 on
    usage errors, and 1 on I/O errors and on exceptions from outside the
    package, which are bugs;
  * every command that writes a file also writes manifest.json beside it,
    echoing the parsed arguments (for `mcf evolve` the fully resolved
    config) and the package version -- no timestamps, so reruns with
    identical inputs are byte-identical;
  * CSV with a header row for tables (%.17g fields, no quoting, CRLF line
    ends, in a file or on stdout), JSON for scalar reports (never NaN or
    Infinity, which are not JSON), SVG (own deterministic writer) for plots;
  * a flag value out of its range, and an `mcf evolve` config key that is
    unknown, required but missing, or whose value has the wrong JSON type or
    is out of range on its own, is a usage error that names the flag or key;
  * `mcf verify-all` prints one line per acceptance criterion of
    mcflab.verify, listing each check as `label worst op bound`, and exits
    2 if any criterion fails; a criterion whose measure raises fails, and
    the criteria after it still run.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, flow
from .barriers import (bracket_constant, domination_constant, domination_margin,
                       residual_samples, supersolution, supersolution_residual)
from .errors import HypothesisError, MCFError, WindowTooNarrow
from .geometry import ProfileJet, check_radii, curvature, fd_jet, normal_position, unit_normal
from .params import derive_constants, exponent_condition
from .svgplot import plot_loglog

EX_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EX_USAGE)


# A range a number must lie in: the words that name it, and its test.
_POSITIVE = ("positive", lambda v: v > 0)


def _at_least(low):
    return (f"at least {low}", lambda v: v >= low)


def _range_error(value, allowed) -> str | None:
    """What value must be but is not: finite, or within the range `allowed`."""
    if isinstance(value, float) and not math.isfinite(value):
        return "finite"
    if allowed is not None and not allowed[1](value):
        return allowed[0]
    return None


def _flag(type_, allowed):
    """An argparse type: a finite number of type_ within the range `allowed`."""

    def parse(text):
        value = type_(text)
        why = _range_error(value, allowed)
        if why:
            raise argparse.ArgumentTypeError(f"must be {why}, got {text}")
        return value

    parse.__name__ = type_.__name__  # argparse's "invalid <name> value" message
    return parse


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _emit(data: bytes, out=None) -> None:
    """Write data to the file `out`, or to stdout if out is None."""
    if out is None:
        sys.stdout.flush()  # text printed before stays before
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(out, "wb") as fh:  # not Path.write_bytes: ~13 us more a file (2-vCPU Xeon)
            fh.write(data)


def _dump_json(payload, out=None) -> None:
    """Print or write payload as JSON; NaN and Infinity, which are not JSON, raise ValueError."""
    _emit((json.dumps(payload, indent=2, sort_keys=True, default=_json_default,
                      allow_nan=False) + "\n").encode(), out)


_FIELD_WIDTH = 24  # the longest %.17g field: "-2.2250738585072014e-308"
_CSV_BATCH = 4096  # values per _csv_fields call when many files are formatted


@functools.cache
def _digit_tables():
    """10**m for m = 0..20 as exact doubles; the ASCII digits of each 4-digit
    group g (row j holds digit j of every g); the trailing zeros of each g."""
    g = np.arange(10000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10])
    trailing = np.cumprod(digits[::-1] == 0, axis=0).sum(axis=0).astype(np.int8)
    return np.array([float(10**m) for m in range(21)]), (digits + 48).astype(np.uint8), trailing


def _veltkamp(a):
    """a = hi + lo exactly, each half with at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _round_scaled(a, m):
    """round-half-even(a * 10**m) as int64: exact wherever the product is at
    least 2**53 (Dekker's TwoProduct; see _write_csv)."""
    b = _digit_tables()[0].take(m)
    p = a * b
    ah, al = _veltkamp(a)
    bh, bl = _veltkamp(b)
    e = ah * bh - p
    e += ah * bl
    e += al * bh
    e += al * bl
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _csv_fields(values) -> np.ndarray:
    """The %.17g fields of values, as a (width, len(values)) uint8 array.

    Column i holds the characters of field i with NULs among them, which
    _write_csv deletes; a row that is NUL in every column is dropped.  Each
    finite |x| in [1e-4, 1e17) has a decimal exponent X in -4..16, which %.17g
    writes in fixed notation: D = round(|x| 10**(16-X)) is its 17 digits, and
    the point goes after digit X (after X zeros, for X < 0).  Every other value
    (0, -0.0, inf, nan and the rest) takes '%.17g' % v.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    _, lut, trailing = _digit_tables()
    a = np.abs(x)
    fast = np.flatnonzero((a >= 1e-4) & (a < 1e17))
    a = a[fast]
    X = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int8)
    D = _round_scaled(a, 16 - X.astype(np.intp))
    off = np.flatnonzero((D < 10**16) | (D >= 10**17))  # log10 or the rounding crossed a power of 10
    if off.size:
        X[off] += np.where(D[off] < 10**16, -1, 1).astype(np.int8)
        D[off] = _round_scaled(a[off], np.clip(16 - X[off].astype(np.intp), 0, 20))
        keep = (D >= 10**16) & (D < 10**17) & (X >= -4) & (X <= 16)
        fast, D, X = fast[keep], D[keep], X[keep]
    n = D.size
    top = D // 10**8
    low = (D - top * 10**8).astype(np.int32)
    top = top.astype(np.int32)
    lead = top // 10**8
    mid = top - lead * 10**8
    hi, lo = mid // 10**4, low // 10**4
    groups = (hi, mid - hi * 10**4, lo, low - lo * 10**4)  # 4 digits each
    # E = buf[1:]: four zeros, then the 17 digits of D; buf[0] is a NUL
    buf = np.empty((23, n), np.uint8)
    buf[0] = 0
    buf[1:5] = ord("0")
    np.add(lead, ord("0"), out=buf[5], casting="unsafe")
    for k, g in enumerate(groups):
        np.take(lut, g, axis=1, out=buf[6 + 4 * k:10 + 4 * k])
    zeros = trailing.take(groups[3])
    more = groups[3] == 0
    for g in groups[2::-1]:
        zeros += np.where(more, trailing.take(g), 0).astype(np.int8)
        more &= g == 0
    point = X + 5  # E index of the first fraction digit
    cut = np.maximum(21 - zeros, point)  # E index of the first trailing zero
    at = np.arange(22, dtype=np.int8)[:, None]
    body = np.where(at < point, buf[1:], buf[:22])  # E with the point's place opened
    body[(at < np.minimum(X, 0) + 4) | (at > cut)] = 0
    body[point.astype(np.intp), np.arange(n)] = np.where(cut == point, 0, ord("."))
    fields = np.zeros((_FIELD_WIDTH, x.size), np.uint8)
    fields[0] = np.where(np.signbit(x), ord("-"), 0)
    fields[1:23, fast] = body
    rest = np.ones(x.size, bool)
    rest[fast] = False
    if rest.any():
        text = ["%.17g" % v for v in x[rest].tolist()]
        fields[:, rest] = np.array(text, dtype=f"S{_FIELD_WIDTH}").view(np.uint8).reshape(
            -1, _FIELD_WIDTH).T
    return fields[fields.any(axis=1)]


def _csv_rows(columns) -> np.ndarray:
    """The CSV rows of field columns, as a uint8 array (..., rows, width).

    Each column is a (width_k, ..., rows) array from _csv_fields; leading axes
    broadcast, so one grid column serves a batch of files.  The fields are
    joined by commas and each row ends in CRLF.
    """
    shape = np.broadcast_shapes(*(c.shape[1:] for c in columns))
    width = sum(c.shape[0] + 1 for c in columns) + 1
    rows = np.empty(shape + (width,), np.uint8)
    at = 0
    for c in columns:
        rows[..., at:at + c.shape[0]] = np.moveaxis(c, 0, -1)
        at += c.shape[0]
        rows[..., at] = ord(",")
        at += 1
    rows[..., at - 1:] = (ord("\r"), ord("\n"))
    return rows


def _fields(columns) -> list:
    """The _csv_fields of equal-shaped columns, each (width,) + its shape, from one call."""
    if not columns:
        return []
    values = columns[0] if len(columns) == 1 else np.concatenate([c.ravel() for c in columns])
    fields = _csv_fields(values)
    fields = fields.reshape((fields.shape[0], len(columns)) + columns[0].shape)
    return [fields[:, k] for k in range(len(columns))]


def _write_csv(paths, header, columns, per_file=()) -> None:
    """Write a CSV table to each of paths (a path, or None for stdout): the
    header row, then one row per index with every value as %.17g.  The
    columns are shared by every file and formatted once; each per_file
    column, which follows them, holds one 1-D array per file and is
    formatted in calls of at most _CSV_BATCH values that span files.  The
    bytes are those of csv.writer with f"{v:.17g}" fields: no field needs
    quoting, and lines end in CRLF.

    The fixed-notation digits are exact.  10**m is an exact double for
    m <= 22, and Veltkamp's split and Dekker's TwoProduct give
    |x| 10**m = p + e exactly, with p = fl(|x| 10**m) and |e| <= ulp(p)/2 a
    double.  Where the rounding D lands in [1e16, 1e17), p > 2**53, so p is
    an even integer; rint rounds e half to even, and p even makes p + rint(e)
    the half-even rounding of p + e, which is what %.17g prints.  A value
    whose D lands outside is redone with its exponent moved by one, and is
    %-formatted if it still does.
    """
    head = (",".join(header) + "\r\n").encode()
    shared = _fields([np.asarray(c, dtype=np.float64) for c in columns])
    size = len(columns[0]) * len(per_file)  # values of one file to format
    step = max(1, _CSV_BATCH // size if size else len(paths))
    for first in range(0, len(paths), step):
        batch = paths[first:first + step]
        own = _fields([np.array(c[first:first + step], dtype=np.float64) for c in per_file])
        rows = _csv_rows(shared + own)
        rows = np.broadcast_to(rows, (len(batch),) + rows.shape[-2:])
        for path, file_rows in zip(batch, rows):
            _emit(head + file_rows.tobytes().translate(None, b"\0"), path)


def _manifest(args, config=None, out_dir=None) -> None:
    """Write manifest.json (command, config, version) beside --out, if given.

    config defaults to the parsed arguments; out_dir is created.
    """
    if args.out is None:
        return
    if config is None:
        config = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    out_dir = Path(args.out).parent if out_dir is None else out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    _dump_json(
        {"command": args.command, "config": config, "version": __version__},
        out_dir / "manifest.json",
    )


def _cmd_constants(args) -> int:
    p = derive_constants(args.n, args.k, T=args.T)
    payload = dataclasses.asdict(p)
    row = dict(payload)  # the CSV row, which holds the condition's fields flat
    if args.a is not None:
        cond = exponent_condition(p, args.a)
        payload["exponent_condition"] = dataclasses.asdict(cond)
        row.update(zip(("a", "condition_value", "admissible"), dataclasses.astuple(cond)))
    _manifest(args)
    if args.format == "json":
        _dump_json(payload, args.out)
    else:
        _write_csv([args.out], list(row), [[v] for v in row.values()])
    return 0


def _read_profile_csv(path):
    """Radii and heights of a profile CSV: header `r,Q`, then one node a row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, [])[:2] != ["r", "Q"]:
            raise ValueError(f"{path}: expected header 'r,Q'")
        try:
            data = [(float(row[0]), float(row[1])) for row in reader]
        except (IndexError, ValueError):
            raise ValueError(f"{path}: line {reader.line_num} is not two numbers r,Q") from None
    rs, qs = np.array(data).reshape(-1, 2).T
    if rs.size < 3:
        raise ValueError(f"{path}: a profile needs at least 3 nodes")
    check_radii(rs, f"{path}: radii")
    return rs, qs


def _profile_jet_from_spec(spec: str, r: float):
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
        if q == 0.0:
            raise ValueError(f"sphere of radius {R:g} has Q = 0 at r = {r:g}: R^2 underflows")
        ratio = R / q  # -R^2/Q^3, with no power to under- or overflow
        return ProfileJet(r=r, q=q, q1=-r / q, q2=-ratio * ratio / q)
    if not Path(spec).exists():
        raise ValueError(f"unknown profile spec {spec!r} (and no such file)")
    rs, qs = _read_profile_csv(spec)
    i = int(np.clip(np.argmin(np.abs(rs - r)), 1, len(rs) - 2))
    return fd_jet(rs, qs, i)


def _cmd_curvature(args) -> int:
    jet = _profile_jet_from_spec(args.profile, args.at)
    with np.errstate(over="ignore"):  # an overflow shows as a non-finite H or A2
        data = curvature(args.n, jet)
    for name, value in (("H", data.H), ("A2", data.A2)):
        if not math.isfinite(value):
            raise ValueError(f"{name} = {value} at r = {jet.r:g}: the curvature of this "
                             "jet overflows")
    nu = unit_normal(jet)
    payload = {
        "r": jet.r,
        "Q": jet.q,
        "Q1": jet.q1,
        "Q2": jet.q2,
        **dataclasses.asdict(data),
        "normal": {"radial": nu[0], "spherical": nu[1]},
        "u0": normal_position(jet),
    }
    _manifest(args)
    _dump_json(payload, args.out)
    return 0


def _cmd_minimal_surface(args) -> int:
    from .minimal_surface import integrate_profile, u0_profile

    mp = integrate_profile(args.n, args.b, args.rmax, tol=args.tol)
    u0 = u0_profile(mp)
    _manifest(args)
    _write_csv([args.out], ["r", "Q", "Q1", "Q2", "u0"], [mp.grid, mp.q, mp.q1, mp.q2, u0.u0])
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
        Path(args.out).with_suffix(".json"),
    )
    return 0


def _cmd_jacobi(args) -> int:
    from .jacobi import assemble, generalized_kernel, top_eigenvalue
    from .minimal_surface import integrate_profile

    if not (args.spectrum or args.out):
        print("mcf jacobi: error: the kernel ladder needs --out", file=sys.stderr)
        return EX_USAGE
    if not args.rmax:
        args.rmax = (max(4.0 * args.rtrunc, 50.0 * args.b) if args.spectrum
                     else 10.0 ** (2.0 + args.jmax / 2.0) * args.b * 1.05)
    mp = integrate_profile(args.n, args.b, args.rmax, tol=args.tol)
    jd = assemble(mp)
    if args.spectrum:
        lam = top_eigenvalue(jd, args.rtrunc, nodes=args.nodes)
        _manifest(args)
        _dump_json(
            {"n": args.n, "b": args.b, "R_trunc": args.rtrunc, "nodes": args.nodes,
             "top_eigenvalue": lam, "nonpositive_within": max(lam, 0.0)},
            args.out,
        )
        return 0

    elems = generalized_kernel(jd, args.jmax)
    _manifest(args)
    _write_csv([args.out], ["r"] + [f"u{e.j}" for e in elems], [jd.grid] + [e.u for e in elems])
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
        Path(args.out).with_suffix(".json"),
    )
    return 0


def _cmd_heat_kernel(args) -> int:
    from .cone_heat import decay_experiment

    p = derive_constants(args.n, 2)  # mu depends on n alone
    t_grid = np.geomspace(args.tmin, args.tmax, args.points)
    exp = decay_experiment(p, args.delta, t_grid)
    _manifest(args)
    header, columns = ["t", "sup_ratio"], [exp.times, exp.sup_ratio]
    _write_csv([args.out], header, columns)
    _dump_json(
        {
            "n": args.n,
            "mu": p.mu,
            "delta": args.delta,
            "fitted_slope": exp.fit.exponent,
            "expected_slope": -args.delta / 2.0,
            "fit_resid": exp.fit.resid,
        },
        Path(args.out).with_suffix(".json"),
    )
    if args.plot:
        Path(args.plot).parent.mkdir(parents=True, exist_ok=True)
        plot_loglog(*columns, args.plot, *header)
    return 0


def _shrinker(build):
    """The builder of a cylinder or sphere that becomes singular at the config's T."""
    return lambda cfg: build(cfg["n"], cfg["T"],
                             np.linspace(0.0, float(cfg["rmax"]), cfg["nodes"]))


def _sphere(cfg):
    """The sphere of singular time T, whose Dirichlet edge must outlive the horizon."""
    state = _shrinker(flow.shrinking_sphere)(cfg)
    n, rmax, horizon = cfg["n"], float(cfg["rmax"]), float(cfg["horizon"])
    t_edge = float(cfg["T"]) - rmax * rmax / (2.0 * (2 * n - 1))
    if not horizon < t_edge:
        raise ValueError(
            f"horizon = {horizon:g} reaches t = {t_edge:g}, where the sphere's edge "
            f"at rmax = {rmax:g} shrinks to 0 (T - rmax^2/(2(2n-1)))"
        )
    return state


def _cone(cfg):
    r = np.linspace(float(cfg["profile"]["rmin"]), float(cfg["rmax"]), cfg["nodes"])
    return flow.ProfileState(r=r, Q=r.copy(), t=0.0)


def _minimal(cfg):
    from .minimal_surface import integrate_profile

    prof, rmax = cfg["profile"], float(cfg["rmax"])
    b = float(prof["b"])
    mp = integrate_profile(cfg["n"], b, max(rmax * 2.0, 50.0 * b), tol=float(prof["tol"]))
    r = np.geomspace(float(prof["rmin"]), rmax, cfg["nodes"])
    state = flow.ProfileState(r=r, Q=mp.jet(r)[0], t=0.0)
    return flow.discrete_steady(cfg["n"], state) if prof["project_steady"] else state


def _file(cfg):
    r, q = _read_profile_csv(cfg["profile"]["path"])
    return flow.ProfileState(r=r, Q=q, t=0.0)


class _Key(NamedTuple):
    """One `mcf evolve` config key: its value's JSON type, default and range."""

    type: type | dict
    default: object = None
    allowed: tuple[str, Callable] | None = None


_REQUIRED = object()


# Each profile kind: the keys it reads beside "kind", and the builder of its
# initial state from the resolved config.
_PROFILES = {
    "cylinder": ({}, _shrinker(flow.shrinking_cylinder)),
    "sphere": ({}, _sphere),
    "cone": ({"rmin": _Key(float, lambda cfg: cfg["rmax"] / 100.0, _POSITIVE)}, _cone),
    "minimal": ({"b": _Key(float, 1.0, _POSITIVE), "tol": _Key(float, 1e-10),
                 "rmin": _Key(float, lambda cfg: cfg["profile"]["b"] * 1e-2, _POSITIVE),
                 "project_steady": _Key(bool, False)}, _minimal),
    "file": ({"path": _Key(str, _REQUIRED)}, _file),
}

# Every `mcf evolve` config key, resolved in this order.  A type int takes a
# JSON integer, float any JSON number, bool a JSON boolean (which counts as
# neither), str a string, and a table of keys an object.  A default is
# _REQUIRED, None (the key is echoed only when given), a value, or a function
# of the keys resolved before it: rmin = rmax/100 or b/100, and horizon = T/2.
# T is the singular time of the cylinder and the sphere, which it alone sizes.
_EVOLVE_KEYS = {
    "n": _Key(int, _REQUIRED, _at_least(2)),
    "T": _Key(float, 1.0, _POSITIVE),
    "rmax": _Key(float, 1.0, _POSITIVE),
    "nodes": _Key(int, 400, _at_least(3)),
    "target": _Key(float, 1e-8, _at_least(flow._TARGET_FLOOR)),
    "max_snapshots": _Key(int, 50, _at_least(1)),
    "fit_rate": _Key(bool, False),
    "plot_rates": _Key(bool, False),
    "stops": _Key({"Amax_cap": _Key(float), "Qmin_floor": _Key(float)}, lambda cfg: {}),
    "profile": _Key(_PROFILES, _REQUIRED),
    "horizon": _Key(float, lambda cfg: 0.5 * cfg["T"], _POSITIVE),
}
_JSON_TYPE = {int: "an integer", float: "a number", bool: "a boolean", str: "a string",
              dict: "an object"}


def _is_json_type(value, expected) -> bool:
    if isinstance(value, bool):
        return expected is bool
    if expected is float:
        return isinstance(value, (int, float))
    return isinstance(value, expected)


def _resolve_config(cfg) -> tuple[dict, list[str]]:
    """An `mcf evolve` config with every default filled in, and the error
    messages naming each key that is required but missing, that nothing reads,
    or whose value has the wrong JSON type or is out of range on its own.

    The config is complete only when there are no messages.  A config that
    is not a JSON object gets one message saying so.
    """
    if not isinstance(cfg, dict):
        return {}, [f"the config must be a JSON object, got {json.dumps(cfg)}"]
    missing, unknown, mistyped, out_of_range = [], [], [], []
    resolved = {}

    def walk(obj: dict, table: dict, prefix: str, into: dict) -> None:
        unknown.extend(prefix + key for key in sorted(obj) if key not in table)
        for key, spec in table.items():
            name = prefix + key
            if key not in obj:
                if spec.default is _REQUIRED:
                    missing.append(name)
                elif spec.default is not None and not (missing or unknown or mistyped
                                                       or out_of_range):
                    into[key] = spec.default(resolved) if callable(spec.default) else spec.default
                continue
            value = obj[key]
            json_type = dict if isinstance(spec.type, dict) else spec.type
            if not _is_json_type(value, json_type):
                mistyped.append(f"{name} must be {_JSON_TYPE[json_type]}, got {json.dumps(value)}")
            elif spec.type is _PROFILES:  # the keys of a profile depend on its kind
                kind = value.get("kind")
                if isinstance(kind, str) and kind in _PROFILES:
                    into[key] = {"kind": kind}
                    rest = {k: v for k, v in value.items() if k != "kind"}
                    walk(rest, _PROFILES[kind][0], name + ".", into[key])
                else:
                    out_of_range.append(f"{name}.kind must be one of "
                                        f"{', '.join(_PROFILES)}, got {json.dumps(kind)}")
            elif json_type is dict:
                into[key] = {}
                walk(value, spec.type, name + ".", into[key])
            elif why := _range_error(value, spec.allowed):
                out_of_range.append(f"{name} must be {why}, got {json.dumps(value)}")
            else:
                into[key] = value

    walk(cfg, _EVOLVE_KEYS, "", resolved)
    errors = []
    if missing:
        errors.append(f"missing required config key(s): {', '.join(missing)}")
    if unknown:
        errors.append(f"unknown config key(s): {', '.join(unknown)}")
    if mistyped:
        errors.append(f"config value(s) of the wrong type: {'; '.join(mistyped)}")
    errors += [f"config value out of range: {line}" for line in out_of_range]
    return resolved, errors


def _initial_state(cfg: dict):
    """The initial profile of a resolved `mcf evolve` config."""
    prof, rmax = cfg["profile"], float(cfg["rmax"])
    if "rmin" in prof and float(prof["rmin"]) >= rmax:
        raise ValueError(f"profile.rmin = {prof['rmin']:g} must be below rmax = {rmax:g}")
    return _PROFILES[prof["kind"]][1](cfg)


def _cmd_evolve(args) -> int:
    cfg, errors = _resolve_config(json.loads(Path(args.config).read_text()))
    for line in errors:
        print(f"mcf evolve: error: {line}", file=sys.stderr)
    if errors:
        return EX_USAGE
    state = _initial_state(cfg)
    T = float(cfg["T"])
    traj, diag = flow.evolve(
        state, cfg["n"], float(cfg["horizon"]),
        target=float(cfg["target"]), max_snapshots=cfg["max_snapshots"], **cfg["stops"],
    )
    # nothing is written until the run has been accepted and finished
    out_dir = Path(args.out)
    _manifest(args, cfg, out_dir)
    paths = [out_dir / f"snapshot_{i:04d}.csv" for i in range(len(traj))]
    # every snapshot is on the initial grid
    _write_csv(paths, ["r", "Q"], [state.r], per_file=[[s.Q for s in traj]])
    _write_csv([out_dir / "diagnostics.csv"], ["t", "Hmax", "Amax", "Qmin"],
               [diag.times, diag.Hmax, diag.Amax, diag.Qmin])
    report = {
        "snapshots": len(traj),
        "steps": diag.accepted,
        "rejected": diag.rejected,
        "stage_iterations": diag.stage_iterations,
        "dt_min": float(diag.dt_min),
        "dt_max": float(diag.dt_max),
        "t_final": float(diag.times[-1]),
        "T": T,
        "T_est": diag.T_est,
        "stopped_by": diag.stopped_by,
    }
    if cfg["fit_rate"] and diag.times[-1] < T:
        try:
            fit = flow.fit_rate(diag.times, diag.Amax, T)
            report["Amax_rate_exponent"] = fit.exponent
            report["Amax_rate_resid"] = fit.resid
        except WindowTooNarrow as exc:
            report["Amax_rate_note"] = str(exc)
    _dump_json(report, out_dir / "report.json")
    if cfg["plot_rates"] and diag.times[-1] < T:
        header, columns = ["T_minus_t", "Amax"], [T - diag.times, diag.Amax]
        _write_csv([out_dir / "rate.csv"], header, columns)
        plot_loglog(*columns, out_dir / "rate.svg", *header)
    return 0


def _cmd_barriers(args) -> int:
    p = derive_constants(args.n, args.k, T=args.T)
    s = supersolution(p, args.c0)
    rng = np.random.default_rng(args.seed)
    # an overflow shows as a non-finite result, refused below with its flag
    with np.errstate(over="ignore", invalid="ignore"):
        samples = residual_samples(s, rng, args.samples)
        res = supersolution_residual(s, args.qr_bound, samples)
        if not math.isfinite(res):
            raise ValueError(f"supersolution residual {res} at C0 = {s.C0:g}, T = {p.T:g}: "
                             "the barrier overflows at the sampled radii")
        # threshold inequality: with C_bar >= 0 the barrier dominates
        # C_bar r^{2 lam + 1} on r >= Gamma sqrt(T-t)
        c_bar = domination_constant(s, args.gamma)
        margin = None
        if c_bar >= 0.0:
            ts = samples[:, 1]
            r_edge = args.gamma * np.sqrt(p.T - ts)
            r_test = r_edge * (1.0 + rng.uniform(0.0, 10.0, args.samples))
            margin = domination_margin(s, args.gamma, r_test, ts)
            if not math.isfinite(margin):
                raise ValueError(f"domination margin {margin} at gamma = {args.gamma:g}, "
                                 f"T = {p.T:g}: the barrier overflows at the sampled radii")
    if res < -1e-12:
        raise HypothesisError(f"supersolution residual {res:.3e} went negative")
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
        "residual_nonnegative": True,
        "gamma": args.gamma,
        "C_bar": c_bar,
        "domination_margin": margin,
        "domination_holds": (None if margin is None else bool(margin >= -1e-12)),
    }
    _manifest(args)
    _dump_json(payload, args.out)
    return 0


def _cmd_verify_all(args) -> int:
    from .verify import CRITERIA, run_criterion

    passed = 0
    for c in CRITERIA:
        ok, line = run_criterion(c)
        print(line, flush=True)
        passed += ok
    print(f"{passed}/{len(CRITERIA)} criteria passed")
    return 0 if passed == len(CRITERIA) else 2


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
    c.add_argument("--jmax", type=_flag(int, _at_least(0)), default=3)
    c.add_argument("--rmax", type=float, default=None)
    c.add_argument("--tol", type=float, default=1e-10)
    c.add_argument("--spectrum", action="store_true")
    c.add_argument("--rtrunc", type=_flag(float, _POSITIVE), default=50.0)
    c.add_argument("--nodes", type=_flag(int, _at_least(3)), default=4000)
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_jacobi)

    c = sub.add_parser("heat-kernel", help="Bessel kernel decay-rate experiment")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--delta", type=float, required=True)
    c.add_argument("--tmin", type=_flag(float, _POSITIVE), default=1.0)
    c.add_argument("--tmax", type=_flag(float, _POSITIVE), default=100.0)
    c.add_argument("--points", type=_flag(int, _at_least(3)), default=10)
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
    c.add_argument("--gamma", type=_flag(float, _POSITIVE), default=10.0)
    c.add_argument("--qr-bound", type=float, default=2.0, dest="qr_bound")
    c.add_argument("--samples", type=_flag(int, _at_least(1)), default=10000)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_barriers)

    c = sub.add_parser("verify-all", help="run the acceptance criteria")
    c.set_defaults(func=_cmd_verify_all)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MCFError, ValueError) as exc:
        kind = "hypothesis failure" if isinstance(exc, HypothesisError) else "validation error"
        print(f"{kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
