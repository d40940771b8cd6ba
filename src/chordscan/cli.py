"""Command-line driver: grid scans, cuts, blind-spot reports, verification.

Scans and cuts write CSV with 17 significant digits (doubles round-trip
exactly, so identical configurations give bit-identical files) plus a JSON
sidecar echoing the full configuration; the blind-spot command and the
verifier write JSON reports. Wall-clock timings appear only in JSON, under a
key that marks them as outside the determinism guarantee.

Options may come from ``KEY=VALUE`` lines in a config file (``--config``);
explicit command-line flags win over the file, and the sidecar's ``config``
block re-parses as such a file. Exit codes: 0 success, 1 configuration or
parameter error, 2 failed verification, 3 numerical failure (non-convergence
or a result that breaks a property it must have, such as |chi| <= 1).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import run_all
from .blindspots import find_blind_spots, nodal_contours
from .core import FLAGS_BY_CODE
from .curves import CurveSpec, InvalidStateError
from .evaluators import EVALUATOR_NAMES, make_evaluator
from .gridscan import axis, scan_grid
from .quadrature import ConvergenceError, NumericalError
from .smallchord import closest_blind_spot_estimate, moments_from_chi

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ACCEPTANCE = 2
EXIT_NONCONVERGED = 3


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _parse_interval(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"interval {text!r} must be LO:HI")
    lo, hi = _finite(parts[0]), _finite(parts[1])
    if not hi > lo:
        raise ValueError(f"interval {text!r} must have LO < HI")
    return lo, hi


def _parse_direction(text: str) -> tuple[float, float]:
    parts = [_finite(v) for v in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"direction {text!r} must be DP,DQ")
    return tuple(parts)


_CONVERTERS = {
    "n": int, "hbar": float, "t": float,
    "alpha0": float, "alpha1": float, "alpha2": float, "alpha3": float,
    "evaluator": str, "out": str, "tol": float, "slope": _finite,
    "region": _parse_interval, "resolution": int,
    "range": _parse_interval, "samples": int,
    "direction": _parse_direction,
}

_DEFAULTS = {
    "n": 5, "hbar": 0.1, "t": 0.1,
    "alpha0": 0.0, "alpha1": 1.0, "alpha2": 1.0, "alpha3": 1.0,
    "evaluator": "exact", "tol": 1e-8,
    # wide enough to contain the longest chord (the diameter caustic) of the
    # default state with room to spare
    "region": (-2.3, 2.3), "resolution": 161,
    "range": (0.0, 2.3), "samples": 401,
}


def load_config(path: str) -> dict:
    """Read KEY=VALUE lines; '#' starts a comment, blank lines are skipped."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONVERTERS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _CONVERTERS[key](value.strip())
    return values


def _merge(args: argparse.Namespace) -> dict:
    """Resolve options: explicit flags beat config-file values beat defaults."""
    merged = dict(getattr(args, "_config_values", {}))
    for key in _CONVERTERS:
        if getattr(args, key, None) is not None:
            merged[key] = getattr(args, key)
    for key, value in _DEFAULTS.items():
        merged.setdefault(key, value)
    return merged


def _state(opt: dict) -> CurveSpec:
    return CurveSpec(n=opt["n"], hbar=opt["hbar"], t=opt["t"],
                     alpha=(opt["alpha0"], opt["alpha1"],
                            opt["alpha2"], opt["alpha3"]))


def _config_echo(opt: dict, keys) -> dict:
    """Canonical config block: every value re-parses as a KEY=VALUE line."""
    echo = {}
    for key in keys:
        v = opt[key]
        if isinstance(v, tuple):
            sep = ":" if key in ("region", "range") else ","
            echo[key] = sep.join(f"{x:.17g}" for x in v)
        elif isinstance(v, float):
            echo[key] = f"{v:.17g}"
        else:
            echo[key] = str(v)
    return echo


_STATE_KEYS = ("n", "hbar", "t", "alpha0", "alpha1", "alpha2", "alpha3")


_FLAG_NAMES = [FLAGS_BY_CODE[code].value for code in range(len(FLAGS_BY_CODE))]


def _flag_names(codes) -> list[str]:
    return [_FLAG_NAMES[code] for code in np.ravel(codes).tolist()]


def _safe(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _require_out(opt: dict, command: str) -> Path:
    if "out" not in opt:
        raise ValueError(f"{command} needs --out FILE")
    return Path(opt["out"])


def cmd_scan(args) -> int:
    opt = _merge(args)
    out = _require_out(opt, "scan")
    lo, hi = opt["region"]
    xp = xq = axis(lo, hi, opt["resolution"])
    evaluator = make_evaluator(opt["evaluator"], _state(opt))
    started = time.perf_counter()
    grid = scan_grid(evaluator, xp, xq)
    elapsed = time.perf_counter() - started

    values = grid.values.ravel()
    rows = zip(np.repeat(xp, xq.size).tolist(), np.tile(xq, xp.size).tolist(),
               values.tolist(), np.angle(values).tolist(), _flag_names(grid.flags))
    with out.open("w") as fh:
        fh.write("xi_p,xi_q,re,im,abs2,phase,flag\n")
        # |z| on the Python complex: np.abs rounds differently in the last digit
        fh.writelines("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s\n"
                      % (p, q, z.real, z.imag, abs(z) ** 2, phase, flag)
                      for p, q, z, phase, flag in rows)
    _write_json(out.with_suffix(".json"), {
        "command": "scan", "version": __version__,
        "config": _config_echo(opt, _STATE_KEYS + ("evaluator", "region",
                                                   "resolution")),
        "parameters": grid.metadata,
        "flag_counts": {f.value: c for f, c in grid.flag_counts().items()},
        "rows": int(xp.size * xq.size),
        "elapsed_seconds_nondeterministic": elapsed,
    })
    print(f"scan: {xp.size} x {xq.size} chords with {evaluator.name} -> "
          f"{out} (+ {out.with_suffix('.json').name}) in {elapsed:.1f}s")
    return EXIT_OK


def _cut_direction(opt: dict) -> np.ndarray:
    if "direction" in opt:
        d = np.asarray(opt["direction"], dtype=float)
    elif "slope" in opt:
        d = np.array([opt["slope"], 1.0])
    else:
        raise ValueError("cut needs --direction DP,DQ or --slope M (xi_p = M xi_q)")
    norm = float(np.hypot(d[0], d[1]))
    if norm == 0.0:
        raise ValueError("cut direction must be nonzero")
    return d / norm


def cmd_cut(args) -> int:
    opt = _merge(args)
    out = _require_out(opt, "cut")
    d = _cut_direction(opt)
    names = [name.strip() for name in opt["evaluator"].split(",")]
    state = _state(opt)
    evaluators = [make_evaluator(name, state) for name in names]
    lo, hi = opt["range"]
    if opt["samples"] < 1:
        raise ValueError("cut needs samples >= 1")
    ss = np.linspace(lo, hi, opt["samples"])
    started = time.perf_counter()
    outputs = [ev.evaluate(ss * d[0], ss * d[1]) for ev in evaluators]
    elapsed = time.perf_counter() - started

    columns = ["s", "xi_p", "xi_q"]
    for ev in evaluators:
        tag = _safe(ev.name)
        columns += [f"{tag}_re", f"{tag}_im", f"{tag}_abs2", f"{tag}_flag"]
    row = "%.17g,%.17g,%.17g" + ",%.17g,%.17g,%.17g,%s" * len(evaluators) + "\n"
    cells = [ss.tolist(), (ss * d[0]).tolist(), (ss * d[1]).tolist()]
    for values, flags in outputs:
        zs = values.tolist()
        cells += [[z.real for z in zs], [z.imag for z in zs], [abs(z) ** 2 for z in zs],
                  _flag_names(flags)]
    with out.open("w") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(row % sample for sample in zip(*cells))
    _write_json(out.with_suffix(".json"), {
        "command": "cut", "version": __version__,
        "config": _config_echo(opt, _STATE_KEYS + ("evaluator", "range",
                                                   "samples")),
        "direction": [float(d[0]), float(d[1])],
        "evaluators": [ev.name for ev in evaluators],
        "rows": int(ss.size),
        "elapsed_seconds_nondeterministic": elapsed,
    })
    print(f"cut: {ss.size} chords along ({d[0]:.4f}, {d[1]:.4f}) with "
          f"{', '.join(ev.name for ev in evaluators)} -> {out} in {elapsed:.1f}s")
    return EXIT_OK


def cmd_blindspots(args) -> int:
    """Moments, ellipse estimate, and located zeros, as a JSON report.

    A symmetric state (vanishing mean) has nodal circles instead of isolated
    zeros; that is reported as a structured degenerate outcome, not an error.
    """
    opt = _merge(args)
    out = _require_out(opt, "blindspots")
    if not (math.isfinite(opt["tol"]) and opt["tol"] > 0.0):
        raise ValueError(f"tol must be finite and positive, got {opt['tol']!r}")
    state = _state(opt)
    evaluator = make_evaluator(opt["evaluator"], state)
    # the stationary-phase sums are singular at the origin, so moments (and
    # Newton polish) fall back to the oracle for them
    pointlike = evaluator if evaluator.name.split(":")[0] in (
        "exact", "small", "semiclassical", "taylor") else make_evaluator("exact", state)
    lo, hi = opt["region"]
    grid_axis = axis(lo, hi, opt["resolution"])

    started = time.perf_counter()
    grid = scan_grid(evaluator, grid_axis, grid_axis)
    moments = moments_from_chi(pointlike, state.hbar)
    estimate = closest_blind_spot_estimate(moments, state.hbar)
    report = {
        "command": "blindspots", "version": __version__,
        "config": _config_echo(opt, _STATE_KEYS + ("evaluator", "region",
                                                   "resolution", "tol")),
        "moments": {
            "mean_p": moments.mean.p, "mean_q": moments.mean.q,
            "p2": moments.p2, "q2": moments.q2, "pq": moments.pq,
        },
        "ellipse": {
            "matrix": [[estimate.matrix[0, 0], estimate.matrix[0, 1]],
                       [estimate.matrix[1, 0], estimate.matrix[1, 1]]],
            "level": estimate.level,
        },
        "degenerate": estimate.degenerate,
        "scan_evaluator": evaluator.name,
        "polish_evaluator": pointlike.name,
    }
    if estimate.degenerate:
        # zeros form whole circles; report their radii instead of points
        nodal = nodal_contours(grid, "real")
        report["nodal_radii"] = sorted(
            float(np.mean(np.hypot(c.points[:, 0], c.points[:, 1])))
            for c in nodal.curves if c.closed)
        report["estimated_spots"] = []
        report["located_spots"] = []
    else:
        search = find_blind_spots(pointlike, grid, tol=opt["tol"])
        report["estimated_spots"] = [[s.xi_p, s.xi_q] for s in estimate.spots]
        report["estimate_radius"] = estimate.radius
        report["located_spots"] = [{
            "xi_p": s.chord.xi_p, "xi_q": s.chord.xi_q, "radius": s.radius,
            "residual": abs(s.value), "iterations": s.iterations,
        } for s in search.spots]
        report["n_seeds"] = search.n_seeds
        if search.spots:
            report["nearest_radius"] = search.nearest().radius
            report["estimate_over_nearest"] = (estimate.radius
                                               / search.nearest().radius)
    report["elapsed_seconds_nondeterministic"] = time.perf_counter() - started
    _write_json(out, report)
    kind = ("degenerate (nodal circles)" if estimate.degenerate
            else f"{len(report['located_spots'])} spots")
    print(f"blindspots: {kind} -> {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_all(report=print)
    failed = [r for r in results if not r.passed]
    print(f"\n{len(results) - len(failed)}/{len(results)} criteria passed")
    if getattr(args, "out", None):
        _write_json(Path(args.out), {
            "command": "verify", "version": __version__,
            "passed": not failed,
            "criteria": [{
                # criteria measure with numpy, whose bool does not serialize
                "name": r.name, "passed": bool(r.passed),
                # standard JSON has no Infinity or NaN: such a measurement is null
                "measured": float(r.measured) if math.isfinite(r.measured) else None,
                "tolerance": float(r.tolerance),
                "detail": r.detail,
                "elapsed_seconds_nondeterministic": r.elapsed_seconds,
            } for r in results],
        })
    return EXIT_OK if not failed else EXIT_ACCEPTANCE


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with the config-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chordscan",
                     description="Chord-function scans of Bohr-quantized states")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_common(p, with_grid=True):
        p.add_argument("--config", help="KEY=VALUE file; flags override it")
        p.add_argument("--n", type=int, help="quantum number (default 5)")
        p.add_argument("--hbar", type=float, help="action scale (default 0.1)")
        for k in range(4):
            p.add_argument(f"--alpha{k}", type=float,
                           help=f"H(p) coefficient of p^{k} (default {_DEFAULTS[f'alpha{k}']:g})")
        p.add_argument("--t", type=float, help="shear evolution time (default 0.1)")
        p.add_argument("--evaluator", metavar="NAME",
                       help=f"one of {', '.join(EVALUATOR_NAMES)} (default exact); "
                            "taylor takes an order suffix, e.g. taylor:4")
        p.add_argument("--out", help="output file (JSON sidecar for CSV outputs)")
        if with_grid:
            p.add_argument("--region", type=_parse_interval, metavar="LO:HI",
                           help="square chord region, both axes (default -2.3:2.3)")
            p.add_argument("--resolution", type=int, metavar="K",
                           help="grid points per axis (default 161)")

    scan = sub.add_parser("scan", help="chord-function field on a grid -> CSV")
    add_common(scan)
    scan.set_defaults(func=cmd_scan)

    cut = sub.add_parser("cut",
                         help="chord function along a ray -> CSV "
                              "(comma-separated evaluators for comparisons)")
    add_common(cut, with_grid=False)
    cut.add_argument("--slope", type=_finite, help="cut xi_p = SLOPE * xi_q")
    cut.add_argument("--direction", type=_parse_direction, metavar="DP,DQ")
    cut.add_argument("--range", type=_parse_interval, metavar="LO:HI",
                     help="arc-length range along the ray (default 0:2.3)")
    cut.add_argument("--samples", type=int, help="sample count (default 401)")
    cut.set_defaults(func=cmd_cut)

    spots = sub.add_parser("blindspots",
                           help="moments, ellipse estimate, zeros -> JSON report")
    add_common(spots)
    spots.add_argument("--tol", type=float,
                       help="|chi| convergence target (default 1e-8)")
    spots.set_defaults(func=cmd_blindspots)

    verify = sub.add_parser("verify", help="run the acceptance battery")
    verify.add_argument("--out", help="also write the table as JSON")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            args._config_values = load_config(args.config)
        return args.func(args)
    except (InvalidStateError, ValueError, OSError) as exc:
        print(f"chordscan: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"chordscan: did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except NumericalError as exc:
        print(f"chordscan: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
