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


# Every option of scan, cut and blindspots, declared once: key -> (converter,
# default as config-file text or None for no default, help). The argparse
# flags, the --config keys and the sidecar's config echo all come from here.
_OPTIONS = {
    "n": (int, "5", "quantum number"),
    "hbar": (float, "0.1", "action scale"),
    **{f"alpha{k}": (float, v, f"H(p) coefficient of p^{k}")
       for k, v in enumerate(("0", "1", "1", "1"))},
    "t": (float, "0.1", "shear evolution time"),
    "evaluator": (str, "exact", f"one of {', '.join(EVALUATOR_NAMES)}; taylor "
                                "takes an order suffix, e.g. taylor:4"),
    "out": (str, None, "output file (JSON sidecar for CSV outputs)"),
    # wide enough to contain the longest chord (the diameter caustic) of the
    # default state with room to spare
    "region": (_parse_interval, "-2.3:2.3", "square chord region LO:HI, both axes"),
    "resolution": (int, "161", "grid points per axis"),
    "slope": (_finite, None, "cut xi_p = SLOPE * xi_q"),
    "direction": (_parse_direction, None, "cut along the direction DP,DQ"),
    "range": (_parse_interval, "0:2.3", "arc-length range LO:HI along the ray"),
    "samples": (int, "401", "sample count"),
    "tol": (float, "1e-8", "|chi| convergence target"),
}

_STATE_KEYS = ("n", "hbar", "alpha0", "alpha1", "alpha2", "alpha3", "t")

# The options of each command: its flags besides --config and --out, and the
# keys its sidecar echoes (out is not echoed, so a rerun from the echo writes
# wherever its own --out says).
_COMMAND_KEYS = {
    "scan": _STATE_KEYS + ("evaluator", "region", "resolution"),
    "cut": _STATE_KEYS + ("evaluator", "slope", "direction", "range", "samples"),
    "blindspots": _STATE_KEYS + ("evaluator", "region", "resolution", "tol"),
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
        if key not in _OPTIONS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _OPTIONS[key][0](value.strip())
    return values


def _merge(args: argparse.Namespace) -> dict:
    """Resolve options: explicit flags beat config-file values beat defaults.
    Every command that merges options writes a file, so ``out`` is required."""
    merged = load_config(args.config) if args.config else {}
    for key, (convert, default, _) in _OPTIONS.items():
        if getattr(args, key, None) is not None:
            merged[key] = getattr(args, key)
        elif default is not None:
            merged.setdefault(key, convert(default))
    if "out" not in merged:
        raise ValueError(f"{args.command} needs --out FILE")
    return merged


def _state(opt: dict) -> CurveSpec:
    return CurveSpec(n=opt["n"], hbar=opt["hbar"], t=opt["t"],
                     alpha=(opt["alpha0"], opt["alpha1"],
                            opt["alpha2"], opt["alpha3"]))


def _config_echo(opt: dict, command: str) -> dict:
    """Canonical config block: every option of the command that is set, as
    KEY=VALUE text that re-parses to the same value."""
    echo = {}
    for key in _COMMAND_KEYS[command]:
        v = opt.get(key)
        if isinstance(v, tuple):
            sep = ":" if _OPTIONS[key][0] is _parse_interval else ","
            echo[key] = sep.join(f"{x:.17g}" for x in v)
        elif isinstance(v, float):
            echo[key] = f"{v:.17g}"
        elif v is not None:
            echo[key] = str(v)
    return echo


def _write_report(path: Path, command: str, opt: dict, elapsed: float,
                  fields: dict) -> None:
    """The JSON a command writes: its own fields plus the command, version,
    config echo and wall time that every sidecar and report carries."""
    _write_json(path, {"command": command, "version": __version__,
                       "config": _config_echo(opt, command),
                       "elapsed_seconds_nondeterministic": elapsed, **fields})


_FLAG_NAMES = [FLAGS_BY_CODE[code].value for code in range(len(FLAGS_BY_CODE))]


def _flag_names(codes) -> list[str]:
    return [_FLAG_NAMES[code] for code in np.ravel(codes).tolist()]


def _safe(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_scan(args) -> int:
    opt = _merge(args)
    out = Path(opt["out"])
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
    _write_report(out.with_suffix(".json"), "scan", opt, elapsed, {
        "parameters": grid.metadata,
        "flag_counts": {f.value: c for f, c in grid.flag_counts().items()},
        "rows": int(xp.size * xq.size),
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
    out = Path(opt["out"])
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
    _write_report(out.with_suffix(".json"), "cut", opt, elapsed, {
        "direction": [float(d[0]), float(d[1])],
        "evaluators": [ev.name for ev in evaluators],
        "rows": int(ss.size),
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
    out = Path(opt["out"])
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
    moments = moments_from_chi(pointlike)
    estimate = closest_blind_spot_estimate(moments, state.hbar)
    report = {
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
    _write_report(out, "blindspots", opt, time.perf_counter() - started, report)
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

    for command, func, summary in (
            ("scan", cmd_scan, "chord-function field on a grid -> CSV"),
            ("cut", cmd_cut, "chord function along a ray -> CSV "
                             "(comma-separated evaluators for comparisons)"),
            ("blindspots", cmd_blindspots,
             "moments, ellipse estimate, zeros -> JSON report")):
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="KEY=VALUE file; flags override it")
        for key in _COMMAND_KEYS[command] + ("out",):
            convert, default, text = _OPTIONS[key]
            p.add_argument(f"--{key}", type=convert, help=text if default is None
                           else f"{text} (default {default})")
        p.set_defaults(func=func)

    verify = sub.add_parser("verify", help="run the acceptance battery")
    verify.add_argument("--out", help="also write the table as JSON")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
