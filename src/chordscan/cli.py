"""Command-line driver: grid scans, cuts, blind-spot reports, verification.

Scans and cuts write CSV through one writer, ``_write_csv``, plus a JSON
sidecar echoing the full configuration; the blind-spot command and the
verifier write JSON reports. Every number in a CSV is the bytes of
``"%.17g" % x`` (doubles round-trip exactly, so identical configurations give
bit-identical files). The writer formats with numpy, a block of rows at a
time, all of a block's nonzero float cells that need text in one call of at
most CSV_BLOCK_CELLS cells: a fast path takes the 17 digits of each finite
magnitude in FAST_RANGE from an exact double-double product and lays out its
28-byte cell from whole-cell tables, and nan, inf, magnitudes outside
FAST_RANGE and near-ties at the 17th digit fall back to ``"%.17g"`` itself. A
zero is "0" and is never formatted. The sign is a byte of its own, so a cell
whose magnitude equals that of its row's partner (row size - 1 - r: a
symmetric grid's -xi chord, whose chi is the conjugate) copies the partner's
text instead of formatting it. A text column is labels and a code per row: a
scan's axis columns index the axis's values, each formatted once by
``"%.17g"``, and a flag column indexes the flag names.
Wall-clock timings appear only in JSON, under a key that marks them as
outside the determinism guarantee.

Options may come from ``KEY=VALUE`` lines of the command's own keys in a
config file (``--config``); explicit flags win over the file, and the
sidecar's ``config`` block re-parses as such a file. Exit codes: 0 success, 1
configuration or parameter error, 2 failed verification, 3 numerical failure
(non-convergence or a result that breaks a property it must have, such as
|chi| <= 1).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import run_all
from .blindspots import find_blind_spots
from .core import FLAGS_BY_CODE, two_product
from .curves import CurveSpec, InvalidStateError
from .evaluators import EVALUATOR_NAMES, make_evaluator
from .exact import nodal_radii
from .gridscan import axis, scan_grid
from .quadrature import ConvergenceError, NumericalError
from .smallchord import closest_blind_spot_estimate, state_moments

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
}

_STATE_KEYS = ("n", "hbar", "alpha0", "alpha1", "alpha2", "alpha3", "t")

# The options of each command: its flags besides --config and --out, and the
# keys its sidecar echoes (out is not echoed, so a rerun from the echo writes
# wherever its own --out says).
_COMMAND_KEYS = {
    "scan": _STATE_KEYS + ("evaluator", "region", "resolution"),
    "cut": _STATE_KEYS + ("evaluator", "slope", "direction", "range", "samples"),
    "blindspots": _STATE_KEYS + ("evaluator", "region", "resolution"),
}


def load_config(path: str, command: str) -> dict:
    """Read KEY=VALUE lines of ``command``'s options; '#' starts a comment,
    blank lines are skipped, and a key the command does not take or a value
    its converter refuses is an error naming the file and line."""
    keys = _COMMAND_KEYS[command] + ("out",)
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r} for {command}")
        try:
            values[key] = _OPTIONS[key][0](value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def _merge(args: argparse.Namespace) -> dict:
    """Resolve options: explicit flags beat config-file values beat defaults,
    and ``slope`` and ``direction`` are one setting, given once at each level.
    Every command that merges options writes a file, so ``out`` is required."""
    merged = load_config(args.config, args.command) if args.config else {}
    flags = {key: getattr(args, key) for key in _OPTIONS if getattr(args, key, None) is not None}
    for level in (merged, flags):
        if "slope" in level and "direction" in level:
            raise ValueError(f"{args.command} takes slope or direction, not both")
    if "slope" in flags or "direction" in flags:
        merged = {k: v for k, v in merged.items() if k not in ("slope", "direction")}
    merged.update(flags)
    for key, (convert, default, _) in _OPTIONS.items():
        if default is not None:
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


# -- CSV -------------------------------------------------------------------------
# Every number is written as "%.17g" writes it. CPython's routine costs about
# 1 us a float past 14 digits (its bignum path), so a column is formatted in
# bulk: for finite FAST_RANGE magnitudes E is that of the binary exponent's
# octave, plus one where |x| reaches the least double >= the next power of
# ten, and the 17 digits round(|x| 10^(16-E)) come from Dekker's exact
# product (core.two_product) with a double-double 10^k, whose error is below
# 1e-14 of the last digit (FAST_RANGE keeps both factors in its domain). A
# magnitude's text fills a _CELL of 28 bytes: the prefix ("0.000" cut to the
# leading zeros of positional E = -1 ... -4), the digits with the point,
# the exponent. Two copies of the 17 digits, the second one byte further right,
# are masked to the digits before the point and after it; the masks and the
# point byte are whole cells picked by layout, the prefix and exponent bytes a
# whole cell picked by E, so a cell is row gathers and AND/OR over contiguous
# words. Nan, inf, magnitudes outside FAST_RANGE and rounding fractions within
# TIE_MARGIN of one half (exact ties occur, e.g. 2251799813685247.75) go to
# "%.17g" itself. A zero is "0" and never reaches the formatter; a float
# column with no nonzero cell (Im chi wherever chi is real by symmetry) is
# written as a text column of "0" and "-0", coded by signbit, and is no part
# of a block's cells to format. The sign is its own byte, "-" where
# signbit(x) and x is not nan ("%.17g" writes -nan as "nan"), so a symmetric
# grid's mirrored half, whose re, im, abs2 and phase have their -xi partners'
# magnitudes, copies the text of the computed half: a 161^2 scan formats at
# most 12 961 cells of each float column, not 25 921. The text kept for that
# is the first half's. A text column is labels and one code per row (a scan's
# axis columns index the axis's ticks, each formatted once by "%.17g"; a flag
# column indexes the flag names), copied by a row gather. One table holds a
# block of rows, its separators written once; NUL pads every cell to its
# column's width and is dropped from a block's bytes by bytes.translate, which
# measured faster than a boolean mask.

CSV_BLOCK_CELLS = 4096
FAST_RANGE = (1e-280, 1e280)
TIE_MARGIN = 1e-9

_FLAG_BYTES = np.array([FLAGS_BY_CODE[code].value for code in range(len(FLAGS_BY_CODE))],
                       dtype="S")
# 10^k for the thresholds 10^(E + 1) and the scales 10^(16 - E) of every E of FAST_RANGE
_K_MIN, _K_MAX = -280, 297
# the binary exponents (frexp's, x = m 2^b with 1/2 <= m < 1) of FAST_RANGE
_B_MIN, _B_MAX = (int(np.frexp(x)[1]) for x in FAST_RANGE)
_E_MIN = -330  # below the least exponent of a double; the tables by E start here
# a formatted magnitude's bytes: prefix 5, the digits with the point 18 (digit k
# at 5 + k before the point, at 6 + k after it), exponent 5; the longest
# "%.17g" text of a magnitude has 23
_CELL = 5 + 18 + 5
_ZERO_TEXT = np.frombuffer(b"0".ljust(_CELL, b"\0"), dtype=np.uint8)
_ZERO_LABELS = np.array([b"0", b"-0"])  # a zero column's text, by signbit


@functools.cache
def _tables():
    """Built on first use.
    - 10^k for k in [_K_MIN, _K_MAX] as double-doubles high + low (high the
      exact rational rounded once, low the exact remainder rounded once), one
      row per k;
    - by binary exponent b - _B_MIN, the E of 2^(b-1) and the least double
      >= 10^(E+1), so a magnitude's E is the first plus whether it reaches
      the second;
    - the text and trailing-zero count of every 4-digit group;
    - by layout point * 18 + shown (the digits before the point, and the
      digits shown), cells masking the digit copy and the shifted copy, and
      a cell holding the point byte;
    - by E - _E_MIN, a cell of the prefix and exponent bytes, point * 18, and
      the least count of digits shown (the integer part of positional E >= 0).
    The cells are uint32 words, 7 a cell."""
    high, low = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        p, q = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = p / q  # int / int rounds correctly
        num, den = h.as_integer_ratio()
        high.append(h)
        low.append((p * den - num * q) / (q * den))
    high, low = np.array(high), np.array(low)
    powers = np.column_stack([high, low])
    # log10 of a power of two other than 1 is at least 1e-4 from an integer
    octave_e = np.floor(np.log10(np.ldexp(1.0, np.arange(_B_MIN - 1, _B_MAX)))).astype(np.int64)
    octave_next = np.where(low > 0, np.nextafter(high, np.inf), high).take(octave_e + 1 - _K_MIN)
    group = np.arange(10000)
    text = (group[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    trailing = sum((group % p == 0).astype(np.int64) for p in (10, 100, 1000, 10000))

    place = np.arange(_CELL)
    point, shown = (v[:, None] for v in np.divmod(np.arange(18 * 18), 18))
    before = (place >= 5) & (place < 5 + np.minimum(point, shown))
    after = (place >= 6 + point) & (place < 6 + shown)
    dot = np.where((place == 5 + point) & (shown > point), ord("."), 0)
    e = np.arange(_E_MIN, -_E_MIN + 1)
    sci = (e < -4) | (e > 16)
    fixed = np.array([(b"0." + b"0" * (-k - 1) if -4 <= k < 0 else b"").ljust(23, b"\0")
                      + (b"e%+03d" % k if k < -4 or k > 16 else b"") for k in e.tolist()],
                     dtype=f"S{_CELL}").view(np.uint8).reshape(e.size, _CELL)
    point18 = 18 * np.where(sci, 1, np.where(e < 0, 17, e + 1))
    least = np.where(sci | (e < 0), 0, e + 1)
    return (powers, octave_e, octave_next, text.view(np.uint32).ravel(), trailing,
            *(np.ascontiguousarray(c, dtype=np.uint8).view(np.uint32)
              for c in (before * 255, after * 255, dot, fixed)), point18, least)


def _format_floats(a: np.ndarray, out: np.ndarray) -> None:
    """Write ``"%.17g" % v`` of each magnitude v of ``a`` (a float >= 0, or
    nan) into the rows of ``out`` (a C-contiguous a.size by _CELL bytes), NUL
    wherever the text has no byte. A zero takes the slow path; the writer
    passes none."""
    (powers, octave_e, octave_next, group_text, group_trailing, before, after, dot, fixed,
     point18, least) = _tables()
    fast = (a >= FAST_RANGE[0]) & (a <= FAST_RANGE[1])
    v = np.where(fast, a, 1.0)
    octave = np.frexp(v)[1] - _B_MIN
    e = octave_e.take(octave) + (v >= octave_next.take(octave))
    # v 10^(16-e) as an unevaluated sum high + low: Dekker's exact product with
    # the table's high part plus v times its low part
    high_p, low_p = powers.take(16 - e - _K_MIN, axis=0).T
    high, low = two_product(v, high_p)
    low = low + v * low_p
    rounded = np.rint(low)
    digits = high.astype(np.int64) + rounded.astype(np.int64)
    fast &= ((np.abs(low - rounded) <= 0.5 - TIE_MARGIN)
             & (digits >= 10**16) & (digits <= 10**17))
    carry = digits == 10**17
    digits[carry] = 10**16
    e += carry

    groups = np.empty((a.size, 5), dtype=np.int64)  # 20 digits, the first three zero
    for j in range(4, -1, -1):
        quotient = digits // 10000
        groups[:, j] = digits - 10000 * quotient
        digits = quotient
    trailing = group_trailing.take(groups)  # 4 for a group of zeros
    zeros = trailing[:, 0]  # the first group is never 0
    for j in range(1, 5):
        zeros = np.where(trailing[:, j] == 4, zeros + 4, trailing[:, j])
    # %g: positional for -4 <= E < 17 with the point after digit E + 1 (none for
    # E < 0, whose "0.000" is in the prefix), scientific with the point after
    # digit 1 otherwise; trailing zeros go, those of the integer part stay
    row = e - _E_MIN
    layout = point18.take(row) + np.maximum(17 - zeros, least.take(row))
    # the 20 digits' text with digit k of the 17 at byte 5 + k of a cell, and
    # the same bytes one further right: cells of one buffer, one byte apart
    # (the bytes no mask keeps are never set)
    buffer = np.empty((a.size + 1) * _CELL, dtype=np.uint8)
    plain = buffer[_CELL:].reshape(a.size, _CELL)
    plain[:, 2:22] = group_text.take(groups).view(np.uint8).reshape(a.size, 20)
    shifted = buffer[_CELL - 1:-1].reshape(a.size, _CELL)
    cell = out.view(np.uint32)
    np.bitwise_and(plain.view(np.uint32), before.take(layout, axis=0), out=cell)
    cell |= shifted.view(np.uint32) & after.take(layout, axis=0)
    cell |= dot.take(layout, axis=0)
    cell |= fixed.take(row, axis=0)

    slow = np.flatnonzero(~fast)
    if slow.size:
        slow_text = np.array([b"%.17g" % v for v in a[slow].tolist()], dtype=f"S{_CELL}")
        out[slow] = slow_text.view(np.uint8).reshape(slow.size, _CELL)


def _abs2(values: np.ndarray) -> np.ndarray:
    """|z|^2 as hypot(re, im) ** 2 (np.abs of a complex differs from hypot in the last bit)."""
    return np.hypot(values.real, values.imag) ** 2


def _write_csv(path: Path, header: list[str], columns: list) -> None:
    """Header line, then one row per entry of the equal-length columns: a float
    column as ``"%.17g"`` writes it, a text column ``(labels, codes)`` (bytes
    labels, one integer code per row) as ``labels[codes[r]]``.

    A float cell is a sign byte and the text of its magnitude; a zero's is
    "0". Row r's partner is row size - 1 - r (on a symmetric grid, the -xi
    chord). The rows up to the middle are written first, and their text is
    kept; a cell of a later row whose magnitude equals its partner's (float
    ==, so never for nan) copies the partner's text. Rows are written a block
    at a time, each block's nonzero float cells that need text formatted in
    one _format_floats call of at most CSV_BLOCK_CELLS cells. A float column
    with no nonzero cell is written as the text column (_ZERO_LABELS, signbit).
    """
    columns = [(_ZERO_LABELS, np.signbit(c).view(np.uint8))
               if not isinstance(c, tuple) and not np.count_nonzero(c) else c for c in columns]
    widths = [c[0].itemsize if isinstance(c, tuple) else 1 + _CELL for c in columns]
    starts = np.cumsum([0] + [width + 1 for width in widths])  # the last is the row's width
    floats = [c for c in columns if not isinstance(c, tuple)]
    float_starts = [s for s, c in zip(starts, columns) if not isinstance(c, tuple)]
    texts = [(c[0].view(np.uint8).reshape(-1, c[0].itemsize), c[1], s)
             for c, s in zip(columns, starts) if isinstance(c, tuple)]
    size = len(floats[0]) if floats else len(texts[0][1])
    block_rows = max(1, CSV_BLOCK_CELLS // max(1, len(floats)))
    half = size - size // 2  # rows from here on have their partner before them
    kept = np.empty((half, len(floats), _CELL), dtype=np.uint8)
    # one block's rows: each block writes its cells, the separators stay
    table = np.zeros((min(block_rows, size), starts[-1]), dtype=np.uint8)
    table[:, starts[1:] - 1] = ord(",")
    table[:, -1] = ord("\n")

    def float_rows(lo, hi):
        block = np.empty((hi - lo, len(floats)))
        for j, c in enumerate(floats):
            block[:, j] = c[lo:hi]
        return block

    edges = [*range(0, half, block_rows), *range(half, size, block_rows), size]
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start, stop in zip(edges, edges[1:]):
            x = float_rows(start, stop)
            # a mirrored block is read in its partners' order, the order of
            # their kept text
            order = slice(None, None, 1 if start < half else -1)
            a = np.abs(x[order]).ravel()
            if start < half:
                text, fresh = kept[start:stop], None
            else:
                # each partner's text is read only here, so fresh text may
                # overwrite it
                text = kept[size - stop:size - start]
                fresh = a != np.abs(float_rows(size - stop, size - start)).ravel()
                if fresh.all():  # nothing to copy, as on an asymmetric grid
                    text, fresh = np.empty_like(text), None
            cells = text.reshape(-1, _CELL)
            nonzero, zero = a != 0.0, a == 0.0
            if fresh is not None:
                nonzero &= fresh
                zero &= fresh
            if nonzero.all():
                _format_floats(a, cells)
            elif nonzero.any():
                at = np.flatnonzero(nonzero)
                fresh_cells = np.empty((at.size, _CELL), dtype=np.uint8)
                _format_floats(a[at], fresh_cells)
                cells[at] = fresh_cells
            cells[np.flatnonzero(zero)] = _ZERO_TEXT
            text = text[order]
            block = table[:stop - start]
            minus = (np.signbit(x) & ~np.isnan(x)).view(np.uint8) * np.uint8(ord("-"))
            for j, s in enumerate(float_starts):
                block[:, s] = minus[:, j]
                block[:, s + 1:s + 1 + _CELL] = text[:, j]
            for labels, codes, s in texts:
                block[:, s:s + labels.shape[1]] = labels.take(codes[start:stop], axis=0)
            # NUL pads every cell to its column's width and never occurs in the text
            fh.write(block.tobytes().translate(None, b"\0"))


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
    # the axis columns index the axis's values (xp and xq are one axis), each
    # formatted once
    ticks = np.array([b"%.17g" % v for v in xp.tolist()])
    row_p, row_q = np.divmod(np.arange(values.size), xq.size)
    _write_csv(out, ["xi_p", "xi_q", "re", "im", "abs2", "phase", "flag"], [
        (ticks, row_p), (ticks, row_q), values.real, values.imag,
        _abs2(values), np.angle(values), (_FLAG_BYTES, grid.flags.ravel())])
    _write_report(out.with_suffix(".json"), "scan", opt, elapsed, {
        "evaluator": evaluator.name,
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
    tags = [ev.name for ev in evaluators]
    if len(set(tags)) < len(tags):
        # one name's columns twice, which a CSV reader keyed by header merges
        raise ValueError(f"cut lists an evaluator more than once: {', '.join(tags)}")
    lo, hi = opt["range"]
    if opt["samples"] < 1:
        raise ValueError("cut needs samples >= 1")
    ss = np.linspace(lo, hi, opt["samples"])
    started = time.perf_counter()
    outputs = [ev.evaluate(ss * d[0], ss * d[1]) for ev in evaluators]
    elapsed = time.perf_counter() - started

    header = ["s", "xi_p", "xi_q"]
    columns = [ss, ss * d[0], ss * d[1]]
    for ev, (values, flags) in zip(evaluators, outputs):
        tag = _safe(ev.name)
        header += [f"{tag}_re", f"{tag}_im", f"{tag}_abs2", f"{tag}_flag"]
        columns += [values.real, values.imag, _abs2(values), (_FLAG_BYTES, flags)]
    _write_csv(out, header, columns)
    _write_report(out.with_suffix(".json"), "cut", opt, elapsed, {
        "direction": [float(d[0]), float(d[1])],
        "evaluators": tags,
        "rows": int(ss.size),
    })
    print(f"cut: {ss.size} chords along ({d[0]:.4f}, {d[1]:.4f}) with "
          f"{', '.join(tags)} -> {out} in {elapsed:.1f}s")
    return EXIT_OK


def cmd_blindspots(args) -> int:
    """Moments, ellipse estimate, and located zeros, as a JSON report.

    With alpha3 t = 0 the state is a linear shear of the ring, so its zeros
    are the curves xi_p^2 + (xi_q - 2 t alpha2 xi_p)^2 = rho_k^2 over the ring's
    Laguerre radii rho_k: that report is degenerate, lists the radii and
    evaluates no chord. Every other state is scanned and searched.
    """
    opt = _merge(args)
    out = Path(opt["out"])
    state = _state(opt)
    evaluator = make_evaluator(opt["evaluator"], state)
    # the moments are the state's own, in closed form, whatever the evaluator;
    # the stationary-phase sums are singular at the origin, so for them the
    # Newton polish runs on the oracle
    pointlike = evaluator if evaluator.name.split(":")[0] in (
        "exact", "small", "semiclassical", "taylor") else make_evaluator("exact", state)
    degenerate = state.t * state.alpha[3] == 0.0

    started = time.perf_counter()
    moments = state_moments(state)
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
        "degenerate": degenerate,
        "scan_evaluator": evaluator.name,
        "polish_evaluator": pointlike.name,
        "estimated_spots": [[s.xi_p, s.xi_q] for s in estimate.spots],
    }
    if estimate.spots:
        report["estimate_radius"] = estimate.radius
    if degenerate:
        report["nodal_radii"] = nodal_radii(state.n, state.hbar).tolist()
        report["located_spots"] = []
    else:
        grid_axis = axis(*opt["region"], opt["resolution"])
        search = find_blind_spots(pointlike, scan_grid(evaluator, grid_axis, grid_axis))
        report["located_spots"] = [{
            "xi_p": s.chord.xi_p, "xi_q": s.chord.xi_q, "radius": s.radius,
            "residual": abs(s.value), "iterations": s.iterations,
        } for s in search.spots]
        report["n_seeds"] = search.n_seeds
        if search.spots:
            report["nearest_radius"] = search.nearest().radius
            if estimate.spots:
                report["estimate_over_nearest"] = estimate.radius / search.nearest().radius
    _write_report(out, "blindspots", opt, time.perf_counter() - started, report)
    kind = ("degenerate (nodal curves)" if degenerate
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
    except MemoryError as exc:  # a grid or cut too large: the sizes asked for are at fault
        print(f"chordscan: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"chordscan: did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except NumericalError as exc:
        print(f"chordscan: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
