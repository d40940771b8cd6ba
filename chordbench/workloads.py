"""The benchmark workloads: what one pass runs and how its outputs are checked.

A workload is a list of steps. Each step has a ``run`` that calls chordscan
the way a user does (the CLI on a recipe, or a library function) and is
timed; a ``read`` that loads what the run produced (untimed, also done in
the warm-up pass, because later steps may use it); and a ``check`` that
compares the output with values computed apart from the program (untimed,
done in measured passes). Library functions are reached through module
attributes at call time, so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import chordscan as cs
import chordscan.cli

import checks
import reference as ref

ALPHA = (0.0, 1.0, 1.0, 1.0)
PROBES = 16  # seeded probe chords per checked sheared field


class StepFailed(RuntimeError):
    """A step's program call did not complete (raised, or exited non-zero)."""


@dataclass
class Step:
    name: str
    run: Callable[[], object]
    read: Callable[[object], object]
    check: Callable[[object], list]


@dataclass(frozen=True)
class Field:
    """A chord-function field as the program wrote or returned it."""

    xi_p: np.ndarray
    xi_q: np.ndarray
    values: np.ndarray
    flags: np.ndarray | None = None  # flag names, as in the CSV


def read_field_csv(path: Path) -> Field:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    xi_p = np.array(sorted({float(r[0]) for r in rows}))
    xi_q = np.array(sorted({float(r[1]) for r in rows}))
    shape = (xi_p.size, xi_q.size)
    if len(rows) != xi_p.size * xi_q.size:
        raise StepFailed(f"{path.name}: {len(rows)} rows do not fill a {shape} grid")
    values = np.array([complex(float(r[2]), float(r[3])) for r in rows]).reshape(shape)
    flags = np.array([r[6] for r in rows]).reshape(shape)
    return Field(xi_p, xi_q, values, flags)


def read_columns_csv(path: Path) -> dict:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns = list(zip(*reader))
    out = {}
    for name, column in zip(header, columns):
        try:
            out[name] = np.array([float(v) for v in column])
        except ValueError:
            out[name] = np.array(column)
    return out


def grid_field(grid) -> Field:
    return Field(grid.xi_p_axis, grid.xi_q_axis, grid.values)


def run_cli(argv) -> None:
    """chordscan's CLI entry point, its progress lines sent to stderr."""
    with contextlib.redirect_stdout(sys.stderr):
        code = chordscan.cli.main([str(a) for a in argv])
    if code != 0:
        raise StepFailed(f"chordscan {argv[0]} exited with code {code}")


def field_checks(f: Field, herm_tol: float = 1e-9) -> list:
    return (checks.unit_at_origin(f.xi_p, f.xi_q, f.values)
            + checks.bounded_by_one(f.values)
            + checks.hermitian(f.xi_p, f.xi_q, f.values, herm_tol))


def reference_chi(state):
    """The benchmark's own overlap quadrature for ``state``, as a function of the chord."""
    return lambda xi: ref.overlap_chi(state.n, state.hbar, state.alpha, state.t, xi)


class ProbeSet:
    """Seeded grid nodes of one state, with reference values computed on first use."""

    def __init__(self, rng, shape, state):
        self.indices = np.column_stack([rng.integers(0, k, PROBES) for k in shape])
        self.chi = reference_chi(state)
        self._expected = None

    def check(self, f: Field) -> list:
        if self._expected is None:
            self._expected = np.array([self.chi((f.xi_p[i], f.xi_q[j]))
                                       for i, j in self.indices])
        return checks.probes(f.xi_p, f.xi_q, f.values, self.indices, self._expected)


class Workload:
    """A fixed list of steps built once, at set-up, for one run."""

    def __init__(self, root: Path, out: Path, seed: int):
        self.recipes = root / "recipes"
        self.out = out
        self.rng = np.random.default_rng(seed)
        self.steps: list[Step] = []
        self.build()

    def recipe(self, name: str) -> Path:
        return self.recipes / f"{name}.cfg"

    def build(self) -> None:
        raise NotImplementedError


class ExactFields(Workload):
    """Whole-grid overlap quadrature: two field recipes, certificates, node ladder."""

    def build(self):
        ring = cs.CurveSpec(n=5, hbar=0.1, alpha=ALPHA, t=0.0)
        sheared = cs.CurveSpec(n=5, hbar=0.1, alpha=ALPHA, t=0.1)
        strong = cs.CurveSpec(n=5, hbar=0.1, alpha=ALPHA, t=1.0)
        purity_eval = cs.make_evaluator("exact", sheared)
        strong_eval = cs.make_evaluator("exact", strong)
        purity_axis = cs.axis(-3.2, 3.2, 161)
        strong_axis = cs.axis(-4.0, 4.0, 61)
        sheared_probes = ProbeSet(self.rng, (161, 161), sheared)
        strong_probes = ProbeSet(self.rng, (61, 61), strong)
        ring_csv = self.out / "ring-field.csv"
        sheared_csv = self.out / "sheared-field.csv"
        held = {}

        def read_ring(_):
            held["ring"] = read_field_csv(ring_csv)
            return held["ring"]

        def run_purity():
            grid = cs.scan_grid(purity_eval, purity_axis, purity_axis)
            return (grid, cs.fourier_invariance_residual(grid), cs.correlation_C(grid))

        def check_purity(out):
            grid, residual, corr = out
            f = grid_field(grid)
            return (field_checks(f)
                    + checks.normalization(f.xi_p, f.xi_q, f.values, sheared.hbar)
                    + checks.purity_certificates(f.values, residual, corr))

        def run_nodal():
            r = held["ring"]
            grid = cs.ChordFieldGrid(xi_p_axis=r.xi_p, xi_q_axis=r.xi_q, values=r.values,
                                     flags=np.zeros(r.values.shape, dtype=np.uint8),
                                     hbar=ring.hbar)
            return cs.nodal_contours(grid, "real")

        def check_nodal(nodal):
            r = held["ring"]
            return checks.nodal_rings([(c.points, c.closed) for c in nodal.curves],
                                      ring.n, ring.hbar, cell=r.xi_p[1] - r.xi_p[0])

        def check_strong(grid):
            f = grid_field(grid)
            return field_checks(f) + strong_probes.check(f)

        self.steps = [
            Step("ring-field",
                 lambda: run_cli(["scan", "--config", self.recipe("ring-field"),
                                  "--out", ring_csv]),
                 read_ring,
                 lambda f: field_checks(f) + checks.ring_closed_form(
                     f.xi_p, f.xi_q, f.values, ring.n, ring.hbar)),
            Step("sheared-field",
                 lambda: run_cli(["scan", "--config", self.recipe("sheared-field"),
                                  "--out", sheared_csv]),
                 lambda _: read_field_csv(sheared_csv),
                 lambda f: field_checks(f) + sheared_probes.check(f)),
            Step("purity-certificate", run_purity, lambda out: out, check_purity),
            Step("ring-nodal-contours", run_nodal, lambda out: out, check_nodal),
            Step("strong-shear-grid",
                 lambda: cs.scan_grid(strong_eval, strong_axis, strong_axis),
                 lambda out: out, check_strong),
        ]


class SemiclassicalFields(Workload):
    """Tangency and realization root solves: a composite scan and the comparison cut."""

    def build(self):
        sheared = cs.CurveSpec(n=5, hbar=0.1, alpha=ALPHA, t=0.1)
        scan_csv = self.out / "sheared-semiclassical.csv"
        cut_csv = self.out / "comparison-cut.csv"
        samples = 401
        cut_probes = self.rng.integers(0, samples, PROBES)
        chi = reference_chi(sheared)
        cut_expected = []

        def check_scan(f):
            diameter = ref.curve_diameter(sheared.n, sheared.hbar, sheared.alpha, sheared.t)
            return (checks.unit_at_origin(f.xi_p, f.xi_q, f.values)
                    + checks.hermitian(f.xi_p, f.xi_q, f.values, tol=1e-8)
                    + checks.long_chords_evanescent(f.xi_p, f.xi_q, f.flags, diameter))

        def check_cut(cols):
            exact = cols["exact_re"] + 1j * cols["exact_im"]
            semi = cols["semiclassical_re"] + 1j * cols["semiclassical_im"]
            if not cut_expected:
                cut_expected.extend(chi((cols["xi_p"][k], cols["xi_q"][k])) for k in cut_probes)
            return (checks.cut_starts_at_one(cols["s"], exact)
                    + checks.cut_starts_at_one(cols["s"], semi)
                    + checks.cut_probes(exact, cut_probes, np.array(cut_expected))
                    + checks.cut_agreement(cols["s"], cols["exact_abs2"],
                                           cols["semiclassical_abs2"], cols["semiclassical_flag"]))

        self.steps = [
            Step("semiclassical-scan-41",
                 lambda: run_cli(["scan", "--config", self.recipe("sheared-field"),
                                  "--evaluator", "semiclassical", "--resolution", 41,
                                  "--out", scan_csv]),
                 lambda _: read_field_csv(scan_csv), check_scan),
            Step("comparison-cut",
                 lambda: run_cli(["cut", "--config", self.recipe("comparison-cut"),
                                  "--samples", samples, "--out", cut_csv]),
                 lambda _: read_columns_csv(cut_csv), check_cut),
        ]


class BlindspotSearch(Workload):
    """Single-chord oracle calls: moments, Newton polish of seeds, the mean ray."""

    def build(self):
        reference_state = cs.CurveSpec(n=5, hbar=0.1, alpha=ALPHA, t=0.1)
        small_state = cs.CurveSpec(n=3, hbar=0.1, alpha=ALPHA, t=0.2)
        ray_eval = cs.make_evaluator("exact", reference_state)
        ladder = ref.ladder_moments(reference_state.n, reference_state.hbar,
                                    reference_state.alpha, reference_state.t)
        estimate = (2.0 * reference_state.hbar ** 2 / ladder["p2"]) ** 0.5
        direction = (ladder["mean_p"], ladder["mean_q"])

        def report_step(name, state, extra):
            path = self.out / f"{name}.json"
            expected = ref.ladder_moments(state.n, state.hbar, state.alpha, state.t)
            chi = reference_chi(state)

            def check(report):
                spots = [(s["xi_p"], s["xi_q"]) for s in report["located_spots"]]
                return (checks.moments(report, expected)
                        + checks.estimate_radius(report, state.hbar, expected["p2"])
                        + checks.spots_are_zeros(spots, chi)
                        + checks.spots_paired(spots))

            return Step(name,
                        lambda: run_cli(["blindspots", "--config",
                                         self.recipe("blindspot-report"), *extra,
                                         "--out", path]),
                        lambda _: json.loads(path.read_text()), check)

        self.steps = [
            report_step("blindspot-report", reference_state, []),
            report_step("blindspot-report-n3", small_state,
                        ["--n", 3, "--t", 0.2, "--region=-0.6:0.6"]),
            Step("mean-ray-zero",
                 lambda: cs.first_zero_along(ray_eval, direction, s_max=0.4),
                 lambda root: root,
                 lambda root: checks.ray_zero(root, direction, reference_chi(reference_state),
                                              estimate=estimate)),
        ]


WORKLOADS = {
    "exact-fields": ExactFields,
    "semiclassical-fields": SemiclassicalFields,
    "blindspot-search": BlindspotSearch,
}
