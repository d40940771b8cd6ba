"""Check blind-spot reports, the JSON files that ``chordscan blindspots`` writes.

    python tests/check_blindspots.py REPORT.json [REPORT.json ...]
        [--count N] [--under-resolved | --resolved]

Every report must list at least one spot, and its spots must
* lie inside the scanned region (the report's ``config.region``);
* each have a residual of at most 1e-12;
* pair up under xi -> -xi: each spot has a listed spot within 1e-6 of its
  mirror image;
* keep at least 1e-6 cell diagonals apart, the cell being the region over
  ``config.resolution - 1``;
* list spots whose radii differ by less than 1e-12 (a tie) in xi_q order.

``--count N`` asks for exactly N spots, and ``--under-resolved`` or
``--resolved`` for the report's ``under_resolved`` value. The first failure
exits with status 1 and one line naming the report. The script reads only
the JSON, so it imports nothing from chordscan, and pytest does not collect
it (tests/test_check_blindspots.py tests it).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

PAIR_TOL = 1e-6
RESIDUAL_TOL = 1e-12
SPACING_CELLS = 1e-6
TIE_TOL = 1e-12


def problems(report: dict, count: int | None = None,
             under_resolved: bool | None = None) -> list[str]:
    """Every property of the module docstring that ``report`` misses, as text."""
    found = []
    spots = report["located_spots"]
    if not spots:
        found.append("no spots")
    if count is not None and len(spots) != count:
        found.append(f"{len(spots)} spots, want {count}")
    if under_resolved is not None and report["under_resolved"] != under_resolved:
        found.append(f"under_resolved is {report['under_resolved']}, want {under_resolved} "
                     f"(resolution_ratio {report['resolution_ratio']})")
    lo, hi = map(float, report["config"]["region"].split(":"))
    cell = (hi - lo) / (int(report["config"]["resolution"]) - 1)
    for s in spots:
        if not (lo <= s["xi_p"] <= hi and lo <= s["xi_q"] <= hi):
            found.append(f"spot outside the region [{lo}, {hi}]: {s}")
        if not s["residual"] <= RESIDUAL_TOL:
            found.append(f"residual above {RESIDUAL_TOL}: {s}")
        gap = min(math.hypot(s["xi_p"] + o["xi_p"], s["xi_q"] + o["xi_q"]) for o in spots)
        if not gap <= PAIR_TOL:
            found.append(f"no partner under xi -> -xi within {PAIR_TOL} (gap {gap}): {s}")
    spacing = SPACING_CELLS * math.hypot(cell, cell)
    for a, b in itertools.combinations(spots, 2):
        if math.hypot(a["xi_p"] - b["xi_p"], a["xi_q"] - b["xi_q"]) < spacing:
            found.append(f"two spots within {SPACING_CELLS} cell diagonals: {a}, {b}")
    for a, b in zip(spots, spots[1:]):
        if abs(b["radius"] - a["radius"]) < TIE_TOL and a["xi_q"] > b["xi_q"]:
            found.append(f"radius tie out of xi_q order: {a}, {b}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reports", nargs="+")
    parser.add_argument("--count", type=int)
    resolution = parser.add_mutually_exclusive_group()
    resolution.add_argument("--under-resolved", dest="under_resolved", action="store_const",
                            const=True)
    resolution.add_argument("--resolved", dest="under_resolved", action="store_const",
                            const=False)
    args = parser.parse_args(argv)
    for path in args.reports:
        with open(path) as fh:
            found = problems(json.load(fh), args.count, args.under_resolved)
        if found:
            print(f"{path}: {found[0]}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
