"""Check that every number in CSV files is written as the bytes of "%.17g".

    python tests/check_g17.py FILE.csv [FILE.csv ...]

Every line after a file's header must read exactly as its cells rewritten
by "%.17g" % float(cell), with a cell that is not a number (the flag column)
left as it is, and the file must end in a newline. The first failure exits
with status 1 and one line naming the file. The script imports nothing from
chordscan, and pytest does not collect it (tests/test_check_g17.py tests it).
"""

from __future__ import annotations

import argparse
import sys


def g17(cell: str) -> str:
    """The cell as "%.17g" writes its number; a cell that is no number as it is."""
    try:
        return "%.17g" % float(cell)
    except ValueError:
        return cell


def problems(text: str) -> list[str]:
    """Every line of the CSV ``text`` that is not the bytes of "%.17g", as text."""
    *lines, tail = text.split("\n")
    if not lines:
        return ["no header line"]
    found = [] if tail == "" else ["no newline at the end"]
    for number, line in enumerate(lines[1:], start=2):
        want = ",".join(map(g17, line.split(",")))
        if line != want:
            found.append(f"line {number} reads {line!r}, not {want!r}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+")
    for path in parser.parse_args(argv).files:
        with open(path, newline="") as fh:
            found = problems(fh.read())
        if found:
            print(f"{path}: {found[0]}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
