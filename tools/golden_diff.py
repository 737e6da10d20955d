"""Say which rows of a CSV moved between two runs of one command.

A golden digest in ``tests/test_golden.py`` only says that some byte of a
command's output changed.  This script compares the two outputs column by
column:

    python tools/golden_diff.py OLD.csv NEW.csv

For a numeric column it prints how many rows changed, the largest absolute
and relative difference, and the largest difference in ulps (units in the
last place of a float64, between the printed values as parsed); for a text
column, how many rows changed.  Columns are matched by name.  A column is
numeric when every nonblank cell of it parses as a float in both files, and
a change from or to a blank cell counts as a changed row with no difference.

Make the two files by running the command at two revisions, for example with
a checkout of the parent commit::

    git worktree add ../parent HEAD
    PYTHONPATH=../parent/src python -m dualsig.cli ARGV > OLD.csv
    PYTHONPATH=src python -m dualsig.cli ARGV > NEW.csv

Standard library only.  Exits 0 when the files hold the same cells, 1 when
any cell, column or row count differs, and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import csv
import math
import struct
import sys


def _read(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path} has no header row")
    return rows[0], rows[1:]


def _number(cell: str) -> float | None:
    """The cell as a float, None when blank; ValueError when it is text."""
    return None if cell == "" else float(cell)


def _ordered(x: float) -> int:
    """An integer that orders float64 values as the reals do, one step per
    representable value, so that its difference counts ulps."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def compare_column(old: list[str], new: list[str]) -> dict:
    """Summary of one column over the rows both files hold."""
    changed = sum(a != b for a, b in zip(old, new))
    try:
        pairs = [(_number(a), _number(b)) for a, b in zip(old, new)]
    except ValueError:
        return {"kind": "text", "changed": changed}
    out = {"kind": "numeric", "changed": changed, "abs": 0.0, "rel": 0.0, "ulps": 0}
    for a, b in pairs:
        if a is None or b is None or a == b or math.isnan(a) or math.isnan(b):
            continue
        diff = abs(b - a)
        out["abs"] = max(out["abs"], diff)
        out["rel"] = max(out["rel"], diff / abs(a) if a != 0.0 else math.inf)
        if math.isfinite(a) and math.isfinite(b):
            out["ulps"] = max(out["ulps"], abs(_ordered(b) - _ordered(a)))
    return out


def diff(old_path: str, new_path: str) -> tuple[list[str], bool]:
    """The report lines, and whether the two files differ."""
    old_header, old_rows = _read(old_path)
    new_header, new_rows = _read(new_path)
    lines, differs = [], False
    if len(old_rows) != len(new_rows):
        differs = True
        lines.append(f"rows: {len(old_rows)} old, {len(new_rows)} new; "
                     f"comparing the first {min(len(old_rows), len(new_rows))}")
    for name in [c for c in old_header if c not in new_header]:
        differs = True
        lines.append(f"column {name!r} only in old")
    for name in [c for c in new_header if c not in old_header]:
        differs = True
        lines.append(f"column {name!r} only in new")
    lines.append(f"{'column':<14} {'kind':<8} {'changed':>8} {'max_abs':>10} "
                 f"{'max_rel':>10} {'max_ulps':>18}")
    for name in (c for c in old_header if c in new_header):
        i, j = old_header.index(name), new_header.index(name)
        column = compare_column([row[i] for row in old_rows], [row[j] for row in new_rows])
        differs |= column["changed"] > 0
        line = f"{name:<14} {column['kind']:<8} {column['changed']:>8}"
        if column["kind"] == "numeric":
            line += f" {column['abs']:>10.3g} {column['rel']:>10.3g} {column['ulps']:>18}"
        lines.append(line)
    return lines, differs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="CSV written by the old revision")
    parser.add_argument("new", help="CSV written by the new revision")
    args = parser.parse_args(argv)
    try:
        lines, differs = diff(args.old, args.new)
    except (OSError, ValueError) as exc:
        print(f"golden_diff: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
