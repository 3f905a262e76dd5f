"""Compare two trees of cuspdiv outputs number by number.

    python .github/scripts/compare_outputs.py BASE HEAD

Manifests (``*_manifest.json``, which hold timings) are skipped.  JSON and
CSV files are compared value by value: strings, booleans, nulls and
integers exactly, floating-point numbers to a relative RTOL, and two
numbers both below ATOL in magnitude (round-off residuals such as
``div_residual``) count as equal.  Every other file (the exit codes, the
Whitney decompositions) is compared byte for byte.  One line per file gives
its verdict and its largest relative change; exits 1 when any file differs
beyond the tolerance or exists on one side only.
"""

import csv
import json
import math
import sys
from pathlib import Path

RTOL = 1e-10
ATOL = 1e-12


def _number(cell):
    """int or float of a CSV cell, or the cell itself if it is no number."""
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def _values(path):
    """The values of a JSON or CSV file as a nested structure."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with path.open(newline="") as fh:
        return [[_number(cell) for cell in row] for row in csv.reader(fh)]


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _compare(a, b, where, worst):
    """Differences of a and b beyond the tolerance, as messages; the largest
    relative change of two floats goes to worst[0]."""
    if isinstance(a, float) or isinstance(b, float):
        # a float against an int: a CSV cell such as 0 is a float too
        if not (_is_number(a) and _is_number(b)):
            return [f"{where}: {a!r} != {b!r}"]
        a, b = float(a), float(b)
        if math.isnan(a) or math.isnan(b):
            return [] if math.isnan(a) and math.isnan(b) else [
                f"{where}: {a!r} != {b!r}"]
        if abs(a) < ATOL and abs(b) < ATOL or a == b:
            return []
        rel = abs(a - b) / max(abs(a), abs(b))
        worst[0] = max(worst[0], rel)
        return [f"{where}: {a!r} != {b!r} (relative {rel:.2e})"] \
            if rel > RTOL else []
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return [f"{where}: keys {sorted(a)} != {sorted(b)}"]
        return [m for k in a for m in _compare(a[k], b[k], f"{where}.{k}",
                                               worst)]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{where}: length {len(a)} != {len(b)}"]
        return [m for i, (x, y) in enumerate(zip(a, b))
                for m in _compare(x, y, f"{where}[{i}]", worst)]
    if type(a) is not type(b) or a != b:
        return [f"{where}: {a!r} != {b!r}"]
    return []


def compare_file(base, head):
    """(differences, largest relative change) of two files."""
    if base.suffix not in (".json", ".csv"):
        same = base.read_bytes() == head.read_bytes()
        return ([] if same else ["bytes differ"]), 0.0
    worst = [0.0]
    return _compare(_values(base), _values(head), "", worst), worst[0]


def main(argv):
    base, head = (Path(p) for p in argv)
    files = {p.relative_to(root) for root in (base, head)
             for p in root.rglob("*")
             if p.is_file() and not p.name.endswith("_manifest.json")}
    failed = False
    for rel in sorted(files):
        if not (base / rel).exists() or not (head / rel).exists():
            side = "base" if (base / rel).exists() else "head"
            print(f"{rel}: only in {side}")
            failed = True
            continue
        diffs, worst = compare_file(base / rel, head / rel)
        verdict = "DIFFERS" if diffs else "same"
        print(f"{rel}: {verdict}, largest relative change {worst:.2e}")
        for msg in diffs[:10]:
            print(f"    {msg}")
        failed = failed or bool(diffs)
    print(f"tolerance: relative {RTOL:g}, both below {ATOL:g} equal; "
          f"{'differences found' if failed else 'no differences'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
