#!/usr/bin/env python3
"""Fold per-cell race reports into one sorted summary.

Usage: race_summary.py RACES.json [RACES2.json ...] > SUMMARY.json

Reads the reports race_sweep writes with --race-json (r.<workload>.
<config>.json, one per cell) and prints a single JSON document: a list
of the reports ordered by (workload, config), each with its summary
counts and every race record, keys sorted and one field per line. The
output depends only on the reports' contents, never on file names or
the order they were given in, so two sweeps of the same code produce
byte-identical summaries and `diff -u` shows exactly which cell moved.

CI diffs the summaries of the 1- and 2-device scale-20 sweeps against
bench/baselines/RACES.scale20*.json. Regenerate a baseline only when a
change is meant to move race reports, and say why in CHANGES.md.

Exits 0 on success, 1 if a file cannot be read or parsed.
"""

import json
import sys


def main(argv):
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip(), file=sys.stderr)
        return 1
    cells = []
    for path in argv:
        try:
            with open(path, encoding="utf-8") as f:
                report = json.load(f)
        except (OSError, ValueError) as err:
            print(f"race_summary: {path}: {err}", file=sys.stderr)
            return 1
        cells.append(report)
    cells.sort(key=lambda r: (r.get("workload", ""), r.get("config", "")))
    json.dump(cells, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
