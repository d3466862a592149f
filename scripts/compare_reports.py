"""Compare two directories of identity-suite JSON reports.

Both directories are written by `scripts/run_identity_suites.py --json DIR`
(one file per config).  Reports are matched by file name and identity name:

    python3 scripts/compare_reports.py OLD_DIR NEW_DIR

Lists added and missing reports, pass flips, and changes in expected,
computed or tolerance beyond RTOL (relative to the larger magnitude);
any of these makes the exit status 1.  Changes to the notes alone are
listed too but leave the exit status 0.
"""

import argparse
import json
import math
import sys
from pathlib import Path

VALUE_FIELDS = ("expected", "computed", "tolerance")
RTOL = 1e-12


def load(directory):
    """{(file name, identity name, occurrence): report dict} over DIR/*.json."""
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        seen = {}
        for rep in json.loads(path.read_text())["reports"]:
            name = rep["identity_name"]
            seen[name] = seen.get(name, 0) + 1
            out[(path.name, name, seen[name])] = rep
    return out


def _number(v):
    # reports_to_json writes complex values as [re, im] and non-finite ones as null
    if v is None:
        return None
    if isinstance(v, list):
        return complex(v[0], v[1])
    return complex(v)


def value_change(old, new):
    """Relative difference of two report values, or None when they agree."""
    a, b = _number(old), _number(new)
    if a is None or b is None:
        return None if a is b else math.inf
    scale = max(abs(a), abs(b))
    diff = abs(a - b)
    rel = diff / scale if scale > 0 else 0.0
    return rel if rel > RTOL else None


def compare(old, new):
    """(failures, notes-only changes), each a list of printable lines."""
    failures, notes = [], []
    for key in sorted(old.keys() - new.keys()):
        failures.append(f"missing   {key[0]} {key[1]}")
    for key in sorted(new.keys() - old.keys()):
        failures.append(f"added     {key[0]} {key[1]}")
    for key in sorted(old.keys() & new.keys()):
        a, b = old[key], new[key]
        where = f"{key[0]} {key[1]}"
        changed = False
        if a["pass"] != b["pass"]:
            failures.append(f"pass flip {where}: {a['pass']} -> {b['pass']}")
            changed = True
        for name in VALUE_FIELDS:
            rel = value_change(a[name], b[name])
            if rel is not None:
                failures.append(f"changed   {where} {name}: {a[name]} -> {b[name]} (relative {rel:.3e})")
                changed = True
        if not changed and a["notes"] != b["notes"]:
            notes.append(f"notes     {where}\n    old: {a['notes']}\n    new: {b['notes']}")
    return failures, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="directory of reference reports")
    parser.add_argument("new", help="directory of reports to check")
    args = parser.parse_args(argv)
    for directory in (args.old, args.new):
        if not Path(directory).is_dir():
            parser.error(f"not a directory: {directory}")
    old, new = load(args.old), load(args.new)
    failures, notes = compare(old, new)
    for line in failures + notes:
        print(line)
    print(
        f"{len(old.keys() & new.keys())} reports matched, {len(failures)} differences, "
        f"{len(notes)} notes-only changes"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
