"""Compare two directories of identity-suite JSON reports.

Both directories are written by `scripts/run_identity_suites.py --json DIR`
(one file per config).  Reports are matched by file name and identity name:

    python3 scripts/compare_reports.py OLD_DIR NEW_DIR
    python3 scripts/compare_reports.py --rtol 0 OLD_DIR NEW_DIR   # bit for bit
    python3 scripts/compare_reports.py --rtol 1e-12 --atol 1e-14 OLD_DIR NEW_DIR

Lists added and missing reports, pass flips, and changes in expected,
computed or tolerance; any of these makes the exit status 1, and so does
finding no report to match at all (empty or mistaken directories).  Two values
agree when they differ by at most --atol (default 0) or by at most --rtol
relative to the larger magnitude (default RTOL): residues and tolerances
near rounding level change by large relative amounts when a computation is
reordered, and --atol lets such changes through.  Changes to the notes
alone are listed too but leave the exit status 0.
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


def value_change(old, new, rtol=RTOL, atol=0.0):
    """Relative difference of two report values, or None when they agree:
    differ by at most atol, or by at most rtol relative to the larger magnitude."""
    a, b = _number(old), _number(new)
    if a is None or b is None:
        return None if a is b else math.inf
    scale = max(abs(a), abs(b))
    diff = abs(a - b)
    rel = diff / scale if scale > 0 else 0.0
    return None if diff <= atol or rel <= rtol else rel


def compare(old, new, rtol=RTOL, atol=0.0):
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
            rel = value_change(a[name], b[name], rtol, atol)
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
    parser.add_argument(
        "--rtol", type=float, default=RTOL, help=f"relative tolerance for values (default {RTOL:g}; 0 is bit for bit)"
    )
    parser.add_argument("--atol", type=float, default=0.0, help="absolute tolerance for values (default 0)")
    args = parser.parse_args(argv)
    for name in ("rtol", "atol"):
        if not getattr(args, name) >= 0.0:
            parser.error(f"--{name} must be nonnegative, got {getattr(args, name)}")
    for directory in (args.old, args.new):
        if not Path(directory).is_dir():
            parser.error(f"not a directory: {directory}")
    old, new = load(args.old), load(args.new)
    failures, notes = compare(old, new, args.rtol, args.atol)
    for line in failures + notes:
        print(line)
    matched = len(old.keys() & new.keys())
    print(f"{matched} reports matched, {len(failures)} differences, {len(notes)} notes-only changes")
    return 1 if failures or not matched else 0


if __name__ == "__main__":
    sys.exit(main())
