"""Compare two `sylow2 verify --json` reports, ignoring their timings.

    python tools/report_diff.py OLD.json NEW.json

The report's `timestamp` and every claim's `runtime_ms` are dropped; any
other difference is printed as one line per differing path. Exits 0 when
the reports agree, 1 when they differ, and 2 when a file cannot be read as
such a report. Uses the standard library only.
"""

from __future__ import annotations

import json
import sys


def comparable(report) -> dict:
    """The report without its timestamp and its claims' runtime_ms."""
    claims = report.get("claims") if isinstance(report, dict) else None
    if not isinstance(claims, list) or not all(isinstance(c, dict) for c in claims):
        raise ValueError("not a sylow2 verify report")
    kept = {key: value for key, value in report.items() if key != "timestamp"}
    kept["claims"] = [{key: value for key, value in c.items() if key != "runtime_ms"} for c in claims]
    return kept


def differences(old, new, path: str = "$") -> list[str]:
    """One line per path at which the two JSON values differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in sorted(old.keys() | new.keys()):
            where = f"{path}.{key}"
            if key not in new:
                out.append(f"{where}: only in the first report")
            elif key not in old:
                out.append(f"{where}: only in the second report")
            else:
                out += differences(old[key], new[key], where)
        return out
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [line for i, (a, b) in enumerate(zip(old, new)) for line in differences(a, b, f"{path}[{i}]")]
    if old != new or type(old) is not type(new):
        return [f"{path}: {json.dumps(old, sort_keys=True)} != {json.dumps(new, sort_keys=True)}"]
    return []


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    reports = []
    for name in argv:
        try:
            with open(name) as handle:
                reports.append(comparable(json.load(handle)))
        except (OSError, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
    found = differences(*reports)
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
