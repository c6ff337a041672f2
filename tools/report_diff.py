"""Compare two `sylow2 verify --json` reports, ignoring their timings.

    python tools/report_diff.py OLD.json NEW.json

Each file must load as a report through
sylow2.claims.VerificationReport.from_json, the reader of the sylow2 in this
checkout's src/, which keeps every field a report holds. The loaded reports
are compared without the report's `timestamp` and every claim's
`runtime_ms`; any other difference is printed as one line per
differing path. Exits 0 when the reports agree, 1 when they differ, and 2
when a file cannot be read as such a report.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from sylow2.claims import VerificationReport  # noqa: E402


def comparable(report: dict) -> dict:
    """A loaded report's JSON fields, without its timestamp and its claims'
    runtime_ms."""
    kept = {key: value for key, value in report.items() if key != "timestamp"}
    kept["claims"] = [{key: value for key, value in c.items() if key != "runtime_ms"} for c in report["claims"]]
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
                reports.append(comparable(VerificationReport.from_json(handle.read()).to_json_dict()))
        except (OSError, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
    found = differences(*reports)
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
