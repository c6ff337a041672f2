"""List the functions of src/sylow2 that no command, tool or workload enters.

    python3 tools/reach.py [--lines MODULE]

Runs, in this one process and under one sys.settrace hook, everything the
library is for:

- the CLI, through sylow2.cli.main: verify --all at the defaults, --cap 1,
  --cap 10, --max-k 5 and --strict, and --cap 10 --strict (a failed run);
  verify --claim; order; decompose; gens for all four families, including
  --n 300 for syl2_S and syl2_A and --k 9; some of them with --json; and the
  argvs that end in a usage or parameter error;
- tools/report_diff.py's main on two of those reports, and on one of them
  hand-edited into a file that is no report (a claim's runtime_ms a
  fraction);
- benchmark/lattice.py's prepare and complete (which calls query) on the
  first query of each stratum of benchmark/reference/lattice_pool.json.

Each argv must end with its expected exit code. Then it prints every
function or method of src/sylow2 that none of them entered, apart from
ALLOWED, which gives the reason each of its entries is kept; and every entry
of ALLOWED that names no function or that something entered.

With --lines MODULE it traces lines instead of calls, in the frames whose
code lives in src/sylow2 only, and prints each executable line of
src/sylow2/MODULE.py that none of the runs reached, as MODULE:LINE and its
text, apart from the lines of raise statements (the argument guards). No
allow-list applies.

Exits 0 when it prints nothing, and 1 otherwise. Uses the standard library
only; the files it writes go to a temporary directory that it removes.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib.util
import io
import json
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "sylow2"
POOL = ROOT / "benchmark" / "reference" / "lattice_pool.json"

# entered by no command, tool or workload, and kept: module.qualname -> why
_GROUP_VALUE = "EnumeratedGroup's value semantics over degree, gen_keys and elements; tests use it"
_FIELD_VALUE = "the field-wise value semantics of an immutable record; tests use it"
ALLOWED = {
    "perm_core.Permutation.__repr__": "writes the counterexamples of a failing claim",
    "perm_core._immutable": "the immutability guard of every value type; only a wrong write reaches it",
    "tree_core.Portrait.__hash__": _FIELD_VALUE,
    "tree_core.Portrait.__repr__": _FIELD_VALUE,
    "group_engine.EnumeratedGroup.__eq__": _GROUP_VALUE,
    "group_engine.EnumeratedGroup.__hash__": _GROUP_VALUE,
    "group_engine.EnumeratedGroup.__repr__": _GROUP_VALUE,
    "group_engine.GeneratorSet.__eq__": _FIELD_VALUE,
    "group_engine.GeneratorSet.__hash__": _FIELD_VALUE,
    "group_engine.GeneratorSet.__repr__": _FIELD_VALUE,
}

_OK, _FAILED, _USAGE = 0, 1, 2


def _argvs(tmp: Path) -> list[tuple[list[str], int]]:
    """(argv, expected exit code) for each CLI run."""
    runs = [
        (["verify", "--all", "--json", str(tmp / "default.json")], _OK),
        (["verify", "--all", "--cap", "1", "--json", str(tmp / "cap1.json")], _OK),
        (["verify", "--all", "--cap", "10"], _OK),
        (["verify", "--all", "--max-k", "5"], _OK),
        (["verify", "--all", "--strict"], _OK),
        (["verify", "--all", "--cap", "10", "--strict"], _FAILED),
        (["verify", "--claim", "order-gk", "--k", "3", "--n", "6", "--seed", "7"], _OK),
        (["verify", "--claim", "ORDER-GK", "--json", str(tmp / "claim.json")], _OK),
        (["order", "--n", "12", "--kind", "A", "--json", str(tmp / "order.json")], _OK),
        (["decompose", "--n", "22", "--json", str(tmp / "decompose.json")], _OK),
        (["gens", "--family", "s_alpha", "--k", "9"], _OK),
        (["gens", "--family", "s_beta", "--k", "3", "--json", str(tmp / "gens.json")], _OK),
        (["gens", "--family", "syl2_S", "--n", "300"], _OK),
        (["gens", "--family", "syl2_A", "--n", "10"], _OK),
        (["gens", "--family", "syl2_A", "--n", "300"], _OK),
    ]
    errors = [
        [],
        ["verify"],
        ["verify", "--claim", "no-such-claim"],
        ["verify", "--all", "--cap", "0"],
        ["verify", "--all", "--max-k", "9"],
        ["verify", "--all", "--max-n", "1"],
        ["verify", "--all", "--json", str(tmp / "missing" / "report.json")],
        ["order", "--n", "-1", "--kind", "S"],
        ["order", "--n", "20000", "--kind", "S"],
        ["decompose", "--n", "0"],
        ["gens", "--family", "s_alpha"],
        ["gens", "--family", "syl2_S"],
        ["gens", "--family", "syl2_A", "--json", str(tmp / "x.json")],
        ["gens", "--family", "s_beta", "--k", "0"],
        ["gens", "--family", "syl2_A", "--n", "1"],
    ]
    return runs + [(argv, _USAGE) for argv in errors]


def _load(name: str, path: Path) -> types.ModuleType:
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _quietly(main, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _exercise(tmp: Path) -> list[str]:
    """Run every command, tool and workload; one line per run that ended
    with an unexpected exit code or answer."""
    from sylow2 import cli

    wrong = []
    for argv, expected in _argvs(tmp):
        code = _quietly(cli.main, argv)
        if code != expected:
            wrong.append(f"sylow2 {' '.join(argv)}: exit {code}, expected {expected}")

    report_diff = _load("report_diff", ROOT / "tools" / "report_diff.py")
    code = _quietly(report_diff.main, [str(tmp / "default.json"), str(tmp / "cap1.json")])
    if code not in (0, 1):
        wrong.append(f"report_diff: exit {code}, expected 0 or 1")
    edited = json.loads((tmp / "default.json").read_text())
    edited["claims"][0]["runtime_ms"] = 0.5
    (tmp / "edited.json").write_text(json.dumps(edited))
    code = _quietly(report_diff.main, [str(tmp / "default.json"), str(tmp / "edited.json")])
    if code != _USAGE:
        wrong.append(f"report_diff on a hand-edited report: exit {code}, expected {_USAGE}")

    lattice = _load("lattice", ROOT / "benchmark" / "lattice.py")
    strata = json.loads(POOL.read_text())["strata"]
    queries = [stratum[0] for stratum in strata.values()]
    job, out = tmp / "job.json", tmp / "out.json"
    job.write_text(json.dumps({"queries": queries}))
    lattice.complete(lattice.prepare(str(job)), str(out))
    results = json.loads(out.read_text())["results"]
    for q, result in zip(queries, results):
        del result["latency_s"]
        if result != q["expected"]:
            wrong.append(f"lattice query {q['id']}: answer differs from the pool's")
    return wrong


def _codes(code: types.CodeType):
    """code and every code object compiled into it, nested ones included."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _codes(const)


def _functions(code: types.CodeType):
    """The named functions compiled into code: not the module, a lambda or a
    comprehension."""
    return (c for c in _codes(code) if not c.co_name.startswith("<"))


def _traced(trace) -> list[str]:
    """_exercise's lines, run with sylow2 imported, under sys.settrace(trace)."""
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(trace)
        try:
            import sylow2  # import-time calls count as entered

            return _exercise(Path(tmp))
        finally:
            sys.settrace(None)


def _unentered() -> list[str]:
    entered: set[types.CodeType] = set()

    def trace(frame, event, arg):
        entered.add(frame.f_code)  # a call event; no line tracing

    wrong = _traced(trace)
    seen = {(c.co_filename, c.co_firstlineno, c.co_qualname) for c in entered}
    unreached = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for code in _functions(compile(path.read_text(), str(path), "exec")):
            if (str(path), code.co_firstlineno, code.co_qualname) not in seen:
                unreached.add(f"{path.stem}.{code.co_qualname}")
    lines = wrong + [f"not entered: {name}" for name in sorted(unreached - ALLOWED.keys())]
    lines += [f"allowed but entered or absent: {name}" for name in sorted(ALLOWED.keys() - unreached)]
    return lines


def _unrun_lines(module: str) -> list[str]:
    path = PACKAGE / f"{module}.py"
    source = path.read_text()
    ran: set[int] = set()
    package, filename = str(PACKAGE), str(path)

    def in_package(frame, event, arg):
        if event == "line" and frame.f_code.co_filename == filename:
            ran.add(frame.f_lineno)
        return in_package

    def trace(frame, event, arg):
        return in_package if frame.f_code.co_filename.startswith(package) else None

    wrong = _traced(trace)
    executable = {
        line
        for code in _codes(compile(source, filename, "exec"))
        for _, _, line in code.co_lines()
        if line  # 0 or None: no source line
    }
    raises = {
        line
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise)
        for line in range(node.lineno, node.end_lineno + 1)
    }
    text = source.splitlines()
    unrun = sorted(executable - ran - raises)
    return wrong + [f"{module}:{line}: {text[line - 1].strip()}" for line in unrun]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--lines", metavar="MODULE", choices=sorted(p.stem for p in PACKAGE.glob("*.py")),
        help="list the unrun lines of src/sylow2/MODULE.py instead of the unentered functions",
    )
    args = parser.parse_args(argv)
    lines = _unrun_lines(args.lines) if args.lines else _unentered()
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
