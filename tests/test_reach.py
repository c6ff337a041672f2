"""tools/reach.py, the probe of which library functions the commands, the
tools and the lattice workload enter. It runs in a fresh process, so that
the functions the import of sylow2 calls count as entered."""

import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def test_every_library_function_is_entered_or_allowed():
    run = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "reach.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "", "")


def test_the_line_mode_lists_unrun_lines_that_raise_nothing():
    run = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "reach.py"), "--lines", "group_engine"],
        capture_output=True, text=True, timeout=120,
    )
    assert run.stderr == ""
    source = (_ROOT / "src" / "sylow2" / "group_engine.py").read_text().splitlines()
    listed = run.stdout.splitlines()
    assert run.returncode == (1 if listed else 0)
    for entry in listed:
        module, line, text = entry.split(":", 2)
        # each entry names a source line by number and quotes it
        assert module == "group_engine" and text.strip() == source[int(line) - 1].strip()
        assert not text.strip().startswith("raise")
    # generate runs in every workload, so its closure call is not listed
    closure = source.index("    squares = _square_closure(gen_keys, degree, cap)") + 1
    assert not any(entry.startswith(f"group_engine:{closure}:") for entry in listed)
