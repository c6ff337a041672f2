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
