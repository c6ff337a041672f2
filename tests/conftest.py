"""Suite-wide hypothesis profile: derandomized, so every run of the suite
tries the same examples, with no example database left behind, and no
per-example deadline, since one example may enumerate a group of order 2^15.

Also a guard on bytecode in src/: a run with PYTHONDONTWRITEBYTECODE set that
starts without src/sylow2/__pycache__ fails if a test leaves one there, as a
child interpreter started with an env that drops the variable does. A later
run in that checkout, the benchmark's included, would import the bytecode and
time something other than a fresh checkout."""

import os
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")

PYCACHE = Path(__file__).resolve().parent.parent / "src" / "sylow2" / "__pycache__"
# taken when pytest loads this file, before any test module imports sylow2
WATCH_PYCACHE = bool(os.environ.get("PYTHONDONTWRITEBYTECODE")) and not PYCACHE.exists()


@pytest.fixture(scope="session", autouse=True)
def no_bytecode_left_in_src():
    yield
    if WATCH_PYCACHE and PYCACHE.exists():
        pytest.fail(f"a test wrote bytecode into {PYCACHE}: {sorted(p.name for p in PYCACHE.iterdir())}")
