"""tools/lattice_stages.py, the per-stage timer of the subgroup-lattice
queries, run through one_pass on the first query of each pool stratum and
through its main's argument check."""

import importlib.util
import json
from pathlib import Path

import pytest

from sylow2 import Permutation
from sylow2 import group_engine as ge

_ROOT = Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lattice_stages = _load("lattice_stages", _ROOT / "tools" / "lattice_stages.py")
lattice = _load("lattice", _ROOT / "benchmark" / "lattice.py")


def test_one_pass_times_every_stage_and_answers_as_recorded():
    strata = json.loads(lattice_stages.POOL.read_text())["strata"]
    queries = [stratum[0] for stratum in strata.values()]
    inputs = [[Permutation(bytes.fromhex(h)) for h in q["elements"]] for q in queries]
    totals, latencies, answers = lattice_stages.one_pass(ge, lattice.query, inputs)
    assert answers == [q["expected"] for q in queries]
    steps = {
        lattice_stages.PHI, lattice_stages.DOUBLING, lattice_stages.SQUARING, lattice_stages.SCAN
    }
    rows = {*lattice_stages.STAGES, *steps, lattice_stages.QUERY}
    assert set(totals) == rows and "element set" in rows
    assert all(seconds >= 0 for seconds in totals.values())
    assert totals[lattice_stages.SQUARING] > 0 and totals[lattice_stages.SCAN] > 0
    assert len(latencies) == len(queries)
    # the Phi closure is put back after each generate, the squaring after
    # each exponent
    assert ge._square_closure.__name__ == "_square_closure"
    assert ge._steps.__name__ == "_steps"


def test_repeat_below_one_exits_2():
    with pytest.raises(SystemExit) as info:
        lattice_stages.main(["--repeat", "0"])
    assert info.value.code == 2
