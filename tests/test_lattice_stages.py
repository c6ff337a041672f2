"""tools/lattice_stages.py, the per-stage timer of the subgroup-lattice
queries, run through set_up and one_pass on the first query of each pool
stratum, through its main on a pool of those queries, and through its main's
argument check."""

import importlib.util
import json
import os
import sys
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


def _first_queries():
    strata = json.loads(lattice_stages.POOL.read_text())["strata"]
    return {order: [stratum[0]] for order, stratum in strata.items()}


def test_set_up_builds_the_parents_and_tests_every_member():
    pooled = [
        (q["parent"], [Permutation(bytes.fromhex(h)) for h in q["elements"]])
        for stratum in _first_queries().values() for q in stratum
    ]
    seconds, members = lattice_stages.set_up(ge, lattice.enumerate_parents, pooled)
    assert seconds > 0 and members
    # a transposition lies in Syl_2(S_16) and not in G_4, its even half
    swap = Permutation.transposition(16, 1, 2)
    assert lattice_stages.set_up(ge, lattice.enumerate_parents, [("S_16", [swap])])[1]
    assert not lattice_stages.set_up(ge, lattice.enumerate_parents, [("G_4", [swap])])[1]


def _main_on(strata, tmp_path, monkeypatch, *argv):
    pool = tmp_path / "pool.json"
    pool.write_text(json.dumps({"strata": strata}))
    monkeypatch.setattr(lattice_stages, "POOL", pool)
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts src and benchmark first
    return lattice_stages.main(["--repeat", "1", *argv])


def test_main_prints_the_set_up_row_first(tmp_path, monkeypatch, capsys):
    assert _main_on(_first_queries(), tmp_path, monkeypatch) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].startswith("stage") and rows[2].startswith("set-up ")
    assert rows[3].startswith("generate ")


def test_main_exits_1_on_an_element_outside_its_parent(tmp_path, monkeypatch, capsys):
    strata = _first_queries()
    # the 2^7 query's elements are odd, so they lie outside G_4
    strata["7"][0]["parent"] = "G_4"
    assert _main_on(strata, tmp_path, monkeypatch) == 1
    assert "a pooled element is not in its parent" in capsys.readouterr().err


def test_repeat_below_one_exits_2():
    with pytest.raises(SystemExit) as info:
        lattice_stages.main(["--repeat", "0"])
    assert info.value.code == 2


class _ClosedPipe:
    """A stdout whose reader has gone, as under `| head`: every write fails."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    flush = write

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("parent, code", [(None, 0), ("G_4", 1)])
def test_a_closed_stdout_keeps_the_exit_code_of_the_answers(parent, code, tmp_path, monkeypatch, capsys):
    strata = _first_queries()
    if parent:  # the 2^7 query's odd elements, outside G_4
        strata["7"][0]["parent"] = parent
    out = tmp_path / "stdout"
    fd = os.open(out, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        assert _main_on(strata, tmp_path, monkeypatch) == code
        # the stdout descriptor now leads to the null device, so the flush at exit cannot fail
        os.write(fd, b"lost")
    finally:
        os.close(fd)
    assert out.read_bytes() == b""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ("a pooled element is not in its parent" in err) == bool(code)


def test_a_src_without_sylow2_exits_2_with_one_message(tmp_path, monkeypatch, capsys):
    with pytest.raises(SystemExit) as info:
        _main_on(_first_queries(), tmp_path, monkeypatch, "--src", str(tmp_path / "nonexistent"))
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith("nonexistent holds no sylow2 package")
    assert "Traceback" not in err
