"""tools/lattice_stages.py, the per-stage timer of the subgroup-lattice
queries, run through set_up and one_pass on the first query of each pool
stratum, through its main on a pool of those queries, on one tree and on
two, through the alternation and the table of its two-tree mode, and
through its main's argument check."""

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


def test_two_trees_print_one_column_each(tmp_path, monkeypatch, capsys):
    src = str(_ROOT / "src")
    assert _main_on(_first_queries(), tmp_path, monkeypatch, "--src", src, "--src", src) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].count("1 passes, sylow2 from") == 2
    assert "A median ms" in rows[1] and "B median ms" in rows[1]
    set_up_row = rows[2].split()
    assert set_up_row[0] == "set-up" and len(set_up_row) == 1 + 2 * 3
    # the strata rows, again two cells each
    strata = rows[rows.index(next(r for r in rows if r.startswith("order"))) + 1:]
    assert len(strata) == len(_first_queries()) and all(len(r.split()) == 2 + 2 * 3 for r in strata)


def test_the_passes_alternate_between_the_trees_and_stop_at_a_wrong_one(monkeypatch):
    order = []

    def fake_pass(src, pool, answer="right"):
        order.append(src)
        return {"answers": [answer], "members": True}

    monkeypatch.setattr(lattice_stages, "run_pass", fake_pass)
    runs, problems = lattice_stages.collect(["A", "B"], 3, None, ["right"])
    assert order == ["A", "B", "B", "A", "A", "B"] and problems == []
    assert [len(passes) for passes in runs] == [3, 3]
    # a wrong answer from B's first pass ends the passes, with B named
    order.clear()
    monkeypatch.setattr(lattice_stages, "run_pass", lambda src, pool: fake_pass(src, pool, src))
    runs, problems = lattice_stages.collect(["A", "B"], 3, None, ["A"])
    assert order == ["A", "B"] and problems == ["B: 1 of 1 answers differ from the pool's"]


def test_a_tree_without_a_split_helper_shows_no_step_figure():
    pooled = [("4", {})]
    with_steps = {row: 0.001 for row in (lattice_stages.SETUP, *lattice_stages.STAGES, lattice_stages.QUERY,
                                         lattice_stages.SQUARING, lattice_stages.SCAN)}
    without = {row: t for row, t in with_steps.items() if row not in (lattice_stages.SQUARING, lattice_stages.SCAN)}
    runs = [[{"totals": with_steps, "latencies": [0.001]}], [{"totals": without, "latencies": [0.001]}]]
    lines = lattice_stages.table([Path("a"), Path("b")], runs, pooled)
    squaring = next(line for line in lines if line.startswith(lattice_stages.SQUARING))
    assert squaring.split()[-1] == "-" and "1.0  [1.0, 1.0]" in squaring
    # no tree has the Phi step rows, so none is printed
    assert not any(line.startswith(lattice_stages.PHI) for line in lines)


def test_a_failing_pass_exits_1_with_one_error_line(tmp_path, monkeypatch, capsys):
    broken = tmp_path / "broken"
    (broken / "sylow2").mkdir(parents=True)
    (broken / "sylow2" / "__init__.py").write_text("raise ImportError('broken tree')\n")
    assert _main_on(_first_queries(), tmp_path, monkeypatch, "--src", str(broken)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert err[0].startswith(f"error: a pass on {broken} exited 1") and "broken tree" in captured.err


def test_more_than_two_trees_exit_2():
    src = str(_ROOT / "src")
    with pytest.raises(SystemExit) as info:
        lattice_stages.main(["--src", src, "--src", src, "--src", src])
    assert info.value.code == 2
