"""tools/claim_times.py, the per-claim timer of a cold verify --all, run once
on this checkout's src/ and through its argument check."""

import importlib.util
from pathlib import Path

import pytest

from sylow2 import claims as cl

_ROOT = Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


claim_times = _load("claim_times", _ROOT / "tools" / "claim_times.py")


def test_one_run_on_this_tree_gives_a_row_per_claim(capsys):
    assert claim_times.main(["--runs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"A: {_ROOT / 'src'}"
    assert lines[1].split() == ["runtime_ms", "A", "median", "[min-max]"]
    rows = lines[2:-2]
    assert [row.split()[0] for row in rows] == cl.claim_ids()
    for row in rows:
        _, median, spread = row.split()
        # one run: the median is the lowest and the highest
        assert spread == f"[{median}-{median}]"
    total = lines[-2].split()
    assert total[:3] == ["sum", "of", "medians"]
    assert float(total[3]) == sum(int(row.split()[1]) for row in rows)
    # the child's whole wall-clock time, to 0.1 ms: it holds every claim's runtime_ms
    label, unit, median, spread = lines[-1].split()
    assert (label, unit, spread) == ("process", "wall_ms", f"[{median}-{median}]")
    assert median == f"{float(median):.1f}" and float(median) >= float(total[3])


@pytest.mark.parametrize("argv", [["/nonexistent/src"], ["--runs", "0"], ["a", "b", "c"]])
def test_argument_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        claim_times.main(argv)
    assert info.value.code == 2
    assert "error:" in capsys.readouterr().err
