"""The batched checks inside claim runners, against the scalar and
per-sample loops they replace: the legendre claim's chunked floor-sums and
frattini-level's one check per distinct Frattini element; and portrait-oracle
failing on a planted defect and checking every pair on sound code."""

import dataclasses
import tracemalloc
from collections import Counter
from random import Random

import pytest

from sylow2 import claims as cl
from sylow2 import group_engine as ge
from sylow2 import tree_core as tc
from sylow2.perm_core import Permutation, legendre_nu2

LIMIT = 10 ** 6
CHUNK = cl._LEGENDRE_CHUNK
IDENTITY_FAILURE = {"identity": "nu2(n!) != n - popcount(n)"}


def _chunk_of(n):
    start = n - n % CHUNK
    return start, min(start + CHUNK, LIMIT + 1)


def test_floor_sums_match_the_scalar_function_on_whole_chunks():
    first, crossing, last = _chunk_of(0), _chunk_of(1 << 16), _chunk_of(LIMIT)
    assert first == (0, CHUNK)
    assert crossing[0] < 1 << 16 < crossing[1] - 1
    assert last[1] == LIMIT + 1 and last[1] - last[0] < CHUNK
    for start, stop in (first, crossing, last):
        assert cl._floor_sums(start, stop) == [legendre_nu2(n) for n in range(start, stop)]


def test_floor_sums_match_the_scalar_function_on_short_runs():
    # every parity of start and length, down to the empty run
    for start in range(70):
        for stop in range(start, 80):
            assert cl._floor_sums(start, stop) == [legendre_nu2(n) for n in range(start, stop)]


@pytest.mark.parametrize("bad", [0, CHUNK - 1, 2 * CHUNK, LIMIT])
def test_legendre_reports_the_first_wrong_floor_sum(monkeypatch, bad):
    floor_sums = cl._floor_sums

    def wrong_at_bad(start, stop):
        return [v + (n == bad) for n, v in zip(range(start, stop), floor_sums(start, stop))]

    monkeypatch.setattr(cl, "_floor_sums", wrong_at_bad)
    status, parameters, witnesses = cl._run_legendre(cl.ClaimContext())
    assert status == "fail"
    assert parameters == {"identity_limit": LIMIT}
    assert witnesses["failures"] == {str(bad): IDENTITY_FAILURE}


def test_legendre_holds_one_chunk_at_a_time():
    tracemalloc.start()
    try:
        status, _, witnesses = cl._run_legendre(cl.ClaimContext())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == "pass" and witnesses["identity_checked_to"] == LIMIT
    # a table of all 10^6 values would take about 40 MB
    assert peak < 4 * 1024 * 1024


# --- frattini-level ---------------------------------------------------------


def _per_sample_witnesses(ctx):
    """frattini-level's witnesses as the per-sample loop gives them: one
    from_permutation and classify_element per sample, repeats included."""
    rng = Random(ctx.seed)
    counts, failures = {}, {}
    for k in range(2, ctx.max_k + 1):
        phi = ge.frattini_subgroup(cl.tree_group(ctx, k), cap=ctx.cap)
        keys = phi.sorted_keys()
        samples = keys if k < 4 else keys + [rng.choice(keys) for _ in range(10_000)]
        for key in samples:
            portrait = tc.from_permutation(Permutation(key))
            odd_levels = [l for l in range(k - 1) if tc.level_index(portrait, l) % 2]
            kind = tc.classify_element(portrait).kind
            if odd_levels or kind is tc.ElementKind.TYPE_T:
                failures[str(k)] = {
                    "element": repr(Permutation(key)),
                    "odd_levels": odd_levels,
                    "kind": kind.value,
                }
                break
        counts[str(k)] = {"frattini_order": phi.order, "checked": len(samples)}
    witnesses = {"coverage": counts}
    if failures:
        witnesses["failures"] = failures
    return witnesses


def test_frattini_level_checks_each_distinct_element_once(monkeypatch):
    calls = Counter()
    for name in ("from_permutation", "classify_element"):
        real = getattr(tc, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(tc, name, counted)
    status, _, witnesses = cl._run_frattini_level(cl.ClaimContext())
    # 1 + 8 + 1024 distinct keys among the 1 + 8 + (1024 + 10,000) samples
    assert calls == {"from_permutation": 1033, "classify_element": 1033}
    assert status == "pass"
    assert witnesses == {"coverage": {
        "2": {"frattini_order": 1, "checked": 1},
        "3": {"frattini_order": 8, "checked": 8},
        "4": {"frattini_order": 1024, "checked": 11024},
    }}
    monkeypatch.undo()
    assert witnesses == _per_sample_witnesses(cl.ClaimContext())


@pytest.mark.parametrize("index", [0, 517, 1023])
def test_frattini_level_reports_the_per_sample_failure(monkeypatch, index):
    ctx = cl.ClaimContext()
    key = ge.frattini_subgroup(cl.tree_group(ctx, 4)).sorted_keys()[index]
    target = tc.from_permutation(Permutation(key))
    classify = tc.classify_element

    def flag_target(portrait):
        found = classify(portrait)
        if portrait == target:
            return dataclasses.replace(found, kind=tc.ElementKind.TYPE_T)
        return found

    monkeypatch.setattr(tc, "classify_element", flag_target)
    status, _, witnesses = cl._run_frattini_level(cl.ClaimContext())
    assert status == "fail"
    assert witnesses["failures"] == {
        "4": {"element": repr(Permutation(key)), "odd_levels": [], "kind": "T"}
    }
    assert witnesses == _per_sample_witnesses(cl.ClaimContext())


def test_portrait_oracle_fails_when_compose_swaps_its_arguments(monkeypatch):
    compose = tc.compose
    monkeypatch.setattr(tc, "compose", lambda a, b: compose(b, a))
    status, _, witnesses = cl._run_portrait_oracle(cl.ClaimContext())
    assert status == "fail"
    assert witnesses["failures"] == {
        "k=3;L0=0;L1=00;L2=1000 . k=3;L0=0;L1=10;L2=0000": "mismatch"
    }


def test_portrait_oracle_runs_both_sides_on_every_pair(monkeypatch):
    calls = Counter()
    for name in ("compose", "to_permutation"):
        real = getattr(tc, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(tc, name, counted)
    status, _, witnesses = cl._run_portrait_oracle(cl.ClaimContext())
    assert status == "pass"
    assert witnesses == {"pairs_checked": 16384}
    # one product portrait per pair, and its leaf action beside the 128 factors'
    assert calls == {"compose": 16384, "to_permutation": 16384 + 128}
