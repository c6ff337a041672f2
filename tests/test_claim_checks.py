"""The batched checks inside claim runners, against the scalar and
per-sample loops they replace: the legendre claim's lane-packed floor-sums
and identity, the evenness claim's lane-packed signs, frattini-level's
one lane call per k over the distinct Frattini elements, and minimality's
one squares subgroup per group; each claim failing on a planted defect, and
portrait-oracle checking every pair on sound code."""

import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from random import Random

import pytest

from sylow2 import claims as cl
from sylow2 import group_engine as ge
from sylow2 import perm_core as pc
from sylow2 import sylow_builders as sb
from sylow2 import tree_core as tc
from sylow2.perm_core import Permutation, legendre_nu2

LIMIT = 10 ** 6
BLOCK = cl._LEGENDRE_BLOCK  # the sweep's blocks hold 2^BLOCK n each
IDENTITY_FAILURE = {"identity": "nu2(n!) != n - popcount(n)"}


def _rev(r, b):
    """r with its b bits reversed: lane r of the block (s, b) holds n = s + _rev(r, b), and
    the n at offset r sits in lane _rev(r, b)."""
    return int(format(r, f"0{b}b")[::-1], 2) if b else 0


def _unpack(packed, b):
    """The 2^b lanes of a packed block, lowest first."""
    size = cl._LANE_BITS // 8
    raw = packed.to_bytes(size << b, "little")
    return [int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)]


def _planted(side, bad):
    """The lane kernel of one side, one too high in the lane of n = bad."""
    kernel = getattr(cl, side)

    def wrong_at_bad(s, b):
        off_by_one = 1 << cl._LANE_BITS * _rev(bad - s, b) if s <= bad < s + (1 << b) else 0
        return kernel(s, b) + off_by_one

    return wrong_at_bad


def _matches(kernel, scalar, s, b):
    return _unpack(kernel(s, b), b) == [scalar(s + _rev(r, b)) for r in range(1 << b)]


def _blocks(first, last):
    """The starts of the sweep's blocks that hold first..last."""
    return range(first - first % (1 << BLOCK), last + 1, 1 << BLOCK)


def _matches_on_whole_chunks(kernel, scalar):
    crossing, last = _blocks(60000, 65999), _blocks(996000, LIMIT)
    # no block straddles 2^16, so check the blocks that end and start there
    assert (1 << 16) - (1 << BLOCK) in crossing and 1 << 16 in crossing
    assert last[-1] + (1 << BLOCK) > LIMIT + 1  # the last block runs past 10^6
    for starts in (_blocks(0, 5999), crossing, last):
        for s in starts:
            assert _matches(kernel, scalar, s, BLOCK)


def _matches_on_short_runs(kernel, scalar):
    # every n < 80, in blocks of one lane up to 64 lanes
    for b in range(7):
        for s in range(0, 80, 1 << b):
            assert _matches(kernel, scalar, s, b)


def test_floor_sums_match_the_scalar_function_on_whole_chunks():
    _matches_on_whole_chunks(cl._lane_floor_sums, legendre_nu2)


def test_floor_sums_match_the_scalar_function_on_short_runs():
    _matches_on_short_runs(cl._lane_floor_sums, legendre_nu2)


def test_identity_matches_n_minus_popcount_on_whole_chunks():
    _matches_on_whole_chunks(cl._lane_identity, lambda n: n - n.bit_count())


def test_identity_matches_n_minus_popcount_on_short_runs():
    _matches_on_short_runs(cl._lane_identity, lambda n: n - n.bit_count())


@pytest.mark.parametrize("b", range(BLOCK + 1))
def test_every_block_size_matches_the_scalar_functions(b):
    # aligned starts near 0, the first start past 2^16 and the block that holds 10^6
    for s in {m << b for m in (0, 1, 2, 3, 7, (1 << 16 >> b) + 1, LIMIT >> b)}:
        assert _matches(cl._lane_n, lambda n: n, s, b)
        assert _matches(cl._lane_floor_sums, legendre_nu2, s, b)
        assert _matches(cl._lane_identity, lambda n: n - n.bit_count(), s, b)


@pytest.mark.parametrize("bad", [0, 5999, 12000, LIMIT])
def test_legendre_reports_the_first_wrong_floor_sum(monkeypatch, bad):
    monkeypatch.setattr(cl, "_lane_floor_sums", _planted("_lane_floor_sums", bad))
    status, parameters, witnesses = cl._run_legendre(cl.ClaimContext())
    assert status == "fail"
    assert parameters == {"identity_limit": LIMIT}
    assert witnesses["failures"] == {str(bad): IDENTITY_FAILURE}


@pytest.mark.parametrize("bad", [0, 5999, 12000, LIMIT])
def test_legendre_reports_the_first_wrong_identity(monkeypatch, bad):
    monkeypatch.setattr(cl, "_lane_identity", _planted("_lane_identity", bad))
    status, parameters, witnesses = cl._run_legendre(cl.ClaimContext())
    assert status == "fail"
    assert parameters == {"identity_limit": LIMIT}
    assert witnesses["failures"] == {str(bad): IDENTITY_FAILURE}


def test_legendre_reports_the_smallest_of_two_wrong_lanes(monkeypatch):
    monkeypatch.setattr(cl, "_lane_floor_sums", _planted("_lane_floor_sums", 6007))
    monkeypatch.setattr(cl, "_lane_identity", _planted("_lane_identity", 6005))
    _, _, witnesses = cl._run_legendre(cl.ClaimContext())
    assert witnesses["failures"] == {"6005": IDENTITY_FAILURE}


def test_legendre_reports_the_smallest_n_not_the_lowest_lane(monkeypatch):
    s = 5 << BLOCK
    # s + 1 sits in lane 2^11 and s + 2^11 in lane 1, so the lowest wrong lane holds the larger n
    assert (_rev(1, BLOCK), _rev(1 << BLOCK - 1, BLOCK)) == (1 << BLOCK - 1, 1)
    monkeypatch.setattr(cl, "_lane_identity", _planted("_lane_identity", s + 1))
    monkeypatch.setattr(cl, "_lane_identity", _planted("_lane_identity", s + (1 << BLOCK - 1)))
    _, _, witnesses = cl._run_legendre(cl.ClaimContext())
    assert witnesses["failures"] == {str(s + 1): IDENTITY_FAILURE}


def test_legendre_fails_on_one_wrong_lane_of_the_shared_identity_table(monkeypatch):
    table, lane = cl._rev_identity, 1

    def one_lane_wrong(b):
        return table(b) + (1 << cl._LANE_BITS * lane if b == BLOCK else 0)

    monkeypatch.setattr(cl, "_rev_identity", one_lane_wrong)
    status, _, witnesses = cl._run_legendre(cl.ClaimContext())
    # every block reads the table, so the smallest n it spoils is block 0's: rev_12(1) = 2^11
    assert _rev(lane, BLOCK) == 1 << BLOCK - 1
    assert status == "fail"
    assert witnesses["failures"] == {str(1 << BLOCK - 1): IDENTITY_FAILURE}


def test_identity_matches_n_minus_popcount_at_the_highest_bit_count():
    # the last block below 2^20 ends at n = 2^20 - 1, whose 20 set bits are the most any lane holds
    s = (1 << 20) - (1 << BLOCK)
    assert _matches(cl._lane_identity, lambda n: n - n.bit_count(), s, BLOCK)


@pytest.mark.parametrize("bad, status", [
    (LIMIT, "fail"), (LIMIT + 1, "pass"), (_blocks(LIMIT, LIMIT)[0] + (1 << BLOCK) - 1, "pass"),
])
def test_legendre_ignores_the_lanes_of_the_last_block_past_its_limit(monkeypatch, bad, status):
    monkeypatch.setattr(cl, "_lane_identity", _planted("_lane_identity", bad))
    assert cl._run_legendre(cl.ClaimContext())[0] == status


def _adds_before_halving(h, low):  # nu2(n!) + n: wrong for every n >= 1
    total = 0
    while h:
        total += h
        h = (h >> 1) & low
    return total


def _unmasked(h, low, floor_sums=pc.floor_sums):  # keeps the bit halved in from the lane above
    return floor_sums(h, -1)


def _halves_at_most_12_times(h, low):  # right below 2^13 only
    total = 0
    for _ in range(12):
        h = (h >> 1) & low
        total += h
    return total


@pytest.mark.parametrize("loop, failures", [
    # the spot values see this step too, but the sweep's first n is smaller
    (_adds_before_halving, {
        "8": {"expected": 7, "got": 15}, "22": {"expected": 19, "got": 41},
        "24": {"expected": 22, "got": 46}, "1": IDENTITY_FAILURE,
    }),
    # right for a scalar n, so only the sweep's block at 0 sees it: lane 1's n = 2048 spills into n = 0
    (_unmasked, {"0": IDENTITY_FAILURE}),
    # right for every n of 13 bits or fewer, so only the block at the power of two 8192 sees it
    (_halves_at_most_12_times, {"8192": IDENTITY_FAILURE}),
])
def test_legendre_sweeps_the_library_floor_sum_loop(monkeypatch, loop, failures):
    monkeypatch.setattr(pc, "floor_sums", loop)
    status, _, witnesses = cl._run_legendre(cl.ClaimContext())
    assert status == "fail"
    assert witnesses["failures"] == failures


def test_legendre_reports_a_lane_wrong_only_in_its_top_bit(monkeypatch):
    kernel = cl._lane_identity

    def top_bit_at_9(s, b):
        top_bit = 1 << cl._LANE_BITS - 1 + cl._LANE_BITS * _rev(9, b)
        return kernel(s, b) ^ (top_bit if s == 0 else 0)

    monkeypatch.setattr(cl, "_lane_identity", top_bit_at_9)
    _, _, witnesses = cl._run_legendre(cl.ClaimContext())
    assert witnesses["failures"] == {"9": IDENTITY_FAILURE}


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


def test_importing_the_cli_builds_no_lane_table():
    # a fresh interpreter, so that no other test's sweep counts; a table built at import
    # slows every start-up, including the ones that never run legendre
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sylow2.cli; from sylow2 import claims as cl; "
             "print(cl._rev_iota.cache_info().currsize, cl._spread.cache_info().currsize)")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
                         env={"PYTHONPATH": str(src), "PATH": ""})
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0", "0"]


# --- minimality --------------------------------------------------------------


def test_minimality_builds_each_squares_subgroup_once(monkeypatch):
    squares, builds = ge.squares_subgroup, Counter()

    def counted(G):
        if "squares_subgroup" not in G._memo:  # a request the memo cannot answer builds
            builds[G.order] += 1
        return squares(G)

    monkeypatch.setattr(ge, "squares_subgroup", counted)
    status, _, witnesses = cl._run_minimality(cl.ClaimContext())
    assert status == "pass"
    assert witnesses == {"quotient_ranks": {"2": 2, "3": 3, "4": 4}}
    # the claim's own request builds the squares; the Frattini subgroup
    # behind quotient_rank does not read them
    assert builds == {4: 1, 64: 1, 16384: 1}


# --- frattini-level ---------------------------------------------------------


def _per_sample_witnesses(ctx):
    """frattini-level's witnesses as the per-sample loop gives them: one
    from_permutation and classify_element per sample, repeats included."""
    rng = Random(ctx.seed)
    counts, failures = {}, {}
    for k in range(2, ctx.max_k + 1):
        phi = ge.frattini_subgroup(cl.tree_group(ctx, k))
        keys = phi.sorted_keys()
        samples = keys if k < 4 else keys + [rng.choice(keys) for _ in range(10_000)]
        for key in samples:
            portrait = tc.from_permutation(Permutation(key))
            odd_levels = [l for l in range(k - 1) if tc.level_index(portrait, l) % 2]
            kind = tc.classify_element(portrait)
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
    batches, read = [], tc.lane_portraits

    def counted(keys):
        batches.append(len(keys))
        return read(keys)

    monkeypatch.setattr(tc, "lane_portraits", counted)
    status, _, witnesses = cl._run_frattini_level(cl.ClaimContext())
    # one lane call per k, on the 1 + 8 + 1024 distinct keys among the
    # 1 + 8 + (1024 + 10,000) samples
    assert batches == [1, 8, 1024]
    assert status == "pass"
    assert witnesses == {"coverage": {
        "2": {"frattini_order": 1, "checked": 1},
        "3": {"frattini_order": 8, "checked": 8},
        "4": {"frattini_order": 1024, "checked": 11024},
    }}
    monkeypatch.undo()
    assert witnesses == _per_sample_witnesses(cl.ClaimContext())


def _plant_type_t(monkeypatch, keys):
    """The T/C rule, with the portraits of the given keys flagged T in
    whichever lanes hold them; classify_element is the rule's one-lane call,
    so the per-sample loop sees the flags too."""
    targets, lane_kinds = {tc.from_permutation(Permutation(key)).levels for key in keys}, tc.lane_kinds

    def flag_targets(lanes, width=1):
        t, c = lane_kinds(lanes, width)
        for j in range(width):
            if tuple(_lane(level, j, 1 << l, width) for l, level in enumerate(lanes)) in targets:
                t, c = t | 1 << j, c & ~(1 << j)
        return t, c

    monkeypatch.setattr(tc, "lane_kinds", flag_targets)


@pytest.mark.parametrize("index", [0, 517, 1023])
def test_frattini_level_reports_the_per_sample_failure(monkeypatch, index):
    ctx = cl.ClaimContext()
    key = ge.frattini_subgroup(cl.tree_group(ctx, 4)).sorted_keys()[index]
    _plant_type_t(monkeypatch, [key])
    status, _, witnesses = cl._run_frattini_level(cl.ClaimContext())
    assert status == "fail"
    assert witnesses["failures"] == {
        "4": {"element": repr(Permutation(key)), "odd_levels": [], "kind": "T"}
    }
    assert witnesses == _per_sample_witnesses(cl.ClaimContext())


def test_frattini_level_reports_the_first_of_two_flagged_elements(monkeypatch):
    keys = ge.frattini_subgroup(cl.tree_group(cl.ClaimContext(), 4)).sorted_keys()
    _plant_type_t(monkeypatch, [keys[900], keys[301]])
    status, _, witnesses = cl._run_frattini_level(cl.ClaimContext())
    assert status == "fail"
    assert witnesses["failures"] == {
        "4": {"element": repr(Permutation(keys[301])), "odd_levels": [], "kind": "T"}
    }
    assert witnesses == _per_sample_witnesses(cl.ClaimContext())


def test_frattini_level_reports_an_odd_level(monkeypatch):
    keys = ge.frattini_subgroup(cl.tree_group(cl.ClaimContext(), 4)).sorted_keys()
    read, flipped = tc.lane_portraits, {keys[700], keys[40]}

    def flip_root(batch):  # the root state flipped in the lanes of the flipped keys
        lanes = list(read(batch))
        lanes[0] ^= sum(1 << j for j, key in enumerate(batch) if key in flipped)
        return tuple(lanes)

    monkeypatch.setattr(tc, "lane_portraits", flip_root)
    status, _, witnesses = cl._run_frattini_level(cl.ClaimContext())
    assert status == "fail"
    assert witnesses["failures"]["4"]["element"] == repr(Permutation(keys[40]))
    assert witnesses["failures"]["4"]["odd_levels"] == [0]
    assert witnesses == _per_sample_witnesses(cl.ClaimContext())


# --- portrait-oracle --------------------------------------------------------


def _lane(packed, j, bits, width):
    """Lane j of the `bits` fields of `width` bits in a packed int, as bits of an int."""
    return sum((packed >> (i * width + j) & 1) << i for i in range(bits))


def _plant_swapped_transport(monkeypatch):
    """A transport kernel that gives b.a for each a in the lanes, packed from
    one-lane calls of the real kernel."""
    transport = tc.lane_transport

    def swapped(lanes, b, width=1):
        product = [0] * len(lanes)
        for j in range(width):
            a = tc.Portrait(b.depth, tuple(
                _lane(level, j, 1 << l, width) for l, level in enumerate(lanes)
            ))
            for l, mask in enumerate(transport(b.levels, a)):
                product[l] |= sum((mask >> v & 1) << (v * width + j) for v in range(1 << l))
        return tuple(product)

    monkeypatch.setattr(tc, "lane_transport", swapped)


def _plant_one_bad_pair(monkeypatch, ia, ib):
    """A transport kernel wrong only for the pair (portraits[ia], portraits[ib]):
    it flips that product's root state."""
    transport, b_bad = tc.lane_transport, list(tc.iter_portraits(3))[ib]

    def wrong_at_one_pair(lanes, b, width=1):
        product = list(transport(lanes, b, width))
        if b == b_bad:
            product[0] ^= 1 << ia
        return tuple(product)

    monkeypatch.setattr(tc, "lane_transport", wrong_at_one_pair)


# the corners of the 128 x 128 pair grid, and a pair in its middle
ONE_BAD_PAIR = [(0, 0), (0, 127), (127, 0), (127, 127), (77, 50)]


def test_portrait_oracle_fails_when_compose_swaps_its_arguments(monkeypatch):
    _plant_swapped_transport(monkeypatch)
    status, _, witnesses = cl._run_portrait_oracle(cl.ClaimContext())
    assert status == "fail"
    assert witnesses["failures"] == {
        "k=3;L0=0;L1=00;L2=1000 . k=3;L0=0;L1=10;L2=0000": "mismatch"
    }


def test_portrait_oracle_counts_the_pairs_it_compared(monkeypatch):
    _plant_swapped_transport(monkeypatch)
    status, _, witnesses = cl._run_portrait_oracle(cl.ClaimContext())
    assert status == "fail"
    assert witnesses["pairs_checked"] == 145
    monkeypatch.undo()
    # a pair-by-pair sweep in a-major order stops at the first failing pair
    for ia, ib in ONE_BAD_PAIR:
        with monkeypatch.context() as planted:
            _plant_one_bad_pair(planted, ia, ib)
            status, _, witnesses = cl._run_portrait_oracle(cl.ClaimContext())
        assert status == "fail"
        assert witnesses["pairs_checked"] == 128 * ia + ib + 1


def test_portrait_oracle_runs_both_sides_on_every_pair(monkeypatch):
    status, _, witnesses = cl._run_portrait_oracle(cl.ClaimContext())
    assert status == "pass"
    assert witnesses == {"pairs_checked": 16384}
    # a product wrong at one pair alone, at any corner of the grid, is found
    portraits = list(tc.iter_portraits(3))
    for ia, ib in ONE_BAD_PAIR:
        with monkeypatch.context() as planted:
            _plant_one_bad_pair(planted, ia, ib)
            status, _, witnesses = cl._run_portrait_oracle(cl.ClaimContext())
        assert status == "fail"
        pair = f"{tc.to_text(portraits[ia])} . {tc.to_text(portraits[ib])}"
        assert witnesses["failures"] == {pair: "mismatch"}


# --- evenness and parity-extension ------------------------------------------


def test_evenness_fails_on_an_odd_tau(monkeypatch):
    # tau with one last-level state is a single transposition of two leaves
    monkeypatch.setattr(sb, "tau", lambda k: sb.tau_set([1], k))
    status, _, witnesses = cl._run_evenness(cl.ClaimContext())
    assert status == "fail"
    assert witnesses == {
        "elements_checked": {"2": 8, "3": 128, "4": 32768},
        "failures": {
            "2": {"odd_element": "Permutation[(3 4)]"},
            "3": {"odd_element": "Permutation[(7 8)]"},
            "4": {"odd_element": "Permutation[(15 16)]"},
        },
    }


def test_evenness_reports_the_first_odd_key_in_sorted_order(monkeypatch):
    ctx = cl.ClaimContext()
    keys = cl.tree_group(ctx, 4).sorted_keys()
    planted = {keys[9000], keys[5000]}
    monkeypatch.setattr(ge, "key_parities", lambda ks: bytes(key in planted for key in ks))
    status, _, witnesses = cl._run_evenness(ctx)
    assert status == "fail"
    assert witnesses["failures"] == {"4": {"odd_element": repr(Permutation(keys[5000]))}}


def test_parity_extension_fails_when_the_even_filter_is_wrong(monkeypatch):
    # the filter keeps only keys fixing point 1, so boxtimes_group(6)'s two
    # constructions disagree
    parities = ge.key_parities

    def odd_unless_fixing_1(keys):
        return bytes(odd or key[0] != 0 for key, odd in zip(keys, parities(keys)))

    monkeypatch.setattr(ge, "key_parities", odd_unless_fixing_1)
    report = cl.run_claims(["parity-extension"], cl.ClaimContext(), version="test")
    [record] = report.claims
    assert record.status == "fail"
    assert list(record.witnesses["failures"]) == ["construction_mismatch"]
    assert "disagree for n=6" in record.witnesses["failures"]["construction_mismatch"]
    assert record.witnesses["pairs_checked"] == 64 and "fingerprint" not in record.witnesses
