"""Registry of verifiable structural claims about the tree-built Sylow
2-subgroups, each returning a machine-readable pass/fail record.

Every claim is deterministic for a fixed context (ranges, cap, seed); no
claim samples, so the seed changes no verdict or witness. Any claim, per-k
or not, reports "skipped-cap" when a unit it checks needs an enumeration
past the cap, rather than failing or truncating silently; a counterexample
found before a group passed the cap still fails the claim. The per-n and
per-element sweeps (legendre, evenness, frattini-level, portrait-oracle) run
on lane-packed ints, one n or one element per lane.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Callable

from . import group_engine, perm_core, sylow_builders, tree_core
from .group_engine import CapExceededError, DEFAULT_CAP, EnumeratedGroup
from .perm_core import Permutation, legendre_nu2

REPORT_FORMAT = "sylow2-report-v1"

Status = str  # one of STATUSES
STATUSES = ("pass", "fail", "skipped-cap")

# the degrees n up to max_n at which boxtimes checks the block product's even subgroup
BOXTIMES_DEGREES = (4, 6, 7, 8, 12)


# the JSON type of each field that a report and each of its claim records must hold
_REPORT_TYPES = {"version": str, "timestamp": str, "parameters": dict, "claims": list, "summary": dict}
_CLAIM_TYPES = {"claim_id": str, "statement": str, "parameters": dict, "witnesses": dict, "runtime_ms": int}
_JSON_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer", float: "a number",
               bool: "a boolean", type(None): "null"}


def _check_types(data: dict, types: dict, owner: str) -> None:
    for name, kind in types.items():
        if type(data[name]) is not kind:  # exact, so a bool is no integer
            raise ValueError(f"{owner} field {name!r} must be {_JSON_NAMES[kind]}, not {_JSON_NAMES[type(data[name])]}")


@dataclass
class ClaimRecord:
    claim_id: str
    statement: str
    parameters: dict
    status: Status
    witnesses: dict
    runtime_ms: int

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ClaimRecord":
        if data["status"] not in STATUSES:
            raise ValueError(f"claim {data['claim_id']!r} has unknown status {data['status']!r}")
        _check_types(data, _CLAIM_TYPES, "claim")
        return cls(**{f.name: data[f.name] for f in fields(cls)})


@dataclass
class VerificationReport:
    version: str
    timestamp: str
    parameters: dict
    claims: list[ClaimRecord]

    def to_json_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "version": self.version,
            "timestamp": self.timestamp,
            "parameters": self.parameters,
            "claims": [c.to_json_dict() for c in self.claims],
            "summary": self.summary(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        """Load a report; malformed input raises a one-line ValueError."""
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("report JSON is nested too deeply") from None
        if not isinstance(data, dict):
            raise ValueError(f"a report is a JSON object, not {type(data).__name__}")
        if data.get("format") != REPORT_FORMAT:
            raise ValueError(f"unsupported report format {data.get('format')!r}")
        try:
            _check_types(data, _REPORT_TYPES, "report")
            for i, c in enumerate(data["claims"]):
                if type(c) is not dict:
                    raise ValueError(f"claim entry {i} must be an object, not {_JSON_NAMES[type(c)]}")
            claims = [ClaimRecord.from_json_dict(c) for c in data["claims"]]
            report = cls(data["version"], data["timestamp"], data["parameters"], claims)
            if data["summary"] != report.summary():
                raise ValueError(f"report summary {data['summary']} does not match its claims' counts {report.summary()}")
            _check_types(data["summary"], dict.fromkeys(STATUSES, int), "summary")  # != took true for 1
            return report
        except KeyError as exc:
            raise ValueError(f"report is missing the field {exc.args[0]!r}") from None

    def summary(self) -> dict:
        counts = dict.fromkeys(STATUSES, 0)
        for c in self.claims:
            counts[c.status] += 1
        return counts

    def exit_code(self, strict: bool = False) -> int:
        counts = self.summary()
        if counts["fail"]:
            return 1
        if strict and counts["skipped-cap"]:
            return 1
        return 0


@dataclass
class ClaimContext:
    """Shared parameters for a verification run, plus its group registry:
    every group a claim uses, and every cap error a build raised, by label."""

    max_k: int = 4
    max_n: int = 12
    cap: int = DEFAULT_CAP
    seed: int = 0
    _groups: dict[str, EnumeratedGroup | CapExceededError] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        # s_beta(k) acts on 2^k points, and a group key holds at most MAX_DEGREE of them
        max_k_limit = group_engine.MAX_DEGREE.bit_length() - 1
        if not 2 <= self.max_k <= max_k_limit:
            raise ValueError(f"k must be in 2..{max_k_limit}, got {self.max_k}")
        # below the smallest boxtimes degree, that claim would check no n at all
        min_n = min(BOXTIMES_DEGREES)
        if self.max_n < min_n:
            raise ValueError(f"n must be at least {min_n}, got {self.max_n}")
        if self.cap < 1:
            raise ValueError("--cap must be positive")

    def parameters(self) -> dict:  # every field but the registry
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

    def group(self, label: str, build: Callable[[int], EnumeratedGroup]) -> EnumeratedGroup:
        """The group build(cap) gives, built once per label and run. A build
        past the cap runs once: later calls raise the same CapExceededError."""
        if label not in self._groups:
            try:
                self._groups[label] = build(self.cap)
            except CapExceededError as exc:
                self._groups[label] = exc
        found = self._groups[label]
        if isinstance(found, CapExceededError):
            # drop the previous traceback: its frames hold the partial enumeration
            raise found.with_traceback(None)
        return found


def tree_group(ctx: ClaimContext, k: int) -> EnumeratedGroup:
    """G_k, the enumerated group of s_beta(k), from the run's registry."""
    return ctx.group(f"G_{k}", lambda cap: group_engine.generate(sylow_builders.s_beta(k), cap=cap))


def _w_group(ctx: ClaimContext, k: int) -> EnumeratedGroup:  # W_k, the last-level subgroup of G_k
    return ctx.group(f"W_{k}", lambda cap: group_engine.generate(sylow_builders.w_subgroup_generators(k), cap=cap))


def _block_group(ctx: ClaimContext, n: int) -> EnumeratedGroup:  # the even block group Syl_2(A_n)
    return ctx.group(f"Syl2(A_{n})", lambda cap: sylow_builders.boxtimes_group(n, cap=cap))


def _record(parameters: dict, witnesses: dict, failures: dict, skipped: list = ()):
    """A runner's (status, parameters, witnesses): the failures and the cap
    skips, when there are any, join the witnesses and decide the status."""
    if failures:
        witnesses["failures"] = failures
    if skipped:
        witnesses["skipped"] = skipped
    status = "fail" if failures else "skipped-cap" if skipped else "pass"
    return status, parameters, witnesses


def _k_range(ctx: ClaimContext) -> range:
    return range(2, ctx.max_k + 1)


def _per_unit(name: str, units=_k_range, key: str = "k", **parameters):
    """Turn check(ctx, unit) -> (witness, failure) into a runner that sweeps
    units(ctx), each k in 2..max_k unless given, lists them in the record's
    parameters under key, and keeps the witnesses under one name (a None
    witness is left out; a falsy failure is none). A unit past the cap is a
    skip entry: each check asks for its groups before it checks anything
    (minimality's subset closures lie inside G_k), so a skip drops nothing."""

    def runner_of(check):
        def runner(ctx: ClaimContext):
            swept = list(units(ctx))
            found, failures, skipped = {}, {}, []
            for unit in swept:
                try:
                    witness, failure = check(ctx, unit)
                except CapExceededError as exc:
                    skipped.append({key: unit, "partial_count": exc.partial_count})
                    continue
                if witness is not None:
                    found[str(unit)] = witness
                if failure:
                    failures[str(unit)] = failure
            return _record({key: swept, **parameters}, {name: found}, failures, skipped)

        return runner

    return runner_of


@dataclass(frozen=True)
class Claim:
    claim_id: str
    statement: str
    runner: Callable[[ClaimContext], tuple[Status, dict, dict]]


CLAIMS: dict[str, Claim] = {}


def _claim(claim_id: str, statement: str):
    """Register the decorated runner in CLAIMS under claim_id."""

    def register(runner):
        CLAIMS[claim_id] = Claim(claim_id, statement, runner)
        return runner

    return register


# --- claim runners ----------------------------------------------------------


@_claim("order-gk", "The closure of the k standard tree generators has order 2^(2^k - 2) for each k in 2..max_k.")
@_per_unit("orders")
def _run_order_gk(ctx: ClaimContext, k: int):
    expected, got = 1 << ((1 << k) - 2), tree_group(ctx, k).order
    return got, {"expected": expected, "got": got} if got != expected else None


@_claim("evenness", "Every element of the generated group is an even permutation of the 2^k leaves.")
@_per_unit("elements_checked")
def _run_evenness(ctx: ClaimContext, k: int):
    G = tree_group(ctx, k)
    keys = list(group_engine.iter_keys(G))
    odd = list(itertools.compress(keys, group_engine.key_parities(keys)))
    return G.order, {"odd_element": repr(Permutation._of_key(min(odd)))} if odd else None


@_claim("semidirect", "W is normal, B meets W trivially, and |B| |W| = |G| for the level-split subgroups.")
@_per_unit("order_arithmetic")
def _run_semidirect(ctx: ClaimContext, k: int):
    G = tree_group(ctx, k)
    B = ctx.group(f"B_{k}", lambda cap: group_engine.generate(sylow_builders.s_alpha(k), cap=cap))
    W = _w_group(ctx, k)
    checks, witnesses = group_engine.verify_semidirect(B, W, G)
    arithmetic = (
        f"2^{B.order.bit_length() - 1} * 2^{W.order.bit_length() - 1}"
        f" = 2^{G.order.bit_length() - 1}"
    )
    if all(checks.values()):
        return arithmetic, None
    return arithmetic, {"checks": checks, "witnesses": witnesses}


@_claim("w-structure", "The last-level subgroup has order 2^(2^(k-1) - 1), is abelian, and has exponent 2.")
@_per_unit("structure")
def _run_w_structure(ctx: ClaimContext, k: int):
    W = _w_group(ctx, k)
    expected = 1 << ((1 << (k - 1)) - 1)
    abelian = group_engine.is_abelian(W)
    expo = group_engine.exponent(W)
    seen = {"order": W.order, "abelian": abelian, "exponent": expo}
    if W.order != expected or not abelian or expo != 2:
        return seen, {"expected_order": expected, **seen}
    return seen, None


@_claim("minimality", "The Frattini quotient has rank k, no (k-1)-subset of the k generators generates, and the Frattini subgroup equals the squares subgroup.")
@_per_unit("quotient_ranks")
def _run_minimality(ctx: ClaimContext, k: int):
    G = tree_group(ctx, k)
    rank = group_engine.quotient_rank(G)
    squares = group_engine.squares_subgroup(G)
    phi = group_engine.frattini_subgroup(G)
    genset = sylow_builders.s_beta(k)
    entries = genset.permutation_entries()
    undersized_generates = []
    for subset in itertools.combinations(entries, k - 1):
        sub = group_engine.generate([p for _, p in subset], cap=ctx.cap)
        if sub.order == G.order:
            undersized_generates.append([label for label, _ in subset])
    bad = {}
    if rank != k:
        bad["rank"] = rank
    if squares.elements != phi.elements:
        bad["squares_vs_frattini"] = {"squares": squares.order, "frattini": phi.order}
    if undersized_generates:
        bad["generating_small_subsets"] = undersized_generates
    return rank, bad


@_claim("frattini-level", "Frattini elements have an even state count on every level above the last and are never of type T.")
@_per_unit("coverage", samples_at_k4=10_000)
def _run_frattini_level(ctx: ClaimContext, k: int):
    phi = group_engine.frattini_subgroup(tree_group(ctx, k))
    keys = phi.sorted_keys()
    # the sweep is exhaustive; from k = 4 on, `checked` also counts the report's
    # 10,000 resamples of its keys: a resample repeats a key the sweep has judged,
    # so none is drawn, and no verdict or witness depends on the seed
    coverage = {"frattini_order": phi.order, "checked": len(keys) + (10_000 if k >= 4 else 0)}
    # every key in its own lane: a parity mask per level above the last, and the T/C masks
    lanes, width = tree_core.lane_portraits(keys), len(keys)
    odd = [tree_core.lane_fold(lanes[l], 1 << l, width) for l in range(k - 1)]
    kinds = tree_core.lane_kinds(lanes, width)
    bad = functools.reduce(operator.or_, odd, kinds[0])
    if not bad:
        return coverage, None
    j = (bad & -bad).bit_length() - 1  # the first failing key in sorted order
    return coverage, {
        "element": repr(Permutation._of_key(keys[j])),
        "odd_levels": [l for l, mask in enumerate(odd) if mask >> j & 1],
        "kind": tree_core.lane_kind(kinds, j).value,
    }


@_claim("t-nonclosure", "Type T elements are closed under neither products nor squaring (exhaustive at depth 3).")
def _run_t_nonclosure(ctx: ClaimContext):
    k = 3

    def in_t(p):
        return tree_core.classify_element(p) is tree_core.ElementKind.TYPE_T

    t_elements = [p for p in tree_core.iter_portraits(k) if in_t(p)]
    failures = {}
    pair_count = 0
    for x in t_elements:
        for y in t_elements:
            pair_count += 1
            if in_t(tree_core.compose(x, y)):
                failures[f"{tree_core.to_text(x)} . {tree_core.to_text(y)}"] = "product in T"
        if in_t(tree_core.compose(x, x)):
            failures[tree_core.to_text(x)] = "square in T"
    # one of the two last-level states in each half: 2 * 2 elements of type T
    if len(t_elements) != 4:
        failures["t_size"] = {"expected": 4, "got": len(t_elements)}
    return _record({"k": k}, {"t_size": len(t_elements), "pairs_checked": pair_count}, failures)


@_claim("tau-ij-generation", "Every last-level pair swap equals the evaluation of its generator word (all pairs at depth 3).")
def _run_tau_ij_generation(ctx: ClaimContext):
    k = 3
    failures = {}
    words = {}
    top = 1 << (k - 1)
    for i, j in itertools.combinations(range(1, top + 1), 2):
        try:
            word = sylow_builders.tau_ij_word(i, j, k)
        except RuntimeError as exc:  # the builder's own evaluation check failed
            failures[f"({i},{j})"] = str(exc)
            continue
        words[f"({i},{j})"] = word
        if sylow_builders.evaluate_word(word, k) != sylow_builders.tau_set([i, j], k):
            failures[f"({i},{j})"] = word
    if len(words) != 6:  # the 4 * 3 / 2 pairs of last-level vertices at depth 3
        failures["pairs_checked"] = {"expected": 6, "got": len(words)}
    return _record({"k": k}, {"words": words}, failures)


# The legendre claim packs a chunk of consecutive n into lanes of _LANE_BITS bits
# of one int, so one shift, mask, add or subtract acts on all of it (SWAR: Warren,
# Hacker's Delight, 2nd ed., 2012, ch. 5). No lane carries or borrows: n <= 10^6
# < 2^20 and F(n) <= n fit in 24 bits, popcount(n) <= n keeps n - popcount(n) >= 0,
# and each byte sum of the popcount is at most 24 < 2^8.
_LEGENDRE_LANES = 6000
_LANE_BITS = 24  # a whole number of bytes
_LANE_ONES = (1 << _LANE_BITS) - 1


@functools.cache
def _spread(word: int, lanes: int) -> int:  # the word in each lane
    return int.from_bytes(word.to_bytes(_LANE_BITS // 8, "little") * lanes, "little")


@functools.cache
def _iota(lanes: int) -> int:  # 0, 1, ..., lanes - 1, one per lane
    return int.from_bytes(b"".join(i.to_bytes(_LANE_BITS // 8, "little") for i in range(lanes)), "little")


def _lane_floor_sums(start: int, lanes: int) -> int:
    """Legendre's floor sums for n = start, start + 1, ..., lane by lane, by legendre_nu2's loop."""
    return perm_core.floor_sums(start * _spread(1, lanes) + _iota(lanes), _spread(_LANE_ONES >> 1, lanes))


def _lane_identity(start: int, lanes: int) -> int:
    """n - popcount(n) for n = start, start + 1, ..., lane by lane, by SWAR popcount."""
    # the lane's ones // 3, // 5, // 17 and // 255 are 0x55, 0x33, 0x0F and 0x01 in each byte;
    # times 0x01...01, the top byte of a lane sums the lane's bytes
    n = start * _spread(1, lanes) + _iota(lanes)
    x = n - ((n >> 1) & _spread(_LANE_ONES // 3, lanes))
    x = (x & _spread(_LANE_ONES // 5, lanes)) + ((x >> 2) & _spread(_LANE_ONES // 5, lanes))
    x = (x + (x >> 4)) & _spread(_LANE_ONES // 17, lanes)
    return n - ((x * (_LANE_ONES // 255) >> _LANE_BITS - 8) & _spread(0xFF, lanes))


@_claim("legendre", "nu2(n!) matches the floor-sum formula, n - popcount(n), and the spot values 7, 19, 22 at n = 8, 22, 24.")
def _run_legendre(ctx: ClaimContext):
    spot = {"8": 7, "22": 19, "24": 22}
    failures = {}
    for n_text, expected in spot.items():
        got = legendre_nu2(int(n_text))
        if got != expected:
            failures[n_text] = {"expected": expected, "got": got}
    limit = 10 ** 6
    # chunk by chunk, so no table of all 10^6 values is ever held
    for start in range(0, limit + 1, _LEGENDRE_LANES):
        lanes = min(_LEGENDRE_LANES, limit + 1 - start)
        diff = _lane_floor_sums(start, lanes) ^ _lane_identity(start, lanes)
        if diff:  # its lowest set bit lies in the lane of the smallest bad n
            n = start + ((diff & -diff).bit_length() - 1) // _LANE_BITS
            failures[str(n)] = {"identity": "nu2(n!) != n - popcount(n)"}
            break
    witnesses = {"spot_values": spot, "identity_checked_to": limit}
    return _record({"identity_limit": limit}, witnesses, failures)


@_claim("boxtimes", "The even subgroup of the block product matches the parity-corrected construction and the expected orders.")
@_per_unit("orders", lambda ctx: [n for n in BOXTIMES_DEGREES if n <= ctx.max_n], key="n")
def _run_boxtimes(ctx: ClaimContext, n: int):
    try:
        H = _block_group(ctx, n)
    except RuntimeError as exc:
        return None, {"construction_mismatch": str(exc)}
    failure = None
    paper_orders = {4: 4, 6: 8, 12: 512}
    # syl2_order's order, then the paper's table, each compared on its own
    for want in (1 << sylow_builders.syl2_order(n, "A"), paper_orders.get(n)):
        if want is not None and H.order != want:
            failure = {"expected": want, "got": H.order}
    return H.order, failure


@_claim("parity-extension", "Appending a parity-controlled transposition embeds Syl2(S_4) onto the even block group inside A_6.")
def _run_parity_extension(ctx: ClaimContext):
    n = 6  # the embedding of Syl2(S_4) into A_n
    parameters, failures = {"domain": "Syl2(S_4)", "target": "A_6"}, {}
    try:
        S4 = ctx.group("Syl2(S_4)", lambda cap: group_engine.generate(sylow_builders.syl2_S_generators(4), cap=cap))
    except CapExceededError as exc:
        return _record(parameters, {}, failures, [{"n": n, "partial_count": exc.partial_count}])
    elements = list(S4.permutations())
    images = {p: sylow_builders.parity_extension(p, n) for p in elements}
    image_keys = {v.key for v in images.values()}
    if len(image_keys) != len(elements):
        failures["injectivity"] = "image collision"
    for p in elements:
        for q in elements:
            lhs = sylow_builders.parity_extension(p * q, n)
            rhs = images[p] * images[q]
            if lhs != rhs and "homomorphism" not in failures:  # the first failing pair
                failures["homomorphism"] = f"{p!r}, {q!r}"
    witnesses = {"pairs_checked": len(elements) ** 2}
    try:
        H = _block_group(ctx, n)
    except CapExceededError as exc:  # the failures found on Syl2(S_4) still fail the claim
        return _record(parameters, {}, failures, [{"n": n, "partial_count": exc.partial_count}])
    except RuntimeError as exc:  # without H, no image or fingerprint to compare
        failures["construction_mismatch"] = str(exc)
        return _record(parameters, witnesses, failures)
    if image_keys != H.elements:
        failures["image"] = "extension image differs from the block-built group"
    fp = witnesses["fingerprint"] = group_engine.fingerprint(H)
    expected_fp = {"order": 8, "abelian": False, "exponent": 4}
    for field_name, value in expected_fp.items():
        if fp[field_name] != value:
            failures[f"fingerprint_{field_name}"] = {"expected": value, "got": fp[field_name]}
    return _record(parameters, witnesses, failures)


@_claim("small-fingerprints", "The depth-2 group is the Klein four-group, and the A_7 and A_6 Sylow exponents are both 3.")
def _run_small_fingerprints(ctx: ClaimContext):
    # the exponents need no group, so G_2 past the cap leaves their failure standing
    e7, e6 = sylow_builders.syl2_order(7, "A"), sylow_builders.syl2_order(6, "A")
    failures = {} if e7 == e6 == 3 else {"order_exponents": {"A_7": e7, "A_6": e6}}
    try:
        fp = group_engine.fingerprint(tree_group(ctx, 2))
    except CapExceededError as exc:
        return _record({}, {}, failures, [{"k": 2, "partial_count": exc.partial_count}])
    expected = {"order": 4, "abelian": True, "exponent": 2, "derived_length": 1}
    failures.update({f"G2_{name}": {"expected": want, "got": fp[name]} for name, want in expected.items() if fp[name] != want})
    return _record({}, {"G2_fingerprint": fp, "A7_exponent": e7, "A6_exponent": e6}, failures)


# order-ratios checks four relations between the Sylow 2-order exponents of
# syl2_order at nearby degrees, for each k in 1..25: the exponent steps up by
# exactly 1 from A_{4k+1} to A_{4k+3}; adding an odd point changes nothing, so
# the exponents at 2k+1 and 2k match in the alternating and in the symmetric
# family; and from A_{4k-2} to A_{4k} it grows by nu2(4k), a gap that depends
# only on the power of 2 in k.
_ORDER_RATIOS_NOTE = (
    "the exponent gap between degrees 4k and 4k-2 equals nu2(4k); "
    "the order at 4k is the larger of the two"
)


@_claim("order-ratios", "Sylow order exponents satisfy the odd-point equalities and the +1 step from 4k+1 to 4k+3.")
def _run_order_ratios(ctx: ClaimContext):
    k_max = 25
    e = sylow_builders.syl2_order  # read at each run, so a patched syl2_order is the one checked
    failures, checks = {}, 0
    for k in range(1, k_max + 1):
        m = 4 * k
        relations = (
            ("A(4k+3) minus A(4k+1)", e(m + 3, "A") - e(m + 1, "A"), 1),
            ("A(2k+1) equals A(2k)", e(2 * k + 1, "A"), e(2 * k, "A")),
            ("S(2k+1) equals S(2k)", e(2 * k + 1, "S"), e(2 * k, "S")),
            ("A(4k) minus A(4k-2)", e(m, "A") - e(m - 2, "A"), (m & -m).bit_length() - 1),  # nu2(4k)
        )
        for label, lhs, rhs in relations:
            checks += 1
            if lhs != rhs:
                failures[f"{label} @ k={k}"] = {"lhs": lhs, "rhs": rhs}
    return _record({"k_max": k_max}, {"checks": checks, "note": _ORDER_RATIOS_NOTE}, failures)


def _spaced(value: int, bits: int, width: int) -> int:  # bit i of value to bit i * width
    return sum((value >> i & 1) << i * width for i in range(bits))


@_claim("portrait-oracle", "Portrait composition agrees with leaf-permutation composition on all pairs at depth 3.")
def _run_portrait_oracle(ctx: ClaimContext):
    k = 3
    portraits = list(tree_core.iter_portraits(k))
    # lane j of each int below is left factor a = portraits[j], as in tree_core's lane kernels
    width = len(portraits)
    lanes = [sum(_spaced(a.levels[l], 1 << l, width) << j for j, a in enumerate(portraits)) for l in range(k)]
    # entry y: pa(y) for every a, by the leaf-action rule to_permutation runs on one lane
    left = tree_core.lane_action(lanes, width)[k]
    failed = []
    for ib, b in enumerate(portraits):
        leaves = tree_core.lane_action(tree_core.lane_transport(lanes, b, width), width)[k]
        diff = 0  # (a . b)(x) against pa(pb(x)) for every a, then folded onto one field
        for x, y in enumerate(tree_core.to_permutation(b).images):
            diff |= leaves[x] ^ left[y]
        mask = tree_core.lane_fold(diff, k, width, operator.or_)
        if mask:  # its lowest set bit is the first a that fails with this b
            failed.append(((mask & -mask).bit_length() - 1, ib))
    failures, pairs = {}, width * width
    if failed:  # the first failing pair in a-major order, where a pair-by-pair sweep stops
        ia, ib = min(failed)
        failures[f"{tree_core.to_text(portraits[ia])} . {tree_core.to_text(portraits[ib])}"] = "mismatch"
        pairs = ia * width + ib + 1
    # one state bit at each of the 2^k - 1 vertices: 2^(2^k - 1) portraits
    all_pairs = (1 << (1 << k) - 1) ** 2
    if not failures and pairs < all_pairs:
        failures["pairs_checked"] = {"expected": all_pairs, "got": pairs}
    return _record({"k": k}, {"pairs_checked": pairs}, failures)


def claim_ids() -> list[str]:
    return sorted(CLAIMS)


def resolve_claim_id(requested: str) -> str:
    """Case-insensitive claim lookup."""
    lowered = requested.lower()
    if lowered in CLAIMS:
        return lowered
    raise KeyError(requested)


def run_claims(ids: list[str], ctx: ClaimContext, version: str) -> VerificationReport:
    """Run the requested claims (report order is by claim id, regardless of
    completion order)."""
    records = []
    for claim_id in sorted(ids):
        claim = CLAIMS[claim_id]
        start = time.perf_counter()
        status, parameters, witnesses = claim.runner(ctx)
        elapsed_ms = int((time.perf_counter() - start) * 1000)
        records.append(
            ClaimRecord(claim_id, claim.statement, parameters, status, witnesses, elapsed_ms)
        )
    # UTC, as YYYY-MM-DDTHH:MM:SS.ffffff+00:00, without importing datetime
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)
    timestamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds)) + f".{micros:06d}+00:00"
    return VerificationReport(version, timestamp, ctx.parameters(), records)
