"""Registry of verifiable structural claims about the tree-built Sylow
2-subgroups, each returning a machine-readable pass/fail record.

Every claim is deterministic for a fixed context (ranges, cap, seed). A
claim that would need an enumeration past the cap reports "skipped-cap"
rather than failing or truncating silently.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from random import Random
from typing import Callable

from . import group_engine, sylow_builders, tree_core
from .group_engine import CapExceededError, DEFAULT_CAP, EnumeratedGroup
from .perm_core import legendre_nu2

REPORT_FORMAT = "sylow2-report-v1"

Status = str  # "pass" | "fail" | "skipped-cap"


@dataclass
class ClaimRecord:
    claim_id: str
    statement: str
    parameters: dict
    status: Status
    witnesses: dict
    runtime_ms: int

    def to_json_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "statement": self.statement,
            "parameters": self.parameters,
            "status": self.status,
            "witnesses": self.witnesses,
            "runtime_ms": self.runtime_ms,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ClaimRecord":
        return cls(
            claim_id=data["claim_id"],
            statement=data["statement"],
            parameters=data["parameters"],
            status=data["status"],
            witnesses=data["witnesses"],
            runtime_ms=data["runtime_ms"],
        )


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
        data = json.loads(text)
        if data.get("format") != REPORT_FORMAT:
            raise ValueError(f"unsupported report format {data.get('format')!r}")
        return cls(
            version=data["version"],
            timestamp=data["timestamp"],
            parameters=data["parameters"],
            claims=[ClaimRecord.from_json_dict(c) for c in data["claims"]],
        )

    def summary(self) -> dict:
        counts = {"pass": 0, "fail": 0, "skipped-cap": 0}
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
    """Shared parameters for a verification run, plus an in-run memo of the
    tree groups and of the cap errors their enumeration raised."""

    max_k: int = 4
    max_n: int = 12
    cap: int = DEFAULT_CAP
    seed: int = 0
    _groups: dict[str, EnumeratedGroup | CapExceededError] = field(default_factory=dict)

    def parameters(self) -> dict:
        return {
            "max_k": self.max_k,
            "max_n": self.max_n,
            "cap": self.cap,
            "seed": self.seed,
        }


def tree_group(ctx: ClaimContext, k: int) -> EnumeratedGroup:
    """The enumerated group of s_beta(k), memoized per run. A group past the
    cap is enumerated once: later calls raise the same CapExceededError."""
    label = f"G_{k}"
    if label not in ctx._groups:
        try:
            ctx._groups[label] = group_engine.generate(sylow_builders.s_beta(k), cap=ctx.cap)
        except CapExceededError as exc:
            ctx._groups[label] = exc
    found = ctx._groups[label]
    if isinstance(found, CapExceededError):
        # drop the previous traceback: its frames hold the partial enumeration
        raise found.with_traceback(None)
    return found


def _k_range(ctx: ClaimContext) -> range:
    return range(2, ctx.max_k + 1)


def _status(failures: dict, skipped: list) -> Status:
    if failures:
        return "fail"
    if skipped:
        return "skipped-cap"
    return "pass"


# --- claim runners ----------------------------------------------------------


def _run_order_gk(ctx: ClaimContext):
    orders, failures, skipped = {}, {}, []
    for k in _k_range(ctx):
        expected = 1 << ((1 << k) - 2)
        try:
            got = tree_group(ctx, k).order
        except CapExceededError as exc:
            skipped.append({"k": k, "partial_count": exc.partial_count})
            continue
        orders[str(k)] = got
        if got != expected:
            failures[str(k)] = {"expected": expected, "got": got}
    witnesses = {"orders": orders}
    if failures:
        witnesses["failures"] = failures
    if skipped:
        witnesses["skipped"] = skipped
    return _status(failures, skipped), {"k": list(_k_range(ctx))}, witnesses


def _run_evenness(ctx: ClaimContext):
    failures, skipped, checked = {}, [], {}
    for k in _k_range(ctx):
        try:
            G = tree_group(ctx, k)
        except CapExceededError as exc:
            skipped.append({"k": k, "partial_count": exc.partial_count})
            continue
        odd = [key for key in G.sorted_keys() if not group_engine.key_is_even(key)]
        checked[str(k)] = G.order
        if odd:
            failures[str(k)] = {"odd_element": repr(group_engine.perm_of(odd[0]))}
    witnesses = {"elements_checked": checked}
    if failures:
        witnesses["failures"] = failures
    if skipped:
        witnesses["skipped"] = skipped
    return _status(failures, skipped), {"k": list(_k_range(ctx))}, witnesses


def _run_semidirect(ctx: ClaimContext):
    failures, skipped, arithmetic = {}, [], {}
    for k in _k_range(ctx):
        try:
            G = tree_group(ctx, k)
            B = group_engine.generate(sylow_builders.b_subgroup_generators(k), cap=ctx.cap)
            W = group_engine.generate(sylow_builders.w_subgroup_generators(k), cap=ctx.cap)
        except CapExceededError as exc:
            skipped.append({"k": k, "partial_count": exc.partial_count})
            continue
        rel = group_engine.verify_semidirect(B, W, G)
        arithmetic[str(k)] = (
            f"2^{B.order.bit_length() - 1} * 2^{W.order.bit_length() - 1}"
            f" = 2^{G.order.bit_length() - 1}"
        )
        if not rel.ok:
            failures[str(k)] = {"checks": dict(rel.checks), "witnesses": dict(rel.witnesses)}
    witnesses = {"order_arithmetic": arithmetic}
    if failures:
        witnesses["failures"] = failures
    if skipped:
        witnesses["skipped"] = skipped
    return _status(failures, skipped), {"k": list(_k_range(ctx))}, witnesses


def _run_w_structure(ctx: ClaimContext):
    failures, skipped, seen = {}, [], {}
    for k in _k_range(ctx):
        try:
            W = group_engine.generate(sylow_builders.w_subgroup_generators(k), cap=ctx.cap)
        except CapExceededError as exc:
            skipped.append({"k": k, "partial_count": exc.partial_count})
            continue
        expected = 1 << ((1 << (k - 1)) - 1)
        abelian = group_engine.is_abelian(W)
        expo = group_engine.exponent(W)
        seen[str(k)] = {"order": W.order, "abelian": abelian, "exponent": expo}
        if W.order != expected or not abelian or expo != 2:
            failures[str(k)] = {"expected_order": expected, **seen[str(k)]}
    witnesses = {"structure": seen}
    if failures:
        witnesses["failures"] = failures
    if skipped:
        witnesses["skipped"] = skipped
    return _status(failures, skipped), {"k": list(_k_range(ctx))}, witnesses


def _run_minimality(ctx: ClaimContext):
    failures, skipped, ranks = {}, [], {}
    for k in _k_range(ctx):
        try:
            G = tree_group(ctx, k)
            rank = group_engine.quotient_rank(G, cap=ctx.cap)
            squares = group_engine.squares_subgroup(G, cap=ctx.cap)
            phi = group_engine.frattini_subgroup(G, cap=ctx.cap)
            genset = sylow_builders.s_beta(k)
            entries = genset.permutation_entries()
            undersized_generates = []
            for subset in itertools.combinations(entries, k - 1):
                sub = group_engine.generate([p for _, p in subset], cap=ctx.cap)
                if sub.order == G.order:
                    undersized_generates.append([label for label, _ in subset])
        except CapExceededError as exc:
            skipped.append({"k": k, "partial_count": exc.partial_count})
            continue
        ranks[str(k)] = rank
        bad = {}
        if rank != k:
            bad["rank"] = rank
        if squares.elements != phi.elements:
            bad["squares_vs_frattini"] = {"squares": squares.order, "frattini": phi.order}
        if undersized_generates:
            bad["generating_small_subsets"] = undersized_generates
        if bad:
            failures[str(k)] = bad
    witnesses = {"quotient_ranks": ranks}
    if failures:
        witnesses["failures"] = failures
    if skipped:
        witnesses["skipped"] = skipped
    return _status(failures, skipped), {"k": list(_k_range(ctx))}, witnesses


def _run_frattini_level(ctx: ClaimContext):
    failures, skipped, counts = {}, [], {}
    rng = Random(ctx.seed)
    for k in _k_range(ctx):
        try:
            phi = group_engine.frattini_subgroup(tree_group(ctx, k), cap=ctx.cap)
        except CapExceededError as exc:
            skipped.append({"k": k, "partial_count": exc.partial_count})
            continue
        keys = phi.sorted_keys()
        # exhaustive sweep, plus seeded resampling at the largest k for the
        # stated sample count
        samples = keys if k < 4 else keys + [rng.choice(keys) for _ in range(10_000)]
        bad = None
        for key in samples:
            portrait = tree_core.from_permutation(group_engine.perm_of(key))
            odd_levels = [
                l for l in range(k - 1) if tree_core.level_index(portrait, l) % 2
            ]
            kind = tree_core.classify_element(portrait).kind
            if odd_levels or kind is tree_core.ElementKind.TYPE_T:
                bad = {
                    "element": repr(group_engine.perm_of(key)),
                    "odd_levels": odd_levels,
                    "kind": kind.value,
                }
                break
        counts[str(k)] = {"frattini_order": phi.order, "checked": len(samples)}
        if bad:
            failures[str(k)] = bad
    witnesses = {"coverage": counts}
    if failures:
        witnesses["failures"] = failures
    if skipped:
        witnesses["skipped"] = skipped
    return _status(failures, skipped), {"k": list(_k_range(ctx)), "samples_at_k4": 10_000}, witnesses


def _run_t_nonclosure(ctx: ClaimContext):
    k = 3
    t_elements = [
        p for p in tree_core.iter_portraits(k)
        if tree_core.classify_element(p).kind is tree_core.ElementKind.TYPE_T
    ]
    failures = {}
    pair_count = 0
    for x in t_elements:
        for y in t_elements:
            pair_count += 1
            prod = tree_core.compose(x, y)
            if tree_core.classify_element(prod).kind is tree_core.ElementKind.TYPE_T:
                failures[f"{tree_core.to_text(x)} . {tree_core.to_text(y)}"] = "product in T"
        square = tree_core.compose(x, x)
        if tree_core.classify_element(square).kind is tree_core.ElementKind.TYPE_T:
            failures[tree_core.to_text(x)] = "square in T"
    witnesses = {"t_size": len(t_elements), "pairs_checked": pair_count}
    if failures:
        witnesses["failures"] = failures
    return _status(failures, []), {"k": k}, witnesses


def _run_tau_ij_generation(ctx: ClaimContext):
    k = 3
    failures = {}
    words = {}
    top = 1 << (k - 1)
    for i in range(1, top + 1):
        for j in range(i + 1, top + 1):
            word = sylow_builders.tau_ij_word(i, j, k)
            words[f"({i},{j})"] = word
            if sylow_builders.evaluate_word(word, k) != sylow_builders.tau_set([i, j], k):
                failures[f"({i},{j})"] = word
    witnesses = {"words": words}
    if failures:
        witnesses["failures"] = failures
    return _status(failures, []), {"k": k}, witnesses


def _run_legendre(ctx: ClaimContext):
    spot = {"8": 7, "22": 19, "24": 22}
    failures = {}
    for n_text, expected in spot.items():
        got = legendre_nu2(int(n_text))
        if got != expected:
            failures[n_text] = {"expected": expected, "got": got}
    limit = 10 ** 6
    for n in range(limit + 1):
        if legendre_nu2(n) != n - n.bit_count():
            failures[str(n)] = {"identity": "nu2(n!) != n - popcount(n)"}
            break
    witnesses = {"spot_values": spot, "identity_checked_to": limit}
    if failures:
        witnesses["failures"] = failures
    return _status(failures, []), {"identity_limit": limit}, witnesses


def _run_boxtimes(ctx: ClaimContext):
    targets = [n for n in (4, 6, 7, 8, 12) if n <= ctx.max_n]
    expected_orders = {"12": 512, "6": 8, "4": 4}
    failures, skipped, orders = {}, [], {}
    for n in targets:
        try:
            H = sylow_builders.boxtimes_group(n, cap=ctx.cap)
        except CapExceededError as exc:
            skipped.append({"n": n, "partial_count": exc.partial_count})
            continue
        except RuntimeError as exc:
            failures[str(n)] = {"construction_mismatch": str(exc)}
            continue
        orders[str(n)] = H.order
        want = 1 << sylow_builders.syl2_order(n, "A")
        if H.order != want:
            failures[str(n)] = {"expected": want, "got": H.order}
        if str(n) in expected_orders and H.order != expected_orders[str(n)]:
            failures[str(n)] = {"expected": expected_orders[str(n)], "got": H.order}
    witnesses = {"orders": orders}
    if failures:
        witnesses["failures"] = failures
    if skipped:
        witnesses["skipped"] = skipped
    return _status(failures, skipped), {"n": targets}, witnesses


def _run_parity_extension(ctx: ClaimContext):
    failures = {}
    S4 = group_engine.generate(sylow_builders.syl2_S_generators(4), cap=ctx.cap)
    elements = [group_engine.perm_of(key) for key in S4.sorted_keys()]
    images = {bytes(p.images): sylow_builders.parity_extension(p, 6) for p in elements}
    if len({bytes(v.images) for v in images.values()}) != len(elements):
        failures["injectivity"] = "image collision"
    for p in elements:
        for q in elements:
            lhs = sylow_builders.parity_extension(p * q, 6)
            rhs = images[bytes(p.images)] * images[bytes(q.images)]
            if lhs != rhs:
                failures["homomorphism"] = f"{p!r}, {q!r}"
    H6 = sylow_builders.boxtimes_group(6, cap=ctx.cap)
    image_keys = {bytes(v.images) for v in images.values()}
    if image_keys != H6.elements:
        failures["image"] = "extension image differs from the block-built group"
    fp = group_engine.fingerprint(H6)
    expected_fp = {"order": 8, "abelian": False, "exponent": 4}
    for field_name, value in expected_fp.items():
        if fp[field_name] != value:
            failures[f"fingerprint_{field_name}"] = {"expected": value, "got": fp[field_name]}
    witnesses = {"pairs_checked": len(elements) ** 2, "fingerprint": fp}
    if failures:
        witnesses["failures"] = failures
    return _status(failures, []), {"domain": "Syl2(S_4)", "target": "A_6"}, witnesses


def _run_small_fingerprints(ctx: ClaimContext):
    failures = {}
    G2 = tree_group(ctx, 2)
    fp = group_engine.fingerprint(G2)
    expected = {"order": 4, "abelian": True, "exponent": 2, "derived_length": 1}
    for field_name, value in expected.items():
        if fp[field_name] != value:
            failures[f"G2_{field_name}"] = {"expected": value, "got": fp[field_name]}
    e7 = sylow_builders.syl2_order(7, "A")
    e6 = sylow_builders.syl2_order(6, "A")
    if not (e7 == e6 == 3):
        failures["order_exponents"] = {"A_7": e7, "A_6": e6}
    witnesses = {"G2_fingerprint": fp, "A7_exponent": e7, "A6_exponent": e6}
    if failures:
        witnesses["failures"] = failures
    return _status(failures, []), {}, witnesses


def _run_order_ratios(ctx: ClaimContext):
    report = sylow_builders.order_ratio_checks(25)
    failures = {
        f"{c.label} @ k={c.k}": {"lhs": c.lhs, "rhs": c.rhs} for c in report.failures()
    }
    witnesses = {"checks": len(report.checks), "note": report.orientation_note}
    if failures:
        witnesses["failures"] = failures
    return _status(failures, []), {"k_max": 25}, witnesses


def _run_portrait_oracle(ctx: ClaimContext):
    k = 3
    portraits = list(tree_core.iter_portraits(k))
    perms = [tree_core.to_permutation(p) for p in portraits]
    failures = {}
    for a, pa in zip(portraits, perms):
        for b, pb in zip(portraits, perms):
            if tree_core.to_permutation(tree_core.compose(a, b)) != pa * pb:
                failures[f"{tree_core.to_text(a)} . {tree_core.to_text(b)}"] = "mismatch"
                break
        if failures:
            break
    witnesses = {"pairs_checked": len(portraits) ** 2}
    if failures:
        witnesses["failures"] = failures
    return _status(failures, []), {"k": k}, witnesses


@dataclass(frozen=True)
class Claim:
    claim_id: str
    statement: str
    runner: Callable[[ClaimContext], tuple[Status, dict, dict]]


CLAIMS: dict[str, Claim] = {
    c.claim_id: c
    for c in (
        Claim(
            "order-gk",
            "The closure of the k standard tree generators has order 2^(2^k - 2) for each k in 2..max_k.",
            _run_order_gk,
        ),
        Claim(
            "evenness",
            "Every element of the generated group is an even permutation of the 2^k leaves.",
            _run_evenness,
        ),
        Claim(
            "semidirect",
            "W is normal, B meets W trivially, and |B| |W| = |G| for the level-split subgroups.",
            _run_semidirect,
        ),
        Claim(
            "w-structure",
            "The last-level subgroup has order 2^(2^(k-1) - 1), is abelian, and has exponent 2.",
            _run_w_structure,
        ),
        Claim(
            "minimality",
            "The Frattini quotient has rank k, no (k-1)-subset of the k generators generates, and the Frattini subgroup equals the squares subgroup.",
            _run_minimality,
        ),
        Claim(
            "frattini-level",
            "Frattini elements have an even state count on every level above the last and are never of type T.",
            _run_frattini_level,
        ),
        Claim(
            "t-nonclosure",
            "Type T elements are closed under neither products nor squaring (exhaustive at depth 3).",
            _run_t_nonclosure,
        ),
        Claim(
            "tau-ij-generation",
            "Every last-level pair swap equals the evaluation of its generator word (all pairs at depth 3).",
            _run_tau_ij_generation,
        ),
        Claim(
            "legendre",
            "nu2(n!) matches the floor-sum formula, n - popcount(n), and the spot values 7, 19, 22 at n = 8, 22, 24.",
            _run_legendre,
        ),
        Claim(
            "boxtimes",
            "The even subgroup of the block product matches the parity-corrected construction and the expected orders.",
            _run_boxtimes,
        ),
        Claim(
            "parity-extension",
            "Appending a parity-controlled transposition embeds Syl2(S_4) onto the even block group inside A_6.",
            _run_parity_extension,
        ),
        Claim(
            "small-fingerprints",
            "The depth-2 group is the Klein four-group, and the A_7 and A_6 Sylow exponents are both 3.",
            _run_small_fingerprints,
        ),
        Claim(
            "order-ratios",
            "Sylow order exponents satisfy the odd-point equalities and the +1 step from 4k+1 to 4k+3.",
            _run_order_ratios,
        ),
        Claim(
            "portrait-oracle",
            "Portrait composition agrees with leaf-permutation composition on all pairs at depth 3.",
            _run_portrait_oracle,
        ),
    )
}


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
    timestamp = datetime.now(timezone.utc).isoformat()
    return VerificationReport(version, timestamp, ctx.parameters(), records)
