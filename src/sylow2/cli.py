"""Command-line front end: order/decompose queries, generator listings, and
the claim verification harness with JSON reports.

Exit codes: 0 all requested checks passed, 1 at least one claim failed (or,
with --strict, was skipped over the cap), 2 usage or parameter error, or a
--json path that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__, claims, group_engine, sylow_builders, tree_core
from .perm_core import cycle_notation

def _write_json(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _genset_json(gs: group_engine.GeneratorSet) -> dict:
    generators = []
    for label, elem in gs.elements:
        entry: dict = {"label": label}
        if isinstance(elem, tree_core.Portrait):
            entry["cycles"] = cycle_notation(tree_core.to_permutation(elem))
            entry["portrait"] = tree_core.to_text(elem)
        else:
            entry["cycles"] = cycle_notation(elem)
        generators.append(entry)
    return {"name": gs.name, "degree": gs.degree, "generators": generators}


def _print_genset(gs: group_engine.GeneratorSet) -> None:
    print(f"{gs.name}: {len(gs)} generators on {gs.degree} points")
    for entry in _genset_json(gs)["generators"]:
        line = f"  {entry['label']:<16} {entry['cycles']}"
        if "portrait" in entry:
            line += f"   [{entry['portrait']}]"
        print(line)


def _cmd_order(args) -> int:
    exponent = sylow_builders.syl2_order(args.n, args.kind)
    order = 1 << exponent
    print(f"Syl_2({args.kind}_{args.n}): order 2^{exponent} = {order}")
    if args.json:
        _write_json(args.json, {"n": args.n, "kind": args.kind, "exponent": exponent, "order": order})
    return 0


def _cmd_decompose(args) -> int:
    dec = sylow_builders.decompose(args.n)
    exponents_s = [(1 << k) - 1 for k in dec.parts]
    total_s = sylow_builders.syl2_order(args.n, "S")
    total_a = sylow_builders.syl2_order(args.n, "A")
    print(f"{args.n} = " + " + ".join(str(p) for p in dec.powers))
    print(f"block sizes: {list(dec.powers)}  block exponents (S): {exponents_s}")
    print(f"Syl_2(S_{args.n}): 2^{total_s}   Syl_2(A_{args.n}): 2^{total_a}")
    check = "ok" if sum(exponents_s) == total_s else "MISMATCH"
    print(f"exponent sum check: {sum(exponents_s)} vs nu2({args.n}!) = {total_s} -> {check}")
    if args.json:
        _write_json(args.json, {
            "n": args.n,
            "powers": list(dec.powers),
            "exponents": list(dec.parts),
            "block_exponents_S": exponents_s,
            "exponent_S": total_s,
            "exponent_A": total_a,
        })
    return 0 if check == "ok" else 1


def _cmd_gens(args) -> int:
    family = args.family
    if family in ("s_alpha", "s_beta"):
        if args.k is None:
            print("error: --k is required for tree families", file=sys.stderr)
            return 2
        gs = sylow_builders.s_alpha(args.k) if family == "s_alpha" else sylow_builders.s_beta(args.k)
    else:
        if args.n is None:
            print("error: --n is required for syl2_S / syl2_A", file=sys.stderr)
            return 2
        gs = (
            sylow_builders.syl2_S_generators(args.n)
            if family == "syl2_S"
            else sylow_builders.syl2_A_generators(args.n)
        )
    _print_genset(gs)
    if args.json:
        _write_json(args.json, _genset_json(gs))
    return 0


def _cmd_verify(args) -> int:
    max_k = args.k if args.k is not None else args.max_k
    max_n = args.n if args.n is not None else args.max_n
    # s_beta(k) acts on 2^k points, and a group key holds at most MAX_DEGREE of them
    max_k_limit = group_engine.MAX_DEGREE.bit_length() - 1
    if not 2 <= max_k <= max_k_limit:
        print(f"error: k must be in 2..{max_k_limit}, got {max_k}", file=sys.stderr)
        return 2
    if max_n < 1 or args.cap < 1:
        print("error: --max-n and --cap must be positive", file=sys.stderr)
        return 2

    if args.all:
        ids = claims.claim_ids()
    elif args.claim:
        try:
            ids = [claims.resolve_claim_id(args.claim)]
        except KeyError:
            known = ", ".join(claims.claim_ids())
            print(f"error: unknown claim {args.claim!r}; known claims: {known}", file=sys.stderr)
            return 2
    else:
        print("error: pass --claim <id> or --all", file=sys.stderr)
        return 2

    if args.json:
        # fail on an unwritable path now, not after every claim has run
        with open(args.json, "a"):
            pass
    ctx = claims.ClaimContext(max_k=max_k, max_n=max_n, cap=args.cap, seed=args.seed)
    report = claims.run_claims(ids, ctx, version=__version__)
    for record in report.claims:
        print(f"{record.status:<12} {record.claim_id:<20} {record.runtime_ms:>6} ms")
        if record.status == "fail":
            failures = record.witnesses.get("failures", {})
            print(f"             counterexample: {json.dumps(failures, sort_keys=True)}")
    counts = report.summary()
    print(
        f"summary: {counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['skipped-cap']} skipped-cap"
    )
    if args.json:
        Path(args.json).write_text(report.to_json())
    return report.exit_code(strict=args.strict)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sylow2",
        description="Sylow 2-subgroups of S_n and A_n from binary tree automorphisms",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_order = sub.add_parser("order", help="order of Syl_2(S_n) or Syl_2(A_n)")
    p_order.add_argument("--n", type=int, required=True)
    p_order.add_argument("--kind", choices=["S", "A"], required=True)
    p_order.add_argument("--json", metavar="PATH")
    p_order.set_defaults(func=_cmd_order)

    p_dec = sub.add_parser("decompose", help="binary block decomposition of n")
    p_dec.add_argument("--n", type=int, required=True)
    p_dec.add_argument("--json", metavar="PATH")
    p_dec.set_defaults(func=_cmd_decompose)

    p_gens = sub.add_parser("gens", help="print a generator family")
    p_gens.add_argument("--k", type=int)
    p_gens.add_argument("--n", type=int)
    p_gens.add_argument(
        "--family", choices=["s_alpha", "s_beta", "syl2_S", "syl2_A"], required=True
    )
    p_gens.add_argument("--json", metavar="PATH")
    p_gens.set_defaults(func=_cmd_gens)

    p_verify = sub.add_parser("verify", help="run claim checkers and emit a report")
    p_verify.add_argument("--claim", metavar="ID")
    p_verify.add_argument("--all", action="store_true")
    p_verify.add_argument("--k", type=int, help="upper k for tree-group claims")
    p_verify.add_argument("--n", type=int, help="upper n for block claims")
    p_verify.add_argument("--max-k", type=int, default=4, dest="max_k")
    p_verify.add_argument("--max-n", type=int, default=12, dest="max_n")
    p_verify.add_argument("--cap", type=int, default=group_engine.DEFAULT_CAP)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--strict", action="store_true",
                          help="treat skipped-cap claims as failures")
    p_verify.add_argument("--json", metavar="PATH")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, OSError, group_engine.CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
