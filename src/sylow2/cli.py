"""Command-line front end: order/decompose queries, generator listings, and
the claim verification harness with JSON reports.

Each command returns its exit code, its text lines and its --json document.
main writes that document first and prints the text after it, so a --json
path that cannot be written is refused before any output; main prints every
refusal as one `error:` line. Exit codes: 0 all requested checks passed, 1 at
least one claim failed (or, with --strict, was skipped over the cap), 2 usage or
parameter error, or a --json path that cannot be written.

Run as the program (python -m sylow2.cli, or the sylow2 script; main gets no
argv), main freezes the garbage collector once its output is written, so the
interpreter's exit skips its last collections over everything the run left
alive; stdout and stderr are still flushed at exit. main(argv), as the tests
and tools call it, leaves the caller's collector alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

from . import __version__, claims, group_engine, sylow_builders, tree_core
from .perm_core import cycle_notation

# family: (builder, the option that sizes it, the families that option sizes)
_FAMILIES = {
    "s_alpha": (sylow_builders.s_alpha, "k", "tree families"),
    "s_beta": (sylow_builders.s_beta, "k", "tree families"),
    "syl2_S": (sylow_builders.syl2_S_generators, "n", "syl2_S / syl2_A"),
    "syl2_A": (sylow_builders.syl2_A_generators, "n", "syl2_S / syl2_A"),
}


def _json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cmd_order(args) -> tuple[int, list[str], str]:
    exponent = sylow_builders.syl2_order(args.n, args.kind)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits and exponent >= (10 ** digits).bit_length():  # 2^e >= 10^digits: unprintable
        raise ValueError(f"n={args.n} gives order 2^{exponent}, past the {digits}-digit "
                         "limit of sys.get_int_max_str_digits()")
    order = 1 << exponent
    text = [f"Syl_2({args.kind}_{args.n}): order 2^{exponent} = {order}"]
    return 0, text, _json({"n": args.n, "kind": args.kind, "exponent": exponent, "order": order})


def _cmd_decompose(args) -> tuple[int, list[str], str]:
    dec = sylow_builders.decompose(args.n)
    exponents_s = [(1 << k) - 1 for k in dec.parts]
    total_s = sylow_builders.syl2_order(args.n, "S")
    total_a = sylow_builders.syl2_order(args.n, "A")
    check = "ok" if sum(exponents_s) == total_s else "MISMATCH"
    text = [
        f"{args.n} = " + " + ".join(str(p) for p in dec.powers),
        f"block sizes: {list(dec.powers)}  block exponents (S): {exponents_s}",
        f"Syl_2(S_{args.n}): 2^{total_s}   Syl_2(A_{args.n}): 2^{total_a}",
        f"exponent sum check: {sum(exponents_s)} vs nu2({args.n}!) = {total_s} -> {check}",
    ]
    return 0 if check == "ok" else 1, text, _json({
        "n": args.n,
        "powers": list(dec.powers),
        "exponents": list(dec.parts),
        "block_exponents_S": exponents_s,
        "exponent_S": total_s,
        "exponent_A": total_a,
    })


def _cmd_gens(args) -> tuple[int, list[str], str]:
    build, option, sized = _FAMILIES[args.family]
    if getattr(args, option) is None:
        raise ValueError(f"--{option} is required for {sized}")
    gs = build(getattr(args, option))
    text = [f"{gs.name}: {len(gs)} generators on {gs.degree} points"]
    generators = []
    for label, elem in gs.elements:
        entry: dict = {"label": label}
        if isinstance(elem, tree_core.Portrait):
            entry["cycles"] = cycle_notation(tree_core.to_permutation(elem))
            entry["portrait"] = tree_core.to_text(elem)
        else:
            entry["cycles"] = cycle_notation(elem)
        generators.append(entry)
        text.append(f"  {label:<16} {entry['cycles']}" + (f"   [{entry['portrait']}]" if "portrait" in entry else ""))
    return 0, text, _json({"name": gs.name, "degree": gs.degree, "generators": generators})


def _cmd_verify(args) -> tuple[int, list[str], str]:
    # ClaimContext refuses a k, n or cap out of range before the other checks
    ctx = claims.ClaimContext(max_k=args.max_k, max_n=args.max_n, cap=args.cap, seed=args.seed)
    if not (args.all or args.claim):
        raise ValueError("pass --claim <id> or --all")
    ids = claims.claim_ids() if args.all else [claims.resolve_claim_id(args.claim)]
    if args.json:
        # fail on an unwritable path now, not after every claim has run
        with open(args.json, "a"):
            pass
    report = claims.run_claims(ids, ctx, version=__version__)
    text = []
    for record in report.claims:
        text.append(f"{record.status:<12} {record.claim_id:<20} {record.runtime_ms:>6} ms")
        if record.status == "fail":
            failures = record.witnesses.get("failures", {})
            text.append(f"             counterexample: {json.dumps(failures, sort_keys=True)}")
    counts = report.summary()
    text.append(
        f"summary: {counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['skipped-cap']} skipped-cap"
    )
    return report.exit_code(strict=args.strict), text, report.to_json()


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
    p_order.set_defaults(func=_cmd_order)

    p_dec = sub.add_parser("decompose", help="binary block decomposition of n")
    p_dec.add_argument("--n", type=int, required=True)
    p_dec.set_defaults(func=_cmd_decompose)

    p_gens = sub.add_parser("gens", help="print a generator family")
    p_gens.add_argument("--k", type=int)
    p_gens.add_argument("--n", type=int)
    p_gens.add_argument("--family", choices=_FAMILIES, required=True)
    p_gens.set_defaults(func=_cmd_gens)

    p_verify = sub.add_parser("verify", help="run claim checkers and emit a report")
    p_verify.add_argument("--claim", metavar="ID")
    p_verify.add_argument("--all", action="store_true")
    # the defaults are ClaimContext's, which keeps them as class attributes
    p_verify.add_argument("--max-k", "--k", type=int, default=claims.ClaimContext.max_k, dest="max_k")
    p_verify.add_argument("--max-n", "--n", type=int, default=claims.ClaimContext.max_n, dest="max_n")
    p_verify.add_argument("--cap", type=int, default=claims.ClaimContext.cap)
    p_verify.add_argument("--seed", type=int, default=claims.ClaimContext.seed)
    p_verify.add_argument("--strict", action="store_true",
                          help="treat skipped-cap claims as failures")
    p_verify.set_defaults(func=_cmd_verify)
    for p in (p_order, p_dec, p_gens, p_verify):  # last, so each --help lists --json last
        p.add_argument("--json", metavar="PATH")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command argv, or the process's own arguments when argv is None,
    and return its exit code. With argv None, main runs as the program and
    ends by freezing the collector: every live object moves to the permanent
    generation, which the interpreter's collections at exit do not traverse."""
    code = _run(argv)
    if argv is None:
        gc.freeze()
    return code


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        code, text, document = args.func(args)
        if args.json:
            Path(args.json).write_text(document)
        print("\n".join(text))
        return code
    except (ValueError, OSError, group_engine.CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
