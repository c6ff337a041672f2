"""Record the reference outputs that run.py checks against.

    python3 benchmark/make_reference.py

Run it only at a commit whose outputs are known to be right: it overwrites

* ``reference/cli_default.json``: the exit code and each claim's status and
  witnesses for the verify-cold workload. It is recorded at two seeds and
  they must agree, since the benchmark passes its own seed to the CLI and
  uses one reference for all seeds;
* ``reference/lattice_pool.json``: the subgroup-lattice query pool. Each of
  its POOL_SIZE queries is 2-4 elements drawn (with a fixed seed) from G_4
  or Syl_2(S_16), with none rejected, so the subgroup orders come in the
  proportions this draw gives them. Queries are grouped by subgroup order
  and stored with the library's answer.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import lattice  # noqa: E402  (needs the sylow2 sources on sys.path)
from sylow2 import Permutation, generate  # noqa: E402

POOL_SEED = 2016
POOL_SIZE = 240


def record_cli(argv: list, seed: int) -> dict:
    run.TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=run.TMP_ROOT))
    try:
        report = tmp / "report.json"
        child = run.spawn(
            [sys.executable, "-m", "sylow2.cli", *argv, "--seed", str(seed), "--json", report],
            run.child_env(tmp), tmp / "run.log", run.monotonic() + 600,
        )
        claims = json.loads(report.read_text())["claims"]
    finally:
        shutil.rmtree(tmp)
        run.TMP_ROOT.rmdir()
    return {
        "argv": argv,
        "exit_code": child.code,
        "claims": {
            c["claim_id"]: {"status": c["status"], "witnesses": c["witnesses"]} for c in claims
        },
    }


def record_pool() -> dict:
    keys = {name: sorted(G.elements) for name, G in lattice.enumerate_parents().items()}
    rng = random.Random(POOL_SEED)
    strata: dict[int, list] = {}
    for _ in range(POOL_SIZE):
        parent = rng.choice(sorted(keys))
        picks = rng.sample(keys[parent], rng.randint(2, 4))
        elements = [Permutation(k) for k in picks]
        stratum = generate(elements).order.bit_length() - 1
        entries = strata.setdefault(stratum, [])
        entries.append({
            "id": f"2^{stratum}-{len(entries)}",
            "parent": parent,
            "elements": [k.hex() for k in picks],
            "expected": lattice.query(elements),
        })
    return {"pool_seed": POOL_SEED, "strata": {str(s): strata[s] for s in sorted(strata)}}


def main() -> None:
    out = run.REFERENCE
    out.mkdir(exist_ok=True)
    ref = record_cli(run.COLD_ARGV, 0)
    if record_cli(run.COLD_ARGV, 7) != ref:
        raise SystemExit(f"{' '.join(run.COLD_ARGV)}: the claim outputs depend on --seed")
    (out / "cli_default.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    (out / "lattice_pool.json").write_text(json.dumps(record_pool(), sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
