"""Outside-in benchmark of sylow2.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md in this directory for why each exists):

* ``verify-cold``: ``sylow2 verify --all`` with an empty cache directory.
* ``subgroup-lattice``: the library client ``lattice.py``; each batch runs
  ``LATTICE_BATCH_SIZE`` queries, drawn by the seed from the recorded pool
  of subgroups that 2-4 random elements of G_4 or Syl_2(S_16) generate.

The program is treated as a black box and built from ``src/`` of the
checkout this file sits in. Every run is a fresh child process, one at a
time (a closed loop with one client), repeated until ``--seconds`` have
passed. Each CLI child gets its own temporary cache directory through
``SYLOW2_CACHE_DIR`` and its own ``HOME``; all temporary files live under
``.bench_tmp/`` in the checkout and are removed at the end.

Every output is checked: each claim's status and witnesses against
``reference/cli_default.json``, the exit code, and each lattice query's order,
Frattini order, rank, derived series and fingerprint against
``reference/lattice_pool.json``. A crashed child fails every check it had.

With ``--trace 0`` the last line carries the end-to-end metrics, every time
scaled to a reference CPU speed with the yardstick (see ``YARDSTICK_S``); with
``--trace 1`` it carries the per-layer metrics of a traced run of the same
work (``tracing.py``) and the tracing overhead. The exit code is 0 when all
checks pass, 1 when one fails and 2 on a usage or environment error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
TMP_ROOT = ROOT / ".bench_tmp"
RUN_LIMIT_S = 170.0
# The host the benchmark was tuned on changes its CPU speed by itself, by up
# to a third for minutes at a time, which no run length averages out. So
# every time the benchmark reports is scaled to a reference speed: the
# yardstick job runs before and after each sample, and the sample's times
# are multiplied by YARDSTICK_S over the mean of those two runs. YARDSTICK_S
# is about the yardstick's median time on that host, so the scaled times are
# close to the times as taken there.
YARDSTICK_S = 0.22

COLD = "verify-cold"
COLD_ARGV = ["verify", "--all"]
LATTICE = "subgroup-lattice"
WORKLOADS = [COLD, LATTICE]
LATTICE_PARENT_ORDERS = {"G_4": 1 << 14, "S_16": 1 << 15}
# about 6 s of queries, and enough of them that every subgroup order of the
# pool but the rarest (2^4, one query in 240) has a place in each batch
LATTICE_BATCH_SIZE = 20
LATTICE_FIELDS = ("order", "frattini_order", "rank", "derived_orders", "fingerprint")

TRACED_FUNCTIONS = {
    "perm_core": ("legendre_nu2", "Permutation.__mul__"),
    "tree_core": ("compose", "to_permutation", "from_permutation", "classify_element"),
    "sylow_builders": ("boxtimes_group", "tau_ij_word", "parity_extension", "s_beta"),
    "group_engine": (
        "generate", "squares_subgroup", "commutator_subgroup", "frattini_subgroup",
        "quotient_rank", "group_from_elements", "derived_series", "fingerprint",
        "save_group",
    ),
}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Child:
    start: float
    end: float
    code: int
    rss_mb: float
    log: Path

    @property
    def wall(self) -> float:
        return self.end - self.start


def spawn(argv: list, env: dict, log: Path, deadline: float) -> Child:
    """Run one child to completion, killing it at ``deadline``. The child is
    waited on without being reaped first, so a late kill cannot reach a
    recycled pid; ``wait4`` then gives its own peak RSS."""
    with open(log, "wb") as out:
        start = monotonic()
        proc = subprocess.Popen([str(a) for a in argv], env=env, cwd=ROOT,
                                stdout=out, stderr=subprocess.STDOUT)
    timer = threading.Timer(max(1.0, deadline - monotonic()), os.kill, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        end = monotonic()
    finally:
        timer.cancel()
        timer.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(start, end, proc.returncode, usage.ru_maxrss / 1024, log)


def child_env(tmp: Path) -> dict:
    home = tmp / "home"
    home.mkdir(exist_ok=True)
    return dict(
        os.environ,
        PYTHONPATH=str(SRC),
        SYLOW2_CACHE_DIR=str(tmp / "cache"),
        HOME=str(home),
        XDG_CACHE_HOME=str(home / ".cache"),
    )


class Tally:
    """Output checks attempted and failed; failures are explained on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str, log: Path | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
            if log is not None and log.exists():
                tail = log.read_text(errors="replace").splitlines()[-5:]
                print("\n".join("    " + line for line in tail), file=sys.stderr)


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE / name).read_text())


def gate_cli(run: Child, report: Path, ref: dict, tally: Tally, label: str) -> None:
    """One check per claim (status and witnesses; timing fields are
    ignored) plus one for the exit code."""
    tally.check(run.code == ref["exit_code"],
                f"{label}: exit code {run.code}, expected {ref['exit_code']}", run.log)
    try:
        records = {c["claim_id"]: c for c in json.loads(report.read_text())["claims"]}
    except (OSError, ValueError, KeyError, TypeError):
        records = {}
    for claim_id, want in ref["claims"].items():
        got = records.get(claim_id, {})
        tally.check(
            got.get("status") == want["status"] and got.get("witnesses") == want["witnesses"],
            f"{label}: claim {claim_id} differs from the reference",
        )


def gate_lattice(run: Child, out: Path, batch: list, tally: Tally, label: str) -> dict | None:
    """One check per query; a crash or a bad set-up fails them all."""
    try:
        data = json.loads(out.read_text())
        results = data["results"]
        setup_ok = data["parent_orders"] == LATTICE_PARENT_ORDERS and data["members_ok"]
    except (OSError, ValueError, KeyError, TypeError):
        data, results, setup_ok = None, [], False
    if run.code != 0 or not setup_ok or len(results) != len(batch):
        print(f"{label}: child exit {run.code}, set-up ok {setup_ok}", file=sys.stderr)
        for entry in batch:
            tally.check(False, f"{label}: query {entry['id']} has no valid result", run.log)
        return None
    for entry, got in zip(batch, results):
        want = entry["expected"]
        tally.check(all(got.get(f) == want[f] for f in LATTICE_FIELDS),
                    f"{label}: query {entry['id']} differs from the reference")
    return data


def batch_counts(pool: dict) -> dict:
    """Queries of each subgroup order (log2) in one batch: the pool's own
    proportions scaled to LATTICE_BATCH_SIZE by largest remainder. Every
    batch has the same mix, so the pooled percentiles do not move with the
    number of large subgroups a seed happens to draw."""
    sizes = {stratum: len(entries) for stratum, entries in pool["strata"].items()}
    exact = {s: LATTICE_BATCH_SIZE * n / sum(sizes.values()) for s, n in sizes.items()}
    counts = {s: math.floor(x) for s, x in exact.items()}
    spare = LATTICE_BATCH_SIZE - sum(counts.values())
    for stratum in sorted(exact, key=lambda s: counts[s] - exact[s])[:spare]:
        counts[stratum] += 1
    return counts


def draw_batches(seed: int, pool: dict):
    """Endless batches of lattice queries in the mix of ``batch_counts``.
    Each order's queries are dealt without replacement from a seeded
    shuffle (reshuffled when used up), so a run sees as many distinct
    queries as it can."""
    rng = random.Random(seed)
    counts = batch_counts(pool)
    decks = {stratum: [] for stratum in counts}
    while True:
        batch = []
        for stratum, count in counts.items():
            for _ in range(count):
                if not decks[stratum]:
                    decks[stratum] = list(pool["strata"][stratum])
                    rng.shuffle(decks[stratum])
                batch.append(decks[stratum].pop())
        rng.shuffle(batch)
        yield batch


@dataclass
class Sample:
    setup_s: float
    wall_s: float
    rss_mb: float
    query_ms: list
    speed: float = 1.0  # YARDSTICK_S over the yardstick's time around the sample


def yardstick() -> float:
    """Seconds of the yardstick job (``yardstick.py``) on this CPU now."""
    proc = subprocess.run([sys.executable, str(BENCH / "yardstick.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def cli_sample(seed: int, scratch: Path, tally: Tally, deadline: float,
               spans: Path | None = None) -> Sample:
    ref = load_reference("cli_default.json")
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        env = child_env(tmp)
        imp = spawn([sys.executable, "-c", "import sylow2.cli"], env, tmp / "import.log", deadline)
        tally.check(imp.code == 0, f"{COLD}: import sylow2.cli exited {imp.code}", imp.log)
        report = tmp / "report.json"
        prog = [BENCH / "tracing.py", spans, "cli"] if spans else ["-m", "sylow2.cli"]
        run = spawn([sys.executable, *prog, *COLD_ARGV, "--seed", seed, "--json", report], env,
                    tmp / "run.log", deadline)
        gate_cli(run, report, ref, tally, COLD)
        return Sample(imp.wall, run.wall, run.rss_mb, [run.wall * 1000])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def lattice_sample(batch: list, scratch: Path, tally: Tally, deadline: float,
                   spans: Path | None = None) -> Sample | None:
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        job, out = tmp / "job.json", tmp / "out.json"
        job.write_text(json.dumps({"queries": [
            {"parent": e["parent"], "elements": e["elements"]} for e in batch
        ]}))
        prog = [BENCH / "tracing.py", spans, "lattice"] if spans else [BENCH / "lattice.py"]
        run = spawn([sys.executable, *prog, job, out], child_env(tmp), tmp / "run.log", deadline)
        data = gate_lattice(run, out, batch, tally, LATTICE)
        if data is None:
            return None
        ready = data["ready_at"]
        return Sample(ready - run.start, run.end - ready, run.rss_mb,
                      [r["latency_s"] * 1000 for r in data["results"]])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def percentile(values: list, p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def describe(values: list) -> str:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    n = len(values)
    text = f"median {statistics.median(values):.6g}"
    if n >= 20:
        p = math.floor(100 * (1 - 10 / n))
        text += f", p{p} {percentile(values, p):.6g}"
    else:
        text += ", no percentile has 10 samples beyond it"
    return text + f", n={n}"


def end_to_end(samples: list) -> dict:
    """Times at the reference speed: each sample's times are scaled by its
    ``speed``. The times as taken are printed for comparison."""
    print(f"{'as taken':<14} wall_s {statistics.median(s.wall_s for s in samples):.6g} s, "
          f"setup_s {statistics.median(s.setup_s for s in samples):.6g} s; "
          f"speed (samples: {describe([s.speed for s in samples])})")
    setup = [s.setup_s * s.speed for s in samples]
    wall = [s.wall_s * s.speed for s in samples]
    rss = [s.rss_mb for s in samples]
    queries = [q * s.speed for s in samples for q in s.query_ms]
    metrics = {
        "wall_s": (statistics.median(wall), "s", wall),
        "setup_s": (statistics.median(setup), "s", setup),
        "peak_rss_mb": (statistics.median(rss), "MB", rss),
        "query_p50_ms": (statistics.median(queries), "ms", queries),
        "query_p90_ms": (percentile(queries, 90), "ms", queries),
    }
    for name, (value, unit, values) in metrics.items():
        print(f"{name:<14} {value:.6g} {unit:<3} (samples: {describe(values)})")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def layer_metrics(trace: dict, claim_ids: list, overhead: float) -> dict:
    """The per-layer metrics of one traced run, as name -> (value, unit)."""
    functions = trace["functions"]

    def fn(name):
        return functions.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

    m = {}
    for layer, names in TRACED_FUNCTIONS.items():
        for name in names:
            st = fn(f"{layer}.{name}")
            m[f"{layer}.{name}.calls"] = (st["calls"], "count")
            m[f"{layer}.{name}.self_s"] = (st["self_s"], "s")
    gen = fn("group_engine.generate")
    gen_notes = trace["notes"].get("group_engine.generate", {})
    elements = gen_notes.get("elements", 0)
    m["group_engine.generate.elements"] = (elements, "count")
    m["group_engine.generate.elements_per_s"] = (
        elements / gen["incl_s"] if gen["incl_s"] else 0.0, "1/s")
    m["group_engine.cap_headroom_min"] = (gen_notes.get("headroom_min", 0.0), "share")
    frattini_calls = fn("group_engine.frattini_subgroup")["calls"]
    groups = trace["distinct_groups"].get("group_engine.frattini_subgroup", 0)
    m["group_engine.frattini_subgroup.calls_per_group"] = (
        frattini_calls / groups if groups else 0.0, "ratio")
    m["group_engine.save_group.bytes"] = (
        trace["notes"].get("group_engine.save_group", {}).get("bytes", 0), "B")
    for claim_id in claim_ids:
        m[f"claims.{claim_id}.s"] = (fn(f"claim:{claim_id}")["incl_s"], "s")
    calls, builds = fn("claims.tree_group")["calls"], trace["tree_group_builds"]
    m["claims.tree_group.calls"] = (calls, "count")
    m["claims.tree_group.builds"] = (builds, "count")
    m["claims.tree_group.reuse_ratio"] = ((calls - builds) / calls if calls else 0.0, "share")
    m["cli.import_s"] = (trace["extra"]["import_s"], "s")
    m["cli.main.s"] = (fn("cli.main")["incl_s"], "s")
    m["trace.overhead_s"] = (overhead, "s")
    return m


def per_layer(runs: list, tally: Tally) -> dict:
    """Median of each per-layer metric over the traced repeats. Every
    repeat does the same work, so each count must repeat exactly: one check
    per count metric."""
    out = {}
    for name, (value, unit) in runs[0].items():
        values = [r[name][0] for r in runs]
        if unit in ("count", "B"):
            tally.check(len(values) > 1 and len(set(values)) == 1,
                        f"{name} does not repeat across traced repeats: {values}")
        out[name] = {"value": statistics.median(values), "unit": unit}
        print(f"{name:<52} {out[name]['value']:.6g} {unit}")
    return out


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sylow2").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata(args) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "src_sha256": source_digest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def preflight(scratch: Path) -> str | None:
    """An environment error message, or None when the checkout can run."""
    if not (SRC / "sylow2" / "__init__.py").is_file():
        return f"no sylow2 sources under {SRC}"
    for name in ("cli_default.json", "lattice_pool.json"):
        if not (REFERENCE / name).is_file():
            return f"missing reference file {REFERENCE / name}"
    probe = subprocess.run(
        [sys.executable, "-c", "import sylow2; print(sylow2.__file__)"],
        env=child_env(scratch), cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    where = Path(probe.stdout.strip() or ".").resolve()
    if probe.returncode != 0 or SRC.resolve() not in where.parents:
        return f"sylow2 does not import from {SRC}: {probe.stderr.strip() or where}"
    return None


def measure(args, scratch: Path, tally: Tally, t0: float) -> dict:
    deadline = t0 + RUN_LIMIT_S
    pool = load_reference("lattice_pool.json") if args.workload == LATTICE else None
    batches = draw_batches(args.seed, pool) if pool else None
    claim_ids = sorted(load_reference("cli_default.json")["claims"])

    def one_run(batch, spans=None):
        if pool:
            return lattice_sample(batch, scratch, tally, deadline, spans)
        return cli_sample(args.seed, scratch, tally, deadline, spans)

    samples, traced = [], []
    batch = next(batches) if pool else None
    before = None if args.trace else yardstick()
    while True:
        start = monotonic()
        if args.trace:
            # every repeat does the same work, so its counts must repeat
            spans = scratch / "spans"
            plain, sample = one_run(batch), one_run(batch, spans)
            if plain and sample and Path(f"{spans}.json").exists():
                traced.append(layer_metrics(tracing.analyze(str(spans)), claim_ids,
                                            sample.wall_s - plain.wall_s))
            for suffix in (".json", ".bin"):
                Path(f"{spans}{suffix}").unlink(missing_ok=True)
        else:
            sample = one_run(batch)
            after = yardstick()
            if sample:
                sample.speed = 2 * YARDSTICK_S / (before + after)
                samples.append(sample)
            before = after
            batch = next(batches) if pool else None
        now = monotonic()
        if now + (now - start) > deadline or tally.failed:
            break
        # stop when one more run as long as the last would pass --seconds, so
        # that a run ends near --seconds; the traced run needs two repeats to
        # compare their counts
        if now + (now - start) - t0 > args.seconds and (not args.trace or len(traced) >= 2):
            break
    if args.trace:
        return per_layer(traced, tally) if traced else {}
    return end_to_end(samples) if samples else {}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    t0 = monotonic()
    TMP_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    try:
        error = preflight(scratch)
        if error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        meta = metadata(args)
        tally = Tally()
        metrics = measure(args, scratch, tally, t0)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    meta["loadavg_end"] = os.getloadavg()
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"failed_share {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} checks)")
    correct = tally.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
