"""Span tracing of the sylow2 package from outside the package.

The benchmark's traced run starts this file as a child process:

    python3 tracing.py SPANS cli ARG...          # sylow2.cli.main([ARG...])
    python3 tracing.py SPANS lattice JOB OUT     # the subgroup-lattice client

It imports ``sylow2.cli`` (timed, reported as ``cli.import_s``), replaces each
public function of the package at every module binding that refers to it, plus
``Permutation.__mul__`` and the claim runners in ``claims.CLAIMS`` (spans
named ``claim:<claim id>``), runs the work, and writes the spans to
``SPANS.json`` (names, notes) and ``SPANS.bin`` (the span arrays). Spans
live in compact arrays in memory until the end, because the legendre claim
alone makes 10^6 calls.

``analyze`` turns the dumped spans into per-function counts, self time (span
time minus the time of its child spans) and the notes some wrappers take.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import inspect
import json
import operator
import os
import sys
import time
from pathlib import Path

LAYERS = ("perm_core", "tree_core", "sylow_builders", "group_engine", "claims", "cli")


class Recorder:
    """In-memory span store. A span is (name id, parent span, start, end);
    spans nest by call stack, so the parent is the innermost open span."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack: list[int] = []
        self.notes: list[tuple[int, str, float]] = []

    def wrap(self, name, fn, note=None):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ends[idx] = clock()
                stack.pop()
                if note is not None:
                    note(self, idx, args, kwargs, None, exc)
                raise
            ends[idx] = clock()
            stack.pop()
            if note is not None:
                note(self, idx, args, kwargs, result, None)
            return result

        return traced

    def dump(self, prefix: str, extra: dict) -> None:
        header = {
            "names": self.names,
            "count": len(self.name),
            "notes": self.notes,
            "extra": extra,
        }
        with open(prefix + ".bin", "wb") as out:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(out)
        Path(prefix + ".json").write_text(json.dumps(header))


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _note_generate(fn):
    def note(rec, idx, args, kwargs, result, exc):
        cap = _bound(fn, args, kwargs).get("cap")
        if exc is None:
            rec.notes.append((idx, "elements", result.order))
            if cap:
                rec.notes.append((idx, "headroom", (cap - result.order) / cap))
    return note


def _note_save_group(fn):
    def note(rec, idx, args, kwargs, result, exc):
        if exc is None:
            rec.notes.append((idx, "bytes", os.path.getsize(_bound(fn, args, kwargs)["path"])))
    return note


def _note_group_arg(fn):
    groups: dict = {}

    def note(rec, idx, args, kwargs, result, exc):
        G = next(iter(_bound(fn, args, kwargs).values()))
        rec.notes.append((idx, "group", groups.setdefault(G.elements, len(groups))))
    return note


NOTES = {
    "group_engine.generate": _note_generate,
    "group_engine.save_group": _note_save_group,
    "group_engine.frattini_subgroup": _note_group_arg,
}


def install(extra_modules=()) -> Recorder:
    """Wrap the package's public functions at every binding in the package
    and in ``extra_modules``; return the recorder that collects the spans."""
    from sylow2 import claims
    from sylow2.perm_core import Permutation

    rec = Recorder()
    wrapped: dict[int, object] = {}
    for layer in LAYERS:
        mod = sys.modules[f"sylow2.{layer}"]
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            make_note = NOTES.get(name)
            wrapped[id(fn)] = rec.wrap(name, fn, make_note(fn) if make_note else None)
    modules = [m for n, m in sys.modules.items() if n == "sylow2" or n.startswith("sylow2.")]
    for mod in [*modules, *extra_modules]:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped:
                setattr(mod, attr, wrapped[id(value)])
    Permutation.__mul__ = rec.wrap("perm_core.Permutation.__mul__", Permutation.__mul__)
    for claim_id, claim in list(getattr(claims, "CLAIMS", {}).items()):
        if hasattr(claim, "runner"):
            runner = rec.wrap(f"claim:{claim_id}", claim.runner)
            claims.CLAIMS[claim_id] = dataclasses.replace(claim, runner=runner)
    return rec


def analyze(prefix: str) -> dict:
    """Per span name: calls, inclusive seconds, self seconds and summed
    notes; plus the tree_group build count and the distinct groups seen by
    frattini_subgroup."""
    header = json.loads(Path(prefix + ".json").read_text())
    n = header["count"]
    arrays = []
    with open(prefix + ".bin", "rb") as src:
        for code in ("i", "i", "d", "d"):
            arr = array.array(code)
            arr.fromfile(src, n)
            arrays.append(arr)
    name, parent, start, end = arrays
    names = header["names"]
    dur = array.array("d", map(operator.sub, end, start))
    own = array.array("d", dur)
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= dur[i]
    stats = {nm: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for nm in names}
    for i, nid in enumerate(name):
        st = stats[names[nid]]
        st["calls"] += 1
        st["incl_s"] += dur[i]
        st["self_s"] += own[i]
    notes: dict[str, dict] = {}
    groups: dict[str, set] = {}
    for idx, key, value in header["notes"]:
        nm = names[name[idx]]
        if key == "group":
            groups.setdefault(nm, set()).add(value)
            continue
        bucket = notes.setdefault(nm, {})
        if key == "headroom":
            bucket["headroom_min"] = min(bucket.get("headroom_min", 1.0), value)
        else:
            bucket[key] = bucket.get(key, 0) + value
    ids = {nm: i for i, nm in enumerate(names)}
    build_ids = {ids.get("group_engine.generate"), ids.get("group_engine.load_group")}
    builds = {parent[i] for i, nid in enumerate(name) if nid in build_ids and parent[i] >= 0}
    tree_group_builds = sum(1 for p in builds if name[p] == ids.get("claims.tree_group"))
    return {
        "functions": stats,
        "notes": notes,
        "distinct_groups": {nm: len(ids) for nm, ids in groups.items()},
        "tree_group_builds": tree_group_builds,
        "extra": header["extra"],
    }


def main(argv: list[str]) -> int:
    prefix, mode, *rest = argv
    start = time.perf_counter()
    import sylow2.cli
    extra = {"import_s": time.perf_counter() - start}
    if mode == "cli":
        rec = install()
        code = sylow2.cli.main(rest)
    elif mode == "lattice":
        import lattice

        state = lattice.prepare(rest[0])
        rec = install([lattice])
        lattice.complete(state, rest[1])
        code = 0
    else:
        print(f"error: unknown mode {mode!r}", file=sys.stderr)
        return 2
    rec.dump(prefix, extra)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
