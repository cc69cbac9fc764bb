"""Per-layer attribution from outside: spans, a profile fold, exact counts.

Layers are this repo's modules.  Nothing here touches ``src/``: the
benchmark records its own spans around the calls it makes into each
layer, folds a ``cProfile`` run by the module path of every function,
and reads exact counts off public attributes and the call table.

``cProfile`` charges a fixed cost per call, so layers made of many small
calls look bigger than they are.  Use the shares to locate time and the
untraced medians to decide.
"""

from __future__ import annotations

import contextlib
import pstats
import time
from collections import defaultdict
from pathlib import Path
from typing import Optional

_PACKAGE_ROOT = str(Path(__file__).resolve().parents[2] / "src" / "repro") + "/"

#: Every layer the fold reports.  ``sim.other`` is node/costs/rng.  The
#: key-to-shard partitioner is split from ``sharding`` because tikv and
#: tidb route every key through it, while the cross-shard commit
#: protocols (2PC, BFT-2PC, shard formation) run on ahl only.
LAYERS = ("sim.kernel", "sim.network", "sim.resources", "sim.wheel",
          "sim.metrics", "sim.parallel", "sim.other", "consensus",
          "concurrency", "storage", "adt", "crypto", "txn", "sharding",
          "sharding.partitioner", "systems", "workloads", "chaos",
          "analysis", "core", "bench")

_SIM_MODULES = {"kernel", "network", "resources", "wheel", "metrics",
                "parallel"}


class Spans:
    """The benchmark's own spans, kept in memory until the run ends."""

    def __init__(self):
        self.records: list[dict] = []
        self._stack: list[int] = []
        self.rep = -1

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.records), "name": name, "rep": self.rep,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()


def layer_of(filename: str) -> Optional[str]:
    """Layer owning a source file, or ``None`` outside ``src/repro``."""
    if not filename.startswith(_PACKAGE_ROOT):
        return None
    tail = filename[len(_PACKAGE_ROOT):].split("/")
    if len(tail) < 2:
        return None
    package, module = tail[0], tail[1].removesuffix(".py")
    if package == "sim":
        return f"sim.{module}" if module in _SIM_MODULES else "sim.other"
    if package == "sharding" and module == "partitioner":
        return "sharding.partitioner"
    return package if package in LAYERS else None


def fold(profile) -> dict:
    """Fold a finished ``cProfile.Profile`` into per-layer self time.

    A function outside ``src/repro`` (built-ins, the standard library,
    networkx, dataclass-generated code) has its self time charged to the
    layers that called it, in proportion to the self time it spent under
    each caller, transitively.  What cannot be traced back to a layer —
    the benchmark's own frames — lands in ``other_s``.
    """
    table = pstats.Stats(profile).stats
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    memo: dict = {}

    def owners(func, stack: frozenset) -> dict[str, float]:
        """Distribution of ``func``'s time over layers (sums to <= 1)."""
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        if func in stack or func not in table:
            return {}
        callers = table[func][4]
        weights = {c: v[2] for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0.0:
            weights = {c: v[0] for c, v in callers.items()}
            total = sum(weights.values())
        out: dict[str, float] = defaultdict(float)
        if total > 0:
            inner = stack | {func}
            for caller, weight in weights.items():
                for name, frac in owners(caller, inner).items():
                    out[name] += frac * weight / total
        memo[func] = out
        return out

    total_s = other_s = 0.0
    for func, (_cc, ncalls, tottime, _ct, _callers) in table.items():
        total_s += tottime
        layer = layer_of(func[0])
        if layer is not None:
            calls[layer] += ncalls
        shares = owners(func, frozenset())
        for name, frac in shares.items():
            self_s[name] += tottime * frac
        other_s += tottime * (1.0 - sum(shares.values()))
    return {
        "total_s": total_s,
        "other_s": max(0.0, other_s),
        "layers": {name: {"self_s": self_s.get(name, 0.0),
                          "share": (self_s.get(name, 0.0) / total_s
                                    if total_s else 0.0),
                          "calls": calls.get(name, 0)}
                   for name in LAYERS},
        "table": table,
    }


def call_count(table: dict, file_suffix: str,
               names: tuple[str, ...]) -> Optional[int]:
    """Calls to the named functions of one file, from the call table.

    ``None`` when the table holds none of them: the name is gone (or was
    never called), which must read as "unknown", not as zero.
    """
    found = [entry[1] for (filename, _line, name), entry in table.items()
             if name in names and filename.endswith(file_suffix)]
    return sum(found) if found else None


def kernel_counts(table: dict) -> dict:
    return {
        "sim.kernel.schedules": call_count(
            table, "sim/kernel.py",
            ("_schedule", "_schedule_call", "_schedule_call_at",
             "_schedule_call_last")),
        "sim.kernel.resumes": call_count(table, "sim/kernel.py",
                                         ("_resume",)),
        "sim.kernel.heap_pushes": call_count(
            table, "~", ("<built-in method _heapq.heappush>",)),
    }


# -- exact counts off the live system ---------------------------------------

#: Modules whose objects the walk descends into.  Data structures (the
#: trie, the LSM levels, transaction logs) are read but not entered: they
#: hold one object per record.
_DESCEND = ("repro.systems", "repro.consensus", "repro.concurrency",
            "repro.sharding", "repro.storage.engine", "repro.txn.state",
            "repro.sim.node")
_MAX_CONTAINER = 4096
_MAX_OBJECTS = 200_000


def _reachable(root) -> list:
    """Objects of ``repro`` classes reachable from ``root`` (bounded)."""
    seen: set[int] = set()
    found: list = []
    todo = [root]
    while todo and len(seen) < _MAX_OBJECTS:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (list, tuple, set, frozenset)):
            if len(obj) <= _MAX_CONTAINER:
                todo.extend(obj)
            continue
        if isinstance(obj, dict):
            if len(obj) <= _MAX_CONTAINER:
                todo.extend(obj.values())
            continue
        module = getattr(type(obj), "__module__", "") or ""
        if not module.startswith("repro."):
            continue
        found.append(obj)
        if module.startswith(_DESCEND):
            todo.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    todo.append(getattr(obj, slot, None))
    return found


def _total(objects: list, prefix: str, names: tuple[str, ...]):
    values = [getattr(obj, name) for obj in objects
              if type(obj).__module__.startswith(prefix)
              for name in names if isinstance(getattr(obj, name, None),
                                              (int, float))]
    return sum(values) if values else None


def system_counts(system) -> dict:
    """Exact counts read off public attributes of a finished system.

    A name that no longer exists yields ``None`` — never an exception.
    """
    if system is None:
        return {}
    objects = _reachable(system)
    network = getattr(system, "network", None)
    out = {
        "sim.network.messages": getattr(network, "messages_sent", None),
        "sim.network.bytes": getattr(network, "bytes_sent", None),
        "sim.network.dropped": getattr(network, "messages_dropped", None),
        "consensus.commits": _total(objects, "repro.consensus",
                                    ("commits", "commits_count")),
        "consensus.elections": _total(
            objects, "repro.consensus",
            ("elections_started", "view_changes_count")),
        "storage.commits": _total(objects, "repro.storage.engine",
                                  ("commits",)),
        "adt.hashes": _total(objects, "repro.adt", ("hashes_computed",)),
    }
    puts = _total(objects, "repro.storage.engine", ("puts",))
    if out["adt.hashes"] is not None and puts:
        out["adt.hashes_per_write"] = out["adt.hashes"] / puts
    else:
        out["adt.hashes_per_write"] = None
    amps = [obj.write_amplification() for obj in objects
            if type(obj).__module__ == "repro.storage.lsm"
            and callable(getattr(obj, "write_amplification", None))]
    out["storage.write_amp"] = max(amps) if amps else None
    try:
        from repro.analysis.bottlenecks import analyze_system
        usages = analyze_system(system).usages
        out["sim.resources.bottleneck_util"] = \
            usages[0].utilization if usages else None
    except (ImportError, AttributeError):
        out["sim.resources.bottleneck_util"] = None
    return out
