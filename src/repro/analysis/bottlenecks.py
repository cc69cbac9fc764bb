"""Bottleneck analysis of a finished simulation run.

After a measurement, every :class:`repro.sim.resources.Resource` in the
system (CPU cores, NICs, disks, validation threads, store threads, read
paths, latches) carries utilization statistics.  This module walks a
system object, collects them, and reports the saturated resources — the
"why is this system this fast" answer that the paper derives manually in
Section 5 (Fabric: serial validation; etcd: leader egress; Quorum: the
EVM thread; TiDB: hot-key latches).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..sim.resources import Resource

__all__ = ["ResourceUsage", "BottleneckReport", "analyze_system"]


@dataclass(frozen=True)
class ResourceUsage:
    """Utilization of one named resource over the run."""

    name: str
    utilization: float
    total_requests: int
    capacity: int

    def __str__(self) -> str:
        bar = "#" * int(self.utilization * 20)
        return (f"{self.name:40s} {self.utilization:6.1%} |{bar:<20}| "
                f"({self.total_requests} reqs, cap {self.capacity})")


@dataclass
class BottleneckReport:
    """Sorted utilization of every resource in a system."""

    usages: list[ResourceUsage]
    elapsed: float

    @property
    def bottleneck(self) -> ResourceUsage:
        if not self.usages:
            raise ValueError("no resources observed")
        return self.usages[0]

    def saturated(self, threshold: float = 0.8) -> list[ResourceUsage]:
        return [u for u in self.usages if u.utilization >= threshold]

    def render(self, top: int = 10) -> str:
        lines = [f"bottleneck report over {self.elapsed:.2f} simulated s:"]
        lines.extend(str(u) for u in self.usages[:top])
        return "\n".join(lines)


def _named_resources(system) -> Iterable[tuple[str, Resource]]:
    """Discover the resources a system model owns."""
    seen: set[int] = set()

    def emit(name, resource):
        if isinstance(resource, Resource) and id(resource) not in seen:
            seen.add(id(resource))
            yield name, resource

    for node in getattr(system, "nodes", []):
        yield from emit(f"node:{node.name}:cpu", node.cpu)
        yield from emit(f"node:{node.name}:nic", node.nic_out)
        yield from emit(f"node:{node.name}:disk", node.disk)
    client = getattr(system, "client_node", None)
    if client is not None:
        yield from emit("client:nic", client.nic_out)
    # system-specific serial pipelines
    for attr, label in (
            ("evm_threads", "evm"),
            ("commit_threads", "commit"),
            ("log_threads", "paxos-log"),
            ("_read_paths", "read-path"),
            ("query_pools", "query-pool"),
    ):
        mapping = getattr(system, attr, None)
        if isinstance(mapping, dict):
            for key, resource in mapping.items():
                yield from emit(f"{label}:{key}", resource)
    for peer in getattr(system, "peers", []):
        yield from emit(f"validator:{peer.node.name}",
                        peer.validation_thread)
        yield from emit(f"query-pool:{peer.node.name}", peer.query_pool)
    cluster = getattr(system, "cluster", None)
    if cluster is not None:
        for key, resource in cluster.store_threads.items():
            yield from emit(f"store-thread:{key}", resource)
        for key, resource in cluster.read_paths.items():
            yield from emit(f"kv-read:{key}", resource)
    latches = getattr(system, "_latches", None)
    if isinstance(latches, dict):
        # report only the hottest few latches (there may be thousands)
        hottest = sorted(latches.items(),
                         key=lambda kv: kv[1].busy_time, reverse=True)[:5]
        for key, resource in hottest:
            yield from emit(f"latch:{key}", resource)
    pipelines = getattr(system, "shard_pipelines", None)
    if isinstance(pipelines, list):
        for i, resource in enumerate(pipelines):
            yield from emit(f"shard-pipeline:{i}", resource)


def analyze_system(system, elapsed: float | None = None) -> BottleneckReport:
    """Collect utilization from every resource ``system`` owns.

    ``elapsed`` defaults to the environment's current simulated time.
    """
    env = system.env
    span = elapsed if elapsed is not None else env.now
    usages = [
        ResourceUsage(
            name=name,
            utilization=min(1.0, resource.utilization(span)),
            total_requests=resource.total_requests,
            capacity=resource.capacity,
        )
        for name, resource in _named_resources(system)
        if resource.total_requests > 0
    ]
    usages.sort(key=lambda u: u.utilization, reverse=True)
    return BottleneckReport(usages=usages, elapsed=span)
