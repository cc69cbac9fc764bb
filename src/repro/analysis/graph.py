"""Conflict-graph toolkit of the history checker (txn id nodes) and the
template certifier (template name nodes): plain adjacency, ``succ[node]``
the successors of ``node``, each itself a key; an insertion-ordered dict
gives reproducible BFS tie-breaks."""

from __future__ import annotations

from typing import Collection, Hashable, Mapping, Optional

__all__ = ["components", "shortest_path"]

Graph = Mapping[Hashable, Collection[Hashable]]


def components(succ: Graph) -> list[list[Hashable]]:
    """Non-trivial strongly connected components by Tarjan's algorithm,
    iteratively; members and components sorted so that witnesses built
    from them are reproducible."""
    rank: dict[Hashable, float] = {}
    low: dict[Hashable, float] = {}
    stack: list[Hashable] = []
    found = []
    for root in succ:
        if root in rank:
            continue
        rank[root] = low[root] = len(rank)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, children = work[-1]
            for child in children:
                if child not in rank:
                    rank[child] = low[child] = len(rank)
                    stack.append(child)
                    work.append((child, iter(succ[child])))
                    break
                # A finished component's members rank inf, above all.
                low[node] = min(low[node], rank[child])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[node])
                if low[node] == rank[node]:
                    members = [stack.pop()]
                    while members[-1] != node:
                        members.append(stack.pop())
                    rank.update(dict.fromkeys(members, float("inf")))
                    if len(members) > 1:
                        found.append(sorted(members))
    return sorted(found)


def shortest_path(succ: Graph, src: Hashable,
                  dst: Hashable) -> Optional[list[Hashable]]:
    """A shortest path ``[src, ..., dst]`` of at least one edge, by BFS in
    ``succ``'s iteration order (a shortest cycle through ``src`` when
    ``dst == src``); ``None`` when ``dst`` is unreachable."""
    parent = {src: src}
    queue = [src]
    for node in queue:  # appended to while iterated: the BFS queue
        if dst in succ[node]:
            path = [dst, node]
            while path[-1] != src:
                path.append(parent[path[-1]])
            return path[::-1]
        for nxt in succ[node]:
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    return None
