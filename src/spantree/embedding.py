"""Partial injective tree-to-host maps, and the Las Vegas step they share.

Every pipeline phase draws a random partial map, audits it exactly and
resamples on failure.  `PipelineError` is the one failure type those audits
raise, and `greedy_walk` is the one random greedy rule they draw with.
"""

from __future__ import annotations

import json

import numpy as np

from .digraph import Digraph
from .trees import OrientedTree, PrefixOrdering


class PipelineError(RuntimeError):
    """A Las Vegas step failed its audit; retry loops catch this base.

    `cause` is the failure-taxonomy tag, set per class or per instance.
    `phase` and `attempts` are filled in when a retry loop gives up.
    """

    cause = "hall-fail"
    phase: str | None = None
    attempts = 0

    def __init__(self, message: str, cause: str | None = None):
        super().__init__(message)
        if cause is not None:
            self.cause = cause


def greedy_walk(
    d: Digraph,
    order: PrefixOrdering,
    free: np.ndarray,
    rng: np.random.Generator,
    root_host: int | None = None,
    stop: int | None = None,
) -> np.ndarray | None:
    """Random greedy embedding of order.order[:stop] into the hosts marked in `free`.

    The root goes to `root_host`, or to a uniform free host when None; each
    later vertex goes to a uniform free host in the right neighborhood of
    its parent's image, candidates read in ascending host order.  Used hosts
    are cleared in `free`.  Returns hosts[i] = image of order.order[i], or
    None when some vertex has no candidate.
    """
    stop = len(order.order) if stop is None else stop
    hosts = np.full(stop, -1, dtype=np.int64)
    for i in range(stop):
        if i == 0 and root_host is not None:
            host = int(root_host)
        else:
            if i > 0:
                row = d.adj_row(int(hosts[order.parent_index[i]]), order.sign[i])
                candidates = np.flatnonzero(row & free)
            else:
                candidates = np.flatnonzero(free)
            if len(candidates) == 0:
                return None
            host = int(candidates[rng.integers(len(candidates))])
        hosts[i] = host
        free[host] = False
    return hosts


class Embedding:
    """Partial injective map from tree vertices to host vertices."""

    __slots__ = ("map", "used", "phase")

    def __init__(self):
        self.map: dict[int, int] = {}
        self.used: set[int] = set()
        self.phase: dict[int, str] = {}

    def assign(self, tree_vertex: int, host_vertex: int, phase: str = "") -> None:
        host_vertex = int(host_vertex)
        tree_vertex = int(tree_vertex)
        if tree_vertex in self.map:
            raise ValueError(f"tree vertex {tree_vertex} already embedded")
        if host_vertex in self.used:
            raise ValueError(f"host vertex {host_vertex} already used")
        self.map[tree_vertex] = host_vertex
        self.used.add(host_vertex)
        self.phase[tree_vertex] = phase

    def __getitem__(self, tree_vertex: int) -> int:
        return self.map[tree_vertex]

    def __contains__(self, tree_vertex: int) -> bool:
        return tree_vertex in self.map

    def __len__(self) -> int:
        return len(self.map)

    def to_json(self, telemetry: dict | None = None) -> str:
        doc = {"map": {str(tv): hv for tv, hv in sorted(self.map.items())}}
        if telemetry is not None:
            doc["telemetry"] = telemetry
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Embedding":
        doc = json.loads(text)
        emb = cls()
        for tv, hv in sorted((int(a), int(b)) for a, b in doc["map"].items()):
            emb.assign(tv, hv)
        return emb


def is_valid_embedding(d: Digraph, tree: OrientedTree, emb: Embedding) -> bool:
    """Total + injective + every tree edge maps to a host edge of the same direction."""
    if len(emb.map) != tree.n:
        return False
    if len(emb.used) != tree.n:
        return False
    for u, v in tree.edge_list:
        if u not in emb.map or v not in emb.map:
            return False
        if not d.has_edge(emb.map[u], emb.map[v]):
            return False
    return True
