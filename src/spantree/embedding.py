"""Partial injective tree-to-host maps, and the Las Vegas step they share.

Every pipeline phase draws a random partial map, audits it exactly and
resamples on failure.  `PipelineError` is the one failure type those audits
raise (`VerificationError` when a finished map fails its check), `draw_host`
is the one rule every random host pick goes through, and `greedy_walk` is
the one random greedy walk built on it.
"""

from __future__ import annotations

import itertools
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


class VerificationError(PipelineError):
    """A map a phase was about to return failed its exact check."""

    cause = "verify"


def draw_host(
    mask: np.ndarray, rng: np.random.Generator, order: np.ndarray | None = None
) -> int | None:
    """Uniform host among those marked in `mask`; None when none is.

    Candidates are read in ascending host order, or along the host array
    `order` when given, and that reading order fixes which host an RNG state
    picks.  To replay picks from scans of a Python set S, read `order` once
    from S itself: discards never reorder a set, so `[w for w in S if row[w]]`
    stays `order[row[order] & alive[order]]`, with `alive` cleared at the
    discarded hosts.  A copy `set(S)` can iterate in another order.
    """
    candidates = mask.nonzero()[0] if order is None else order[mask[order]]
    if len(candidates) == 0:
        return None
    return int(candidates[rng.integers(len(candidates))])


def greedy_walk(
    d: Digraph,
    order: PrefixOrdering,
    free: np.ndarray,
    rng: np.random.Generator,
    root_host: int | None = None,
    stop: int | None = None,
    host_order: np.ndarray | None = None,
) -> np.ndarray | None:
    """Random greedy embedding of order.order[:stop] into the hosts marked in `free`.

    The root goes to `root_host`, or to a uniform free host when None; each
    later vertex goes to a uniform free host in the right neighborhood of
    its parent's image.  Every pick is a `draw_host` with `host_order`.
    Used hosts are cleared in `free`.  Returns hosts[i] = image of
    order.order[i], or None when some vertex has no candidate.
    """
    stop = len(order.order) if stop is None else stop
    adj_row, parent_index, sign = d.adj_row, order.parent_index, order.sign
    candidates = np.empty(d.n, dtype=bool)   # row & free, refilled in place per pick
    hosts: list[int] = []
    for i in range(stop):
        if i == 0:
            host = draw_host(free, rng, host_order) if root_host is None else int(root_host)
        else:
            np.logical_and(adj_row(hosts[parent_index[i]], sign[i]), free, out=candidates)
            host = draw_host(candidates, rng, host_order)
        if host is None:
            return None
        hosts.append(host)
        free[host] = False
    return np.array(hosts, dtype=np.int64)


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
        if not isinstance(doc, dict) or not isinstance(doc.get("map"), dict):
            raise ValueError("an embedding document is an object with a \"map\" object")
        try:
            pairs = sorted((int(a), int(b)) for a, b in doc["map"].items())
        except (TypeError, ValueError) as exc:
            raise ValueError(f"map entries must be integers: {exc}") from exc
        emb = cls()
        for tv, hv in pairs:
            emb.assign(tv, hv)
        return emb


def is_valid_embedding(d: Digraph, tree: OrientedTree, emb: Embedding) -> bool:
    """Total + injective + every tree edge maps to a host edge of the same direction.

    Every tree vertex 0..|T|-1 and every host 0..n-1 is checked by range, so
    no id can alias another through negative indexing.  The arcs are then
    read in one gather: host[i] = image of i, and the edge list flattened
    to tail, head, tail, head, ...
    """
    if len(emb.map) != tree.n or not all(0 <= tv < tree.n for tv in emb.map):
        return False
    if len(emb.used) != tree.n or not all(0 <= hv < d.n for hv in emb.used):
        return False
    host = np.fromiter(map(emb.map.__getitem__, range(tree.n)), dtype=np.int64, count=tree.n)
    ends = host[np.fromiter(itertools.chain.from_iterable(tree.edge_list), dtype=np.int64,
                            count=2 * (tree.n - 1))]
    return bool(d.mat[ends[0::2], ends[1::2]].all())
