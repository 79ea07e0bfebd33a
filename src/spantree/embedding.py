"""Partial injective tree-to-host maps, and the Las Vegas step they share.

Every pipeline phase draws a random partial map, audits it exactly and
resamples on failure.  `PipelineError` is the one failure type those audits
raise (`VerificationError` when a finished map fails its check), `draw_host`
is the rule of a random host pick: a uniform host among the marked ones, in
a reading order.  `greedy_walk`, the one random greedy walk, reads its
candidates by that rule but takes its picks from one `draws.reader`: one
`run` for every pick on a complete host, one `below` per scanning pick on
any other, with the same stream as one `integers` call per pick.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .digraph import Digraph, Sign, _is_int, _read_only
from .draws import reader
from .trees import OrientedTree, PrefixOrdering


class PipelineError(RuntimeError):
    """A Las Vegas step failed its audit; the one retry loop, `embedder._retry`, catches this base.

    `cause` is the failure-taxonomy tag, set per class or per instance.
    `phase` and `attempts` are filled in when the retry loop gives up.
    `fixed` marks a failure decided before any draw, which no retry changes.
    """

    cause = "hall-fail"
    phase: str | None = None
    attempts = 0
    fixed = False

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
    placed: list[int] | tuple[int, ...] = (),
    host_order: np.ndarray | None = None,
) -> np.ndarray | None:
    """Random greedy embedding of the forest order.order into the hosts marked in `free`.

    The first entries go to the hosts `placed`, in order.  Each later entry
    goes to a uniform free host: in the right neighborhood of its parent's
    image, or anywhere in `free` when its parent_index is -1.  Every pick
    reads its candidates as `draw_host` does with `host_order`, dropped when
    it ascends over every free host: no pick then gathers along it.  Used
    hosts are cleared in `free`.  Returns hosts[i] = image of order.order[i],
    or None when some vertex has no candidate.

    The host fixes how the walk picks.  On a complete host no parent is
    free, so each pick's candidates are the free hosts themselves: the walk
    lists them once in the reading order and pops every pick from the list,
    its index drawn in one `draws.reader` `run` with bounds len(list),
    len(list) - 1, ..., cut at the picks left.  On any other host each pick
    scans its candidates and takes `below(len(candidates))`.  So every pick
    and the RNG state after the walk are those of one `integers` call per pick.
    """
    adj_row, parent_index, sign = d.adj_row, order.parent_index, order.sign
    hosts = [int(h) for h in placed]
    free[hosts] = False
    if host_order is not None and (host_order[1:] > host_order[:-1]).all() and (
            np.count_nonzero(free[host_order]) == np.count_nonzero(free)):
        host_order = None   # ascending over every free host: the reading order of no order
    with reader(rng, (len(order) - len(hosts)) // 2 + 1) as draw:
        if d.full_rows(Sign.PLUS).all():
            free_list = (free.nonzero()[0] if host_order is None else host_order[free[host_order]]).tolist()
            start = len(hosts)
            picks = draw.run(np.arange(len(free_list), 0, -1)[:len(order) - start])
            hosts += [free_list.pop(pick) for pick in picks]
            free[hosts[start:]] = False
            if len(hosts) < len(order):
                return None
        else:
            candidates = np.empty(d.n, dtype=bool)   # row & free, refilled in place per pick
            for i in range(len(hosts), len(order)):
                j = parent_index[i]
                mask = free if j < 0 else np.logical_and(adj_row(hosts[j], sign[i]), free, out=candidates)
                found = mask.nonzero()[0] if host_order is None else host_order[mask[host_order]]
                if len(found) == 0:
                    return None
                host = int(found[draw.below(len(found))])
                hosts.append(host)
                free[host] = False
    return np.array(hosts, dtype=np.int64)


class Embedding:
    """Partial injective map from tree vertices to host vertices.

    `map` sends each placed tree vertex to its host, `used` holds the hosts
    and `phase` names the phase that placed each vertex; all three list the
    vertices in one order.  `assign` adds one vertex.  `of` builds the whole
    map from int arrays and keeps them, so a phase hands its map to the next
    as `arrays()` and `image()`, which read no dict.  Every id is a Python or
    numpy integer: a float or a bool is refused, never truncated.
    """

    __slots__ = ("map", "used", "phase", "_arrays")

    def __init__(self):
        self.map: dict[int, int] = {}
        self.used: set[int] = set()
        self.phase: dict[int, str] = {}
        self._arrays: tuple[np.ndarray, np.ndarray] | None = None

    def assign(self, tree_vertex: int, host_vertex: int, phase: str = "") -> None:
        if not (_is_int(type(tree_vertex)) and _is_int(type(host_vertex))):
            raise ValueError(f"ids must be integers, got {tree_vertex!r} -> {host_vertex!r}")
        host_vertex = int(host_vertex)
        tree_vertex = int(tree_vertex)
        if tree_vertex in self.map:
            raise ValueError(f"tree vertex {tree_vertex} already embedded")
        if host_vertex in self.used:
            raise ValueError(f"host vertex {host_vertex} already used")
        self.map[tree_vertex] = host_vertex
        self.used.add(host_vertex)
        self.phase[tree_vertex] = phase
        self._arrays = None

    @classmethod
    def of(cls, vertices: np.ndarray, hosts: np.ndarray, phase: str | list[str]) -> "Embedding":
        """The map vertices[i] -> hosts[i], built at once; `phase` is one label or one per vertex.

        Both arrays must have an integer dtype.  A repeated tree vertex or
        host raises `assign`'s ValueError at the first repeat.
        """
        for ids in (vertices, hosts):
            if not (isinstance(ids, np.ndarray) and ids.ndim == 1 and _is_int(ids.dtype.type)):
                raise ValueError("vertices and hosts must be one-dimensional integer arrays")
        tv, hv = vertices.tolist(), hosts.tolist()
        labels = [phase] * len(tv) if isinstance(phase, str) else phase
        if not len(tv) == len(hv) == len(labels):
            raise ValueError(f"{len(tv)} vertices, {len(hv)} hosts and {len(labels)} labels")
        emb = cls()
        emb.map, emb.used, emb.phase = dict(zip(tv, hv)), set(hv), dict(zip(tv, labels))
        if len(emb.map) < len(tv) or len(emb.used) < len(hv):
            probe = cls()
            for v, h in zip(tv, hv):
                probe.assign(v, h)   # raises assign's error at the first repeat
        emb._arrays = tuple(_read_only(np.array(a, dtype=np.int64)) for a in (vertices, hosts))
        return emb

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only int64 (vertices, hosts): vertices[i] goes to hosts[i], in the order of `map`."""
        if self._arrays is None:
            self._arrays = tuple(
                _read_only(np.fromiter(ids, dtype=np.int64, count=len(self.map)))
                for ids in (self.map.keys(), self.map.values())
            )
        return self._arrays

    def image(self) -> np.ndarray:
        """[v] = host of v for v < len(self), -1 where v is unplaced: every host
        when the map is on exactly 0..len(self) - 1."""
        vertices, hosts = self.arrays()
        image = np.full(len(vertices), -1, dtype=np.int64)
        inside = (vertices >= 0) & (vertices < len(vertices))
        image[vertices[inside]] = hosts[inside]
        return image

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
        for a, b in doc["map"].items():   # JSON integers, keys as str(int) writes them
            if type(b) is not int or not re.fullmatch("0|-?[1-9][0-9]*", a):
                raise ValueError(f"map entries must be integers: {a!r}: {b!r}")
        emb = cls()
        for tv, hv in sorted((int(a), b) for a, b in doc["map"].items()):
            emb.assign(tv, hv)
        return emb


def image_is_embedding(d: Digraph, tree: OrientedTree, image: np.ndarray) -> bool:
    """The check of every audit, on the int64 array image[v] = host of tree vertex v.

    True iff the image holds tree.n hosts in 0..n-1 (-1 marks an unplaced
    vertex), no host twice (one bincount), and one gather finds every tree
    arc u -> w at the host arc image[u] -> image[w].
    """
    if len(image) != tree.n or not ((image >= 0) & (image < d.n)).all():
        return False
    if np.bincount(image).max() > 1:
        return False
    ends = image[tree.edges]
    return bool(d.mat[ends[:, 0], ends[:, 1]].all())


def is_valid_embedding(d: Digraph, tree: OrientedTree, emb: Embedding) -> bool:
    """Total + injective + every tree edge maps to a host edge of the same direction.

    Every id must be a Python or numpy integer: a float or bool id makes the
    map invalid.  Every tree vertex 0..|T|-1 and every host 0..n-1 is then
    range-checked on one array of the ids (an id past int64 reads as an
    object entry, which compares exactly), so no id can alias another
    through negative indexing.  The image read from `map` goes through
    `image_is_embedding`, the check the pipeline's audits run.
    """
    types = set(map(type, emb.map)) | set(map(type, emb.map.values()))
    if not all(map(_is_int, types)):
        return False
    for ids, bound in ((emb.map, tree.n), (emb.map.values(), d.n)):
        ids = np.array(list(ids))
        if len(ids) != tree.n or not ((ids >= 0) & (ids < bound)).all():
            return False
    image = np.fromiter(map(emb.map.__getitem__, range(tree.n)), dtype=np.int64, count=tree.n)
    return image_is_embedding(d, tree, image)
