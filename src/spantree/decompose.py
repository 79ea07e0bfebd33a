"""Nested-forest decomposition T0 < T1 < T2 < T3 of an oriented tree.

The construction strips batches of independent leaves until fewer than a
threshold remain, removes the final leaf layer to get a low-leaf core, cuts
the core's long bare paths into middle pieces re-attached by two bare
length-2 paths, and re-hangs the stripped material: stripped trees rooted at
surviving core vertices become the star layer (T1), the cut pieces with
their stripped material become the path layer (T2), and stripped trees at
piece anchors become the leftover leaf layer (T3 minus T2).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass

import numpy as np

from .embedding import PipelineError
from .params import ParamSchedule
from .trees import (
    OrientedTree,
    components,
    find_independent_leaves,
    maximal_bare_paths,
)


class DecompositionError(PipelineError):
    """The schedule is too tight for this tree; lists the failed properties."""

    cause = "decompose"
    fixed = True

    def __init__(self, message: str, failed: list[str]):
        super().__init__(message)
        self.failed = failed


@dataclass(frozen=True)
class PathPiece:
    """A subtree attached to the core by exactly two bare paths of length 2.

    x - mid_x - body ... body - mid_y - y, with x, y in T0 and each mid of
    underlying degree 2 inside T2: its anchor and one body vertex.  In the
    whole tree a mid may have more neighbours, leftover leaves hung on it.
    """

    x: int
    y: int
    mid_x: int
    mid_y: int
    body: tuple[int, ...]

    def added_vertices(self) -> list[int]:
        return [self.mid_x, self.mid_y, *self.body]


@dataclass
class TreeDecomposition:
    tree: OrientedTree
    t: int
    t0: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    stars: dict[int, tuple[int, ...]]        # v in T0 -> vertices of S_v - v
    pieces: list[PathPiece]
    leftovers: dict[int, tuple[int, ...]]    # anchor -> stripped vertices at it
    hang_root: list[int]   # v -> the vertex of v's stripped tree next to the core S'; -1 if never stripped
    eta: float
    k: int
    K: int

    def to_json(self) -> str:
        doc = {
            "n": self.tree.n,
            "t": self.t,
            "t0": self.t0.tolist(),
            "t1": self.t1.tolist(),
            "t2": self.t2.tolist(),
            "stars": {str(v): list(s) for v, s in sorted(self.stars.items())},
            "pieces": [asdict(p) for p in self.pieces],
            "leftovers": {str(v): list(s) for v, s in sorted(self.leftovers.items())},
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def _strip(tree: OrientedTree, t: int, batch_min: int) -> tuple[list[bool], list[int], list[int], list[int]]:
    """Iterated independent-leaf stripping plus the final leaf layer.

    Returns the alive mask of the low-leaf core S', each vertex's degree
    inside it (0 outside it), and the stripping forest: up[v] is v's one
    alive neighbour when v is removed, and hang_root[v] the vertex of v's
    stripped tree whose up vertex is in S'; both are -1 on S'.
    """
    alive = [True] * tree.n
    # deg[v]: v's degree among the alive vertices, 0 once v is removed.
    deg = list(map(len, tree._und))
    leaves = {v for v in range(tree.n) if deg[v] == 1}   # the alive vertices of degree 1
    up = [-1] * tree.n
    removed: list[int] = []

    def remove(batch: list[int]) -> None:
        for v in batch:
            alive[v] = False
            deg[v] = 0
            leaves.discard(v)
            for u in tree.nbrs(v):
                if alive[u]:
                    deg[u] -= 1
                    up[v] = u
                    if deg[u] == 1:
                        leaves.add(u)
                    elif deg[u] == 0:
                        leaves.discard(u)
        removed.extend(batch)

    while tree.n - len(removed) > 1:
        batch = find_independent_leaves(tree, deg, leaves)
        if len(batch) < batch_min:
            break
        non_t = [v for v in batch if v != t]
        if not non_t:
            break
        remove(non_t)

    # Final layer: all remaining leaves except t.
    final = sorted(leaves - {t})
    if tree.n - len(removed) - len(final) >= 1:
        remove(final)
    hang_root = [-1] * tree.n
    for v in reversed(removed):   # each up vertex was removed later, or survives
        hang_root[v] = v if alive[up[v]] else hang_root[up[v]]
    return alive, deg, up, hang_root


def decompose(tree: OrientedTree, t: int, params: ParamSchedule) -> TreeDecomposition:
    """Decompose `tree` into the nested layers; validates P1-P4 before returning.

    The chopper's tolerance for stripped volume at anchors and midpoints
    escalates until the validator passes: looser caps cover more of the
    core (helping P1) at the cost of a bigger leftover layer (hurting P4),
    and the P1-P4 check arbitrates.
    """
    n = tree.n
    if not (0 <= t < n):
        raise ValueError("t out of range")
    if params.k < 8:
        raise ValueError("need k >= 8 so pieces retain length-6 bare paths")

    base_cap = max(2.0, params.eta * params.k / 4)
    problems: list[str] = []
    for bump in (0, 1, 2, 4, 8):
        td = _build_layers(tree, t, params, base_cap + bump)
        problems = check_decomposition(td)
        if not problems:
            return td
    raise DecompositionError(
        "decomposition failed: " + "; ".join(problems), failed=problems
    )


def _build_layers(
    tree: OrientedTree, t: int, params: ParamSchedule, vol_cap: float
) -> TreeDecomposition:
    n = tree.n
    alive, deg, up, hang_root = _strip(tree, t, params.strip_count(n))
    # at[v]: the stripped vertices hanging at core vertex v, ascending.
    at: dict[int, list[int]] = {}
    for v, root in enumerate(hang_root):
        if root >= 0:
            at.setdefault(up[root], []).append(v)
    vol = [len(at.get(v, ())) for v in range(n)]

    core = list(itertools.compress(range(n), alive))

    pieces: list[PathPiece] = []
    anchors: set[int] = set()
    removed_interiors: set[int] = set()
    if len(core) >= 5:
        # The core's bare paths, walked in the whole tree with its degrees.
        for path in maximal_bare_paths(tree, deg):
            # prefix[i] weighs path[:i]; a piece's body is path[a + 2 : b - 1].
            prefix = list(itertools.accumulate([1 + vol[v] for v in path], initial=0))
            tpos = path.index(t) if t in path else -1

            a = 0
            L = len(path) - 1
            while a + 4 <= L:
                va = path[a]
                ok_start = (
                    vol[va] <= vol_cap
                    and vol[path[a + 1]] <= vol_cap
                    and path[a + 1] != t
                    and va not in anchors
                )
                if not ok_start:
                    a += 1
                    continue
                best_b = -1
                b = a + 4
                while b <= L:
                    size = prefix[b - 1] - prefix[a + 2]
                    if size > params.K:
                        break
                    if (
                        size >= params.k
                        and vol[path[b]] <= vol_cap
                        and vol[path[b - 1]] <= vol_cap
                        and path[b] not in anchors
                        and not (a + 1 <= tpos <= b - 1)
                    ):
                        best_b = b
                    b += 1
                if best_b < 0:
                    a += 1
                    continue
                b = best_b
                inner = path[a + 2 : b - 1]
                body = inner + [u for v in inner for u in at.get(v, ())]
                pieces.append(
                    PathPiece(
                        x=path[a],
                        y=path[b],
                        mid_x=path[a + 1],
                        mid_y=path[b - 1],
                        body=tuple(sorted(body)),
                    )
                )
                anchors.update((path[a], path[b]))
                removed_interiors.update(path[a + 1 : b])
                a = b + 1

    t0_list = [v for v in core if v not in removed_interiors]
    t0 = np.array(t0_list, dtype=np.int64)
    mids = {p.mid_x for p in pieces} | {p.mid_y for p in pieces}

    # Stripped trees at core vertices (piece anchors included) hang as stars;
    # trees at 2-path midpoints join the leftover layer, since the attachment
    # paths must stay bare inside T2.
    stars = {v: tuple(at[v]) for v in t0_list if v in at}
    leftovers = {v: tuple(at[v]) for v in sorted(mids) if v in at}

    t1 = np.array(
        sorted(set(t0_list) | {u for s in stars.values() for u in s}),
        dtype=np.int64,
    )
    t2_set = set(t1.tolist())
    for piece in pieces:
        t2_set.update(piece.added_vertices())
    t2 = np.array(sorted(t2_set), dtype=np.int64)

    return TreeDecomposition(
        tree=tree,
        t=t,
        t0=t0,
        t1=t1,
        t2=t2,
        stars=stars,
        pieces=pieces,
        leftovers=leftovers,
        hang_root=hang_root,
        eta=params.eta,
        k=params.k,
        K=params.K,
    )


def check_decomposition(td: TreeDecomposition) -> list[str]:
    """Machine-checks of P1-P4; returns a list of violations (empty = pass)."""
    tree = td.tree
    n = tree.n
    problems = []

    t0s, t1s, t2s = set(td.t0.tolist()), set(td.t1.tolist()), set(td.t2.tolist())
    if not (t0s <= t1s <= t2s <= set(range(n))):
        problems.append("nesting T0 < T1 < T2 < T3 broken")

    # P1: small core containing t.
    if len(t0s) > td.eta * n:
        problems.append(f"P1: |T0| = {len(t0s)} > eta*n = {td.eta * n:.1f}")
    if td.t not in t0s:
        problems.append("P1: t not in T0")

    # P2: star layer is a vertex-disjoint union of small trees hanging at T0.
    seen_star: set[int] = set()
    for v, hang in td.stars.items():
        if v not in t0s:
            problems.append(f"P2: star anchored outside T0 at {v}")
        if not _one_small_tree_at(tree, v, hang, t0s, td.K):
            for comp in components(tree, hang):
                if len(comp) > td.K:
                    problems.append(f"P2: star component of size {len(comp)} > K = {td.K}")
                touches = {u for w in comp for u in tree.nbrs(w) if u in t0s}
                if touches != {v}:
                    problems.append(f"P2: star component at {v} touches T0 at {sorted(touches)}")
        if seen_star & set(hang):
            problems.append("P2: star trees overlap")
        seen_star |= set(hang)

    # P3: pieces sized in [k, K], attached by exactly two bare length-2 paths.
    for piece in td.pieces:
        if not (td.k <= len(piece.body) <= td.K):
            problems.append(f"P3: piece body size {len(piece.body)} outside [{td.k}, {td.K}]")
        if piece.x not in t0s or piece.y not in t0s:
            problems.append("P3: piece anchors not in T0")
        for mid, outer in ((piece.mid_x, piece.x), (piece.mid_y, piece.y)):
            nbrs_in_t2 = {u for u in tree.nbrs(mid) if u in t2s}
            if len(nbrs_in_t2) != 2:
                problems.append(
                    f"P3: bare-path middle {mid} has T2-degree {len(nbrs_in_t2)}"
                )
            if outer not in nbrs_in_t2 or not (nbrs_in_t2 - {outer}) <= set(piece.body):
                problems.append(f"P3: middle {mid} not between its anchor and the body")

    anchor_list = [a for p in td.pieces for a in (p.x, p.y)]
    if len(set(anchor_list)) != len(anchor_list):
        problems.append("P3: piece anchors collide")

    # T2 is a tree.  Tree vertices induce a forest, which is connected
    # exactly when it has one edge fewer than vertices.
    t2_edges = sum(1 for u, v in zip(*tree.edges.T.tolist()) if u in t2s and v in t2s)
    if t2_edges != len(t2s) - 1:
        problems.append("P3: T2 is not a tree")

    # P4: few leftover vertices.
    leftovers = {u for s in td.leftovers.values() for u in s}
    if len(leftovers) != n - len(t2s):
        problems.append("P4: leftover bookkeeping inconsistent")
    if n - len(t2s) > td.eta * n:
        problems.append(f"P4: |T3| - |T2| = {n - len(t2s)} > eta*n = {td.eta * n:.1f}")

    # Layers must be exactly complementary and pairwise disjoint.
    star_verts = {u for s in td.stars.values() for u in s}
    if t1s != t0s | star_verts:
        problems.append("T1 is not T0 plus the star layer")
    piece_verts = {u for p in td.pieces for u in p.added_vertices()}
    if t2s != t1s | piece_verts:
        problems.append("T2 is not T1 plus the path layer")
    if sum(len(p.added_vertices()) for p in td.pieces) != len(piece_verts):
        problems.append("P3: pieces overlap")
    if (star_verts & piece_verts) or (leftovers & t2s):
        problems.append("layers overlap")
    return problems


def _one_small_tree_at(tree: OrientedTree, v: int, hang, t0s: set[int], K: int) -> bool:
    """True when hang + v, at most K + 1 distinct vertices with v in T0, is one tree touching T0 at v
    alone, so that each component of hang passes P2: exactly when it spans |hang| tree edges."""
    inside = set(hang)
    if v not in t0s or v in inside or not len(inside) == len(hang) <= K:
        return False
    ends = 0   # an edge inside hang counts once from each end, one to v twice from its end in hang
    for w in hang:
        for u in tree._und[w]:
            if u in t0s:
                if u != v:
                    return False
                ends += 2
            elif u in inside:
                ends += 1
    return ends == 2 * len(hang)
