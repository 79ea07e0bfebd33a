"""Covering matchings with Hall certificates, and matching-based embedding.

A bipartite graph is a bool matrix: rows are the side to cover (guide-graph
rows, leaves, or one block of hosts), columns the candidates, and the caller
reads the sign of each row edge off the host before building it.  Matchings
come from a pure-Python Hopcroft-Karp on bitmask rows, and a missing covering
matching comes back as the Koenig violator its last BFS reached, a set of
rows whose neighbourhood is smaller than itself.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .digraph import ROW_BLOCK, Digraph, Sign
from .embedding import Embedding, PipelineError, greedy_walk
from .trees import OrientedTree, PrefixOrdering, canonical_forms, prefix_order, subtree_sizes


class MatchingError(PipelineError):
    """A required matching does not exist; carries the Hall violator."""

    cause = "hall-fail"

    def __init__(self, message: str, violator: np.ndarray | None = None):
        super().__init__(message)
        self.violator = violator


def _raw_matching(adj: np.ndarray, reached: np.ndarray | None = None) -> np.ndarray:
    """Row -> matched column (or -1): scipy's Hopcroft-Karp, step for step.

    Row v is the int with bit w set for adj[v, w].  Each phase layers the
    rows by BFS from the free rows, in row order, up to the first layer that
    sees a free column, then runs a stack DFS from each free row in row
    order: a popped row leaves its layer, and in the last layer takes its
    smallest free column and augments along its parents, ending that search,
    or else pushes its next-layer rows in ascending column order.  The first
    phase, where every row is free and in the last layer, is a greedy pass
    run without the stack.  This is scipy's `maximum_bipartite_matching(
    perm_type="column")`.  When a BFS sees no free column, the rows it reached
    (set in `reached`) are the Koenig violator S: every column of N(S) is
    matched to a row of S, and S holds a free row, so |N(S)| < |S|.
    """
    nl, nr = adj.shape
    rows = [int.from_bytes(r, "little") for r in np.packbits(adj, axis=1, bitorder="little")]
    col_of_row, row_of_col, free = [-1] * nl, [-1] * nr, (1 << nr) - 1
    for v, row in enumerate(rows):
        hit = row & free
        if hit:
            w = (hit & -hit).bit_length() - 1
            col_of_row[v], row_of_col[w], free = w, v, free ^ (1 << w)
    while -1 in col_of_row:
        # layers[d]: the rows at BFS distance d; cols[d]: the columns matched
        # to the rows of layer d that no DFS has popped yet.
        layers, cols = [[v for v in range(nl) if col_of_row[v] < 0]], [0]
        unseen = ((1 << nr) - 1) ^ free   # matched columns no BFS layer holds yet
        while layers[-1] and not any(rows[v] & free for v in layers[-1]):
            layers.append([])
            cols.append(unseen)
            for v in layers[-2]:
                layers[-1] += [row_of_col[w] for w in _bits(rows[v] & unseen)]
                unseen &= ~rows[v]
            cols[-1] ^= unseen
        if not layers[-1]:
            if reached is not None:
                reached[[v for layer in layers for v in layer]] = True
            break
        parent = [-1] * nl
        for root in layers[0]:
            stack = [(root, 0)]
            while stack:
                v, d = stack.pop()
                if d:   # v leaves its layer (free rows sit in layer 0, matched to no column)
                    cols[d] ^= 1 << col_of_row[v]
                if d < len(layers) - 1:
                    for w in _bits(rows[v] & cols[d + 1]):
                        parent[row_of_col[w]] = v
                        stack.append((row_of_col[w], d + 1))
                elif rows[v] & free:
                    w = next(_bits(rows[v] & free))
                    free ^= 1 << w
                    while w >= 0:
                        row_of_col[w] = v
                        col_of_row[v], w = w, col_of_row[v]
                        v = parent[v]
                    break
    return np.array(col_of_row, dtype=np.int64)


def _bits(mask: int):
    """The set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def covering_matching(adj: np.ndarray, what: str = "pattern") -> np.ndarray:
    """The matched column of every row of the bool matrix `adj`.

    Raises MatchingError, with the Koenig violator as row indices, when no
    matching covers every row.
    """
    reached = np.zeros(len(adj), dtype=bool)
    col_of_row = _raw_matching(adj, reached)
    if (col_of_row < 0).any():
        rows = np.flatnonzero(reached)
        raise MatchingError(
            f"{what}: no matching covering the left class "
            f"(violator size {len(rows)}, neighborhood {int(adj[rows].any(axis=0).sum())})",
            violator=rows,
        )
    return col_of_row


def embed_tree_copies(
    d: Digraph, tree: OrientedTree, root: int, v1: np.ndarray, v2: np.ndarray
) -> list[Embedding]:
    """|V1| vertex-disjoint copies of `tree`, each mapping `root` into V1.

    V1 and V2 must hold distinct hosts.  V2 is split into |tree|-1 equal
    blocks following a prefix order of the tree; consecutive blocks are
    joined by perfect sign-matchings, whose union decomposes into the copies.
    """
    v1 = np.asarray(v1, dtype=np.int64)
    v2 = np.asarray(v2, dtype=np.int64)
    per = len(v1)
    if len(v2) != (tree.n - 1) * per:
        raise ValueError(
            f"need |V2| = (|R|-1)|V1|: got {len(v2)} != {(tree.n - 1) * per}"
        )
    if len(np.unique(np.concatenate([v1, v2]))) != per + len(v2):
        raise ValueError("V1 and V2 together must hold distinct hosts")

    order = prefix_order(tree, root)
    blocks = [v1] + [v2[i * per : (i + 1) * per] for i in range(tree.n - 1)]
    # host_of[i][b] = image of tree vertex order[i] in the copy rooted at v1[b]
    host_of = {0: blocks[0]}
    for i in range(1, tree.n):
        j = order.parent_index[i]
        sign = order.sign[i]
        # Ascending hosts: searchsorted reads `parents`, and the copies depend on the order.
        parents, children = np.sort(blocks[j]), np.sort(blocks[i])
        if sign is Sign.PLUS:
            adj = d.mat[np.ix_(parents, children)]
        else:
            adj = d.mat[np.ix_(children, parents)].T
        try:
            col_of_row = covering_matching(adj, what=f"tree-copy edge class {i}")
        except MatchingError as exc:
            raise MatchingError(
                f"chained matching failed at edge class {i} "
                f"(tree vertex {order.order[i]}, sign {sign}): {exc}",
                violator=parents[exc.violator],
            ) from exc
        host_of[i] = children[col_of_row[np.searchsorted(parents, host_of[j])]]

    vertices = np.array(order.order, dtype=np.int64)
    by_copy = np.stack([host_of[i] for i in range(tree.n)], axis=1)
    return [Embedding.of(vertices, hosts, "copies") for hosts in by_copy]


def _centroids(tree: OrientedTree) -> list[int]:
    """The one or two vertices minimizing the largest component of T - v."""
    _order, parent, size = subtree_sizes(tree, 0)
    worst = [tree.n - s for s in size]   # the vertices above v, then v's largest child subtree
    for p, s in zip(parent, size):
        if p >= 0 and s > worst[p]:
            worst[p] = s
    best = min(worst)
    return [v for v, w in enumerate(worst) if w == best]


class ForestEmbedError(PipelineError):
    """A small-piece walk failed: 'hall-fail', or 'leaf-greedy-fail' when a walk is stuck."""

    cause = "hall-fail"


def _arc_rows(d: Digraph, heads: np.ndarray, into: np.ndarray) -> np.ndarray:
    """Bool rows over all n hosts: row r is N^-(heads[r]) where into[r], else N^+(heads[r])."""
    rows = d.mat[heads]
    rows[into] = np.unpackbits(d.in_packed[heads[into]], axis=1, count=d.n).view(np.bool_)
    return rows


def walk_lean_pieces(
    d: Digraph, pieces: list[tuple[PrefixOrdering, tuple[int, Sign] | None]], free: np.ndarray,
    rng: np.random.Generator, what: str, host_order: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Embed small trees into `free` by one greedy walk and one leaf matching.

    pieces[k] = (order, attach): piece k's prefix order, its root drawn from
    N^sign(host) for attach = (host, sign), or from all of `free` for None.
    One `greedy_walk` from the attach hosts places each piece in turn up to
    its last parent (the interior of a leaves-last order), reading candidates
    along `host_order`; the leaves after it are batch-matched into the hosts
    still free, their rows gathered in blocks.  Used and attach hosts are
    cleared in `free`.  Returns per piece [i] = host of order.order[i].

    Raises ForestEmbedError (cause "leaf-greedy-fail") naming the piece a
    stuck walk was placing, and MatchingError (labelled `what`) when the
    leaves cannot be matched.
    """
    placed = list(dict.fromkeys(attach[0] for _order, attach in pieces if attach is not None))
    slot = {host: j for j, host in enumerate(placed)}
    parents, signs, leaves, cuts = [-1] * len(placed), [None] * len(placed), [], []
    for order, attach in pieces:
        stop, base = max(max(order.parent_index) + 1, 1), len(parents)
        cuts.append((base, stop, len(leaves), len(leaves) + len(order) - stop))   # walk entries, leaves
        up = [base + j for j in order.parent_index]
        parents += [-1 if attach is None else slot[attach[0]], *up[1:stop]]
        signs += [None if attach is None else attach[1], *order.sign[1:stop]]
        leaves += [(j, s is Sign.MINUS) for j, s in zip(up[stop:], order.sign[stop:])]
    free[placed] = False
    left = np.count_nonzero(free)
    walk = PrefixOrdering(tuple(range(len(parents))), tuple(parents), tuple(signs))
    hosts = greedy_walk(d, walk, free, rng, placed, host_order=host_order)
    if hosts is None:
        k = bisect_right([cut[0] for cut in cuts], len(placed) + left - np.count_nonzero(free))
        raise ForestEmbedError(f"{what}: greedy walk stuck on piece {k - 1}", cause="leaf-greedy-fail")
    heads, into = hosts[[j for j, _into in leaves]], np.array([into for _j, into in leaves], dtype=bool)
    cols = np.flatnonzero(free)
    adj = np.empty((len(leaves), len(cols)), dtype=bool)
    for a in range(0, len(leaves), ROW_BLOCK):
        rows = _arc_rows(d, heads[a : a + ROW_BLOCK], into[a : a + ROW_BLOCK])
        adj[a : a + ROW_BLOCK] = rows.take(cols, axis=1)
    matched = cols[covering_matching(adj, what)]
    free[matched] = False
    return [np.concatenate((hosts[base : base + stop], matched[a:b])) for base, stop, a, b in cuts]


def embed_small_forest(
    d: Digraph, components: list[OrientedTree], eps: float, rng: np.random.Generator,
    pool: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Vertex-disjoint embedding of a forest of small components into `pool`.

    The forest must leave an eps fraction of the pool free.  Each component
    is rooted at the centroid with the smaller canonical string, a choice
    invariant under isomorphism, and `walk_lean_pieces` walks the components
    in a stable sort by that string (the order fixes the RNG stream), with
    all their leaves finished by one covering matching.

    Returns one int64 image per component ([v] = host of its vertex v).
    Raises ForestEmbedError (cause "hall-fail" or "leaf-greedy-fail";
    retryable) when the walk or the matching fails.
    """
    pool = np.arange(d.n, dtype=np.int64) if pool is None else np.asarray(pool, dtype=np.int64)
    total = sum(c.n for c in components)
    if total > (1 - eps) * len(pool):
        raise ValueError(f"forest too large: {total} vertices into a pool of {len(pool)} at eps={eps}")
    keyed = []
    for comp in components:
        roots = _centroids(comp)
        keyed.append(min(zip(canonical_forms(comp, roots), roots)))
    walk = sorted(range(len(components)), key=lambda i: keyed[i][0])
    orders = [prefix_order(components[i], keyed[i][1], "leaves_last_middles_consecutive") for i in walk]
    free = np.zeros(d.n, dtype=bool)
    free[pool] = True
    try:
        hosts = walk_lean_pieces(d, [(order, None) for order in orders], free, rng, "forest leaf batch")
    except MatchingError as exc:
        raise ForestEmbedError(f"leaf batch unmatched: {exc}", cause="hall-fail") from exc
    by_component = {i: got[np.argsort(order.order)] for i, order, got in zip(walk, orders, hosts)}
    return [by_component[i] for i in range(len(components))]
