"""Covering matchings with Hall certificates, and matching-based embedding.

A bipartite graph is a bool matrix: rows are the side to cover (guide-graph
rows, leaves, or one block of hosts), columns the candidates, and the caller
reads the sign of each row edge off the host before building it.  A missing
covering matching comes back as the Koenig violator, a set of rows whose
neighbourhood is smaller than itself.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .digraph import Digraph, Sign
from .embedding import Embedding, PipelineError, draw_host, greedy_walk
from .trees import OrientedTree, canonical_forms, prefix_order, subtree_sizes


class MatchingError(PipelineError):
    """A required matching does not exist; carries the Hall violator."""

    cause = "hall-fail"

    def __init__(self, message: str, violator: np.ndarray | None = None):
        super().__init__(message)
        self.violator = violator


def _raw_matching(adj: np.ndarray) -> np.ndarray:
    """Row -> matched column (or -1), via augmenting paths in compiled code.

    The CSR form is built directly, the same arrays `csr_matrix(adj)` holds:
    `indptr` from the row sums, and the column ids of the set entries read
    in row order off a broadcast column-id view, so the only temporaries are
    the CSR arrays themselves (csr_matrix(adj) goes through int64
    coordinates of every entry).
    """
    nl, nr = adj.shape
    if nl == 0 or nr == 0:
        return np.full(nl, -1, dtype=np.int64)
    index_dtype = np.int32 if adj.size < 2**31 else np.int64
    indptr = np.zeros(nl + 1, dtype=index_dtype)
    np.cumsum(adj.sum(axis=1), out=indptr[1:])
    indices = np.broadcast_to(np.arange(nr, dtype=index_dtype), adj.shape)[adj]
    graph = csr_matrix((np.ones(len(indices), dtype=bool), indices, indptr), shape=adj.shape)
    # scipy returns, for each row, the matched column (or -1).
    return maximum_bipartite_matching(graph, perm_type="column").astype(np.int64)


def _violator_rows(adj: np.ndarray, col_of_row: np.ndarray) -> np.ndarray:
    """Rows reachable by alternating paths from unmatched rows (Koenig set).

    When the matching misses some row, this set S satisfies |N(S)| < |S|.
    """
    nl, nr = adj.shape
    reach_rows = col_of_row < 0
    row_of_col = np.full(nr, -1, dtype=np.int64)
    row_of_col[col_of_row[~reach_rows]] = np.flatnonzero(~reach_rows)
    frontier = np.flatnonzero(reach_rows)
    seen_cols = np.zeros(nr, dtype=bool)
    while len(frontier) > 0:
        cols = adj[frontier].any(axis=0) & ~seen_cols
        seen_cols |= cols
        nxt = row_of_col[np.flatnonzero(cols)]
        nxt = nxt[nxt >= 0]
        nxt = nxt[~reach_rows[nxt]]
        reach_rows[nxt] = True
        frontier = nxt
    return np.flatnonzero(reach_rows)


def covering_matching(adj: np.ndarray, what: str = "pattern") -> np.ndarray:
    """The matched column of every row of the bool matrix `adj`.

    Raises MatchingError, with the Koenig violator as row indices, when no
    matching covers every row.
    """
    col_of_row = _raw_matching(adj)
    if (col_of_row < 0).any():
        rows = _violator_rows(adj, col_of_row)
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

    copies = []
    for b in range(per):
        emb = Embedding()
        for i in range(tree.n):
            emb.assign(order.order[i], int(host_of[i][b]), "copies")
        copies.append(emb)
    return copies


def _centroids(tree: OrientedTree) -> list[int]:
    """The one or two vertices minimizing the largest component of T - v."""
    best = tree.n + 1
    out: list[int] = []
    parent, sub = subtree_sizes(tree, 0)
    for v in range(tree.n):
        worst = tree.n - sub[v]
        for u in tree.nbrs(v):
            if parent[u] == v:
                worst = max(worst, sub[u])
        if worst < best:
            best, out = worst, [v]
        elif worst == best:
            out.append(v)
    return out


class ForestEmbedError(PipelineError):
    """A small-piece walk failed: 'hall-fail', or 'leaf-greedy-fail' when a walk is stuck."""

    cause = "hall-fail"


def walk_lean_pieces(
    d: Digraph,
    pieces: list[tuple[OrientedTree, int, tuple[int, Sign] | None]],
    free: np.ndarray,
    rng: np.random.Generator,
    what: str,
    host_order: np.ndarray | None = None,
) -> list[dict[int, int]]:
    """Embed small trees into `free` by greedy interior walks and one leaf matching.

    pieces[k] = (tree, root, attach).  The root goes to a uniform free host
    in N^sign(host) for attach = (host, sign), or anywhere free when attach
    is None; `greedy_walk` then places the interior up to the first
    non-root leaf, every pick reading candidates along `host_order`.  All
    the leaves are batch-matched into the hosts still free.  Used hosts are
    cleared in `free`.  Returns one map (tree vertex -> host) per piece.

    Raises ForestEmbedError (cause "leaf-greedy-fail") when a walk is stuck,
    and MatchingError (labelled `what`) when the leaves cannot be matched.
    """
    maps: list[dict[int, int]] = []
    leaf_slots: list[tuple[int, int]] = []      # (piece, leaf)
    leaf_rows: list[tuple[int, Sign]] = []      # (parent host, sign)
    for k, (tree, root, attach) in enumerate(pieces):
        order = prefix_order(tree, root, "leaves_last_middles_consecutive")
        # Non-root leaves form a suffix of this order: the walk stops there.
        stop = next((i for i in range(1, tree.n) if tree.degree(order.order[i]) == 1), tree.n)
        root_mask = free if attach is None else d.adj_row(*attach) & free
        root_host = draw_host(root_mask, rng, host_order)
        hosts = None if root_host is None else greedy_walk(
            d, order, free, rng, [root_host], stop=stop, host_order=host_order
        )
        if hosts is None:
            raise ForestEmbedError(
                f"{what}: greedy walk stuck on piece {k}", cause="leaf-greedy-fail"
            )
        mapping = {order.order[i]: int(hosts[i]) for i in range(stop)}
        for i in range(stop, tree.n):
            leaf_slots.append((k, order.order[i]))
            leaf_rows.append((mapping[order.order[order.parent_index[i]]], order.sign[i]))
        maps.append(mapping)
    if leaf_rows:
        cols = np.flatnonzero(free)
        adj = np.zeros((len(leaf_rows), len(cols)), dtype=bool)
        for r, (parent_host, sign) in enumerate(leaf_rows):
            adj[r] = d.adj_row(parent_host, sign)[cols]
        hosts = cols[covering_matching(adj, what)]
        for (k, leaf), host in zip(leaf_slots, hosts.tolist()):
            maps[k][leaf] = host
        free[hosts] = False
    return maps


def embed_small_forest(
    d: Digraph,
    components: list[OrientedTree],
    eps: float,
    rng: np.random.Generator,
    pool: np.ndarray | None = None,
) -> list[dict[int, int]]:
    """Vertex-disjoint embedding of a forest of small components into `pool`.

    The forest must leave an eps fraction of the pool free.  Each component
    is rooted at the centroid with the smaller canonical string, a choice
    invariant under isomorphism, and `walk_lean_pieces` walks the components
    in a stable sort by that string (the order fixes the RNG stream), with
    all their leaves finished by one covering matching.

    Returns one vertex map per component.  Raises ForestEmbedError (cause
    "hall-fail" or "leaf-greedy-fail"; retryable) when the walk or the
    matching fails.
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
    free = np.zeros(d.n, dtype=bool)
    free[pool] = True
    try:
        maps = walk_lean_pieces(
            d, [(components[i], keyed[i][1], None) for i in walk], free, rng, "forest leaf batch",
        )
    except MatchingError as exc:
        raise ForestEmbedError(f"leaf batch unmatched: {exc}", cause="hall-fail") from exc
    by_component = dict(zip(walk, maps))
    return [by_component[i] for i in range(len(components))]
