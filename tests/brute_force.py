"""References the pipeline is checked against: exhaustive containment search,
and the Koenig set of a maximum matching by alternating reachability."""

from __future__ import annotations

import numpy as np

from spantree.digraph import Digraph
from spantree.embedding import Embedding, VerificationError, is_valid_embedding
from spantree.trees import OrientedTree

BRUTE_CAP = 12


def brute_force_contains(
    d: Digraph, tree: OrientedTree, spanning: bool = False
) -> Embedding | None:
    """Exhaustive backtracking search for a copy of `tree` in `d`.

    Capped at 12 vertices on both sides.  Tree vertices are tried most
    constrained first (largest degree), each subsequent vertex attaching to
    an already-placed neighbor, so candidates come from one neighborhood.
    """
    if tree.n > BRUTE_CAP or d.n > BRUTE_CAP:
        raise ValueError(f"brute force capped at {BRUTE_CAP} vertices")
    if spanning and tree.n != d.n:
        return None

    root = max(range(tree.n), key=lambda v: tree.degree(v))
    order: list[int] = [root]
    seen = {root}
    while len(order) < tree.n:
        # Most-constrained next: among fringe vertices, largest degree.
        fringe = [
            u for v in order for u in tree.nbrs(v) if u not in seen
        ]
        nxt = max(fringe, key=lambda u: tree.degree(u))
        order.append(nxt)
        seen.add(nxt)
    parents = []
    for i, v in enumerate(order):
        if i == 0:
            parents.append((None, None))
            continue
        ear = [u for u in tree.nbrs(v) if u in set(order[:i])]
        p = ear[0]
        parents.append((p, tree.edge_sign(p, v)))

    assign: dict[int, int] = {}
    used = [False] * d.n

    def backtrack(i: int) -> bool:
        if i == tree.n:
            return True
        v = order[i]
        if i == 0:
            candidates = range(d.n)
        else:
            p, sign = parents[i]
            candidates = np.flatnonzero(d.adj_row(assign[p], sign))
        for h in candidates:
            h = int(h)
            if used[h]:
                continue
            ok = all(
                d.has_edge(h, assign[u]) if u in tree.out(v) else d.has_edge(assign[u], h)
                for u in tree.nbrs(v) if u in assign
            )
            if not ok:
                continue
            assign[v] = h
            used[h] = True
            if backtrack(i + 1):
                return True
            del assign[v]
            used[h] = False
        return False

    if not backtrack(0):
        return None
    emb = Embedding()
    for v, h in assign.items():
        emb.assign(v, h, "oracle")
    if not is_valid_embedding(d, tree, emb):
        raise VerificationError("brute-force embedding failed verification")
    return emb


def alternating_reach_rows(adj: np.ndarray, col_of_row: np.ndarray) -> np.ndarray:
    """Rows reachable by alternating paths from the unmatched rows (the Koenig set).

    `col_of_row` is a maximum matching of the bool matrix `adj` (-1 for an
    unmatched row); when it misses some row, this set S has |N(S)| < |S|.
    The frontier grows one alternating step at a time over whole rows.
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
