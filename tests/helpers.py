"""Checks and views of library objects that only the tests read."""

from __future__ import annotations

import numpy as np

from spantree.digraph import Digraph
from spantree.guides import XYLabeling
from spantree.trees import OrientedTree


def complete(n: int) -> Digraph:
    """The complete digraph on n vertices: every arc u -> w with u != w."""
    mat = np.ones((n, n), dtype=bool)
    np.fill_diagonal(mat, False)
    return Digraph(n, mat)


def labeling_verifies(d: Digraph, lab: XYLabeling) -> bool:
    """Recount every |N^-(x_i) cap N^sign(v) cap N^+(y_i)| against the labeling's threshold."""
    base = d.adj_row(lab.v, lab.sign)
    return all(
        int((d.mat[:, x] & base & d.mat[y]).sum()) >= lab.threshold
        for x, y in zip(lab.xs, lab.ys)
    )


def matching_dump(col_of_row) -> str:
    """One "row column" line per matched row, in row order."""
    return "".join(f"{r} {c}\n" for r, c in enumerate(col_of_row.tolist()))


def tree_leaves(tree: OrientedTree) -> list[int]:
    return [v for v in range(tree.n) if tree.degree(v) == 1]


def plain_state(state):
    """A bit generator's state with its arrays as lists, so two states compare with ==."""
    if isinstance(state, dict):
        return {key: plain_state(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state
