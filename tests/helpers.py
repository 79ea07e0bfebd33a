"""Checks and views of library objects that only the tests read."""

from __future__ import annotations

from spantree.digraph import Digraph
from spantree.guides import XYLabeling
from spantree.matching import Matching
from spantree.trees import OrientedTree


def labeling_verifies(d: Digraph, lab: XYLabeling) -> bool:
    """Recount every |N^-(x_i) cap N^sign(v) cap N^+(y_i)| against the labeling's threshold."""
    base = d.adj_row(lab.v, lab.sign)
    return all(
        int((d.mat[:, x] & base & d.mat[y]).sum()) >= lab.threshold
        for x, y in zip(lab.xs, lab.ys)
    )


def matching_dump(matching: Matching) -> str:
    """One "left right" line per pair, sorted."""
    return "\n".join(f"{a} {b}" for a, b in sorted(matching.pairs)) + "\n"


def tree_leaves(tree: OrientedTree) -> list[int]:
    return [v for v in range(tree.n) if tree.degree(v) == 1]
