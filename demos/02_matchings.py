"""Directed bipartite matchings: Hall certificates and skew-bounds.

A bipartite graph is a bool matrix whose rows (a class A) are to be covered
by distinct columns (a class B); the sign of a row edge is read off the host
when the matrix is built.  When a covering matching is missing, the
MatchingError carries a Hall violator: row indices of a subset of A with a
smaller neighborhood.  Skew-bounded matrices (every row degree at least a,
every column degree at most b, a >= b) always carry a covering matching.
"""

import numpy as np

from spantree import gen_semidegree_digraph, sample_disjoint_subsets
from spantree.matching import MatchingError, covering_matching

rng = np.random.default_rng(7)
host = gen_semidegree_digraph(300, 0.2, rng)

# Perfect matchings between random disjoint sets exist reliably.  Rows are
# the hosts of A, columns those of B, both ascending; row i, column j is the
# arc a[i] -> b[j].
a, b = sample_disjoint_subsets(host, [40, 40], rng)
a, b = np.sort(a), np.sort(b)
col_of_row = covering_matching(host.mat[np.ix_(a, b)], what="perfect matching")
print(f"perfect +matching between random 40-sets: {len(col_of_row)} edges")
print("first rows of the dump:")
print("\n".join(f"{a[i]} {b[j]}" for i, j in enumerate(col_of_row[:4])))

# A matrix built to fail Hall, and its certificate mapped back to labels.
labels = np.array([10, 11, 12])
adj = np.zeros((3, 2), dtype=bool)
adj[:, 0] = True  # three rows, one shared neighbor
try:
    covering_matching(adj)
except MatchingError as exc:
    print(f"\nhall violator of the 3-into-1 pattern: {labels[exc.violator]} (neighborhood is smaller)")

# Skew-bounded matrices force coverage: 6 rows of degree 3 over 9 columns,
# each column hit exactly twice.
adj = np.zeros((6, 9), dtype=bool)
for i in range(6):
    adj[i, [(3 * i) % 9, (3 * i + 1) % 9, (3 * i + 2) % 9]] = True
print(f"\nrow degrees >= {int(adj.sum(axis=1).min())}, column degrees <= {int(adj.sum(axis=0).max())}: "
      "the pattern is (3, 2, +)-skew-bounded")
print(f"covering matching size: {len(covering_matching(adj))} (covers all of A)")

# Adversarial small case: B inside the non-neighbors of one A-vertex.
non_nbrs = np.setdiff1d(np.arange(300), np.flatnonzero(host.mat[0]))[:10]
non_nbrs = non_nbrs[non_nbrs != 0]
try:
    covering_matching(host.mat[np.ix_([0], non_nbrs[:1])], what="perfect matching")
except MatchingError as exc:
    print(f"\nadversarial case correctly rejected: {exc}")
