"""Directed bipartite matchings: Hall certificates and skew-bounds.

A pattern pairs a left class A with a right class B under a sign; when a
covering matching is missing, the MatchingError carries a Hall violator
(a subset of A with a smaller neighborhood).  Skew-bounded patterns
(every A-degree at least a, every B-back-degree at most b, a >= b) always
carry a covering matching.
"""

import numpy as np

from spantree import (
    BipartitePattern,
    Sign,
    gen_semidegree_digraph,
    sample_disjoint_subsets,
)
from spantree.matching import MatchingError, covering_matching

rng = np.random.default_rng(7)
host = gen_semidegree_digraph(300, 0.2, rng)

# Perfect matchings between random disjoint sets exist reliably.
a, b = sample_disjoint_subsets(host, [40, 40], rng)
m = covering_matching(BipartitePattern.from_host(host, a, b, Sign.PLUS), what="perfect matching")
print(f"perfect +matching between random 40-sets: {len(m)} edges")
print("first rows of the dump:")
print("\n".join(f"{a} {b}" for a, b in sorted(m.pairs)[:4]))

# A pattern built to fail Hall, and its certificate.
adj = np.zeros((3, 2), dtype=bool)
adj[:, 0] = True  # three rows, one shared neighbor
bad = BipartitePattern.explicit([10, 11, 12], [20, 21], Sign.PLUS, adj)
try:
    covering_matching(bad)
except MatchingError as exc:
    print(f"\nhall violator of the 3-into-1 pattern: {exc.violator} (neighborhood is smaller)")

# Skew-bounded patterns force coverage: 6 rows of degree 3 over 9 columns,
# each column hit exactly twice.
adj = np.zeros((6, 9), dtype=bool)
for i in range(6):
    adj[i, [(3 * i) % 9, (3 * i + 1) % 9, (3 * i + 2) % 9]] = True
pat = BipartitePattern.explicit(np.arange(6), np.arange(9), Sign.PLUS, adj)
print(f"\nrow degrees >= {int(adj.sum(axis=1).min())}, column degrees <= {int(adj.sum(axis=0).max())}: "
      "the pattern is (3, 2, +)-skew-bounded")
covering = covering_matching(pat)
print(f"covering matching size: {len(covering)} (covers all of A)")

# Adversarial small case: B inside the non-neighbors of one A-vertex.
non_nbrs = np.setdiff1d(np.arange(300), np.flatnonzero(host.mat[0]))[:10]
non_nbrs = non_nbrs[non_nbrs != 0]
try:
    covering_matching(
        BipartitePattern.from_host(host, np.array([0]), non_nbrs[:1], Sign.PLUS),
        what="perfect matching",
    )
except MatchingError as exc:
    print(f"\nadversarial case correctly rejected: {exc}")
