"""Generate host digraphs and guest trees, and look at their degree profiles.

Hosts come out of a repaired random model so the minimum-semidegree bound
is a hard guarantee, not a likely event.  Trees come in several families,
all respecting a per-sign degree cap.
"""

import numpy as np

from spantree import (
    gen_random_tree,
    gen_semidegree_digraph,
    max_semidegree,
    min_semidegree,
)
from spantree.io import dumps_digraph, dumps_tree

rng = np.random.default_rng(2024)

n, alpha = 200, 0.2
host = gen_semidegree_digraph(n, alpha, rng)
print(f"host: n={n}, edges={host.num_edges()}")
print(f"  required min semidegree: {int(np.ceil((0.5 + alpha) * n))}")
print(f"  actual   min semidegree: {min_semidegree(host)}")

for family in ("uniform", "path", "caterpillar", "spider", "broom"):
    tree = gen_random_tree(60, 3, family, rng)
    dplus, dminus = max_semidegree(tree)
    leaves = sum(tree.degree(v) == 1 for v in range(tree.n))
    print(f"tree[{family:11s}]  leaves={leaves:3d}  max out/in degree = {dplus}/{dminus}")

# The text formats round-trip bit-exactly (edges written sorted).
small = gen_semidegree_digraph(6, 0.2, rng)
print("\ndigraph file format:")
print(dumps_digraph(small)[:80] + "...")
print("tree file format:")
print(dumps_tree(gen_random_tree(5, 2, "path", rng)))
