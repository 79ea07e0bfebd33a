"""Almost-spanning embedding: decomposition layers meet their host parts.

The host splits into three random parts: the star layer T1 embeds into the
first through guide-steered draws and leaf matchings, the path pieces run
through the second with their connectors drawn from a buffer, and the
leftover leaves go greedily into the third.  Failures resample (Las Vegas);
the returned map is always verified.
"""

import numpy as np

from spantree import gen_random_tree, gen_semidegree_digraph, verify_embedding
from spantree.embedder import embed_almost_spanning
from spantree.params import spanning_defaults

rng = np.random.default_rng(11)
n, alpha, eps = 500, 0.2, 0.2
host = gen_semidegree_digraph(n, alpha, rng)
tree = gen_random_tree(int((1 - eps) * n), 3, "caterpillar", rng)
params = spanning_defaults(n, alpha)

anchor_vertex, anchor_target = 0, 123
emb, telemetry = embed_almost_spanning(host, tree, anchor_vertex, anchor_target, params, rng)

print(f"embedded {len(emb)} tree vertices into a host of {n}")
print(f"anchor check: tree vertex {anchor_vertex} -> host {emb[anchor_vertex]}")
print(f"verified: {verify_embedding(host, tree, emb)}")
print(f"attempts that failed before success: {len(telemetry['failures'])}")

by_phase = {}
for tv, phase in emb.phase.items():
    by_phase[phase] = by_phase.get(phase, 0) + 1
print("vertices placed per phase:")
for phase, count in sorted(by_phase.items()):
    print(f"  {phase:12s} {count}")
