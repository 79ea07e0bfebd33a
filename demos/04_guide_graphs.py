"""Guide sets and guide graphs: the steering behind the random core embedding.

For an anchor vertex v and sign, a guide entry holds a set A inside
N^sign(v) plus two balanced bipartite graphs H+, H- from A into the host.
Rows carry exactly the same number of edges and back-degrees stay low, so
after restriction to random target sets every row keeps degree while no
target vertex is overloaded: the skew-bound that later forces the leaf
matchings to cover.
"""

import math

import numpy as np

from spantree import GuideSystem, Sign, gen_semidegree_digraph
from spantree.digraph import sample_disjoint_subsets
from spantree.guides import build_guide, build_xy_labeling

rng = np.random.default_rng(5)
n, alpha = 500, 0.2
host = gen_semidegree_digraph(n, alpha, rng)

# The pairing certificate: every (x_i, y_i) has a large triple intersection.
lab = build_xy_labeling(host, 7, Sign.PLUS, alpha)
print(f"xy-labeling threshold (alpha^2 n): {lab.threshold}")
base = host.adj_row(7, Sign.PLUS)
triples = (host.mat[:, lab.xs].T & base & host.mat[lab.ys]).sum(axis=1)
print(f"labeling verifies: {bool(triples.min() >= lab.threshold)}")

# One guide entry with exact bookkeeping.
eps, eta, mu = 0.04, 0.5, 0.05
entry = build_guide(host, 7, Sign.PLUS, eps, eta, mu, alpha=alpha)
size, per_row = math.ceil(mu * n), math.ceil(eps * n)
print(f"\nguide set size {len(entry.guide)} (= ceil(mu n) = {size})")
print(f"edges per row {entry.edges_per_row} (= ceil(eps n) = {per_row})")
print(f"e(H+) = {int(entry.hplus.sum())} = size * per_row = {size * per_row}")
bound = math.ceil((1 + eta) * mu * eps * n)
for name, h in (("H+", entry.hplus), ("H-", entry.hminus)):
    print(f"{name}: row degrees >= {int(h.sum(axis=1).min())} (need {per_row}), "
          f"column degrees <= {int(h.sum(axis=0).max())} (bound {bound})")

# Restriction to random sets: one system per restriction builds inside V0
# and audits (Q2-Q3) the rows a leaf matching reads, over its part.
v0, part = sample_disjoint_subsets(host, [150, 250], rng)
system = GuideSystem(host, v0, [part], mu_count=20, eps=0.1, eta=1.0, alpha=alpha)
restricted = system.get(7, Sign.PLUS)
print(f"\nrestricted guide set size: {len(restricted.guide)} (all inside V0)")
# The system keeps entries bit-packed; `rows` unpacks the H rows it reads,
# here every row of the entry, and audits them.
sub = system.rows([(restricted, w) for w in restricted.guide], Sign.PLUS, part)
print(f"row degrees into the part: min={int(sub.sum(axis=1).min())}, "
      f"mean={sub.sum(axis=1).mean():.1f}")
print(f"part back-degrees: max={int(sub.sum(axis=0).max())}")
