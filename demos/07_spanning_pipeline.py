"""The full spanning pipeline, plus a small Monte Carlo sweep.

Split off an absorber subtree, embed its trunk flexibly, embed the rest
almost-spanningly in what the absorber left free, then absorb the exact
leftover set.  Success rates over seeds are the empirical content; every
reported success is a verified spanning copy.
"""

import numpy as np

from spantree import gen_random_tree, gen_semidegree_digraph, verify_embedding
from spantree.embedder import embed_spanning
from spantree.oracle import TrialConfig, run_trials
from spantree.params import spanning_defaults

rng = np.random.default_rng(17)
n, alpha = 500, 0.2
host = gen_semidegree_digraph(n, alpha, rng)
tree = gen_random_tree(n, 3, "uniform", rng)

emb, telemetry = embed_spanning(host, tree, spanning_defaults(n, alpha), rng)
print(f"spanning copy found: verified={verify_embedding(host, tree, emb)}, "
      f"covers host: {len(emb.used) == n}")
print(f"absorber: {telemetry['phases']['absorber']}")
print(f"outer attempts: {telemetry['phases']['outer_attempts']}")

# Success rates over a small grid (the experiment harness scales this up).
print("\nsuccess rates over 10 seeds per cell:")
for alpha in (0.1, 0.15, 0.2, 0.25):
    cfg = TrialConfig(target="spanning", n=300, alpha=alpha, trials=10, seed=99)
    reports = run_trials(cfg)
    wins = sum(r.success for r in reports)
    causes = {r.failure_cause for r in reports if not r.success} - {""}
    print(f"  n=300 alpha={alpha:0.2f}: {wins}/10" +
          (f"  (failure causes: {sorted(causes)})" if causes else ""))
