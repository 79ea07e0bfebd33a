"""Scaling record of one spanning embedding per host size.

    python3 tools/scaling.py [--out BENCH_scaling.json]

Each size in SIZES runs the reference call in RUNS processes of its own, one
after another, each with one BLAS thread:

    d    = gen_semidegree_digraph(n, 0.25, default_rng(1))
    tree = gen_random_tree(n, 3, "uniform", default_rng(2))
    embed_spanning(d, tree, spanning_defaults(n, 0.25), default_rng(2))

and records the host's and the tree's generation times (`host_s`, `tree_s`),
the call's wall time, the three phase times it reports
(`absorber_build_millis`, `almost_millis`, `absorption_millis`), the
process's peak RSS after generation (`setup_rss_mb`) and after the call
(`peak_rss_mb`), and the digest of the embedding: the first 12 hex digits
of the sha256 of `json.dumps(sorted(emb.map.items()))`.  Each time and RSS
field holds the median of the runs, and `<field>_range` their [min, max].
The script exits non-zero, writing nothing, when the runs of a size disagree
on the digest.  The library is imported from `--src` (default: this
checkout's src/), so the same script measures any other checkout.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALPHA = 0.25
SIZES = (500, 1000, 2000, 4000, 8000, 16000, 32000)
RUNS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def measure(n: int) -> dict:
    """One reference call at size n, in this process."""
    import hashlib
    import resource
    import time

    import numpy as np
    import numpy.random  # noqa: F401 -- numpy loads it on first use; keep that out of host_s

    from spantree.digraph import gen_semidegree_digraph
    from spantree.embedder import embed_spanning
    from spantree.params import spanning_defaults
    from spantree.trees import gen_random_tree

    def peak_rss_mb() -> float:
        return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)

    start = time.perf_counter()
    d = gen_semidegree_digraph(n, ALPHA, np.random.default_rng(1))
    host_s = time.perf_counter() - start
    start = time.perf_counter()
    tree = gen_random_tree(n, 3, "uniform", np.random.default_rng(2))
    tree_s = time.perf_counter() - start
    setup_rss_mb = peak_rss_mb()
    start = time.perf_counter()
    emb, telemetry = embed_spanning(d, tree, spanning_defaults(n, ALPHA), np.random.default_rng(2))
    wall_s = time.perf_counter() - start
    phases = telemetry["phases"]
    digest = hashlib.sha256(json.dumps(sorted(emb.map.items())).encode()).hexdigest()[:12]
    return {
        "n": n,
        "wall_s": round(wall_s, 3),
        "host_s": round(host_s, 3),
        "tree_s": round(tree_s, 3),
        **{key: round(phases[key], 1)
           for key in ("absorber_build_millis", "almost_millis", "absorption_millis")},
        "setup_rss_mb": setup_rss_mb,
        "peak_rss_mb": peak_rss_mb(),
        "digest": digest,
    }


def summarize(samples: list[dict]) -> dict:
    """One size's record from its runs: every measured field's median and [min, max]."""
    digests = sorted({sample["digest"] for sample in samples})
    if len(digests) > 1:
        sys.exit(f"n={samples[0]['n']}: the runs disagree on the digest: {digests}")
    record = {"n": samples[0]["n"]}
    for key in [key for key in samples[0] if key not in ("n", "digest")]:
        values = [sample[key] for sample in samples]
        record[key] = statistics.median(values)
        record[f"{key}_range"] = [min(values), max(values)]
    record["digest"] = digests[0]
    return record


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=str(ROOT / "src"))
    p.add_argument("--out", default=str(ROOT / "BENCH_scaling.json"))
    p.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.one is not None:
        sys.path.insert(0, args.src)
        print(json.dumps(measure(args.one)))
        return 0

    env = dict(os.environ, **{key: "1" for key in BLAS_ENV})
    runs = []
    for n in SIZES:
        samples = []
        for _ in range(RUNS):
            out = subprocess.run(
                [sys.executable, __file__, "--one", str(n), "--src", args.src],
                env=env, stdout=subprocess.PIPE, text=True, check=True,
            ).stdout
            samples.append(json.loads(out.splitlines()[-1]))
            print(json.dumps(samples[-1]), file=sys.stderr)
        runs.append(summarize(samples))

    import numpy as np

    record = {
        "call": "embed_spanning on gen_semidegree_digraph(n, 0.25, default_rng(1)) with "
                "gen_random_tree(n, 3, 'uniform', default_rng(2)), "
                "spanning_defaults(n, 0.25), default_rng(2)",
        "blas_threads": 1,
        "runs_per_size": RUNS,
        "machine": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
