"""Workloads, timing, output checks and metrics for perfbench/run.py.

Every instance of a run is generated before the first timed call.  A run
has one host, shared by every call, from the first child of
SeedSequence(seed).  Call i gets its own tree and embedding seed from child
i of the second child, so the number of calls never changes the earlier
ones.  Every call runs in this one process, and every returned embedding is
checked by `check_embedding`.  The traced run makes each call twice,
untraced and traced in alternating order, and requires both to give the
same outcome.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import spantree
from spantree.embedder import PhaseFailure
from spantree.params import spanning_defaults

from spans import ROOT_SPAN, Tracer

RESULTS = Path(__file__).resolve().parent / "results"
MAX_TREE_SEMIDEGREE = 3
MIN_CALLS = 20        # embed_s.tail needs ten samples beyond it
SETUP_REPEATS = 3     # setup_s takes the median generation time of these
HARD_STOP_S = 150.0   # start no call after this, however slow the machine
REFERENCE_S = 0.0055  # typical reference_seconds() on a 2-core x86 box
UNITS = {"embed_s.p50": "s", "embed_s.tail": "s", "verified_per_s": "1/s",
         "success_rate": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    n: int
    alpha: float
    family: str
    calls_per_s: float  # calls per second of --seconds


# README.md gives the reason for each workload and its predictions.
WORKLOADS = {
    "dense-uniform-800": Workload(800, 0.24, "uniform", 2.8),
    "dense-spider-2000": Workload(2000, 0.25, "spider", 2.4),
}


def call_count(w: Workload, seconds: int) -> int:
    return max(MIN_CALLS, math.ceil(seconds * w.calls_per_s))


@dataclass
class Instance:
    host: spantree.Digraph
    tree: spantree.OrientedTree
    embed_seed: np.random.SeedSequence


@dataclass
class Outcome:
    seconds: float
    cause: str | None          # None when an embedding came back
    images: np.ndarray | None  # images[v] = host vertex of tree vertex v
    outer_attempts: int
    error: str | None = None   # set when the outcome counts as a failed operation

    def digest_entry(self) -> str:
        if self.images is None:
            return f"fail:{self.cause}"
        return "ok:" + hashlib.sha256(self.images.astype("<i8").tobytes()).hexdigest()


def generate(w: Workload, seed: int, calls: int) -> tuple[list[Instance], float]:
    """One instance per call, plus the seconds spent generating the host."""
    host_seed, call_root = np.random.SeedSequence(seed).spawn(2)
    t0 = time.perf_counter()
    host = spantree.gen_semidegree_digraph(w.n, w.alpha, np.random.default_rng(host_seed))
    host_s = time.perf_counter() - t0
    out = []
    for child in call_root.spawn(calls):
        tree_seed, embed_seed = child.spawn(2)
        tree = spantree.gen_random_tree(
            w.n, MAX_TREE_SEMIDEGREE, w.family, np.random.default_rng(tree_seed))
        out.append(Instance(host, tree, embed_seed))
    return out, host_s


def check_embedding(host, tree, mapping: dict) -> tuple[np.ndarray | None, str | None]:
    """Independent spanning check: total, onto all n hosts, arcs kept with orientation.

    Reads only the host's adjacency matrix and the tree's arc list, calls no
    library code and uses no `assert`, so it holds under `python -O`.
    """
    n = host.n
    if tree.n != n or sorted(mapping) != list(range(n)):
        return None, "map is not defined on exactly the tree vertices"
    images = np.fromiter((mapping[v] for v in range(n)), dtype=np.int64, count=n)
    if not np.array_equal(np.sort(images), np.arange(n)):
        return None, "map is not a bijection onto the host vertices"
    arcs = np.asarray(tree.edge_list, dtype=np.int64).reshape(-1, 2)
    if not host.mat[images[arcs[:, 0]], images[arcs[:, 1]]].all():
        return None, "a tree arc maps to a non-arc or a reversed arc"
    return images, None


def embed_one(inst: Instance, params, embed, verify) -> Outcome:
    rng = np.random.default_rng(inst.embed_seed)
    t0 = time.perf_counter()
    try:
        emb, telemetry = embed(inst.host, inst.tree, params, rng)
    except PhaseFailure as exc:
        return Outcome(time.perf_counter() - t0, exc.cause, None, exc.attempts)
    except Exception as exc:  # a crash is a failed operation, not a Las Vegas miss
        seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return Outcome(seconds, f"error-{type(exc).__name__}", None, 0,
                       error=f"embed_spanning raised {type(exc).__name__}")
    seconds = time.perf_counter() - t0
    images, problem = check_embedding(inst.host, inst.tree, emb.map)
    if problem is None and not verify(inst.host, inst.tree, emb):
        problem = "the library verifier rejects an embedding the check accepts"
    return Outcome(seconds, "bad-embedding" if problem else None, images,
                   telemetry["phases"]["outer_attempts"], error=problem)


def reference_seconds(mat: np.ndarray) -> float:
    """Time a fixed numpy workload: boolean gathers and sums, a float32 product.

    It runs after every setup pass and every call.  The box is shared and
    its speed drifts by a quarter within a minute, so every time metric of a
    run is scaled by REFERENCE_S / median(reference times): seconds at the
    box's usual speed.  The kernel calls no library code.
    """
    t0 = time.perf_counter()
    for _ in range(3):
        (mat[:, ::3] & mat[::3, :].T).sum(axis=0)
        np.flatnonzero(mat[5])
        mat[:200].astype(np.float32) @ mat[:, :200].astype(np.float32)
    return time.perf_counter() - t0


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    idx = len(ordered) - 11
    return 100.0 * (idx + 1) / len(ordered), ordered[idx]


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_share", "_per_attempt")):
        return "ratio"
    return "count"


def openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir,
                           "numpy.libs", "libscipy_openblas*.so")
    for lib in glob.glob(pattern):
        try:
            return int(ctypes.CDLL(lib).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    return None


def git_commit(root: Path) -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(src: Path, blas_threads: int) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((src / "spantree").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(src.parent),
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads_set": blas_threads,
        "openblas_threads": openblas_threads(),
    }


def embed_all(instances, params, traced_run: bool, tracer: Tracer, reference, t0: float):
    """Outcomes of the untraced calls, and the traced call times when traced."""
    plain = (spantree.embed_spanning, spantree.verify_embedding)
    probed = (tracer.wrap(ROOT_SPAN, spantree.embed_spanning),
              tracer.wrap("oracle.verify", spantree.verify_embedding))
    outcomes: list[Outcome] = []
    traced_s: list[float] = []
    for i, inst in enumerate(instances):
        if time.perf_counter() - t0 > HARD_STOP_S:
            break
        if not traced_run:
            outcomes.append(embed_one(inst, params, *plain))
            reference()
            continue
        tracer.instance = i
        by_mode = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed():
                    by_mode[traced] = embed_one(inst, params, *probed)
            else:
                by_mode[traced] = embed_one(inst, params, *plain)
            reference()
        outcome = by_mode[False]
        if outcome.digest_entry() != by_mode[True].digest_entry():
            outcome.error = outcome.error or "traced and untraced calls disagree"
        outcomes.append(outcome)
        traced_s.append(by_mode[True].seconds)
    return outcomes, traced_s


def run(args, t0: float, src: Path, blas_threads: int) -> int:
    if Path(spantree.__file__).resolve().parent != src / "spantree":
        print(f"perfbench: imported spantree from {spantree.__file__}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    w = WORKLOADS[args.workload]
    count = call_count(w, args.seconds)
    params = spanning_defaults(w.n, w.alpha)
    ref_mat = np.random.default_rng(0).random((1000, 1000)) < 0.5
    ref_s: list[float] = []

    def reference() -> None:
        ref_s.append(reference_seconds(ref_mat))

    gen_s, host_gen_s = [], []
    for _ in range(SETUP_REPEATS):
        instances = None  # drop the previous set before building the next
        start = time.perf_counter()
        instances, host_s = generate(w, args.seed, count)
        gen_s.append(time.perf_counter() - start)
        host_gen_s.append(host_s)
        reference()

    tracer = Tracer()
    outcomes, traced_s = embed_all(instances, params, bool(args.trace), tracer, reference, t0)

    # A call the time limit left unmade is a failed operation: per-layer
    # totals of a cut run would otherwise read as a gain.
    skipped = count - len(outcomes)
    attempted = count
    failed = skipped + sum(o.error is not None for o in outcomes)
    verified = sum(o.images is not None and o.error is None for o in outcomes)
    samples = [o.seconds for o in outcomes]
    causes = dict(sorted(Counter(o.cause for o in outcomes if o.cause is not None).items()))
    digest = hashlib.sha256(
        "".join(f"{i}:{o.digest_entry()}\n" for i, o in enumerate(outcomes)).encode()
    ).hexdigest()

    wall = {
        "embed_s.p50": statistics.median(samples),
        "verified_per_s": verified / sum(samples),
        "success_rate": verified / attempted,
        "setup_s": import_s + statistics.median(gen_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tail_pct = None
    if len(samples) >= 20:  # otherwise no percentile has ten samples beyond it
        tail_pct, wall["embed_s.tail"] = tail(samples)
    scale = REFERENCE_S / statistics.median(ref_s)
    end_to_end = {k: v * scale if UNITS[k] == "s" else v / scale if UNITS[k] == "1/s" else v
                  for k, v in wall.items()}
    if args.trace:
        outer = sum(o.outer_attempts for o in outcomes)
        per_layer = {
            "digraph.gen_s": statistics.median(host_gen_s),
            **tracer.layer_metrics(),
            "embedder.outer_attempts": outer,
            "embedder.success_per_attempt": verified / outer if outer else 0.0,
            "trace.overhead_s": statistics.median(traced_s) - wall["embed_s.p50"],
        }
        reported = {k: (v, unit_of(k)) for k, v in per_layer.items()}
    else:
        reported = {k: (v, UNITS[k]) for k, v in end_to_end.items()}

    env = environment(src, blas_threads)
    print(f"workload {args.workload}: n={w.n} alpha={w.alpha} trees={w.family} "
          f"max-semidegree={MAX_TREE_SEMIDEGREE} seed={args.seed} "
          f"calls={len(outcomes)} of {count}")
    print(f"digest sha256:{digest}  failures by cause: {json.dumps(causes)}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"  speed scale {scale:.4f}: reference kernel median "
          f"{statistics.median(ref_s) * 1e3:.3f} ms against {REFERENCE_S * 1e3:.3f} ms")
    for name, value in end_to_end.items():
        note = f"  (p{tail_pct:.1f} of {len(samples)} samples)" if name == "embed_s.tail" else ""
        print(f"  {name:<16} {value:.6g} {UNITS[name]}{note}   wall {wall[name]:.6g}")
    if args.trace:
        print(f"  tracing overhead {per_layer['trace.overhead_s'] / wall['embed_s.p50']:+.2%} "
              f"of wall embed_s.p50; {per_layer['trace.unattributed_share']:.2%} of "
              "embed_spanning time is in no child span")
        for name, (value, unit) in reported.items():
            print(f"  {name:<34} {value:.6g} {unit}")
    for o in outcomes:
        if o.error:
            print(f"perfbench: FAILED: {o.error}", file=sys.stderr)
    if skipped:
        print(f"perfbench: FAILED: time limit left {skipped} of {count} calls unmade",
              file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    if args.trace:
        tracer.dump(RESULTS / f"{stem}.spans.jsonl", t0)
    (RESULTS / f"{stem}.json").write_text(json.dumps({
        **result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "calls_planned": count, "calls_made": len(outcomes),
        "digest": digest, "failure_causes": causes, "env": env,
        "end_to_end": end_to_end, "wall": wall, "speed_scale": scale,
        "tail_percentile": tail_pct, "embed_s_samples": samples, "reference_s": ref_s,
    }, indent=1))
    print(json.dumps(result))
    return 0 if failed == 0 else 1
