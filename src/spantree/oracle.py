"""Ground truth: embedding verification and the trial harness."""

from __future__ import annotations

import os
import time
from dataclasses import astuple, dataclass

import numpy as np

from .decompose import DecompositionError, decompose
from .digraph import Digraph, Sign, check_inherited_degree, gen_semidegree_digraph, sample_disjoint_subsets
from .embedding import PipelineError, is_valid_embedding
from .embedder import _retry, absorb_at_random, embed_almost_spanning, embed_spanning
from .guides import GuideSystem
from .matching import MatchingError, covering_matching, embed_small_forest, embed_tree_copies
from .params import ParamSchedule, spanning_defaults
from .trees import gen_random_tree


# The public name of the output check: total, injective, orientation-respecting.
verify_embedding = is_valid_embedding


@dataclass
class TrialReport:
    seed: int
    n: int
    alpha: float
    tree_family: str
    target: str
    success: bool
    retries: int = 0
    millis: int = 0
    failure_cause: str = ""

    CSV_HEADER = "seed,n,alpha,tree_family,target,success,retries,millis,failure_cause"

    def csv_row(self) -> str:
        return ",".join(str(int(v) if isinstance(v, bool) else v) for v in astuple(self))


@dataclass
class TrialConfig:
    """One experiment cell: a target statement plus instance parameters."""

    target: str
    n: int = 200
    alpha: float = 0.25
    trials: int = 10
    seed: int = 0
    tree_family: str = "uniform"
    max_semideg: int = 3
    eps: float = 0.2
    set_size: int = 0          # |A| for matching-style targets
    record_millis: bool = False
    schedule: ParamSchedule | None = None


def _trial_matching(d: Digraph, cfg: TrialConfig, rng) -> tuple[bool, int, str]:
    size = cfg.set_size or max(4, d.n // 10)
    a, b = sample_disjoint_subsets(d, [size, size], rng)
    try:
        covering_matching(d.mat[np.ix_(a, b)], what="perfect matching")
        return True, 0, ""
    except MatchingError:
        return False, 0, "hall-fail"


def _trial_inherited(d: Digraph, cfg: TrialConfig, rng) -> tuple[bool, int, str]:
    size = cfg.set_size or max(4, d.n // 5)
    (a,) = sample_disjoint_subsets(d, [size], rng)
    ok = check_inherited_degree(d, a, cfg.alpha)
    return ok, 0, "" if ok else "hall-fail"


def _trial_small_forest(d: Digraph, cfg: TrialConfig, rng) -> tuple[bool, int, str]:
    total = int((1 - cfg.eps) * d.n)
    comp_size = 4
    count = max(1, total // comp_size)
    comps = [gen_random_tree(comp_size, cfg.max_semideg, "uniform", rng) for _ in range(count)]
    try:
        maps = embed_small_forest(d, comps, cfg.eps / 2, rng)
    except PipelineError as exc:
        return False, 0, exc.cause
    hosts = np.concatenate(maps).tolist()
    ok = len(set(hosts)) == len(hosts) and all(
        d.has_edge(m[u], m[w]) for comp, m in zip(comps, maps) for u, w in zip(*comp.edges.T.tolist())
    )
    return ok, 0, "" if ok else "verify"


def _trial_tree_copies(d: Digraph, cfg: TrialConfig, rng) -> tuple[bool, int, str]:
    tree = gen_random_tree(5, cfg.max_semideg, "uniform", rng)
    per = cfg.set_size or max(4, d.n // 25)
    v1, v2 = sample_disjoint_subsets(d, [per, (tree.n - 1) * per], rng)
    try:
        copies = embed_tree_copies(d, tree, 0, v1, v2)
    except MatchingError:
        return False, 0, "hall-fail"
    used: set[int] = set()
    for copy in copies:
        if not is_valid_embedding(d, tree, copy) or used & copy.used:
            return False, 0, "verify"
        used |= copy.used
    return True, 0, ""


def _trial_guide_restrict(d: Digraph, cfg: TrialConfig, rng) -> tuple[bool, int, str]:
    params = cfg.schedule or ParamSchedule(alpha=cfg.alpha)
    p0, p1 = 0.3, 0.5
    mu_count = max(2, int(round(cfg.alpha**2 * p0 * d.n / 4)))
    probe_vertices = [int(x) for x in rng.choice(d.n, size=4, replace=False)]
    probe = [(v, s) for v in probe_vertices for s in (Sign.PLUS, Sign.MINUS)]
    log: list[tuple[str, str, str]] = []

    def once() -> None:
        v0, part = sample_disjoint_subsets(d, [int(p0 * d.n), int(p1 * d.n)], rng)
        system = GuideSystem(d, v0, [part], mu_count, alpha=cfg.alpha)
        for v, s in probe:
            entry = system.get(v, s)   # the trial audits whole entries: every row, both signs
            for circ in (Sign.PLUS, Sign.MINUS):
                system.rows([(entry, w) for w in entry.guide], circ, part)

    try:
        _retry("guide-restrict", params.retries, once, log)
    except PipelineError as exc:
        return False, len(log), exc.cause
    return True, len(log), ""


def _trial_decompose(d: Digraph, cfg: TrialConfig, rng) -> tuple[bool, int, str]:
    params = cfg.schedule or spanning_defaults(cfg.n, cfg.alpha)
    tree = gen_random_tree(cfg.n, cfg.max_semideg, cfg.tree_family, rng)
    try:
        decompose(tree, 0, params)
        return True, 0, ""
    except DecompositionError as exc:
        return False, 0, "decompose:" + ",".join(p.split(":")[0] for p in exc.failed[:2])


def _trial_almost(d: Digraph, cfg: TrialConfig, rng) -> tuple[bool, int, str]:
    params = cfg.schedule or spanning_defaults(d.n, cfg.alpha)
    size = int((1 - cfg.eps) * d.n)
    tree = gen_random_tree(size, cfg.max_semideg, cfg.tree_family, rng)
    v = int(rng.integers(d.n))
    try:
        emb, tele = embed_almost_spanning(d, tree, 0, v, params, rng)
    except PipelineError as exc:
        return False, exc.attempts, exc.cause
    ok = verify_embedding(d, tree, emb) and emb[0] == v
    return ok, len(tele.get("failures", [])), "" if ok else "verify"


def _trial_absorber(d: Digraph, cfg: TrialConfig, rng) -> tuple[bool, int, str]:
    params = cfg.schedule or spanning_defaults(d.n, cfg.alpha)
    size = params.absorber_size(d.n)
    tree = gen_random_tree(size, cfg.max_semideg, cfg.tree_family, rng).with_t(0)
    try:
        _state, emb = absorb_at_random(d, tree, 0, params, rng)
    except PipelineError as exc:
        # A stuck completion after property S was verified is a hard
        # inconsistency; AbsorptionError reports it as S-fail.
        return False, exc.attempts, exc.cause
    return verify_embedding(d, tree, emb), 0, ""


def _trial_spanning(d: Digraph, cfg: TrialConfig, rng) -> tuple[bool, int, str]:
    params = cfg.schedule or spanning_defaults(d.n, cfg.alpha)
    tree = gen_random_tree(d.n, cfg.max_semideg, cfg.tree_family, rng)
    try:
        emb, tele = embed_spanning(d, tree, params, rng)
    except PipelineError as exc:
        return False, exc.attempts, exc.cause
    ok = verify_embedding(d, tree, emb)
    return ok, len(tele.get("failures", [])), "" if ok else "verify"


_TRIAL_FNS = {
    "matching": _trial_matching,
    "inherited-degree": _trial_inherited,
    "small-forest": _trial_small_forest,
    "tree-copies": _trial_tree_copies,
    "guide-restrict": _trial_guide_restrict,
    "decompose": _trial_decompose,
    "almost": _trial_almost,
    "absorber": _trial_absorber,
    "spanning": _trial_spanning,
}


def run_single_trial(cfg: TrialConfig, seed: int) -> TrialReport:
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    if cfg.target == "verify-only":
        return TrialReport(seed, cfg.n, cfg.alpha, cfg.tree_family, cfg.target, True)
    if cfg.target not in _TRIAL_FNS:
        raise ValueError(f"unknown target {cfg.target!r}; known: {sorted(_TRIAL_FNS)}")
    d = gen_semidegree_digraph(cfg.n, cfg.alpha, rng)
    success, retries, cause = _TRIAL_FNS[cfg.target](d, cfg, rng)
    millis = int((time.perf_counter() - start) * 1000) if cfg.record_millis else 0
    return TrialReport(
        seed=seed,
        n=cfg.n,
        alpha=cfg.alpha,
        tree_family=cfg.tree_family,
        target=cfg.target,
        success=success,
        retries=retries,
        millis=millis,
        failure_cause=cause,
    )


def run_trials(cfg: TrialConfig, jobs: int = 1) -> list[TrialReport]:
    """Deterministic trial batch: per-trial seeds derive from cfg.seed.

    Reports come back sorted by seed regardless of execution order, so the
    output is bit-identical for a fixed config (modulo the opt-in millis).
    At most min(jobs, cfg.trials, os.cpu_count()) worker processes run.
    """
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(cfg.seed).spawn(cfg.trials)]
    jobs = min(jobs, cfg.trials, os.cpu_count() or 1)
    if jobs > 1:
        import multiprocessing as mp

        with mp.Pool(jobs) as pool:
            reports = pool.starmap(run_single_trial, [(cfg, s) for s in seeds])
    else:
        reports = [run_single_trial(cfg, s) for s in seeds]
    return sorted(reports, key=lambda r: r.seed)


def reports_to_csv(reports: list[TrialReport]) -> str:
    lines = [TrialReport.CSV_HEADER]
    lines.extend(r.csv_row() for r in reports)
    return "\n".join(lines) + "\n"
