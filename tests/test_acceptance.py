"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Rates are engineering gates over fixed seeds; every tolerance is pinned
here.  The heavy Monte Carlo blocks run at the sizes stated in their
criterion.
"""

import hashlib
import math

import numpy as np

from spantree.decompose import check_decomposition, decompose
from spantree.digraph import Sign, gen_semidegree_digraph, sample_disjoint_subsets
from spantree.embedder import (
    AbsorptionError,
    PhaseFailure,
    build_absorber,
    complete_absorption,
    embed_almost_spanning,
    embed_spanning,
)
from spantree.guides import build_guide
from spantree.matching import (
    MatchingError,
    covering_matching,
    embed_small_forest,
    embed_tree_copies,
)
from spantree.oracle import TrialConfig, reports_to_csv, run_trials, verify_embedding
from spantree.params import ParamSchedule, spanning_defaults
from spantree.trees import OrientedTree, gen_random_tree, split_tree

from brute_force import brute_force_contains
from test_matching import brute_max_matching, make_skew_pattern, skew_bounded


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status} {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


class TestCriterion1Verifier:
    def test_every_pipeline_embedding_verifies(self):
        """All embeddings returned by pipeline ops pass verify_embedding."""
        bad = 0
        total = 0

        # almost-spanning + spanning outputs
        for seed in range(6):
            rng = np.random.default_rng(seed)
            d = gen_semidegree_digraph(300, 0.3, rng)
            tree = gen_random_tree(240, 3, ("uniform", "path", "caterpillar")[seed % 3], rng)
            try:
                emb, _ = embed_almost_spanning(d, tree, 0, 5, spanning_defaults(300, 0.3), rng)
            except PhaseFailure:
                continue
            total += 1
            bad += not verify_embedding(d, tree, emb)
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            d = gen_semidegree_digraph(300, 0.25, rng)
            tree = gen_random_tree(300, 3, ("uniform", "path")[seed % 2], rng)
            try:
                emb, _ = embed_spanning(d, tree, spanning_defaults(300, 0.25), rng)
            except (PhaseFailure, AbsorptionError):
                continue
            total += 1
            bad += not (verify_embedding(d, tree, emb) and len(emb.used) == 300)

        # tree copies and small forests
        rng = np.random.default_rng(7)
        d = gen_semidegree_digraph(400, 0.25, rng)
        tree5 = OrientedTree(5, [(0, 1), (1, 2), (3, 2), (3, 4)])
        v1, v2 = sample_disjoint_subsets(d, [25, 100], rng)
        for copy in embed_tree_copies(d, tree5, 0, v1, v2):
            total += 1
            bad += not verify_embedding(d, tree5, copy)
        comps = [gen_random_tree(4, 3, "uniform", np.random.default_rng(i)) for i in range(30)]
        maps = embed_small_forest(d, comps, 0.3, rng)
        for comp, m in zip(comps, maps):
            total += 1
            ok = all(d.has_edge(m[u], m[w]) for u, w in comp.edge_list)
            bad += not ok

        # absorber completions
        for seed in range(4):
            rng = np.random.default_rng(200 + seed)
            d = gen_semidegree_digraph(400, 0.25, rng)
            params = spanning_defaults(400, 0.25)
            tr = gen_random_tree(params.absorber_size(400), 3, "uniform", rng).with_t(0)
            try:
                state = build_absorber(d, tr, 0, params, rng)
            except PhaseFailure:
                continue
            free = np.array(sorted(set(range(400)) - set(state.a_set.tolist())))
            extra = rng.choice(free, size=tr.n - len(state.a_set), replace=False)
            b = np.array(sorted(set(state.a_set.tolist()) | {int(x) for x in extra}))
            emb = complete_absorption(state, b)
            total += 1
            bad += not verify_embedding(d, tr, emb)

        report(1, "verifier soundness", bad == 0 and total >= 50,
               f"{total - bad}/{total} embeddings verified (tolerance 0)")


class TestCriterion2MatchingOracle:
    def test_max_matching_equals_exhaustive(self):
        rng = np.random.default_rng(42)
        wrong = 0
        for _ in range(500):
            nl = int(rng.integers(1, 9))
            nr = int(rng.integers(1, 9))
            adj = rng.random((nl, nr)) < rng.uniform(0.1, 0.9)
            try:
                covered = len(covering_matching(adj)) == nl
            except MatchingError:
                covered = False
            if covered != (brute_max_matching(adj) == nl):
                wrong += 1
        report(2, "matching oracle equivalence", wrong == 0,
               f"{500 - wrong}/500 patterns covered exactly when the exhaustive optimum is |left|")


class TestCriterion3SkewHall:
    def test_skew_bounded_patterns_always_covered(self):
        rng = np.random.default_rng(3)
        made = 0
        failed = 0
        while made < 1000:
            built = make_skew_pattern(rng)
            if built is None:
                continue
            adj, a, b = built
            made += 1
            try:
                if len(covering_matching(adj)) != len(adj):
                    failed += 1
            except MatchingError:
                failed += 1
        report(3, "skew-bound forces covering matching", failed == 0,
               f"{made - failed}/{made} skew-bounded patterns covered")


class TestCriterion4GuideConstruction:
    def test_fifty_seeds_exact_audit(self):
        n, alpha = 500, 0.3
        eps, eta, mu = 0.02, 0.5, 0.04
        size, per_row = math.ceil(mu * n), math.ceil(eps * n)
        bound = math.ceil((1 + eta) * mu * eps * n)
        bad = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            d = gen_semidegree_digraph(n, alpha, rng)
            v = int(rng.integers(n))
            sign = Sign.PLUS if seed % 2 == 0 else Sign.MINUS
            entry = build_guide(d, v, sign, eps, eta, mu, alpha=alpha)
            ok = (
                int(entry.hplus.sum()) == size * per_row
                and int(entry.hminus.sum()) == size * per_row
                and skew_bounded(entry.h(Sign.PLUS), per_row, bound)
                and skew_bounded(entry.h(Sign.MINUS), per_row, bound)
            )
            bad += not ok
        report(4, "guide construction audit", bad == 0,
               f"{50 - bad}/50 seeds with exact e(H)={size * per_row} and skew bounds")


class TestCriterion5Decomposition:
    def test_validator_and_structural_bounds(self):
        failures = 0
        # 100 random trees at n=2000
        params = ParamSchedule(alpha=0.25, eta=0.05, k=12, K=600, strip_eps=0.02)
        for seed in range(100):
            tree = gen_random_tree(2000, 3, "uniform", np.random.default_rng(seed))
            td = decompose(tree, 0, params)
            failures += bool(check_decomposition(td))
        # named families
        for family in ("path", "caterpillar", "spider"):
            for seed in range(5):
                tree = gen_random_tree(800, 3, family, np.random.default_rng(seed))
                td = decompose(tree, 0, ParamSchedule(alpha=0.25, eta=0.08, k=12,
                                                      K=260, strip_eps=0.02))
                failures += bool(check_decomposition(td))
        star = OrientedTree(400, [(0, v) for v in range(1, 400)], t=0)
        td = decompose(star, 0, ParamSchedule(alpha=0.25, eta=0.05, k=12, K=60,
                                              strip_eps=0.02))
        failures += bool(check_decomposition(td))

        # split_tree bounds, exact
        split_bad = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            tree = gen_random_tree(int(rng.integers(9, 400)), 3, "uniform", rng)
            m = int(rng.integers(1, tree.n // 3 + 1))
            p1, p2, shared = split_tree(tree, m)
            if not (m <= p2.tree.n <= 3 * m and p1.tree.n + p2.tree.n == tree.n + 1):
                split_bad += 1

        report(5, "structural decomposition", failures == 0 and split_bad == 0,
               f"decomposition failures={failures}, split violations={split_bad}")


class TestCriterion6AbsorptionDeterminism:
    def test_completion_never_fails_after_s(self):
        n = 1000
        verified = 0
        stuck = 0
        for seed in range(25):
            rng = np.random.default_rng(seed)
            alpha = (0.25, 0.2)[seed % 2]
            d = gen_semidegree_digraph(n, alpha, rng)
            params = spanning_defaults(n, alpha)
            tree = gen_random_tree(params.absorber_size(n), 3,
                                   ("uniform", "caterpillar")[seed % 2], rng).with_t(0)
            try:
                state = build_absorber(d, tree, 0, params, rng)
            except PhaseFailure:
                continue
            verified += 1
            free = np.array(sorted(set(range(n)) - set(state.a_set.tolist())))
            extra = rng.choice(free, size=tree.n - len(state.a_set), replace=False)
            b = np.array(sorted(set(state.a_set.tolist()) | {int(x) for x in extra}))
            try:
                emb = complete_absorption(state, b)
                assert verify_embedding(d, tree, emb)
            except AbsorptionError:
                stuck += 1
        report(6, "absorption deterministic given S", stuck == 0 and verified >= 20,
               f"{verified} S-certificates, {stuck} stuck completions (tolerance 0)")


class TestCriterion7EmpiricalGates:
    def test_perfect_matchings_gate(self):
        cfg = TrialConfig(target="matching", n=1000, alpha=0.2, trials=100,
                          seed=101, set_size=100)
        wins = sum(r.success for r in run_trials(cfg))
        report("7a", "perfect matchings n=1000", wins >= 95, f"{wins}/100 (gate 95)")

    def test_small_forest_gate(self):
        cfg = TrialConfig(target="small-forest", n=500, alpha=0.2, trials=100,
                          seed=102, eps=0.2)
        wins = sum(r.success for r in run_trials(cfg))
        report("7b", "small forests n=500", wins >= 90, f"{wins}/100 (gate 90)")

    def test_guide_restriction_gate(self):
        cfg = TrialConfig(target="guide-restrict", n=600, alpha=0.2, trials=100,
                          seed=103)
        reports = run_trials(cfg)
        # The trial's whole record, not only its win count, is pinned.
        assert hashlib.sha256(reports_to_csv(reports).encode()).hexdigest()[:16] == "50e8ac7df929b0ee"
        wins = sum(r.success for r in reports)
        report("7c", "guide restriction n=600", wins >= 90, f"{wins}/100 (gate 90)")

    def test_almost_spanning_gate(self):
        cfg = TrialConfig(target="almost", n=500, alpha=0.3, trials=100,
                          seed=104, eps=0.2, tree_family="uniform")
        wins = sum(r.success for r in run_trials(cfg))
        report("7d", "almost-spanning n=500", wins >= 75, f"{wins}/100 (gate 75)")

    def test_spanning_gate(self):
        cfg = TrialConfig(target="spanning", n=500, alpha=0.25, trials=100,
                          seed=105, tree_family="uniform")
        wins = sum(r.success for r in run_trials(cfg))
        report("7e", "spanning n=500", wins >= 70, f"{wins}/100 (gate 70)")


class TestCriterion8TinyConsistency:
    def test_pipeline_success_implies_brute_force(self):
        inconsistent = 0
        successes = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = 4 + seed % 5  # n in 4..8
            try:
                d = gen_semidegree_digraph(n, 0.1, rng)
            except ValueError:
                continue
            tree = gen_random_tree(n, 3, "uniform", rng)
            try:
                emb, _ = embed_spanning(d, tree, spanning_defaults(n, 0.1), rng)
                ok = verify_embedding(d, tree, emb) and len(emb.used) == n
            except (PhaseFailure, AbsorptionError, ValueError):
                continue
            if ok:
                successes += 1
                if brute_force_contains(d, tree, spanning=True) is None:
                    inconsistent += 1
        report(8, "tiny-instance consistency", inconsistent == 0 and successes > 0,
               f"{successes} pipeline successes, {inconsistent} unconfirmed (tolerance 0)")


class TestCriterion9Determinism:
    def test_subcommands_bit_identical(self, tmp_path):
        from spantree.cli import main

        outputs = []
        for tag in ("x", "y"):
            dpath = tmp_path / f"d{tag}.dg"
            tpath = tmp_path / f"t{tag}.tree"
            epath = tmp_path / f"e{tag}.json"
            cpath = tmp_path / f"c{tag}.csv"
            assert main(["gen", "digraph", "--n", "150", "--alpha", "0.3",
                         "--seed", "5", "--out", str(dpath)]) == 0
            assert main(["gen", "tree", "--n", "150", "--family", "uniform",
                         "--seed", "6", "--out", str(tpath)]) == 0
            assert main(["embed", str(dpath), str(tpath), "--seed", "7",
                         "--out", str(epath)]) == 0
            cfg = tmp_path / f"cfg{tag}.ini"
            cfg.write_text(
                "[experiment]\ntarget = matching\ntrials = 6\nseed = 8\n"
                "[grid]\nn = 100\nalpha = 0.2\nset_size = 12\n"
            )
            assert main(["experiment", str(cfg), "--out", str(cpath)]) == 0
            outputs.append(
                (dpath.read_bytes(), tpath.read_bytes(), epath.read_bytes(),
                 cpath.read_bytes())
            )
        same = outputs[0] == outputs[1]
        report(9, "bit-identical subcommands", same,
               "gen/embed/experiment outputs identical across equal-seed runs")
