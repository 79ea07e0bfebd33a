import multiprocessing
import os

import numpy as np
import pytest

from spantree.digraph import Digraph, gen_semidegree_digraph
from spantree.embedding import Embedding, VerificationError
from spantree.oracle import TrialConfig, reports_to_csv, run_trials, verify_embedding
from spantree.trees import OrientedTree, gen_random_tree

import brute_force
from brute_force import brute_force_contains


def path_host(n):
    return Digraph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


class TestVerifyEmbedding:
    def test_identity_path(self):
        d = path_host(6)
        tree = OrientedTree(4, [(0, 1), (1, 2), (2, 3)])
        emb = Embedding()
        for v in range(4):
            emb.assign(v, v)
        assert verify_embedding(d, tree, emb)

    def test_reversed_edge_fails(self):
        d = path_host(6)
        tree = OrientedTree(4, [(0, 1), (2, 1), (2, 3)])
        emb = Embedding()
        for v in range(4):
            emb.assign(v, v)
        assert not verify_embedding(d, tree, emb)

    def test_partial_map_fails(self):
        d = path_host(4)
        tree = OrientedTree(3, [(0, 1), (1, 2)])
        emb = Embedding()
        emb.assign(0, 0)
        assert not verify_embedding(d, tree, emb)


class TestBruteForce:
    def test_cycle_contains_forward_path(self):
        d = Digraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        tree = OrientedTree(3, [(0, 1), (1, 2)])
        emb = brute_force_contains(d, tree)
        assert emb is not None
        assert verify_embedding(d, tree, emb)

    def test_broken_copy_raises_without_assert(self, monkeypatch):
        monkeypatch.setattr(brute_force, "is_valid_embedding", lambda d, tree, emb: False)
        d = Digraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(VerificationError, match="brute-force embedding failed verification"):
            brute_force_contains(d, OrientedTree(3, [(0, 1), (1, 2)]))

    def test_out_star_host_has_no_directed_path(self):
        d = Digraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        tree = OrientedTree(3, [(0, 1), (1, 2)])
        assert brute_force_contains(d, tree) is None

    def test_single_vertex(self):
        d = path_host(3)
        tree = OrientedTree(1, [])
        emb = brute_force_contains(d, tree)
        assert emb is not None and len(emb) == 1

    def test_size_cap(self):
        d = path_host(13)
        tree = OrientedTree(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            brute_force_contains(d, tree)

    def test_spanning_flag(self):
        d = Digraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        small = OrientedTree(2, [(0, 1)])
        assert brute_force_contains(d, small, spanning=True) is None
        full = OrientedTree(3, [(0, 1), (1, 2)])
        emb = brute_force_contains(d, full, spanning=True)
        assert emb is not None and len(emb) == 3

    def test_matches_verify_on_random_instances(self):
        rng = np.random.default_rng(0)
        found = 0
        for seed in range(60):
            local = np.random.default_rng(seed)
            n = int(local.integers(4, 9))
            d = gen_semidegree_digraph(n, 0.1, local)
            tree = gen_random_tree(n, 3, "uniform", local)
            emb = brute_force_contains(d, tree, spanning=True)
            if emb is not None:
                found += 1
                assert verify_embedding(d, tree, emb)
                assert len(emb.used) == n
        assert found > 0


class TestTrials:
    def test_reports_reproducible(self):
        cfg = TrialConfig(target="matching", n=80, alpha=0.2, trials=5, seed=3)
        a = run_trials(cfg)
        b = run_trials(cfg)
        assert reports_to_csv(a) == reports_to_csv(b)

    def test_csv_schema(self):
        cfg = TrialConfig(target="inherited-degree", n=60, alpha=0.2, trials=3, seed=1)
        text = reports_to_csv(run_trials(cfg))
        lines = text.strip().splitlines()
        assert lines[0] == "seed,n,alpha,tree_family,target,success,retries,millis,failure_cause"
        assert len(lines) == 4
        assert all(",0," in line or line.endswith(",0,") or ",0" in line for line in lines[1:])

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            run_trials(TrialConfig(target="nonsense", trials=1))

    def test_verify_only_passes(self):
        reports = run_trials(TrialConfig(target="verify-only", trials=2, seed=0))
        assert all(r.success for r in reports)

    def test_matching_target_rate(self):
        cfg = TrialConfig(target="matching", n=120, alpha=0.2, trials=10, seed=5, set_size=20)
        reports = run_trials(cfg)
        assert sum(r.success for r in reports) >= 9

    def test_spanning_target_small(self):
        cfg = TrialConfig(target="spanning", n=200, alpha=0.3, trials=3, seed=2)
        reports = run_trials(cfg)
        assert sum(r.success for r in reports) >= 2

    def test_millis_zero_by_default(self):
        reports = run_trials(TrialConfig(target="matching", n=60, alpha=0.2, trials=2, seed=0))
        assert all(r.millis == 0 for r in reports)

    def test_parallel_merge_matches_serial(self):
        cfg = TrialConfig(target="inherited-degree", n=80, alpha=0.2, trials=6, seed=9)
        serial = reports_to_csv(run_trials(cfg, jobs=1))
        parallel = reports_to_csv(run_trials(cfg, jobs=2))
        assert serial == parallel

    def test_worker_count_is_capped(self, monkeypatch):
        # The pool records its size and runs the trials in reverse in this
        # process; no worker is started.
        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, args):
                return [fn(*a) for a in reversed(args)]

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        cfg = TrialConfig(target="inherited-degree", n=60, alpha=0.2, trials=3, seed=9)
        serial = reports_to_csv(run_trials(cfg))
        for cpus, want in ((64, [3]), (2, [2]), (1, []), (None, [])):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            sizes.clear()
            assert reports_to_csv(run_trials(cfg, jobs=10**6)) == serial
            assert sizes == want

    @pytest.mark.parametrize(
        "target,n",
        [("small-forest", 150), ("tree-copies", 200), ("guide-restrict", 150),
         ("decompose", 300), ("absorber", 250), ("almost", 200)],
    )
    def test_all_targets_runnable(self, target, n):
        cfg = TrialConfig(target=target, n=n, alpha=0.3, trials=2, seed=4)
        reports = run_trials(cfg)
        assert len(reports) == 2
        for r in reports:
            assert r.target == target
