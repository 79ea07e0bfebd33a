"""The shared Las Vegas toolkit: failure base, retry loop, greedy walk, leaf matcher."""

import hashlib
import json

import numpy as np
import pytest

from spantree.decompose import DecompositionError
from spantree.digraph import Digraph, Sign, gen_semidegree_digraph
from spantree.embedder import AbsorptionError, PhaseFailure, _retry, embed_spanning
from spantree.embedding import PipelineError, greedy_walk
from spantree.guides import GuideBuildError, GuideRestrictError
from spantree.matching import ForestEmbedError, MatchingError, match_leaves
from spantree.params import spanning_defaults
from spantree.trees import OrientedTree, gen_random_tree, prefix_order


def complete(n):
    mat = np.ones((n, n), dtype=bool)
    np.fill_diagonal(mat, False)
    return Digraph(n, mat)


class TestFailureBase:
    @pytest.mark.parametrize(
        "exc, cause",
        [
            (MatchingError("m"), "hall-fail"),
            (ForestEmbedError("m"), "hall-fail"),
            (ForestEmbedError("m", cause="leaf-greedy-fail"), "leaf-greedy-fail"),
            (GuideBuildError("m"), "guide-build"),
            (GuideRestrictError("m"), "guide-restrict"),
            (DecompositionError("m", ["P1"]), "decompose"),
            (AbsorptionError("m"), "S-fail"),
            (PhaseFailure("stars", "connector-exhausted", "m", 3), "connector-exhausted"),
        ],
    )
    def test_every_failure_derives_from_the_base(self, exc, cause):
        assert isinstance(exc, PipelineError)
        assert exc.cause == cause

    def test_phase_failure_carries_phase_and_attempts(self):
        exc = PhaseFailure("paths", "hall-fail", "boom", attempts=4)
        assert (exc.phase, exc.attempts) == ("paths", 4)
        assert str(exc) == "paths failed after 4 attempt(s) [hall-fail]: boom"
        assert (MatchingError("m").phase, MatchingError("m").attempts) == (None, 0)


class TestRetry:
    def test_returns_first_success(self):
        calls = []

        def once():
            calls.append(1)
            if len(calls) < 3:
                raise GuideBuildError("not yet")
            return "ok"

        assert _retry("stars", 5, once) == "ok"
        assert len(calls) == 3

    def test_reports_last_cause_after_budget(self):
        errors = iter([GuideBuildError("a"), MatchingError("b")])

        def once():
            raise next(errors)

        with pytest.raises(PhaseFailure) as info:
            _retry("paths", 2, once)
        assert (info.value.phase, info.value.cause, info.value.attempts) == ("paths", "hall-fail", 2)
        assert str(info.value).endswith(": b")

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            _retry("stars", 0, lambda: None)


class TestGreedyWalk:
    def test_root_honoured_and_hosts_cleared(self):
        d = gen_semidegree_digraph(60, 0.3, np.random.default_rng(1))
        tree = gen_random_tree(20, 3, "uniform", np.random.default_rng(2))
        order = prefix_order(tree, 0)
        free = np.ones(d.n, dtype=bool)
        hosts = greedy_walk(d, order, free, np.random.default_rng(3), root_host=17)
        assert hosts[0] == 17
        assert len(set(hosts.tolist())) == tree.n
        assert not free[hosts].any() and free.sum() == d.n - tree.n
        for i in range(1, tree.n):
            parent = hosts[order.parent_index[i]]
            row = d.adj_row(int(parent), order.sign[i])
            assert row[hosts[i]]

    def test_root_drawn_from_free_and_stop(self):
        d = complete(12)
        order = prefix_order(OrientedTree(4, [(0, 1), (1, 2), (1, 3)]), 0)
        free = np.zeros(d.n, dtype=bool)
        free[[3, 5, 7, 9]] = True
        hosts = greedy_walk(d, order, free, np.random.default_rng(0), stop=2)
        assert len(hosts) == 2 and set(hosts.tolist()) <= {3, 5, 7, 9}
        assert free.sum() == 2

    def test_none_when_stuck(self):
        # 0 -> 1 is the only arc, so an out-path of three vertices from 0 is stuck.
        d = Digraph.from_edges(4, [(0, 1)])
        order = prefix_order(OrientedTree(3, [(0, 1), (1, 2)]), 0)
        assert greedy_walk(d, order, np.ones(4, dtype=bool), np.random.default_rng(0), root_host=0) is None


class TestMatchLeaves:
    def test_covers_every_row_along_its_sign(self):
        d = gen_semidegree_digraph(40, 0.3, np.random.default_rng(5))
        rows = [(0, Sign.PLUS), (0, Sign.MINUS), (1, Sign.PLUS)]
        cols = np.arange(10, 40)
        pairs = match_leaves(d, rows, cols, "test leaves")
        assert sorted(r for r, _h in pairs) == [0, 1, 2]
        assert len({h for _r, h in pairs}) == 3
        for r, host in pairs:
            parent, sign = rows[r]
            assert host in cols and d.adj_row(parent, sign)[host]

    def test_hall_violation_raises(self):
        d = complete(10)
        with pytest.raises(MatchingError, match="test leaves"):
            match_leaves(d, [(0, Sign.PLUS)] * 3, np.array([1, 2]), "test leaves")


class TestRngContract:
    """Pinned embed_spanning maps: a refactor must not move the random stream."""

    @pytest.mark.parametrize(
        "n, family, digest",
        [
            (300, "uniform", "347a67eb1eeb842a229236e6bea0bdb5536fc1c7a8ae54b6859d4e6469d6a6ac"),
            (400, "spider", "7b747cebf410fec0207fb5914f7c6dab653e200c88bffd22d8b2f4e20ae30ca1"),
        ],
    )
    def test_embedding_digest(self, n, family, digest):
        rng = np.random.default_rng(7)
        d = gen_semidegree_digraph(n, 0.25, rng)
        tree = gen_random_tree(n, 3, family, rng)
        emb, _telemetry = embed_spanning(d, tree, spanning_defaults(n, 0.25), rng)
        text = json.dumps(sorted(emb.map.items()))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_embedding_digest_on_a_non_complete_host(self):
        # At alpha = 0.24 the arc probability is 0.98, so some 2-cycles are
        # missing: the mutual-arc matrix and the arc checks have content.
        rng = np.random.default_rng(7)
        d = gen_semidegree_digraph(300, 0.24, rng)
        assert d.num_edges() < 300 * 299
        tree = gen_random_tree(300, 3, "uniform", rng)
        emb, _telemetry = embed_spanning(d, tree, spanning_defaults(300, 0.24), rng)
        text = json.dumps(sorted(emb.map.items()))
        digest = "55dea6bc2b1567d2afa4c68daebf7fa3b716da671cfbf2a2f4c3fa13438ac12d"
        assert hashlib.sha256(text.encode()).hexdigest() == digest
