"""The shared Las Vegas toolkit: failure base, retry loop, host draws, walks, leaf matcher."""

import functools
import gc
import itertools
import hashlib
import json
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spantree import embedder
from spantree.decompose import DecompositionError, decompose
from spantree.digraph import Digraph, Sign, gen_semidegree_digraph
from spantree.embedder import (
    AbsorptionError,
    PhaseFailure,
    _retry,
    build_absorber,
    embed_almost_spanning,
    embed_spanning,
    embed_stars,
)
from spantree.embedding import (
    Embedding,
    PipelineError,
    VerificationError,
    draw_host,
    greedy_walk,
    is_valid_embedding,
)
from spantree.guides import GuideBuildError, GuideRestrictError
from spantree.matching import ForestEmbedError, MatchingError, covering_matching, walk_lean_pieces
from spantree.oracle import TrialConfig, run_single_trial
from spantree.params import ParamSchedule, spanning_defaults
from spantree.trees import (
    FAMILIES,
    OrientedTree,
    PrefixOrdering,
    gen_random_tree,
    max_semidegree,
    prefix_order,
)

from helpers import complete, plain_state


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
            (VerificationError("m"), "verify"),
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

    def test_a_failed_try_is_freed_before_the_next(self):
        # Only the cause and message of a failure are kept: the exception's
        # traceback would hold the failed try's frame and its locals.
        class Held:
            pass

        held, alive = [], []

        def once():
            alive.append(sum(ref() is not None for ref in held))
            local = Held()
            held.append(weakref.ref(local))
            raise GuideBuildError(f"try {len(held)}")

        gc.disable()
        try:
            with pytest.raises(PhaseFailure, match="try 3$"):
                _retry("stars", 3, once)
        finally:
            gc.enable()
        assert alive == [0, 0, 0]

    def test_own_phase_failure_passes_through(self):
        failure = PhaseFailure("almost", "guide-build", "slack too thin to size V1", 1)
        calls, log = [], []

        def once():
            calls.append(1)
            raise failure

        with pytest.raises(PhaseFailure) as info:
            _retry("almost", 5, once, log)
        assert info.value is failure
        assert (calls, log) == ([1], [])

    def test_decompose_failure_ends_the_loop(self):
        errors = iter([GuideBuildError("a"), DecompositionError("no split", ["P1"]), GuideBuildError("c")])
        calls = []

        def once():
            calls.append(1)
            raise next(errors)

        with pytest.raises(PhaseFailure) as info:
            _retry("spanning", 5, once)
        assert (info.value.phase, info.value.cause, info.value.attempts) == ("spanning", "decompose", 2)
        assert str(info.value) == "spanning failed after 2 attempt(s) [decompose]: no split"
        assert len(calls) == 2

    def test_log_holds_one_entry_per_failed_try(self):
        errors = [GuideBuildError("a"), PhaseFailure("paths", "connector-exhausted", "b", 2)]
        log = []

        def once():
            if len(log) < len(errors):
                raise errors[len(log)]
            return "ok"

        assert _retry("almost", 5, once, log) == "ok"
        assert log == [
            ("almost", "guide-build", "a"),
            ("paths", "connector-exhausted", "paths failed after 2 attempt(s) [connector-exhausted]: b"),
        ]

    def test_stuck_leftover_walk_is_one_failed_almost_attempt(self, monkeypatch):
        # The first walk over the leftover leaves is made to get stuck: the
        # almost loop logs it under phase leaves and its next attempt embeds.
        walks = []

        def first_walk_stuck(*args, **kwargs):
            walks.append(1)
            return None if len(walks) == 1 else greedy_walk(*args, **kwargs)

        monkeypatch.setattr(embedder, "greedy_walk", first_walk_stuck)
        rng = np.random.default_rng(0)
        d = gen_semidegree_digraph(300, 0.24, rng)
        tree = pendant_path_tree(240, rng)
        v = int(rng.integers(300))
        assert decompose(tree, 0, spanning_defaults(300, 0.24)).leftovers
        emb, telemetry = embed_almost_spanning(d, tree, 0, v, spanning_defaults(300, 0.24), rng)
        assert is_valid_embedding(d, tree, emb) and emb[0] == v
        assert telemetry == {
            "phase_retries": {"almost": 1},
            "failures": [{"attempt": 0, "phase": "leaves", "cause": "leaf-greedy-fail"}],
        }
        assert len(walks) == 2

    def test_greedy_route_reports_its_failed_tries(self, monkeypatch):
        # A 10-vertex tree takes the greedy route; its first three walks get
        # stuck, and the telemetry has the main route's shape.
        walks = []

        def stuck_three_times(*args, **kwargs):
            walks.append(1)
            return None if len(walks) <= 3 else greedy_walk(*args, **kwargs)

        monkeypatch.setattr(embedder, "greedy_walk", stuck_three_times)
        rng = np.random.default_rng(3)
        d = gen_semidegree_digraph(60, 0.25, rng)
        tree = gen_random_tree(10, 3, "uniform", rng)
        emb, telemetry = embed_almost_spanning(d, tree, 0, 7, spanning_defaults(60, 0.25), rng)
        assert is_valid_embedding(d, tree, emb) and emb[0] == 7
        assert telemetry == {
            "phase_retries": {"almost": 3},
            "failures": [{"attempt": i, "phase": "almost", "cause": "leaf-greedy-fail"} for i in range(3)],
        }
        assert len(walks) == 4

    def test_failed_attempts_free_their_induced_hosts(self, monkeypatch):
        # Every path attachment fails, so each almost attempt induces one V1
        # and fails, and the spanning loop spends its two outer attempts.
        # Each induced host must be freed, by reference counting alone,
        # before the next attempt induces its own.
        hosts, alive = [], []
        induce = Digraph.induce

        def watched_induce(self, vertices):
            alive.append(sum(ref() is not None for ref in hosts))
            sub, labels = induce(self, vertices)
            hosts.append(weakref.ref(sub))
            return sub, labels

        def attach_fails(*args, **kwargs):
            raise PhaseFailure("paths", "connector-exhausted", "forced miss", 1)

        monkeypatch.setattr(Digraph, "induce", watched_induce)
        monkeypatch.setattr(embedder, "attach_path_trees", attach_fails)
        n = 800
        d = gen_semidegree_digraph(n, 0.25, np.random.default_rng(0))
        tree = gen_random_tree(n, 2, "spider", np.random.default_rng(100))
        params = spanning_defaults(n, 0.25).with_updates(retries=3)
        gc.disable()
        try:
            with pytest.raises(PhaseFailure) as info:
                embed_spanning(d, tree, params, np.random.default_rng(200))
        finally:
            gc.enable()
        assert (info.value.phase, info.value.cause) == ("spanning", "connector-exhausted")
        assert len(hosts) == 6 and alive == [0] * 6


class TestGreedyWalk:
    def test_root_honoured_and_hosts_cleared(self):
        d = gen_semidegree_digraph(60, 0.3, np.random.default_rng(1))
        tree = gen_random_tree(20, 3, "uniform", np.random.default_rng(2))
        order = prefix_order(tree, 0)
        free = np.ones(d.n, dtype=bool)
        hosts = greedy_walk(d, order, free, np.random.default_rng(3), placed=[17])
        assert hosts[0] == 17
        assert len(set(hosts.tolist())) == tree.n
        assert not free[hosts].any() and free.sum() == d.n - tree.n
        for i in range(1, tree.n):
            parent = hosts[order.parent_index[i]]
            row = d.adj_row(int(parent), order.sign[i])
            assert row[hosts[i]]

    def test_root_drawn_from_free_and_stop(self):
        d = complete(12)
        order = head(prefix_order(OrientedTree(4, [(0, 1), (1, 2), (1, 3)]), 0), 2)
        free = np.zeros(d.n, dtype=bool)
        free[[3, 5, 7, 9]] = True
        hosts = greedy_walk(d, order, free, np.random.default_rng(0))
        assert len(hosts) == 2 and set(hosts.tolist()) <= {3, 5, 7, 9}
        assert free.sum() == 2

    def test_none_when_stuck(self):
        # 0 -> 1 is the only arc, so an out-path of three vertices from 0 is stuck.
        d = Digraph.from_edges(4, [(0, 1)])
        order = prefix_order(OrientedTree(3, [(0, 1), (1, 2)]), 0)
        assert greedy_walk(d, order, np.ones(4, dtype=bool), np.random.default_rng(0), placed=[0]) is None


def scan_walk(d, order, free, rng, placed=(), stop=None, host_order=None):
    """The greedy walk with a scan on every pick: its candidates are row & free,
    or all of free for an entry past `placed` with no parent."""
    stop = len(order.order) if stop is None else stop
    hosts = [int(h) for h in placed]
    free[hosts] = False
    for i in range(len(hosts), stop):
        j = order.parent_index[i]
        host = draw_host(free if j < 0 else d.adj_row(hosts[j], order.sign[i]) & free, rng, host_order)
        if host is None:
            return None
        hosts.append(host)
        free[host] = False
    return np.array(hosts, dtype=np.int64)


def head(order, k):
    """The ordering of order's first k entries: walking it is walking order up to entry k."""
    return PrefixOrdering(order.order[:k], order.parent_index[:k], order.sign[:k])


def lean_order(tree, root=0):
    """The leaves-last prefix order `walk_lean_pieces` walks a piece in."""
    return prefix_order(tree, root, "leaves_last_middles_consecutive")


def forest_order(*orders):
    """The orderings one after another as one forest ordering: each root keeps parent_index -1."""
    order, parent_index, sign = [], [], []
    for o in orders:
        base = len(order)
        order += [base + v for v in o.order]
        parent_index += [j if j < 0 else base + j for j in o.parent_index]
        sign += o.sign
    return PrefixOrdering(tuple(order), tuple(parent_index), tuple(sign))


def minus_arcs(n, arcs):
    mat = np.ones((n, n), dtype=bool)
    np.fill_diagonal(mat, False)
    for u, w in arcs:
        mat[u, w] = False
    return Digraph(n, mat)


def p_host(n, p, seed):
    mat = np.random.default_rng(seed).random((n, n)) < p
    np.fill_diagonal(mat, False)
    return Digraph(n, mat)


def full_row_brute_force(d, sign):
    return np.array([d.adj_row(v, sign).sum() == d.n - 1 for v in range(d.n)])


class TestWalkAgainstScan:
    """`greedy_walk` takes a complete host's picks from a list of free hosts; every
    pick, the free mask and the RNG state must equal those of the scan on every pick."""

    N = 200
    HOSTS = ("complete", "minus-arcs", "p=0.98", "tight")

    @staticmethod
    @functools.cache
    def host(name):
        n = TestWalkAgainstScan.N
        if name == "complete":
            return complete(n)
        if name == "minus-arcs":   # rows 0, 3, 5, 7 lose out-arcs only; 1, 2, 4, 6 in-arcs only
            return minus_arcs(n, [(0, 1), (3, 2), (5, 4), (7, 6), (0, 150), (3, 199)])
        if name == "p=0.98":
            return p_host(n, 0.98, 4)
        return tight_host(n, 0.1, np.random.default_rng(5))

    def walk_both(self, d, order, free, seed, **kw):
        runs = []
        for walk in (greedy_walk, scan_walk):
            rng, mask = np.random.default_rng(seed), free.copy()
            hosts = walk(d, order, mask, rng, **kw)
            runs.append((None if hosts is None else hosts.tolist(), mask.tolist(),
                         rng.bit_generator.state))
        assert runs[0] == runs[1]
        return runs[0][0]

    def cases(self, d, seeds):
        for seed in seeds:
            for family in ("uniform", "spider", "caterpillar", "path"):
                tree = gen_random_tree(40, 3, family, np.random.default_rng(seed))
                for policy in ("any", "leaves_last_middles_consecutive"):
                    yield seed, prefix_order(tree, seed % tree.n, policy)

    @pytest.mark.parametrize("host", HOSTS)
    def test_picks_free_mask_and_rng_state(self, host):
        d = self.host(host)
        free = np.zeros(d.n, dtype=bool)
        free[np.random.default_rng(9).choice(d.n, 70, replace=False)] = True
        pool = np.flatnonzero(free)
        # 70 ints sit in a table of 128 slots, so hosts above 127 wrap around.
        set_order = np.fromiter(set(pool.tolist()), dtype=np.int64)
        assert (np.diff(set_order) < 0).any()
        for seed, order in self.cases(d, range(3)):
            root = int(pool[seed * 7])
            for host_order in (None, set_order):
                self.walk_both(d, order, free, seed, placed=[root], host_order=host_order)
                self.walk_both(d, order, free, seed, host_order=host_order)
                self.walk_both(d, head(order, 13), free, seed, host_order=host_order)

    def test_scanned_picks_between_full_row_picks(self):
        # Out-rows 0..7 and in-rows 8..15 miss one arc each, so these walks mix
        # picks below full rows and below rows that miss an arc.  The host is
        # not complete, so the walk scans all of them.
        d = minus_arcs(16, [(v, v + 8) for v in range(8)])
        tree = OrientedTree(10, [(i, i + 1) if i % 3 else (i + 1, i) for i in range(9)])
        order = prefix_order(tree, 0)
        mixed = 0
        for seed in range(30):
            hosts = self.walk_both(d, order, np.ones(16, dtype=bool), seed)
            kinds = "".join(
                "F" if d.full_rows(order.sign[i])[hosts[order.parent_index[i]]] else "S"
                for i in range(1, tree.n)
            )
            mixed += re.search("F.*S.*F", kinds) is not None
        assert mixed >= 10

    def test_blocks_cut_by_a_scan_pick(self):
        # Out-rows 0..9 and in-rows 10..19 of 300 hosts miss one arc each, so
        # long stretches of picks below full rows end at a pick below a row
        # that misses an arc, or with the walk.  The host is not complete, so
        # each of these picks takes its own draw.
        n = 300
        d = minus_arcs(n, [(v, v + 10) for v in range(10)])
        free = np.zeros(n, dtype=bool)
        free[np.random.default_rng(3).choice(n, 200, replace=False)] = True
        shuffled = np.random.default_rng(4).permutation(np.flatnonzero(free))   # not ascending
        rewound = stopped_in_run = 0
        for seed in range(8):
            for family in ("uniform", "spider", "caterpillar"):
                order = prefix_order(gen_random_tree(180, 3, family, np.random.default_rng(seed)), 0)
                for host_order in (None, shuffled):
                    for walked in (order, head(order, 121)):
                        hosts = self.walk_both(d, walked, free, seed, host_order=host_order)
                        if hosts is None:
                            continue
                        kinds = "".join(
                            "F" if d.full_rows(order.sign[i])[hosts[order.parent_index[i]]] else "S"
                            for i in range(1, len(hosts))
                        )
                        rewound += "FS" in kinds
                        stopped_in_run += walked is not order and kinds.endswith("FF")
        assert rewound >= 60 and stopped_in_run >= 30, (rewound, stopped_in_run)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
                                               np.random.SFC64, np.random.MT19937], ids=lambda bg: bg.__name__)
    def test_every_bit_generator(self, bit_generator):
        # The scanning picks of a host that is not complete and the one run of
        # picks of a complete host, with and without a pending 32-bit half, on
        # each generator the reader serves.
        n = 300
        free = np.zeros(n, dtype=bool)
        free[np.random.default_rng(3).choice(n, 200, replace=False)] = True
        shuffled = np.random.default_rng(4).permutation(np.flatnonzero(free))
        kinds = set()
        for d, seed, family in itertools.product((minus_arcs(n, [(v, v + 10) for v in range(10)]), complete(n)),
                                                 range(3), ("uniform", "spider", "caterpillar")):
            order = prefix_order(gen_random_tree(180, 3, family, np.random.default_rng(seed)), 0)
            for host_order, walked, pending in itertools.product((None, shuffled), (order, head(order, 121)),
                                                                 (False, True)):
                runs = []
                for walk in (greedy_walk, scan_walk):
                    rng, mask = np.random.Generator(bit_generator(seed)), free.copy()
                    if pending:
                        rng.integers(7)
                    hosts = walk(d, walked, mask, rng, host_order=host_order)
                    runs.append((None if hosts is None else hosts.tolist(), mask.tolist(),
                                 plain_state(rng.bit_generator.state), rng.random()))
                assert runs[0] == runs[1]
                hosts = runs[0][0] or []
                kinds.add("".join(
                    "F" if d.full_rows(order.sign[i])[hosts[order.parent_index[i]]] else "S"
                    for i in range(1, len(hosts))))
        assert any("FS" in k for k in kinds) and any("SF" in k for k in kinds)

    @pytest.mark.parametrize("host", HOSTS)
    def test_ascending_orders(self, host):
        # An ascending order over every free host reads as no order; one that
        # leaves free hosts out still confines the picks to its own hosts.
        d = self.host(host)
        free = np.zeros(d.n, dtype=bool)
        free[np.random.default_rng(8).choice(d.n, 90, replace=False)] = True
        pool = np.flatnonzero(free)
        for seed, order in self.cases(d, range(2)):
            for host_order in (pool, np.arange(d.n), pool[::2], pool[5:]):
                hosts = self.walk_both(d, order, free, seed, placed=[int(pool[seed])], host_order=host_order)
                if hosts is not None and len(host_order) < len(pool):
                    assert set(hosts[1:]) <= set(host_order.tolist())

    @pytest.mark.parametrize("host", HOSTS)
    def test_forests_after_a_placed_prefix(self, host):
        # A 40-vertex tree, then a second root and its 20-vertex tree.  The
        # first k entries are placed; the walk draws the rest, the second root
        # from all of free.  50 free hosts cannot hold the whole forest.
        d = self.host(host)
        gen = np.random.default_rng(9)
        counts = {"second root": 0, "stuck": 0}
        for size in (70, 50):
            free = np.zeros(d.n, dtype=bool)
            free[gen.choice(d.n, size, replace=False)] = True
            set_order = np.fromiter(set(np.flatnonzero(free).tolist()), dtype=np.int64)
            for seed, first in self.cases(d, range(2)):
                second = prefix_order(gen_random_tree(20, 3, "uniform", np.random.default_rng(50 + seed)), 0)
                forest = forest_order(first, second)
                for k in (1, 5, len(first)):
                    prefix = scan_walk(d, forest, free.copy(), np.random.default_rng(100 + seed), stop=k)
                    if prefix is None:
                        continue
                    for host_order in (None, set_order):
                        for walked in (forest, head(forest, len(first) + 1)):
                            hosts = self.walk_both(d, walked, free, seed, placed=prefix.tolist(),
                                                   host_order=host_order)
                            counts["stuck"] += hosts is None
                            counts["second root"] += hosts is not None and len(hosts) > len(first)
        assert counts["second root"] >= 200 and counts["stuck"] >= 50, counts

    @pytest.mark.parametrize("host", HOSTS)
    def test_stuck_walks_draw_nothing_more(self, host):
        d = self.host(host)
        for seed, order in self.cases(d, range(2)):
            free = np.zeros(d.n, dtype=bool)
            free[np.random.default_rng(seed).choice(d.n, 30, replace=False)] = True
            assert self.walk_both(d, order, free, seed) is None

    def test_full_rows_of_an_induced_host(self):
        d = self.host("minus-arcs")
        keep = np.array([0, 1, 2, 3, 5, 7, 8, 9, 40, 150])   # drops heads 4, 6 and 199
        sub, labels = d.induce(keep)
        for sign in (Sign.PLUS, Sign.MINUS):
            assert sub.full_rows(sign).tolist() == full_row_brute_force(sub, sign).tolist()
            assert d.full_rows(sign).tolist() == full_row_brute_force(d, sign).tolist()
            with pytest.raises(ValueError):
                sub.full_rows(sign)[0] = True
        # 5 -> 4 and 7 -> 6 leave the induced host: rows 5 and 7 become full.
        assert not d.full_rows(Sign.PLUS)[[0, 3, 5, 7]].any()
        assert sub.full_rows(Sign.PLUS)[labels.tolist().index(5)]
        assert sub.full_rows(Sign.PLUS).sum() == len(keep) - 2   # 0 and 3 lose arcs inside
        for seed, order in self.cases(sub, range(2)):
            self.walk_both(sub, head(order, len(keep)), np.ones(sub.n, dtype=bool), seed)


class TestMatchLeaves:
    """The one leaf matcher: the leaf batch of `walk_lean_pieces`."""

    def test_covers_every_row_along_its_sign(self):
        d = gen_semidegree_digraph(40, 0.3, np.random.default_rng(5))
        star = OrientedTree(4, [(0, 1), (2, 0), (0, 3)])
        free = np.zeros(d.n, dtype=bool)
        free[10:] = True
        (m,) = walk_lean_pieces(d, [(lean_order(star), None)], free, np.random.default_rng(0), "test leaves")
        assert len(set(m.tolist())) == 4 and all(10 <= h < 40 for h in m.tolist())
        assert not free[m].any()
        for u, w in star.edge_list:
            assert d.has_edge(m[u], m[w])

    def test_hall_violation_raises(self):
        # The root takes one of three free hosts; its three leaves have two left.
        free = np.zeros(10, dtype=bool)
        free[[1, 2, 3]] = True
        star = OrientedTree(4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(MatchingError, match="test leaves") as info:
            walk_lean_pieces(complete(10), [(lean_order(star), None)], free, np.random.default_rng(0), "test leaves")
        assert info.value.violator.tolist() == [0, 1, 2]


class TestDrawHost:
    def test_ascending_by_default(self):
        mask = np.zeros(20, dtype=bool)
        mask[[17, 2, 11, 5]] = True
        for seed in range(5):
            expected = [2, 5, 11, 17][np.random.default_rng(seed).integers(4)]
            assert draw_host(mask, np.random.default_rng(seed)) == expected

    def test_explicit_order_honoured(self):
        mask = np.zeros(20, dtype=bool)
        mask[[17, 2, 11, 5]] = True
        order = np.array([11, 3, 17, 2, 5, 8])
        for seed in range(5):
            expected = [11, 17, 2, 5][np.random.default_rng(seed).integers(4)]
            assert draw_host(mask, np.random.default_rng(seed), order) == expected

    def test_none_on_empty_mask_without_drawing(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        assert draw_host(np.zeros(8, dtype=bool), rng) is None
        assert draw_host(np.zeros(8, dtype=bool), rng, np.arange(8)) is None
        assert rng.bit_generator.state == state

    def test_same_host_as_a_list_pick_over_a_shrinking_set(self):
        # A scan of a Python set, as a draw over the order read from that set.
        n = 400
        gen = np.random.default_rng(11)
        hosts = set(int(x) for x in gen.choice(n, size=150, replace=False))
        order = np.fromiter(hosts, dtype=np.int64)
        alive = np.zeros(n, dtype=bool)
        alive[order] = True
        old_rng, new_rng = np.random.default_rng(5), np.random.default_rng(5)
        for _step in range(100):
            row = gen.random(n) < 0.6
            candidates = [w for w in hosts if row[w]]
            host = draw_host(row & alive, new_rng, order)
            if not candidates:
                assert host is None
                continue
            assert host == int(candidates[int(old_rng.integers(len(candidates)))])
            hosts.discard(host)
            alive[host] = False


class TestSetOrderContract:
    """The contract `draw_host` states for replaying scans of a Python set."""

    @settings(max_examples=200, deadline=None)
    @given(
        hosts=st.lists(st.integers(0, 5000), min_size=1, max_size=300, unique=True),
        data=st.data(),
    )
    def test_filtered_scan_equals_filtered_order_after_discards(self, hosts, data):
        n = 5001
        live = set(int(h) for h in hosts)
        order = np.fromiter(live, dtype=np.int64)
        alive = np.zeros(n, dtype=bool)
        alive[order] = True
        for w in data.draw(st.lists(st.sampled_from(hosts), unique=True)):
            live.discard(w)
            alive[w] = False
        row = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random(n) < 0.5
        assert [w for w in live if row[w]] == order[row[order] & alive[order]].tolist()


class TestWalkLeanPieces:
    def test_roots_follow_attach_rows_and_leaves_are_matched(self):
        d = gen_semidegree_digraph(80, 0.3, np.random.default_rng(4))
        trees = [OrientedTree(4, [(0, 1), (1, 2), (3, 1)]), OrientedTree(1, []), OrientedTree(2, [(1, 0)])]
        attach = [(0, Sign.PLUS), (1, Sign.MINUS), None]
        free = np.ones(d.n, dtype=bool)
        free[[0, 1]] = False
        pieces = [(lean_order(tree), a) for tree, a in zip(trees, attach)]
        maps = walk_lean_pieces(d, pieces, free, np.random.default_rng(6), "test leaves")
        used = [h for m in maps for h in m.tolist()]
        assert len(set(used)) == 7 and not free[used].any() and free.sum() == d.n - 9
        assert d.adj_row(0, Sign.PLUS)[maps[0][0]] and d.adj_row(1, Sign.MINUS)[maps[1][0]]
        for tree, m in zip(trees, maps):
            assert len(m) == tree.n
            for u, w in tree.edge_list:
                assert d.has_edge(m[u], m[w])

    def test_host_order_replays_set_scans(self):
        # With an order read from a set, the root pick is the list pick over that set.
        d = complete(30)
        pool = set(range(10, 30))
        order = np.fromiter(pool, dtype=np.int64)
        free = np.zeros(d.n, dtype=bool)
        free[order] = True
        (m,) = walk_lean_pieces(
            d, [(lean_order(OrientedTree(1, [])), (0, Sign.PLUS))], free, np.random.default_rng(2),
            "test leaves", host_order=order,
        )
        assert m[0] == list(pool)[np.random.default_rng(2).integers(len(pool))]

    def test_host_order_replays_unordered_set_scans(self):
        # {1, 8, 16} iterates out of ascending order; host 0's full out-row
        # takes the root pick through the walk's list of free hosts.
        d = complete(30)
        pool = {1, 8, 16}
        assert list(pool) != sorted(pool)
        order = np.fromiter(pool, dtype=np.int64)
        picks = set()
        for seed in range(12):
            free = np.zeros(d.n, dtype=bool)
            free[order] = True
            (m,) = walk_lean_pieces(
                d, [(lean_order(OrientedTree(1, [])), (0, Sign.PLUS))], free, np.random.default_rng(seed),
                "test leaves", host_order=order,
            )
            assert m[0] == list(pool)[np.random.default_rng(seed).integers(len(pool))]
            picks.add(int(m[0]))
        assert picks == pool

    def test_stuck_walk_is_a_leaf_greedy_fail(self):
        d = Digraph.from_edges(4, [(0, 1)])
        with pytest.raises(ForestEmbedError) as info:
            walk_lean_pieces(
                d, [(lean_order(OrientedTree(2, [(0, 1)])), (2, Sign.PLUS))], np.ones(4, dtype=bool),
                np.random.default_rng(0), "test leaves",
            )
        assert info.value.cause == "leaf-greedy-fail"

    def test_unmatched_leaves_raise_matching_error(self):
        # Three leaves hang on a root whose out-neighbourhood is two hosts.
        d = Digraph.from_edges(5, [(0, 1), (0, 2), (3, 0)])
        star = OrientedTree(4, [(0, 1), (0, 2), (0, 3)])
        free = np.ones(5, dtype=bool)
        free[3] = False
        with pytest.raises(MatchingError, match="test leaves"):
            walk_lean_pieces(d, [(lean_order(star), (3, Sign.PLUS))], free, np.random.default_rng(0), "test leaves")


def per_piece_walks(d, pieces, free, rng, what, host_order=None):
    """`walk_lean_pieces` as a loop over the pieces: a root draw from the attach
    row, then a scanning walk of the piece up to its first leaf; every leaf's
    row is then read by `adj_row` for one covering matching."""
    images, leaf_rows, leaf_slots = [], [], []
    for k, (order, attach) in enumerate(pieces):
        stop = next((i for i in range(1, len(order)) if i not in order.parent_index), len(order))
        root = draw_host(free if attach is None else d.adj_row(*attach) & free, rng, host_order)
        hosts = None if root is None else scan_walk(d, order, free, rng, [root], stop, host_order)
        if hosts is None:
            raise ForestEmbedError(f"{what}: greedy walk stuck on piece {k}", cause="leaf-greedy-fail")
        images.append(np.concatenate((hosts, np.full(len(order) - stop, -1))))
        for i in range(stop, len(order)):
            leaf_rows.append(d.adj_row(int(hosts[order.parent_index[i]]), order.sign[i]))
            leaf_slots.append((k, i))
    if leaf_rows:
        cols = np.flatnonzero(free)
        matched = cols[covering_matching(np.array([row[cols] for row in leaf_rows]), what)]
        for (k, i), host in zip(leaf_slots, matched.tolist()):
            images[k][i] = host
        free[matched] = False
    return images


class TestOneLeanWalk:
    """`walk_lean_pieces` places every piece in one greedy walk; its hosts, free
    mask, failure and RNG state are those of the loop over the pieces."""

    HOSTS = TestWalkAgainstScan.HOSTS

    def run_both(self, d, pieces, free, seed, host_order):
        runs = []
        for walk in (walk_lean_pieces, per_piece_walks):
            rng, mask = np.random.default_rng(seed), free.copy()
            try:
                got = [m.tolist() for m in walk(d, pieces, mask, rng, "test leaves", host_order)]
            except PipelineError as exc:
                got = (type(exc).__name__, exc.cause, str(exc))
            runs.append((got, mask.tolist(), rng.bit_generator.state))
        assert runs[0] == runs[1]
        return runs[0][0]

    def pieces(self, d, seed, attached):
        rng = np.random.default_rng(seed)
        attach = rng.choice(d.n, 8, replace=False)
        pieces = []
        for _ in range(12):
            size = int(rng.integers(1, 9))
            tree = gen_random_tree(size, 3, ("uniform", "spider", "path")[size % 3], rng)
            a = (int(attach[rng.integers(8)]), Sign.PLUS if rng.random() < 0.5 else Sign.MINUS)
            pieces.append((lean_order(tree, int(rng.integers(size))), a if attached else None))
        return attach, pieces

    @pytest.mark.parametrize("host", HOSTS)
    @pytest.mark.parametrize("attached", [True, False])
    def test_same_hosts_free_mask_and_rng_state(self, host, attached):
        d = TestWalkAgainstScan.host(host)
        outcomes = []
        for seed in range(6):
            attach, pieces = self.pieces(d, seed, attached)
            for size in (120, 60, 45, 20):   # the pieces hold about 54 vertices
                free = np.zeros(d.n, dtype=bool)
                free[np.random.default_rng(seed + 50).choice(d.n, size, replace=False)] = True
                free[attach] = False
                pool = np.flatnonzero(free)
                set_order = np.fromiter(set(pool.tolist()), dtype=np.int64)
                for host_order in (None, pool, set_order):
                    got = self.run_both(d, pieces, free, seed, host_order)
                    outcomes.append(got[0] if type(got) is tuple else "embedded")
        assert {"embedded", "MatchingError", "ForestEmbedError"} <= set(outcomes)

    def test_a_block_spans_pieces(self):
        # On the complete host every pick has a full row: the one walk draws
        # all the pieces' picks in one block, the loop one block per piece.
        d = TestWalkAgainstScan.host("complete")
        for seed in range(4):
            attach, pieces = self.pieces(d, seed, True)
            free = np.ones(d.n, dtype=bool)
            free[attach] = False
            assert len(pieces) > 1
            self.run_both(d, pieces, free, seed, None)

    def test_scans_interleave_with_full_row_picks(self):
        # Out-rows 0..7 and in-rows 8..15 miss one arc each: the attach hosts
        # 0 and 8 miss an arc, and picks below them mix full rows and rows that miss one.
        d = minus_arcs(60, [(v, v + 8) for v in range(8)] + [(16, 8)])
        kinds = set()
        for seed in range(10):
            rng = np.random.default_rng(seed)
            pieces = [(lean_order(gen_random_tree(6, 3, "uniform", rng)), (a, s))
                      for a, s in ((0, Sign.PLUS), (8, Sign.MINUS), (20, Sign.PLUS), (0, Sign.MINUS))]
            free = np.ones(d.n, dtype=bool)
            free[[0, 8, 20]] = False
            maps = self.run_both(d, pieces, free, seed, None)
            for (order, _attach), hosts in zip(pieces, maps):
                kinds |= {bool(d.full_rows(order.sign[i])[hosts[order.parent_index[i]]])
                          for i in range(1, len(order))}
        assert kinds == {True, False}

    def test_stuck_walk_names_its_piece(self):
        # Host 1 has out-arcs to 2 and 3 only: the third piece's root finds no host.
        d = Digraph.from_edges(8, [(0, v) for v in range(2, 8)] + [(1, 2), (1, 3)])
        leaf = lean_order(OrientedTree(1, []))
        pieces = [(leaf, (1, Sign.PLUS)), (leaf, (0, Sign.PLUS)), (leaf, (1, Sign.PLUS)), (leaf, (1, Sign.PLUS))]
        free = np.ones(8, dtype=bool)
        free[[0, 1]] = False
        got = self.run_both(d, pieces, free, 0, None)
        assert got == ("ForestEmbedError", "leaf-greedy-fail", "test leaves: greedy walk stuck on piece 3")


class TestZeroRetryBudget:
    """A zero retry budget is rejected once, where the schedule is built."""

    def test_schedule_rejects_zero_retries(self):
        with pytest.raises(ValueError, match="retry budget must be at least 1, got 0"):
            ParamSchedule(retries=0)
        assert not any("retry" in w for w in ParamSchedule(retries=1).validate())

    def test_almost_spanning_never_sees_zero_retries(self):
        rng = np.random.default_rng(3)
        d = gen_semidegree_digraph(120, 0.25, rng)
        tree = gen_random_tree(96, 3, "uniform", rng)
        with pytest.raises(ValueError, match="retry budget"):
            embed_almost_spanning(d, tree, 0, 5, spanning_defaults(120, 0.25).with_updates(retries=0), rng)

    def test_absorber_never_sees_zero_retries(self):
        rng = np.random.default_rng(3)
        d = gen_semidegree_digraph(120, 0.25, rng)
        tree = gen_random_tree(45, 3, "uniform", rng).with_t(0)
        with pytest.raises(ValueError, match="retry budget"):
            build_absorber(d, tree, 0, spanning_defaults(120, 0.25).with_updates(retries=0), rng)

    def test_guide_restrict_trial_never_sees_zero_retries(self):
        with pytest.raises(ValueError, match="retry budget"):
            run_single_trial(TrialConfig(target="guide-restrict", n=80, schedule=ParamSchedule(retries=0)), 1)
        report = run_single_trial(TrialConfig(target="guide-restrict", n=80, schedule=ParamSchedule(retries=1)), 1)
        assert report.retries <= 1 and (report.success or report.failure_cause)


class TestScheduleValidation:
    def test_each_warning(self):
        bad = ParamSchedule(alpha=0.5, c=0.0, lam=0.03, mu=0.02, k=400, K=400)
        assert bad.validate() == [
            "alpha=0.5 outside (0, 1/2)",
            "c=0.0 outside (0, 1]",
            "k=400 >= K=400",
            "lam=0.03 > mu=0.02",
        ]

    @pytest.mark.parametrize("n", [200, 800, 2000])
    @pytest.mark.parametrize("alpha", [0.15, 0.25])
    def test_default_schedules_validate_clean(self, n, alpha):
        assert spanning_defaults(n, alpha).validate() == []
        assert spanning_defaults(n, alpha).validate() == []


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


class TestAlmostRngContract:
    """Pinned embed_almost_spanning maps: every host-draw site keeps its stream."""

    @pytest.mark.parametrize(
        "family, digest",
        [
            ("uniform", "b6f22f4dc6f151213c93bb6ba286f99c853311a18d72f51f9c86843e02ad09d8"),
            # Caterpillars also reach the path connectors and the leftover leaves.
            ("caterpillar", "d0b0bda563a99a92b00f489e73f0659ebc0bf652261d544d129acd1c0721c811"),
        ],
    )
    def test_almost_spanning_digest(self, family, digest):
        rng = np.random.default_rng(7)
        d = gen_semidegree_digraph(300, 0.24, rng)
        tree = gen_random_tree(240, 3, family, rng)
        v = int(rng.integers(300))
        emb, _telemetry = embed_almost_spanning(d, tree, 0, v, spanning_defaults(300, 0.24), rng)
        text = json.dumps(sorted(emb.map.items()))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "family, max_semideg, n, digests",
        [
            # Spiders with three out-legs per side strip down to no pieces at n = 300.
            ("spider", 2, 300, ("32a5cfacd3fe5efb", "375341a0cba3590a", "91f56255deec4f8f")),
            ("spider", 2, 800, ("a9a4d29e67046669", "42416db1d9d12570", "c145842e52def844")),
            ("path", 3, 300, ("279a6119688796d9", "87e39096d7cb14da", "e594cb8abea5e8ea")),
            ("path", 3, 800, ("d37555ab905dd629", "a5c19a12bafe331c", "2801c4188467289a")),
            ("caterpillar", 3, 300, ("4fb8f740456bbe41", "89f3b11ca188e483", "486b3f8930fb715f")),
            ("caterpillar", 3, 800, ("d811bf7944cecc7f", "b32080081d5ba5bc", "0188cb84351536ac")),
            ("broom", 3, 300, ("6f45ddcfca19f9c3", "75a314f1466b99ba", "d769d7f0802940a2")),
            ("broom", 3, 800, ("b5549a1bc878e19e", "c47903b4c094e722", "df260978384da5d2")),
        ],
    )
    def test_piece_heavy_digests(self, family, max_semideg, n, digests):
        # Trees whose decomposition has path pieces, so the path connectors
        # and the piece bodies' forest draws are pinned too.
        params = spanning_defaults(n, 0.24)
        for seed, digest in enumerate(digests):
            rng = np.random.default_rng(seed)
            d = gen_semidegree_digraph(n, 0.24, rng)
            tree = gen_random_tree(4 * n // 5, max_semideg, family, rng)
            v = int(rng.integers(n))
            assert decompose(tree, 0, params).pieces
            emb, _telemetry = embed_almost_spanning(d, tree, 0, v, params, rng)
            text = json.dumps(sorted(emb.map.items()))
            assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, seed

    def test_two_level_leftover_digests(self):
        # Pendant two-vertex paths hung on piece mids are leftover components
        # of two levels, so the leftover walk's second level is pinned too.
        params = spanning_defaults(300, 0.24)
        for seed, digest in enumerate(("d7a2dc9c6e5cf1ce", "7a05d09fc34e9a13", "2f93982980800acb")):
            rng = np.random.default_rng(seed)
            d = gen_semidegree_digraph(300, 0.24, rng)
            tree = pendant_path_tree(240, rng)
            v = int(rng.integers(300))
            td = decompose(tree, 0, params)
            assert any(mid not in tree.nbrs(u) for mid, comp in td.leftovers.items() for u in comp)
            emb, _telemetry = embed_almost_spanning(d, tree, 0, v, params, rng)
            text = json.dumps(sorted(emb.map.items()))
            assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, seed


def pendant_path_tree(size, rng):
    """A path on the first size // 2 ids with two-vertex paths hung on about
    half its vertices, the rest extending the last vertex; arcs flipped at random."""
    edges = [(i, i + 1) for i in range(size // 2 - 1)]
    for a in range(size // 2):
        if len(edges) + 3 <= size and rng.random() < 0.5:
            edges += [(a, len(edges) + 1), (len(edges) + 1, len(edges) + 2)]
    edges += [(i - 1, i) for i in range(len(edges) + 1, size)]
    flip = rng.random(len(edges)) < 0.5
    return OrientedTree(size, [(w, u) if f else (u, w) for (u, w), f in zip(edges, flip)], t=0)


# First 16 hex digits of the sha256 of each embed_spanning map, or of
# "fail:<cause>" for a PhaseFailure, at host seeds 0-2 (tree seeds 100-102,
# call seeds 200-202).
SPANNING_DIGESTS = {
    ("uniform", 300, 0.24): ("645bce2930cc74bb", "ae062877efcdd5f1", "3f9ce8bd592d344e"),
    ("uniform", 300, 0.25): ("c2e9eecdfd5f646a", "bd8e7ebdaeeb6c72", "249f641d85c364cf"),
    ("uniform", 800, 0.24): ("6cded7df0323360d", "9d126c1b6d4968be", "035dddc89ccd2429"),
    ("uniform", 800, 0.25): ("6ecec89f939b9d07", "1ee88f0e0d25ce8f", "a1a00c5358b502c3"),
    ("path", 300, 0.24): ("d88ebbd012424a33", "33aac3119f140457", "0da539c9a2ed4123"),
    ("path", 300, 0.25): ("d8651de2cc3c330c", "dcafd07cbdc97cce", "d1b8cef05dba97df"),
    ("path", 800, 0.24): ("e66c623b5e140c8e", "8d29ca07f7eefbb8", "76ac9408d39cb568"),
    ("path", 800, 0.25): ("0cc5a6abd4c02717", "c10b61330e1340d3", "2612e233bda66227"),
    ("star", 300, 0.24): ("99b5eb33a1bdfc6f", "99b5eb33a1bdfc6f", "99b5eb33a1bdfc6f"),
    ("star", 300, 0.25): ("bb7e1b02e5b482db", "6bcd9938fc6bc600", "a1ce270cd8567388"),
    ("star", 800, 0.24): ("99b5eb33a1bdfc6f", "99b5eb33a1bdfc6f", "99b5eb33a1bdfc6f"),
    ("star", 800, 0.25): ("a84d80804f782dd4", "709ce17968eaf7d0", "2cb9a136c2d19d2f"),
    ("caterpillar", 300, 0.24): ("2d842dee47bdeaad", "f9cebbc36c70e561", "7d885f4878791b13"),
    ("caterpillar", 300, 0.25): ("2f03481e2f02bb80", "483492727f5ef037", "7d885f4878791b13"),
    ("caterpillar", 800, 0.24): ("7de8f9c98d9bd1fc", "febdc2a48d387a9f", "54e79254a82dd3fc"),
    ("caterpillar", 800, 0.25): ("8c378beedd2e09d9", "45c1536c3a7317a9", "0b74910947eebdb7"),
    ("spider", 300, 0.24): ("4bf4cf7dd528bbef", "8c54fdd40e3cb96f", "32f6e01cb366e250"),
    ("spider", 300, 0.25): ("53ee56b98e6491d2", "32e277b4b575e1dc", "1eabebf038b88a9a"),
    ("spider", 800, 0.24): ("35ade5af748c7521", "420cfea104657046", "9a508054f7c103bd"),
    ("spider", 800, 0.25): ("8f31f8853263d3ba", "16d719e8b43a2f3a", "6269f16519e87125"),
    ("broom", 300, 0.24): ("470abfd0188933ea", "d43d248ac02120b6", "b7e5ac9278ae3abd"),
    ("broom", 300, 0.25): ("463d4f55c76cba55", "68d82809ad721ec4", "62cdfcafe2b971f8"),
    ("broom", 800, 0.24): ("a776ff68af66d09d", "c5bd789ddd50764d", "64b280a6f54e69f8"),
    ("broom", 800, 0.25): ("8c9b2f4fd06a82c6", "5468b55789220a70", "6f7010ce57a13df8"),
}


class TestSpanningRngContract:
    """Pinned embed_spanning maps on every family: a pure-speed change keeps them."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_spanning_digests(self, family):
        for n in (300, 800):
            for alpha in (0.24, 0.25):
                got = []
                for seed in range(3):
                    d = gen_semidegree_digraph(n, alpha, np.random.default_rng(seed))
                    tree = gen_random_tree(
                        n, n - 1 if family == "star" else 3, family, np.random.default_rng(100 + seed)
                    )
                    params = spanning_defaults(n, alpha)
                    top = max(max_semidegree(tree))
                    if top > 3:
                        params = params.with_updates(max_tree_semidegree=top)
                    try:
                        emb, _telemetry = embed_spanning(d, tree, params, np.random.default_rng(200 + seed))
                        text = json.dumps(sorted(emb.map.items()))
                    except PhaseFailure as exc:
                        text = f"fail:{exc.cause}"
                    got.append(hashlib.sha256(text.encode()).hexdigest()[:16])
                assert tuple(got) == SPANNING_DIGESTS[family, n, alpha], (n, alpha)

    def test_reference_call_at_n_4000(self):
        # The scaling record's reference call: its certificate, V1 gather and
        # leaf batches cross many seams of ROW_BLOCK rows, which n <= 800 barely do.
        n = 4000
        d = gen_semidegree_digraph(n, 0.25, np.random.default_rng(1))
        tree = gen_random_tree(n, 3, "uniform", np.random.default_rng(2))
        emb, _telemetry = embed_spanning(d, tree, spanning_defaults(n, 0.25), np.random.default_rng(2))
        text = json.dumps(sorted(emb.map.items()))
        assert hashlib.sha256(text.encode()).hexdigest()[:12] == "e57a01e2b289"


def backward_path_host(n):
    """Every host arc runs i -> i-1."""
    return Digraph.from_edges(n, [(i, i - 1) for i in range(1, n)])


def identity(n):
    emb = Embedding()
    for v in range(n):
        emb.assign(v, v)
    return emb


class TestAlmostFailureReports:
    def test_anchor_outside_the_host_is_rejected(self):
        rng = np.random.default_rng(3)
        d = gen_semidegree_digraph(60, 0.25, rng)
        tree = gen_random_tree(40, 3, "uniform", rng)
        params = spanning_defaults(60, 0.25)
        for v in (60, -1):
            with pytest.raises(ValueError, match="outside 0..59"):
                embed_almost_spanning(d, tree, 0, v, params, rng)
            with pytest.raises(ValueError, match="outside 0..59"):
                embed_stars(d, tree, {0}, [], 0, v, params, rng)

    def test_pool_outside_its_contract_is_rejected(self):
        rng = np.random.default_rng(3)
        d = gen_semidegree_digraph(200, 0.25, rng)
        tree = gen_random_tree(150, 3, "uniform", rng)
        ids = np.arange(200)
        for pool, entry in (
            (np.r_[0, ids[:-1]], "entry 1 is 0"),        # an id given twice
            (np.r_[ids[1:], 200], "entry 199 is 200"),   # an id past the host
            (np.r_[-1, ids[1:]], "entry 0 is -1"),       # a negative id
            (ids[::-1].copy(), "entry 1 is 198"),        # descending
        ):
            with pytest.raises(ValueError, match=f"^pool must be ascending distinct ids in 0..199: {entry}$"):
                embed_almost_spanning(d, tree, 0, 5, spanning_defaults(200, 0.25), rng, pool)

    def test_greedy_walk_reports_its_whole_budget(self):
        # A forward path cannot leave host 2 along arcs i -> i-1 for 5 steps.
        tree = OrientedTree(6, [(i, i + 1) for i in range(5)], t=0)
        params = spanning_defaults(16, 0.25).with_updates(retries=4)
        with pytest.raises(PhaseFailure) as info:
            embed_almost_spanning(backward_path_host(16), tree, 0, 2, params, np.random.default_rng(1))
        assert info.value.attempts == 4
        assert str(info.value) == "almost failed after 4 attempt(s) [leaf-greedy-fail]: greedy walk stuck"

    def test_anchor_never_landing_in_v1_is_reported_once(self, monkeypatch):
        rng = np.random.default_rng(3)
        d = gen_semidegree_digraph(120, 0.25, rng)
        tree = gen_random_tree(96, 3, "uniform", rng)
        v = 5

        def without_anchor(d, sizes, rng, pool, v, draws):
            return None   # no partition of the budget put v in the first part

        monkeypatch.setattr(embedder, "_parts_holding", without_anchor)
        params = spanning_defaults(120, 0.25).with_updates(retries=3)
        with pytest.raises(PhaseFailure) as info:
            embed_almost_spanning(d, tree, 0, v, params, rng)
        assert (info.value.cause, info.value.attempts) == ("guide-build", 3)
        assert str(info.value) == "almost failed after 3 attempt(s) [guide-build]: anchor never landed in V1"


def tight_host(n, alpha, rng):
    """gen_semidegree_digraph's draw at arc probability 1/2 + alpha, not
    min(1, 1/2 + 2 alpha), then its repair up to semidegree (1/2 + alpha) n."""
    target = int(np.ceil((0.5 + alpha) * n))
    mat = np.empty((n, n), dtype=bool)
    for start in range(0, n, 256):
        block = mat[start : start + 256]
        np.less(rng.random(block.shape), 0.5 + alpha, out=block)
    np.fill_diagonal(mat, False)
    for lines in (mat, mat.T):   # out-degrees, then in-degrees
        for v in range(n):
            deficit = target - int(lines[v].sum())
            if deficit > 0:
                missing = np.flatnonzero(~lines[v])
                lines[v, rng.choice(missing[missing != v], size=deficit, replace=False)] = True
    return Digraph(n, mat)


class TestPathSizingMiss:
    def test_tight_caterpillar_seed_7_embeds(self):
        # The forest pool of the path layer once came out two vertices short
        # here and raised ValueError; the almost loop now answers the paths
        # failure by moving slack out of V1 and succeeds.
        n, alpha = 1000, 0.25
        d = tight_host(n, alpha, np.random.default_rng(1007))
        tree = gen_random_tree(n, 3, "caterpillar", np.random.default_rng(2007))
        emb, telemetry = embed_spanning(d, tree, spanning_defaults(n, alpha), np.random.default_rng(3007))
        assert is_valid_embedding(d, tree, emb) and len(emb.used) == n
        failures = telemetry["phases"]["almost"]["failures"]
        assert {"attempt": 2, "phase": "paths", "cause": "guide-build"} in failures


class TestNegativeGuideAlpha:
    def test_star_layout_below_zero_still_embeds(self, monkeypatch):
        # The whole host has semidegree (1/2 + 0.05) n, but the star layout
        # measures its guide alpha on the induced V1, here below zero; the
        # guides take it as given instead of rejecting alpha <= 0.
        alphas = []

        def recorded(*args):
            layout = star_layout(*args)
            alphas.append(layout.alpha_hat)
            return layout

        star_layout = embedder._star_layout
        monkeypatch.setattr(embedder, "_star_layout", recorded)
        d = tight_host(400, 0.05, np.random.default_rng(1000))
        tree = gen_random_tree(320, 3, "path", np.random.default_rng(2000))
        emb, _telemetry = embed_almost_spanning(d, tree, 0, 5, spanning_defaults(400, 0.05),
                                                np.random.default_rng(3000))
        assert is_valid_embedding(d, tree, emb) and emb[0] == 5
        assert alphas and min(alphas) < 0


class TestVerificationError:
    """Library postconditions raise VerificationError, with or without assert statements."""

    def test_almost_spanning_greedy_map_with_a_reversed_arc(self, monkeypatch):
        monkeypatch.setattr(embedder, "greedy_walk", lambda d, order, *rest, **kw: np.asarray(order.order))
        tree = OrientedTree(4, [(0, 1), (1, 2), (2, 3)], t=0)
        with pytest.raises(VerificationError) as info:
            embed_almost_spanning(backward_path_host(12), tree, 0, 0, spanning_defaults(12, 0.25),
                                  np.random.default_rng(1))
        assert info.value.cause == "verify"

    def test_spanning_greedy_map_with_a_reversed_arc(self, monkeypatch):
        monkeypatch.setattr(embedder, "greedy_walk", lambda d, order, *rest, **kw: np.asarray(order.order))
        tree = OrientedTree(12, [(i, i + 1) for i in range(11)], t=0)
        with pytest.raises(VerificationError) as info:
            embed_spanning(backward_path_host(12), tree, spanning_defaults(12, 0.25), np.random.default_rng(1))
        assert info.value.cause == "verify"

    def test_almost_spanning_retry_loop_resamples_a_broken_map(self, monkeypatch):
        calls = []

        def partial_map(d, tree, *rest):
            calls.append(1)
            return identity(tree.n - 1)

        monkeypatch.setattr(embedder, "_assemble_almost", partial_map)
        rng = np.random.default_rng(3)
        d = gen_semidegree_digraph(120, 0.25, rng)
        tree = gen_random_tree(96, 3, "uniform", rng)
        params = spanning_defaults(120, 0.25).with_updates(retries=3)
        with pytest.raises(PhaseFailure) as info:
            embed_almost_spanning(d, tree, 0, 5, params, rng)
        assert (info.value.cause, info.value.attempts, len(calls)) == ("verify", 3, 3)


class TestIsValidEmbedding:
    """The output check: totality, ranges, then every tree arc as a host arc of the same direction."""

    # Host arcs 0 -> 1 and 1 -> 2 only; tree arc 0 -> 1.
    host = Digraph.from_edges(3, [(0, 1), (1, 2)])
    tree = OrientedTree(2, [(0, 1)])

    @staticmethod
    def emb(pairs):
        emb = Embedding()
        for tv, hv in pairs:
            emb.assign(tv, hv)
        return emb

    def test_arc_of_the_same_direction(self):
        assert is_valid_embedding(self.host, self.tree, self.emb([(0, 1), (1, 2)]))
        assert is_valid_embedding(self.host, OrientedTree(1, []), self.emb([(0, 2)]))

    def test_reversed_arc(self):
        assert not is_valid_embedding(self.host, self.tree, self.emb([(0, 1), (1, 0)]))

    def test_non_arc(self):
        assert not is_valid_embedding(self.host, self.tree, self.emb([(0, 0), (1, 2)]))

    def test_negative_ids(self):
        # Host -2 would index host 1, so without the range check the map
        # would pass as the arc 0 -> 1.
        assert not is_valid_embedding(self.host, self.tree, self.emb([(0, 0), (1, -2)]))
        assert not is_valid_embedding(self.host, self.tree, self.emb([(0, 0), (-1, 1)]))

    def test_non_integer_ids(self):
        # A float id once passed the range check and was truncated by the
        # int64 gather, so each of these maps read as the path 0 -> 1 -> 2.
        host = Digraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 0), (2, 1), (3, 2), (0, 3)])
        tree = OrientedTree(3, [(0, 1), (1, 2)])
        for pairs in ({0: 0, 1: 1, 2: 2.5}, {0.0: 0, 1: 1, 2: 2}, {0: 0, 1: True, 2: 2}):
            emb = Embedding()
            emb.map.update(pairs)
            emb.used.update(pairs.values())
            assert not is_valid_embedding(host, tree, emb)
        assert is_valid_embedding(host, tree, self.emb([(0, 0), (np.int32(1), np.uint8(1)), (2, 2)]))


class TestBulkEmbedding:
    """`Embedding.of` builds what `assign` builds, and refuses what it refuses."""

    def test_same_contents_as_assign(self):
        emb = Embedding.of(np.array([2, 0, 1]), np.array([7, 3, 5]), ["a", "b", "c"])
        ref = Embedding()
        for tv, hv, label in ((2, 7, "a"), (0, 3, "b"), (1, 5, "c")):
            ref.assign(tv, hv, label)
        assert (emb.map, emb.used, emb.phase) == (ref.map, ref.used, ref.phase)
        assert [a.tolist() for a in emb.arrays()] == [a.tolist() for a in ref.arrays()] == [[2, 0, 1], [7, 3, 5]]
        assert emb.image().tolist() == ref.image().tolist() == [3, 5, 7]

    def test_repeats_raise_the_messages_of_assign(self):
        with pytest.raises(ValueError, match="^tree vertex 1 already embedded$"):
            Embedding.of(np.array([0, 1, 1]), np.array([4, 5, 6]), "paths")
        with pytest.raises(ValueError, match="^host vertex 5 already used$"):
            Embedding.of(np.array([0, 1, 2]), np.array([5, 6, 5]), "paths")

    def test_non_integer_ids_are_refused(self):
        for vertices, hosts in (
            (np.array([0, 1]), np.array([0.0, 2.5])),
            (np.array([0, 1]), np.array([True, False])),
            ([0, 1], [2, 3]),
        ):
            with pytest.raises(ValueError, match="one-dimensional integer arrays"):
                Embedding.of(vertices, hosts, "paths")
        for tv, hv in ((0, 2.9), (1, True), (0.0, 1)):
            with pytest.raises(ValueError, match="ids must be integers"):
                Embedding().assign(tv, hv)


class TestFailuresFromInputs:
    """A failure fixed by the inputs alone is reported once, with its real attempt count."""

    def host_and_tree(self, family):
        d = gen_semidegree_digraph(300, 0.24, np.random.default_rng(7))
        return d, gen_random_tree(296, 3, family, np.random.default_rng(7))

    def test_star_sizing_failure_is_not_resampled(self, monkeypatch):
        calls = []
        once = embedder._embed_stars_once

        def counted(*args):
            calls.append(1)
            return once(*args)

        monkeypatch.setattr(embedder, "_embed_stars_once", counted)
        d, tree = self.host_and_tree("uniform")
        with pytest.raises(PhaseFailure) as info:
            embed_almost_spanning(d, tree, 0, 0, spanning_defaults(300, 0.24), np.random.default_rng(7))
        assert (info.value.phase, info.value.cause, info.value.attempts) == ("almost", "guide-build", 10)
        assert "stars failed after 1 attempt(s) [guide-build]: V0 would hold" in str(info.value)
        assert calls == []

    def test_thin_slack_reports_the_attempt_it_failed_in(self):
        d, tree = self.host_and_tree("caterpillar")
        with pytest.raises(PhaseFailure) as info:
            embed_almost_spanning(d, tree, 0, 0, spanning_defaults(300, 0.24), np.random.default_rng(7))
        assert info.value.attempts == 1
        assert str(info.value) == "almost failed after 1 attempt(s) [guide-build]: slack too thin to size V1"

    def test_tiny_spanning_greedy_failure_is_one_spanning_failure(self):
        # Vertex 1 of an alternating path has in-degree 2; every host vertex has 1.
        tree = OrientedTree(12, [(i, i + 1) if i % 2 == 0 else (i + 1, i) for i in range(11)], t=0)
        with pytest.raises(PhaseFailure) as info:
            embed_spanning(backward_path_host(12), tree, spanning_defaults(12, 0.25), np.random.default_rng(1))
        assert (info.value.phase, info.value.attempts) == ("spanning", 10)
        assert str(info.value) == "spanning failed after 10 attempt(s) [leaf-greedy-fail]: greedy walk stuck"

    def test_decomposition_failure_reports_one_attempt(self):
        d = gen_semidegree_digraph(120, 0.25, np.random.default_rng(0))
        tree = gen_random_tree(100, 3, "caterpillar", np.random.default_rng(100))
        with pytest.raises(PhaseFailure) as info:
            embed_almost_spanning(d, tree, 0, 5, spanning_defaults(120, 0.25), np.random.default_rng(1))
        assert (info.value.cause, info.value.attempts) == ("decompose", 1)
        assert str(info.value).startswith("almost failed after 1 attempt(s) [decompose]: decomposition failed")

    def test_spanning_stops_at_the_first_decomposition_failure(self, monkeypatch):
        # The trunk piece of this caterpillar fails P1 whatever the draws, so
        # one absorber build and one almost attempt settle the call.
        builds = []
        build = embedder.build_absorber

        def counted(*args):
            builds.append(1)
            return build(*args)

        monkeypatch.setattr(embedder, "build_absorber", counted)
        d = gen_semidegree_digraph(150, 0.25, np.random.default_rng(2))
        tree = gen_random_tree(150, 3, "caterpillar", np.random.default_rng(102))
        with pytest.raises(PhaseFailure) as info:
            embed_spanning(d, tree, spanning_defaults(150, 0.25), np.random.default_rng(202))
        assert (info.value.phase, info.value.cause, info.value.attempts) == ("spanning", "decompose", 1)
        assert str(info.value).startswith(
            "spanning failed after 1 attempt(s) [decompose]: almost failed after 1 attempt(s) [decompose]"
        )
        assert builds == [1]

    def test_spanning_stops_at_a_trunk_too_short_for_its_threshold(self, monkeypatch):
        # build_absorber decides this S-fail before any draw, so no outer retry can change it.
        builds = []
        build = embedder.build_absorber

        def counted(*args):
            builds.append(1)
            return build(*args)

        monkeypatch.setattr(embedder, "build_absorber", counted)
        d = gen_semidegree_digraph(60, 0.25, np.random.default_rng(2))
        tree = gen_random_tree(60, 3, "caterpillar", np.random.default_rng(102))
        rng = np.random.default_rng(202)
        state = rng.bit_generator.state
        with pytest.raises(PhaseFailure) as info:
            embed_spanning(d, tree, spanning_defaults(60, 0.25), rng)
        assert (info.value.phase, info.value.cause, info.value.attempts) == ("spanning", "S-fail", 1)
        assert str(info.value) == (
            "spanning failed after 1 attempt(s) [S-fail]: absorber failed after 1 attempt(s) [S-fail]: "
            "trunk of 12 vertices cannot reach a switch threshold of 12")
        assert builds == [1] and rng.bit_generator.state == state

    def test_guide_budget_shortfall_is_not_resampled(self, monkeypatch):
        calls = []
        once = embedder._embed_stars_once

        def counted(*args):
            calls.append(1)
            return once(*args)

        monkeypatch.setattr(embedder, "_embed_stars_once", counted)
        rng = np.random.default_rng(0)
        d = gen_semidegree_digraph(200, 0.24, rng)
        tree = gen_random_tree(186, 3, "uniform", rng)
        with pytest.raises(PhaseFailure) as info:
            embed_almost_spanning(d, tree, 0, 0, spanning_defaults(200, 0.24), np.random.default_rng(0))
        assert (info.value.phase, info.value.cause) == ("almost", "guide-build")
        assert "stars failed after 1 attempt(s) [guide-build]: guide budget" in str(info.value)
        assert calls == []
