import functools
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from spantree.digraph import Digraph, Sign, gen_semidegree_digraph, sample_disjoint_subsets
from spantree.embedding import is_valid_embedding
from spantree.matching import (
    ForestEmbedError,
    MatchingError,
    _raw_matching,
    covering_matching,
    embed_small_forest,
    embed_tree_copies,
)
from spantree.trees import OrientedTree, gen_random_tree

from brute_force import alternating_reach_rows
from helpers import complete, matching_dump


def brute_max_matching(adj):
    """Exhaustive maximum matching size by recursion over rows."""
    nl, nr = adj.shape

    @functools.cache
    def rec(i, used):
        if i == nl:
            return 0
        best = rec(i + 1, used)
        for j in range(nr):
            if adj[i, j] and not (used >> j) & 1:
                best = max(best, 1 + rec(i + 1, used | (1 << j)))
        return best

    return rec(0, 0)


def skew_bounded(adj, a, b):
    """Every row has at least a edges and every column at most b."""
    return adj.shape[0] == 0 or bool(
        adj.sum(axis=1).min() >= a and (adj.shape[1] == 0 or adj.sum(axis=0).max() <= b)
    )


class TestMaxMatching:
    def test_single_edge(self):
        assert covering_matching(np.array([[True]])).tolist() == [0]

    def test_shared_target(self):
        with pytest.raises(MatchingError):
            covering_matching(np.array([[True], [True]]))

    def test_matches_brute_force_on_random_patterns(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            nl = int(rng.integers(1, 9))
            nr = int(rng.integers(1, 9))
            adj = rng.random((nl, nr)) < rng.uniform(0.1, 0.9)
            try:
                col_of_row = covering_matching(adj)
                covered = bool(adj[np.arange(nl), col_of_row].all()) and len(set(col_of_row.tolist())) == nl
            except MatchingError:
                covered = False
            assert covered == (brute_max_matching(adj) == nl)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        adj = (rng.random((8, 8)) < 0.5) | np.eye(8, dtype=bool)
        assert covering_matching(adj).tolist() == covering_matching(adj).tolist()

    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 600])
    def test_direct_csr_is_the_coo_route(self, rows):
        # 640 columns, so a dense pattern of 600 rows holds 384,000 entries.
        rng = np.random.default_rng(rows)
        for density in (1.0, 0.98, 0.75):
            adj = rng.random((rows, 640)) < density
            want = maximum_bipartite_matching(csr_matrix(adj), perm_type="column")
            assert (_raw_matching(adj) == want).all()

    def test_direct_csr_peak_below_the_coo_route(self):
        # csr_matrix(dense) goes through int64 coordinates of every entry;
        # the direct build holds only the CSR arrays.
        adj = np.ones((600, 640), dtype=bool)
        peaks = []
        for route in (lambda: maximum_bipartite_matching(csr_matrix(adj), perm_type="column"),
                      lambda: _raw_matching(adj)):
            tracemalloc.start()
            try:
                route()
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] < peaks[0] / 2

    def test_dump_format(self):
        adj = np.array([[False, True, False], [True, False, False]])
        assert matching_dump(covering_matching(adj)) == "0 1\n1 0\n"


class TestHallViolator:
    """The violator a failed covering_matching carries on its MatchingError."""

    def test_perfect_pattern_none(self):
        assert covering_matching(np.eye(2, dtype=bool)).tolist() == [0, 1]

    def test_two_into_one(self):
        with pytest.raises(MatchingError) as exc:
            covering_matching(np.array([[True], [True]]))
        assert exc.value.violator.tolist() == [0, 1]

    def test_violator_iff_uncovered(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            nl = int(rng.integers(1, 11))
            nr = int(rng.integers(1, 11))
            adj = rng.random((nl, nr)) < rng.uniform(0.05, 0.9)
            try:
                covering_matching(adj)
                violator = None
            except MatchingError as exc:
                violator = exc.violator
            assert (violator is None) == (brute_max_matching(adj) == nl)
            if violator is not None:
                assert set(violator.tolist()) <= set(range(nl))
                nbhd = int(adj[violator].any(axis=0).sum())
                assert nbhd < len(violator)


def oracle_matrix(nl, nr, kind, transposed, seed):
    """A random nl x nr bool matrix: dense, sparse, or blocks on a sparse background.

    Transposed, it is the .T view of an nr x nl array (F-order), as
    `embed_tree_copies` passes its MINUS blocks.
    """
    rng = np.random.default_rng(seed)
    shape = (nr, nl) if transposed else (nl, nr)
    if kind == "dense":
        adj = rng.random(shape) < rng.uniform(0.5, 1.0)
    elif kind == "sparse":
        adj = rng.random(shape) < rng.uniform(0.0, 0.1)
    else:
        blocks = int(rng.integers(1, 6))
        side = [np.sort(rng.integers(0, blocks, size)) for size in shape]
        adj = (side[0][:, None] == side[1][None, :]) & (rng.random(shape) < rng.uniform(0.3, 1.0))
        adj |= rng.random(shape) < 0.01
    return adj.T if transposed else adj


def scipy_matching(adj):
    if adj.size == 0:
        return np.full(len(adj), -1, dtype=np.int64)
    return maximum_bipartite_matching(csr_matrix(adj), perm_type="column").astype(np.int64)


def greedy_size(adj):
    """Rows matched by the pass that gives each row in turn its smallest free column."""
    free = np.ones(adj.shape[1], dtype=bool)
    for row in adj:
        hit = np.flatnonzero(row & free)
        if len(hit):
            free[hit[0]] = False
    return int((~free).sum())


class TestScipyOracle:
    """`_raw_matching` is scipy's Hopcroft-Karp matching, and the violator a
    failed covering carries is the Koenig set of alternating reachability."""

    def check(self, adj):
        want = scipy_matching(adj)
        assert _raw_matching(adj).tolist() == want.tolist()
        try:
            covering_matching(adj)
            violator = None
        except MatchingError as exc:
            violator = exc.violator.tolist()
        if (want < 0).any():
            assert violator == alternating_reach_rows(adj, want).tolist()
        else:
            assert violator is None
        return want

    @settings(max_examples=300, deadline=None)
    @given(
        nl=st.integers(0, 120),
        nr=st.integers(0, 120),
        kind=st.sampled_from(["dense", "sparse", "blocks"]),
        transposed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(nl=0, nr=9, kind="dense", transposed=False, seed=0)
    @example(nl=9, nr=0, kind="dense", transposed=True, seed=0)
    @example(nl=120, nr=120, kind="dense", transposed=True, seed=1)
    @example(nl=120, nr=120, kind="blocks", transposed=False, seed=2)
    def test_matches_scipy(self, nl, nr, kind, transposed, seed):
        self.check(oracle_matrix(nl, nr, kind, transposed, seed))

    def test_seeded_batch_needs_augmenting_phases(self):
        # Many of these need augmenting paths beyond the greedy pass, and
        # some have no covering matching, so phases and violators both run.
        rng = np.random.default_rng(32)
        augmented = violated = 0
        for i in range(400):
            nl, nr = (int(x) for x in rng.integers(1, 61, size=2))
            kind = ("sparse", "blocks")[i % 2]
            adj = oracle_matrix(nl, nr, kind, bool(i % 4 > 1), int(rng.integers(2**32)))
            want = self.check(adj)
            augmented += int((want >= 0).sum()) > greedy_size(adj)
            violated += bool((want < 0).any())
        assert augmented >= 50 and violated >= 50


class TestSkewBounded:
    def test_complete_pattern(self):
        adj = np.ones((3, 5), dtype=bool)
        assert skew_bounded(adj, 5, 3)
        assert not skew_bounded(adj, 6, 3)
        assert len(covering_matching(adj)) == 3

    def test_matching_from_skew_regular(self):
        adj = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=bool)
        assert skew_bounded(adj, 2, 2)
        assert len(covering_matching(adj)) == 3

    def test_single_edge(self):
        # A MINUS pattern is the transposed host block: the arc 1 -> 0.
        d = Digraph.from_edges(2, [(1, 0)])
        assert covering_matching(d.mat[np.ix_([1], [0])].T).tolist() == [0]

    def test_requires_a_geq_b(self):
        # A (1, 2)-skew-bound does not force coverage: two rows share one column.
        adj = np.array([[True], [True]])
        assert skew_bounded(adj, 1, 2)
        with pytest.raises(MatchingError):
            covering_matching(adj)

    def test_generated_skew_patterns_always_covered(self):
        # 200 random (a, b)-skew-bounded patterns with a >= b; the acceptance
        # suite runs the full 1000.
        rng = np.random.default_rng(3)
        for _ in range(200):
            made = make_skew_pattern(rng)
            if made is None:
                continue
            adj, a, b = made
            assert len(covering_matching(adj)) == len(adj)


def make_skew_pattern(rng):
    """Random bipartite pattern that is (a, b, +)-skew-bounded with a >= b."""
    nl = int(rng.integers(2, 14))
    b = int(rng.integers(1, 5))
    a = b + int(rng.integers(0, 4))
    nr = nl * a // b + int(rng.integers(1, 6))
    adj = np.zeros((nl, nr), dtype=bool)
    col_load = np.zeros(nr, dtype=int)
    for i in range(nl):
        open_cols = np.flatnonzero(col_load < b)
        if len(open_cols) < a:
            return None
        take = rng.choice(open_cols, size=a, replace=False)
        adj[i, take] = True
        col_load[take] += 1
    if not skew_bounded(adj, a, b):
        raise AssertionError(f"generated pattern is not ({a}, {b})-skew-bounded")
    return adj, a, b


def perfect_matching(d, a, b, sign):
    """The pipeline's matching call between equal-sized disjoint host sets."""
    adj = d.mat[np.ix_(a, b)] if sign is Sign.PLUS else d.mat[np.ix_(b, a)].T
    return covering_matching(adj, what="perfect matching")


class TestPerfectMatching:
    def test_complete_host(self):
        d = complete(12)
        m = perfect_matching(d, np.arange(6), np.arange(6, 12), Sign.PLUS)
        assert len(m) == 6

    def test_adversarial_violator(self):
        # a single A-vertex with no out-edges into B
        mat = np.ones((6, 6), dtype=bool)
        np.fill_diagonal(mat, False)
        mat[0, 3:] = False
        d = Digraph(6, mat)
        with pytest.raises(MatchingError) as exc:
            perfect_matching(d, np.arange(3), np.arange(3, 6), Sign.PLUS)
        assert exc.value.violator.tolist() == [0]

    def test_monte_carlo_random_sets(self):
        rng = np.random.default_rng(5)
        d = gen_semidegree_digraph(400, 0.2, rng)
        good = 0
        for _ in range(50):
            a, b = sample_disjoint_subsets(d, [60, 60], rng)
            try:
                perfect_matching(d, a, b, Sign.MINUS)
                good += 1
            except MatchingError:
                pass
        assert good >= 47


class TestTreeCopies:
    def test_single_vertex_tree(self):
        d = complete(10)
        tree = OrientedTree(1, [])
        copies = embed_tree_copies(d, tree, 0, np.arange(4), np.array([], dtype=np.int64))
        assert len(copies) == 4

    def test_single_edge(self):
        d = complete(10)
        tree = OrientedTree(2, [(0, 1)])
        copies = embed_tree_copies(d, tree, 0, np.arange(4), np.arange(4, 8))
        assert len(copies) == 4
        used = set()
        for c in copies:
            assert is_valid_embedding(d, tree, c)
            assert not (c.used & used)
            used |= c.used

    def test_oriented_path_copies_disjoint_verified(self):
        rng = np.random.default_rng(6)
        d = gen_semidegree_digraph(300, 0.25, rng)
        tree = OrientedTree(5, [(0, 1), (1, 2), (3, 2), (3, 4)])
        v1, v2 = sample_disjoint_subsets(d, [20, 80], rng)
        copies = embed_tree_copies(d, tree, 0, v1, v2)
        assert len(copies) == 20
        used = set()
        for c in copies:
            assert is_valid_embedding(d, tree, c)
            assert c[0] in set(v1.tolist())
            assert not (c.used & used)
            used |= c.used

    def test_size_precondition(self):
        d = complete(10)
        tree = OrientedTree(2, [(0, 1)])
        with pytest.raises(ValueError):
            embed_tree_copies(d, tree, 0, np.arange(4), np.arange(4, 7))

    def test_mixed_signs_unsorted_sets_keep_their_maps(self):
        # Recorded before the matching took bool matrices.
        rng = np.random.default_rng(21)
        d = gen_semidegree_digraph(200, 0.2, rng)
        tree = OrientedTree(6, [(0, 1), (2, 1), (1, 3), (4, 3), (3, 5)])
        v1, v2 = sample_disjoint_subsets(d, [12, 60], rng)
        v1, v2 = rng.permutation(v1), rng.permutation(v2)
        copies = embed_tree_copies(d, tree, 0, v1, v2)
        assert all(is_valid_embedding(d, tree, c) for c in copies)
        text = json.dumps([sorted(c.map.items()) for c in copies])
        digest = "79a535ff1fed2cf5f9a797ad21da7735ed66915840990ca6fb7e389c904ab264"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_chained_failure_names_hosts_of_the_parent_block(self):
        # Hosts 8 and 11 of block 1 receive arcs from block 2 only from host 6.
        mat = np.ones((12, 12), dtype=bool)
        np.fill_diagonal(mat, False)
        mat[np.ix_([0, 3], [8, 11])] = False
        tree = OrientedTree(3, [(0, 1), (2, 1)])
        with pytest.raises(MatchingError) as info:
            embed_tree_copies(Digraph(12, mat), tree, 0, np.array([7, 2, 10]), np.array([11, 4, 8, 0, 6, 3]))
        assert str(info.value) == (
            "chained matching failed at edge class 2 (tree vertex 2, sign -): tree-copy edge class 2: "
            "no matching covering the left class (violator size 2, neighborhood 1)"
        )
        assert info.value.violator.tolist() == [8, 11]

    def test_shared_hosts_rejected(self):
        # Host 1 is in both V1 and V2; the chained matchings alone once
        # returned {0: 0, 1: 2, 2: 1} and {0: 1, 1: 3, 2: 4}.
        tree = OrientedTree(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="distinct hosts"):
            embed_tree_copies(complete(10), tree, 0, [0, 1], [2, 3, 1, 4])


class TestSmallForest:
    def test_isolated_vertices(self):
        d = complete(20)
        comps = [OrientedTree(1, []) for _ in range(10)]
        maps = embed_small_forest(d, comps, 0.2, np.random.default_rng(0))
        hosts = [m[0] for m in maps]
        assert len(set(hosts)) == 10

    def test_fifty_copies_of_one_tree(self):
        rng = np.random.default_rng(1)
        d = gen_semidegree_digraph(500, 0.2, rng)
        tree = OrientedTree(4, [(0, 1), (2, 1), (2, 3)])
        comps = [tree for _ in range(50)]
        maps = embed_small_forest(d, comps, 0.2, rng)
        used = set()
        for comp, m in zip(comps, maps):
            for u, w in comp.edge_list:
                assert d.has_edge(m[u], m[w])
            assert not (set(m.tolist()) & used)
            used |= set(m.tolist())

    def test_thin_classes_keep_their_maps(self):
        # Classes of 2 to 15 relabelled copies, one class per size, so no two
        # classes are isomorphic; the even sizes are oriented paths, whose two
        # centroids both root the same class.  A refactor keeps every map.
        rng = np.random.default_rng(12)
        comps = []
        for k, count in enumerate((2, 15, 3, 9, 6, 2, 11, 4, 7, 5), start=1):
            if k % 2 == 0 or k < 5:
                base = OrientedTree(k, [(v, v + 1) if rng.random() < 0.5 else (v + 1, v) for v in range(k - 1)])
            else:
                base = gen_random_tree(k, 3, "uniform", rng)
            for _ in range(count):
                perm = rng.permutation(k).tolist()
                comps.append(OrientedTree(k, [(perm[u], perm[v]) for u, v in base.edge_list]))
        comps = [comps[i] for i in rng.permutation(len(comps))]
        rng = np.random.default_rng(13)
        d = gen_semidegree_digraph(600, 0.24, rng)
        maps = embed_small_forest(d, comps, 0.2, rng)
        used = set()
        for comp, m in zip(comps, maps):
            assert len(m) == comp.n
            assert all(d.has_edge(m[u], m[w]) for u, w in comp.edge_list)
            assert not (set(m.tolist()) & used)
            used |= set(m.tolist())
        text = json.dumps([list(enumerate(m.tolist())) for m in maps])
        digest = "68c36ec44cc3a3a41bdac6ba2a53aef490da38bba608bd93ba3eb930d07c1e45"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_unmatched_leaf_batch_is_a_hall_fail(self):
        # Every host has one out-neighbour (0, or 1 for host 0): the centre of
        # an out-star walks anywhere, but its two leaves have one host between them.
        d = Digraph.from_edges(20, [(v, 0) for v in range(1, 20)] + [(0, 1)])
        star = OrientedTree(3, [(0, 1), (0, 2)])
        with pytest.raises(ForestEmbedError, match="^leaf batch unmatched: ") as info:
            embed_small_forest(d, [star, star], 0.2, np.random.default_rng(0))
        assert info.value.cause == "hall-fail"

    def test_oversized_forest_rejected(self):
        d = complete(20)
        comps = [OrientedTree(1, [])] * 19
        with pytest.raises(ValueError):
            embed_small_forest(d, comps, 0.2, np.random.default_rng(0))

    def test_mixed_classes_on_random_host(self):
        rng = np.random.default_rng(9)
        d = gen_semidegree_digraph(400, 0.25, rng)
        comps = []
        for i in range(40):
            comps.append(gen_random_tree(2 + (i % 4), 3, "uniform", np.random.default_rng(i)))
        maps = embed_small_forest(d, comps, 0.25, rng)
        used = set()
        for comp, m in zip(comps, maps):
            assert len(m) == comp.n
            for u, w in comp.edge_list:
                assert d.has_edge(m[u], m[w])
            assert not (set(m.tolist()) & used)
            used |= set(m.tolist())
