import hashlib
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spantree.decompose import DecompositionError, decompose
from spantree.digraph import Sign
from spantree.matching import _centroids, group_components
from spantree.params import spanning_defaults
from spantree.trees import FAMILIES as GENERATOR_FAMILIES
from spantree.trees import (
    OrientedTree,
    canonical_form_and_order,
    canonical_forms_and_orders,
    canonical_rooted_form,
    components,
    find_bare_paths,
    find_independent_leaves,
    gen_random_tree,
    induced_subtree,
    max_semidegree,
    maximal_bare_paths,
    prefix_order,
    split_tree,
    subtree_sizes,
)


def path_tree(n, forward=True):
    edges = [(v, v + 1) if forward else (v + 1, v) for v in range(n - 1)]
    return OrientedTree(n, edges)


class TestMaxSemidegree:
    def test_directed_path(self):
        assert max_semidegree(path_tree(4)) == (1, 1)

    def test_out_star(self):
        # center with 5 out-leaves: max out-degree 5 at the center, and every
        # leaf has in-degree exactly 1.
        tree = OrientedTree(6, [(0, v) for v in range(1, 6)])
        assert max_semidegree(tree) == (5, 1)

    def test_alternating_path(self):
        # 1->2<-3->4 relabeled to 0..3: edges 0->1, 2->1, 2->3.  Enumerating
        # degrees: vertex 2 has out-degree 2, vertex 1 has in-degree 2.
        tree = OrientedTree(4, [(0, 1), (2, 1), (2, 3)])
        out_deg = [len(tree.out(v)) for v in range(4)]
        in_deg = [len(tree.in_(v)) for v in range(4)]
        assert max_semidegree(tree) == (max(out_deg), max(in_deg)) == (2, 2)


class TestPrefixOrder:
    def test_single_edge(self):
        tree = OrientedTree(2, [(0, 1)])
        po = prefix_order(tree, 0)
        assert po.order == (0, 1)
        assert po.parent_index == (-1, 0)
        assert po.sign[1] is Sign.PLUS

    def test_star_leaves_last(self):
        tree = OrientedTree(4, [(0, 1), (0, 2), (0, 3)])
        po = prefix_order(tree, 0, "leaves_last_middles_consecutive")
        assert po.order[0] == 0
        assert set(po.order[1:]) == {1, 2, 3}

    def test_middles_consecutive_on_length_six_path(self):
        tree = path_tree(7)
        po = prefix_order(tree, 0, "leaves_last_middles_consecutive")
        pos = {v: i for i, v in enumerate(po.order)}
        middles = sorted(pos[v] for v in (2, 3, 4))
        assert middles[2] - middles[0] == 2

    def test_leaves_occupy_suffix(self):
        rng = np.random.default_rng(0)
        tree = gen_random_tree(60, 3, "uniform", rng)
        po = prefix_order(tree, 0, "leaves_last_middles_consecutive")
        leafness = [tree.degree(v) == 1 and v != 0 for v in po.order]
        first_leaf = leafness.index(True) if any(leafness) else len(leafness)
        assert all(leafness[first_leaf:])

    def test_prefix_invariant_at_thousand(self):
        tree = gen_random_tree(1000, 3, "uniform", np.random.default_rng(0))
        po = prefix_order(tree, 0, "leaves_last_middles_consecutive")
        seen = {po.order[0]}
        for i in range(1, 1000):
            v = po.order[i]
            earlier = [u for u in tree.nbrs(v) if u in seen]
            assert earlier == [po.order[po.parent_index[i]]]
            seen.add(v)

    @given(st.integers(0, 10_000), st.integers(2, 120))
    @settings(max_examples=60, deadline=None)
    def test_every_prefix_is_a_tree(self, seed, n):
        rng = np.random.default_rng(seed)
        tree = gen_random_tree(n, 3, "uniform", rng)
        root = int(rng.integers(n))
        po = prefix_order(tree, root, "leaves_last_middles_consecutive")
        seen = set()
        for i, v in enumerate(po.order):
            if i == 0:
                assert v == root
            else:
                parent = po.order[po.parent_index[i]]
                assert po.parent_index[i] < i
                assert parent in seen
                assert v in tree.adj(parent, po.sign[i])
                earlier = [u for u in tree.nbrs(v) if u in seen]
                assert earlier == [parent]
            seen.add(v)


class TestIndependentLeaves:
    def brute_max(self, tree):
        leaves = tree.leaves()
        best = 0
        for r in range(len(leaves), 0, -1):
            for combo in itertools.combinations(leaves, r):
                nbrs = [tree.nbrs(v)[0] for v in combo]
                if len(set(nbrs)) == len(nbrs):
                    return r
        return best

    def test_three_path(self):
        # both leaves of a 3-path share the middle vertex, so only one fits
        tree = path_tree(3)
        got = find_independent_leaves(tree)
        assert len(got) == self.brute_max(tree) == 1

    def test_four_path_ends_compatible(self):
        tree = path_tree(4)
        got = find_independent_leaves(tree)
        assert got == [0, 3]
        assert len(got) == self.brute_max(tree) == 2

    def test_star_only_one(self):
        tree = OrientedTree(6, [(0, v) for v in range(1, 6)])
        assert len(find_independent_leaves(tree)) == 1

    def test_double_star(self):
        # two centers joined, three leaves each: one leaf per center.
        edges = [(0, 1)] + [(0, v) for v in (2, 3, 4)] + [(1, v) for v in (5, 6, 7)]
        tree = OrientedTree(8, edges)
        got = find_independent_leaves(tree)
        assert len(got) == self.brute_max(tree) == 2

    def test_greedy_is_maximal(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            tree = gen_random_tree(40, 3, "uniform", rng)
            got = find_independent_leaves(tree)
            used = {tree.nbrs(v)[0] for v in got}
            for leaf in tree.leaves():
                if leaf not in got:
                    assert tree.nbrs(leaf)[0] in used

    def test_degrees_select_the_leaves_of_a_subtree(self):
        # The monotone relabelling of induced_subtree keeps the greedy id order.
        rng = np.random.default_rng(6)
        for _ in range(20):
            tree = gen_random_tree(60, 3, "uniform", rng)
            piece, _rest, _shared = split_tree(tree, 12)
            inside = np.zeros(tree.n, dtype=bool)
            inside[piece.labels] = True
            deg = [sum(inside[u] for u in tree.nbrs(v)) if inside[v] else 0 for v in range(tree.n)]
            want = piece.labels[find_independent_leaves(piece.tree)].tolist()
            assert find_independent_leaves(tree, deg) == want


class TestBarePaths:
    def test_long_path(self):
        tree = path_tree(21)
        paths = find_bare_paths(tree, 5)
        assert len(paths) >= 3
        for p in paths:
            assert len(p) == 5

    def test_star_has_none(self):
        tree = OrientedTree(11, [(0, v) for v in range(1, 11)])
        assert find_bare_paths(tree, 2) == []

    def test_spider_three_legs(self):
        edges = []
        nxt = 1
        for _ in range(3):
            prev = 0
            for _ in range(7):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
        tree = OrientedTree(22, edges)
        paths = find_bare_paths(tree, 3)
        assert len(paths) >= 3
        seen = set()
        for p in paths:
            assert len(p) == 3
            for v in p.vertices:
                assert v not in seen
                seen.add(v)
            for v in p.interior:
                assert tree.degree(v) == 2

    @given(st.integers(0, 10_000), st.integers(4, 150), st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_bound_asserted_and_disjoint(self, seed, n, m):
        # Removing the interiors leaves at most 6mt + 2|T|/(m+1) vertices, t leaves.
        rng = np.random.default_rng(seed)
        tree = gen_random_tree(n, 3, "uniform", rng)
        paths = find_bare_paths(tree, m)
        used = set()
        for p in paths:
            assert len(p) == m
            assert not (set(p.vertices) & used)
            used |= set(p.vertices)
        assert n - (m - 1) * len(paths) <= 6 * m * len(tree.leaves()) + 2 * n / (m + 1)


class TestSplitTree:
    def test_path_split(self):
        tree = path_tree(12)
        p1, p2, shared = split_tree(tree, 3)
        assert 3 <= p2.tree.n <= 9
        assert p1.tree.n + p2.tree.n == 13
        e1 = {tuple(sorted((p1.labels[u], p1.labels[v]))) for u, v in p1.tree.edge_list}
        e2 = {tuple(sorted((p2.labels[u], p2.labels[v]))) for u, v in p2.tree.edge_list}
        assert not (e1 & e2)
        assert len(e1) + len(e2) == 11

    def test_star_split(self):
        tree = OrientedTree(12, [(0, v) for v in range(1, 12)])
        p1, p2, shared = split_tree(tree, 3)
        assert 3 <= p2.tree.n <= 9
        assert shared == 0

    def test_upper_bound_at_third(self):
        rng = np.random.default_rng(2)
        tree = gen_random_tree(30, 3, "uniform", rng)
        p1, p2, _ = split_tree(tree, 10)
        assert p2.tree.n <= 30

    def test_keep_vertex_stays_in_first(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            tree = gen_random_tree(50, 3, "uniform", np.random.default_rng(seed))
            keep = int(rng.integers(50))
            p1, p2, shared = split_tree(tree, 8, keep=keep)
            assert keep in set(p1.labels.tolist())
            assert int(np.intersect1d(p1.labels, p2.labels)[0]) == shared

    @given(st.integers(0, 10_000), st.integers(6, 90))
    @settings(max_examples=50, deadline=None)
    def test_postconditions(self, seed, n):
        rng = np.random.default_rng(seed)
        tree = gen_random_tree(n, 3, "uniform", rng)
        m = int(rng.integers(1, n // 3 + 1))
        p1, p2, shared = split_tree(tree, m)
        assert m <= p2.tree.n <= 3 * m
        assert p1.tree.n + p2.tree.n == n + 1
        both = np.intersect1d(p1.labels, p2.labels)
        assert len(both) == 1 and both[0] == shared


class TestGenerators:
    def test_path_family(self):
        tree = gen_random_tree(5, 1, "path", np.random.default_rng(0))
        assert max_semidegree(tree) == (1, 1)

    def test_determinism(self):
        a = gen_random_tree(100, 2, "uniform", np.random.default_rng(3))
        b = gen_random_tree(100, 2, "uniform", np.random.default_rng(3))
        assert a.edge_list == b.edge_list

    def test_caterpillar_cap(self):
        tree = gen_random_tree(50, 4, "caterpillar", np.random.default_rng(1))
        dplus, dminus = max_semidegree(tree)
        assert dplus <= 4 and dminus <= 4

    def test_star_infeasible(self):
        with pytest.raises(ValueError):
            gen_random_tree(10, 3, "star", np.random.default_rng(0))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_unknown_family_raises_at_every_size(self, n):
        with pytest.raises(ValueError, match="unknown family 'bogus'"):
            gen_random_tree(n, 3, "bogus", np.random.default_rng(0))

    @pytest.mark.parametrize("family", ["uniform", "path", "caterpillar", "spider", "broom"])
    def test_families_respect_cap(self, family):
        for seed in range(5):
            tree = gen_random_tree(64, 3, family, np.random.default_rng(seed))
            dplus, dminus = max_semidegree(tree)
            assert dplus <= 3 and dminus <= 3


def stream_digest(family, cases):
    """sha256 over each case's edge list (or ValueError text) and the generator's next draw."""
    h = hashlib.sha256()
    for n, delta, seed in cases:
        rng = np.random.default_rng(seed)
        try:
            h.update(repr(gen_random_tree(n, delta, family, rng).edge_list).encode())
        except ValueError as exc:
            h.update(f"ValueError: {exc}".encode())
        h.update(repr(rng.random()).encode())
    return h.hexdigest()[:16]


class TestGeneratorStream:
    """Trees and RNG stream of every family, pinned to digests of an earlier generator.

    Any tree, any draw, any error message or any count of draws that moves
    changes a digest; every trial, gate and benchmark instance reads its
    guest tree from this stream.
    """

    GRID = list(itertools.product((1, 2, 3, 10, 57, 200), (1, 2, 3, 5), range(6)))
    DIGESTS = {
        "uniform": "6bf10e17a2c41ab5",
        "path": "8e33448404914e7b",
        "star": "fe42d098e9f5deb9",
        "caterpillar": "a0a7c8558363a080",
        "spider": "340bfd87d7d3b4c0",
        "broom": "98480246e7889fe7",
    }

    def test_every_family_is_pinned(self):
        assert sorted(self.DIGESTS) == sorted(GENERATOR_FAMILIES)

    @pytest.mark.parametrize("family", sorted(DIGESTS))
    def test_grid(self, family):
        assert stream_digest(family, self.GRID) == self.DIGESTS[family]

    def test_uniform_at_eight_hundred(self):
        cases = list(itertools.product((800,), (1, 2, 3, 5), range(2)))
        assert stream_digest("uniform", cases) == "6ab1d676e8f34b89"

    @given(st.integers(0, 10_000), st.integers(2, 150), st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_uniform_matches_choice_over_the_feasible_set(self, seed, n, delta):
        # Reference: the parent drawn by Generator.choice with capacity weights
        # over the unsaturated vertices, then the same direction rule.
        rng = np.random.default_rng(seed)
        out_deg, in_deg, edges = np.zeros(n, int), np.zeros(n, int), []
        for v in range(1, n):
            feasible = np.flatnonzero((out_deg[:v] < delta) | (in_deg[:v] < delta))
            capacity = (2 * delta - out_deg[feasible] - in_deg[feasible]).astype(float)
            parent = int(rng.choice(feasible, p=capacity / capacity.sum()))
            can_out, can_in = out_deg[parent] < delta, in_deg[parent] < delta
            forward = bool(rng.integers(2)) if can_out and can_in else can_out
            tail, head = (parent, v) if forward else (v, parent)
            edges.append((tail, head))
            out_deg[tail] += 1
            in_deg[head] += 1
        want = (tuple(edges), rng.random())
        rng = np.random.default_rng(seed)
        assert (gen_random_tree(n, delta, "uniform", rng).edge_list, rng.random()) == want

    @pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)])
    @pytest.mark.parametrize("delta", [1, 2, 3])
    def test_uniform_draws_at_the_ends_of_the_unit_interval(self, u, delta):
        # u = 0 must pass over saturated vertices at the front of the cdf, and
        # the largest u < 1 must stay below its last entry, as in choice().
        class EndDraws:
            def random(self):
                return u

            def integers(self, k):
                return 0 if u == 0.0 else k - 1

        tree = gen_random_tree(300, delta, "uniform", EndDraws())
        assert max(max_semidegree(tree)) <= delta


def family_tree(family, n, seed):
    """A generator tree of `family`; stars get the semidegree they need."""
    return gen_random_tree(n, max(3, n - 1) if family == "star" else 3, family, np.random.default_rng(seed))


def passes_digest(family, sizes, seeds, digest_one):
    """sha256 over digest_one(tree) for each generated tree of the grid."""
    h = hashlib.sha256()
    for n, seed in itertools.product(sizes, seeds):
        h.update(repr(digest_one(family_tree(family, n, seed))).encode())
    return h.hexdigest()[:16]


def prefix_orders_of(tree):
    out = []
    for policy in ("any", "leaves_last_middles_consecutive"):
        for root in sorted({0, tree.n // 2, tree.n - 1}):
            po = prefix_order(tree, root, policy)
            out.append((po.order, po.parent_index, tuple(str(s) for s in po.sign)))
    return out


def splits_of(tree):
    out = []
    for m in sorted({1, max(1, tree.n // 7), tree.n // 3}):
        for keep in (None, tree.n - 1, tree.n // 2):
            p1, p2, shared = split_tree(tree, m, keep=keep)
            out.append(tuple((p.labels.tolist(), p.tree.edge_list, p.tree.t) for p in (p1, p2)) + (shared,))
    return out


def decompositions_of(tree):
    out = []
    for t in sorted({0, tree.n - 1}):
        try:
            out.append(decompose(tree, t, spanning_defaults(tree.n, 0.25)).to_json())
        except DecompositionError as exc:
            out.append(f"DecompositionError: {exc}")
    return out


class TestGuestPassesPinned:
    """prefix_order, split_tree and decompose on every family, pinned to digests of an earlier version.

    Every spanning embedding runs these passes on its guest tree, and the
    random draws that follow read their output, so any moved order, parent,
    sign, piece label, edge, shared vertex or layer changes an embedding.
    """

    SIZES = (2, 3, 10, 57, 200, 601)
    SEEDS = range(3)
    PREFIX = {
        "uniform": "2f3958a6dad8c987",
        "path": "e7e15ffff5697124",
        "star": "554a8020f943cbab",
        "caterpillar": "e6415856cc59ac6e",
        "spider": "f5d0ff36d2d3527c",
        "broom": "456b8015cc829dee",
    }
    SPLIT = {
        "uniform": "49e762c3e3f1cd1f",
        "path": "2b6b4b7a8629ca5d",
        "star": "abbc1876911ad9c3",
        "caterpillar": "43e0625f6d359f95",
        "spider": "685a408121963b78",
        "broom": "0a6deec671c39492",
    }
    DECOMPOSE = {
        "uniform": "65118486d55d7779",
        "path": "27ee4b7e647d371c",
        "star": "c7ceeec6d87c54b6",
        "caterpillar": "3ddc188d7617569d",
        "spider": "bd081009479ba54f",
        "broom": "70c269e24742899c",
    }

    def test_every_family_is_pinned(self):
        for pins in (self.PREFIX, self.SPLIT, self.DECOMPOSE):
            assert sorted(pins) == sorted(GENERATOR_FAMILIES)

    @pytest.mark.parametrize("family", sorted(PREFIX))
    def test_prefix_orders(self, family):
        assert passes_digest(family, self.SIZES, self.SEEDS, prefix_orders_of) == self.PREFIX[family]

    @pytest.mark.parametrize("family", sorted(SPLIT))
    def test_splits(self, family):
        sizes = [n for n in self.SIZES if n >= 3]
        assert passes_digest(family, sizes, self.SEEDS, splits_of) == self.SPLIT[family]

    @pytest.mark.parametrize("family", sorted(DECOMPOSE))
    def test_decompositions(self, family):
        sizes = [n for n in self.SIZES if n >= 57]
        assert passes_digest(family, sizes, self.SEEDS, decompositions_of) == self.DECOMPOSE[family]


def brute_rooted_iso(t1, r1, t2, r2):
    """Exhaustive rooted oriented isomorphism via permutation search."""
    if t1.n != t2.n:
        return False

    def rec(map_, used, frontier):
        if not frontier:
            return len(map_) == t1.n
        v, img = frontier[0]
        children1 = [u for u in t1.nbrs(v) if u not in map_]
        children2 = [u for u in t2.nbrs(img) if u not in used]
        if len(children1) != len(children2):
            return False
        if not children1:
            return rec(map_, used, frontier[1:])
        for perm in itertools.permutations(children2):
            ok = True
            for a, b in zip(children1, perm):
                if (a in t1.out(v)) != (b in t2.out(img)):
                    ok = False
                    break
            if not ok:
                continue
            new_map = dict(map_)
            new_used = set(used)
            for a, b in zip(children1, perm):
                new_map[a] = b
                new_used.add(b)
            if rec(new_map, new_used, frontier[1:] + list(zip(children1, perm))):
                return True
        return False

    return rec({r1: r2}, {r2}, [(r1, r2)])


def all_free_trees(n):
    """All unlabeled trees on n vertices, as edge lists over 0..n-1."""
    seen = {}
    for pruefer in itertools.product(range(n), repeat=max(0, n - 2)):
        degree = [1] * n
        for v in pruefer:
            degree[v] += 1
        edges = []
        seq = list(pruefer)
        deg = degree[:]
        import heapq

        leaves = [v for v in range(n) if deg[v] == 1]
        heapq.heapify(leaves)
        for v in seq:
            leaf = heapq.heappop(leaves)
            edges.append((leaf, v))
            deg[v] -= 1
            if deg[v] == 1:
                heapq.heappush(leaves, v)
        u = heapq.heappop(leaves)
        w = heapq.heappop(leaves)
        edges.append((u, w))
        und = OrientedTree(n, edges)
        key = min(canonical_rooted_form(und, r) for r in range(n))
        seen.setdefault(key, edges)
    return list(seen.values())


class TestCanonicalForm:
    def test_single_edges_equal(self):
        a = OrientedTree(2, [(0, 1)])
        b = OrientedTree(2, [(0, 1)])
        assert canonical_rooted_form(a, 0) == canonical_rooted_form(b, 0)

    def test_orientation_distinguishes(self):
        a = OrientedTree(2, [(0, 1)])
        b = OrientedTree(2, [(1, 0)])
        assert canonical_rooted_form(a, 0) != canonical_rooted_form(b, 0)

    def test_two_edge_path_orientations_distinct(self):
        # all 4 orientations of the path rooted at an endpoint are distinct
        combos = [
            [(0, 1), (1, 2)],
            [(0, 1), (2, 1)],
            [(1, 0), (1, 2)],
            [(1, 0), (2, 1)],
        ]
        forms = {canonical_rooted_form(OrientedTree(3, e), 0) for e in combos}
        assert len(forms) == 4

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_agrees_with_brute_force_exhaustive(self, n):
        # Every orientation of every shape, rooted everywhere: canonical
        # strings must match exactly the brute-force isomorphism classes.
        objects = []
        for shape in all_free_trees(n):
            for bits in itertools.product([0, 1], repeat=n - 1):
                edges = [
                    (u, v) if b else (v, u) for (u, v), b in zip(shape, bits)
                ]
                tree = OrientedTree(n, edges)
                for root in range(n):
                    objects.append((tree, root, canonical_rooted_form(tree, root)))
        by_form = {}
        for tree, root, form in objects:
            by_form.setdefault(form, []).append((tree, root))
        # Same form -> isomorphic (check each member against its class rep).
        for form, members in by_form.items():
            rep_t, rep_r = members[0]
            for t, r in members[1:]:
                assert brute_rooted_iso(rep_t, rep_r, t, r), form
        # Distinct forms -> non-isomorphic (all representative pairs).
        reps = [members[0] for members in by_form.values()]
        for (t1, r1), (t2, r2) in itertools.combinations(reps, 2):
            assert not brute_rooted_iso(t1, r1, t2, r2)

    @pytest.mark.parametrize("n", [6, 7])
    def test_agrees_with_brute_force_sampled(self, n):
        rng = np.random.default_rng(n)
        objects = []
        for shape in all_free_trees(n):
            for bits in itertools.product([0, 1], repeat=n - 1):
                edges = [(u, v) if b else (v, u) for (u, v), b in zip(shape, bits)]
                tree = OrientedTree(n, edges)
                for root in range(n):
                    objects.append((tree, root, canonical_rooted_form(tree, root)))
        by_form = {}
        for tree, root, form in objects:
            by_form.setdefault(form, []).append((tree, root))
        forms = sorted(by_form)
        for form in forms[:: max(1, len(forms) // 60)]:
            members = by_form[form]
            rep_t, rep_r = members[0]
            t, r = members[len(members) // 2]
            assert brute_rooted_iso(rep_t, rep_r, t, r)
        for _ in range(300):
            f1, f2 = rng.choice(len(forms), size=2, replace=False)
            t1, r1 = by_form[forms[f1]][0]
            t2, r2 = by_form[forms[f2]][0]
            assert not brute_rooted_iso(t1, r1, t2, r2)


class TestMaximalBarePaths:
    def test_interior_walked_once(self):
        rng = np.random.default_rng(4)
        for seed in range(10):
            tree = gen_random_tree(80, 3, "uniform", np.random.default_rng(seed))
            walks = maximal_bare_paths(tree)
            interior_seen = set()
            for w in walks:
                for v in w[1:-1]:
                    assert tree.degree(v) == 2
                    assert v not in interior_seen
                    interior_seen.add(v)


def union_find_pieces(tree, verts):
    """Reference for `components`: union the tree edges inside `verts`."""
    root = {v: v for v in verts}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in tree.edge_list:
        if u in root and v in root:
            root[find(u)] = find(v)
    groups = {}
    for v in verts:
        groups.setdefault(find(v), []).append(v)
    return sorted(sorted(g) for g in groups.values())


def tree_distances(tree):
    """All-pairs distances by Floyd-Warshall over the edge list."""
    n = tree.n
    dist = np.full((n, n), n, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    for u, v in tree.edge_list:
        dist[u, v] = dist[v, u] = 1
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist


class TestGuestTreeWalks:
    """`components`, `subtree_sizes` and `induced_subtree` against walk-free references."""

    @given(st.integers(0, 10_000), st.integers(1, 60), st.sampled_from(["uniform", "spider", "caterpillar"]))
    @settings(max_examples=80, deadline=None)
    def test_components_match_union_find(self, seed, n, family):
        rng = np.random.default_rng(seed)
        tree = gen_random_tree(n, 3, family, rng)
        verts = {int(v) for v in np.flatnonzero(rng.random(n) < rng.random())}
        pieces = components(tree, np.array(sorted(verts), dtype=np.int64))
        assert sorted(pieces) == union_find_pieces(tree, verts)
        assert [p[0] for p in pieces] == sorted(p[0] for p in pieces)
        assert all(p == sorted(p) and all(type(v) is int for v in p) for p in pieces)

    def test_components_of_nothing_and_of_everything(self):
        tree = gen_random_tree(20, 3, "uniform", np.random.default_rng(4))
        assert components(tree, []) == []
        assert components(tree, range(20)) == [list(range(20))]

    @given(st.integers(0, 10_000), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_subtree_sizes_match_distance_counts(self, seed, n):
        rng = np.random.default_rng(seed)
        tree = gen_random_tree(n, 3, "uniform", rng)
        root = int(rng.integers(n))
        parent, size = subtree_sizes(tree, root)
        dist = tree_distances(tree)
        assert parent[root] == -1
        for v in range(n):
            if v != root:
                assert v in tree.nbrs(parent[v]) and dist[root, parent[v]] == dist[root, v] - 1
            # v's subtree: every u whose path from the root runs through v.
            assert size[v] == int((dist[root] == dist[root, v] + dist[v]).sum())

    @given(st.integers(0, 10_000), st.integers(2, 60))
    @settings(max_examples=60, deadline=None)
    def test_induced_subtree_matches_the_edge_list_filter(self, seed, n):
        rng = np.random.default_rng(seed)
        tree = gen_random_tree(n, 3, "uniform", rng)
        keep = np.flatnonzero(rng.random(n) < 0.6).tolist() or [0]
        verts = max(components(tree, keep), key=len)
        t = verts[int(rng.integers(len(verts)))]
        piece = induced_subtree(tree, reversed(verts), t=t)
        index = {v: i for i, v in enumerate(verts)}
        filtered = {(index[u], index[v]) for u, v in tree.edge_list if u in index and v in index}
        assert set(piece.tree.edge_list) == filtered
        assert piece.labels.tolist() == verts
        assert piece.tree.t == index[t]


FAMILIES = ["uniform", "spider", "caterpillar", "path"]


def rebuilt_induced(tree, verts, t=None):
    """Reference for `induced_subtree`: the filtered edge list through the constructor."""
    verts = sorted(verts)
    index = {v: i for i, v in enumerate(verts)}
    edges = [(index[u], index[w]) for u in verts for w in tree.out(u) if w in index]
    return OrientedTree(len(verts), edges, t=index[t] if t is not None else None)


def assert_same_tree(a, b):
    assert (a.n, a.edge_list, a.t) == (b.n, b.edge_list, b.t)
    for v in range(a.n):
        assert (a.out(v), a.in_(v), a.nbrs(v)) == (b.out(v), b.in_(v), b.nbrs(v))


class TestDerivedTrees:
    """`induced_subtree` and `with_t` build from the parent's adjacency; the constructor is the reference."""

    @given(st.integers(0, 10_000), st.integers(3, 70), st.sampled_from(FAMILIES))
    @settings(max_examples=80, deadline=None)
    def test_split_pieces_equal_rebuilt_trees(self, seed, n, family):
        rng = np.random.default_rng(seed)
        tree = gen_random_tree(n, 3, family, rng)
        keep = int(rng.integers(n))
        piece1, piece2, _shared = split_tree(tree, max(1, n // 4), keep=keep)
        assert_same_tree(piece1.tree, rebuilt_induced(tree, piece1.labels.tolist(), t=keep))
        assert_same_tree(piece2.tree, rebuilt_induced(tree, piece2.labels.tolist()))

    @given(st.integers(0, 10_000), st.integers(1, 70), st.sampled_from(FAMILIES))
    @settings(max_examples=80, deadline=None)
    def test_components_equal_rebuilt_trees(self, seed, n, family):
        rng = np.random.default_rng(seed)
        tree = gen_random_tree(n, 3, family, rng)
        keep = np.flatnonzero(rng.random(n) < rng.random()).tolist()
        for verts in components(tree, keep):
            t = verts[int(rng.integers(len(verts)))]
            piece = induced_subtree(tree, verts, t=t)
            assert piece.labels.tolist() == verts
            assert_same_tree(piece.tree, rebuilt_induced(tree, verts, t=t))

    @given(st.integers(0, 10_000), st.integers(3, 70), st.sampled_from(FAMILIES))
    @settings(max_examples=60, deadline=None)
    def test_disconnected_set_raises_the_constructors_error(self, seed, n, family):
        rng = np.random.default_rng(seed)
        tree = gen_random_tree(n, 3, family, rng)
        keep = np.flatnonzero(rng.random(n) < 0.5).tolist()
        if len(components(tree, keep)) < 2:
            keep = [v for v in range(n) if v != tree.nbrs(tree.leaves()[0])[0]]
        assert len(components(tree, keep)) >= 2
        with pytest.raises(ValueError) as ref:
            rebuilt_induced(tree, keep)
        with pytest.raises(ValueError, match=f"^{re.escape(str(ref.value))}$"):
            induced_subtree(tree, keep)

    def test_duplicate_and_empty_ids_take_the_constructor(self):
        tree = path_tree(5)
        with pytest.raises(ValueError, match="connected"):
            induced_subtree(tree, [1, 1, 2])
        with pytest.raises(ValueError, match="at least one vertex"):
            induced_subtree(tree, [])

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_ids_outside_the_tree_are_named(self, bad):
        # Id -1 must not read vertex 4's adjacency, nor id 5 index past the end.
        tree = OrientedTree(5, [(4, 0), (0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match=rf"^vertex id {bad} outside 0\.\.4$"):
            induced_subtree(tree, [bad, 0])

    def test_t_outside_the_vertices_is_named(self):
        tree = path_tree(8)
        with pytest.raises(ValueError, match=r"distinguished vertex 5 is not among"):
            induced_subtree(tree, [0, 1, 2], t=5)

    @given(st.integers(0, 10_000), st.integers(1, 50), st.sampled_from(FAMILIES))
    @settings(max_examples=40, deadline=None)
    def test_with_t_equals_a_rebuilt_tree(self, seed, n, family):
        rng = np.random.default_rng(seed)
        tree = gen_random_tree(n, 3, family, rng)
        for t in (None, 0, n - 1, int(rng.integers(n))):
            assert_same_tree(tree.with_t(t), OrientedTree(n, tree.edge_list, t=t))
        for bad in (-1, n):
            with pytest.raises(ValueError) as ref:
                OrientedTree(n, tree.edge_list, t=bad)
            with pytest.raises(ValueError, match=f"^{re.escape(str(ref.value))}$"):
                tree.with_t(bad)


def recursive_canon(tree, root):
    """The recursive canonical form and order that `canonical_form_and_order` replaced."""

    def rec(v, parent):
        items = []
        for u in tree.nbrs(v):
            if u == parent:
                continue
            label = "+" if u in tree.out(v) else "-"
            sub, sub_order = rec(u, v)
            items.append((label + sub, sub_order))
        items.sort(key=lambda it: it[0])
        order = [v]
        for _, sub_order in items:
            order.extend(sub_order)
        return "(" + "".join(it[0] for it in items) + ")", order

    return rec(root, -1)


def double_canon_classes(comps):
    """`group_components` as it was: canonical orders recomputed for the rep and each member."""
    classes = {}
    for idx, comp in enumerate(comps):
        form, root = min((recursive_canon(comp, r)[0], r) for r in _centroids(comp))
        if form not in classes:
            classes[form] = (comp, root, [], [])
        rep, rep_root, members, maps = classes[form]
        rep_order = recursive_canon(rep, rep_root)[1]
        mem_order = recursive_canon(comp, root)[1]
        members.append(idx)
        maps.append(dict(zip(rep_order, mem_order)))
    return [classes[key] for key in sorted(classes)]


def relabelled(tree, perm):
    return OrientedTree(tree.n, [(perm[u], perm[v]) for u, v in tree.edge_list])


class TestIterativeCanon:
    @given(st.integers(0, 10_000), st.integers(1, 40), st.sampled_from(FAMILIES + ["star", "broom"]))
    @settings(max_examples=120, deadline=None)
    def test_matches_the_recursive_version(self, seed, n, family):
        rng = np.random.default_rng(seed)
        tree = gen_random_tree(n, max(3, n - 1) if family == "star" else 3, family, rng)
        for root in range(n):
            assert canonical_form_and_order(tree, root) == recursive_canon(tree, root)
            assert canonical_rooted_form(tree, root) == recursive_canon(tree, root)[0]

    def test_deep_path(self):
        n = 5000
        tree = path_tree(n)
        form, order = canonical_form_and_order(tree, 0)
        assert form == "(+" * (n - 1) + "()" + ")" * (n - 1)
        assert order == list(range(n))
        assert canonical_rooted_form(tree, n - 1) == "(-" * (n - 1) + "()" + ")" * (n - 1)

    def test_group_components_on_a_deep_path(self):
        tree = path_tree(2500, forward=False)
        (cls,) = group_components([tree, tree.with_t(0)])
        assert cls.members == [0, 1]
        assert cls.member_maps == [{v: v for v in range(2500)}] * 2

    @given(st.integers(0, 10_000), st.integers(5, 60), st.sampled_from(FAMILIES))
    @settings(max_examples=60, deadline=None)
    def test_group_components_matches_the_double_canon_version(self, seed, n, family):
        # A mixed forest: the pieces of a random vertex subset, plus relabelled
        # copies of some, so that classes hold several members.
        rng = np.random.default_rng(seed)
        tree = gen_random_tree(n, 3, family, rng)
        keep = np.flatnonzero(rng.random(n) < 0.7).tolist()
        comps = [induced_subtree(tree, verts).tree for verts in components(tree, keep)]
        for comp in list(comps):
            if rng.random() < 0.5:
                comps.append(relabelled(comp, rng.permutation(comp.n).tolist()))
        comps = [comps[i] for i in rng.permutation(len(comps))]
        got = [(c.rep, c.rep_root, c.members, c.member_maps) for c in group_components(comps)]
        assert got == double_canon_classes(comps)

    @given(st.integers(0, 10_000), st.integers(6, 60))
    @settings(max_examples=60, deadline=None)
    def test_two_centroid_components_match_the_double_canon_version(self, seed, n):
        # Oriented paths on an even number of vertices (two centroids), the
        # legs of a spider with its centre removed, and a spider with a leg of
        # half the vertices (two centroids again), each with relabelled copies
        # so that classes hold several members.
        rng = np.random.default_rng(seed)
        comps = []
        for k in range(2, 2 * int(rng.integers(2, 8)) + 1):
            comps.append(OrientedTree(k, [(v, v + 1) if rng.random() < 0.5 else (v + 1, v)
                                          for v in range(k - 1)]))
        spider = gen_random_tree(n, 3, "spider", rng)
        comps += [induced_subtree(spider, verts).tree for verts in components(spider, range(1, n))]
        # Centre 0, a leg 1..n/2, and legs of one or two vertices.
        n -= n % 2
        half = n // 2
        legs = [(v - 1, v) for v in range(1, half + 1)]
        legs += [(0 if (v - half) % 2 else v - 1, v) for v in range(half + 1, n)]
        comps.append(OrientedTree(n, [e if rng.random() < 0.5 else e[::-1] for e in legs]))
        assert _centroids(comps[-1]) == [0, 1]
        for comp in list(comps):
            if rng.random() < 0.7:
                comps.append(relabelled(comp, rng.permutation(comp.n).tolist()))
        comps = [comps[i] for i in rng.permutation(len(comps))]
        assert sum(len(_centroids(c)) == 2 for c in comps) >= 3
        for comp in comps:
            roots = _centroids(comp)
            assert canonical_forms_and_orders(comp, roots) == [recursive_canon(comp, r) for r in roots]
        got = [(c.rep, c.rep_root, c.members, c.member_maps) for c in group_components(comps)]
        assert got == double_canon_classes(comps)
