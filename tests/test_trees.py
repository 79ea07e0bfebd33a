import hashlib
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spantree.decompose import DecompositionError, decompose
from spantree.digraph import Sign
from spantree.embedder import stars_from_decomposition
from spantree.matching import _centroids
from spantree.params import spanning_defaults
from spantree.trees import FAMILIES as GENERATOR_FAMILIES
from spantree.trees import (
    OrientedTree,
    canonical_children,
    canonical_forms,
    components,
    find_independent_leaves,
    gen_random_tree,
    induced_subtree,
    induced_subtrees,
    max_semidegree,
    maximal_bare_paths,
    prefix_order,
    split_tree,
    subtree_sizes,
)

from helpers import plain_state, tree_leaves


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
        in_deg = [tree.degree(v) - len(tree.out(v)) for v in range(4)]
        assert max_semidegree(tree) == (max(out_deg), max(in_deg)) == (2, 2)


class TestPrefixOrder:
    def test_single_edge(self):
        tree = OrientedTree(2, [(0, 1)])
        po = prefix_order(tree, 0)
        assert po.order == (0, 1)
        assert po.parent_index == (-1, 0)
        assert po.sign[1] is Sign.PLUS

    def test_rejections(self):
        tree = path_tree(4)
        with pytest.raises(ValueError, match="^unknown policy 'bfs'$"):
            prefix_order(tree, 0, "bfs")
        for root in (-1, 4):
            with pytest.raises(ValueError, match="^root out of range$"):
                prefix_order(tree, root)

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
                assert tree.edge_sign(parent, v) is po.sign[i]
                earlier = [u for u in tree.nbrs(v) if u in seen]
                assert earlier == [parent]
            seen.add(v)


class TestIndependentLeaves:
    def brute_max(self, tree):
        leaves = tree_leaves(tree)
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
            for leaf in tree_leaves(tree):
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

    @pytest.mark.parametrize("m", [0, 5])
    def test_m_range(self, m):
        with pytest.raises(ValueError, match=rf"^need 1 <= m <= \|T\|/3, got m={m}, \|T\|=12$"):
            split_tree(path_tree(12), m)

    @pytest.mark.parametrize("keep", [-1, 12, 40])
    def test_keep_outside_the_tree_is_named(self, keep):
        # -1 once hung the tree at its last vertex, and 12 raised a bare IndexError.
        with pytest.raises(ValueError, match=rf"^keep vertex {keep} outside 0\.\.11$"):
            split_tree(path_tree(12), 3, keep=keep)

    @given(st.integers(0, 10_000), st.integers(6, 90))
    @settings(max_examples=50, deadline=None)
    def test_postconditions(self, seed, n):
        rng = np.random.default_rng(seed)
        tree = gen_random_tree(n, 3, "uniform", rng)
        m = int(rng.integers(1, n // 3 + 1))
        p1, p2, shared = split_tree(tree, m)
        assert m <= p2.tree.n <= 2 * m - 1
        assert p1.tree.n + p2.tree.n == n + 1
        both = np.intersect1d(p1.labels, p2.labels)
        assert len(both) == 1 and both[0] == shared


class TestGenerators:
    @pytest.mark.parametrize("n,max_semideg,message", [(0, 3, "n >= 1"), (5, 0, "max_semideg >= 1")])
    def test_argument_checks(self, n, max_semideg, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            gen_random_tree(n, max_semideg, "uniform", np.random.default_rng(0))

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

    @pytest.mark.parametrize("edges, t, message", [
        ([(0, 1.7), (1, 2)], None, "vertex id 1.7 of edge (0,1.7) is not an integer"),
        ([(0, True), (1, 2)], None, "vertex id True of edge (0,True) is not an integer"),
        ([(0, 1), (2.0, 1)], None, "vertex id 2.0 of edge (2.0,1) is not an integer"),
        ([(0, 1), (np.float64(1), 2)], None, f"vertex id {np.float64(1)!r} of edge"),
        ([(0, 1), (1, 2)], 1.5, "distinguished vertex 1.5 is not an integer"),
        ([(0, 1), (1, 2)], True, "distinguished vertex True is not an integer"),
        ([(0, 1), (1, 2)], np.bool_(False), f"distinguished vertex {np.bool_(False)!r} is not an integer"),
    ])
    def test_ids_that_are_not_integers_are_named(self, edges, t, message):
        # int() used to truncate 1.7 to 1 and turn True into 1, and t = 1.5 was stored.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            OrientedTree(3, edges, t=t)
        with pytest.raises(ValueError, match="^distinguished vertex 1.5 is not an integer$"):
            OrientedTree(3, [(0, 1), (1, 2)]).with_t(1.5)

    def test_numpy_integer_ids_keep_working(self):
        tree = OrientedTree(3, np.array([[0, 1], [2, 1]], np.int16), t=np.int64(2))
        assert (tree.edge_list, tree.t) == (((0, 1), (2, 1)), 2)
        assert tree.with_t(np.uint8(1)).t == 1 and tree.out(2) == (1,)

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

    def test_uniform_at_four_thousand(self):
        cases = list(itertools.product((4000,), (1, 2, 3, 6), range(2)))
        assert stream_digest("uniform", cases) == "4f440baa31ad0914"

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


def reference_tree(n, max_semideg, family, rng):
    """The earlier generator: one scalar rng.integers(2) per direction, then the validating constructor."""
    if n < 1:
        raise ValueError("n >= 1")
    if max_semideg < 1:
        raise ValueError("max_semideg >= 1")
    if family not in GENERATOR_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n == 1:
        return OrientedTree(1, [], t=0)
    full = 2 * max_semideg
    out_deg, in_deg, edges = [0] * n, [0] * n, []

    def orient(parent, child):
        can_out, can_in = out_deg[parent] < max_semideg, in_deg[parent] < max_semideg
        if not (can_out or can_in):
            raise ValueError("family/degree combination infeasible")
        forward = bool(rng.integers(2)) if can_out and can_in else can_out
        tail, head = (parent, child) if forward else (child, parent)
        edges.append((tail, head))
        out_deg[tail] += 1
        in_deg[head] += 1
        return out_deg[parent] + in_deg[parent] == full

    def hang(spine, pick):
        open_ = [u for u in range(spine) if out_deg[u] + in_deg[u] < full]
        for v in range(spine, n):
            if not open_:
                raise ValueError("family/degree combination infeasible")
            i = pick(open_)
            if orient(open_[i], v):
                del open_[i]

    if family == "path":
        edges.extend((v, v + 1) for v in range(n - 1))
    elif family == "star":
        if max_semideg < n - 1:
            raise ValueError(f"star with n={n} needs max_semideg >= {n - 1}")
        edges.extend((0, v) for v in range(1, n))
    elif family == "uniform":
        cap, cdf = np.zeros(n), np.empty(n)
        cap[0] = total = full
        for v in range(1, n):
            head = cdf[:v]
            np.divide(cap[:v], total, out=head)
            np.add.accumulate(head, out=head)
            head /= head[-1]
            parent = int(head.searchsorted(rng.random(), side="right"))
            orient(parent, v)
            cap[parent] -= 1
            cap[v] = full - 1
            total += full - 2
    elif family == "caterpillar":
        spine_len = max(2, n // 3)
        for v in range(spine_len - 1):
            orient(v, v + 1)
        hang(spine_len, lambda open_: int(rng.integers(len(open_))))
    elif family == "spider":
        legs = min(full, max(2, int(np.ceil(np.sqrt(n)))), n - 1)
        tips = list(range(1, legs + 1))
        for v in tips:
            orient(0, v)
        for v in range(legs + 1, n):
            leg = (v - legs - 1) % legs
            orient(tips[leg], v)
            tips[leg] = v
    else:
        handle = max(1, n - full)
        for v in range(handle - 1):
            orient(v, v + 1)
        hang(handle, lambda open_: len(open_) - 1)
    return OrientedTree(n, edges, t=0)


def generated(make, n, delta, family, rng):
    """Everything a generator call leaves: the tree's parts (or the error text) and the rng state."""
    try:
        tree = make(n, delta, family, rng)
        result = (tree.edge_list, tree.t, [tree.out(v) for v in range(n)], [tree.nbrs(v) for v in range(n)])
    except ValueError as exc:
        result = f"ValueError: {exc}"
    return result, getattr(rng, "bit_generator", None) and rng.bit_generator.state


SHAPED_FAMILIES = ("path", "star", "caterpillar", "spider", "broom")   # drawn as parent arrays


class TestGeneratorAgainstReference:
    """gen_random_tree against reference_tree, the earlier generator, call for call.

    The block draw of spider and broom trees must leave the trees, the error
    texts and the rng state exactly where one scalar draw per edge left them.
    """

    @given(st.sampled_from(GENERATOR_FAMILIES), st.integers(1, 300), st.integers(1, 6),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_same_trees_errors_and_state(self, family, n, delta, seed):
        want = generated(reference_tree, n, delta, family, np.random.default_rng(seed))
        assert generated(gen_random_tree, n, delta, family, np.random.default_rng(seed)) == want

    @given(st.integers(2, 2000), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @example(2000, 3, 0)
    @example(1999, 6, 1)
    @settings(max_examples=40, deadline=None)
    def test_uniform_up_to_two_thousand(self, n, delta, seed):
        # The Fenwick count with its float-cdf fallback against the float cdf
        # built at every step.
        want = generated(reference_tree, n, delta, "uniform", np.random.default_rng(seed))
        assert generated(gen_random_tree, n, delta, "uniform", np.random.default_rng(seed)) == want

    @pytest.mark.parametrize("delta", [1, 2, 3, 6])
    def test_uniform_draws_on_eighths(self, delta):
        # Draws on multiples of 1/8, and one ulp to either side, put r * total
        # on or next to an integer at many steps: inside the margin, where the
        # exact count and the float cdf may part, so the fallback must answer.
        eighths = [k / 8 for k in range(8)]
        draws = eighths + [np.nextafter(u, 1.0) for u in eighths] + [np.nextafter(u, 0.0) for u in eighths[1:]]

        class GridDraws:
            def __init__(self):
                self.draws, self.bits = itertools.cycle(draws), itertools.cycle([0, 1, 1])

            def random(self):
                return next(self.draws)

            def integers(self, k):
                return next(self.bits)

        n, full = 600, 2 * delta
        totals = [full + (v - 1) * (full - 2) for v in range(1, n)]
        near = sum(abs(u * t - round(u * t)) < 1e-9 for u, t in zip(itertools.cycle(draws), totals))
        assert near > n // 5
        rngs = GridDraws(), GridDraws()
        want = reference_tree(n, delta, "uniform", rngs[0]).edge_list, rngs[0].random()
        assert (gen_random_tree(n, delta, "uniform", rngs[1]).edge_list, rngs[1].random()) == want

    @pytest.mark.parametrize("family", SHAPED_FAMILIES)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 10, 40, 57, 200, 2000])
    @pytest.mark.parametrize("delta", [1, 2, 3, 5])
    def test_block_families(self, family, n, delta):
        for seed in range(3):
            want = generated(reference_tree, n, delta, family, np.random.default_rng(seed))
            assert generated(gen_random_tree, n, delta, family, np.random.default_rng(seed)) == want

    def test_families_in_a_row_from_one_rng(self):
        # As demo 01 does: several families drawn one after another from one stream.
        calls = [(n, 3, family) for n in (12, 200) for family in GENERATOR_FAMILIES if family != "star"]
        calls += [(5, 4, "star"), (40, 2, "spider"), (40, 1, "broom"), (9, 3, "star")]
        rngs = np.random.default_rng(11), np.random.default_rng(11)
        for n, delta, family in calls:
            want = generated(reference_tree, n, delta, family, rngs[0])
            assert generated(gen_random_tree, n, delta, family, rngs[1]) == want, (n, delta, family)

    @pytest.mark.parametrize("family", GENERATOR_FAMILIES)
    @pytest.mark.parametrize("n", [2, 7, 64, 301])
    def test_with_a_pending_32_bit_half(self, family, n):
        # rng.integers(7) leaves half of a 64-bit output buffered for the next 32-bit draw.
        rngs = np.random.default_rng(5), np.random.default_rng(5)
        for rng in rngs:
            rng.integers(7)
        assert rngs[0].bit_generator.state["has_uint32"] == 1
        want = generated(reference_tree, n, 2, family, rngs[0])
        assert generated(gen_random_tree, n, 2, family, rngs[1]) == want

    @pytest.mark.parametrize("family", ["spider", "broom"])
    def test_shaped_families_at_every_small_shape(self, family):
        # A broom hangs its last vertices on at most two open vertices of its
        # handle, and a spider's root edges are drawn one by one: every n and
        # cap where those counts change.
        for n, delta, seed in itertools.product(range(1, 31), range(1, 9), range(2)):
            want = generated(reference_tree, n, delta, family, np.random.default_rng(seed))
            assert generated(gen_random_tree, n, delta, family, np.random.default_rng(seed)) == want, (n, delta)

    def test_rows_share_one_object_per_vertex_id(self):
        # Every generated row holds the table's object for its id, also once
        # a larger tree has grown the table between two calls.
        trees = [gen_random_tree(n, 3, family, np.random.default_rng(n))
                 for n, family in ((2000, "spider"), (70_000, "caterpillar"), (2000, "uniform"),
                                   (3000, "broom"), (2000, "path"))]
        objects = {}
        for tree in trees:
            for v in range(tree.n):
                for u in tree.nbrs(v):
                    assert objects.setdefault(u, u) is u, (tree.n, v, u)
        assert sorted(objects) == list(range(70_000))


BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
@pytest.mark.parametrize("k", [1, 2, 3, 5, 1999])
@pytest.mark.parametrize("pending_half", [False, True])
def test_a_block_of_bits_is_the_scalar_stream(bit_generator, k, pending_half):
    # numpy fills integers(2, size=k) from the same 32-bit outputs as k scalar calls.
    rngs = np.random.Generator(bit_generator(17)), np.random.Generator(bit_generator(17))
    if pending_half:
        for rng in rngs:
            rng.integers(7)
    block = rngs[0].integers(2, size=k).tolist()
    scalars = [int(rngs[1].integers(2)) for _ in range(k)]
    states = [plain_state(rng.bit_generator.state) for rng in rngs]
    assert (block, states[0]) == (scalars, states[1]), (
        "integers(2, size=k) no longer replays k scalar integers(2) calls on this numpy: "
        "revisit the stream rules that draws.WordReader serves spider and broom coins by")


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
@pytest.mark.parametrize("k, m", [(2000, 2000), (2000, 37), (300, 300), (5, 2), (1, 1), (0, 0)])
@pytest.mark.parametrize("pending_half", [False, True])
def test_decreasing_bounds_are_the_scalar_stream(bit_generator, k, m, pending_half):
    # numpy draws an array-bounded integers(0, bounds) element by element; bound 1
    # draws nothing, as a scalar integers(1) does, and so does an empty array.
    rngs = np.random.Generator(bit_generator(17)), np.random.Generator(bit_generator(17))
    if pending_half:
        for rng in rngs:
            rng.integers(7)
    block = rngs[0].integers(0, np.arange(k, k - m, -1)).tolist()
    scalars = [int(rngs[1].integers(k - j)) for j in range(m)]
    states = [plain_state(rng.bit_generator.state) for rng in rngs]
    nexts = [int(rng.integers(2**62)) for rng in rngs]
    assert (block, states[0], nexts[0]) == (scalars, states[1], nexts[1]), (
        "integers(0, arange(k, k - m, -1)) no longer replays m scalar integers(k - j) calls "
        "on this numpy: revisit the stream rules that draws.WordReader serves full-row picks by")


class TestGeneratorUnderEachRng:
    """gen_random_tree against reference_tree on every bit generator and on test doubles.

    Half-buffering bit generators are read as raw words and MT19937 through
    its own calls; either way the trees, the errors raised mid-draw and the
    state after the call must be those of the scalar calls.
    """

    CASES = [(family, n, delta) for family in GENERATOR_FAMILIES
             for n in (1, 2, 3, 4, 5, 6, 10, 40, 57, 301, 2000) for delta in (1, 2, 3)]

    @pytest.mark.parametrize("bit_generator", (*BIT_GENERATORS, np.random.PCG64DXSM), ids=lambda bg: bg.__name__)
    @pytest.mark.parametrize("pending_half", [False, True])
    def test_trees_errors_and_state(self, bit_generator, pending_half):
        errors = 0
        for i, (family, n, delta) in enumerate(self.CASES):
            rngs = np.random.Generator(bit_generator(i)), np.random.Generator(bit_generator(i))
            if pending_half:
                for rng in rngs:
                    rng.integers(7)
            (want, want_state), (got, got_state) = (
                generated(make, n, delta, family, rng) for make, rng in zip((reference_tree, gen_random_tree), rngs))
            assert (got, plain_state(got_state)) == (want, plain_state(want_state)), (family, n, delta)
            assert rngs[0].random() == rngs[1].random()
            errors += str(want).startswith("ValueError")
        assert errors >= 10

    @pytest.mark.parametrize("family", SHAPED_FAMILIES)
    @pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)])
    def test_shaped_families_on_end_draws(self, family, u):
        # A test double with no bit generator: every coin comes up 0, or 1.
        class EndDraws:
            def random(self):
                return u

            def integers(self, k):
                return 0 if u == 0.0 else k - 1

        errors = 0
        for n, delta in itertools.product((*range(1, 7), 40, 2000), (1, 2, 3)):
            doubles = EndDraws(), EndDraws()
            want = generated(reference_tree, n, delta, family, doubles[0])[0]
            assert generated(gen_random_tree, n, delta, family, doubles[1])[0] == want, (n, delta)
            errors += str(want).startswith("ValueError")
        assert errors == {"star": 15, "caterpillar": 4}.get(family, 0)   # a star over its cap, a full spine

    @pytest.mark.parametrize("family", GENERATOR_FAMILIES)
    def test_doubles(self, family):
        class Cycle:
            def __init__(self):
                self.unit, self.ints = itertools.cycle([0.0, 0.75, 0.5, 0.999]), itertools.count()

            def random(self):
                return next(self.unit)

            def integers(self, k):
                return next(self.ints) % k

        errors = 0
        for n, delta in itertools.product((1, 2, 10, 57, 200), (1, 2, 3)):
            doubles = Cycle(), Cycle()
            want = generated(reference_tree, n, delta, family, doubles[0])[0]
            assert generated(gen_random_tree, n, delta, family, doubles[1])[0] == want
            assert (doubles[0].random(), doubles[0].integers(99)) == (doubles[1].random(), doubles[1].integers(99))
            errors += str(want).startswith("ValueError")
        assert errors >= (3 if family in ("caterpillar", "star") else 0)


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
        key = min(canonical_forms(und, [r])[0] for r in range(n))
        seen.setdefault(key, edges)
    return list(seen.values())


class TestCanonicalForm:
    def test_single_edges_equal(self):
        a = OrientedTree(2, [(0, 1)])
        b = OrientedTree(2, [(0, 1)])
        assert canonical_forms(a, [0])[0] == canonical_forms(b, [0])[0]

    def test_orientation_distinguishes(self):
        a = OrientedTree(2, [(0, 1)])
        b = OrientedTree(2, [(1, 0)])
        assert canonical_forms(a, [0])[0] != canonical_forms(b, [0])[0]

    def test_two_edge_path_orientations_distinct(self):
        # all 4 orientations of the path rooted at an endpoint are distinct
        combos = [
            [(0, 1), (1, 2)],
            [(0, 1), (2, 1)],
            [(1, 0), (1, 2)],
            [(1, 0), (2, 1)],
        ]
        forms = {canonical_forms(OrientedTree(3, e), [0])[0] for e in combos}
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
                    objects.append((tree, root, canonical_forms(tree, [root])[0]))
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
                    objects.append((tree, root, canonical_forms(tree, [root])[0]))
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


def reference_bare_paths(tree):
    """`maximal_bare_paths` as it was before it took degrees: list-comprehension walks."""
    if tree.n <= 2:
        return [[v for v in range(tree.n)]] if tree.n == 2 else []
    stop = [tree.degree(v) != 2 for v in range(tree.n)]
    paths = []
    seen_interior = [False] * tree.n
    for v in range(tree.n):
        if not stop[v]:
            continue
        for u in tree.nbrs(v):
            if stop[u] or seen_interior[u]:
                continue
            walk = [v, u]
            seen_interior[u] = True
            while not stop[walk[-1]]:
                nxt = [w for w in tree.nbrs(walk[-1]) if w != walk[-2]][0]
                walk.append(nxt)
                if not stop[nxt]:
                    seen_interior[nxt] = True
            paths.append(walk)
    return paths


def random_strip(tree, rng):
    """A connected alive mask: rounds of removing a random share of the current leaves."""
    alive = [True] * tree.n
    deg = [tree.degree(v) for v in range(tree.n)]
    for _ in range(int(rng.integers(0, 6))):
        leaves = [v for v in range(tree.n) if deg[v] == 1]
        batch = [v for v in leaves if rng.random() < rng.random()]
        # Keep a vertex: stripping both ends of an edge would empty the tree.
        for v in batch:
            if sum(alive) > 1 and deg[v] == 1:
                alive[v] = False
                deg[v] = 0
                for u in tree.nbrs(v):
                    if alive[u]:
                        deg[u] -= 1
    return alive, deg


class TestBarePathsOfASubtree:
    """`maximal_bare_paths(tree, deg)` walks a subtree in place of its induced copy."""

    @given(st.integers(0, 10_000), st.integers(1, 90), st.sampled_from(GENERATOR_FAMILIES))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_induced_core_mapped_back(self, seed, n, family):
        rng = np.random.default_rng(seed)
        tree = gen_random_tree(n, max(3, n - 1) if family == "star" else 3, family, rng)
        alive, deg = random_strip(tree, rng)
        core = induced_subtree(tree, [v for v in range(n) if alive[v]])
        labels = core.labels.tolist()
        want = [[labels[w] for w in walk] for walk in reference_bare_paths(core.tree)]
        assert maximal_bare_paths(core.tree) == reference_bare_paths(core.tree)
        assert maximal_bare_paths(tree, deg) == want
        assert maximal_bare_paths(tree) == reference_bare_paths(tree)

    def test_interiors_with_outside_neighbours(self):
        # A caterpillar without its hanging leaves is its spine, whose
        # interior vertices keep leaves outside the subtree.
        tree = gen_random_tree(60, 3, "caterpillar", np.random.default_rng(0))
        alive = [tree.degree(v) > 1 for v in range(60)]
        deg = [sum(alive[u] for u in tree.nbrs(v)) if alive[v] else 0 for v in range(60)]
        spine = [v for v in range(60) if alive[v]]
        assert any(tree.degree(v) > 2 for v in spine[1:-1])
        assert maximal_bare_paths(tree, deg) == [spine]


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
    """`components`, `subtree_sizes`, `_centroids` and `induced_subtree` against walk-free references."""

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
        order, parent, size = subtree_sizes(tree, root)
        dist = tree_distances(tree)
        assert parent[root] == -1 and order[0] == root and sorted(order) == list(range(n))
        for i, v in enumerate(order):
            if v != root:
                assert v in tree.nbrs(parent[v]) and dist[root, parent[v]] == dist[root, v] - 1
            # v's subtree: every u whose path from the root runs through v, and the slice at v.
            below = np.flatnonzero(dist[root] == dist[root, v] + dist[v]).tolist()
            assert size[v] == len(below) and sorted(order[i : i + size[v]]) == below

    @given(st.integers(0, 10_000), st.integers(1, 40), st.sampled_from(["uniform", "spider", "caterpillar"]))
    @settings(max_examples=60, deadline=None)
    def test_centroids_match_component_sizes(self, seed, n, family):
        tree = gen_random_tree(n, 3, family, np.random.default_rng(seed))
        worst = [max(map(len, components(tree, set(range(n)) - {v})), default=0) for v in range(n)]
        assert _centroids(tree) == [v for v in range(n) if worst[v] == min(worst)]

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
        assert (a.out(v), a.nbrs(v)) == (b.out(v), b.nbrs(v))


class TestDerivedTrees:
    """`induced_subtree` and `with_t` derive from the parent tree; the constructor is the reference."""

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
            keep = [v for v in range(n) if v != tree.nbrs(tree_leaves(tree)[0])[0]]
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


class TestBatchedPieces:
    """`induced_subtrees` builds every part from one gather; the constructor on each part is the reference."""

    @staticmethod
    def assert_pieces_rebuilt(tree, parts):
        pieces = induced_subtrees(tree, parts)
        assert len(pieces) == len(parts)
        for verts, piece in zip(parts, pieces):
            ref = rebuilt_induced(tree, list(verts))
            assert piece.labels.tolist() == sorted(verts)
            assert_same_tree(piece.tree, ref)
            assert (piece.tree._und, piece.tree._bits) == (ref._und, ref._bits)
            assert_views_match_the_edge_list(piece.tree)

    @given(st.integers(0, 10_000), st.integers(1, 80), st.sampled_from(FAMILIES + ["star", "broom"]))
    @settings(max_examples=80, deadline=None)
    def test_components_equal_rebuilt_trees(self, seed, n, family):
        # Parts come shuffled, in any order inside, as lists or as arrays.
        rng = np.random.default_rng(seed)
        tree = gen_random_tree(n, max(3, n - 1) if family == "star" else 3, family, rng)
        parts = components(tree, np.flatnonzero(rng.random(n) < rng.random()).tolist())
        parts = [rng.permutation(parts[i]) for i in rng.permutation(len(parts))]
        self.assert_pieces_rebuilt(tree, [p if rng.random() < 0.5 else p.tolist() for p in parts])

    @pytest.mark.parametrize("kind", ["out", "in", "mixed"])
    def test_hub_rows_past_64_entries_and_lone_vertices(self, kind):
        # The hub keeps 90 of its 149 leaves, so its row leaves the per-entry
        # bit updates of `_table`; every other leaf is a one-vertex part.
        rng = np.random.default_rng(len(kind))
        flip = {"out": np.zeros(149, bool), "in": np.ones(149, bool), "mixed": rng.random(149) < 0.5}[kind]
        tree = OrientedTree(150, [(v, 0) if f else (0, v) for v, f in zip(range(1, 150), flip.tolist())])
        kept = rng.permutation(np.arange(1, 150))
        parts = [[*kept[:45].tolist(), 0, *kept[45:90].tolist()]] + [[v] for v in kept[90:].tolist()]
        self.assert_pieces_rebuilt(tree, parts)
        assert induced_subtrees(tree, parts)[0].tree.degree(0) == 90
        self.assert_pieces_rebuilt(tree, [[v] for v in range(150)])

    def test_no_parts(self):
        assert induced_subtrees(path_tree(4), []) == []

    def test_overlapping_parts_are_named(self):
        tree = path_tree(8)
        with pytest.raises(ValueError, match=r"^vertex id 3 is listed twice"):
            induced_subtrees(tree, [[0, 1, 2, 3], [3, 4, 5]])
        with pytest.raises(ValueError, match=r"^vertex id 6 is listed twice"):
            induced_subtrees(tree, [[6], [6]])

    @given(st.integers(0, 10_000), st.integers(4, 60), st.sampled_from(FAMILIES))
    @settings(max_examples=40, deadline=None)
    def test_a_disconnected_part_raises_the_constructors_error(self, seed, n, family):
        # The pieces left by removing a vertex of degree >= 2: two of them, joined, are disconnected.
        rng = np.random.default_rng(seed)
        tree = gen_random_tree(n, 3, family, rng)
        cut = max(range(n), key=tree.degree)
        parts = components(tree, [v for v in range(n) if v != cut]) + [[cut]]
        bad = int(rng.integers(1, len(parts) - 1))
        joined = parts[:bad - 1] + [parts[bad - 1] + parts[bad]] + parts[bad + 1:]
        with pytest.raises(ValueError) as ref:
            rebuilt_induced(tree, parts[bad - 1] + parts[bad])
        with pytest.raises(ValueError, match=f"^{re.escape(str(ref.value))}$"):
            induced_subtrees(tree, joined)

    @pytest.mark.parametrize("bad", [-1, 5, 9])
    def test_ids_outside_the_tree_are_named_in_any_part(self, bad):
        tree = OrientedTree(5, [(4, 0), (0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match=rf"^vertex id {bad} outside 0\.\.4$"):
            induced_subtrees(tree, [[0, 1], [3], [bad, 2]])

    def test_an_empty_part_is_refused(self):
        with pytest.raises(ValueError, match="^tree needs at least one vertex$"):
            induced_subtrees(path_tree(4), [[0, 1], []])


def assert_views_match_the_edge_list(tree):
    """out, nbrs, edge_sign and max_semidegree against a reference read off edge_list.

    `edges` is the one stored copy of the edges: a read-only int32 array that
    `edge_list` reads as int pairs and `with_t` shares.
    """
    edges = tree.edges
    assert edges.dtype == np.int32 and edges.shape == (tree.n - 1, 2) and not edges.flags.writeable
    assert type(tree.edge_list) is tuple and edges.tolist() == list(map(list, tree.edge_list))
    assert all(type(e) is tuple and list(map(type, e)) == [int, int] for e in tree.edge_list)
    assert tree.with_t(None).edges is edges
    outs = {v: [] for v in range(tree.n)}
    ins = {v: [] for v in range(tree.n)}
    for u, w in tree.edge_list:
        outs[u].append(w)
        ins[w].append(u)
    for v in range(tree.n):
        assert tree.out(v) == tuple(sorted(outs[v]))
        assert tree.nbrs(v) == tuple(sorted(outs[v] + ins[v]))
        assert type(tree.out(v)) is tuple and type(tree.nbrs(v)) is tuple
    for u, w in tree.edge_list:
        assert tree.edge_sign(u, w) is Sign.PLUS
        assert tree.edge_sign(w, u) is Sign.MINUS
    for u in range(tree.n):
        for w in (u, (u + 2) % tree.n, tree.n - 1 - u):
            if w not in outs[u] and w not in ins[u]:
                with pytest.raises(ValueError, match=f"^{u} and {w} are not adjacent$"):
                    tree.edge_sign(u, w)
    want = (max(map(len, outs.values())), max(map(len, ins.values())))
    assert max_semidegree(tree) == want


class TestTreeViews:
    """In-adjacency is derived from the out- and undirected rows; read off the edge list as reference."""

    def test_single_vertex(self):
        tree = OrientedTree(1, [], t=0)
        assert tree.nbrs(0) == tree.out(0) == ()
        assert max_semidegree(tree) == (0, 0)
        with pytest.raises(ValueError, match="^0 and 0 are not adjacent$"):
            tree.edge_sign(0, 0)
        assert_views_match_the_edge_list(tree.with_t(None))

    @given(st.integers(0, 10_000), st.integers(1, 60), st.sampled_from(GENERATOR_FAMILIES))
    @settings(max_examples=80, deadline=None)
    def test_constructed_trees(self, seed, n, family):
        tree = gen_random_tree(n, max(3, n - 1) if family == "star" else 3, family, np.random.default_rng(seed))
        assert_views_match_the_edge_list(tree)
        for t in (None, n - 1):
            assert_views_match_the_edge_list(tree.with_t(t))
            assert_same_tree(tree.with_t(t), OrientedTree(n, tree.edge_list, t=t))

    @given(st.integers(0, 10_000), st.integers(2, 70), st.sampled_from(FAMILIES), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_induced_pieces_with_many_boundary_rows(self, seed, n, family, with_t):
        # Keeping about half the vertices makes most kept rows reach outside.
        rng = np.random.default_rng(seed)
        tree = gen_random_tree(n, 3, family, rng)
        keep = np.flatnonzero(rng.random(n) < 0.5).tolist()
        for verts in components(tree, keep) + [list(range(n))]:
            t = verts[int(rng.integers(len(verts)))] if with_t else None
            piece = induced_subtree(tree, verts, t=t)
            assert_views_match_the_edge_list(piece.tree)
            assert_same_tree(piece.tree, rebuilt_induced(tree, verts, t=t))
            assert_views_match_the_edge_list(piece.tree.with_t(0))


    @given(st.integers(0, 10_000), st.integers(10, 150), st.sampled_from(["out", "in", "mixed", "broom"]))
    @settings(max_examples=40, deadline=None)
    def test_high_degree_rows_and_their_pieces(self, seed, n, kind):
        # Rows above 64 entries leave the per-entry bit updates of the table
        # builder: stars and brooms reach them.  Rooted at the hub's last
        # neighbour, a walk and a canonical form read the hub's edge to its
        # parent from the hub's own row, past its 64th entry.
        rng = np.random.default_rng(seed)
        if kind == "broom":
            tree = gen_random_tree(n, 40, "broom", rng)
        else:
            flip = {"out": np.zeros(n - 1, bool), "in": np.ones(n - 1, bool), "mixed": rng.random(n - 1) < 0.5}[kind]
            tree = OrientedTree(n, [(v, 0) if f else (0, v) for v, f in zip(range(1, n), flip.tolist())])
        assert max(map(tree.degree, range(n))) >= 9
        assert_views_match_the_edge_list(tree)
        hub = max(range(n), key=tree.degree)
        keep = sorted({hub, *np.flatnonzero(rng.random(n) < 0.5).tolist()})
        verts = next(c for c in components(tree, keep) if hub in c)
        pieces = [induced_subtree(tree, verts, t=hub).tree]
        if n >= 3:
            pieces += [p.tree for p in split_tree(tree, max(1, n // 4), keep=hub)[:2]]
        for piece in pieces:
            assert_views_match_the_edge_list(piece)
        last = tree.nbrs(hub)[-1]
        for root in (hub, last):
            for policy in ("any", "leaves_last_middles_consecutive"):
                po = prefix_order(tree, root, policy)
                parents = [po.order[i] for i in po.parent_index[1:]]
                assert list(po.sign[1:]) == list(map(tree.edge_sign, parents, po.order[1:]))
        want = [recursive_canon(tree, hub), recursive_canon(tree, last)]
        assert [*canonical_forms(tree, [hub]), *canonical_forms(tree, [last])] == want
        assert canonical_forms(tree, [hub, last]) == want

    def test_kept_spider_trees_stay_compact(self):
        # Twenty kept n = 2000 spider trees, as a benchmark keeps its guest
        # trees: one neighbour table, one int of out-flags per row and one
        # int32 edge array come to about 210 KB a tree.  Storing the edges
        # again as tuples and a second out-neighbour table took about 400 KB.
        gen_random_tree(2000, 3, "spider", np.random.default_rng(0))   # first-call imports are not counted
        tracemalloc.start()
        try:
            before, _peak = tracemalloc.get_traced_memory()
            kept = [gen_random_tree(2000, 3, "spider", np.random.default_rng(seed)) for seed in range(20)]
            after, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(kept) == 20 and (after - before) / 20 < 260 * 1024


def recursive_canon(tree, root):
    """The recursive canonical string that `canonical_forms` replaced."""

    def rec(v, parent):
        items = sorted(
            ("+" if u in tree.out(v) else "-") + rec(u, v) for u in tree.nbrs(v) if u != parent
        )
        return "(" + "".join(items) + ")"

    return rec(root, -1)


def relabelled(tree, perm):
    return OrientedTree(tree.n, [(perm[u], perm[v]) for u, v in tree.edge_list])


class TestIterativeCanon:
    @given(st.integers(0, 10_000), st.integers(1, 40), st.sampled_from(FAMILIES + ["star", "broom"]))
    @settings(max_examples=120, deadline=None)
    def test_matches_the_recursive_version(self, seed, n, family):
        rng = np.random.default_rng(seed)
        tree = gen_random_tree(n, max(3, n - 1) if family == "star" else 3, family, rng)
        for root in range(n):
            assert canonical_forms(tree, [root]) == [recursive_canon(tree, root)]

    def test_deep_path(self):
        n = 5000
        tree = path_tree(n)
        assert canonical_forms(tree, [0]) == ["(+" * (n - 1) + "()" + ")" * (n - 1)]
        assert canonical_forms(tree, [n - 1]) == ["(-" * (n - 1) + "()" + ")" * (n - 1)]

    @given(st.integers(0, 10_000), st.integers(6, 60))
    @settings(max_examples=60, deadline=None)
    def test_two_centroid_components_match_the_double_canon_version(self, seed, n):
        # Oriented paths on an even number of vertices (two centroids), the
        # legs of a spider with its centre removed, and a spider with a leg of
        # half the vertices (two centroids again), each with relabelled copies.
        # Both roots' strings, from one pass, match two recursive ones.
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
        copies = [(comp, relabelled(comp, rng.permutation(comp.n).tolist()))
                  for comp in comps if rng.random() < 0.7]
        comps += [copy for _comp, copy in copies]
        assert sum(len(_centroids(c)) == 2 for c in comps) >= 3
        for comp in comps:
            roots = _centroids(comp)
            assert canonical_forms(comp, roots) == [recursive_canon(comp, r) for r in roots]
        # The smaller centroid string, the forest walk's sort key, is the same on every copy.
        for comp, copy in copies:
            assert min(canonical_forms(comp, _centroids(comp))) == min(canonical_forms(copy, _centroids(copy)))


class TestCanonicalRoots:
    """`canonical_forms` takes one root, or two adjacent distinct roots, all inside the tree."""

    @pytest.mark.parametrize("roots, message", [
        ([-1], "root -1 outside 0..4"),
        ([7], "root 7 outside 0..4"),
        ([0, 7], "root 7 outside 0..4"),
        ([0, 2], "root 2 is not adjacent to root 0"),
        ([1, 1], "root 1 is not adjacent to root 1"),
        ([], r"need one root or two adjacent roots, got \[\]"),
        ([0, 1, 2], r"need one root or two adjacent roots, got \[0, 1, 2\]"),
    ])
    def test_bad_roots_raise_one_value_error(self, roots, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            canonical_forms(path_tree(5), roots)

    def test_good_roots_on_a_path(self):
        tree = path_tree(5)
        assert canonical_forms(tree, [2, 3]) == [recursive_canon(tree, 2), recursive_canon(tree, 3)]
        assert canonical_forms(tree, [4]) == ["(-(-(-(-()))))"]

    def test_above_must_neighbour_the_root(self):
        tree = path_tree(5)
        for above in (0, 1, 3, -1, 9):
            with pytest.raises(ValueError, match=f"^{above} is not a neighbour of root 3$"):
                prefix_order(tree, 3, "leaves_last_middles_consecutive", above=above)
        assert prefix_order(tree, 3, above=2).order == (3, 4)
        assert prefix_order(tree, 3, above=4).order == (3, 2, 1, 0)


def reoriented(tree, rng):
    """The same underlying tree with each edge reversed by a fair coin."""
    flip = rng.random(tree.n - 1) < 0.5
    return OrientedTree(tree.n, [(v, u) if f else (u, v) for (u, v), f in zip(tree.edge_list, flip)], tree.t)


class TestStarPiecesOffTheTree:
    """Each star piece is read off the guest tree: its walk order and canonical key
    equal those of the piece induced on its vertices, relabelled."""

    FAMILIES = ("uniform", "path", "caterpillar", "spider", "broom")

    def stars(self):
        for family in self.FAMILIES:
            for n, seed in itertools.product((40, 150, 800), range(3)):
                tree = family_tree(family, n, seed)
                for guest in (tree, reoriented(tree, np.random.default_rng(seed))):
                    try:
                        td = decompose(guest, 0, spanning_defaults(n, 0.25))
                    except DecompositionError:
                        continue
                    yield td, stars_from_decomposition(td)

    def test_order_and_key_match_the_induced_piece(self):
        multi = 0
        for td, stars in self.stars():
            tree = td.tree
            for st in stars:
                order = prefix_order(tree, st.root, "leaves_last_middles_consecutive", above=st.attach)
                piece = induced_subtree(tree, st.vertices)
                labels = piece.labels.tolist()
                local_root = labels.index(st.root)
                local = prefix_order(piece.tree, local_root, "leaves_last_middles_consecutive")
                assert order.order == tuple(labels[v] for v in local.order)
                assert (order.parent_index, order.sign) == (local.parent_index, local.sign)
                key = "(" + "".join(canonical_children(order)) + ")"
                assert [key] == canonical_forms(piece.tree, [local_root])
                assert key == recursive_canon(piece.tree, local_root)
                multi += len(st.vertices) > 1
        assert multi >= 500

    def test_stars_keep_the_component_order(self):
        # The StarComponents of the components() search they replaced, in its order.
        for td, stars in self.stars():
            tree, want = td.tree, []
            for v, hang in sorted(td.stars.items()):
                for comp in components(tree, hang):
                    (root,) = [x for x in comp if v in tree.nbrs(x)]
                    want.append((v, root, tree.edge_sign(v, root), tuple(comp)))
            assert [(st.attach, st.root, st.sign, st.vertices) for st in stars] == want
