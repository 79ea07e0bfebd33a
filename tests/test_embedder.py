import dataclasses
import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from spantree import embedder
from spantree.decompose import PathPiece, decompose
from spantree.digraph import ROW_BLOCK, Digraph, Sign, gen_semidegree_digraph, sample_disjoint_subsets
from spantree.embedder import (
    PhaseFailure,
    _property_s_floor,
    _slack_split,
    attach_path_trees,
    build_absorber,
    complete_absorption,
    embed_almost_spanning,
    embed_core_with_leaf_sets,
    embed_spanning,
    embed_stars,
    stars_from_decomposition,
    StarComponent,
)
from spantree.embedding import PipelineError, greedy_walk, is_valid_embedding
from spantree.guides import GuideSystem
from spantree.matching import MatchingError
from spantree.oracle import verify_embedding
from spantree.params import ParamSchedule, spanning_defaults
from spantree.trees import FAMILIES, OrientedTree, gen_random_tree, max_semidegree, prefix_order, split_tree

from helpers import complete


class TestCoreWithLeafSets:
    def test_single_vertex_single_leaf(self):
        d = complete(30)
        tree = OrientedTree(2, [(0, 1)], t=0)
        rng = np.random.default_rng(0)
        v0 = np.arange(0, 10)
        part = np.arange(10, 20)
        system = GuideSystem(d, v0, [part], mu_count=4, eps=0.2, eta=1.0, alpha=0.45)
        emb = embed_core_with_leaf_sets(
            d, tree, {0}, [([1], Sign.PLUS)], 3, system, rng
        )
        assert emb[0] == 3
        assert emb[1] in set(part.tolist())

    def test_unmatched_part_is_named_once(self):
        mat = ~np.eye(30, dtype=bool)
        mat[3, 10:20] = False
        d = Digraph(30, mat)
        tree = OrientedTree(2, [(0, 1)], t=0)
        v0, part = np.arange(0, 10), np.arange(10, 20)
        system = GuideSystem(d, v0, [part], mu_count=4, eps=0.2, eta=1.0, alpha=0.45)
        with pytest.raises(MatchingError) as info:
            embed_core_with_leaf_sets(
                d, tree, {0}, [([1], Sign.PLUS)], 3, system, np.random.default_rng(0)
            )
        assert str(info.value).startswith("leaf part 0: no matching")

    @pytest.mark.parametrize(
        "core, parts, s, message",
        [
            ({1}, [([2], Sign.PLUS)], 3, "tree anchor 0 is not a core vertex"),
            ({0, 1}, [([2], Sign.PLUS)], 15, "anchor host 15 is not in V0"),
            ({0, 1}, [([2, 3], Sign.PLUS)], 3, "leaf part 0: vertex 3 must hang on the core"),
            ({0}, [([1, 2], Sign.PLUS)], 3, "leaf part 0: vertex 2 must hang on the core"),
        ],
    )
    def test_malformed_input_is_rejected(self, core, parts, s, message):
        # 0 -> 1 -> 2 and 3 -> 0: vertex 3 is an in-leaf of the anchor.
        d = complete(30)
        tree = OrientedTree(4, [(0, 1), (1, 2), (3, 0)], t=0)
        v0, part = np.arange(0, 10), np.arange(10, 20)
        system = GuideSystem(d, v0, [part], mu_count=4, eps=0.2, eta=1.0, alpha=0.45)
        with pytest.raises(ValueError, match=message):
            embed_core_with_leaf_sets(d, tree, core, parts, s, system,
                                      np.random.default_rng(0))

    @pytest.mark.parametrize("s", [30, -1, -30])
    def test_anchor_host_outside_the_host_is_named(self, s):
        # V0 holds hosts 29 and 0, which -1 and -30 would alias; 30 would index past the end.
        d = complete(30)
        tree = OrientedTree(2, [(0, 1)], t=0)
        v0, part = np.r_[0:5, 25:30], np.arange(5, 15)
        system = GuideSystem(d, v0, [part], mu_count=4, eps=0.2, eta=1.0, alpha=0.45)
        with pytest.raises(ValueError, match=rf"^anchor host {s} outside 0\.\.29$"):
            embed_core_with_leaf_sets(d, tree, {0}, [([1], Sign.PLUS)], s, system,
                                      np.random.default_rng(0))

    def test_core_lands_in_v0_and_leaves_in_parts(self):
        rng = np.random.default_rng(1)
        d = gen_semidegree_digraph(200, 0.3, rng)
        # a 6-vertex core path with 8 out-leaves and 6 in-leaves
        edges = [(i, i + 1) for i in range(5)]
        nxt = 6
        out_leaves, in_leaves = [], []
        for i in range(8):
            edges.append((i % 6, nxt)); out_leaves.append(nxt); nxt += 1
        for i in range(6):
            edges.append((nxt, i % 6)); in_leaves.append(nxt); nxt += 1
        tree = OrientedTree(nxt, edges, t=0)
        v0 = np.arange(0, 60)
        p1 = np.arange(60, 90)
        p2 = np.arange(90, 120)
        system = GuideSystem(d, v0, [p1, p2], mu_count=14, eps=0.3, eta=1.0, alpha=0.3)
        emb = embed_core_with_leaf_sets(
            d, tree, set(range(6)),
            [(out_leaves, Sign.PLUS), (in_leaves, Sign.MINUS)],
            5, system, rng,
        )
        assert is_valid_embedding(d, tree, emb)
        for v in range(6):
            assert emb[v] < 60
        for v in out_leaves:
            assert 60 <= emb[v] < 90
        for v in in_leaves:
            assert 90 <= emb[v] < 120


class TestCoreMonteCarlo:
    def test_out_leaf_core_rate(self):
        # random core with out-leaf parts: most seeds succeed within the
        # direct call (no retries here)
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d = gen_semidegree_digraph(400, 0.3, rng)
            core_n = 25
            edges = [(i, i + 1) for i in range(core_n - 1)]
            leaves = []
            nxt = core_n
            for i in range(40):
                edges.append((i % core_n, nxt))
                leaves.append(nxt)
                nxt += 1
            tree = OrientedTree(nxt, edges, t=0)
            v0 = np.arange(0, 150)
            part = np.arange(150, 210)
            try:
                system = GuideSystem(d, v0, [part], mu_count=45, eps=0.2, eta=1.0, alpha=0.3)
                emb = embed_core_with_leaf_sets(
                    d, tree, set(range(core_n)), [(leaves, Sign.PLUS)],
                    3, system, rng,
                )
                wins += is_valid_embedding(d, tree, emb)
            except Exception:
                pass
        assert wins >= 16


class TestEmbedStars:
    def test_single_vertex_out_leaves(self):
        # all stars single vertices attached as out-leaves
        d = complete(120)
        edges = [(i, i + 1) for i in range(4)]
        stars = []
        nxt = 5
        for i in range(30):
            edges.append((i % 5, nxt))
            stars.append(StarComponent(attach=i % 5, root=nxt, sign=Sign.PLUS,
                                       vertices=(nxt,)))
            nxt += 1
        tree = OrientedTree(nxt, edges, t=0)
        params = ParamSchedule(alpha=0.45, retries=6)
        emb = embed_stars(d, tree, set(range(5)), stars, 0, 7, params,
                          np.random.default_rng(2))
        assert is_valid_embedding(d, tree, emb)
        assert emb[0] == 7

    def test_multi_vertex_star_bodies(self):
        rng = np.random.default_rng(3)
        d = gen_semidegree_digraph(300, 0.3, rng)
        edges = [(i, i + 1) for i in range(9)]
        nxt = 10
        stars = []
        for i in range(25):
            root = nxt
            edges.append((i % 10, root)); nxt += 1
            body = [root]
            for _ in range(i % 3):
                edges.append((body[-1], nxt)); body.append(nxt); nxt += 1
            stars.append(StarComponent(attach=i % 10, root=root, sign=Sign.PLUS,
                                       vertices=tuple(body)))
        tree = OrientedTree(nxt, edges, t=0)
        params = ParamSchedule(alpha=0.3, retries=8)
        emb = embed_stars(d, tree, set(range(10)), stars, 0, 11, params, rng)
        assert is_valid_embedding(d, tree, emb)
        assert emb[0] == 11

    def test_many_small_stars_rate(self):
        # many stars of <= 5 vertices on a small core: high success rate
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d = gen_semidegree_digraph(500, 0.3, rng)
            core_n = 20
            edges = [(i, i + 1) for i in range(core_n - 1)]
            stars = []
            nxt = core_n
            for i in range(100):
                root = nxt
                sign = Sign.PLUS if i % 3 else Sign.MINUS
                attach = i % core_n
                edges.append((attach, root) if sign is Sign.PLUS else (root, attach))
                body = [root]
                nxt += 1
                for _ in range(i % 4):
                    edges.append((body[-1], nxt))
                    body.append(nxt)
                    nxt += 1
                stars.append(StarComponent(attach=attach, root=root, sign=sign,
                                           vertices=tuple(body)))
            tree = OrientedTree(nxt, edges, t=0)
            params = ParamSchedule(alpha=0.3, retries=6)
            try:
                emb = embed_stars(d, tree, set(range(core_n)), stars, 0, 7, params, rng)
                wins += is_valid_embedding(d, tree, emb) and emb[0] == 7
            except PhaseFailure:
                pass
        assert wins >= 15

    def test_repeated_thin_star_classes_keep_their_map(self):
        # 84 stars: i % 4 fixes the body, i % 3 the attach sign, so each
        # multi-vertex class holds 14 (out) or 7 (in) isomorphic stars, and
        # the 7 single in-leaves are too few for a leaf part.  A refactor
        # keeps the map.
        rng = np.random.default_rng(5)
        d = gen_semidegree_digraph(500, 0.3, rng)
        core_n = 20
        edges = [(i, i + 1) for i in range(core_n - 1)]
        stars = []
        nxt = core_n
        for i in range(84):
            sign = Sign.PLUS if i % 3 else Sign.MINUS
            attach = i % core_n
            root = nxt
            edges.append((attach, root) if sign is Sign.PLUS else (root, attach))
            body = [root]
            nxt += 1
            for j in range(i % 4):
                edges.append((body[-1], nxt) if j % 2 == 0 else (nxt, body[-1]))
                body.append(nxt)
                nxt += 1
            stars.append(StarComponent(attach=attach, root=root, sign=sign, vertices=tuple(body)))
        tree = OrientedTree(nxt, edges, t=0)
        params = ParamSchedule(alpha=0.3, retries=6)
        emb = embed_stars(d, tree, set(range(core_n)), stars, 0, 7, params, rng)
        assert is_valid_embedding(d, tree, emb) and emb[0] == 7 and len(emb.map) == tree.n
        text = json.dumps(sorted(emb.map.items()))
        digest = "d6e93fd06ca3376a1db7046dc9ff9613b58f4f1283c1da9a04660ac3d5c3513d"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_sizing_audit_fits_host(self):
        # arithmetic postcondition: parts plus pool plus core fit the host
        rng = np.random.default_rng(4)
        d = gen_semidegree_digraph(250, 0.3, rng)
        tree = gen_random_tree(150, 3, "uniform", rng)
        params = spanning_defaults(250, 0.3)
        td = decompose(tree, 0, params)
        stars = stars_from_decomposition(td)
        emb = embed_stars(d, tree, {int(x) for x in td.t0}, stars, 0, 9, params, rng)
        embedded = set(td.t0.tolist()) | {v for st in stars for v in st.vertices}
        assert set(emb.map) == embedded
        assert len(emb.used) == len(embedded) <= d.n


def path_piece(start, size):
    """The piece x, mid_x, body, mid_y, y on the ids start..start+size-1 of a path."""
    last = start + size - 1
    return PathPiece(x=start, y=last, mid_x=start + 1, mid_y=last - 1,
                     body=tuple(range(start + 2, last - 1)))


def pieces_placed(d, tree, pieces, anchors, placed):
    """The arrays (vertices, hosts) cover every piece's added vertices once, on
    distinct hosts off every anchor, and with the anchors keep every edge at
    an added vertex."""
    vertices, hosts = (a.tolist() for a in placed)
    added = {v for p in pieces for v in p.added_vertices()}
    anchor_hosts = {h for pair in anchors for h in pair}
    if sorted(vertices) != sorted(added) or len(set(hosts)) != len(hosts) or set(hosts) & anchor_hosts:
        return False
    full = dict(zip(vertices, hosts))
    for p, (a, b) in zip(pieces, anchors):
        full[p.x], full[p.y] = a, b
    return all(d.has_edge(full[u], full[w]) for u, w in tree.edge_list if u in added or w in added)


class TestAttachPathTrees:
    def test_smallest_legal_piece(self):
        # oriented path x -> mid_x -> body -> mid_y -> y: both connectors from
        # one triple intersection each
        d = complete(60)
        tree = OrientedTree(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        params = ParamSchedule(alpha=0.45, beta=0.2, retries=5)
        maps = attach_path_trees(d, tree, [path_piece(0, 5)], [(3, 9)], params,
                                 np.random.default_rng(0))
        assert pieces_placed(d, tree, [path_piece(0, 5)], [(3, 9)], maps)

    def test_anchors_on_complete_digraph(self):
        # Random 12-vertex trees cut at two leaves whose neighbours have
        # degree 2, joined into one tree by an arc from each y to the next x.
        d = complete(100)
        rng = np.random.default_rng(1)
        edges, pieces = [], []
        for i in range(4):
            part = gen_random_tree(12, 3, "uniform", np.random.default_rng(i))
            leaves = [v for v in range(12) if part.degree(v) == 1
                      and part.degree(part.nbrs(v)[0]) == 2]
            if len(leaves) < 2:
                continue
            off = 12 * len(pieces)
            x, y = leaves[0], leaves[1]
            mid_x, mid_y = part.nbrs(x)[0], part.nbrs(y)[0]
            if pieces:
                edges.append((pieces[-1].y, off + x))
            edges += [(off + u, off + w) for u, w in part.edge_list]
            body = tuple(off + v for v in range(12) if v not in (x, y, mid_x, mid_y))
            pieces.append(PathPiece(x=off + x, y=off + y, mid_x=off + mid_x, mid_y=off + mid_y, body=body))
        tree = OrientedTree(12 * len(pieces), edges)
        anchors = [(2 * i, 2 * i + 1) for i in range(len(pieces))]
        params = ParamSchedule(alpha=0.45, beta=0.15, retries=5)
        maps = attach_path_trees(d, tree, pieces, anchors, params, rng)
        assert len(pieces) >= 2
        assert pieces_placed(d, tree, pieces, anchors, maps)

    def test_many_pieces_rate(self):
        # pieces of size 10..40 cut from one forward path, with prescribed
        # distinct anchors
        sizes = [10 + (7 * i) % 31 for i in range(10)]
        starts = [sum(sizes[:i]) for i in range(10)]
        tree = OrientedTree(sum(sizes), [(v, v + 1) for v in range(sum(sizes) - 1)])
        pieces = [path_piece(start, size) for start, size in zip(starts, sizes)]
        anchors = [(2 * i, 2 * i + 1) for i in range(10)]
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d = gen_semidegree_digraph(500, 0.3, rng)
            params = ParamSchedule(alpha=0.3, beta=0.08, retries=6)
            try:
                maps = attach_path_trees(d, tree, pieces, anchors, params, rng)
            except PhaseFailure:
                continue
            wins += pieces_placed(d, tree, pieces, anchors, maps)
        assert wins >= 17

    def test_distinct_anchor_requirement(self):
        tree = OrientedTree(10, [(v, v + 1) for v in range(9)])
        params = ParamSchedule(alpha=0.45, retries=3)
        with pytest.raises(ValueError, match="pairwise distinct"):
            attach_path_trees(complete(30), tree, [path_piece(0, 5), path_piece(5, 5)],
                              [(1, 2), (2, 3)], params, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [30, -1, -30])
    def test_anchor_outside_the_host_is_named(self, bad):
        # -1 and -30 once aliased hosts 29 and 0; 30 raised a bare IndexError.
        tree = OrientedTree(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        with pytest.raises(ValueError, match=rf"^anchors\[0\] = \(3, {bad}\) holds a host outside 0\.\.29$"):
            attach_path_trees(complete(30), tree, [path_piece(0, 5)], [(3, bad)],
                              ParamSchedule(alpha=0.45, retries=3), np.random.default_rng(0))

    @pytest.mark.parametrize(
        "edges, piece, message",
        [
            # x = 1 is no leaf of the piece: mid_x = 0 has no body neighbour.
            ([(0, 1), (1, 2), (2, 3), (3, 4)], PathPiece(x=1, y=4, mid_x=0, mid_y=3, body=(2,)),
             "one body neighbour"),
            # mid_x = 1 has degree 3: mid_y = 3 hangs on it, not on the body.
            ([(0, 1), (1, 2), (1, 3), (3, 4)], PathPiece(x=0, y=4, mid_x=1, mid_y=3, body=(2,)),
             "one body neighbour"),
            ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], PathPiece(x=0, y=5, mid_x=2, mid_y=4, body=(3,)),
             "not adjacent"),
        ],
        ids=["anchor-not-a-leaf", "mid-of-degree-3", "mid-off-its-anchor"],
    )
    def test_mids_are_checked(self, edges, piece, message):
        tree = OrientedTree(max(max(e) for e in edges) + 1, edges)
        with pytest.raises(ValueError, match=message):
            attach_path_trees(complete(30), tree, [piece], [(1, 2)],
                              ParamSchedule(alpha=0.45, retries=3), np.random.default_rng(0))

    @pytest.mark.parametrize(
        "n, size, message",
        [
            # 500 body vertices into a pool of 502 leave embed_small_forest too little slack.
            (513, 504, "forest too large: 500 vertices into a pool of 502"),
            (30, 29, "no room for a connector buffer of 2"),
        ],
    )
    def test_sizing_miss_is_a_paths_failure_before_any_draw(self, n, size, message):
        tree = OrientedTree(size, [(v, v + 1) for v in range(size - 1)])
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(PhaseFailure, match=message) as info:
            attach_path_trees(complete(n), tree, [path_piece(0, size)], [(0, 1)],
                              ParamSchedule(beta=0.06), rng)
        assert (info.value.phase, info.value.cause, info.value.attempts) == ("paths", "guide-build", 1)
        assert rng.bit_generator.state == state

    def test_connector_buffer_miss_is_reported_before_any_draw(self):
        # Ten 20-vertex pieces leave 22 spare hosts; 5 of them are kept for
        # the forest, so B could hold only 17 of the 20 connectors.
        tree = OrientedTree(200, [(v, v + 1) for v in range(199)])
        pieces = [path_piece(20 * i, 20) for i in range(10)]
        anchors = [(2 * i, 2 * i + 1) for i in range(10)]
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(PhaseFailure, match="connector buffer of 20: 22 spare vertices, 5 kept") as info:
            attach_path_trees(complete(202), tree, pieces, anchors, ParamSchedule(beta=0.06), rng)
        assert (info.value.phase, info.value.cause, info.value.attempts) == ("paths", "guide-build", 1)
        assert rng.bit_generator.state == state


class TestAlmostSpanning:
    def test_single_vertex_tree(self):
        d = complete(20)
        tree = OrientedTree(1, [], t=0)
        params = spanning_defaults(20, 0.4)
        emb, _ = embed_almost_spanning(d, tree, 0, 13, params, np.random.default_rng(0))
        assert emb[0] == 13

    def test_directed_path(self):
        rng = np.random.default_rng(5)
        d = gen_semidegree_digraph(300, 0.3, rng)
        tree = gen_random_tree(240, 1, "path", rng)
        params = spanning_defaults(300, 0.3)
        emb, _ = embed_almost_spanning(d, tree, 0, 7, params, rng)
        assert verify_embedding(d, tree, emb)
        assert emb[0] == 7

    def test_families_on_random_hosts(self):
        for seed, family in enumerate(("uniform", "caterpillar", "spider")):
            rng = np.random.default_rng(seed)
            d = gen_semidegree_digraph(350, 0.25, rng)
            tree = gen_random_tree(280, 3, family, rng)
            params = spanning_defaults(350, 0.25)
            emb, _ = embed_almost_spanning(d, tree, 0, 3, params, rng)
            assert verify_embedding(d, tree, emb)
            assert emb[0] == 3

    def test_broad_star_with_raised_cap(self):
        rng = np.random.default_rng(6)
        n = 300
        d = gen_semidegree_digraph(n, 0.3, rng)
        size = int(0.7 * n)
        tree = OrientedTree(size, [(0, v) for v in range(1, size)], t=0)
        params = spanning_defaults(n, 0.3).with_updates(max_tree_semidegree=size)
        emb, _ = embed_almost_spanning(d, tree, 0, 5, params, rng)
        assert verify_embedding(d, tree, emb)

    def test_too_full_rejected(self):
        d = complete(20)
        tree = gen_random_tree(19, 3, "uniform", np.random.default_rng(0))
        with pytest.raises(ValueError):
            embed_almost_spanning(d, tree, 0, 0, spanning_defaults(20, 0.4),
                                  np.random.default_rng(0))


def loop_slack_split(slack, t1_size, t2_new, t3_new, want):
    """The step-by-step V1 sizing `_slack_split` replaced: V1 takes from V2,
    then V3, one floor at a time."""
    weight1 = t1_size + 4.0
    weight2 = t2_new + (4.0 if t2_new else 0.0)
    weight3 = t3_new + (2.0 if t3_new else 0.0)
    total_w = weight1 + weight2 + weight3
    split2 = max(3, round(slack * weight2 / total_w)) if t2_new else 0
    split3 = max(2, round(slack * weight3 / total_w)) if t3_new else 0
    ceiling = slack - (3 if t2_new else 0) - (2 if t3_new else 0)
    s2, s3 = split2, split3
    s1 = slack - s2 - s3
    want1 = min(ceiling, want)
    if want1 > s1:
        shift = want1 - s1
        take2 = min(shift, max(0, s2 - 3)) if t2_new else 0
        s2 -= take2
        shift -= take2
        take3 = min(shift, max(0, s3 - 2)) if t3_new else 0
        s3 -= take3
        s1 = slack - s2 - s3
    return s1, s2


class TestSlackSplit:
    def test_closed_form_matches_the_loop(self):
        # want = s1_floor + v1_bias: floors from a 1-vertex core up, biases of either sign.
        points = 0
        for slack in (4, 5, 6, 7, 9, 12, 16, 23, 31, 47, 64, 100, 150, 240, 400, 800):
            for t1_size, t2_new, t3_new in itertools.product((1, 9, 60, 300, 1500), (0, 1, 7, 40, 250),
                                                             (0, 1, 5, 30, 150)):
                for s1_floor, v1_bias in itertools.product((22, 35, 60, 110, 250),
                                                           range(-84, 85, 8)):
                    want = s1_floor + v1_bias
                    got = _slack_split(slack, t1_size, t2_new, t3_new, want)
                    assert got == loop_slack_split(slack, t1_size, t2_new, t3_new, want), (
                        slack, t1_size, t2_new, t3_new, want)
                    points += 1
        assert points == 220_000


class TestPooledHost:
    """A call on d with a pool of hosts is the same call on d.induce(pool), relabelled."""

    @pytest.mark.parametrize("family, max_semideg", [("caterpillar", 3), ("broom", 3), ("spider", 2)])
    def test_almost_spanning(self, family, max_semideg):
        # Caterpillars also reach the leftover leaves; every family here has path pieces.
        n, m = 400, 320
        rng = np.random.default_rng(4)
        d = gen_semidegree_digraph(n, 0.24, rng)
        pool = np.sort(rng.choice(n, size=m, replace=False))
        tree = gen_random_tree(4 * m // 5, max_semideg, family, rng)
        params = spanning_defaults(m, 0.24)
        assert decompose(tree, 0, params).pieces
        sub, labels = d.induce(pool)
        want, _telemetry = embed_almost_spanning(sub, tree, 0, 17, params, np.random.default_rng(9))
        got, _telemetry = embed_almost_spanning(d, tree, 0, int(pool[17]), params, np.random.default_rng(9), pool)
        assert got.map == {tv: int(labels[h]) for tv, h in want.map.items()}

    def test_attach_path_trees(self):
        sizes = [10 + (7 * i) % 31 for i in range(10)]
        starts = [sum(sizes[:i]) for i in range(10)]
        tree = OrientedTree(sum(sizes), [(v, v + 1) for v in range(sum(sizes) - 1)])
        pieces = [path_piece(start, size) for start, size in zip(starts, sizes)]
        rng = np.random.default_rng(6)
        d = gen_semidegree_digraph(600, 0.3, rng)
        pool = np.sort(rng.choice(600, size=500, replace=False))
        params = ParamSchedule(alpha=0.3, beta=0.08, retries=6)
        ranks = [(2 * i, 2 * i + 1) for i in range(10)]
        sub, labels = d.induce(pool)
        want = attach_path_trees(sub, tree, pieces, ranks, params, np.random.default_rng(8))
        anchors = [(int(pool[a]), int(pool[b])) for a, b in ranks]
        got = attach_path_trees(d, tree, pieces, anchors, params, np.random.default_rng(8), pool)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], labels[want[1]])
        assert pieces_placed(d, tree, pieces, anchors, got)

    def test_anchor_outside_the_pool_is_rejected(self):
        d = complete(60)
        tree = gen_random_tree(40, 3, "uniform", np.random.default_rng(0))
        with pytest.raises(ValueError, match="anchor host 3 is not in the pool"):
            embed_almost_spanning(d, tree, 0, 3, spanning_defaults(50, 0.25), np.random.default_rng(1),
                                  np.arange(10, 60))


def redrawn_partitions(d, sizes, rng, pool, v, draws):
    """The first of `draws` whole `sample_disjoint_subsets` partitions whose first part holds v, or None."""
    for _draw in range(draws):
        parts = sample_disjoint_subsets(d, sizes, rng, pool)
        if v in parts[0]:
            return parts
    return None


class TestPartsHolding:
    @pytest.mark.parametrize("pooled", [False, True])
    def test_same_parts_none_and_state_as_redrawn_partitions(self, pooled):
        d = complete(60)
        pool = np.sort(np.random.default_rng(1).choice(60, size=40, replace=False)) if pooled else None
        hosts = list(range(60)) if pool is None else pool.tolist()
        found = []
        cases = itertools.product(hosts[::7], ([3, 20, 10], [1, 30], [35]), (1, 3, 40))
        for seed, (v, sizes, draws) in enumerate(cases):
            runs = []
            for draw_parts in (embedder._parts_holding, redrawn_partitions):
                rng = np.random.default_rng(seed)
                parts = draw_parts(d, sizes, rng, pool, v, draws)
                got = None if parts is None else [p.tolist() for p in parts]
                runs.append((got, rng.bit_generator.state, rng.integers(2**40)))
            assert runs[0] == runs[1]
            found.append(runs[0][0] is not None)
        assert 0 < sum(found) < len(found)


class TestAbsorber:
    def test_complete_host_margin(self):
        d = complete(300)
        params = spanning_defaults(300, 0.45)
        tree = gen_random_tree(params.absorber_size(300), 3, "uniform",
                               np.random.default_rng(1)).with_t(0)
        state = build_absorber(d, tree, 0, params, np.random.default_rng(2))
        # on a complete host every index switches for every pair
        assert state.threshold <= len(state.hosts)
        assert len(state.a_set) == tree.n - params.absorb_gap(300)
        assert state.anchor_host in set(state.a_set.tolist())

    def test_tiny_rest_precondition(self):
        d = complete(40)
        params = spanning_defaults(40, 0.45)
        tree = gen_random_tree(5, 3, "uniform", np.random.default_rng(0))
        with pytest.raises(ValueError):
            build_absorber(d, tree, 0, params, np.random.default_rng(0))

    def test_completion_deterministic_given_s(self):
        rng = np.random.default_rng(3)
        d = gen_semidegree_digraph(400, 0.25, rng)
        params = spanning_defaults(400, 0.25)
        tree = gen_random_tree(params.absorber_size(400), 3, "uniform", rng).with_t(0)
        state = build_absorber(d, tree, 0, params, rng)
        free = np.array(sorted(set(range(400)) - set(state.a_set.tolist())))
        extra = rng.choice(free, size=tree.n - len(state.a_set), replace=False)
        b = np.array(sorted(set(state.a_set.tolist()) | {int(x) for x in extra}))
        emb = complete_absorption(state, b)
        assert verify_embedding(d, tree, emb)
        assert emb[0] == state.anchor_host
        assert set(emb.used) == set(b.tolist())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_completion_attaches_along_host_arcs(self, seed):
        # About a tenth of the arcs are missing, so the smallest index that y
        # can take over is often not adjacent to the attachment image: a
        # completion that skipped the attachment-arc rule returns a map with
        # a missing arc on each of these seeds.
        n = 200
        rng = np.random.default_rng(seed)
        d = gen_semidegree_digraph(n, 0.2, rng)
        assert d.num_edges() < 0.95 * n * (n - 1)
        params = spanning_defaults(n, 0.2)
        tree = gen_random_tree(params.absorber_size(n), 3, "uniform", rng).with_t(0)
        state = build_absorber(d, tree, 0, params, rng)
        free = np.array(sorted(set(range(n)) - set(state.a_set.tolist())))
        extra = rng.choice(free, size=tree.n - len(state.a_set), replace=False)
        b = np.array(sorted(set(state.a_set.tolist()) | {int(x) for x in extra}))
        emb = complete_absorption(state, b)
        assert verify_embedding(d, tree, emb)
        assert set(emb.used) == set(b.tolist())

    def test_completion_requires_a_subset(self):
        d = complete(200)
        params = spanning_defaults(200, 0.45)
        tree = gen_random_tree(params.absorber_size(200), 3, "uniform",
                               np.random.default_rng(4)).with_t(0)
        state = build_absorber(d, tree, 0, params, np.random.default_rng(5))
        bad = np.arange(tree.n)  # ignores A entirely
        with pytest.raises(ValueError, match="^B must contain A$"):
            complete_absorption(state, bad)

    @pytest.mark.parametrize("bad", [200, -1, -200])
    def test_completion_names_a_host_outside_the_host(self, bad):
        # 200 once raised a bare IndexError and -1 a retryable VerificationError.
        d = complete(200)
        params = spanning_defaults(200, 0.45)
        tree = gen_random_tree(params.absorber_size(200), 3, "uniform",
                               np.random.default_rng(4)).with_t(0)
        state = build_absorber(d, tree, 0, params, np.random.default_rng(5))
        a = state.a_set.tolist()
        extra = sorted(set(range(200)) - set(a))[: tree.n - len(a) - 1]
        with pytest.raises(ValueError, match=rf"^B holds host {bad} outside 0\.\.199$"):
            complete_absorption(state, np.array(a + extra + [bad]))

    def test_completion_requires_b_of_size_t(self):
        d = complete(200)
        params = spanning_defaults(200, 0.45)
        tree = gen_random_tree(params.absorber_size(200), 3, "uniform",
                               np.random.default_rng(4)).with_t(0)
        state = build_absorber(d, tree, 0, params, np.random.default_rng(5))
        a = state.a_set.tolist()
        extra = sorted(set(range(200)) - set(a))
        room = tree.n - len(a)
        assert room >= 2
        too_many = np.array(a + extra[: room + 1])
        with pytest.raises(ValueError, match=rf"^\|B\| = {tree.n + 1} must equal \|T\| = {tree.n}$"):
            complete_absorption(state, too_many)
        # |T| entries, but one host given twice: B as a set is one short.
        repeated = np.array(a + extra[: room - 1] + [extra[0]])
        assert len(repeated) == tree.n
        with pytest.raises(ValueError, match=rf"^\|B\| = {tree.n - 1} must equal \|T\| = {tree.n}$"):
            complete_absorption(state, repeated)

    def test_completion_leaves_a_hub_above_the_copy_degree_cap(self):
        # Threshold 68 (18 swaps plus a margin of 50) gives a copy-degree cap
        # of ceil(4 * 200 / 68) = 12.  On a complete host every index is
        # admissible but for the cap, so the completion retires the smallest
        # indices in turn and must step over the hub of degree 16 at index 5.
        n = 200
        params = spanning_defaults(n, 0.25).with_updates(switch_margin=50)
        edges = [(i, i + 1) for i in range(5)] + [(5, 6 + j) for j in range(15)]
        tree = OrientedTree(120, edges + [(i - 1, i) for i in range(21, 120)], t=0)
        state = build_absorber(complete(n), tree, 0, params, np.random.default_rng(1))
        hub = int(np.searchsorted(state.trunk.labels, 5))
        assert (state.threshold, state.order.order[5], state.trunk.tree.degree(hub)) == (68, hub, 16)
        a = state.a_set.tolist()
        b = np.array(sorted(a + sorted(set(range(n)) - set(a))[: tree.n - len(a)]))
        emb = complete_absorption(state, b)
        assert verify_embedding(complete(n), tree, emb)
        assert emb[5] == state.hosts[5]

    def test_completion_takes_an_index_whose_copy_degree_equals_the_cap(self):
        # Threshold 50 (18 swaps plus a margin of 32) gives a cap of
        # ceil(4 * 200 / 50) = 16, the hub's own degree.  "At most the cap"
        # admits the hub, so the completion switches it out at its turn.
        state, b = hub_absorber(32)
        hub = state.order.order[5]
        cap = max(6, math.ceil(4 * 200 / state.threshold))
        assert (state.threshold, cap, state.trunk.tree.degree(hub)) == (50, 16, 16)
        emb = complete_absorption(state, b)
        assert verify_embedding(complete(200), state.tree, emb)
        assert emb[5] != state.hosts[5]


def hub_absorber(margin):
    """The hub tree of the copy-degree cap tests, its absorber on complete(200) and a B."""
    n = 200
    params = spanning_defaults(n, 0.25).with_updates(switch_margin=margin)
    edges = [(i, i + 1) for i in range(5)] + [(5, 6 + j) for j in range(15)]
    tree = OrientedTree(120, edges + [(i - 1, i) for i in range(21, 120)], t=0)
    state = build_absorber(complete(n), tree, 0, params, np.random.default_rng(1))
    a = state.a_set.tolist()
    return state, np.array(sorted(a + sorted(set(range(n)) - set(a))[: tree.n - len(a)]))


class TestFullRowCompletion:
    """When every host of B has full rows the completion reads no arc; the general route is its oracle."""

    @staticmethod
    def absorber(family, n=300, seed=3):
        params = spanning_defaults(n, 0.25)
        tree = gen_random_tree(params.absorber_size(n), 3, family, np.random.default_rng(seed)).with_t(0)
        state = build_absorber(complete(n), tree, 0, params, np.random.default_rng(seed + 1))
        free = np.setdiff1d(np.arange(n), state.a_set)
        extra = np.random.default_rng(seed + 2).choice(free, size=tree.n - len(state.a_set), replace=False)
        return state, np.concatenate((state.a_set, extra))

    @staticmethod
    def shared_first():
        """An absorber whose shared vertex, 39, is trunk index 1, the first slot's parent.

        Root 0 has paths of 18, 18 and 2 vertices and the child 39, which has
        two 18-vertex paths; the split takes the first into the rest, and 39
        is the root's child of highest id, so the trunk order visits it first.
        """
        heads = [(0, 1), (0, 19), (0, 37), (37, 38), (0, 39), (39, 40), (39, 58)]
        runs = [*range(1, 18), *range(19, 36), *range(40, 57), *range(58, 75)]
        tree = OrientedTree(76, heads + [(v, v + 1) for v in runs], t=0)
        state = build_absorber(complete(200), tree, 0, spanning_defaults(200, 0.25), np.random.default_rng(1))
        assert (state.shared, state.trunk.labels[state.order.order[1]]) == (39, 39)
        a = state.a_set.tolist()
        return state, np.array(a + sorted(set(range(200)) - set(a))[: tree.n - len(a)])

    # The hub tree at margin 50 (cap 12, the hub is stepped over) and 32 (cap
    # 16, it is taken); and a first slot whose parent is the first candidate.
    @pytest.mark.parametrize("case", ["uniform", "spider", "broom", 50, 32, "shared-first"],
                             ids=["uniform", "spider", "broom", "hub-cap-12", "hub-cap-16", "shared-first"])
    def test_same_map_as_the_general_route(self, case, monkeypatch):
        state, b = (hub_absorber(case) if isinstance(case, int) else
                    self.shared_first() if case == "shared-first" else self.absorber(case))
        assert state.d.full_rows(Sign.PLUS)[b].all()
        full = complete_absorption(state, b)
        monkeypatch.setattr(Digraph, "full_rows", lambda self, sign: np.zeros(self.n, dtype=bool))
        general = complete_absorption(state, b)
        assert verify_embedding(state.d, state.tree, full)
        assert full.map == general.map and full.phase == general.phase

    def test_a_missing_arc_in_b_takes_the_general_route(self):
        # Remove an arc that the full-row map uses but the trunk copy does not.
        # The full-row route would return that map again, which fails its
        # audit; the general route steers around the missing arc.
        state, b = self.absorber("uniform")
        full = complete_absorption(state, b)
        roles = state.trunk.labels[np.array(state.order.order)]
        start = dict(zip(roles.tolist(), state.hosts.tolist()))
        trunk_arcs = {(start[u], start[w]) for u, w in state.trunk.labels[state.trunk.tree.edges].tolist()}
        tail, head = next((full[u], full[w]) for u, w in state.tree.edge_list
                          if (full[u], full[w]) not in trunk_arcs)
        mat = state.d.mat.copy()
        mat[tail, head] = False
        holey = Digraph(state.d.n, mat)
        assert not holey.full_rows(Sign.PLUS)[b].all()
        emb = complete_absorption(dataclasses.replace(state, d=holey), b)
        assert verify_embedding(holey, state.tree, emb)
        assert emb.map != full.map


def full_property_s_counts(d, trunk_tree, order, hosts):
    """The dense certificate: count[sign][x, y] over all host pairs, plus the takeover matrix.

    count[x, y] is the number of indices i with hosts[i] in N^sign(x) whose
    trunk neighbourhood images y can take over (m[y, i]).
    """
    n = d.n
    ell = len(hosts)
    m = np.ones((n, ell), dtype=bool)
    pos_of = {order.order[i]: i for i in range(ell)}
    for i in range(ell):
        tv = order.order[i]
        outs = [hosts[pos_of[w]] for w in trunk_tree.out(tv)]
        ins = [hosts[pos_of[w]] for w in trunk_tree.nbrs(tv) if w not in trunk_tree.out(tv)]
        col = np.ones(n, dtype=bool)
        if outs:
            col &= d.mat[:, np.asarray(outs)].all(axis=1)
        if ins:
            col &= d.mat[np.asarray(ins), :].all(axis=0)
        m[:, i] = col
    counts = {}
    for sign, x in ((Sign.PLUS, d.mat[:, hosts]), (Sign.MINUS, d.mat[hosts, :].T)):
        counts[sign] = np.rint(x.astype(np.float32) @ m.astype(np.float32).T).astype(np.int32)
    return counts, m


def full_property_s_floor(d, trunk_tree, order, hosts):
    counts, m = full_property_s_counts(d, trunk_tree, order, hosts)
    off_diagonal = ~np.eye(d.n, dtype=bool)
    return min(int(c[off_diagonal].min()) for c in counts.values()), m


class TestPropertySFloor:
    """The certificate from the host's non-arcs against the dense count matrices."""

    @staticmethod
    def host(kind, n, rng):
        if kind == "p0.98":
            mat = rng.random((n, n)) < 0.98
        elif kind == "p0.7":
            mat = rng.random((n, n)) < 0.7
        else:
            mat = np.ones((n, n), dtype=bool)
            if kind == "minus-arcs":
                for _ in range(int(rng.integers(1, 4))):
                    u, w = rng.choice(n, size=2, replace=False)
                    mat[u, w] = False
        np.fill_diagonal(mat, False)
        return Digraph(n, mat)

    @pytest.mark.parametrize("kind", ["complete", "p0.98", "p0.7", "minus-arcs"])
    def test_floor_equals_the_dense_minimum(self, kind):
        rng = np.random.default_rng(["complete", "p0.98", "p0.7", "minus-arcs"].index(kind))
        # |V \ Rx| and |V \ Ry| per case, capped at 2: rows and columns off the product.
        outside = set()
        for family in ("uniform", "spider", "caterpillar"):
            for gap in (0, 1, 2, 9):
                n = int(rng.integers(16, 30))
                d = self.host(kind, n, rng)
                tree = gen_random_tree(n - gap, 3, family, rng)
                for policy in ("any", "leaves_last_middles_consecutive"):
                    order = prefix_order(tree, int(rng.integers(tree.n)), policy)
                    hosts = rng.permutation(n)[: tree.n].astype(np.int64)
                    want, m = full_property_s_floor(d, tree, order, hosts)
                    assert _property_s_floor(d, order, hosts) == want
                    rx = min((~d.mat[:, hosts]).any(axis=1).sum(), (~d.mat[hosts]).any(axis=0).sum())
                    ry = (~m).any(axis=1).sum()
                    outside.add((min(n - int(rx), 2), min(n - int(ry), 2)))
        if kind in ("complete", "minus-arcs"):
            assert {(0, 0), (1, 1), (2, 2)} <= outside

    def test_trunk_embedded_by_the_absorber_walk(self):
        rng = np.random.default_rng(11)
        d = gen_semidegree_digraph(120, 0.24, rng)
        for family in ("uniform", "spider", "caterpillar"):
            tree = gen_random_tree(40, 3, family, rng)
            order = prefix_order(tree, 0, "leaves_last_middles_consecutive")
            hosts = greedy_walk(d, order, np.ones(120, dtype=bool), rng)
            want, _m = full_property_s_floor(d, tree, order, hosts)
            assert _property_s_floor(d, order, hosts) == want

    @staticmethod
    def full_row_case(family, n, ell, rng):
        """A trunk of `family` on ell of n hosts, every trunk host with full rows.

        Up to three arcs are removed between hosts off the trunk.  The "hub"
        trunk is a path with a hub of ell // 2 leaves at vertex 0.
        """
        if family == "hub":
            edges = [(0, i) if rng.integers(2) else (i, 0) for i in range(1, ell // 2 + 1)]
            edges += [(i, i + 1) if rng.integers(2) else (i + 1, i) for i in range(ell // 2, ell - 1)]
            tree = OrientedTree(ell, edges)
        else:
            tree = gen_random_tree(ell, ell if family in ("star", "broom") else 3, family, rng)
        order = prefix_order(tree, int(rng.integers(ell)), "leaves_last_middles_consecutive")
        hosts = rng.permutation(n)[:ell].astype(np.int64)
        mat = np.ones((n, n), dtype=bool)
        np.fill_diagonal(mat, False)
        off = np.setdiff1d(np.arange(n), hosts)
        for _ in range(int(rng.integers(4)) if len(off) > 1 else 0):
            u, w = rng.choice(off, size=2, replace=False)
            mat[u, w] = False
        return Digraph(n, mat), tree, order, hosts

    @pytest.mark.parametrize("family", ["star", "broom", "hub", "spider", "uniform"])
    def test_full_row_closed_form(self, family):
        # On full trunk rows the floor is ell - 1 - Delta, plus one on a star,
        # over all n hosts or fewer, with arcs missing between non-trunk hosts.
        rng = np.random.default_rng(["star", "broom", "hub", "spider", "uniform"].index(family))
        for trial in range(16):
            n = int(rng.integers(6, 32))
            ell = n if trial % 4 == 0 else int(rng.integers(3, n))
            d, tree, order, hosts = self.full_row_case(family, n, ell, rng)
            floor, m = full_property_s_floor(d, tree, order, hosts)
            max_a = ell - min(d.mat[:, hosts].sum(axis=1).min(), d.mat[hosts].sum(axis=0).min())
            bound = ell - int(max_a) - int(ell - m.sum(axis=1).min())
            delta = max(tree.degree(v) for v in range(ell))
            assert bound == ell - 1 - delta
            assert floor == bound + (bound == 0)
            assert (bound == 0) == (delta == ell - 1) >= (family == "star")
            assert _property_s_floor(d, order, hosts) == floor
            assert _property_s_floor(d, order, hosts, bound) == bound
            assert _property_s_floor(d, order, hosts, bound + 1) == floor

    def test_full_row_route_reads_no_row(self, monkeypatch):
        def no_rows(*args):
            raise AssertionError("a host row was read")

        rng = np.random.default_rng(7)
        cases = [self.full_row_case(family, 40, 30, rng) for family in ("hub", "uniform", "star")]
        want = [full_property_s_floor(d, tree, order, hosts)[0] for d, tree, order, hosts in cases]
        monkeypatch.setattr(embedder, "_arc_rows", no_rows)
        assert [_property_s_floor(d, order, hosts) for d, _t, order, hosts in cases] == want

    def test_one_arc_off_a_trunk_host_reads_rows(self, monkeypatch):
        # Without the arc hosts[0] -> hosts[1] the full-row test fails, and the
        # row blocks give the dense floor.
        rng = np.random.default_rng(8)
        reads = []
        arc_rows = embedder._arc_rows
        monkeypatch.setattr(embedder, "_arc_rows", lambda *args: reads.append(1) or arc_rows(*args))
        for family in ("hub", "uniform", "star"):
            d, tree, order, hosts = self.full_row_case(family, 40, 30, rng)
            mat = d.mat.copy()
            mat[hosts[0], hosts[1]] = False
            d = Digraph(40, mat)
            reads.clear()
            assert _property_s_floor(d, order, hosts) == full_property_s_floor(d, tree, order, hosts)[0]
            assert reads

    def test_complete_host_build_allocates_less_than_one_count_matrix(self):
        # The dense certificate peaked near 14 n^2 bytes here: several n x n
        # float32 and int32 count matrices.  One of them alone is 4 n^2.
        n = 600
        params = spanning_defaults(n, 0.25)
        tree = gen_random_tree(params.absorber_size(n), 3, "spider", np.random.default_rng(1)).with_t(0)
        d = complete(n)
        tracemalloc.start()
        try:
            build_absorber(d, tree, 0, params, np.random.default_rng(2))
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * n

    @pytest.mark.parametrize("kind", ["complete", "p0.98", "p0.7", "minus-arcs"])
    def test_union_bound_is_at_most_the_floor(self, kind):
        # ell - max a - max b from the dense matrices, against the exact floor;
        # a threshold the bound reaches returns the bound, one above it the floor.
        rng = np.random.default_rng(10 + ["complete", "p0.98", "p0.7", "minus-arcs"].index(kind))
        for family in ("uniform", "spider", "caterpillar"):
            for gap in (0, 1, 2, 9):
                n = int(rng.integers(16, 30))
                d = self.host(kind, n, rng)
                tree = gen_random_tree(n - gap, 3, family, rng)
                order = prefix_order(tree, int(rng.integers(tree.n)), "leaves_last_middles_consecutive")
                hosts = rng.permutation(n)[: tree.n].astype(np.int64)
                floor, m = full_property_s_floor(d, tree, order, hosts)
                ell = tree.n
                max_a = ell - min(d.mat[:, hosts].sum(axis=1).min(), d.mat[hosts].sum(axis=0).min())
                max_b = ell - m.sum(axis=1).min()
                bound = ell - int(max_a) - int(max_b)
                assert bound <= floor
                assert _property_s_floor(d, order, hosts, bound) == bound
                assert _property_s_floor(d, order, hosts, bound + 1) == floor

    @pytest.mark.parametrize("n, margin", [(160, -10), (240, -5)])
    def test_exact_floor_decides_when_the_bound_falls_short(self, monkeypatch, n, margin):
        # On these p = 0.8 hosts the bound of every attempt is below the
        # threshold; the exact floor rejects the attempts below it and accepts
        # the first that reaches it, which the bound alone never would.
        seen = []

        def both(d, order, hosts, threshold=None):
            bound = _property_s_floor(d, order, hosts, -3 * len(hosts))
            seen.append((bound, _property_s_floor(d, order, hosts)))
            return _property_s_floor(d, order, hosts, threshold)

        monkeypatch.setattr(embedder, "_property_s_floor", both)
        rng = np.random.default_rng(5)
        mat = rng.random((n, n)) < 0.8
        np.fill_diagonal(mat, False)
        params = spanning_defaults(n, 0.25).with_updates(switch_margin=margin)
        tree = gen_random_tree(params.absorber_size(n), 3, "uniform", np.random.default_rng(6)).with_t(0)
        state = build_absorber(Digraph(n, mat), tree, 0, params, np.random.default_rng(7))
        assert all(bound < state.threshold for bound, _floor in seen)
        assert [floor >= state.threshold for _bound, floor in seen] == [False] * (len(seen) - 1) + [True]

    def test_complete_host_build_peak_without_float32_blocks(self):
        # The bound settles this build, so no float32 block is allocated; the
        # exact route peaked at 2.0 n^2 bytes here.
        n = 600
        params = spanning_defaults(n, 0.25)
        tree = gen_random_tree(params.absorber_size(n), 3, "spider", np.random.default_rng(1)).with_t(0)
        d = complete(n)
        tracemalloc.start()
        try:
            build_absorber(d, tree, 0, params, np.random.default_rng(2))
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * n * n

    def test_floor_across_row_blocks(self):
        # Trunks of 400 to 700 indices span several blocks of ROW_BLOCK trunk
        # indices, and the wide spider's root has more children than one chunk.
        rng = np.random.default_rng(31)
        n = 720
        for kind, family, cap, ell in (
            ("p0.98", "uniform", 3, 700), ("p0.7", "caterpillar", 3, 560),
            ("minus-arcs", "spider", 400, 650), ("p0.98", "spider", 400, 400),
        ):
            d = self.host(kind, n, rng)
            tree = gen_random_tree(ell, cap, family, rng)
            order = prefix_order(tree, 0, "leaves_last_middles_consecutive")
            hosts = rng.permutation(n)[:ell].astype(np.int64)
            floor, m = full_property_s_floor(d, tree, order, hosts)
            max_a = ell - min(d.mat[:, hosts].sum(axis=1).min(), d.mat[hosts].sum(axis=0).min())
            bound = ell - int(max_a) - int(ell - m.sum(axis=1).min())
            assert _property_s_floor(d, order, hosts) == floor
            assert _property_s_floor(d, order, hosts, bound) == bound
            assert _property_s_floor(d, order, hosts, bound + 1) == floor

    @pytest.mark.parametrize("tile", [8, 16, ROW_BLOCK])
    def test_floor_across_product_tiles(self, monkeypatch, tile):
        # Tiles of 8 to 256 hosts a side put many seams through the exact
        # count.  On complete(257) minus one arc at host 256, with the trunk
        # on hosts 0..255, Xb has 257 rows for one sign and 256 for the
        # other, and host 256 ends both Xb and the columns b > 0: with 256
        # wide tiles the last tile is the single pair x == y == 256.
        monkeypatch.setattr(embedder, "PRODUCT_TILE", tile)
        rng = np.random.default_rng(tile)
        cases = [
            (self.host("complete", 257, rng), np.arange(257)),
            (self.host("p0.7", 513, rng), rng.permutation(513)[:192]),
            (self.host("p0.98", 300, rng), rng.permutation(300)[:150]),
        ]
        for u, w in ((256, 5), (5, 256)):
            mat = np.ones((257, 257), dtype=bool)
            np.fill_diagonal(mat, False)
            mat[u, w] = False
            cases.append((Digraph(257, mat), np.arange(256)))
        for d, hosts in cases:
            tree = gen_random_tree(len(hosts), 3, "uniform", rng)
            order = prefix_order(tree, 0, "leaves_last_middles_consecutive")
            floor, _m = full_property_s_floor(d, tree, order, hosts)
            assert _property_s_floor(d, order, hosts) == floor

    @pytest.mark.parametrize("family, cap", [("uniform", 3), ("spider", 300)])
    def test_certificate_peak_in_row_blocks(self, monkeypatch, family, cap):
        # A trunk over all 600 hosts of the complete host.  The whole-trunk
        # arrays (2 ell x n non-arcs, ell x n blocked rows and their gathers)
        # peaked at 4.2 and 5.0 n^2 bytes on the bound route, and the float32
        # count blocks at 19 n^2 on the exact route; that route's tiles are
        # ROW_BLOCK wide here, so its peak shows the tiling.
        monkeypatch.setattr(embedder, "PRODUCT_TILE", ROW_BLOCK)
        n = 600
        d = complete(n)
        d.in_packed  # warm the host's cache
        tree = gen_random_tree(n, cap, family, np.random.default_rng(1))
        order = prefix_order(tree, 0, "leaves_last_middles_consecutive")
        hosts = np.random.default_rng(2).permutation(n)
        for threshold, limit in ((0, 3 * n * n), (None, 8 * n * n)):
            tracemalloc.start()
            try:
                floor = _property_s_floor(d, order, hosts, threshold)
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert floor > 0
            assert peak < limit

    def test_s_fail_message_keeps_its_floor(self):
        # Message recorded with the dense certificate.
        n = 160
        rng = np.random.default_rng(5)
        mat = rng.random((n, n)) < 0.8
        np.fill_diagonal(mat, False)
        params = spanning_defaults(n, 0.25)
        tree = gen_random_tree(params.absorber_size(n), 3, "uniform", np.random.default_rng(6)).with_t(0)
        with pytest.raises(PhaseFailure) as info:
            build_absorber(Digraph(n, mat), tree, 0, params, np.random.default_rng(7))
        assert str(info.value) == (
            "absorber failed after 10 attempt(s) [S-fail]: "
            "property S floor 9 below threshold 22 (ell=43, swaps=18)"
        )

    def test_unreachable_threshold_is_one_attempt_with_no_draw(self):
        # A trunk shorter than its switch threshold fails before any draw,
        # reported as one attempt like every other failure decided up front.
        d = gen_semidegree_digraph(300, 0.25, np.random.default_rng(1))
        tree = gen_random_tree(84, 3, "uniform", np.random.default_rng(0)).with_t(0)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(PhaseFailure) as info:
            build_absorber(d, tree, 0, spanning_defaults(300, 0.25), rng)
        assert str(info.value) == (
            "absorber failed after 1 attempt(s) [S-fail]: "
            "trunk of 38 vertices cannot reach a switch threshold of 50"
        )
        assert (info.value.phase, info.value.attempts) == ("absorber", 1)
        assert rng.bit_generator.state == state

    def test_stuck_trunk_walk_is_a_leaf_greedy_fail(self):
        # No host has an arc, so every attempt's walk is stuck and no floor is counted.
        n = 120
        params = spanning_defaults(n, 0.25)
        m = params.absorber_size(n)
        path = OrientedTree(m, [(i, i + 1) for i in range(m - 1)], t=0)
        with pytest.raises(PhaseFailure) as info:
            build_absorber(Digraph(n, np.zeros((n, n), dtype=bool)), path, 0, params,
                           np.random.default_rng(0))
        assert str(info.value) == (
            "absorber failed after 10 attempt(s) [leaf-greedy-fail]: "
            "greedy walk stuck on the absorber trunk"
        )


class TestSpanning:
    def test_tiny_host_takes_the_greedy_route(self):
        tree = gen_random_tree(30, 3, "uniform", np.random.default_rng(0))
        emb, tele = embed_spanning(complete(30), tree, spanning_defaults(30, 0.25),
                                   np.random.default_rng(1))
        assert verify_embedding(complete(30), tree, emb)
        assert tele["phases"] == {"tiny-greedy": 1}

    @pytest.mark.parametrize("n,family,seed", [(40, "uniform", 3), (51, "path", 0), (62, "uniform", 2)])
    def test_small_absorber_piece_takes_the_greedy_route(self, n, family, seed):
        # build_absorber needs 3 * (gap + 1) vertices to split off its rest;
        # these absorber pieces have fewer, so the call walks greedily.
        d = gen_semidegree_digraph(n, 0.25, np.random.default_rng(seed))
        tree = gen_random_tree(n, 3, family, np.random.default_rng(100 + seed))
        params = spanning_defaults(n, 0.25)
        _trunk, piece, _shared = split_tree(tree, min(n // 3, params.absorber_size(n)))
        assert piece.tree.n < 3 * (params.absorb_gap(n) + 1)
        emb, tele = embed_spanning(d, tree, params, np.random.default_rng(seed))
        assert verify_embedding(d, tree, emb) and len(emb.used) == n
        assert tele["phases"] == {"tiny-greedy": 1}

    def test_small_hosts_give_a_map_or_a_pipeline_error(self):
        # The route is decided from the split sizes: greedy exactly when the
        # absorber piece cannot be split, the pipeline otherwise.
        routes = set()
        for n in range(40, 70):
            params = spanning_defaults(n, 0.25)
            for family in set(FAMILIES) - {"star"}:
                d = gen_semidegree_digraph(n, 0.25, np.random.default_rng(n))
                tree = gen_random_tree(n, 3, family, np.random.default_rng(1000 + n))
                _trunk, piece, _shared = split_tree(tree, min(n // 3, params.absorber_size(n)))
                greedy = piece.tree.n < 3 * (params.absorb_gap(n) + 1)
                try:
                    emb, tele = embed_spanning(d, tree, params, np.random.default_rng(n))
                except PipelineError:
                    assert not greedy
                    continue
                assert verify_embedding(d, tree, emb) and len(emb.used) == n
                assert ("tiny-greedy" in tele["phases"]) == greedy
                routes.add(greedy)
        assert routes == {True, False}

    def test_degree_cap_is_checked_at_the_host_size(self):
        # degree_cap(300) is 5 while the cap at the almost part's pool size
        # is 4; a tree at the host's cap must not be rejected by the second.
        n = 300
        params = spanning_defaults(n, 0.25).with_updates(c=0.1)
        d = gen_semidegree_digraph(n, 0.25, np.random.default_rng(1))
        tree = gen_random_tree(n, 5, "uniform", np.random.default_rng(2))
        assert max(max_semidegree(tree)) == params.degree_cap(n) == 5
        try:
            emb, _ = embed_spanning(d, tree, params, np.random.default_rng(2))
        except PipelineError:
            return
        assert verify_embedding(d, tree, emb) and len(emb.used) == n

    def test_over_cap_star_takes_the_greedy_route(self):
        # A star's absorber has no switch reservoir, so the pipeline fails and the walk carries it.
        n = 200
        star = OrientedTree(n, [(0, i) for i in range(1, n)], t=0)
        params = spanning_defaults(n, 0.25).with_updates(max_tree_semidegree=n)
        emb, tele = embed_spanning(complete(n), star, params, np.random.default_rng(1))
        assert verify_embedding(complete(n), star, emb)
        assert tele["phases"] == {"over-cap-greedy": 1}
        assert [f["cause"] for f in tele["failures"]] == ["S-fail"] * 3

    def test_complete_host_any_tree(self):
        d = complete(200)
        tree = gen_random_tree(200, 3, "uniform", np.random.default_rng(0))
        params = spanning_defaults(200, 0.45)
        emb, tele = embed_spanning(d, tree, params, np.random.default_rng(1))
        assert verify_embedding(d, tree, emb)
        assert len(emb.used) == 200

    def test_random_host_families(self):
        for seed, family in enumerate(("uniform", "path")):
            rng = np.random.default_rng(seed)
            d = gen_semidegree_digraph(400, 0.25, rng)
            tree = gen_random_tree(400, 3, family, rng)
            params = spanning_defaults(400, 0.25)
            emb, _ = embed_spanning(d, tree, params, rng)
            assert verify_embedding(d, tree, emb)
            assert len(emb.used) == 400

    def test_complete_binary_out_arborescence(self):
        # Its stars fall into classes of hundreds of isomorphic pieces, which
        # must share the one walked pool: hosts reserved per class would
        # leave V0 with -134 vertices here.
        n = 1023
        tree = OrientedTree(n, [((i - 1) // 2, i) for i in range(1, n)], t=0)
        d = gen_semidegree_digraph(n, 0.25, np.random.default_rng(7))
        emb, tele = embed_spanning(d, tree, spanning_defaults(n, 0.25), np.random.default_rng(7))
        assert verify_embedding(d, tree, emb) and len(emb.used) == n
        assert tele["phases"]["outer_attempts"] == 1

    def test_size_mismatch(self):
        d = complete(50)
        tree = gen_random_tree(40, 3, "uniform", np.random.default_rng(0))
        with pytest.raises(ValueError):
            embed_spanning(d, tree, spanning_defaults(50, 0.4), np.random.default_rng(0))

    def test_degree_cap_enforced(self):
        d = complete(100)
        star = OrientedTree(100, [(0, v) for v in range(1, 100)], t=0)
        with pytest.raises(ValueError, match="cap"):
            embed_spanning(d, star, spanning_defaults(100, 0.45), np.random.default_rng(0))

    def test_complete_host_star_with_raised_cap(self):
        # any tree embeds in a complete host once the cap admits it
        n = 200
        d = complete(n)
        star = OrientedTree(n, [(0, v) for v in range(1, n)], t=0)
        params = spanning_defaults(n, 0.45).with_updates(max_tree_semidegree=n)
        emb, _ = embed_spanning(d, star, params, np.random.default_rng(1))
        assert verify_embedding(d, star, emb) and len(emb.used) == n

    def test_guest_tree_is_split_once_per_call(self, monkeypatch):
        splits = []
        split = embedder.split_tree

        def counted(*args, **kwargs):
            splits.append(args[1])
            return split(*args, **kwargs)

        def s_fail(*args):
            raise PhaseFailure("absorber", "S-fail", "property S floor 0 below threshold 9")

        monkeypatch.setattr(embedder, "split_tree", counted)
        monkeypatch.setattr(embedder, "build_absorber", s_fail)
        n = 120
        params = spanning_defaults(n, 0.45)
        tree = gen_random_tree(n, 3, "uniform", np.random.default_rng(0))
        with pytest.raises(PhaseFailure) as info:
            embed_spanning(complete(n), tree, params, np.random.default_rng(1))
        assert splits == [n // 3]
        assert (info.value.phase, info.value.cause, info.value.attempts) == ("spanning", "S-fail", 3)
        assert str(info.value).endswith("property S floor 0 below threshold 9")

    def test_one_induced_host_per_almost_attempt(self, monkeypatch):
        # Only V1 is induced: the almost-spanning part and its path pieces run
        # on the shared host.  The first path attachment is made to fail, so
        # the almost loop makes two attempts, one induced V1 each.
        induced, attached = [], []
        induce, attach = Digraph.induce, embedder.attach_path_trees

        def counted_induce(self, vertices):
            induced.append(len(vertices))
            return induce(self, vertices)

        def first_attach_fails(*args, **kwargs):
            attached.append(len(args[2]))
            if len(attached) == 1:
                raise PhaseFailure("paths", "connector-exhausted", "forced miss", 1)
            return attach(*args, **kwargs)

        monkeypatch.setattr(Digraph, "induce", counted_induce)
        monkeypatch.setattr(embedder, "attach_path_trees", first_attach_fails)
        n = 800
        d = gen_semidegree_digraph(n, 0.25, np.random.default_rng(0))
        tree = gen_random_tree(n, 2, "spider", np.random.default_rng(100))
        emb, telemetry = embed_spanning(d, tree, spanning_defaults(n, 0.25), np.random.default_rng(200))
        assert verify_embedding(d, tree, emb)
        assert telemetry["phases"]["outer_attempts"] == 1
        assert len(telemetry["phases"]["almost"]["failures"]) == 1
        assert len(attached) == 2 and min(attached) > 0
        assert len(induced) == 2

    def test_absorber_built_and_completed_verifies(self):
        rng = np.random.default_rng(11)
        d = gen_semidegree_digraph(200, 0.25, rng)
        params = spanning_defaults(200, 0.25)
        tree = gen_random_tree(params.absorber_size(200), 3, "uniform", rng).with_t(0)
        state = build_absorber(d, tree, 0, params, rng)
        free = np.array(sorted(set(range(200)) - set(state.a_set.tolist())))
        extra = rng.choice(free, size=tree.n - len(state.a_set), replace=False)
        b = np.array(sorted(set(state.a_set.tolist()) | {int(x) for x in extra}))
        emb = complete_absorption(state, b)
        assert verify_embedding(d, tree, emb)

    def test_phase_disjointness(self):
        rng = np.random.default_rng(7)
        d = gen_semidegree_digraph(400, 0.25, rng)
        tree = gen_random_tree(400, 3, "uniform", rng)
        emb, _ = embed_spanning(d, tree, spanning_defaults(400, 0.25), rng)
        phases = {}
        for tv, ph in emb.phase.items():
            phases.setdefault(ph, set()).add(emb[tv])
        # absorber image and almost image overlap only at the anchor
        almost = set().union(*(phases.get(p, set()) for p in ("almost",)))
        absorber = phases.get("absorber", set())
        assert len(almost & absorber) == 0
