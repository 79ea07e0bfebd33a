import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest

from spantree.decompose import (
    DecompositionError,
    _strip,
    check_decomposition,
    decompose,
)
from spantree.embedder import stars_from_decomposition
from spantree.params import ParamSchedule, spanning_defaults
from spantree.trees import FAMILIES, OrientedTree, components, find_independent_leaves, gen_random_tree

from test_trees import family_tree, reoriented


def schedule(n, eta=0.08, k=12, K=None):
    return ParamSchedule(alpha=0.25, eta=eta, k=k, K=K or max(60, n // 3), strip_eps=0.02)


class TestLongPath:
    def test_paths_absorb_everything(self):
        n = 10_000
        tree = gen_random_tree(n, 1, "path", np.random.default_rng(0))
        params = ParamSchedule(alpha=0.25, eta=0.01, k=50, K=5000, strip_eps=0.02)
        td = decompose(tree, 0, params)
        assert len(td.t0) <= 100
        assert len(td.t2) == n  # T2 = T: the pieces absorb the whole path
        assert check_decomposition(td) == []

    def test_layers_nested(self):
        tree = gen_random_tree(400, 1, "path", np.random.default_rng(1))
        td = decompose(tree, 0, schedule(400))
        assert set(td.t0) <= set(td.t1) <= set(td.t2)


class TestStarTree:
    def test_star_becomes_t1(self):
        n = 200
        tree = OrientedTree(n, [(0, v) for v in range(1, n)], t=0)
        td = decompose(tree, 0, schedule(n, K=60))
        assert len(td.t1) == n
        assert not td.pieces
        assert check_decomposition(td) == []

    def test_star_rooted_at_leaf(self):
        n = 100
        tree = OrientedTree(n, [(0, v) for v in range(1, n)], t=5)
        td = decompose(tree, 5, schedule(n, K=60))
        assert 5 in set(td.t0.tolist())
        assert len(td.t1) == n


class TestValidator:
    def test_families_all_pass(self):
        for family in ("uniform", "path", "caterpillar", "spider", "broom"):
            for n in (300, 800):
                for seed in range(3):
                    tree = gen_random_tree(n, 3, family, np.random.default_rng(seed))
                    td = decompose(tree, 0, schedule(n))
                    assert check_decomposition(td) == [], (family, n, seed)

    def test_monte_carlo_uniform(self):
        params = ParamSchedule(alpha=0.25, eta=0.05, k=12, K=600, strip_eps=0.02)
        for seed in range(25):
            tree = gen_random_tree(2000, 3, "uniform", np.random.default_rng(seed))
            td = decompose(tree, 0, params)
            assert check_decomposition(td) == []

    def test_piece_structure(self):
        tree = gen_random_tree(600, 1, "path", np.random.default_rng(2))
        td = decompose(tree, 0, schedule(600))
        assert td.pieces
        for p in td.pieces:
            assert td.k <= len(p.body) <= td.K
            for mid in (p.mid_x, p.mid_y):
                t2 = set(td.t2.tolist())
                assert len([u for u in tree.nbrs(mid) if u in t2]) == 2

    def test_t2_cut_at_a_middle_is_not_a_tree(self):
        # Without one bare-path middle, T2 splits in two and the edge count
        # alone reports it.
        tree = gen_random_tree(600, 1, "path", np.random.default_rng(2))
        td = decompose(tree, 0, schedule(600))
        mid = td.pieces[0].mid_x
        cut = dataclasses.replace(td, t2=td.t2[td.t2 != mid])
        assert check_decomposition(td) == []
        assert "P3: T2 is not a tree" in check_decomposition(cut)

    def test_too_tight_schedule_reports_property(self):
        tree = gen_random_tree(9, 1, "path", np.random.default_rng(0))
        with pytest.raises(DecompositionError) as exc:
            decompose(tree, 0, ParamSchedule(alpha=0.25, eta=0.1, k=12, K=60))
        assert any("P1" in p for p in exc.value.failed)

    def test_k_floor(self):
        tree = gen_random_tree(100, 1, "path", np.random.default_rng(0))
        with pytest.raises(ValueError):
            decompose(tree, 0, ParamSchedule(alpha=0.25, k=6, K=60))

    def test_t_always_in_t0(self):
        for seed in range(5):
            tree = gen_random_tree(300, 3, "uniform", np.random.default_rng(seed))
            t = int(np.random.default_rng(seed).integers(300))
            td = decompose(tree, t, schedule(300))
            assert t in set(td.t0.tolist())


class TestStarsExtraction:
    def test_components_match_layers(self):
        tree = gen_random_tree(500, 3, "uniform", np.random.default_rng(3))
        td = decompose(tree, 0, schedule(500))
        stars = stars_from_decomposition(td)
        star_vertices = {v for st in stars for v in st.vertices}
        assert star_vertices == set(td.t1.tolist()) - set(td.t0.tolist())
        for st in stars:
            assert st.root in tree.nbrs(st.attach) or st.attach in tree.nbrs(st.root)
            assert tree.edge_sign(st.attach, st.root) is st.sign


class TestHangRoots:
    """Stripping records each removed leaf's core-ward neighbour; the hang
    roots read off it must split every hang into its trees."""

    def decompositions(self):
        for family in ("uniform", "path", "caterpillar", "spider", "broom"):
            for n, seed in itertools.product((40, 150, 800), range(3)):
                tree = family_tree(family, n, seed)
                for guest in (tree, reoriented(tree, np.random.default_rng(seed))):
                    for t in (0, n - 1):
                        try:
                            yield decompose(guest, t, spanning_defaults(n, 0.25))
                        except DecompositionError:
                            continue

    def test_hangs_group_into_their_components(self):
        hangs = 0
        for td in self.decompositions():
            tree = td.tree
            for v, hang in [*td.stars.items(), *td.leftovers.items()]:
                trees: dict[int, list[int]] = {}
                for u in hang:
                    trees.setdefault(td.hang_root[u], []).append(u)
                assert list(trees.values()) == components(tree, hang)
                assert all(v in tree.nbrs(root) for root in trees)
                hangs += 1
        assert hangs >= 1000

    def test_strip_reads_only_the_leaves(self):
        # Against the stripping loop that scanned all n vertices each round.
        stripped = 0
        for family in ("uniform", "path", "caterpillar", "spider", "broom"):
            for n, seed in itertools.product((40, 150, 800), range(3)):
                tree = family_tree(family, n, seed)
                for guest, t in itertools.product((tree, reoriented(tree, np.random.default_rng(seed))), (0, n - 1)):
                    for batch_min in (1, spanning_defaults(n, 0.25).strip_count(n)):
                        got = _strip(guest, t, batch_min)
                        assert got == strip_by_scans(guest, t, batch_min)
                        stripped += got[0].count(False)
        assert stripped > 50_000

    def test_p2_count_against_the_component_walk(self):
        mutants = 0
        for td in self.decompositions():
            for mutant in star_mutants(td):
                got = [p for p in check_decomposition(mutant) if p.startswith("P2")]
                assert got == p2_by_components(mutant)
                mutants += bool(got)
        assert mutants >= 500

    def test_minus_one_exactly_on_the_core(self):
        # The core that stripping leaves is T0 plus each piece's tree path
        # between its anchors, anchors excluded.
        checked = 0
        for td in self.decompositions():
            tree, core = td.tree, set(td.t0.tolist())
            for piece in td.pieces:
                parent, queue = {piece.x: -1}, [piece.x]
                for w in queue:   # grows as it is read: a search from x
                    fresh = [u for u in tree.nbrs(w) if u not in parent]
                    parent.update((u, w) for u in fresh)
                    queue += fresh
                w = parent[piece.y]
                while w != piece.x:
                    core.add(w)
                    w = parent[w]
            assert [v for v in range(tree.n) if td.hang_root[v] < 0] == sorted(core)
            checked += 1
        assert checked >= 150


def strip_by_scans(tree, t, batch_min):
    """`_strip` as it was before it kept its leaves: every round scans all n vertices."""
    alive, deg, up, removed = [True] * tree.n, list(map(len, tree._und)), [-1] * tree.n, []

    def remove(batch):
        for v in batch:
            alive[v] = False
            deg[v] = 0
            for u in tree.nbrs(v):
                if alive[u]:
                    deg[u] -= 1
                    up[v] = u
        removed.extend(batch)

    while alive.count(True) > 1:
        batch = find_independent_leaves(tree, deg)
        if len(batch) < batch_min:
            break
        non_t = [v for v in batch if v != t]
        if not non_t:
            break
        remove(non_t)
    final = [v for v in range(tree.n) if alive[v] and deg[v] == 1 and v != t]
    if alive.count(True) - len(final) >= 1:
        remove(final)
    hang_root = [-1] * tree.n
    for v in reversed(removed):
        hang_root[v] = v if alive[up[v]] else hang_root[up[v]]
    return alive, deg, up, hang_root


def p2_by_components(td):
    """The P2 problems of `check_decomposition`, every hang's components walked."""
    tree, t0s, problems, seen_star = td.tree, set(td.t0.tolist()), [], set()
    for v, hang in td.stars.items():
        if v not in t0s:
            problems.append(f"P2: star anchored outside T0 at {v}")
        for comp in components(tree, hang):
            if len(comp) > td.K:
                problems.append(f"P2: star component of size {len(comp)} > K = {td.K}")
            touches = {u for w in comp for u in tree.nbrs(w) if u in t0s}
            if touches != {v}:
                problems.append(f"P2: star component at {v} touches T0 at {sorted(touches)}")
        if seen_star & set(hang):
            problems.append("P2: star trees overlap")
        seen_star |= set(hang)
    return problems


def star_mutants(td):
    """td, then copies with one fault put into its star layer."""
    yield td
    if not td.stars:
        return
    stars = {v: tuple(hang) for v, hang in td.stars.items()}
    anchors, t0 = list(stars), td.t0.tolist()
    v = max(anchors, key=lambda a: len(stars[a]))
    hang, other = stars[v], next((a for a in anchors if a != v), None)
    outside = next((u for u in range(td.tree.n) if u not in set(t0) and u not in hang), None)
    root = next(u for u in hang if v in td.tree.nbrs(u))

    def mutant(**changes):
        return dataclasses.replace(td, stars={**stars, **changes.get("stars", {})}, K=changes.get("K", td.K))

    yield mutant(K=len(hang) - 1)
    yield mutant(stars={v: hang + (v,)})
    yield mutant(stars={v: hang + (hang[0],)})
    yield mutant(stars={v: hang + tuple(u for u in t0[:2] if u != v)[:1]})
    yield mutant(stars={v: tuple(u for u in hang if u != root)})
    if outside is not None:
        yield dataclasses.replace(td, stars={outside if a == v else a: h for a, h in stars.items()})
    if other is not None:
        yield mutant(stars={v: hang + stars[other]})
        yield mutant(stars={v: hang[:-1], other: stars[other] + hang[-1:]})
        yield mutant(stars={other: stars[other] + hang[:1]})


class TestDump:
    def test_json_round_readable(self):
        tree = gen_random_tree(300, 3, "uniform", np.random.default_rng(4))
        td = decompose(tree, 0, schedule(300))
        doc = json.loads(td.to_json())
        assert doc["n"] == 300
        assert sorted(doc["t0"]) == td.t0.tolist()
        assert set(map(int, doc["stars"])) <= set(td.t0.tolist())

    def test_dump_deterministic(self):
        tree = gen_random_tree(300, 3, "uniform", np.random.default_rng(4))
        a = decompose(tree, 0, schedule(300)).to_json()
        b = decompose(tree, 0, schedule(300)).to_json()
        assert a == b

    def test_golden_file(self):
        from pathlib import Path

        tree = gen_random_tree(60, 2, "path", np.random.default_rng(12))
        params = ParamSchedule(alpha=0.25, eta=0.1, k=8, K=30, strip_eps=0.02)
        td = decompose(tree, 0, params)
        golden = Path(__file__).parent / "data" / "decomposition_golden.json"
        assert td.to_json() + "\n" == golden.read_text()


class TestDecompositionPinned:
    """`decompose(...).to_json()` at n in {300, 800, 2000}, pinned to sha256 digests of an earlier version.

    One tree per family and size (seed n + 7; stars get the semidegree they
    need), decomposed at anchors n // 3 and n - 1 under spanning_defaults(n, 0.25).
    Every piece, star, leftover and layer feeds the embedding's random draws.
    Uniform and star trees keep no piece here; the other families keep 1 to 7.
    """

    DIGESTS = {
        ("uniform", 300): "a7a4dcf8743828d85908d41effc4ace4cedd41e11e8fd1cd8e599e395dd6fd8a",
        ("uniform", 800): "412a85ff874cddef4266a0e3f4281a39beea4dd58eb34b35fc97d6a4197d019b",
        ("uniform", 2000): "3d74690d1ad3310aaca908b6f016ba034d736f73a35e893ca12c8a3e0f17ca12",
        ("path", 300): "c7155af92848e3887052325f580faba341efcf2c60b21cba0aae39b44bc72dca",
        ("path", 800): "4dd96ff20a8d8f1aa74333d1d666da6c0b8207b50e772e82d412ceb559f1f57b",
        ("path", 2000): "02af69911a9876259391b1b9d4b9cf18b15336cd99d182d002fa5026b3c27706",
        ("star", 300): "424bb8689f0212b37c4bc0480010593905145635dad6e9e20a3046d375d28fe7",
        ("star", 800): "87e7737f367bd34f6bea8a30c3cee2365ff912a4cb09502f20538e760ccfe44f",
        ("star", 2000): "71902b43fefb6d008e9c7c16db1a7bf6b24886cf23c6566cd888a24ef68b1940",
        ("caterpillar", 300): "e4e8d1709c34ed94b4cf3d1d1c94a3c98c21237514b4269eb1dd0f1bd6e3a041",
        ("caterpillar", 800): "8ebda1b133566c54e554d5239547e812a22b81073377fb55b335c61b9d42ff5e",
        ("caterpillar", 2000): "fcc5556dc2f4d73420f2a4cda97de63566facf737ead5c5934ddd83bdf34207e",
        ("spider", 300): "4da6063ed147d6d58305ccaeea1d12fc7f8b51b34bde7372e48d75a108bb0281",
        ("spider", 800): "0aabe4f9a712ebb826c70b22df22d0612d4f9a62df5a6bb9e0332a77746a19af",
        ("spider", 2000): "3177193c5f8102669e68c9d11608d7aa8e53d14992ce03e0cdb98f84d80a0e79",
        ("broom", 300): "15d2dfad84289d34872174e337f2739ae80805ebb64dd6edf04fa26415dd83ef",
        ("broom", 800): "6982a273184973a9481de96efaed912e4e7d64830564dc17786056b1179b1c03",
        ("broom", 2000): "881e3a5c2dc0f4e5d6587e8273c47be6672ae53f71733dac58250e60070ebf0b",
    }

    def test_every_family_is_pinned(self):
        assert sorted({family for family, _n in self.DIGESTS}) == sorted(FAMILIES)

    @pytest.mark.parametrize("family,n", sorted(DIGESTS))
    def test_decomposition_digest(self, family, n):
        tree = gen_random_tree(n, max(3, n - 1) if family == "star" else 3, family, np.random.default_rng(n + 7))
        h = hashlib.sha256()
        for t in (n // 3, n - 1):
            try:
                doc = decompose(tree, t, spanning_defaults(n, 0.25)).to_json()
            except DecompositionError as exc:
                doc = f"DecompositionError: {exc}"
            h.update(doc.encode())
        assert h.hexdigest() == self.DIGESTS[family, n]
