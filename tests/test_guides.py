import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spantree import guides
from spantree.digraph import Digraph, SIGNS, Sign, gen_semidegree_digraph, sample_disjoint_subsets
from spantree.embedder import embed_core_with_leaf_sets
from spantree.embedding import is_valid_embedding
from spantree.guides import (
    GUIDE_ETA,
    GUIDE_EPS,
    GuideBuildError,
    GuideEntry,
    GuideRestrictError,
    GuideSystem,
    PackedGuide,
    XYLabeling,
    _mutual_counts,
    build_guide,
    build_xy_labeling,
)
from spantree.trees import OrientedTree

from helpers import complete, labeling_verifies
from test_lasvegas import tight_host
from test_matching import skew_bounded


def two_dense_halves(n):
    """Two complete halves with no edges between them: semidegree < n/2."""
    mat = np.zeros((n, n), dtype=bool)
    h = n // 2
    mat[:h, :h] = True
    mat[h:, h:] = True
    np.fill_diagonal(mat, False)
    return Digraph(n, mat)


class TestXYLabeling:
    def test_complete_identity(self):
        d = complete(20)
        lab = build_xy_labeling(d, 0, Sign.PLUS, 0.2)
        assert (lab.xs == lab.ys).all()
        assert labeling_verifies(d, lab)

    def test_generated_all_intersections_large(self):
        rng = np.random.default_rng(2)
        d = gen_semidegree_digraph(400, 0.25, rng)
        lab = build_xy_labeling(d, 11, Sign.MINUS, 0.25)
        assert lab.threshold == math.ceil(0.25**2 * 400)
        base = d.adj_row(11, Sign.MINUS)
        for x, y in zip(lab.xs, lab.ys):
            assert (d.mat[:, x] & base & d.mat[y]).sum() >= lab.threshold

    def test_split_host_reports_violation(self):
        d = two_dense_halves(40)
        with pytest.raises(GuideBuildError):
            build_xy_labeling(d, 0, Sign.PLUS, 0.25)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 41), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_popcount_counts_equal_the_masked_row_sums(self, n, p, seed):
        rng = np.random.default_rng(seed)
        mat = rng.random((n, n)) < p
        np.fill_diagonal(mat, False)
        d = Digraph(n, mat)
        base = rng.random(n) < 0.7
        assert _mutual_counts(d, base).tolist() == (d.mutual & base).sum(axis=1).tolist()

    def test_refused_shortcut_runs_the_matching(self):
        # Vertices 8.. have only the 8 mutual arcs to 0..7, below the threshold 10.
        d = _few_mutual_rows_host()
        base = d.adj_row(0, Sign.PLUS)
        assert _mutual_counts(d, base).min() < math.ceil(0.5**2 * 40)
        lab = build_xy_labeling(d, 0, Sign.PLUS, 0.5)
        assert (lab.xs == np.arange(40)).all() and (lab.ys != lab.xs).any()
        assert sorted(lab.ys.tolist()) == list(range(40))
        assert labeling_verifies(d, lab)
        # Recorded before the matching took bool matrices: the same partners.
        assert lab.ys.tolist() == list(range(8)) + [v ^ 1 for v in range(8, 40)]

    def test_unmatched_auxiliary_graph_names_the_violator_size(self):
        # Hosts 30 and 33 have no in-arcs, so their auxiliary rows are empty.
        d = _few_mutual_rows_host()
        mat = d.mat.copy()
        mat[:, [30, 33]] = False
        with pytest.raises(GuideBuildError) as info:
            build_xy_labeling(Digraph(40, mat), 0, Sign.PLUS, 0.5)
        assert str(info.value) == (
            "no xy-labeling for v=0, sign=+: semidegree hypothesis violated (Hall violator of size 2)"
        )
        assert str(info.value.__cause__) == (
            "xy-labeling auxiliary graph: no matching covering the left class "
            "(violator size 2, neighborhood 0)"
        )
        assert info.value.__cause__.violator.tolist() == [30, 33]


class TestBuildGuide:
    def test_exact_counts_and_skew(self):
        rng = np.random.default_rng(7)
        d = gen_semidegree_digraph(500, 0.3, rng)
        eps, eta, mu = 0.02, 0.5, 0.04
        entry = build_guide(d, 5, Sign.PLUS, eps, eta, mu, alpha=0.3)
        size, per_row = math.ceil(mu * 500), math.ceil(eps * 500)
        assert len(entry.guide) == size
        assert int(entry.hplus.sum()) == size * per_row
        assert int(entry.hminus.sum()) == size * per_row
        bound = math.ceil((1 + eta) * mu * eps * 500)
        for circ in SIGNS:
            assert skew_bounded(entry.h(circ), per_row, bound)

    def test_guide_set_inside_neighborhood(self):
        rng = np.random.default_rng(8)
        d = gen_semidegree_digraph(300, 0.25, rng)
        entry = build_guide(d, 17, Sign.MINUS, 0.05, 0.5, 0.05, alpha=0.25)
        base = d.adj_row(17, Sign.MINUS)
        assert base[entry.guide].all()

    def test_single_round(self):
        d = complete(60)
        entry = build_guide(d, 0, Sign.PLUS, 0.1, 0.5, 1 / 60, alpha=0.4)
        assert len(entry.guide) == 1
        assert int(entry.hplus.sum()) == math.ceil(0.1 * 60)

    def test_edges_are_host_edges(self):
        rng = np.random.default_rng(9)
        d = gen_semidegree_digraph(200, 0.2, rng)
        entry = build_guide(d, 3, Sign.PLUS, 0.06, 0.5, 0.06, alpha=0.2)
        rows, xs = np.nonzero(entry.hplus)
        assert d.mat[entry.guide[rows], xs].all()
        rows, ys = np.nonzero(entry.hminus)
        assert d.mat[ys, entry.guide[rows]].all()

    @pytest.mark.parametrize("sign", SIGNS)
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_mirror_degrees_agree(self, sign, shuffled):
        # d^-_{H+}(x_j) == d^+_{H-}(y_j) for every labeling index j.
        d = gen_semidegree_digraph(150, 0.24, np.random.default_rng(6))
        rng = np.random.default_rng(7)
        if shuffled:
            lab = XYLabeling(9, sign, rng.permutation(150), rng.permutation(150), 1)
        else:
            lab = build_xy_labeling(d, 9, sign, 0.24)
            assert (lab.xs == np.arange(150)).all() and (lab.ys == lab.xs).all()
        entry = build_guide(d, 9, sign, 0.05, 0.1, 0.2, alpha=0.24, labeling=lab)
        plus_back, minus_back = entry.hplus.sum(axis=0), entry.hminus.sum(axis=0)
        assert plus_back.sum() == minus_back.sum() == len(entry.guide) * entry.edges_per_row
        assert (plus_back[lab.xs] == minus_back[lab.ys]).all()

    def test_identity_build_allocates_nothing_quadratic(self):
        # The labeling and the guide loop read the host's cached mutual-arc
        # fields, so the peak is O(n^2/8 + size*n): the packed popcount
        # copy, then a dozen length-n vectors and the size x n guide graphs.
        # An n x n bool mask alone would be n^2 bytes.
        n = 600
        d = complete(n)
        d.mutual_colsum, d.mutual_packed  # warm the host's caches
        tracemalloc.start()
        try:
            entry = build_guide(d, 0, Sign.PLUS, 0.02, 0.5, 0.01, alpha=0.45)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(entry.guide) == 6
        assert peak < n * n / 4


def audit_every_row(system, entry, part):
    """Read every row of `entry` over `part`, both signs, through the system's audit."""
    for circ in SIGNS:
        system.rows([(entry, int(w)) for w in entry.guide], circ, part)


def graphs_replaced(monkeypatch, hplus, hminus):
    """Make `GuideSystem.get` build entries whose guide graphs are hplus(H), hminus(H)."""
    real = guides.build_guide

    def build(*args, **kw):
        entry = real(*args, **kw)
        return dataclasses.replace(entry, hplus=hplus(entry.hplus), hminus=hminus(entry.hplus))

    monkeypatch.setattr(guides, "build_guide", build)


class TestRestriction:
    def test_complete_host_always_succeeds(self):
        d = complete(120)
        rng = np.random.default_rng(0)
        v0, part = sample_disjoint_subsets(d, [40, 60], rng)
        system = GuideSystem(d, v0, [part], mu_count=12, eps=0.1, eta=1.0, alpha=0.45)
        for v, sign in [(0, Sign.PLUS), (0, Sign.MINUS)]:
            audit_every_row(system, system.get(v, sign), part)
        entry = system.get(0, Sign.PLUS)
        assert len(entry.guide) == 12

    def test_trimmed_size_exact(self):
        rng = np.random.default_rng(4)
        d = gen_semidegree_digraph(300, 0.3, rng)
        v0, part = sample_disjoint_subsets(d, [90, 150], rng)
        system = GuideSystem(d, v0, [part], mu_count=15, eps=0.08, eta=1.0, alpha=0.3)
        entry = system.get(4, Sign.PLUS)
        assert len(entry.guide) == 15
        in_v0 = np.zeros(300, dtype=bool)
        in_v0[v0] = True
        assert in_v0[entry.guide].all()

    def test_direct_mode_builds_inside_v0(self):
        rng = np.random.default_rng(5)
        d = gen_semidegree_digraph(300, 0.3, rng)
        v0, part = sample_disjoint_subsets(d, [100, 120], rng)
        system = GuideSystem(d, v0, [part], mu_count=20, eps=0.12, eta=1.0, alpha=0.3)
        entry = system.get(9, Sign.MINUS)
        assert len(entry.guide) == 20
        in_v0 = np.zeros(300, dtype=bool)
        in_v0[v0] = True
        assert in_v0[entry.guide].all()
        base = d.adj_row(9, Sign.MINUS)
        assert base[entry.guide].all()

    def test_monte_carlo_restriction(self):
        # Restriction with linear parts passes on most samples, every row audited.
        rng = np.random.default_rng(11)
        d = gen_semidegree_digraph(300, 0.25, rng)
        good = 0
        for _ in range(20):
            v0, part = sample_disjoint_subsets(d, [90, 150], rng)
            try:
                system = GuideSystem(d, v0, [part], mu_count=18, eps=0.1, eta=1.0, alpha=0.25)
                for v, sign in [(5, Sign.PLUS), (5, Sign.MINUS)]:
                    audit_every_row(system, system.get(v, sign), part)
                good += 1
            except GuideRestrictError:
                pass
        assert good >= 17

    @staticmethod
    def _balanced_entry(n=100, rows=30, per_row=40, v=3):
        """Guide rows of `per_row` consecutive hosts (mod n): every back-degree is rows*per_row/n.

        The system's eps gives the same `per_row`, and its eta keeps the
        nominal cap (1 + eta) eps |A| = 18 below the 3-sigma one.
        """
        h = np.zeros((rows, n), dtype=bool)
        for i in range(rows):
            h[i, (i * per_row + np.arange(per_row)) % n] = True
        entry = GuideEntry(v, Sign.PLUS, np.arange(rows, dtype=np.int64), h, h.copy(), per_row)
        system = GuideSystem(complete(n), np.arange(n), [np.arange(n)], mu_count=rows,
                             eps=per_row / n, eta=0.5)
        return entry, system

    @staticmethod
    def _read(system, entry, circ, hosts=None):
        packed = PackedGuide.of(entry)
        hosts = entry.guide if hosts is None else hosts
        return system.rows([(packed, int(w)) for w in hosts], circ, system.parts[0])

    def test_balanced_entry_passes_the_audits(self):
        # Row quota ceil(40 - 3 sqrt(40)) = 22 <= 40; back cap ceil(12 + 3 sqrt(12)) = 23 >= 12.
        entry, system = self._balanced_entry()
        for circ in SIGNS:
            rows = self._read(system, entry, circ)
            assert rows.shape == (30, 100) and (rows == entry.h(circ)).all()

    def test_a_thin_row_fails_q2(self):
        entry, system = self._balanced_entry()
        entry.hplus[7, 20:] = False   # keeps hosts 0..19: 20 edges, below the quota of 22
        with pytest.raises(GuideRestrictError) as info:
            self._read(system, entry, Sign.PLUS)
        assert "('Q2', 3, '+', '+', 7, 20, 22)" in str(info.value)
        assert "Q3" not in str(info.value)

    def test_a_crowded_column_fails_q3(self):
        entry, system = self._balanced_entry()
        entry.hminus[:, 55] = True    # back-degree 30 at host 55, above the cap of 23
        with pytest.raises(GuideRestrictError) as info:
            self._read(system, entry, Sign.MINUS)
        assert "('Q3', 3, '+', '-', 55, 30, 23)" in str(info.value)
        assert "Q2" not in str(info.value)

    def test_a_thin_row_that_no_leaf_reads_passes(self):
        entry, system = self._balanced_entry()
        entry.hplus[7, 20:] = False
        unread = [w for w in entry.guide if w != 7]
        assert self._read(system, entry, Sign.PLUS, unread).sum(axis=1).min() == 40
        self._read(system, entry, Sign.MINUS)   # row 7 of H^- is whole

    def test_q3_is_capped_per_entry(self):
        # Two entries with back-degree 12 at every host: 24 together, above the cap of 23.
        (first, system), (second, _) = self._balanced_entry(), self._balanced_entry(v=4)
        reads = [(PackedGuide.of(e), int(w)) for e in (first, second) for w in e.guide]
        assert system.rows(reads, Sign.PLUS, system.parts[0]).sum(axis=0).min() == 24

    def test_a_parent_with_two_leaves_counts_its_row_once(self, monkeypatch):
        # Core 0 -> 1..4, all four drawn from the anchor's entry, whose rows are full:
        # back-degree 4, at the cap max(ceil(0.4 * 4), ceil(0.8 + 3)) = 4.  Vertex 1
        # has two leaves; counting its row twice would give 5.
        graphs_replaced(monkeypatch, np.ones_like, np.ones_like)
        d = complete(30)
        edges = [(0, c) for c in range(1, 5)] + [(1, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
        tree = OrientedTree(10, edges, t=0)
        v0, part = np.arange(0, 10), np.arange(10, 20)
        system = GuideSystem(d, v0, [part], mu_count=4, eps=0.2, eta=1.0, alpha=0.45)
        emb = embed_core_with_leaf_sets(d, tree, set(range(5)), [(list(range(5, 10)), Sign.PLUS)],
                                        3, system, np.random.default_rng(0))
        assert is_valid_embedding(d, tree, emb)
        entry = system.get(3, Sign.PLUS)
        with pytest.raises(GuideRestrictError, match=r"'Q3', 3, '\+', '\+', 10, 5, 4"):
            system.rows([(entry, emb[c]) for c in (1, 1, 2, 3, 4)], Sign.PLUS, part)

    def test_thin_unread_rows_no_longer_refuse_the_draw(self, monkeypatch):
        # Every H^- row is empty, and the one part is read along H^+, so the
        # draw embeds; auditing every row of every entry, per part and sign,
        # would refuse it on Q2 (quota ceil(18 - 3 sqrt(18)) = 6).
        graphs_replaced(monkeypatch, lambda h: h, np.zeros_like)
        d = complete(100)
        tree = OrientedTree(3, [(0, 1), (1, 2)], t=0)
        v0, part = np.arange(0, 40), np.arange(40, 100)
        system = GuideSystem(d, v0, [part], mu_count=6, eps=0.3, eta=1.0, alpha=0.45)
        emb = embed_core_with_leaf_sets(d, tree, {0, 1}, [([2], Sign.PLUS)], 3, system,
                                        np.random.default_rng(0))
        assert is_valid_embedding(d, tree, emb) and emb[2] >= 40
        with pytest.raises(GuideRestrictError, match=r"'Q2', 3, '\+', '-', \d+, 0, 6"):
            audit_every_row(system, system.get(3, Sign.PLUS), part)


class TestPackedEntries:
    @pytest.mark.parametrize("sign", SIGNS)
    def test_system_rows_are_the_built_rows(self, sign):
        # n = 203 is not a multiple of 8: the last byte of each packed row pads.
        n = 203
        d = gen_semidegree_digraph(n, 0.3, np.random.default_rng(8))
        v0, part = sample_disjoint_subsets(d, [70, 100], np.random.default_rng(9))
        system = GuideSystem(d, v0, [part], mu_count=12, eps=0.1, eta=1.0, alpha=0.3)
        entry = system.get(5, sign)
        built = build_guide(d, 5, sign, 0.1, 1.0, 12 / n, alpha=0.3, v0_mask=system.v0_mask, size=12)
        assert isinstance(entry, PackedGuide) and (entry.guide == built.guide).all()
        assert entry._hplus.dtype == np.uint8 and entry._hplus.shape == (12, (n + 7) // 8)
        assert entry._hminus is entry._hplus and not entry._hplus.flags.writeable
        for i, w in enumerate(built.guide):
            for circ in SIGNS:
                row = entry.row(w, circ)
                assert row.dtype == np.bool_ and row.shape == (n,)
                assert (row == built.h(circ)[i]).all()

    def test_packed_shuffled_entry_keeps_both_graphs(self):
        d = gen_semidegree_digraph(150, 0.24, np.random.default_rng(6))
        rng = np.random.default_rng(7)
        lab = XYLabeling(9, Sign.MINUS, rng.permutation(150), rng.permutation(150), 1)
        entry = build_guide(d, 9, Sign.MINUS, 0.05, 0.1, 0.2, alpha=0.24, labeling=lab)
        packed = PackedGuide.of(entry)
        assert packed._hminus is not packed._hplus and not packed._hminus.flags.writeable
        for i, w in enumerate(entry.guide):
            for circ in SIGNS:
                assert (packed.row(w, circ) == entry.h(circ)[i]).all()


class TestGuideSystemCaching:
    def test_restriction_resets_trims(self):
        # Each restriction is its own system; a system caches its entries.
        d = complete(80)
        rng = np.random.default_rng(1)
        v0a, pa = sample_disjoint_subsets(d, [30, 40], rng)
        system = GuideSystem(d, v0a, [pa], mu_count=8, eps=0.1, eta=1.0, alpha=0.4)
        first = system.get(2, Sign.PLUS)
        assert system.get(2, Sign.PLUS) is first
        v0b, pb = sample_disjoint_subsets(d, [30, 40], rng)
        second = GuideSystem(d, v0b, [pb], mu_count=8, eps=0.1, eta=1.0, alpha=0.4).get(2, Sign.PLUS)
        in_v0b = np.zeros(80, dtype=bool)
        in_v0b[v0b] = True
        assert in_v0b[second.guide].all()
        assert first is not second


def _reference_build_guide(d, v, sign, eps, eta, mu, alpha, labeling=None, v0_mask=None, size=None):
    """The full-recount guide loop, kept as the oracle for build_guide.

    Every round recounts the coverage over all light labeling indices and
    gathers the triple-intersection matrix from the labeling; returns
    (guide, hplus, hminus) without the postcondition audit.
    """
    n = d.n
    if size is None:
        size = max(1, math.ceil(mu * n))
    per_row = max(1, math.ceil(eps * n))
    mean_back = size * per_row / n
    grow_bound = (1 + eta / 2) * mean_back
    if labeling is None:
        labeling = build_xy_labeling(d, v, sign, alpha)
    base = d.adj_row(v, sign)
    if v0_mask is not None:
        base = base & v0_mask
    wmat = d.mat[:, labeling.xs].T & base[None, :] & d.mat[labeling.ys, :]
    mirror = np.zeros(n, dtype=np.int64)
    in_guide = np.zeros(n, dtype=bool)
    guide = []
    hplus = np.zeros((size, n), dtype=bool)
    hminus = np.zeros((size, n), dtype=bool)
    sign_bit = 1 if sign is Sign.PLUS else 2
    spread_rank = np.argsort(np.random.default_rng((0x5EED, n, v, sign_bit)).permutation(n))
    for i in range(size):
        light = np.flatnonzero(mirror <= grow_bound)
        if len(light) < eta * n / 4:
            raise GuideBuildError(
                f"round {i}: only {len(light)} light labeling indices "
                f"(need {eta * n / 4:.1f}); schedule too aggressive"
            )
        coverage = wmat[light].sum(axis=0)
        coverage[in_guide] = -1
        coverage[~base] = -1
        w = int(np.argmax(coverage))
        if coverage[w] < per_row:
            raise GuideBuildError(
                f"round {i}: best coverage {int(coverage[w])} below {per_row}; "
                "schedule too aggressive for this host"
            )
        covered = light[wmat[light, w]]
        chosen = covered[np.lexsort((spread_rank[covered], mirror[covered]))[:per_row]]
        hplus[i, labeling.xs[chosen]] = True
        hminus[i, labeling.ys[chosen]] = True
        mirror[chosen] += 1
        in_guide[w] = True
        guide.append(w)
    return np.array(guide, dtype=np.int64), hplus, hminus


def _few_mutual_rows_host(n=40, rows=8):
    """A random tournament, except that pairs touching 0..rows-1 carry both arcs.

    Only those rows have 2-cycles into most columns, so guide rounds pile
    their edges on them and labeling indices turn heavy early.
    """
    upper = np.triu(np.random.default_rng(1).random((n, n)) < 0.5, 1)
    mat = upper | np.triu(~upper, 1).T
    mat[:rows, :] = True
    mat[:, :rows] = True
    np.fill_diagonal(mat, False)
    return Digraph(n, mat)


class TestBuildGuideMatchesReference:
    """The incremental coverage loop draws exactly what the full recount draws."""

    def assert_same(self, d, v, sign, eps, eta, mu, alpha, **kw):
        entry = build_guide(d, v, sign, eps, eta, mu, alpha=alpha, **kw)
        guide, hplus, hminus = _reference_build_guide(d, v, sign, eps, eta, mu, alpha, **kw)
        assert entry.guide.tolist() == guide.tolist()
        assert (entry.hplus == hplus).all() and (entry.hminus == hminus).all()
        return entry

    def test_identity_labeling(self):
        d = gen_semidegree_digraph(200, 0.24, np.random.default_rng(5))
        lab = build_xy_labeling(d, 3, Sign.MINUS, 0.24)
        assert (lab.xs == np.arange(200)).all() and (lab.ys == np.arange(200)).all()
        entry = self.assert_same(d, 3, Sign.MINUS, 0.05, 0.1, 0.2, 0.24)
        # Some labeling indices passed the growth bound, so coverage rows were subtracted.
        grow_bound = (1 + 0.1 / 2) * len(entry.guide) * entry.edges_per_row / 200
        assert (entry.hplus.sum(axis=0) > grow_bound).any()

    def test_shuffled_labeling_takes_the_general_gather(self):
        d = gen_semidegree_digraph(150, 0.24, np.random.default_rng(6))
        rng = np.random.default_rng(7)
        lab = XYLabeling(9, Sign.PLUS, rng.permutation(150), rng.permutation(150), 1)
        self.assert_same(d, 9, Sign.PLUS, 0.05, 0.1, 0.2, 0.24, labeling=lab)

    def test_direct_mode_v0_mask(self):
        d = gen_semidegree_digraph(160, 0.24, np.random.default_rng(8))
        mask = np.zeros(160, dtype=bool)
        mask[np.random.default_rng(9).permutation(160)[:60]] = True
        entry = self.assert_same(d, 4, Sign.PLUS, 0.05, 0.1, 0.2, 0.24, v0_mask=mask, size=15)
        assert mask[entry.guide].all()

    def test_heavy_rows_on_a_skewed_host(self):
        self.assert_same(_few_mutual_rows_host(), 0, Sign.PLUS, 0.1, 3.0, 0.3, 0.01)

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("sign", SIGNS)
    def test_identity_labeling_off_the_byte_boundary(self, sign, masked):
        n = 203
        d = gen_semidegree_digraph(n, 0.24, np.random.default_rng(10))
        lab = build_xy_labeling(d, 7, sign, 0.24)
        assert (lab.xs == np.arange(n)).all() and (lab.ys == np.arange(n)).all()
        kw = {}
        if masked:
            mask = np.zeros(n, dtype=bool)
            mask[np.random.default_rng(11).permutation(n)[:70]] = True
            kw = {"v0_mask": mask, "size": 17}
        entry = self.assert_same(d, 7, sign, 0.05, 0.1, 0.2, 0.24, **kw)
        grow_bound = (1 + 0.1 / 2) * len(entry.guide) * entry.edges_per_row / n
        assert (entry.hplus.sum(axis=0) > grow_bound).any()

    @pytest.mark.parametrize(
        "eps, eta, mu, message",
        [
            (0.05, 3.9, 0.5, "round 16: only 37 light labeling indices (need 39.0)"),
            (0.1, 2.0, 0.5, "round 15: best coverage 1 below 4"),
            (0.3, 8.0, 0.3, "round 0: only 40 light labeling indices (need 80.0)"),
        ],
    )
    def test_same_failure_in_the_same_round(self, eps, eta, mu, message):
        d = _few_mutual_rows_host()
        with pytest.raises(GuideBuildError) as new:
            build_guide(d, 0, Sign.PLUS, eps, eta, mu, alpha=0.01)
        with pytest.raises(GuideBuildError) as ref:
            _reference_build_guide(d, 0, Sign.PLUS, eps, eta, mu, 0.01)
        assert str(new.value) == str(ref.value)
        assert str(new.value).startswith(message)


def _first_heavy_round(hplus, grow_bound):
    """First round after which some column's back-degree in H^+ passes the growth bound, else None."""
    over = (hplus.cumsum(axis=0) > grow_bound).any(axis=1)
    return int(np.argmax(over)) if over.any() else None


@st.composite
def _guide_cases(draw):
    """A small host, (v, sign), schedule and labeling for build_guide against its oracle."""
    kind = draw(st.sampled_from(["complete", "random", "few-mutual"]))
    n = draw(st.integers(8, 120))
    if kind == "complete":
        d = complete(n)
    elif kind == "random":
        p = draw(st.floats(0.6, 1.0))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        mat = rng.random((n, n)) < p
        np.fill_diagonal(mat, False)
        d = Digraph(n, mat)
    else:
        d = _few_mutual_rows_host(n, draw(st.integers(1, n // 3)))
    v = draw(st.integers(0, n - 1))
    sign = draw(st.sampled_from(SIGNS))
    eps = draw(st.floats(0.02, 0.3))
    eta = draw(st.floats(0.0, 4.0))
    mu = draw(st.floats(0.02, 0.5))
    kw = {}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labeling = draw(st.sampled_from(["identity", "shuffled", "built"]))
    if labeling == "identity":
        kw["labeling"] = XYLabeling(v, sign, np.arange(n), np.arange(n), 1)
    elif labeling == "shuffled":
        kw["labeling"] = XYLabeling(v, sign, rng.permutation(n), rng.permutation(n), 1)
    if draw(st.booleans()):
        kw["v0_mask"] = rng.random(n) < draw(st.floats(0.2, 1.0))
        base = d.adj_row(v, sign) & kw["v0_mask"]
        kw["size"] = draw(st.integers(1, max(1, int(base.sum()) + 1)))
    return d, v, sign, eps, eta, mu, kw


class TestGuideBuildPinned:
    """build_guide draws exactly the oracle's guide sets, H rows and failures on small hosts."""

    def test_matches_the_reference_build(self):
        heavy_rounds = []

        # A host where labeling indices pass the growth bound in round 3 of 12.
        @example((_few_mutual_rows_host(), 0, Sign.PLUS, 0.1, 3.0, 0.3, {}))
        @settings(max_examples=200, deadline=None, derandomize=True)
        @given(_guide_cases())
        def check(case):
            d, v, sign, eps, eta, mu, kw = case
            base = d.adj_row(v, sign) & kw.get("v0_mask", True)
            if kw.get("size", max(1, math.ceil(mu * d.n))) > base.sum():
                with pytest.raises(GuideBuildError, match="guide target"):
                    build_guide(d, v, sign, eps, eta, mu, alpha=0.01, **kw)
                return
            try:
                guide, hplus, hminus = _reference_build_guide(d, v, sign, eps, eta, mu, 0.01, **kw)
            except GuideBuildError as ref:
                with pytest.raises(GuideBuildError) as new:
                    build_guide(d, v, sign, eps, eta, mu, alpha=0.01, **kw)
                assert str(new.value) == str(ref)
                return
            entry = build_guide(d, v, sign, eps, eta, mu, alpha=0.01, **kw)
            assert entry.guide.tolist() == guide.tolist()
            assert (entry.hplus == hplus).all() and (entry.hminus == hminus).all()
            grow_bound = (1 + eta / 2) * len(guide) * entry.edges_per_row / d.n
            heavy_rounds.append((_first_heavy_round(hplus, grow_bound), len(guide)))

        check()
        # Some builds turned indices heavy in a round that later rounds follow.
        assert any(r is not None and 0 < r < rounds - 1 for r, rounds in heavy_rounds)
        assert any(r is None for r, _rounds in heavy_rounds)

    def test_guide_target_beyond_the_neighbourhood(self):
        d = complete(30)
        mask = np.zeros(30, dtype=bool)
        mask[:10] = True
        with pytest.raises(GuideBuildError, match=r"guide target 11 exceeds \|N\^\+\(v\) cap V0\| = 9 for v=0"):
            build_guide(d, 0, Sign.PLUS, 0.1, 1.0, 0.2, alpha=0.4, v0_mask=mask, size=11)

    @pytest.mark.parametrize("sign", SIGNS)
    def test_mutual_union_bound_never_overrides_the_popcount(self, sign):
        # |mutual[i] cap base| >= |base| - (n - |mutual[i]|): where the bound
        # reaches the threshold, so does the exact count.
        hosts = [complete(50), _few_mutual_rows_host(), _few_mutual_rows_host(64, 20)]
        for seed, p in [(1, 0.97), (2, 0.9), (3, 0.75)]:
            mat = np.random.default_rng(seed).random((90, 90)) < p
            np.fill_diagonal(mat, False)
            hosts.append(Digraph(90, mat))
        for d in hosts:
            for v in range(0, d.n, 7):
                base = d.adj_row(v, sign)
                exact = _mutual_counts(d, base)
                assert (exact >= int(base.sum()) - d.n + d.mutual_colsum).all()
                for alpha in (0.05, 0.2, 0.35, 0.5):
                    threshold = max(1, math.ceil(alpha * alpha * d.n))
                    try:
                        lab = build_xy_labeling(d, v, sign, alpha)
                    except GuideBuildError:
                        assert exact.min() < threshold
                        continue
                    identity = (lab.ys == np.arange(d.n)).all()
                    assert identity == (exact.min() >= threshold)
                    assert labeling_verifies(d, lab)

    def test_few_mutual_rows_fall_through_to_the_matching(self):
        d = _few_mutual_rows_host()
        base = d.adj_row(0, Sign.PLUS)
        threshold = math.ceil(0.5**2 * 40)
        assert int(base.sum()) - 40 + int(d.mutual_colsum.min()) < threshold
        lab = build_xy_labeling(d, 0, Sign.PLUS, 0.5)
        assert (lab.ys != lab.xs).any() and labeling_verifies(d, lab)

    @pytest.mark.parametrize("sign", SIGNS)
    def test_identity_rows_mirror_and_shuffled_rows_differ(self, sign):
        d = gen_semidegree_digraph(150, 0.24, np.random.default_rng(6))
        entry = build_guide(d, 9, sign, 0.05, 0.1, 0.2, alpha=0.24)
        assert (entry.hplus == entry.hminus).all()
        rng = np.random.default_rng(7)
        lab = XYLabeling(9, sign, rng.permutation(150), rng.permutation(150), 1)
        shuffled = build_guide(d, 9, sign, 0.05, 0.1, 0.2, alpha=0.24, labeling=lab)
        assert shuffled.hplus is not shuffled.hminus
        assert (shuffled.hplus != shuffled.hminus).any()

    def test_identity_entry_shares_one_read_only_h(self):
        d = gen_semidegree_digraph(150, 0.24, np.random.default_rng(6))
        entry = build_guide(d, 9, Sign.PLUS, 0.05, 0.1, 0.2, alpha=0.24)
        assert entry.hminus is entry.hplus and not entry.hplus.flags.writeable
        rng = np.random.default_rng(7)
        lab = XYLabeling(9, Sign.PLUS, rng.permutation(150), rng.permutation(150), 1)
        shuffled = build_guide(d, 9, Sign.PLUS, 0.05, 0.1, 0.2, alpha=0.24, labeling=lab)
        assert not shuffled.hplus.flags.writeable and not shuffled.hminus.flags.writeable


@st.composite
def _part_free_cases(draw):
    """A `_guide_cases` case with eta from 0 to 5, on its own host or a tight or dense one of that size."""
    d, v, sign, eps, _eta, mu, kw = draw(_guide_cases())
    host = draw(st.sampled_from(["drawn", "tight", "dense"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if host == "tight":
        d = tight_host(d.n, draw(st.floats(0.05, 0.3)), rng)
    elif host == "dense":
        mat = rng.random((d.n, d.n)) < draw(st.floats(0.9, 1.0))
        np.fill_diagonal(mat, False)
        d = Digraph(d.n, mat)
    return d, v, sign, eps, draw(st.floats(0.0, 5.0)), mu, kw


class TestCertifiedGuideSets:
    """build_guide(graphs=False) skips the rounds only where they would leave the queue as it is."""

    def test_matches_the_reference_build(self):
        routes = Counter()

        @example((_few_mutual_rows_host(), 0, Sign.PLUS, 0.1, 3.0, 0.3, {}))
        @settings(max_examples=400, deadline=None, derandomize=True)
        @given(_part_free_cases())
        def check(case):
            d, v, sign, eps, eta, mu, kw = case
            base = d.adj_row(v, sign) & kw.get("v0_mask", True)
            if kw.get("size", max(1, math.ceil(mu * d.n))) > base.sum():
                return
            try:
                guide, hplus, hminus = _reference_build_guide(d, v, sign, eps, eta, mu, 0.01, **kw)
            except GuideBuildError as ref:
                with pytest.raises(GuideBuildError) as new:
                    build_guide(d, v, sign, eps, eta, mu, alpha=0.01, graphs=False, **kw)
                assert str(new.value) == str(ref)
                routes["loop"] += 1
                return
            entry = build_guide(d, v, sign, eps, eta, mu, alpha=0.01, graphs=False, **kw)
            assert entry.guide.tolist() == guide.tolist()
            if entry.hplus is None:
                # Certified: the full rounds keep every index light.
                assert entry.hminus is None and eta <= 4
                grow_bound = (1 + eta / 2) * len(guide) * entry.edges_per_row / d.n
                assert max(hplus.sum(axis=0).max(), hminus.sum(axis=0).max()) <= math.floor(grow_bound)
                routes["shortcut"] += 1
            else:
                assert (entry.hplus == hplus).all() and (entry.hminus == hminus).all()
                routes["loop"] += 1

        check()
        assert routes["shortcut"] >= 40 and routes["loop"] >= 40

    def test_few_mutual_rows_and_eta_above_four_reach_the_loop(self):
        d = _few_mutual_rows_host()
        entry = build_guide(d, 0, Sign.PLUS, 0.1, 3.0, 0.3, alpha=0.01, graphs=False)
        assert entry.hplus is not None
        assert entry.guide.tolist() == build_guide(d, 0, Sign.PLUS, 0.1, 3.0, 0.3, alpha=0.01).guide.tolist()
        # On complete(60) the bound holds at eta = 4; above it every index is
        # light but too few for the light-count check, which round 0 reports.
        assert build_guide(complete(60), 0, Sign.PLUS, 0.1, 4.0, 0.1, alpha=0.4, graphs=False).hplus is None
        with pytest.raises(GuideBuildError, match=r"^round 0: only 60 light labeling indices \(need 67\.5\)"):
            build_guide(complete(60), 0, Sign.PLUS, 0.1, 4.5, 0.1, alpha=0.4, graphs=False)

    def test_a_short_column_reaches_the_loop(self):
        # Columns 8.. of this host are covered by the 8 mutual rows only,
        # below per_row = 10: the ninth round stops, as without the bound.
        d = _few_mutual_rows_host()
        with pytest.raises(GuideBuildError) as new:
            build_guide(d, 0, Sign.PLUS, 0.25, 1.0, 0.225, alpha=0.01, graphs=False)
        with pytest.raises(GuideBuildError) as ref:
            _reference_build_guide(d, 0, Sign.PLUS, 0.25, 1.0, 0.225, 0.01)
        assert str(new.value) == str(ref.value)
        assert "below 10" in str(new.value)


class TestPartFreeSystems:
    """A GuideSystem with no target parts: guide sets from the bound, no guide graphs."""

    @staticmethod
    def _scramble_sentinel(monkeypatch):
        """Record each seeding of the per-build scramble, which only the round loop draws."""
        seeded = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: seeded.append(a) or default_rng(*a))
        return seeded

    @pytest.mark.parametrize("host", ["complete", "p=0.98"])
    def test_no_round_loop_and_no_rows(self, host, monkeypatch):
        n = 200
        d = complete(n) if host == "complete" else gen_semidegree_digraph(n, 0.24, np.random.default_rng(3))
        v0 = np.random.default_rng(4).permutation(n)[:120]
        system = GuideSystem(d, v0, [], mu_count=40)
        probes = [(v, sign) for v in (0, 57, 199) for sign in SIGNS]
        seeded = self._scramble_sentinel(monkeypatch)
        entries = [system.get(v, sign) for v, sign in probes]
        assert seeded == []
        monkeypatch.undo()
        for (v, sign), entry in zip(probes, entries):
            assert entry._hplus is None and entry._hminus is None
            with pytest.raises(LookupError, match="without guide graphs"):
                entry.row(int(entry.guide[0]), Sign.PLUS)
            built = build_guide(d, v, sign, GUIDE_EPS, GUIDE_ETA, 40 / n, alpha=system.alpha,
                                v0_mask=system.v0_mask, size=40)
            assert entry.guide.tolist() == built.guide.tolist()

    def test_spider_sized_system_is_refused_by_the_bound(self, monkeypatch):
        # n = 37, per_row = 7: at size 14, floor(grow_bound) = 3 and the bound
        # reads 13 * 7 // 30 = 3, not below it; at size 13 it reads 2 < 3.
        d = complete(37)
        seeded = self._scramble_sentinel(monkeypatch)
        entry = GuideSystem(d, np.arange(37), [], mu_count=14).get(5, Sign.PLUS)
        assert len(seeded) == 1 and entry._hplus is not None
        assert entry.row(int(entry.guide[0]), Sign.PLUS).sum() == 7
        assert GuideSystem(d, np.arange(37), [], mu_count=13).get(5, Sign.PLUS)._hplus is None
        assert len(seeded) == 1
