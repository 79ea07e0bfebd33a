import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spantree.digraph import Digraph, SIGNS, Sign, gen_semidegree_digraph, sample_disjoint_subsets
from spantree.guides import (
    GuideBuildError,
    GuideEntry,
    GuideRestrictError,
    GuideSystem,
    RestrictionContext,
    XYLabeling,
    _audit_parts,
    _mutual_counts,
    build_guide,
    build_xy_labeling,
    restrict_guides,
)
from spantree.matching import is_skew_bounded


def complete(n):
    mat = np.ones((n, n), dtype=bool)
    np.fill_diagonal(mat, False)
    return Digraph(n, mat)


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
        assert lab.verify(d)

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
        assert lab.verify(d)


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
            assert is_skew_bounded(entry.pattern(circ), per_row, bound)

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


class TestRestriction:
    def test_complete_host_always_succeeds(self):
        d = complete(120)
        rng = np.random.default_rng(0)
        system = GuideSystem(d, eps=0.1, eta=1.0, alpha=0.45)
        v0, part = sample_disjoint_subsets(d, [40, 60], rng)
        restrict_guides(system, v0, [part], mu_count=12,
                        probe=[(0, Sign.PLUS), (0, Sign.MINUS)])
        entry = system.get(0, Sign.PLUS)
        assert len(entry.guide) == 12

    def test_trimmed_size_exact(self):
        rng = np.random.default_rng(4)
        d = gen_semidegree_digraph(300, 0.3, rng)
        system = GuideSystem(d, eps=0.08, eta=1.0, alpha=0.3)
        v0, part = sample_disjoint_subsets(d, [90, 150], rng)
        system.restrict(v0, [part], mu_count=15)
        entry = system.get(4, Sign.PLUS)
        assert len(entry.guide) == 15
        in_v0 = np.zeros(300, dtype=bool)
        in_v0[v0] = True
        assert in_v0[entry.guide].all()

    def test_direct_mode_builds_inside_v0(self):
        rng = np.random.default_rng(5)
        d = gen_semidegree_digraph(300, 0.3, rng)
        system = GuideSystem(d, eps=0.12, eta=1.0, alpha=0.3)
        v0, part = sample_disjoint_subsets(d, [100, 120], rng)
        system.restrict(v0, [part], mu_count=20)
        entry = system.get(9, Sign.MINUS)
        assert len(entry.guide) == 20
        in_v0 = np.zeros(300, dtype=bool)
        in_v0[v0] = True
        assert in_v0[entry.guide].all()
        base = d.adj_row(9, Sign.MINUS)
        assert base[entry.guide].all()

    def test_monte_carlo_restriction(self):
        # Restriction with linear parts passes on most samples.
        rng = np.random.default_rng(11)
        d = gen_semidegree_digraph(300, 0.25, rng)
        good = 0
        system = GuideSystem(d, eps=0.1, eta=1.0, alpha=0.25)
        for _ in range(20):
            v0, part = sample_disjoint_subsets(d, [90, 150], rng)
            try:
                restrict_guides(system, v0, [part], mu_count=18,
                                probe=[(5, Sign.PLUS), (5, Sign.MINUS)])
                good += 1
            except GuideRestrictError:
                pass
        assert good >= 17


    @staticmethod
    def _balanced_entry(n=100, rows=30, per_row=40):
        """Guide rows of `per_row` consecutive hosts (mod n): every back-degree is rows*per_row/n."""
        h = np.zeros((rows, n), dtype=bool)
        for i in range(rows):
            h[i, (i * per_row + np.arange(per_row)) % n] = True
        entry = GuideEntry(3, Sign.PLUS, np.arange(rows, dtype=np.int64), h, h.copy(), per_row)
        ctx = RestrictionContext(np.ones(n, dtype=bool), [np.arange(n, dtype=np.int64)],
                                 mu_count=rows, eps=0.01, eta=1.0)
        return entry, ctx

    def test_balanced_entry_passes_the_audits(self):
        # Row quota ceil(40 - 3 sqrt(40)) = 22 <= 40; back cap ceil(12 + 3 sqrt(12)) = 23 >= 12.
        entry, ctx = self._balanced_entry()
        _audit_parts(complete(100), entry, ctx)

    def test_a_thin_row_fails_q2(self):
        entry, ctx = self._balanced_entry()
        entry.hplus[7, 20:] = False   # keeps hosts 0..19: 20 edges, below the quota of 22
        with pytest.raises(GuideRestrictError) as info:
            _audit_parts(complete(100), entry, ctx)
        assert "('Q2', 3, '+', '+', 0, 20, 22)" in str(info.value)
        assert "Q3" not in str(info.value)

    def test_a_crowded_column_fails_q3(self):
        entry, ctx = self._balanced_entry()
        entry.hminus[:, 55] = True    # back-degree 30 at host 55, above the cap of 23
        with pytest.raises(GuideRestrictError) as info:
            _audit_parts(complete(100), entry, ctx)
        assert "('Q3', 3, '+', '-', 0, 30, 23)" in str(info.value)
        assert "Q2" not in str(info.value)

class TestGuideSystemCaching:
    def test_get_before_restrict_raises(self):
        system = GuideSystem(complete(40), eps=0.1, eta=1.0, alpha=0.4)
        with pytest.raises(ValueError, match="restrict"):
            system.get(3, Sign.PLUS)

    def test_restriction_resets_trims(self):
        d = complete(80)
        rng = np.random.default_rng(1)
        system = GuideSystem(d, eps=0.1, eta=1.0, alpha=0.4)
        v0a, pa = sample_disjoint_subsets(d, [30, 40], rng)
        system.restrict(v0a, [pa], mu_count=8)
        first = system.get(2, Sign.PLUS)
        v0b, pb = sample_disjoint_subsets(d, [30, 40], rng)
        system.restrict(v0b, [pb], mu_count=8)
        second = system.get(2, Sign.PLUS)
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
