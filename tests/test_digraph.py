import re

import numpy as np
import pytest

from spantree.digraph import (
    ROW_BLOCK,
    Digraph,
    Sign,
    check_inherited_degree,
    gen_semidegree_digraph,
    min_semidegree,
    sample_disjoint_subsets,
)

from spantree.draws import skip_doubles

from helpers import complete, plain_state


def three_cycle():
    return Digraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])


class TestMinSemidegree:
    def test_complete_on_four(self):
        assert min_semidegree(complete(4)) == 3

    def test_directed_triangle(self):
        assert min_semidegree(three_cycle()) == 1

    def test_isolated_vertex(self):
        d = Digraph.from_edges(4, [(0, 1), (1, 2), (2, 0)])
        assert min_semidegree(d) == 0


class TestRejections:
    @pytest.mark.parametrize("n,mat,message", [
        (0, np.zeros((0, 0), dtype=bool), "digraph needs at least one vertex"),
        (3, np.zeros((3, 2), dtype=bool), "adjacency matrix must be boolean n x n"),
        (3, np.zeros((3, 3), dtype=np.int8), "adjacency matrix must be boolean n x n"),
        (3, np.eye(3, dtype=bool), "self-loops are not allowed"),
    ])
    def test_constructor(self, n, mat, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Digraph(n, mat)

    def test_from_edges(self):
        with pytest.raises(ValueError, match=r"^self-loop at 2$"):
            Digraph.from_edges(3, [(0, 1), (2, 2)])
        for edge in ((0, 3), (-1, 0)):
            with pytest.raises(ValueError, match=r"^edge \(.*\) outside 0\.\.2$"):
                Digraph.from_edges(3, [edge])

    @pytest.mark.parametrize("edge, bad", [
        ((0, 2.0), 2.0), ((0, True), True), ((1.5, 2), 1.5), ((np.float64(1), 2), np.float64(1)),
        ((False, 1), False), ((np.bool_(True), 0), np.bool_(True)), (("1", 2), "1"),
    ])
    def test_from_edges_refuses_an_id_that_is_not_an_integer(self, edge, bad):
        # A float id used to reach numpy's IndexError, and (0, True) a misleading self-loop report.
        with pytest.raises(ValueError, match=rf"^vertex id {re.escape(repr(bad))} of edge .* is not an integer$"):
            Digraph.from_edges(3, [(0, 1), edge])

    def test_from_edges_takes_python_and_numpy_integers(self):
        d = Digraph.from_edges(3, [(np.int64(0), 2), (np.int32(2), np.uint8(1)), (1, np.int16(0))])
        assert d.edges() == [(0, 2), (1, 0), (2, 1)]

    @pytest.mark.parametrize("n,alpha,message", [
        (3, 0.25, "need n >= 4"),
        (10, 0.0, "need 0 < alpha < 1/2"),
        (10, 0.5, "need 0 < alpha < 1/2"),
    ])
    def test_generator(self, n, alpha, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            gen_semidegree_digraph(n, alpha, np.random.default_rng(0))


class TestSign:
    def test_two_values(self):
        assert len(list(Sign)) == 2


class TestGenerator:
    def test_semidegree_guarantee(self):
        rng = np.random.default_rng(1)
        d = gen_semidegree_digraph(100, 0.25, rng)
        assert min_semidegree(d) >= int(np.ceil(0.75 * 100))

    def test_low_alpha_guarantee(self):
        rng = np.random.default_rng(3)
        d = gen_semidegree_digraph(80, 0.05, rng)
        assert min_semidegree(d) >= int(np.ceil(0.55 * 80))

    def test_irreparable_reports(self):
        with pytest.raises(ValueError, match="irreparable"):
            gen_semidegree_digraph(4, 0.49, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [300, 1000])
    def test_row_blocks_draw_the_one_shot_stream(self, n):
        # n is no multiple of the 256-row block; at alpha = 0.2 the draw
        # already meets the target, so no repair arc is added.
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        d = gen_semidegree_digraph(n, 0.2, rng)
        want = ref.random((n, n)) < 0.9
        np.fill_diagonal(want, False)
        assert min(want.sum(axis=0).min(), want.sum(axis=1).min()) >= np.ceil(0.7 * n)
        assert (d.mat == want).all()
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("n,alpha,seed", [
        (50, 0.05, 0), (50, 0.1, 0), (301, 0.05, 0), (1000, 0.05, 3), (1000, 0.01, 0),
    ])
    def test_repair_matches_the_per_vertex_loop(self, n, alpha, seed):
        # Reference: the earlier repair, which visits every row and then
        # every column.  Each case needs repair arcs in both passes.
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        d = gen_semidegree_digraph(n, alpha, rng)
        target = int(np.ceil((0.5 + alpha) * n))
        mat = ref.random((n, n)) < min(1.0, 0.5 + 2 * alpha)
        np.fill_diagonal(mat, False)
        repaired = []
        for lines in (mat, mat.T):
            repaired.append(0)
            for v in range(n):
                line = lines[v]
                deficit = target - int(line.sum())
                if deficit > 0:
                    missing = np.flatnonzero(~line)
                    missing = missing[missing != v]
                    line[ref.choice(missing, size=deficit, replace=False)] = True
                    repaired[-1] += 1
        assert min(repaired) > 0
        assert (d.mat == mat).all()
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.PCG64DXSM], ids=lambda bg: bg.__name__)
    @pytest.mark.parametrize("pending_half", [False, True])
    @pytest.mark.parametrize("alpha", [0.25, 0.3, 0.49])
    @pytest.mark.parametrize("n", [8, 300, 1001])
    def test_complete_hosts_skip_the_draws(self, n, alpha, bit_generator, pending_half):
        # Edge probability 1: the host is built directly and the generator
        # jumps past the n^2 doubles, the pending 32-bit half kept.
        (want, want_state), (got, got_state) = (
            host_and_state(make, n, alpha, np.random.Generator(bit_generator(n)), pending_half)
            for make in (drawn_host, gen_semidegree_digraph))
        assert got == want and got_state == want_state
        assert (n, alpha) == (8, 0.49) or (want == complete(n).mat).all()

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64],
                             ids=lambda bg: bg.__name__)
    @pytest.mark.parametrize("pending_half", [False, True])
    def test_other_bit_generators_draw_complete_hosts(self, bit_generator, pending_half):
        # Philox's advance counts blocks, not outputs, and MT19937 and SFC64
        # have none: these draw every double, and agree with the loop.
        for n, alpha in ((8, 0.25), (300, 0.3)):
            rng = np.random.Generator(bit_generator(n))
            assert not skip_doubles(rng, 5)
            (want, want_state), (got, got_state) = (
                host_and_state(make, n, alpha, np.random.Generator(bit_generator(n)), pending_half)
                for make in (drawn_host, gen_semidegree_digraph))
            assert got == want and got_state == want_state

    def test_skip_doubles_is_the_drawn_stream(self):
        for bit_generator in (np.random.PCG64, np.random.PCG64DXSM):
            for k in (0, 1, 7, 2**20 + 3):
                rngs = np.random.Generator(bit_generator(k)), np.random.Generator(bit_generator(k))
                for rng in rngs:
                    rng.integers(7)
                rngs[0].random(k)
                assert skip_doubles(rngs[1], k)
                assert plain_state(rngs[0].bit_generator.state) == plain_state(rngs[1].bit_generator.state)
                assert rngs[0].integers(5, size=3).tolist() == rngs[1].integers(5, size=3).tolist()
        assert not skip_doubles(np.random.RandomState(0), 1)

    def test_deterministic(self):
        d1 = gen_semidegree_digraph(200, 0.1, np.random.default_rng(7))
        d2 = gen_semidegree_digraph(200, 0.1, np.random.default_rng(7))
        assert d1.edges() == d2.edges()


def drawn_host(n, alpha, rng):
    """gen_semidegree_digraph as it draws every pair: the oracle of its complete-host route."""
    if n < 4:
        raise ValueError("need n >= 4")
    if not (0 < alpha < 0.5):
        raise ValueError("need 0 < alpha < 1/2")
    target = int(np.ceil((0.5 + alpha) * n))
    if target > n - 1:
        raise ValueError(f"irreparable: target semidegree {target} exceeds n-1 = {n - 1} for every vertex")
    mat = np.empty((n, n), dtype=bool)
    for start in range(0, n, ROW_BLOCK):
        block = mat[start : start + ROW_BLOCK]
        np.less(rng.random(block.shape), min(1.0, 0.5 + 2 * alpha), out=block)
    np.fill_diagonal(mat, False)
    for lines in (mat, mat.T):
        degree = np.count_nonzero(lines, axis=1)
        for v in np.flatnonzero(degree < target).tolist():
            missing = np.flatnonzero(~lines[v])
            lines[v, rng.choice(missing[missing != v], size=target - int(degree[v]), replace=False)] = True
    return Digraph(n, mat)


def host_and_state(make, n, alpha, rng, pending_half):
    """A generator call's host matrix (or error text), the state it leaves, and the next draws."""
    if pending_half:
        rng.integers(7)
    try:
        host = make(n, alpha, rng).mat
    except ValueError as exc:
        host = f"ValueError: {exc}"
    state = plain_state(rng.bit_generator.state)
    return host if isinstance(host, str) else host.tolist(), (state, rng.integers(2**40, size=3).tolist())


class TestSampleDisjointSubsets:
    def test_full_set(self):
        d = complete(10)
        (s,) = sample_disjoint_subsets(d, [10], np.random.default_rng(0))
        assert s.tolist() == list(range(10))

    def test_partition(self):
        d = complete(10)
        a, b = sample_disjoint_subsets(d, [4, 6], np.random.default_rng(1))
        assert sorted(a.tolist() + b.tolist()) == list(range(10))

    def test_disjoint_and_sized(self):
        d = complete(50)
        parts = sample_disjoint_subsets(d, [5, 10, 15], np.random.default_rng(2))
        assert [len(p) for p in parts] == [5, 10, 15]
        union = np.concatenate(parts)
        assert len(np.unique(union)) == 30

    def test_pool_draw_is_the_unpooled_draw_through_the_pool(self):
        pool = np.sort(np.random.default_rng(3).choice(50, size=30, replace=False))
        for seed in range(5):
            got = sample_disjoint_subsets(complete(50), [5, 10, 12], np.random.default_rng(seed), pool)
            ranks = sample_disjoint_subsets(complete(30), [5, 10, 12], np.random.default_rng(seed))
            assert [g.tolist() for g in got] == [pool[r].tolist() for r in ranks]
        with pytest.raises(ValueError, match="requested 31 vertices from 30"):
            sample_disjoint_subsets(complete(50), [20, 11], np.random.default_rng(0), pool)

    def test_oversized_request(self):
        with pytest.raises(ValueError):
            sample_disjoint_subsets(complete(10), [6, 6], np.random.default_rng(0))

    def test_inclusion_frequency(self):
        # Per-vertex inclusion frequency in the first of three 30-sets out of
        # 100 should be 0.3 within +-0.05 over many trials.
        d = complete(100)
        rng = np.random.default_rng(9)
        hits = np.zeros(100)
        trials = 10_000
        for _ in range(trials):
            parts = sample_disjoint_subsets(d, [30, 30, 30], rng)
            hits[parts[0]] += 1
        freq = hits / trials
        assert abs(freq.mean() - 0.3) < 0.01
        assert np.all(np.abs(freq - 0.3) < 0.05)


class TestInheritedDegree:
    def test_complete(self):
        d = complete(20)
        assert check_inherited_degree(d, np.arange(10), 0.4)

    def test_isolated(self):
        d = Digraph.from_edges(4, [(0, 1), (1, 2), (2, 0)])
        assert not check_inherited_degree(d, np.array([3]), 0.1)

    def test_monte_carlo_random_subsets(self):
        rng = np.random.default_rng(11)
        d = gen_semidegree_digraph(500, 0.2, rng)
        good = 0
        for _ in range(100):
            (a,) = sample_disjoint_subsets(d, [100], rng)
            good += check_inherited_degree(d, a, 0.2)
        assert good >= 95


class TestDerivedAdjacency:
    """Neighbourhood rows come from the matrix and the packed in-adjacency; the derived fields are cached."""

    @pytest.fixture(params=["host", "induced"])
    def digraph(self, request):
        d = gen_semidegree_digraph(90, 0.1, np.random.default_rng(13))
        if request.param == "induced":
            d, _labels = d.induce(np.random.default_rng(14).permutation(90)[:50])
        return d

    def test_lists_match_matrix(self, digraph):
        d = digraph
        for v in range(d.n):
            for sign, want in ((Sign.PLUS, d.mat[v]), (Sign.MINUS, d.mat[:, v])):
                got = d.adj_row(v, sign)
                assert got.dtype == np.bool_ and got.shape == (d.n,)
                assert (got == want).all()

    def test_mutual_cached_and_read_only(self, digraph):
        d = digraph
        mutual = d.mutual
        assert (mutual == (d.mat & d.mat.T)).all()
        assert 0 < mutual.sum() < d.n * (d.n - 1)
        assert not mutual.flags.writeable
        assert d.mutual is mutual

    def test_mutual_colsum_and_packed_cached_and_read_only(self, digraph):
        d = digraph
        mutual = d.mat & d.mat.T
        colsum, packed = d.mutual_colsum, d.mutual_packed
        assert colsum.dtype == np.int64 and colsum.tolist() == mutual.sum(axis=0).tolist()
        assert packed.dtype == np.uint8 and packed.shape == (d.n, (d.n + 7) // 8)
        assert (packed == np.packbits(mutual, axis=1)).all()
        assert (np.unpackbits(packed, axis=1, count=d.n) == mutual).all()
        for field in (colsum, packed):
            assert not field.flags.writeable
            with pytest.raises(ValueError):
                field[0] = 1
        assert d.mutual_colsum is colsum and d.mutual_packed is packed

    def test_every_cached_array_is_read_only_and_built_once(self, digraph):
        d = digraph
        names = ("in_packed", "mutual", "mutual_colsum", "mutual_packed", "degrees")
        first = {name: getattr(d, name) for name in names}
        for name in names:
            assert getattr(d, name) is first[name], name
            for array in first[name] if name == "degrees" else (first[name],):
                assert not array.flags.writeable, name
                with pytest.raises(ValueError):
                    array[0] = 0
        out, into = d.degrees
        assert out.dtype == into.dtype == np.int32
        assert out.tolist() == d.mat.sum(axis=1).tolist() and into.tolist() == d.mat.sum(axis=0).tolist()
        with pytest.raises(AttributeError):
            d.alpha_hat = 0.25

    def test_semidegree_facts_read_the_one_degree_pair(self, digraph):
        # A planted pair shows that full_rows, min_semidegree and alpha_hat
        # read the cached degrees instead of summing the matrix again.
        d, n = digraph, digraph.n
        d.__dict__["degrees"] = (np.full(n, n - 1, dtype=np.int32), np.arange(n, dtype=np.int32))
        assert min_semidegree(d) == 0 and d.alpha_hat == -0.5
        assert d.full_rows(Sign.PLUS).all()
        assert np.flatnonzero(d.full_rows(Sign.MINUS)).tolist() == [n - 1]
        # Both signs' flags are built once: every call returns the same array.
        assert all(d.full_rows(sign) is d.full_rows(sign) for sign in (Sign.PLUS, Sign.MINUS))

    def test_host_facts_against_brute_force_on_induced_hosts(self):
        rng = np.random.default_rng(31)
        p70 = rng.random((50, 50)) < 0.7
        np.fill_diagonal(p70, False)
        hosts = [gen_semidegree_digraph(60, 0.24, rng), complete(40), Digraph(50, p70)]
        with_full = without_full = 0
        for d in hosts:
            for size in (1, 2, 7, 30, d.n):
                sub, _labels = d.induce(rng.permutation(d.n)[:size])
                m = sub.n
                out = [sum(sub.has_edge(v, w) for w in range(m)) for v in range(m)]
                into = [sum(sub.has_edge(w, v) for w in range(m)) for v in range(m)]
                for sign, degree in ((Sign.PLUS, out), (Sign.MINUS, into)):
                    assert sub.full_rows(sign).tolist() == [x == m - 1 for x in degree]
                assert min_semidegree(sub) == min(out + into)
                assert sub.alpha_hat == min(out + into) / m - 0.5
                full = sub.full_rows(Sign.PLUS).any() or sub.full_rows(Sign.MINUS).any()
                with_full += full
                without_full += not full
        assert with_full >= 5 and without_full >= 3, (with_full, without_full)

    def test_in_rows_are_the_columns(self):
        # n = 1..70, mostly not multiples of 8, so the padding bits of the
        # last byte and a partial block of 64 columns are both exercised.
        rng = np.random.default_rng(21)
        for n in range(1, 71):
            mat = rng.random((n, n)) < 0.5
            np.fill_diagonal(mat, False)
            hosts = [Digraph(n, mat), complete(n)]
            if n >= 4:
                host = gen_semidegree_digraph(n, 0.2, rng)
                v1, _v2 = sample_disjoint_subsets(host, [(n + 1) // 2, n // 4], rng)
                hosts.append(host.induce(v1)[0])
            for d in hosts:
                packed = d.in_packed
                assert packed.dtype == np.uint8 and (packed == np.packbits(d.mat.T, axis=1)).all()
                assert not packed.flags.writeable and d.in_packed is packed
                for v in range(d.n):
                    row = d.adj_row(v, Sign.MINUS)
                    assert row.dtype == np.bool_ and (row == d.mat[:, v]).all()

    def test_in_rows_across_row_tiles(self):
        # More rows than one transposed tile of 512, and a ragged last block.
        rng = np.random.default_rng(22)
        n = 1101
        mat = rng.random((n, n)) < 0.5
        np.fill_diagonal(mat, False)
        d = Digraph(n, mat)
        assert (d.in_packed == np.packbits(mat.T, axis=1)).all()
        for v in (0, 63, 64, 511, 512, 1100):
            assert (d.adj_row(v, Sign.MINUS) == mat[:, v]).all()

    def test_induce_is_the_sorted_submatrix(self):
        d = gen_semidegree_digraph(90, 0.1, np.random.default_rng(13))
        picked = np.random.default_rng(14).permutation(90)[:50]
        sub, labels = d.induce(picked)
        assert labels.tolist() == sorted(picked.tolist())
        assert (sub.mat == d.mat[np.ix_(labels, labels)]).all()
        assert sub.mat.flags.c_contiguous and not sub.mat.flags.writeable
        assert not np.shares_memory(sub.mat, d.mat)

    def test_induce_across_row_blocks(self):
        # 255 to 700 labels: one row block short of ROW_BLOCK, exactly one,
        # one past it, and several with a ragged last block.
        rng = np.random.default_rng(23)
        mat = rng.random((900, 900)) < 0.5
        np.fill_diagonal(mat, False)
        d = Digraph(900, mat)
        for size in (255, 256, 257, 512, 700):
            picked = rng.permutation(900)[:size]
            sub, labels = d.induce(picked)
            assert labels.tolist() == sorted(picked.tolist())
            assert (sub.mat == mat[np.ix_(labels, labels)]).all()

    @pytest.mark.parametrize("vertices, message", [
        ([1, 1, 2], "vertex 1 given twice"),
        ([-1, 2], "vertex -1 outside 0..9"),
        ([3, 10], "vertex 10 outside 0..9"),
    ])
    def test_induce_rejects_repeated_and_outside_ids(self, vertices, message):
        with pytest.raises(ValueError, match=message):
            complete(10).induce(vertices)
