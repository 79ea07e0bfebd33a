"""Guide sets and guide graphs for steering the random core embedding.

For a vertex v and sign d, a guide entry is a set A inside N^d(v) together
with two bipartite graphs H^+, H^- from A into the whole host.  Each H row
carries the same number of edges and back-degrees stay balanced, so after
restriction to random target sets the rows keep enough degree for covering
matchings while back-degrees stay low (the skew-bound).

A `GuideSystem` holds one restriction (the random set V0 and the target
parts), builds each entry inside V0 and audits the rows a leaf matching
reads against the part it matches into.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .digraph import Digraph, Sign, _read_only
from .embedding import PipelineError
from .matching import MatchingError, covering_matching


class GuideBuildError(PipelineError):
    """Guide construction failed; cause tag 'guide-build'."""

    cause = "guide-build"


class GuideRestrictError(PipelineError):
    """Restriction audit failed (retryable by resampling); cause 'guide-restrict'."""

    cause = "guide-restrict"


@dataclass(frozen=True)
class XYLabeling:
    """Two vertex orderings certifying large triple intersections around (v, sign).

    For every i, |N^-(x_i) cap N^sign(v) cap N^+(y_i)| >= threshold.
    """

    v: int
    sign: Sign
    xs: np.ndarray
    ys: np.ndarray
    threshold: int


def _mutual_counts(d: Digraph, base: np.ndarray) -> np.ndarray:
    """|mutual[i] cap base| for every vertex i, popcounted in place on the packed rows."""
    packed = np.bitwise_and(d.mutual_packed, np.packbits(base))
    return np.bitwise_count(packed, out=packed).sum(axis=1, dtype=np.min_scalar_type(d.n))


def build_xy_labeling(d: Digraph, v: int, sign: Sign, alpha: float) -> XYLabeling:
    """Pair every vertex x with a partner y so the triple intersections are large.

    Built from an auxiliary bipartite graph joining x to y whenever
    |N^-(x) cap N^sign(v) cap N^+(y)| >= alpha^2 n; a perfect matching in it
    is the labeling.  Its minimum degree exceeds n/2 under the semidegree
    hypothesis, so a missing matching signals a violated hypothesis and the
    Hall violator is reported.
    """
    n = d.n
    threshold = max(1, math.ceil(alpha * alpha * n))
    base = d.adj_row(v, sign)

    # Identity shortcut: in dense hosts x_i = y_i = i almost always works.
    # |mutual[i] cap base| >= |base| - (n - |mutual[i]|) settles most hosts
    # from the cached column sums; the popcount decides the rest exactly.
    if (
        int(base.sum()) - n + int(d.mutual_colsum.min()) >= threshold
        or _mutual_counts(d, base).min() >= threshold
    ):
        ident = np.arange(n, dtype=np.int64)
        return XYLabeling(v, sign, ident, ident.copy(), threshold)

    in_rows = d.mat.T & base[None, :]
    counts = in_rows.astype(np.float32) @ d.mat.astype(np.float32).T
    try:
        ys = covering_matching(counts >= threshold, what="xy-labeling auxiliary graph")
    except MatchingError as exc:
        raise GuideBuildError(
            f"no xy-labeling for v={v}, sign={sign}: semidegree hypothesis violated "
            f"(Hall violator of size {len(exc.violator)})"
        ) from exc
    return XYLabeling(v, sign, np.arange(n, dtype=np.int64), ys, threshold)


@dataclass
class GuideEntry:
    """Guide set A for (v, sign) plus guide graphs H^+, H^- from A into V(D)."""

    v: int
    sign: Sign
    guide: np.ndarray            # A, in construction-round order
    hplus: np.ndarray | None     # bool |A| x n; row i: out-edges of guide[i] in H^+; None if not built
    hminus: np.ndarray | None    # bool |A| x n; row i: in-edges  of guide[i] in H^-; None if not built
    edges_per_row: int           # ceil(eps * n)

    def h(self, circ: Sign) -> np.ndarray:
        return self.hplus if circ is Sign.PLUS else self.hminus


@dataclass(frozen=True)
class PackedGuide:
    """A guide entry as `GuideSystem` caches it: H rows eight hosts a byte.

    `row` is the one reader of H; it unpacks the row it reads, or raises `LookupError` without H.
    """

    v: int
    sign: Sign
    guide: np.ndarray            # A, in construction-round order
    row_index: dict[int, int]
    _n: int
    _hplus: np.ndarray | None    # packbits(H^+, axis=1), read-only; None without guide graphs
    _hminus: np.ndarray | None   # packbits(H^-, axis=1); _hplus itself when H^- is H^+

    @classmethod
    def of(cls, entry: GuideEntry) -> PackedGuide:
        if entry.hplus is None:
            return cls(entry.v, entry.sign, entry.guide, {}, 0, None, None)
        hplus = _read_only(np.packbits(entry.hplus, axis=1))
        hminus = hplus if entry.hminus is entry.hplus else _read_only(np.packbits(entry.hminus, axis=1))
        row_index = {int(w): i for i, w in enumerate(entry.guide)}
        return cls(entry.v, entry.sign, entry.guide, row_index, entry.hplus.shape[1], hplus, hminus)

    def row(self, host_vertex: int, circ: Sign) -> np.ndarray:
        """Bool row over all n hosts: the H^circ edges of guide vertex `host_vertex`."""
        if self._hplus is None:
            raise LookupError(f"guide entry (v={self.v}, {self.sign}) was built without guide graphs")
        packed = self._hplus if circ is Sign.PLUS else self._hminus
        return np.unpackbits(packed[self.row_index[int(host_vertex)]], count=self._n).view(np.bool_)


def build_guide(
    d: Digraph,
    v: int,
    sign: Sign,
    eps: float,
    eta: float,
    mu: float,
    alpha: float,
    labeling: XYLabeling | None = None,
    v0_mask: np.ndarray | None = None,
    size: int | None = None,
    graphs: bool = True,
) -> GuideEntry:
    """Construct the guide entry for (v, sign) by the balanced induction.

    Each round picks the vertex w covered by the most still-light labeling
    indices, adds w to A, and adds ceil(eps*n) edges w->x_j to H^+ and
    y_j->w to H^- over the same index set J', keeping the mirror degrees
    d^-_{H+}(x_j) = d^+_{H-}(y_j) equal.  After round i both graphs carry
    exactly i*ceil(eps*n) edges and stay skew-bounded at
    (eps*n, (1+eta)*mu*eps*n) read with integer ceilings.

    Coverage is kept incrementally: labeling indices only ever turn heavy,
    so the per-vertex count over light indices is summed once and the rows
    of indices whose mirror degree passes the growth bound are subtracted
    after the round that pushed them over.  While the coverage stands
    still the argmax order is fixed, so the open columns are sorted once
    into a queue and consumed from its head; a round that turns indices
    heavy costs O(n log n) to rebuild it.  Any other round reads one
    column of W, O(n), and picks its edges by a partial selection on a
    running rank key over that column's support only.  For the identity
    labeling the triple-intersection rows are the host's cached mutual-arc
    rows, the starting coverage its cached column sums and H^- the same
    array as H^+, so a build allocates nothing n x n; any other labeling
    gathers its n x n triple-intersection matrix first, O(n^2).  Both
    guide graphs are returned read-only.

    With `graphs=False` A comes without the rounds, and H^+ = H^- = None,
    when no index can turn heavy: the queue then never changes, so A is its
    first `size` columns.  With c their least coverage, that holds if
    c >= per_row, eta <= 4, grow_bound >= 0 (all n indices light) and
    (size-1)*per_row // (c-per_row+1) < floor(grow_bound).  Proof: round
    i's picks have at most the (per_row + n - c)-th smallest mirror degree
    t, so c - per_row + 1 indices have degree >= t; their sum is at most
    i*per_row, so t <= the left side and a pick ends at t + 1 <= the right.

    With `v0_mask` the guide set is drawn from N^sign(v) inside that mask
    (the construction `GuideSystem.get` runs); guide rows still
    span the whole host, and `GuideSystem.rows` audits those it reads.
    """
    n = d.n
    # mu <= alpha^2/2 is the classical feasibility region; dense desk-scale
    # hosts tolerate far larger mu, so the construction just runs and reports
    # the first round whose coverage falls short.
    if size is None:
        size = max(1, math.ceil(mu * n))
    per_row = max(1, math.ceil(eps * n))
    # Degree budget from the realized counts: size*per_row edges over n
    # columns.  (1+eta/2) growth headroom per round leaves at least
    # eta*n/(2+eta) light indices.
    mean_back = size * per_row / n
    grow_bound = (1 + eta / 2) * mean_back

    if labeling is None:
        labeling = build_xy_labeling(d, v, sign, alpha)
    base = d.adj_row(v, sign)
    if v0_mask is not None:
        base = base & v0_mask
    if int(base.sum()) < size:
        raise GuideBuildError(
            f"guide target {size} exceeds |N^{sign}(v) cap V0| = {int(base.sum())} for v={v}"
        )

    # W[j, w] = 1 iff w lies in the triple intersection of labeling index j.
    # Only columns in `base` are ever read (coverage is read on open columns
    # only), so for the identity labeling W's rows may be the mutual-arc rows
    # unmasked, and column w of W is the contiguous row mutual[w].
    identity = np.array_equal(labeling.xs, np.arange(n)) and np.array_equal(labeling.ys, labeling.xs)
    if identity:
        wrows = wcols = d.mutual
        coverage = d.mutual_colsum.copy()
    else:
        wrows = d.mat[:, labeling.xs].T & base[None, :] & d.mat[labeling.ys, :]
        wcols = wrows.T
        coverage = wrows.sum(axis=0)
    # Per-vertex coverage by the light labeling indices, kept current below:
    # all n of them, or none when eta < -2 makes the growth bound negative.
    n_light = n if grow_bound >= 0 else 0
    coverage *= n_light == n
    # The open columns by coverage, descending, ties in ascending id: the order
    # argmax over them picks in while the coverage stands still.
    cols = base.nonzero()[0]
    queue = cols[np.argsort(-coverage[cols], kind="stable")]
    if not graphs and n_light == n and eta <= 4:
        c = int(coverage[queue[size - 1]])
        if c >= per_row and (size - 1) * per_row // (c - per_row + 1) < math.floor(grow_bound):
            return GuideEntry(v, sign, queue[:size], None, None, per_row)

    # Each index's rank key: its mirror degree d^-_{H+}(x_j) == d^+_{H-}(y_j)
    # times n, plus a fixed scrambling of the index space.  Rows must not be
    # id-windows, or a target part can miss a row entirely; the scrambling is
    # seeded per (v, sign) so entries stay distinct even on fully symmetric
    # hosts, deterministic throughout: the inverse of a seeded permutation.
    # Keys are unique, so the per_row smallest covered keys are one set, and
    # an index is light iff its key is below heavy_key.
    sign_bit = 1 if sign is Sign.PLUS else 2
    key = np.empty(n, dtype=np.int64)
    key[np.random.default_rng((0x5EED, n, v, sign_bit)).permutation(n)] = np.arange(n)
    heavy_key = n * (math.floor(grow_bound) + 1)   # key >= heavy_key iff key // n > grow_bound
    guide: list[int] = []
    hplus = np.zeros((size, n), dtype=bool)
    hminus = hplus if identity else np.zeros((size, n), dtype=bool)
    head = 0

    for i in range(size):
        if n_light < eta * n / 4:
            raise GuideBuildError(
                f"round {i}: only {n_light} light labeling indices "
                f"(need {eta * n / 4:.1f}); schedule too aggressive"
            )
        w = queue[head]
        head += 1
        if coverage[w] < per_row:
            raise GuideBuildError(
                f"round {i}: best coverage {int(coverage[w])} below {per_row}; "
                "schedule too aggressive for this host"
            )
        # Spread the new edges over the lightest covered labeling indices,
        # tie-broken by the scrambled rank: this balances back-degrees and
        # keeps every row spread across the vertex space.  coverage[w] counts
        # the covered indices, so there are at least per_row of them.
        chosen = (wcols[w] if n_light == n else wcols[w] & (key < heavy_key)).nonzero()[0]
        chosen = chosen[key[chosen].argpartition(per_row - 1)[:per_row]]
        hplus[i, labeling.xs[chosen]] = True
        if not identity:                      # the identity labeling's H^- is H^+
            hminus[i, labeling.ys[chosen]] = True
        kc = key[chosen] = key[chosen] + n
        if kc.max() >= heavy_key:
            heavy = chosen[kc >= heavy_key]
            # The smallest dtype that holds the sums: a wider one makes numpy
            # cast through a 64 KiB buffer, which costs more than the sum.
            coverage -= wrows[heavy].sum(axis=0, dtype=np.min_scalar_type(len(heavy)))
            n_light -= len(heavy)
            cols = np.sort(queue[head:])      # the coverage changed: queue the open columns anew
            queue, head = cols[np.argsort(-coverage[cols], kind="stable")], 0
        guide.append(w)

    return GuideEntry(
        v=v,
        sign=sign,
        guide=np.array(guide, dtype=np.int64),
        hplus=_read_only(hplus),
        hminus=_read_only(hminus),
        edges_per_row=per_row,
    )


# The pipeline's guide graphs: each row gets ceil(GUIDE_EPS * n) edges, and
# GUIDE_ETA is the back-degree slack of the skew-bound.
GUIDE_EPS = 0.18
GUIDE_ETA = 1.0


class GuideSystem:
    """Guide entries for one restriction: the random set V0 and the target parts.

    `get` draws the guide set for (v, sign) inside N^sign(v) cap V0, with
    rows still spanning the host, and caches it as a `PackedGuide`; with no
    parts, which read no row, it asks `build_guide` for A alone
    (graphs=False).  `rows` reads rows over a part and audits them (Q2-Q3).
    One system per pipeline draw.
    `alpha` defaults to the host's `alpha_hat`, taken as given even at or
    below 0, which star layouts measured on an induced host can reach.
    """

    def __init__(
        self,
        d: Digraph,
        v0: np.ndarray,
        parts: list[np.ndarray],
        mu_count: int,
        eps: float = GUIDE_EPS,
        eta: float = GUIDE_ETA,
        alpha: float | None = None,
    ):
        self.d = d
        self.v0_mask = np.zeros(d.n, dtype=bool)
        self.v0_mask[np.asarray(v0, dtype=np.int64)] = True
        self.parts = [np.asarray(p, dtype=np.int64) for p in parts]
        self.mu_count = mu_count              # |A| (exact)
        self.eps = eps
        self.eta = eta
        self.alpha = d.alpha_hat if alpha is None else alpha
        self._entries: dict[tuple[int, Sign], PackedGuide] = {}

    def get(self, v: int, sign: Sign) -> PackedGuide:
        """Entry for (v, sign) built inside V0, packed and cached; `rows` audits the rows read."""
        key = (v, sign)
        if key not in self._entries:
            entry = build_guide(
                self.d, v, sign, self.eps, self.eta, self.mu_count / self.d.n,
                alpha=self.alpha, v0_mask=self.v0_mask, size=self.mu_count, graphs=bool(self.parts),
            )
            self._entries[key] = PackedGuide.of(entry)
        return self._entries[key]

    def rows(self, reads: list[tuple[PackedGuide, int]], circ: Sign, cols: np.ndarray) -> np.ndarray:
        """H^circ rows of the (entry, host) pairs `reads` over `cols`, audited (Q2-Q3).

        Q2 and Q3 serve the Hall condition of a leaf matching over `cols`, which
        reads only the rows of the part's parents, so only the rows read are
        audited; `reads` names each once.  A row below the Q2 quota, or rows of
        one entry giving a column a back-degree above the Q3 cap, raise
        `GuideRestrictError` for a resample.  Rows read are a subset of their
        entries' rows, so their least sum is no smaller and each column sum no
        larger: this fails only where auditing every row of every entry, per
        part and sign, would, and a draw passing that audit keeps its RNG stream.
        """
        # Q2 grants a row its mean in the part, per_row |cols| / n, minus 3 sigma
        # (the binomial spread is large at desk scale), and abstains (quota 0)
        # where that is nonpositive: the matching is the gate there, with its
        # own retries.  Q3 caps back-degrees at the skew-bound's (1 + eta) eps |A|
        # or an entry's mean back-degree plus 3 sigma, whichever is larger.
        n = self.d.n
        per_row = max(1, math.ceil(self.eps * n))   # build_guide's edges per row
        row_mean, back_mean = per_row * len(cols) / n, self.mu_count * per_row / n
        quota = max(0, math.ceil(row_mean - 3.0 * math.sqrt(row_mean)))
        cap = max(math.ceil((1 + self.eta) * self.eps * self.mu_count),
                  math.ceil(back_mean + 3.0 * math.sqrt(max(back_mean, 1.0))))
        out = np.zeros((len(reads), len(cols)), dtype=bool)
        by_entry: dict[tuple[int, Sign], list[int]] = {}
        failures: list[tuple] = []
        for r, (entry, host) in enumerate(reads):
            out[r] = entry.row(host, circ)[cols]
            by_entry.setdefault((entry.v, entry.sign), []).append(r)
            if (edges := int(out[r].sum())) < quota:
                failures.append(("Q2", entry.v, str(entry.sign), str(circ), int(host), edges, quota))
        for (v, sign), read in by_entry.items():
            back = out[read].sum(axis=0)
            if back.max(initial=0) > cap:
                top = int(back.argmax())
                failures.append(("Q3", v, str(sign), str(circ), int(cols[top]), int(back[top]), cap))
        if failures:
            raise GuideRestrictError("restriction audit failed: " + "; ".join(map(str, failures[:4])))
        return out
