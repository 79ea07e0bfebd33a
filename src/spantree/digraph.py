"""Dense digraph representation with fast neighborhood-set queries.

Vertices are dense integers 0..n-1.  The boolean adjacency matrix `mat` is
the primary form (constant-time edge tests, vectorized triple
intersections); `adj_row` reads one vertex's out- or in-neighbourhood as
a boolean row over all hosts.  Derived forms are built on first use and
cached read-only: the bit-packed in-adjacency, whose contiguous rows serve
every in-neighbourhood read, so no read walks a stride-n column of `mat`;
the mutual-arc matrix mat & mat.T with its column sums and bit-packed
rows, so only hosts that build guides pay for them, and only hosts whose
xy-labelings the column-sum bound cannot settle pay for the packed rows;
and the out- and in-degrees, summed once for the semidegree, the measured
excess alpha_hat and, per sign, the flags of the hosts whose neighbourhood
is every other host, which tell a greedy walk whether its host is complete
and spare the absorber's checks their row reads.
Instances are immutable after construction and safe to share across
concurrent trials.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

from .draws import skip_doubles


class Sign(enum.Enum):
    """Edge direction selector: PLUS = out-edges, MINUS = in-edges."""

    PLUS = "+"
    MINUS = "-"

    def __str__(self) -> str:
        return self.value


SIGNS = (Sign.PLUS, Sign.MINUS)

# Rows per block where a whole-host gather would otherwise make an n^2-scale
# temporary: a block costs ROW_BLOCK x n bools.
ROW_BLOCK = 256


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _is_int(kind: type) -> bool:
    """True for int and the numpy integer types: not bool, float or any other number."""
    return kind is int or issubclass(kind, np.integer)


def _non_int_id(u, v) -> ValueError:
    """The error for an edge (u, v) with an id that is not an integer (a bool or a float, say)."""
    return ValueError(f"vertex id {v if _is_int(type(u)) else u!r} of edge ({u!r},{v!r}) is not an integer")


class Digraph:
    """Immutable digraph: at most one edge per ordered pair, no loops.

    `adj_row` is the one neighbourhood reader: out-neighbours are a row of
    `mat`, in-neighbours a row of `in_packed`.  The derived fields
    `in_packed`, `mutual`, `mutual_colsum`, `mutual_packed`, `degrees` and
    the `full_rows` flags are each built once, on first use, and read-only;
    `full_rows`, `min_semidegree` and `alpha_hat` read `degrees`.
    """

    def __init__(self, n: int, mat: np.ndarray):
        if n < 1:
            raise ValueError("digraph needs at least one vertex")
        if mat.shape != (n, n) or mat.dtype != np.bool_:
            raise ValueError("adjacency matrix must be boolean n x n")
        if mat.diagonal().any():
            raise ValueError("self-loops are not allowed")
        self.n = n
        self.mat = _read_only(mat)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Digraph":
        mat = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            if not (_is_int(type(u)) and _is_int(type(v))):
                raise _non_int_id(u, v)
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            mat[u, v] = True
        return cls(n, mat)

    def edges(self) -> list[tuple[int, int]]:
        """All edges sorted by (u, v)."""
        us, vs = np.nonzero(self.mat)
        return list(zip(us.tolist(), vs.tolist()))

    def num_edges(self) -> int:
        return int(self.mat.sum())

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.mat[u, v])

    @functools.cached_property
    def in_packed(self) -> np.ndarray:
        """Read-only `packbits(mat.T, axis=1)`: row v holds N^-(v), eight hosts a byte.

        Built in blocks of 64 columns, each transposed in tiles of 512 rows,
        so no n x n temporary is made and no copy strides a whole column.
        """
        n = self.n
        packed = np.empty((n, (n + 7) // 8), dtype=np.uint8)
        block = np.empty((64, n), dtype=bool)
        for start in range(0, n, 64):
            cols = self.mat[:, start : start + 64]
            rows = block[: cols.shape[1]]
            for top in range(0, n, 512):
                rows[:, top : top + 512] = cols[top : top + 512].T
            packed[start : start + 64] = np.packbits(rows, axis=1)
        return _read_only(packed)

    @functools.cached_property
    def mutual(self) -> np.ndarray:
        """Read-only mat & mat.T: [u, w] is set iff both u->w and w->u are edges."""
        return _read_only(self.mat & self.mat.T)

    @functools.cached_property
    def mutual_colsum(self) -> np.ndarray:
        """Read-only int64 column sums of `mutual` (equal to its row sums)."""
        return _read_only(self.mutual.sum(axis=0))

    @functools.cached_property
    def mutual_packed(self) -> np.ndarray:
        """Read-only `packbits(mutual, axis=1)`: row u of `mutual`, eight columns a byte."""
        return _read_only(np.packbits(self.mutual, axis=1))

    @functools.cached_property
    def degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only int32 out-degrees and in-degrees (int32 sums take half
        the time of count_nonzero's int64 ones)."""
        return tuple(_read_only(self.mat.sum(axis=axis, dtype=np.int32)) for axis in (1, 0))

    @property
    def alpha_hat(self) -> float:
        """The measured semidegree excess delta^0(D)/n - 1/2."""
        return min_semidegree(self) / self.n - 0.5

    @functools.cached_property
    def _full_flags(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(_read_only(degree == self.n - 1) for degree in self.degrees)

    def full_rows(self, sign: Sign) -> np.ndarray:
        """Read-only bool flags: [v] is set iff N^sign(v) is every other host (degree n - 1)."""
        return self._full_flags[0 if sign is Sign.PLUS else 1]

    def adj_row(self, v: int, sign: Sign) -> np.ndarray:
        """Boolean neighborhood row over all n hosts; callers only read it.

        N^+(v) is the view mat[v]; N^-(v) is unpacked from the contiguous
        row v of `in_packed`, equal to the column mat[:, v].
        """
        if sign is Sign.PLUS:
            return self.mat[v]
        return np.unpackbits(self.in_packed[v], count=self.n).view(np.bool_)

    def induce(self, vertices: np.ndarray) -> tuple["Digraph", np.ndarray]:
        """Induced subdigraph plus the new-index -> original-vertex labels.

        Raises ValueError on an id outside 0..n-1 or given twice.
        """
        labels = np.asarray(sorted(int(v) for v in vertices), dtype=np.int64)
        bad = labels[(labels < 0) | (labels >= self.n)]
        if len(bad):
            raise ValueError(f"vertex {int(bad[0])} outside 0..{self.n - 1}")
        twice = labels[1:][labels[1:] == labels[:-1]]
        if len(twice):
            raise ValueError(f"vertex {int(twice[0])} given twice")
        # Same matrix as mat[np.ix_(labels, labels)], gathered in row blocks:
        # whole rows first, then their columns, which avoids the slow 2-D
        # fancy-index path and any len(labels) x n temporary.
        sub = np.empty((len(labels), len(labels)), dtype=bool)
        for start in range(0, len(labels), ROW_BLOCK):
            rows = labels[start : start + ROW_BLOCK]
            sub[start : start + len(rows)] = self.mat[rows].take(labels, axis=1)
        return Digraph(len(labels), sub), labels


def min_semidegree(d: Digraph) -> int:
    """Smallest in- or out-degree over all vertices."""
    return int(min(degree.min() for degree in d.degrees))


def gen_semidegree_digraph(n: int, alpha: float, rng: np.random.Generator) -> Digraph:
    """Random digraph with min semidegree at least ceil((1/2 + alpha) n), guaranteed.

    Each ordered pair is included independently with probability 1/2 + 2*alpha
    (clamped to 1), then deficient vertices are repaired by adding uniformly
    chosen missing edges.  The construction fails only when the target degree
    exceeds n - 1.

    Random stream: one rng.random() per ordered pair, row by row, then the
    repair's choices.  At alpha >= 1/4 every pair comes up and no line needs a
    repair, so on PCG64 and PCG64DXSM the complete digraph is built directly
    and `draws.skip_doubles` moves the generator past the n^2 doubles; the
    host and the state after the call are those of the draws.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    if not (0 < alpha < 0.5):
        raise ValueError("need 0 < alpha < 1/2")
    target = int(np.ceil((0.5 + alpha) * n))
    if target > n - 1:
        raise ValueError(
            f"irreparable: target semidegree {target} exceeds n-1 = {n - 1} for every vertex"
        )
    prob = min(1.0, 0.5 + 2 * alpha)
    if prob == 1.0 and skip_doubles(rng, n * n):
        mat = np.ones((n, n), dtype=bool)
        np.fill_diagonal(mat, False)
        return Digraph(n, mat)
    # Row blocks draw the same stream as one rng.random((n, n)) call, without
    # its n x n float64 temporary.
    mat = np.empty((n, n), dtype=bool)
    for start in range(0, n, ROW_BLOCK):
        block = mat[start : start + ROW_BLOCK]
        np.less(rng.random(block.shape), prob, out=block)
    np.fill_diagonal(mat, False)

    # Repair every deficient out-degree (row), then in-degree (column).  A
    # repair adds arcs to its own line alone, so each pass knows its deficient
    # lines up front; the in-degree pass cannot lower an out-degree.
    for lines in (mat, mat.T):
        degree = np.count_nonzero(lines, axis=1)
        for v in np.flatnonzero(degree < target).tolist():
            missing = np.flatnonzero(~lines[v])
            add = rng.choice(missing[missing != v], size=target - int(degree[v]), replace=False)
            lines[v, add] = True

    return Digraph(n, mat)


def sample_disjoint_subsets(
    d: Digraph, sizes: list[int], rng: np.random.Generator, pool: np.ndarray | None = None
) -> list[np.ndarray]:
    """Pairwise-disjoint uniform vertex subsets of the requested sizes.

    Uniformity over all tuples comes from slicing a single uniform
    permutation at consecutive prefixes.  With a sorted array `pool` of host
    ids the subsets are drawn from it: each is pool[...] of the subset the
    same RNG state draws over range(len(pool)).
    """
    total = sum(sizes)
    available = d.n if pool is None else len(pool)
    if total > available:
        raise ValueError(f"requested {total} vertices from {available}")
    return _cut(rng.permutation(available), sizes, pool)


def _cut(perm: np.ndarray, sizes: list[int], pool: np.ndarray | None) -> list[np.ndarray]:
    """The subsets `sample_disjoint_subsets` cuts from the permutation `perm` of ranks."""
    out, start = [], 0
    for size in sizes:
        ranks = np.sort(perm[start : start + size]).astype(np.int64)
        out.append(ranks if pool is None else pool[ranks])
        start += size
    return out


def check_inherited_degree(d: Digraph, a: np.ndarray, alpha: float) -> bool:
    """True iff every vertex has in- and out-degree into `a` at least (1/2 + alpha/2)|a|."""
    a = np.asarray(a, dtype=np.int64)
    if len(a) == 0:
        raise ValueError("restriction set must be nonempty")
    bound = (0.5 + alpha / 2) * len(a)
    out_into = d.mat[:, a].sum(axis=1)
    in_into = d.mat[a, :].sum(axis=0)
    return bool(out_into.min() >= bound and in_into.min() >= bound)
