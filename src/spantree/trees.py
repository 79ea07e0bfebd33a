"""Oriented trees: representation, orderings, generators, structural helpers.

A tree has dense vertex ids 0..n-1.  Orientation never affects connectivity
arguments, so underlying-degree machinery works on the undirected shadow.
One sorted neighbour table is stored, read through `nbrs`, and beside each
row an int whose bit j is set when entry j is an out-neighbour (ints below
257 are shared, so a row of degree <= 8 costs no object), read by `out` and
`edge_sign`.  The edges are kept once, as the read-only int32 (n - 1) x 2
array `edges`; `edge_list` gives them as a tuple of int pairs.

Only `OrientedTree(n, edges, t)` validates an edge list.  `with_t` shares
its tree's parts; `induced_subtrees` builds the pieces of disjoint vertex
sets from one gather of `edges` and checks each by its edge count;
`gen_random_tree` attaches each vertex to an earlier one, so its tree is
valid by construction.  All three fill their tables through `_table`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from .digraph import Sign, _is_int, _non_int_id, _read_only
from .draws import reader


def _flags(bits: int, deg: int) -> str:
    """A row's out-flags: character j is "1" when entry j is an out-neighbour (one linear pass)."""
    return bin(bits | 1 << deg)[:2:-1]   # bin() is "0b1" and the flags, last entry first


def _table(n: int, arcs) -> tuple[tuple, tuple]:
    """Neighbour table and out-flags of a tree from arcs (tail, head) that fill each row in order.

    Arcs sorted by their smaller end, then their larger, do.  A flag past entry 63 is noted and
    set with its row's others at the end, so no row's int is rebuilt per entry.
    """
    und: list[list[int]] = [[] for _ in range(n)]
    bits, late = [0] * n, {}
    for u, v in arcs:
        j = len(und[u])
        if j < 64:
            bits[u] |= 1 << j
        else:
            late.setdefault(u, set()).add(j)
        und[u].append(v)
        und[v].append(u)
    for u, js in late.items():
        bits[u] |= int("".join(["01"[j in js] for j in reversed(range(len(und[u])))]), 2)
    return tuple(map(tuple, und)), tuple(bits)


def _check_t(t, n: int) -> None:
    """Refuse a distinguished vertex that is not None or an integer in 0..n-1."""
    if t is not None and not (_is_int(type(t)) and 0 <= t < n):
        raise ValueError(f"distinguished vertex {t} out of range" if _is_int(type(t)) else
                         f"distinguished vertex {t!r} is not an integer")


class OrientedTree:
    """Immutable tree whose edges carry an orientation."""

    __slots__ = ("n", "edges", "t", "_und", "_bits")

    def __init__(self, n: int, edges, t: int | None = None):
        if n < 1:
            raise ValueError("tree needs at least one vertex")
        edge_list = [(u, v) for u, v in edges]
        if len(edge_list) != n - 1:
            raise ValueError(f"a tree on {n} vertices needs {n - 1} edges, got {len(edge_list)}")
        _check_t(t, n)
        for u, v in edge_list:
            if not (_is_int(type(u)) and _is_int(type(v))):
                raise _non_int_id(u, v)
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u},{v})")
        self.n, self.t = n, t
        pairs = chain.from_iterable(edge_list)
        self.edges = _read_only(np.fromiter(pairs, np.int32, 2 * n - 2).reshape(-1, 2))
        ends = np.sort(self.edges, axis=1)   # each edge as (smaller end, larger end)
        self._und, self._bits = _table(n, zip(*self.edges[np.lexsort(ends.T[::-1])].T.tolist()))
        reached, order = [True] + [False] * (n - 1), [0]
        for v in order:   # breadth-first from vertex 0; the list grows as it is read
            for u in self._und[v]:
                if not reached[u]:
                    reached[u] = True
                    order.append(u)
        if len(order) != n:
            raise ValueError("edges do not form a connected tree")

    @classmethod
    def _derived(cls, n: int, edges: np.ndarray, t: int | None, und: tuple, bits: tuple):
        """A tree from parts already known to form a valid tree; nothing is re-checked."""
        tree = cls.__new__(cls)
        tree.n, tree.edges, tree.t = n, edges, t
        tree._und, tree._bits = und, bits
        return tree

    @property
    def edge_list(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*self.edges.T.tolist()))   # two int lists, not one list per edge

    def out(self, v: int) -> tuple[int, ...]:
        row = self._und[v]
        return tuple([w for w, f in zip(row, _flags(self._bits[v], len(row))) if f == "1"])

    def nbrs(self, v: int) -> tuple[int, ...]:
        return self._und[v]

    def degree(self, v: int) -> int:
        return len(self._und[v])

    def edge_sign(self, u: int, v: int) -> Sign:
        """Sign s with v in N^s(u); requires u, v adjacent."""
        row = self._und[u]
        j = bisect_left(row, v)
        if j == len(row) or row[j] != v:
            raise ValueError(f"{u} and {v} are not adjacent")
        return Sign.PLUS if self._bits[u] >> j & 1 else Sign.MINUS

    def with_t(self, t: int | None) -> "OrientedTree":
        """The same tree with distinguished vertex t; shares this tree's edges, table and flags."""
        _check_t(t, self.n)
        return OrientedTree._derived(self.n, self.edges, t, self._und, self._bits)


def max_semidegree(tree: OrientedTree) -> tuple[int, int]:
    """(max out-degree, max in-degree), counted over the tails and the heads of `edges`."""
    return (0, 0) if tree.n == 1 else tuple(int(np.bincount(ends).max()) for ends in tree.edges.T)


@dataclass(frozen=True)
class PrefixOrdering:
    """Vertex order where every prefix induces a subtree.

    order[0] is the root; for i >= 1, order[i] attaches to
    order[parent_index[i]] (its unique neighbor among earlier vertices),
    and sign[i] is the direction: order[i] in N^{sign[i]}(parent).  A
    forest ordering, as `greedy_walk` takes, starts a tree at each i with
    parent_index[i] == -1.
    """

    order: tuple[int, ...]
    parent_index: tuple[int, ...]   # parent_index[0] == -1
    sign: tuple[Sign | None, ...]   # sign[0] is None

    def __len__(self) -> int:
        return len(self.order)


def prefix_order(
    tree: OrientedTree, root: int, policy: str = "any", above: int | None = None,
) -> PrefixOrdering:
    """Order the tree so every prefix is connected.

    With `above`, a neighbour of `root`, only the piece hanging at `root`
    away from `above` is ordered, in the tree's own ids.

    Policies:
      * "any": depth-first preorder from the root.
      * "leaves_last_middles_consecutive": all non-root leaves occupy a
        suffix, by id; interior degree-2 runs (bare-path interiors) are
        traversed consecutively, so the middle 3 vertices of any length-6
        bare path are consecutive in the order.
    """
    if policy not in ("any", "leaves_last_middles_consecutive"):
        raise ValueError(f"unknown policy {policy!r}")
    if not (0 <= root < tree.n):
        raise ValueError("root out of range")
    und, bits, plus, minus = tree._und, tree._bits, Sign.PLUS, Sign.MINUS
    if above is not None and above not in und[root]:
        raise ValueError(f"{above} is not a neighbour of root {root}")

    # Each placed vertex records its parent's position and the sign of the
    # edge from it, read at the parent's entry in its own row; in a tree
    # every neighbour of a vertex but its parent lies below it.
    lean = policy != "any"
    order, parent_index, signs, stack = [root], [-1], [None], [0]
    leaf_at: dict[int, int] = {}   # under "leaves_last...": each non-root leaf's parent position
    while stack:
        i = stack.pop()
        v, p = order[i], order[parent_index[i]] if i else above
        for u in reversed(und[v]):
            if u != p:
                if lean and len(und[u]) == 1:
                    leaf_at[u] = i
                    continue
                stack.append(len(order))
                order.append(u)
                parent_index.append(i)
                signs.append(minus if bits[u] >> bisect_left(und[u], v) & 1 else plus)
    leaves = sorted(leaf_at)   # last, by id; bits[u] == 1: a leaf's one edge leaves it
    return PrefixOrdering((*order, *leaves), (*parent_index, *map(leaf_at.__getitem__, leaves)),
                          (*signs, *[minus if bits[u] else plus for u in leaves]))


def find_independent_leaves(tree: OrientedTree, deg=None, leaves=None) -> list[int]:
    """Greedy maximal set of leaves, no two sharing a neighbor (by vertex id).

    With `deg`, the leaves are those of a subtree of at least two vertices:
    deg[v] is v's degree inside it, and 0 for a vertex outside it.  With
    `leaves`, the set of the v with deg[v] == 1, only those are read.
    """
    if tree.n < 2:
        raise ValueError("need at least two vertices")
    if deg is None:
        deg = list(map(len, tree._und))
    used_nbrs: set[int] = set()
    chosen = []
    for v in range(tree.n) if leaves is None else sorted(leaves):
        if deg[v] == 1:
            nb = next(u for u in tree.nbrs(v) if deg[u])
            if nb not in used_nbrs:
                chosen.append(v)
                used_nbrs.add(nb)
    return chosen


def maximal_bare_paths(tree: OrientedTree, deg=None) -> list[list[int]]:
    """Maximal paths of degree-2 interior vertices between leaves/branch vertices.

    Paths may share endpoints (branch vertices) but never interior vertices.
    A cycle-free degree-2 tree (a path) yields one maximal path.  With `deg`
    (a list), the paths are those of a subtree: deg[v] is v's degree inside
    it, and 0 for a vertex outside it; walks come in the same order as on the
    induced subtree, in tree ids.
    """
    if deg is None:
        deg = list(map(len, tree._und))
    size = len(deg) - deg.count(0)   # a one-vertex subtree counts 0 and has no path
    if size <= 2:
        return [[v for v in range(tree.n) if deg[v]]] if size == 2 else []
    und = tree._und
    paths = []
    seen_interior = [False] * tree.n
    for v in range(tree.n):
        if deg[v] in (0, 2):
            continue
        for u in und[v]:
            # Edges between two stop vertices have no interior and never
            # yield a cuttable segment; interior chains are walked once.
            if deg[u] != 2 or seen_interior[u]:
                continue
            walk = [v]
            prev, x = v, u
            while deg[x] == 2:
                seen_interior[x] = True
                walk.append(x)
                row = und[x]   # x's two neighbours inside, and any outside
                nxt = row[0] + row[1] - prev if len(row) == 2 else next(
                    w for w in row if w != prev and deg[w])
                prev, x = x, nxt
            walk.append(x)
            paths.append(walk)
    return paths


def components(tree: OrientedTree, vertices) -> list[list[int]]:
    """Pieces of the subforest of `tree` induced on `vertices`.

    Each piece is sorted, and pieces come in order of their smallest vertex.
    """
    left = {int(v) for v in vertices}
    pieces = []
    for v in sorted(left):
        if v not in left:
            continue
        left.discard(v)
        piece = [v]
        for w in piece:
            for u in tree.nbrs(w):
                if u in left:
                    left.discard(u)
                    piece.append(u)
        pieces.append(sorted(piece))
    return pieces


def subtree_sizes(tree: OrientedTree, root: int) -> tuple[list[int], list[int], list[int]]:
    """(order, parent, size) of `tree` hung at `root`, with parent[root] = -1.

    `order` is a depth-first preorder: each vertex pushes its children in row order and the last
    pushed is visited first, so the subtree below order[i] is the slice order[i : i + size[order[i]]].
    size[v] counts the vertices of the subtree below v, v included.
    """
    und, parent = tree._und, [-1] * tree.n
    order, stack = [], [root]
    while stack:
        v = stack.pop()
        order.append(v)
        p = parent[v]
        for u in und[v]:
            if u != p:
                parent[u] = v
                stack.append(u)
    size = [1] * tree.n
    for v in order[:0:-1]:   # children before parents; the root has no parent to add to
        size[parent[v]] += size[v]
    return order, parent, size


@dataclass(frozen=True)
class TreePiece:
    """A subtree extracted from a host tree, relabeled to dense ids."""

    tree: OrientedTree
    labels: np.ndarray  # piece vertex -> host-tree vertex


def induced_subtrees(tree: OrientedTree, parts) -> list[TreePiece]:
    """Subtrees induced on pairwise disjoint connected vertex sets (sequences or arrays of ids).

    Vertex i of a piece is its part's i-th smallest.  One gather of `edges` keeps the edges with
    both ends in one part; a subforest on k vertices is connected iff it has k - 1 edges, so that
    count is the whole connectivity check.  Each piece lists its edges by tail, then head, and
    `_table` fills its rows, sorted, from its arcs by smaller end, then larger.  An id outside
    0..|T|-1, or one listed twice, is named in a ValueError before any edge is read.
    """
    sizes = list(map(len, parts))
    if 0 in sizes:
        raise ValueError("tree needs at least one vertex")
    if not parts:
        return []
    flat = np.concatenate([np.asarray(p, np.int64) for p in parts])
    for v in (flat.min(), flat.max()):
        if not 0 <= v < tree.n:
            raise ValueError(f"vertex id {v} outside 0..{tree.n - 1}")
    part = np.repeat(np.arange(len(parts)), sizes)
    labels = np.sort(part * tree.n + flat) - part * tree.n   # each part ascending, parts in order
    pos = np.full(tree.n, -1, np.int64)
    pos[labels] = np.arange(len(labels))
    twice = labels[pos[labels] != np.arange(len(labels))]
    if twice.size:
        raise ValueError(f"vertex id {twice[0]} is listed twice: parts must be disjoint connected sets")
    arcs = pos[tree.edges]
    arcs = arcs[np.minimum(arcs[:, 0], arcs[:, 1]) >= 0]
    arcs = arcs[part[arcs[:, 0]] == part[arcs[:, 1]]]   # positions of the edges inside one part
    for k, got in zip(sizes, np.bincount(part[arcs[:, 0]], minlength=len(parts)).tolist()):
        if got != k - 1:
            raise ValueError(f"a tree on {k} vertices needs {k - 1} edges, got {got}")
    arcs = arcs[np.lexsort(arcs.T[::-1])]   # by tail, then head: parts in order, as positions are
    starts = list(accumulate(sizes, initial=0))
    edges = _read_only((arcs - np.repeat(starts[:-1], np.subtract(sizes, 1))[:, None]).astype(np.int32))
    tails, heads = edges[np.lexsort(np.sort(arcs, axis=1).T[::-1])].T.tolist()
    pieces = []
    for i, k in enumerate(sizes):
        a, b = starts[i] - i, starts[i + 1] - i - 1   # the part's rows of `edges`
        sub = OrientedTree._derived(k, edges[a:b], None, *_table(k, zip(tails[a:b], heads[a:b])))
        pieces.append(TreePiece(sub, labels[starts[i]:starts[i + 1]]))
    return pieces


def induced_subtree(tree: OrientedTree, vertices, t: int | None = None) -> TreePiece:
    """The one-part `induced_subtrees`; `t`, one of `vertices`, becomes the piece's distinguished vertex."""
    (piece,) = induced_subtrees(tree, [vertices if isinstance(vertices, np.ndarray) else list(vertices)])
    if t is not None and t not in piece.labels:
        raise ValueError(f"distinguished vertex {t} is not among the induced vertices")
    i = None if t is None else int(np.searchsorted(piece.labels, t))
    return TreePiece(piece.tree.with_t(i), piece.labels)


def split_tree(tree: OrientedTree, m: int, keep: int | None = None):
    """Split into edge-disjoint subtrees T1, T2 sharing one vertex, m <= |T2| <= 2m - 1.

    `keep` (default: tree.t or 0) is a vertex of T1 and piece 1's `t`.  Returns (piece1, piece2,
    shared) with pieces carrying host labels.  The pivot, shared, is the last vertex of the preorder from
    `keep` whose subtree holds m or more, so each of its children's holds fewer.  T2 is the pivot
    plus children's subtrees (preorder slices), smallest first, until they hold m - 1: the last
    one taken starts below m - 1 and adds below m, so |T2| <= 2m - 1.
    """
    if not (1 <= m <= tree.n / 3):
        raise ValueError(f"need 1 <= m <= |T|/3, got m={m}, |T|={tree.n}")
    if keep is not None and not 0 <= keep < tree.n:
        raise ValueError(f"keep vertex {keep} outside 0..{tree.n - 1}")
    root = keep if keep is not None else (tree.t if tree.t is not None else 0)

    order, parent, size = subtree_sizes(tree, root)
    at = next(i for i in range(tree.n - 1, -1, -1) if size[order[i]] >= m)
    pivot = order[at]
    # The pivot's children as visited (highest id first), each with its slice's start.
    children = [u for u in reversed(tree.nbrs(pivot)) if u != parent[pivot]]
    starts = accumulate([size[u] for u in children], initial=at + 1)
    below: list[int] = []   # the vertices of the taken children's subtrees
    for u, i in sorted(zip(children, starts), key=lambda c: (size[c[0]], c[0])):
        if len(below) >= m - 1:
            break
        below += order[i : i + size[u]]
    piece2 = induced_subtree(tree, [pivot, *below])
    piece1 = induced_subtree(tree, np.delete(np.arange(tree.n), below), t=root)
    return piece1, piece2, pivot


FAMILIES = ("uniform", "path", "star", "caterpillar", "spider", "broom")

_IDS = np.arange(1024).astype(object)   # _IDS[v] is the one int object every generated row holds for v


def _ids(n: int) -> np.ndarray:
    """`_IDS`, grown to hold at least n ids; the ids it held keep their objects.

    Two threads that grow it at once may leave one tree with objects outside the table: that
    costs memory, never a value.
    """
    global _IDS
    if len(_IDS) < n:
        _IDS = np.concatenate((_IDS, np.arange(len(_IDS), max(n, 2 * len(_IDS))).astype(object)))
    return _IDS


def gen_random_tree(
    n: int,
    max_semideg: int,
    family: str,
    rng: np.random.Generator,
) -> OrientedTree:
    """Random test tree with Delta^+/- at most max_semideg; `family` is one of FAMILIES.

    uniform: vertex v = 1, ..., n-1 attaches to an earlier vertex u drawn with
    weight equal to u's remaining capacity 2 * max_semideg - d+(u) - d-(u).
    path and star are directed away from vertex 0; caterpillar hangs leaves on
    uniformly drawn open vertices of a spine of max(2, n // 3); spider grows
    legs from vertex 0 round-robin; broom hangs the last 2 * max_semideg
    vertices on the last open vertex of a path.

    uniform's parent is the one rng.choice(feasible, p=cap / total) picks,
    found in O(log n) from exact integer capacities.  With r = rng.random(),
    S_k the capacity sum over 0..k and T = S_{v-1}, the float cdf h_k that
    choice searches is within (2v + 3) 2^-53 of S_k / T: recursive sums of
    non-negative terms, in any order, then one normalising division.  Let
    x = fl(r T), within T 2^-53 of r T.  If M < x - floor(x) < 1 - M with
    M = (v + 2) T 2^-50, every integer is more than M - T 2^-53 >
    (2v + 3) T 2^-53 from r T, so h_k <= r exactly when S_k <= floor(x), and
    searchsorted(h, r, side="right") is the count of those k: one descent
    of a heap of left-half capacity sums, which takes the parent's unit of
    capacity off on its way down.  Later vertices already sit in the heap
    at their first capacity but are never counted, since S_{v-1} = T >
    floor(x).  A step outside the margin searches the float cdf over all v
    vertices, as choice does over the feasible ones (a saturated vertex adds
    0.0 and is never landed on), and descends to S_{parent-1}.

    Random stream: uniform draws one rng.random() per attached vertex and
    caterpillar one rng.integers per leaf; every edge of uniform, caterpillar,
    spider and broom then draws rng.integers(2) for its direction when both
    directions are open at its parent.  path and star draw nothing.  Every
    draw is served by a `draws.reader`, so the trees, the errors and the
    state after the call are those of these scalar calls.  Apart from
    uniform, the parents are fixed by n up to the caterpillar's hung leaves,
    so they are arrays, and so are most directions: a parent whose only
    earlier edge is its own has both directions open iff max_semideg >= 2,
    and at max_semideg = 1 the edge takes the direction of the parent's own
    edge, so a spider leg or a spine follows its first edge.  Only spider's
    root edges, a spine's first edge and the hung vertices take the rule one
    by one.

    Every vertex v >= 1 attaches to an earlier one, and edge v - 1 holds v,
    so each adjacency row (parent first, then children by id) comes out
    sorted and the tree is built without the constructor's checks.  The rows
    of every generated tree hold the objects of `_IDS`, one per vertex id.
    """
    if n < 1:
        raise ValueError("n >= 1")
    if max_semideg < 1:
        raise ValueError("max_semideg >= 1")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n == 1:
        return OrientedTree(1, [], t=0)
    if family == "star" and max_semideg < n - 1:
        raise ValueError(f"star with n={n} needs max_semideg >= {n - 1}")
    if family == "uniform":
        with reader(rng, 3 * n // 2) as draw:
            edges = _uniform_edges(n, max_semideg, draw)
        array = np.fromiter(chain.from_iterable(edges), np.int32, 2 * n - 2).reshape(-1, 2)
    else:
        with reader(rng, n // 2 + 1) as draw:
            parent, forward = _shaped_parents(n, max_semideg, family, draw)
        child, array = np.arange(1, n), np.empty((n - 1, 2), np.int32)
        array[:, 0], array[:, 1] = np.where(forward, parent, child), np.where(forward, child, parent)
    return OrientedTree._derived(n, _read_only(array), 0, *_table(n, zip(*_ids(n)[array.T].tolist())))


def _shaped_parents(n: int, max_semideg: int, family: str, draw) -> tuple[np.ndarray, np.ndarray]:
    """Parent of each v >= 1 and whether its edge leaves the parent, for every family but uniform."""
    v = np.arange(1, n)
    if family in ("path", "star"):
        return (v - 1 if family == "path" else np.zeros_like(v)), np.ones(n - 1, bool)
    if family == "spider":
        legs = min(2 * max_semideg, max(2, int(np.ceil(np.sqrt(n)))), n - 1)
        head = _attach([0], legs, [0], [0], max_semideg, None, draw)[1]
        parent = np.where(v <= legs, 0, v - legs)
    else:  # broom and caterpillar: a path 0..spine-1, then the rest hung on its open vertices
        spine = max(1, n - 2 * max_semideg) if family == "broom" else max(2, n // 3)
        head = [draw.below(2) == 1] if spine > 1 else []   # vertex 0 has no edge yet
        parent = np.arange(spine - 1)
    # Each edge past `head` hangs from a parent whose only earlier edge is its own, len(head) edges back.
    head, k = np.array(head, bool), len(parent)
    forward = np.resize(head, k) if max_semideg == 1 else np.concatenate((head, draw.bits(k - len(head))))
    if family != "spider":
        out = np.bincount(np.where(forward, parent, parent + 1), minlength=spine)
        in_ = np.bincount(np.where(forward, parent + 1, parent), minlength=spine)
        open_ = np.flatnonzero(out + in_ < 2 * max_semideg).tolist()
        # rng.choice(open_), the caterpillar's pick, is open_[rng.integers(len(open_))].
        pick = None if family == "broom" else lambda open_: draw.below(len(open_))
        hung, hung_forward = _attach(open_, n - spine, out.tolist(), in_.tolist(), max_semideg, pick, draw)
        parent, forward = np.concatenate((parent, hung)), np.concatenate((forward, hung_forward))
    return parent, forward


def _attach(open_: list[int], k: int, out: list, in_: list, max_semideg: int, pick, draw) -> tuple[list, list]:
    """Parents and directions of k vertices hung one by one on open_[pick(open_)], or on open_[-1].

    A hung vertex leaves its parent (True) or enters it by a coin when both directions are open
    there, else by the open one; a full parent leaves `open_`, and `out` and `in_`, the degrees,
    are kept up to date.
    """
    parents, forward = [], []
    for _ in range(k):
        if not open_:
            raise ValueError("family/degree combination infeasible")
        i = pick(open_) if pick else -1
        u = open_[i]
        f = out[u] < max_semideg and (in_[u] == max_semideg or bool(draw.below(2)))
        out[u], in_[u] = out[u] + f, in_[u] + (not f)
        parents.append(u)
        forward.append(f)
        if out[u] + in_[u] == 2 * max_semideg:
            del open_[i]
    return parents, forward


def _uniform_edges(n: int, max_semideg: int, draw) -> list[tuple[int, int]]:
    """The arcs of a uniform tree (edge v - 1 holds vertex v), drawn from the reader `draw`."""
    full, out_deg, in_deg, edges = 2 * max_semideg, [0] * n, [0] * n, []
    # left[i]: the capacity of the left half of heap node i's vertices; node i
    # has children 2i and 2i + 1, and leaf size + u is vertex u.  A vertex
    # still to attach counts full - 1.
    size = 1 << (n - 1).bit_length()
    cap = np.zeros(size, np.int64)
    cap[:n], cap[0] = full - 1, full
    halves = []
    while len(cap) > 1:
        halves.append(cap[::2])
        cap = cap[::2] + cap[1::2]
    left = np.concatenate([[0], *halves[::-1]]).tolist()
    total, random, below, append = full, draw.random, draw.below, edges.append
    for v in range(1, n):
        r = random()
        x = r * total
        low = int(x)
        margin = (v + 2) * total * 2.0**-50
        if not margin < x - low < 1 - margin:
            head = (full - np.add(out_deg[:v], in_deg[:v])) / total
            np.add.accumulate(head, out=head)   # cumsum without its wrappers
            head /= head[-1]
            parent = int(head.searchsorted(r, side="right"))
            low = full * parent - sum(out_deg[:parent]) - sum(in_deg[:parent])
        node = 1
        while node < size:
            c = left[node]
            if low < c:
                left[node] = c - 1
                node += node
            else:
                low -= c
                node += node + 1
        parent = node - size
        # A parent with capacity left has a direction open.
        if in_deg[parent] == max_semideg or out_deg[parent] < max_semideg and below(2):
            append((parent, v))
            out_deg[parent] += 1
            in_deg[v] = 1
        else:
            append((v, parent))
            out_deg[v] = 1
            in_deg[parent] += 1
        total += full - 2
    return edges


def canonical_children(order: PrefixOrdering) -> list[str]:
    """The signed canonical strings of the children of order.order[0], sorted.

    A vertex's string is "(" + its children's signed strings, sorted, + ")",
    a child signed "-" when it lies in N^-(parent).  One pass over the
    reversed order finishes children first, with no recursion, and drops
    each string once read, so memory stays O(n).
    """
    kids: list[list[str]] = [[] for _ in order.order]
    plus, sign = Sign.PLUS, order.sign
    for i in range(len(order) - 1, 0, -1):   # an identity test: Enum hashing is a Python-level call
        kids[order.parent_index[i]].append(("+(" if sign[i] is plus else "-(") + "".join(sorted(kids[i])) + ")")
        kids[i] = []
    return sorted(kids[0])


def canonical_forms(tree: OrientedTree, roots: list[int]) -> list[str]:
    """The canonical string of `tree` rooted at each r in `roots`.

    `roots` is one vertex or two adjacent ones (a tree's two centroids); any
    other `roots` raises a ValueError.  For two, the edge between them splits
    the tree into two halves, each of whose strings is formed once; each
    root's string is its own half's children plus the other half's top
    string, signed as the root sees it, as one more child.
    """
    if len(roots) not in (1, 2):
        raise ValueError(f"need one root or two adjacent roots, got {list(roots)}")
    for r in roots:
        if not 0 <= r < tree.n:
            raise ValueError(f"root {r} outside 0..{tree.n - 1}")
    if len(roots) == 1:
        return [f"({''.join(canonical_children(prefix_order(tree, roots[0])))})"]
    r, s = roots
    if s not in tree.nbrs(r):
        raise ValueError(f"root {s} is not adjacent to root {r}")
    kids = [canonical_children(prefix_order(tree, a, above=b)) for a, b in ((r, s), (s, r))]
    tops = [f"{tree.edge_sign(s, r)}({''.join(kids[0])})", f"{tree.edge_sign(r, s)}({''.join(kids[1])})"]
    return [f"({''.join(sorted(kids[0] + [tops[1]]))})", f"({''.join(sorted(kids[1] + [tops[0]]))})"]
