"""Oriented trees: representation, orderings, generators, structural helpers.

A tree is stored with dense vertex ids 0..n-1 and an explicit list of
directed edges (tail, head).  Orientation never affects connectivity
arguments, so underlying-degree machinery works on the undirected shadow.

Only `OrientedTree(n, edges, t)` sorts and validates an edge list.  Trees
derived from a valid tree skip that work: `with_t` shares its parent's edge
list and sorted adjacency tuples, and `induced_subtree` filters them through
the (monotone) relabelling, which keeps every list sorted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .digraph import Sign


class OrientedTree:
    """Immutable tree whose edges carry an orientation."""

    __slots__ = ("n", "edge_list", "t", "_out", "_in", "_und")

    def __init__(self, n: int, edges, t: int | None = None):
        if n < 1:
            raise ValueError("tree needs at least one vertex")
        edge_list = [(int(u), int(v)) for u, v in edges]
        if len(edge_list) != n - 1:
            raise ValueError(f"a tree on {n} vertices needs {n - 1} edges, got {len(edge_list)}")
        if t is not None and not (0 <= t < n):
            raise ValueError(f"distinguished vertex {t} out of range")
        out: list[list[int]] = [[] for _ in range(n)]
        in_: list[list[int]] = [[] for _ in range(n)]
        und: list[list[int]] = [[] for _ in range(n)]
        for u, v in edge_list:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u},{v})")
            out[u].append(v)
            in_[v].append(u)
            und[u].append(v)
            und[v].append(u)
        for rows in (out, in_, und):
            any(map(list.sort, rows))   # sorts every row in place (list.sort returns None)
        self.n = n
        self.edge_list = tuple(edge_list)
        self.t = t
        self._out, self._in, self._und = (tuple(map(tuple, rows)) for rows in (out, in_, und))
        self._check_connected()

    @classmethod
    def _derived(cls, n: int, edge_list: tuple, t: int | None, out: tuple, in_: tuple, und: tuple):
        """A tree from parts already known to form a valid tree; nothing is re-checked."""
        tree = cls.__new__(cls)
        tree.n, tree.edge_list, tree.t = n, edge_list, t
        tree._out, tree._in, tree._und = out, in_, und
        return tree

    def _check_connected(self) -> None:
        seen = [False] * self.n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            v = stack.pop()
            for u in self._und[v]:
                if not seen[u]:
                    seen[u] = True
                    count += 1
                    stack.append(u)
        if count != self.n:
            raise ValueError("edges do not form a connected tree")

    def out(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def in_(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def nbrs(self, v: int) -> tuple[int, ...]:
        return self._und[v]

    def adj(self, v: int, sign: Sign) -> tuple[int, ...]:
        return self._out[v] if sign is Sign.PLUS else self._in[v]

    def degree(self, v: int) -> int:
        return len(self._und[v])

    def edge_sign(self, u: int, v: int) -> Sign:
        """Sign s with v in N^s(u); requires u, v adjacent."""
        if v in self._out[u]:
            return Sign.PLUS
        if v in self._in[u]:
            return Sign.MINUS
        raise ValueError(f"{u} and {v} are not adjacent")

    def leaves(self) -> list[int]:
        return [v for v in range(self.n) if len(self._und[v]) == 1]

    def with_t(self, t: int | None) -> "OrientedTree":
        """The same tree with distinguished vertex t; shares this tree's adjacency."""
        if t is not None and not (0 <= t < self.n):
            raise ValueError(f"distinguished vertex {t} out of range")
        return OrientedTree._derived(self.n, self.edge_list, t, self._out, self._in, self._und)

    def __len__(self) -> int:
        return self.n


def max_semidegree(tree: OrientedTree) -> tuple[int, int]:
    """(max out-degree, max in-degree)."""
    return max(map(len, tree._out)), max(map(len, tree._in))


@dataclass(frozen=True)
class PrefixOrdering:
    """Vertex order where every prefix induces a subtree.

    order[0] is the root; for i >= 1, order[i] attaches to
    order[parent_index[i]] (its unique neighbor among earlier vertices),
    and sign[i] is the direction: order[i] in N^{sign[i]}(parent).
    """

    order: tuple[int, ...]
    parent_index: tuple[int, ...]   # parent_index[0] == -1
    sign: tuple[Sign | None, ...]   # sign[0] is None

    def __len__(self) -> int:
        return len(self.order)


def prefix_order(tree: OrientedTree, root: int, policy: str = "any") -> PrefixOrdering:
    """Order the tree so every prefix is connected.

    Policies:
      * "any": depth-first preorder from the root.
      * "leaves_last_middles_consecutive": all non-root leaves occupy a
        suffix; interior degree-2 runs (bare-path interiors) are traversed
        consecutively, so the middle 3 vertices of any length-6 bare path
        are consecutive in the order.
    """
    if policy not in ("any", "leaves_last_middles_consecutive"):
        raise ValueError(f"unknown policy {policy!r}")
    if not (0 <= root < tree.n):
        raise ValueError("root out of range")

    # open_[u]: u may still be placed by the search.  Each placed vertex
    # records its parent's position and the sign of the edge from it.
    und, out = tree._und, tree._out
    if policy == "any":
        open_ = [True] * tree.n
    else:
        is_leaf = [len(nb) == 1 for nb in und]
        open_ = [not leaf for leaf in is_leaf]
    open_[root] = False
    order = [root]
    parent_index: list[int] = [-1]
    signs: list[Sign | None] = [None]
    stack = [0]
    while stack:
        i = stack.pop()
        v = order[i]
        out_v = out[v]
        for u in reversed(und[v]):
            if open_[u]:
                open_[u] = False
                stack.append(len(order))
                order.append(u)
                parent_index.append(i)
                signs.append(Sign.PLUS if u in out_v else Sign.MINUS)
    if policy != "any":
        # Every non-root leaf goes last, after its one neighbour.
        pos = {v: i for i, v in enumerate(order)}
        for v in range(tree.n):
            if is_leaf[v] and v != root:
                parent = und[v][0]
                order.append(v)
                parent_index.append(pos[parent])
                signs.append(Sign.PLUS if v in out[parent] else Sign.MINUS)
    return PrefixOrdering(tuple(order), tuple(parent_index), tuple(signs))


def find_independent_leaves(tree: OrientedTree, deg=None) -> list[int]:
    """Greedy maximal set of leaves, no two sharing a neighbor (by vertex id).

    With `deg`, the leaves are those of a subtree of at least two vertices:
    deg[v] is v's degree inside it, and 0 for a vertex outside it.
    """
    if tree.n < 2:
        raise ValueError("need at least two vertices")
    if deg is None:
        deg = list(map(len, tree._und))
    used_nbrs: set[int] = set()
    chosen = []
    for v in range(tree.n):
        if deg[v] == 1:
            nb = next(u for u in tree.nbrs(v) if deg[u])
            if nb not in used_nbrs:
                chosen.append(v)
                used_nbrs.add(nb)
    return chosen


@dataclass(frozen=True)
class BarePath:
    """Path whose interior vertices all have underlying degree 2 in the host tree."""

    vertices: tuple[int, ...]

    @property
    def interior(self) -> tuple[int, ...]:
        return self.vertices[1:-1]

    def __len__(self) -> int:
        return len(self.vertices) - 1


def maximal_bare_paths(tree: OrientedTree) -> list[list[int]]:
    """Maximal paths of degree-2 interior vertices between leaves/branch vertices.

    Paths may share endpoints (branch vertices) but never interior vertices.
    A cycle-free degree-2 tree (a path) yields one maximal path.
    """
    if tree.n <= 2:
        return [[v for v in range(tree.n)]] if tree.n == 2 else []
    stop = [tree.degree(v) != 2 for v in range(tree.n)]
    paths = []
    seen_interior = [False] * tree.n
    for v in range(tree.n):
        if not stop[v]:
            continue
        for u in tree.nbrs(v):
            # Edges between two stop vertices have no interior and never
            # yield a cuttable segment; interior chains are walked once.
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


def find_bare_paths(tree: OrientedTree, m: int) -> list[BarePath]:
    """Vertex-disjoint bare paths of length exactly m.

    Removing their interiors leaves at most 6*m*t + 2|T|/(m+1) vertices,
    where t is the leaf count.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    chosen: list[BarePath] = []
    used = np.zeros(tree.n, dtype=bool)
    for walk in maximal_bare_paths(tree):
        a = 0
        while a + m < len(walk):
            seg = walk[a : a + m + 1]
            if not any(used[v] for v in seg):
                chosen.append(BarePath(tuple(seg)))
                for v in seg:
                    used[v] = True
                a += m + 1
            else:
                a += 1
    return chosen


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


def subtree_sizes(tree: OrientedTree, root: int) -> tuple[list[int], list[int]]:
    """(parent, size) of `tree` hung at `root`, with parent[root] = -1.

    size[v] counts the vertices of the subtree below v, v included.
    """
    parent = [-1] * tree.n
    order = [root]
    for v in order:
        for u in tree.nbrs(v):
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    size = [1] * tree.n
    for v in reversed(order):
        if parent[v] >= 0:
            size[parent[v]] += size[v]
    return parent, size


@dataclass(frozen=True)
class TreePiece:
    """A subtree extracted from a host tree, relabeled to dense ids."""

    tree: OrientedTree
    labels: np.ndarray  # piece vertex -> host-tree vertex


def induced_subtree(tree: OrientedTree, vertices, t: int | None = None) -> TreePiece:
    """Subtree induced on `vertices` (must be connected), dense-relabelled.

    Vertex i of the piece is the i-th smallest of `vertices`.  The relabelling
    is monotone, so filtering the parent's sorted adjacency keeps it sorted.
    A subforest of a tree on k vertices is connected iff it has k - 1 edges,
    so the constructor's edge count is the whole connectivity check.  An id
    outside 0..|T|-1 is named in a ValueError before any adjacency is read.
    """
    verts = sorted(int(v) for v in vertices)
    for v in verts[:1] + verts[-1:]:
        if not 0 <= v < tree.n:
            raise ValueError(f"vertex id {v} outside 0..{tree.n - 1}")
    index = {v: i for i, v in enumerate(verts)}
    if t is not None and t not in index:
        raise ValueError(f"distinguished vertex {t} is not among the induced vertices")
    local_t = index[t] if t is not None else None
    k = len(verts)
    if k == 0 or len(index) != k:
        # Empty or duplicate ids: the general constructor reports them.
        edges = [(index[u], index[w]) for u in verts for w in tree.out(u) if w in index]
        return TreePiece(OrientedTree(k, edges, t=local_t), np.asarray(verts, dtype=np.int64))
    out = tuple([tuple([index[w] for w in tree._out[v] if w in index]) for v in verts])
    edge_list = tuple([(i, w) for i, heads in enumerate(out) for w in heads])
    if len(edge_list) != k - 1:
        raise ValueError(f"a tree on {k} vertices needs {k - 1} edges, got {len(edge_list)}")
    in_ = tuple([tuple([index[w] for w in tree._in[v] if w in index]) for v in verts])
    und = tuple([tuple([index[w] for w in tree._und[v] if w in index]) for v in verts])
    sub = OrientedTree._derived(k, edge_list, local_t, out, in_, und)
    return TreePiece(sub, np.asarray(verts, dtype=np.int64))


def split_tree(tree: OrientedTree, m: int, keep: int | None = None):
    """Split into edge-disjoint subtrees T1, T2 sharing one vertex, m <= |T2| <= 3m.

    `keep` (default: tree.t or 0) is guaranteed to be a vertex of T1.
    Returns (piece1, piece2, shared) with pieces carrying host labels.
    """
    if not (1 <= m <= tree.n / 3):
        raise ValueError(f"need 1 <= m <= |T|/3, got m={m}, |T|={tree.n}")
    root = keep if keep is not None else (tree.t if tree.t is not None else 0)

    parent, size = subtree_sizes(tree, root)

    # Deepest vertex with subtree size >= m; all its children subtrees are < m.
    pivot = root
    progressed = True
    while progressed:
        progressed = False
        for u in tree.nbrs(pivot):
            if u != parent[pivot] and size[u] >= m:
                pivot = u
                progressed = True
                break

    children = sorted(
        (u for u in tree.nbrs(pivot) if u != parent[pivot]),
        key=lambda u: size[u],
    )
    below: list[int] = []   # the taken children, then every vertex under them
    total = 0
    for u in children:
        if total >= m - 1:
            break
        below.append(u)
        total += size[u]

    # T2 is the pivot plus the subtrees of the taken children; T1 is the
    # rest, which holds the root and the pivot.
    for v in below:
        below.extend(u for u in tree._und[v] if u != parent[v])
    in_below = set(below)
    piece2 = induced_subtree(tree, [pivot, *below])
    piece1 = induced_subtree(tree, [v for v in range(tree.n) if v not in in_below], t=root)
    return piece1, piece2, pivot


FAMILIES = ("uniform", "path", "star", "caterpillar", "spider", "broom")


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

    Random stream: uniform draws one rng.random() per attached vertex and
    caterpillar one rng.integers per leaf; every edge of uniform, caterpillar,
    spider and broom then draws rng.integers(2) for its direction when both
    directions are open at its parent.  path and star draw nothing.
    """
    if n < 1:
        raise ValueError("n >= 1")
    if max_semideg < 1:
        raise ValueError("max_semideg >= 1")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n == 1:
        return OrientedTree(1, [], t=0)

    full = 2 * max_semideg
    out_deg = [0] * n
    in_deg = [0] * n
    edges: list[tuple[int, int]] = []

    def orient(parent: int, child: int) -> bool:
        """Attach child to parent in a random feasible direction; True if parent is now full."""
        can_out = out_deg[parent] < max_semideg
        can_in = in_deg[parent] < max_semideg
        if not (can_out or can_in):
            raise ValueError("family/degree combination infeasible")
        forward = bool(rng.integers(2)) if can_out and can_in else can_out
        if forward:
            edges.append((parent, child))
            out_deg[parent] += 1
            in_deg[child] += 1
        else:
            edges.append((child, parent))
            out_deg[child] += 1
            in_deg[parent] += 1
        return out_deg[parent] + in_deg[parent] == full

    def hang(spine: int, pick) -> None:
        """Hang vertices spine..n-1 on open vertices of 0..spine-1, chosen by pick(open)."""
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
        # cap[u] is u's remaining capacity, 0 exactly when u is saturated, and
        # total its exact sum over 0..v-1.  This is the float computation of
        # rng.choice(feasible, p=cap[feasible] / total): a zero entry adds 0.0
        # to the cumsum and side="right" never lands on it, so the same draw
        # picks the same parent.
        cap = np.zeros(n)
        cdf = np.empty(n)
        cap[0] = total = full
        for v in range(1, n):
            head = cdf[:v]
            np.divide(cap[:v], total, out=head)
            np.add.accumulate(head, out=head)   # cumsum without its wrappers
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
        # rng.choice(open_) is open_[rng.integers(len(open_))].
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
    else:  # broom
        handle = max(1, n - full)
        for v in range(handle - 1):
            orient(v, v + 1)
        hang(handle, lambda open_: len(open_) - 1)

    tree = OrientedTree(n, edges, t=0)
    dplus, dminus = max_semidegree(tree)
    if family != "star" and (dplus > max_semideg or dminus > max_semideg):
        raise ValueError("family/degree combination infeasible")
    return tree


def canonical_rooted_form(tree: OrientedTree, root: int) -> str:
    """Canonical string: equal iff rooted-oriented-isomorphic (AHU with signs)."""
    form, _ = canonical_form_and_order(tree, root)
    return form


def canonical_form_and_order(tree: OrientedTree, root: int) -> tuple[str, list[int]]:
    """Canonical string of `tree` rooted at `root`, and its canonical traversal order.

    A vertex's string is "(" + its children's signed strings, sorted, + ")";
    the order is the preorder visiting children in that sorted order, ties in
    ascending id.  Isomorphic pairs' orders correspond position-wise.  Children
    are finished before their parents in one loop over a breadth-first order,
    so the depth of the tree is not limited by the interpreter's stack.
    """
    return canonical_forms_and_orders(tree, [root])[0]


def canonical_forms_and_orders(tree: OrientedTree, roots: list[int]) -> list[tuple[str, list[int]]]:
    """`canonical_form_and_order(tree, r)` for each r in `roots`, from one pass.

    `roots` is one vertex or two adjacent ones (a tree's two centroids).  For
    two, the edge between them splits the tree into two halves, each of
    whose strings is formed once; each root's string is its own half's
    children plus the other half's top string as one more child.
    """
    # Each root is the other's parent, so the search covers the two halves
    # and no string crosses the edge between them.
    parent = [-1] * tree.n
    if len(roots) == 2:
        parent[roots[0]], parent[roots[1]] = roots[1], roots[0]
    bfs = list(roots)
    for v in bfs:
        for u in tree._und[v]:
            if u != parent[v]:
                parent[u] = v
                bfs.append(u)
    form: list[str | None] = [None] * tree.n
    kids: list[list[int]] = [[]] * tree.n
    half_items: dict[int, list[tuple[str, int]]] = {}
    for v in reversed(bfs):
        out_v = tree._out[v]
        # Children come in ascending id, so sorting by (string, id) is the
        # stable sort by string.
        items = sorted(
            [(("+" if u in out_v else "-") + form[u], u) for u in tree._und[v] if u != parent[v]]
        )
        form[v] = "(" + "".join([f for f, _ in items]) + ")"
        kids[v] = [u for _, u in items]
        for u in kids[v]:
            form[u] = None  # each string is read once; keeps memory O(n)
        if v in roots:
            half_items[v] = items
    if len(roots) == 1:
        return [(form[roots[0]], _preorder(kids, roots[0]))]
    out = []
    for r, s in (roots, roots[::-1]):
        items = sorted(half_items[r] + [(("+" if s in tree._out[r] else "-") + form[s], s)])
        half_kids, kids[r] = kids[r], [u for _, u in items]
        out.append(("(" + "".join([f for f, _ in items]) + ")", _preorder(kids, r)))
        kids[r] = half_kids
    return out


def _preorder(kids: list[list[int]], root: int) -> list[int]:
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(kids[v]))
    return order
