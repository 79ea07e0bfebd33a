"""Embedding phases: guided core, star attachment, path attachment,
almost-spanning assembly, and absorption feeding the spanning pipeline.

Every probabilistic step follows the Las Vegas discipline: attempt, audit
the postcondition exactly, resample on failure within a retry budget.
Returned embeddings are always verified.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .decompose import DecompositionError, PathPiece, TreeDecomposition, decompose
from .digraph import (
    ROW_BLOCK,
    SIGNS,
    Digraph,
    Sign,
    _cut,
)
from .embedding import (
    Embedding,
    PipelineError,
    VerificationError,
    draw_host,
    greedy_walk,
    image_is_embedding,
)
from .guides import GuideBuildError, GuideSystem
from .matching import (
    ForestEmbedError,
    _arc_rows,
    covering_matching,
    embed_small_forest,
    embed_tree_copies,  # noqa: F401 -- perfbench/spans.py probes this name here
    walk_lean_pieces,
)
from .params import ParamSchedule
from .trees import (
    OrientedTree,
    PrefixOrdering,
    TreePiece,
    canonical_children,
    induced_subtrees,
    max_semidegree,
    prefix_order,
    split_tree,
)


class PhaseFailure(PipelineError):
    """A pipeline phase exhausted its retry budget."""

    def __init__(self, phase: str, cause: str, message: str, attempts: int = 0, fixed: bool = False):
        super().__init__(f"{phase} failed after {attempts} attempt(s) [{cause}]: {message}", cause)
        self.phase = phase
        self.attempts = attempts
        self.fixed = fixed


def _retry(phase: str, attempts: int, once, log: list | None = None):
    """The one Las Vegas loop: the first result of `once()` within `attempts` tries.

    A try raising a PipelineError is resampled, its (phase, cause, message)
    appended to `log` (a PhaseFailure's own phase, else `phase`): not the
    exception, whose traceback would keep the try's frames and hosts alive.
    A PhaseFailure of `phase` itself passes through; a failure marked
    `fixed` (decided by the inputs before any draw, as a decomposition is)
    or a spent budget ends the loop in a PhaseFailure of `phase` with the
    last try's cause and the number of tries made.
    """
    if attempts < 1:
        raise ValueError(f"{phase}: retry budget must be at least 1, got {attempts}")
    log = [] if log is None else log
    for tries in range(1, attempts + 1):
        try:
            return once()
        except PipelineError as exc:
            if exc.phase == phase:
                raise
            log.append((exc.phase or phase, exc.cause, str(exc)))
            if exc.fixed:
                break
    raise PhaseFailure(phase, *log[-1][1:], attempts=tries)


def _forest_order(tree: OrientedTree, core: set[int], anchor: int):
    """Prefix order of the core set: anchor's component first, roots by id.

    Yields (vertex, parent_or_None, sign_or_None) with every parent earlier.
    """
    seen: set[int] = set()
    out: list[tuple[int, int | None, Sign | None]] = []

    def walk(root: int) -> None:
        seen.add(root)
        out.append((root, None, None))
        stack = [root]
        while stack:
            v = stack.pop()
            for u in tree.nbrs(v):
                if u in core and u not in seen:
                    seen.add(u)
                    out.append((u, v, tree.edge_sign(v, u)))
                    stack.append(u)

    walk(anchor)
    for v in sorted(core):
        if v not in seen:
            walk(v)
    return out


def embed_core_with_leaf_sets(
    d: Digraph, tree: OrientedTree, core: set[int], leaf_parts: list[tuple[list[int], Sign]],
    s: int, guides: GuideSystem, rng: np.random.Generator,
) -> Embedding:
    """Randomly embed the core into V0 via guide draws, then match each leaf part.

    V0 is `guides.v0_mask`; `guides.parts[j]` hosts leaf part j.  The tree
    anchor (tree.t) goes to `s`.  Each non-anchor core vertex is drawn uniformly
    from the unused part of the guide set keyed by its parent's image; each
    leaf of part j is matched inside V_j along the guide-graph rows of the
    embedded vertices (anchor and stray component roots fall back to plain
    host adjacency rows, since no guide produced them).  Every vertex of
    part j must hang on the core by one edge of sign leaf_parts[j][1].
    """
    anchor = tree.t
    v0_free = guides.v0_mask.copy()
    if anchor not in core:
        raise ValueError(f"tree anchor {anchor} is not a core vertex")
    if not 0 <= s < d.n:
        raise ValueError(f"anchor host {s} outside 0..{d.n - 1}")
    if not v0_free[int(s)]:
        raise ValueError(f"anchor host {s} is not in V0")

    host_of: dict[int, int] = {}   # core vertex -> host
    provenance: dict[int, tuple] = {}

    for vertex, parent, sign in _forest_order(tree, core, anchor):
        if vertex == anchor:
            host = int(s)
        elif parent is None:
            host = draw_host(v0_free, rng)
            if host is None:
                raise GuideBuildError("V0 exhausted while placing component roots")
        else:
            entry = guides.get(host_of[parent], sign)
            host = draw_host(v0_free, rng, order=entry.guide)
            if host is None:
                raise GuideBuildError(
                    f"guide set exhausted at (v={host_of[parent]}, {sign}) "
                    f"after {len(host_of)} core draws"
                )
            provenance[vertex] = (entry, host)
        host_of[vertex] = host
        v0_free[host] = False

    vertices, hosts = [np.fromiter(host_of, np.int64)], [np.fromiter(host_of.values(), np.int64)]
    for j, (part_vertices, circ) in enumerate(leaf_parts):
        cols = guides.parts[j]
        parent_of: list[int] = []
        for u in part_vertices:
            parents = [w for w in tree.nbrs(u) if w in core]
            if len(parents) != 1 or tree.edge_sign(parents[0], u) is not circ:
                raise ValueError(
                    f"leaf part {j}: vertex {u} must hang on the core by one {circ} edge"
                )
            parent_of.append(parents[0])
        # Each guided parent's row is read, and audited, once per part.
        multiplicity = Counter(parent_of)
        guided = [p for p in multiplicity if p in provenance]
        read = dict(zip(guided, guides.rows([provenance[p] for p in guided], circ, cols)))
        rows = np.zeros((len(part_vertices), len(cols)), dtype=bool)
        for r, p in enumerate(parent_of):
            # A guide row thinner than the parent's leaf count in this part
            # cannot host all its leaves; widen to host adjacency (still
            # host edges, only the steering is lost).
            row = read.get(p)
            if row is None or int(row.sum()) < multiplicity[p]:
                row = d.adj_row(host_of[p], circ)[cols]
            rows[r] = row
        vertices.append(np.array(part_vertices, dtype=np.int64))
        hosts.append(cols[covering_matching(rows, what=f"leaf part {j}")])
    return Embedding.of(np.concatenate(vertices), np.concatenate(hosts),
                        ["core"] * len(host_of) + ["leafset"] * sum(map(len, vertices[1:])))


@dataclass(frozen=True)
class StarComponent:
    """One tree hanging on the core by a single edge."""

    attach: int                # core vertex it hangs on
    root: int                  # component vertex adjacent to attach
    sign: Sign                 # root in N^sign(attach)
    vertices: tuple[int, ...]  # the whole component, root included


def stars_from_decomposition(td: TreeDecomposition) -> list[StarComponent]:
    """The star trees by attach vertex, then by smallest vertex: at v, each
    stripped tree of v's hang, rooted at its hang root."""
    out = []
    for v, hang in sorted(td.stars.items()):
        found: dict[int, list[int]] = {}
        for u in hang:   # ascending, so each tree comes in at its smallest vertex
            found.setdefault(td.hang_root[u], []).append(u)
        out += [StarComponent(v, u, td.tree.edge_sign(v, u), tuple(piece)) for u, piece in found.items()]
    return out


def embed_stars(
    d: Digraph, tree: OrientedTree, tprime: set[int], stars: list[StarComponent], t: int, v: int,
    params: ParamSchedule, rng: np.random.Generator,
) -> Embedding:
    """Embed T' plus all its edge-attached star trees, anchoring t to v.

    Single-vertex stars (the bulk) are matched through guide-graph leaf
    parts, one per attach sign.  The rest are walked greedily from their
    attach images into a shared pool, with their leaves batch-matched.
    """
    if not 0 <= v < d.n:
        raise ValueError(f"anchor host {v} outside 0..{d.n - 1}")
    layout = _star_layout(d, tree, tprime, stars)
    return _retry(
        "stars", params.retries,
        lambda: _embed_stars_once(d, tree, tprime, layout, t, v, rng),
    )


@dataclass(frozen=True)
class _StarLayout:
    """The leaf parts, lean pieces, host-set sizes and guide budget of one embed_stars call."""

    parts: list[tuple[list[int], Sign]]
    lean: list[tuple[StarComponent, PrefixOrdering]]   # each with its leaves-last order, in tree ids
    sizes: list[int]   # |V0|, the leaf parts, the pool
    alpha_hat: float   # measured semidegree excess delta^0(D)/n - 1/2
    mu_count: int      # guide-set size inside V0


def _star_layout(
    d: Digraph, tree: OrientedTree, tprime: set[int], stars: list[StarComponent],
) -> _StarLayout:
    """Split the stars into leaf parts and lean pieces, size the host sets and the guides.

    Depends on the inputs alone and draws no random numbers, so a layout
    that leaves V0 too small, or a guide budget too small for the core, is
    reported once rather than resampled.
    """
    n = d.n
    singles = [st for st in stars if len(st.vertices) == 1]
    multis = [st for st in stars if len(st.vertices) > 1]

    # Leaf parts: singleton leaves split by sign.  A sign too small to feed
    # a matching reliably (guide rows hit a tiny part too rarely) goes
    # through the shared pool instead, as do the multi-vertex stars.  A
    # part of u roots gets floor((1 + part_slack) u) + part_pad hosts.
    part_min = 10
    part_slack = 0.10
    part_pad = 6
    parts: list[tuple[list[int], Sign]] = []
    lone: list[StarComponent] = []
    for sign in SIGNS:
        batch = [st for st in singles if st.sign is sign]
        if len(batch) >= part_min:
            parts.append(([st.root for st in batch], sign))
        else:
            lone += batch
    # Each piece is read off the tree, hanging at its root away from its
    # attach vertex.  Multi-vertex stars follow in a stable sort by (rooted
    # canonical string, attach sign); the walk order fixes the RNG stream.
    lean = [(st, prefix_order(tree, st.root, "leaves_last_middles_consecutive", above=st.attach))
            for st in lone + multis]
    lean[len(lone):] = sorted(lean[len(lone):], key=lambda member: (
        "(" + "".join(canonical_children(member[1])) + ")", str(member[0].sign)))

    part_sizes = [int(math.floor((1 + part_slack) * len(batch))) + part_pad for batch, _ in parts]

    lean_total = sum(len(st.vertices) for st, _order in lean)
    pool_size = (
        lean_total + max(part_pad, math.ceil(0.06 * lean_total))
        if lean
        else 0
    )

    core_size = len(tprime)
    v0_size = n - sum(part_sizes) - pool_size
    if v0_size < core_size + 3:
        raise PhaseFailure(
            "stars", "guide-build",
            f"V0 would hold {v0_size} vertices for a core of {core_size}", attempts=1,
        )

    # Guide budget: the guide set must outlast the core draws comfortably.
    alpha_hat = d.alpha_hat
    mu_count = min(
        core_size + max(6, core_size // 2),
        int(math.floor(0.8 * (0.5 + max(alpha_hat, 0.0)) * v0_size)),
    )
    if mu_count < core_size + 2:
        raise PhaseFailure(
            "stars", "guide-build",
            f"guide budget {mu_count} cannot cover a core of {core_size} in |V0|={v0_size}",
            attempts=1,
        )
    sizes = [v0_size] + part_sizes + [pool_size]
    return _StarLayout(parts, lean, sizes, alpha_hat, mu_count)


def _embed_stars_once(
    d: Digraph, tree: OrientedTree, tprime: set[int], layout: _StarLayout, t: int, v: int,
    rng: np.random.Generator,
) -> Embedding:
    n = d.n
    parts, lean = layout.parts, layout.lean
    sets = _parts_holding(d, layout.sizes, rng, None, v, 60)
    if sets is None:
        raise GuideBuildError(f"anchor {v} never landed in V0 across 60 partitions")
    guides = GuideSystem(d, sets[0], sets[1 : 1 + len(parts)], layout.mu_count)

    core_tree = tree if tree.t == t else tree.with_t(t)
    emb = embed_core_with_leaf_sets(d, core_tree, tprime, parts, v, guides, rng)

    # Lean stars: greedy walk from the attach image, leaves batch-matched.
    # Candidates are read in the iteration order of a set of the pool's
    # hosts, which fixes the RNG stream of these draws.
    if lean:
        pool = sets[-1]
        free = np.zeros(n, dtype=bool)
        free[pool] = True
        images = walk_lean_pieces(
            d, [(order, (emb[st.attach], st.sign)) for st, order in lean], free, rng, "lean star leaves",
            host_order=np.fromiter(set(int(x) for x in pool), dtype=np.int64),
        )
        vertices, hosts = emb.arrays()
        lean_vertices = [v for _st, order in lean for v in order.order]
        emb = Embedding.of(np.concatenate((vertices, lean_vertices)), np.concatenate((hosts, *images)),
                           [*emb.phase.values()] + ["stars"] * len(lean_vertices))
    return emb


def attach_path_trees(
    d: Digraph, tree: OrientedTree, pieces: list[PathPiece], anchors: list[tuple[int, int]],
    params: ParamSchedule, rng: np.random.Generator, pool: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Embed each piece's mids and body, its anchors x and y at prescribed hosts.

    anchors[i] = (a_i, b_i) hosts pieces[i].x and pieces[i].y.  Returns two
    int64 arrays: the tree ids of every piece's added vertices (the bodies,
    then each piece's mid_x and mid_y) and their hosts.  The bodies
    are embedded as a small forest away from a sampled buffer B; each mid is
    then drawn inside B from the intersection of its anchor's and its body
    neighbour's neighborhoods.  Inducing the bodies, reading the mids' edges
    and sizing B and the forest pool draw no random numbers, so they run
    once, and a sizing that cannot fit is reported once, not resampled.

    Everything is drawn from `pool`, a sorted array of host ids holding the
    anchors (all of d when None), and sized by len(pool).  The RNG stream is
    that of the same call on d.induce(pool): B is drawn over ranks in the
    pool, and the connectors read their candidates in the iteration order of
    a set of those ranks.
    """
    if not pieces:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    for i, pair in enumerate(anchors):
        if not all(0 <= h < d.n for h in pair):
            raise ValueError(f"anchors[{i}] = {tuple(pair)} holds a host outside 0..{d.n - 1}")
    pool = np.arange(d.n, dtype=np.int64) if pool is None else pool
    n = len(pool)
    anchor_hosts = {h for pair in anchors for h in pair}
    if len(anchor_hosts) != 2 * len(pieces):
        raise ValueError("anchors must be pairwise distinct")

    bodies = induced_subtrees(tree, [p.body for p in pieces])
    body_vertices = np.concatenate([body.labels for body in bodies])
    # Per mid, in piece order, mid_x then mid_y: (mid, anchor host, sign seen
    # from the anchor, body neighbour's entry in body_vertices, sign seen from it).
    links: list[tuple[int, int, Sign, int, Sign]] = []
    offset = 0
    for p, body, pair in zip(pieces, bodies, anchors):
        in_body = set(p.body)
        for mid, outer, outer_host in ((p.mid_x, p.x, pair[0]), (p.mid_y, p.y, pair[1])):
            inner = [u for u in tree.nbrs(mid) if u in in_body]
            if len(inner) != 1:
                raise ValueError(f"mid {mid} must have exactly one body neighbour, has {len(inner)}")
            at = offset + int(np.searchsorted(body.labels, inner[0]))
            links.append((mid, outer_host, tree.edge_sign(outer, mid), at, tree.edge_sign(inner[0], mid)))
        offset += len(body.labels)
    vertices = np.concatenate((body_vertices, [link[0] for link in links]))

    rest_rank = np.flatnonzero(~np.isin(pool, list(anchor_hosts)))
    rest = pool[rest_rank]
    total_body = sum(len(p.body) for p in pieces)
    spare = len(rest) - total_body
    # The pool keeps forest_reserve >= 2 vertices beyond the bodies, so the
    # headroom is positive; embed_small_forest still needs it above eps_eff.
    # B must hold the 2|pieces| connectors, one host each.
    forest_reserve = max(2, min(10, spare // 4))
    if spare - forest_reserve < 2 * len(pieces):
        raise PhaseFailure(
            "paths", "guide-build",
            f"no room for a connector buffer of {2 * len(pieces)}: {spare} spare vertices, "
            f"{forest_reserve} kept for the forest",
            attempts=1,
        )
    b_size = min(max(2 * len(pieces), int(math.ceil(params.beta * n))), spare - forest_reserve)
    pool_size = len(rest) - b_size
    headroom = 1.0 - total_body / pool_size
    eps_eff = min(0.5, max(0.004, headroom - 0.004))
    if total_body > (1 - eps_eff) * pool_size:
        raise PhaseFailure(
            "paths", "guide-build",
            f"forest too large: {total_body} vertices into a pool of {pool_size} at eps={eps_eff}",
            attempts=1,
        )

    def once() -> tuple[np.ndarray, np.ndarray]:
        perm = rng.permutation(len(rest))
        buffer = set(int(x) for x in rest_rank[perm[:b_size]])
        # Connector candidates are read in the iteration order of a copy of
        # the buffer's rank set (which can differ from the source set's);
        # that order fixes the RNG stream of the connector draws.
        buffer_order = pool[np.fromiter(set(buffer), dtype=np.int64)]
        free_buffer = np.zeros(d.n, dtype=bool)
        free_buffer[buffer_order] = True
        body_hosts = np.concatenate(embed_small_forest(
            d, [body.tree for body in bodies], eps_eff, rng,
            pool=rest[perm[b_size:]],
        ))
        mid_hosts = []
        for _mid, outer_host, sign_out, at, sign_in in links:
            row = d.adj_row(outer_host, sign_out) & d.adj_row(int(body_hosts[at]), sign_in)
            host = draw_host(row & free_buffer, rng, buffer_order)
            if host is None:
                raise ForestEmbedError(
                    f"connector intersection empty at anchor {outer_host}",
                    cause="connector-exhausted",
                )
            mid_hosts.append(host)
            free_buffer[host] = False
        return vertices, np.concatenate((body_hosts, mid_hosts))

    return _retry("paths", params.retries, once)


def embed_almost_spanning(
    d: Digraph, tree: OrientedTree, t: int, v: int, params: ParamSchedule, rng: np.random.Generator,
    pool: np.ndarray | None = None,
) -> tuple[Embedding, dict]:
    """Verified copy of an almost-spanning tree with t embedded to v.

    Decomposes the tree, splits the host into three random parts, embeds
    the star layer in the first, the path pieces through the second, and
    the leftover leaves greedily into the third.

    The tree goes into `pool`, a sorted array of host ids holding v (all of
    d when None), and is sized by len(pool); the degree cap is the host's,
    at d.n.  Only the first part is induced; the paths and the leftover
    leaves run on d itself.  The RNG stream, and so the map, is that of the
    same call on d.induce(pool) relabelled: the parts are drawn over ranks
    in the pool, and the leftover leaves read their candidates in the
    iteration order of a set of ranks.
    """
    if not 0 <= v < d.n:
        raise ValueError(f"anchor host {v} outside 0..{d.n - 1}")
    pool = np.arange(d.n, dtype=np.int64) if pool is None else pool
    if len(bad := np.flatnonzero(np.diff(pool, prepend=-1, append=d.n) <= 0)):
        i = min(int(bad[0]), len(pool) - 1)
        raise ValueError(f"pool must be ascending distinct ids in 0..{d.n - 1}: entry {i} is {pool[i]}")
    in_pool = np.zeros(d.n, dtype=bool)
    in_pool[pool] = True
    if not in_pool[v]:
        raise ValueError(f"anchor host {v} is not in the pool")
    n = len(pool)
    slack = n - tree.n
    if slack < 4:
        raise ValueError(f"need at least 4 spare host vertices, got {slack}")
    _check_degree_cap(tree, params, d.n)
    # Far below the decomposition scale, or small and undecomposable: a plain
    # greedy walk suffices.
    greedy = tree.n <= max(8, params.k)
    if not greedy:
        try:
            td = decompose(tree, t, params)
        except DecompositionError as exc:
            if tree.n > 64:
                raise PhaseFailure("almost", "decompose", str(exc), 1, fixed=True) from exc
            greedy = True
    log: list[tuple[str, str, str]] = []
    if greedy:
        emb = _greedy(d, tree, t, v, params, rng, "almost", in_pool, log)[0]
    else:
        stars = stars_from_decomposition(td)

        t1_size = len(td.t1)
        t2_new = int(len(td.t2) - len(td.t1))
        t3_new = tree.n - len(td.t2)

        # The guide machinery needs V0 (inside V1) about a quarter bigger than
        # the core, plus the leaf-part slack; start from that floor and adapt
        # between attempts based on which phase ran out of room.
        s1_floor = len(td.t0) // 3 + 10 + math.ceil(0.1 * len(stars)) + 12

        def once() -> Embedding:
            # Each failure of the star layer's room widens V1; each of the paths narrows it.
            v1_bias = sum(
                max(4, slack // 6) if phase == "stars" and cause in ("guide-build", "guide-restrict")
                else -max(4, slack // 8) if phase == "paths" else 0
                for phase, cause, _message in log
            )
            s1, s2 = _slack_split(slack, t1_size, t2_new, t3_new, s1_floor + v1_bias)
            if s1 < 2:
                raise PhaseFailure("almost", "guide-build", "slack too thin to size V1", len(log) + 1)
            parts = _parts_holding(d, [t1_size + s1, t2_new + s2], rng, pool, v, 300)
            if parts is None:
                raise GuideBuildError("anchor never landed in V1")
            v1, v2 = parts
            in_v3 = in_pool.copy()
            in_v3[v1] = in_v3[v2] = False
            emb = _assemble_almost(d, tree, t, v, params, rng, td, stars, v1, v2, pool, in_v3)
            if not image_is_embedding(d, tree, emb.image()):
                raise VerificationError("almost-spanning embedding failed verification")
            return emb

        emb = _retry("almost", params.retries, once, log)
    # A greedy call embedded by its first walk keeps the empty record of the bit-stable CLI output.
    retries = {"almost": len(log)} if log or not greedy else {}
    failures = [{"attempt": i, "phase": phase, "cause": cause} for i, (phase, cause, _m) in enumerate(log)]
    return emb, {"phase_retries": retries, "failures": failures}


def _slack_split(slack: int, t1_size: int, t2_new: int, t3_new: int, want1: int) -> tuple[int, int]:
    """(s1, s2): the spare hosts of V1 and V2 out of `slack`; V3 gets the rest.

    The slack splits in proportion to T1 and to what T2 and T3 add, so piece-heavy
    trees get their headroom in V2 and star-heavy trees in V1, with floors of 3 and 2
    when T2 and T3 add vertices.  V1 then grows to want1, from V2 first, down to the floors.
    """
    floor2, floor3 = (3 if t2_new else 0), (2 if t3_new else 0)
    weight2, weight3 = t2_new + (4.0 if t2_new else 0.0), t3_new + (2.0 if t3_new else 0.0)
    total_w = t1_size + 4.0 + weight2 + weight3
    split2 = max(floor2, round(slack * weight2 / total_w))
    split3 = max(floor3, round(slack * weight3 / total_w))
    base1 = slack - split2 - split3
    s1 = max(base1, min(slack - floor2 - floor3, want1))
    return s1, split2 - min(s1 - base1, split2 - floor2)


def _parts_holding(
    d: Digraph, sizes: list[int], rng: np.random.Generator, pool: np.ndarray | None, v: int,
    draws: int,
) -> list[np.ndarray] | None:
    """The first of `draws` `sample_disjoint_subsets` draws whose first part holds v, or None.

    Each draw is one permutation of the ranks in `pool` (of the hosts when
    None), cut into the parts when its first sizes[0] entries hold v's rank:
    the stream and the parts of redrawing whole partitions.
    """
    rank, available = (v, d.n) if pool is None else (int(np.searchsorted(pool, v)), len(pool))
    for _draw in range(draws):
        perm = rng.permutation(available)
        if rank in perm[: sizes[0]]:
            return _cut(perm, sizes, pool)
    return None


def _check_degree_cap(tree: OrientedTree, params: ParamSchedule, n: int) -> None:
    cap = params.degree_cap(n)
    dplus, dminus = max_semidegree(tree)
    if max(dplus, dminus) > cap:
        raise ValueError(
            f"guest tree max in/out degree {max(dplus, dminus)} exceeds the "
            f"schedule cap {cap}; raise max_tree_semidegree to accept it"
        )


def _greedy(
    d: Digraph, tree: OrientedTree, t: int, v: int | None, params: ParamSchedule,
    rng: np.random.Generator, phase: str, within: np.ndarray | None = None, log: list | None = None,
) -> tuple[Embedding, int]:
    """Verified greedy prefix embedding with t at v, for trees far below host scale.

    The walk uses the hosts marked in the mask `within` (all when None).
    With v None, each try first draws a uniform host for t.  A stuck walk is
    resampled, each failed try is appended to `log` as `_retry` does, and a
    spent budget is a PhaseFailure of `phase`.  Returns the embedding and the
    number of tries it took.
    """
    order = prefix_order(tree, t)
    log = [] if log is None else log

    def once() -> np.ndarray:
        root_host = int(rng.integers(d.n)) if v is None else v
        free = np.ones(d.n, dtype=bool) if within is None else within.copy()
        hosts = greedy_walk(d, order, free, rng, [root_host])
        if hosts is None:
            raise PipelineError("greedy walk stuck", cause="leaf-greedy-fail")
        return hosts

    hosts = _retry(phase, params.retries, once, log)
    emb = Embedding.of(np.array(order.order, dtype=np.int64), hosts, "greedy")
    if not image_is_embedding(d, tree, emb.image()):
        raise VerificationError(f"{phase} greedy embedding failed verification")
    return emb, len(log) + 1


def _assemble_almost(
    d: Digraph, tree: OrientedTree, t: int, v: int, params: ParamSchedule, rng: np.random.Generator,
    td: TreeDecomposition, stars: list[StarComponent], v1: np.ndarray, v2: np.ndarray,
    pool: np.ndarray, v3_free: np.ndarray,
) -> Embedding:
    # Star layer inside V1, the one induced host: guides and stars keep their
    # local ids.  The guest tree keeps its own ids throughout.  Each phase's
    # map joins `image` (hosts by tree vertex, -1 where unplaced) in one scatter.
    d1, labels1 = d.induce(v1)
    emb1 = embed_stars(
        d1, tree, {int(x) for x in td.t0}, stars, t, int(np.searchsorted(labels1, v)), params, rng,
    )
    vertices, hosts = emb1.arrays()
    parts, phase = [(vertices, labels1[hosts])], [*emb1.phase.values()]
    image = np.full(tree.n, -1, dtype=np.int64)
    image[vertices] = parts[0][1]

    # Path pieces through V2 (anchors cross over from V1).
    if td.pieces:
        anchor_pairs = [(int(image[p.x]), int(image[p.y])) for p in td.pieces]
        anchor_hosts = {h for pair in anchor_pairs for h in pair}
        d2_verts = np.array(sorted(set(v2.tolist()) | anchor_hosts), dtype=np.int64)
        vertices, hosts = attach_path_trees(d, tree, td.pieces, anchor_pairs, params, rng, d2_verts)
        image[vertices] = hosts
        parts.append((vertices, hosts))
        phase += ["paths"] * len(vertices)

    # Leftover leaves into V3, the hosts marked in v3_free: one greedy walk over
    # their level order, hung from their placed parents.  Candidates are read
    # in the iteration order of a set of V3's ranks in the pool.
    leftovers = sorted({u for s_ in td.leftovers.values() for u in s_})
    if leftovers:
        v3_ranks = np.flatnonzero(v3_free[pool])
        v3_order = pool[np.fromiter(set(v3_ranks.tolist()), dtype=np.int64)]
        # Each leftover component hangs by its root from one placed vertex: no leftover is reached twice.
        left_set = set(leftovers)
        placed_flag = (image >= 0).tolist()
        ordered: list[tuple[int, int]] = []   # (leftover, parent)
        level = sorted((u, w) for u in leftovers for w in tree.nbrs(u) if placed_flag[w])
        while level:
            ordered += level
            level = sorted((w, u) for u, p in level for w in tree.nbrs(u) if w in left_set and w != p)
        placed = list(dict.fromkeys(p for _u, p in ordered if placed_flag[p]))
        entries = placed + [u for u, _p in ordered]
        index = {x: i for i, x in enumerate(entries)}
        walk = PrefixOrdering(
            tuple(entries),
            (-1,) * len(placed) + tuple(index[p] for _u, p in ordered),
            (None,) * len(placed) + tuple(tree.edge_sign(p, u) for u, p in ordered),
        )
        hosts = greedy_walk(d, walk, v3_free, rng, image[placed].tolist(), host_order=v3_order)
        if hosts is None:
            raise PhaseFailure("leaves", "leaf-greedy-fail", "greedy walk stuck on the leftover leaves", 1)
        parts.append((np.array(entries[len(placed):], dtype=np.int64), hosts[len(placed):]))
        phase += ["greedy-leaf"] * len(ordered)
    return Embedding.of(*(np.concatenate(column) for column in zip(*parts)), phase)


@dataclass
class AbsorberState:
    """Flexibly embedded absorber tree plus its switchability certificate."""

    d: Digraph
    tree: OrientedTree           # the full absorber tree (local ids)
    t: int                       # anchor vertex of `tree`
    trunk: TreePiece             # embedded part (contains t)
    rest: TreePiece              # part completed later by switching
    shared: int                  # tree id common to trunk and rest
    order: object                # PrefixOrdering of trunk.tree
    hosts: np.ndarray            # hosts[i] = image of order.order[i]
    a_set: np.ndarray            # image plus padding, |A| = |tree| - gap
    anchor_host: int             # image of t
    threshold: int               # verified property-S floor
    swap_count: int              # |rest| - 1


# Side of the float32 tiles of the exact property-S count.  Narrower tiles
# cost BLAS time: 680-wide tiles took 1.25 times one whole product for
# ell = 1500 and n = 4000 (one thread, 2-core x86 box), 2048-wide ones 1.03.
# A multiple of 8, so each tile starts on a whole byte of the packed Mb.
PRODUCT_TILE = 8 * ROW_BLOCK


def _property_s_floor(d: Digraph, order, hosts: np.ndarray, threshold: int | None = None) -> int:
    """Least switchable-index count over both signs and all host pairs x != y.

    Index i is switchable for (x, y, sign) when hosts[i] lies in N^sign(x)
    and y can take over index i: y has an arc to the image of every trunk
    out-neighbour of order.order[i] and from the image of every in-neighbour.
    Counted through complements: with Xb[x, i] = "hosts[i] not in N^sign(x)"
    and Mb[i, y] = "y cannot take over i", count[x, y] = ell - a[x] - b[y]
    + (Xb Mb)[x, y] for a = Xb.sum(1) and b = Mb.sum(0).

    Union bound: Xb Mb >= 0, so ell - max a - max b, with max a taken over
    both signs, is at most every count.  When a `threshold` is given and the
    bound reaches it, the bound is returned: it settles the certificate
    without any product.  Otherwise the exact minimum is returned.

    Exact minimum: Xb Mb vanishes outside rows a > 0 and columns b > 0, and
    no pair off that block counts fewer than one inside it: (Xb Mb)[x, y] <=
    min(a[x], b[y]), and both index sets hold all ell >= 2 trunk images (the
    host has no loops and every trunk vertex has a neighbour).  So only the
    block goes through BLAS, both signs' rows stacked, in tiles of
    PRODUCT_TILE hosts a side; on a complete host it is 2 ell x ell.  Every
    partial sum is an integer below 3 ell < 2**24 in size, so float32 holds
    it exactly in any summation order.

    Full rows: when every trunk host h has N^+(h) = N^-(h) = V - h
    (`Digraph.full_rows`, an O(ell) test), no host row is read.  Then
    Xb[x, i] = [x = hosts[i]] (every other host has an arc to and from
    hosts[i]) and Mb[i, y] = [y is the image of a trunk neighbour of i] (the
    only host without an arc to or from an image is that image).  So a[x] =
    [x in H] for the image set H, b[y] = deg(y) (the trunk degree of y's
    preimage, 0 off H), Xb Mb is the trunk's adjacency, and count[x, y] =
    ell - [x in H] - deg(y) + [x ~ y].  With Delta the largest trunk degree,
    the union bound is ell - 1 - Delta, and a pair reaches it (y of degree
    Delta, x in H neither y nor its neighbour) unless Delta = ell - 1, bound
    0: the trunk is a star.  There a y of degree ell - 1 is adjacent to every
    x in H, so it counts 1 with every x, and any other y has degree at most
    ell - 2 and counts at least 1.  So the floor is the bound plus [bound = 0].

    Memory: a, b and the Mb columns are read in blocks of ROW_BLOCK trunk
    indices straight from `d.mat` and `d.in_packed`, so the bound route's
    temporaries are O(ROW_BLOCK x n).  The exact route keeps Mb's columns
    b > 0 bit-packed and holds O(PRODUCT_TILE x n) float32 at a time.
    """
    n = d.n
    ell = len(hosts)
    parent = np.asarray(order.parent_index[1:], dtype=np.int64)
    if d.full_rows(Sign.PLUS)[hosts].all() and d.full_rows(Sign.MINUS)[hosts].all():
        degree = np.bincount(parent, minlength=ell)
        degree[1:] += 1
        bound = ell - 1 - int(degree.max())
        return bound if threshold is not None and bound >= threshold else bound + (bound == 0)
    # Each trunk arc u -> w blocks y at u by "no arc y -> host(w)" and at w
    # by "no arc host(u) -> y".  Every index past the root has one parent,
    # which gives it one row; parents AND in one row per child, read off the
    # children sorted by parent, one batch per sibling rank (the parents
    # within a batch are distinct).
    minus = np.fromiter((s is Sign.MINUS for s in order.sign[1:]), dtype=bool, count=ell - 1)
    by_parent = np.argsort(parent, kind="stable")
    grouped = parent[by_parent]

    def take_over(start: int, stop: int) -> np.ndarray:
        """[i - start, y] = y can take over trunk index i, for start <= i < stop."""
        first = max(start, 1)
        pos = np.arange(first - 1, stop - 1)
        ok = _arc_rows(d, hosts[parent[pos]], minus[pos])
        if start == 0:   # the root: only its children's rows
            ok = np.vstack((np.ones((1, n), dtype=bool), ok))
        lo, hi = np.searchsorted(grouped, [start, stop])
        for chunk in range(lo, hi, ROW_BLOCK):
            pos = by_parent[chunk : min(chunk + ROW_BLOCK, hi)]
            par = parent[pos]
            rows = _arc_rows(d, hosts[pos + 1], ~minus[pos])
            rank = np.arange(len(par)) - np.searchsorted(par, par)
            for r in range(int(rank.max()) + 1):
                sibling = rank == r
                ok[par[sibling] - start] &= rows[sibling]
        return ok

    # Bool sums in the smallest dtype that holds ell: a wider one makes numpy
    # cast through a buffer.  Rows: y can take over; arcs hosts[k] -> y;
    # arcs y -> hosts[k].
    count_dtype = np.min_scalar_type(ell)
    sums = np.zeros((3, n), dtype=count_dtype)
    for start in range(0, ell, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, ell)
        block = hosts[start:stop]
        sums[0] += take_over(start, stop).sum(axis=0, dtype=count_dtype)
        sums[1] += d.mat[block].sum(axis=0, dtype=count_dtype)
        in_rows = np.unpackbits(d.in_packed[block], axis=1, count=n).view(np.bool_)
        sums[2] += in_rows.sum(axis=0, dtype=count_dtype)
    b = ell - sums[0]
    a_by_sign = (ell - sums[2], ell - sums[1])   # Xb row sums, sign + then -
    bound = ell - max(int(a.max()) for a in a_by_sign) - int(b.max())
    if threshold is not None and bound >= threshold:
        return bound

    # The take-over rows are read again rather than packed during the sums:
    # most attempts end at the bound, and this pass is a few percent here.
    ry = np.flatnonzero(b)
    mb_ry = np.empty((ell, (len(ry) + 7) // 8), dtype=np.uint8)   # Mb[:, ry], packed
    for start in range(0, ell, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, ell)
        mb_ry[start:stop] = np.packbits(~take_over(start, stop)[:, ry], axis=1)
    slot_in_ry = np.full(n, -1, dtype=np.int64)
    slot_in_ry[ry] = np.arange(len(ry))
    # The rows of Xb: hosts with a > 0 for sign +, then for sign -.  Each Xb
    # row ends in (-a[x], 1) and each Mb column in (1, -b[y]), so the product
    # tile is count - ell outright.
    rx = [np.flatnonzero(a) for a in a_by_sign]
    x_all = np.concatenate(rx)
    into = np.repeat([False, True], [len(r) for r in rx])
    minus_a = -np.concatenate([a[r] for a, r in zip(a_by_sign, rx)]).astype(np.float32)
    minus_b = -b.astype(np.float32)
    floor = np.inf   # a float across tiles: a tile of one x == y pair holds only inf
    for xs in range(0, len(x_all), PRODUCT_TILE):
        x, x_into = x_all[xs : xs + PRODUCT_TILE], into[xs : xs + PRODUCT_TILE]
        xb = np.empty((len(x), ell + 2), dtype=np.float32)
        for r in range(0, len(x), ROW_BLOCK):
            rows = slice(r, r + ROW_BLOCK)
            xb[rows, :ell] = ~_arc_rows(d, x[rows], x_into[rows]).take(hosts, axis=1)
        xb[:, ell] = minus_a[xs : xs + PRODUCT_TILE]
        xb[:, ell + 1] = 1
        slot = slot_in_ry[x]
        for ys in range(0, len(ry), PRODUCT_TILE):
            y = ry[ys : ys + PRODUCT_TILE]
            mb = np.empty((ell + 2, len(y)), dtype=np.float32)
            mb[:ell] = np.unpackbits(mb_ry[:, ys // 8 : (ys + len(y) + 7) // 8], axis=1, count=len(y))
            mb[ell] = 1
            mb[ell + 1] = minus_b[y]
            tile = xb @ mb
            same = np.flatnonzero((slot >= ys) & (slot < ys + len(y)))
            tile[same, slot[same] - ys] = np.inf
            floor = min(floor, tile.min())
    return ell + int(floor)


def build_absorber(
    d: Digraph, tree: OrientedTree, t: int, params: ParamSchedule, rng: np.random.Generator,
) -> AbsorberState:
    """Randomly embed most of the absorber tree and certify property S.

    Splits the tree (the completed part holds t), orders the trunk with
    leaves last and bare-path middles consecutive, embeds it by the random
    greedy rule, then verifies that every (x, y, sign) has at least
    `threshold` switchable indices.  When every trunk image has full rows
    (every host at alpha >= 0.25 from the default generator), the counts
    follow from the trunk alone: count[x, y] = ell - [x in H] - deg(y) +
    [x ~ y], so the floor is ell - 1 - Delta, plus one on a star, and no host
    row is read (proof in `_property_s_floor`).  Otherwise the union bound
    (ell minus the largest non-arc count of any x minus the largest blocked
    count of any y) settles most attempts; the exact float32 count runs only
    when the bound falls short of the threshold, and its floor decides the
    attempt and fills the S-fail message.  Every route accepts exactly the
    attempts the exact count accepts, so the random stream is the same.
    Retries on a stuck walk (leaf-greedy-fail) and on a failed certificate
    (S-fail); a spent budget reports the last attempt's cause.
    """
    n = d.n
    gap = params.absorb_gap(n)
    if tree.n <= gap + 4:
        raise ValueError(f"absorber tree of {tree.n} too small for a gap of {gap}")
    trunk, rest, shared = split_tree(tree, gap + 1, keep=t)
    swap_count = rest.tree.n - 1
    threshold = params.switch_threshold(n, swap_count)

    order = prefix_order(trunk.tree, trunk.tree.t, "leaves_last_middles_consecutive")
    ell = trunk.tree.n
    if ell <= threshold:
        raise PhaseFailure(
            "absorber", "S-fail",
            f"trunk of {ell} vertices cannot reach a switch threshold of {threshold}", 1, fixed=True,
        )

    def once() -> AbsorberState:
        free = np.ones(n, dtype=bool)
        anchor_host = int(rng.integers(n))
        hosts = greedy_walk(d, order, free, rng, [anchor_host])
        if hosts is None:
            raise PipelineError("greedy walk stuck on the absorber trunk", cause="leaf-greedy-fail")
        floor = _property_s_floor(d, order, hosts, threshold)
        if floor < threshold:
            raise PipelineError(
                f"property S floor {floor} below threshold {threshold} "
                f"(ell={ell}, swaps={swap_count})",
                cause="S-fail",
            )
        pad = (tree.n - gap) - ell
        extra = rng.choice(np.flatnonzero(free), size=pad, replace=False) if pad else hosts[:0]
        a_set = np.sort(np.concatenate((hosts, extra)))   # the walk cleared hosts from free
        return AbsorberState(
            d=d, tree=tree, t=t, trunk=trunk, rest=rest, shared=shared,
            order=order, hosts=hosts, a_set=a_set, anchor_host=anchor_host,
            threshold=threshold, swap_count=swap_count,
        )

    return _retry("absorber", params.retries, once)


class AbsorptionError(PipelineError):
    """Completion got stuck although property S was verified; carries diagnostics."""

    cause = "S-fail"


def complete_absorption(state: AbsorberState, b_set: np.ndarray) -> Embedding:
    """Complete the absorber tree inside B by switching, anchor fixed.

    The rest's vertices (slots, in prefix order from the shared vertex) take
    the new hosts y of B beyond the trunk image, ascending.  For each, a trunk
    index is admissible when its host can serve as the slot's host (the arc,
    in the slot's sign, between it and the image of the slot's parent role),
    y can take over its copy neighbourhood (arcs y -> image of every copy
    out-neighbour, image of every copy in-neighbour -> y), and its copy
    degree is at most the cap.  The smallest admissible index is switched:
    y replaces its host, which the slot takes.  Roles (absorber tree ids)
    index plain arrays: each role's image and copy degree, and each trunk
    index's role.  B is a host mask.

    Full rows: when every host of B has an arc to every other host
    (`Digraph.full_rows(Sign.PLUS)` on B, read once), no adjacency entry is
    read.  Every image in play lies in B (trunk hosts lie in A, inside B; a
    slot takes a host an index gave up; y is in B), so an arc joins two
    images exactly when they differ.  The candidate's image differs from the
    parent role's image exactly when the candidate is not the parent role,
    as the map is injective.  y is no image yet (each new host is placed
    once), so it differs from every copy neighbour's image.  So an index is
    admissible exactly when its role is not the slot's parent role and its
    copy degree is at most the cap: the index the general route picks.
    """
    d, n = state.d, state.tree.n
    b_set = np.asarray(b_set, dtype=np.int64)
    if len(bad := b_set[(b_set < 0) | (b_set >= d.n)]):
        raise ValueError(f"B holds host {bad.min()} outside 0..{d.n - 1}")
    in_b = np.zeros(d.n, dtype=bool)
    in_b[b_set] = True   # a repeated host counts once
    if not in_b[state.a_set].all():
        raise ValueError("B must contain A")
    if (size := int(in_b.sum())) != n:
        raise ValueError(f"|B| = {size} must equal |T| = {n}")

    trunk, rest = state.trunk, state.rest
    roles = trunk.labels[np.array(state.order.order)].tolist()   # roles[i]: role of trunk index i
    image = np.full(n, -1, dtype=np.int64)
    image[roles] = state.hosts
    host_of = image.tolist()
    in_b[state.hosts] = False
    new_hosts = np.flatnonzero(in_b).tolist()
    tails, heads = trunk.labels[trunk.tree.edges.T].tolist()   # the copy's arcs, by role
    degree = np.bincount(tails + heads, minlength=n).tolist()
    full = bool(d.full_rows(Sign.PLUS)[b_set].all())
    nbr_out, nbr_in = defaultdict(list), defaultdict(list)   # copy neighbours by role
    if not full:   # only the general route reads the copy's neighbours
        for u, w in zip(tails, heads):
            nbr_out[u].append(w)
            nbr_in[w].append(u)
    rest_order = prefix_order(rest.tree, int(np.searchsorted(rest.labels, state.shared)))
    rest_roles = rest.labels[np.array(rest_order.order)].tolist()
    slots = [(rest_roles[i], rest_roles[rest_order.parent_index[i]], rest_order.sign[i])
             for i in range(1, rest.tree.n)]

    cap = max(6, math.ceil(4 * d.n / max(state.threshold, 1)))
    live = list(range(1, len(roles)))  # indices not yet switched out; the anchor never is
    mat = d.mat
    for step, (y, (slot, parent_role, sign)) in enumerate(zip(new_hosts, slots)):
        x_host = host_of[parent_role]
        for k, j in enumerate(live):
            role = roles[j]
            cand = host_of[role]
            if degree[role] <= cap and (role != parent_role if full else (
                mat[(x_host, cand) if sign is Sign.PLUS else (cand, x_host)]
                and all(mat[y, host_of[w]] for w in nbr_out[role])
                and all(mat[host_of[w], y] for w in nbr_in[role])
            )):
                break
        else:
            raise AbsorptionError(
                f"absorption stuck at step {step + 1}/{len(slots)}: no admissible index "
                f"(threshold {state.threshold}, retired {len(roles) - len(live)})"
            )
        role = roles[live.pop(k)]
        host_of[role], host_of[slot] = y, host_of[role]
        tail, head = (parent_role, slot) if sign is Sign.PLUS else (slot, parent_role)
        nbr_out[tail].append(head)
        nbr_in[head].append(tail)
        degree[parent_role] += 1   # a slot is never a candidate: only its parent's degree is read

    image = np.array(host_of, dtype=np.int64)
    if not image_is_embedding(d, state.tree, image) or image[state.t] != state.anchor_host:
        raise VerificationError("absorption produced a broken copy")
    return Embedding.of(np.arange(n, dtype=np.int64), image, "absorber")


def absorb_at_random(
    d: Digraph, tree: OrientedTree, t: int, params: ParamSchedule, rng: np.random.Generator,
) -> tuple[AbsorberState, Embedding]:
    """Build the absorber for `tree`, then complete it on A plus uniform extra hosts."""
    state = build_absorber(d, tree, t, params, rng)
    free = np.ones(d.n, dtype=bool)
    free[state.a_set] = False
    extra = rng.choice(np.flatnonzero(free), size=tree.n - len(state.a_set), replace=False)
    return state, complete_absorption(state, np.concatenate((state.a_set, extra)))


def _millis_since(start: float) -> float:
    """Wall milliseconds since a perf_counter reading (telemetry `*_millis` keys)."""
    return round(1000.0 * (time.perf_counter() - start), 3)


def embed_spanning(
    d: Digraph, tree: OrientedTree, params: ParamSchedule, rng: np.random.Generator,
) -> tuple[Embedding, dict]:
    """Verified spanning embedding of `tree` into `d`.

    Splits off an absorber subtree, embeds its trunk flexibly, embeds the
    rest of the tree almost-spanningly in the remaining host, and completes
    the absorber on the leftover vertices.
    """
    n = d.n
    if tree.n != n:
        raise ValueError(f"spanning embedding needs |T| = n, got {tree.n} != {n}")
    _check_degree_cap(tree, params, n)
    telemetry: dict = {"phases": {}, "failures": []}
    phases = telemetry["phases"]
    anchor = tree.t if tree.t is not None else 0

    # Below n = 40, or with an absorber piece too small for build_absorber to
    # split off a rest of gap + 1 (it needs 3 * (gap + 1) vertices), a retried
    # greedy walk is the only route.  split_tree draws nothing.
    split = split_tree(tree, min(n // 3, params.absorber_size(n))) if n >= 40 else None
    if split is None or split[1].tree.n < 3 * (params.absorb_gap(n) + 1):
        emb, phases["tiny-greedy"] = _greedy(d, tree, anchor, None, params, rng, "spanning")
        return emb, telemetry

    trunk_piece, absorber_piece, shared = split
    local_shared_abs = int(np.searchsorted(absorber_piece.labels, shared))
    local_shared_trunk = int(np.searchsorted(trunk_piece.labels, shared))
    absorber_tree = absorber_piece.tree.with_t(local_shared_abs)
    trunk_labels, absorber_labels = trunk_piece.labels, absorber_piece.labels
    log: list[tuple[str, str, str]] = []

    def once() -> Embedding:
        start = time.perf_counter()
        state = build_absorber(d, absorber_tree, local_shared_abs, params, rng)
        phases["absorber_build_millis"] = _millis_since(start)
        phases["absorber"] = {
            "size": absorber_tree.n, "threshold": state.threshold,
            "swaps": state.swap_count,
        }

        keep = np.ones(n, dtype=bool)
        keep[state.a_set] = False
        keep[state.anchor_host] = True
        start = time.perf_counter()
        emb_almost, tele_almost = embed_almost_spanning(
            d, trunk_piece.tree.with_t(local_shared_trunk), local_shared_trunk, state.anchor_host,
            params, rng, np.flatnonzero(keep),
        )
        phases["almost_millis"] = _millis_since(start)
        phases["almost"] = tele_almost

        # B: A plus the hosts the almost-spanning copy left free.
        in_b = np.ones(n, dtype=bool)
        trunk_vertices, trunk_hosts = emb_almost.arrays()
        in_b[trunk_hosts] = False
        in_b[state.a_set] = True
        start = time.perf_counter()
        emb_abs = complete_absorption(state, np.flatnonzero(in_b))
        phases["absorption_millis"] = _millis_since(start)

        vertices, hosts = emb_abs.arrays()
        vertices = absorber_labels[vertices]
        own = vertices != shared   # the shared vertex is placed by both sides
        vertices = np.concatenate((trunk_labels[trunk_vertices], vertices[own]))
        total = Embedding.of(vertices, np.concatenate((trunk_hosts, hosts[own])),
                             ["almost"] * len(trunk_vertices) + ["absorber"] * int(own.sum()))
        if not image_is_embedding(d, tree, total.image()):
            raise VerificationError("spanning embedding failed verification")
        return total

    try:
        total = _retry("spanning", max(2, params.retries // 3), once, log)
        phases["outer_attempts"] = len(log) + 1
    except PhaseFailure as failure:
        # Trees whose degrees dwarf the nominal cap sit outside the guarantee the
        # pipeline realizes (a star's absorber has no switch reservoir: every
        # leaf's copy-neighborhood is the center's image).  For those, and only
        # those, fall back to a retried greedy walk; cap-compliant trees report
        # their pipeline failure honestly.
        if max(max_semidegree(tree)) <= params.with_updates(max_tree_semidegree=3).degree_cap(n):
            raise
        try:
            total, phases["over-cap-greedy"] = _greedy(d, tree, anchor, None, params, rng, "spanning")
        except PhaseFailure:
            raise failure from None
    telemetry["failures"] = [{"outer": i, "cause": c, "detail": m} for i, (_p, c, m) in enumerate(log)]
    return total, telemetry
