"""Embedding phases: guided core, star attachment, path attachment,
almost-spanning assembly, and absorption feeding the spanning pipeline.

Every probabilistic step follows the Las Vegas discipline: attempt, audit
the postcondition exactly, resample on failure within a retry budget.
Returned embeddings are always verified.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass

import numpy as np

from .decompose import DecompositionError, TreeDecomposition, decompose
from .digraph import (
    SIGNS,
    Digraph,
    Sign,
    min_semidegree,
    sample_disjoint_subsets,
)
from .embedding import (
    Embedding,
    PipelineError,
    VerificationError,
    draw_host,
    greedy_walk,
    is_valid_embedding,
)
from .guides import GuideBuildError, GuideSystem
from .matching import (
    BipartitePattern,
    ForestEmbedError,
    covering_matching,
    embed_small_forest,
    embed_tree_copies,
    walk_lean_pieces,
)
from .params import ParamSchedule
from .trees import (
    OrientedTree,
    TreePiece,
    canonical_form_and_order,
    components,
    induced_subtree,
    max_semidegree,
    prefix_order,
    split_tree,
)


class PhaseFailure(PipelineError):
    """A pipeline phase exhausted its retry budget."""

    def __init__(self, phase: str, cause: str, message: str, attempts: int = 0):
        super().__init__(f"{phase} failed after {attempts} attempt(s) [{cause}]: {message}", cause)
        self.phase = phase
        self.attempts = attempts


def _retry(phase: str, attempts: int, once):
    """Return the first result of `once()` within `attempts` tries.

    A try that raises a PipelineError is resampled; the last one's cause is
    reported as a PhaseFailure of `phase` once the budget is spent.
    """
    if attempts < 1:
        raise ValueError(f"{phase}: retry budget must be at least 1, got {attempts}")
    for _attempt in range(attempts):
        try:
            return once()
        except PipelineError as exc:
            last = exc
    raise PhaseFailure(phase, last.cause, str(last), attempts=attempts)


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
    d: Digraph,
    tree: OrientedTree,
    core: set[int],
    leaf_parts: list[tuple[list[int], Sign]],
    targets: list[np.ndarray],
    s: int,
    guides: GuideSystem,
    rng: np.random.Generator,
) -> Embedding:
    """Randomly embed the core into V0 via guide draws, then match each leaf part.

    `targets[0]` is V0; `targets[j]` hosts leaf part j-1.  The tree anchor
    (tree.t) goes to `s`.  Each non-anchor core vertex is drawn uniformly
    from the unused part of the guide set keyed by its parent's image; each
    leaf of part j is matched inside V_j along the guide-graph rows of the
    embedded vertices (anchor and stray component roots fall back to plain
    host adjacency rows, since no guide produced them).  Every vertex of
    part j must hang on the core by one edge of sign leaf_parts[j][1].
    """
    v0 = targets[0]
    anchor = tree.t
    v0_free = np.zeros(d.n, dtype=bool)
    v0_free[v0] = True
    if anchor not in core:
        raise ValueError(f"tree anchor {anchor} is not a core vertex")
    if not v0_free[int(s)]:
        raise ValueError(f"anchor host {s} is not in V0")

    emb = Embedding()
    provenance: dict[int, tuple] = {}

    for vertex, parent, sign in _forest_order(tree, core, anchor):
        if vertex == anchor:
            host = int(s)
        elif parent is None:
            host = draw_host(v0_free, rng)
            if host is None:
                raise GuideBuildError("V0 exhausted while placing component roots")
        else:
            entry = guides.get(emb[parent], sign)
            host = draw_host(v0_free, rng, order=entry.guide)
            if host is None:
                raise GuideBuildError(
                    f"guide set exhausted at (v={emb[parent]}, {sign}) "
                    f"after {len(emb)} core draws"
                )
            provenance[vertex] = (entry, host)
        emb.assign(vertex, host, "core")
        v0_free[host] = False

    for j, (part_vertices, circ) in enumerate(leaf_parts):
        cols = np.asarray(targets[j + 1], dtype=np.int64)
        rows = np.zeros((len(part_vertices), len(cols)), dtype=bool)
        multiplicity: dict[int, int] = {}
        parent_of: list[int] = []
        for u in part_vertices:
            parents = [w for w in tree.nbrs(u) if w in core]
            if len(parents) != 1 or tree.edge_sign(parents[0], u) is not circ:
                raise ValueError(
                    f"leaf part {j}: vertex {u} must hang on the core by one {circ} edge"
                )
            p = parents[0]
            parent_of.append(p)
            multiplicity[p] = multiplicity.get(p, 0) + 1
        for r, (u, p) in enumerate(zip(part_vertices, parent_of)):
            row = None
            if p in provenance:
                entry, host = provenance[p]
                row = entry.row(host, circ)[cols]
                # A guide row thinner than the parent's leaf count in this
                # part cannot host all its leaves; widen to host adjacency
                # (still host edges, only the steering is lost).
                if int(row.sum()) < multiplicity[p]:
                    row = None
            if row is None:
                row = d.adj_row(emb[p], circ)[cols]
            rows[r] = row
        pattern = BipartitePattern.explicit(np.arange(len(part_vertices)), cols, circ, rows)
        matching = covering_matching(pattern, what=f"leaf part {j}")
        for r, host in matching.pairs:
            emb.assign(part_vertices[r], host, "leafset")
    return emb


@dataclass(frozen=True)
class StarComponent:
    """One tree hanging on the core by a single edge."""

    attach: int                # core vertex it hangs on
    root: int                  # component vertex adjacent to attach
    sign: Sign                 # root in N^sign(attach)
    vertices: tuple[int, ...]  # the whole component, root included


def stars_from_decomposition(td: TreeDecomposition) -> list[StarComponent]:
    out = []
    tree = td.tree
    for v, hang in sorted(td.stars.items()):
        for comp in components(tree, hang):
            roots = [x for x in comp if v in tree.nbrs(x)]
            out.append(
                StarComponent(
                    attach=v,
                    root=roots[0],
                    sign=tree.edge_sign(v, roots[0]),
                    vertices=tuple(comp),
                )
            )
    return out


def _star_classes(tree: OrientedTree, stars: list[StarComponent]):
    """Group multi-vertex stars by (rooted canonical form, attach sign).

    Members are (star, piece, local root, canonical order of the piece).
    """
    groups: dict[tuple[str, str], list] = {}
    for st in stars:
        piece = induced_subtree(tree, st.vertices)
        local_root = int(np.searchsorted(piece.labels, st.root))
        form, order = canonical_form_and_order(piece.tree, local_root)
        groups.setdefault((form, str(st.sign)), []).append((st, piece, local_root, order))
    return [groups[k] for k in sorted(groups)]


def embed_stars(
    d: Digraph,
    tree: OrientedTree,
    tprime: set[int],
    stars: list[StarComponent],
    t: int,
    v: int,
    params: ParamSchedule,
    rng: np.random.Generator,
) -> Embedding:
    """Embed T' plus all its edge-attached star trees, anchoring t to v.

    Single-vertex stars (the bulk) are matched through guide-graph leaf
    parts, one per attach sign.  Populous multi-vertex classes go through
    per-class parts plus grafted tree copies; thin classes are walked
    greedily into a shared pool with their leaves batch-matched.
    """
    if not 0 <= v < d.n:
        raise ValueError(f"anchor host {v} outside 0..{d.n - 1}")
    layout = _star_layout(d, tree, tprime, stars, params)
    return _retry(
        "stars", params.retries,
        lambda: _embed_stars_once(d, tree, tprime, layout, t, v, params, rng),
    )


@dataclass(frozen=True)
class _StarLayout:
    """The leaf parts, lean pieces, host-set sizes and guide budget of one embed_stars call."""

    parts: list[tuple[list[int], Sign]]
    lean: list[tuple[StarComponent, TreePiece, int]]
    rich_classes: list[list[tuple[StarComponent, TreePiece, int, list[int]]]]
    sizes: list[int]   # |V0|, the leaf parts, the rich classes' V2, the pool
    alpha_hat: float   # measured semidegree excess delta^0(D)/n - 1/2
    mu_count: int      # guide-set size inside V0


def _star_layout(
    d: Digraph,
    tree: OrientedTree,
    tprime: set[int],
    stars: list[StarComponent],
    params: ParamSchedule,
) -> _StarLayout:
    """Split the stars into leaf parts and lean pieces, size the host sets and the guides.

    Depends on the inputs alone and draws no random numbers, so a layout
    that leaves V0 too small, or a guide budget too small for the core, is
    reported once rather than resampled.
    """
    n = d.n
    singles = [st for st in stars if len(st.vertices) == 1]
    multis = [st for st in stars if len(st.vertices) > 1]

    # Leaf parts: singleton leaves split by sign, rich multi-vertex classes
    # by class.  Groups too small to feed a matching reliably (guide rows
    # hit a tiny part too rarely) go through the shared pool instead.
    part_min = 10
    parts: list[tuple[list[int], Sign]] = []
    lean: list[tuple[StarComponent, TreePiece, int]] = []
    for sign in SIGNS:
        batch = [st for st in singles if st.sign is sign]
        if len(batch) >= part_min:
            parts.append(([st.root for st in batch], sign))
        else:
            for st in batch:
                piece = induced_subtree(tree, st.vertices)
                lean.append((st, piece, 0))
    rich_classes = []
    for cls in _star_classes(tree, multis):
        if len(cls) >= params.pop_min:
            rich_classes.append(cls)
            parts.append(([st.root for st, _p, _r, _o in cls], cls[0][0].sign))
        else:
            lean.extend((st, piece, local_root) for st, piece, local_root, _o in cls)

    def sized(batch: list[int]) -> int:
        return int(math.floor((1 + params.part_slack) * len(batch))) + params.part_pad

    part_sizes = [sized(batch) for batch, _ in parts]
    # Rich-class parts occupy the tail of `parts`, in order.
    rich_v2_sizes = [
        (cls[0][1].tree.n - 1) * size
        for cls, size in zip(rich_classes, part_sizes[len(parts) - len(rich_classes):])
    ]

    lean_total = sum(len(st.vertices) for st, _p, _r in lean)
    pool_size = (
        lean_total + max(params.part_pad, math.ceil(0.06 * lean_total))
        if lean
        else 0
    )

    core_size = len(tprime)
    v0_size = n - sum(part_sizes) - sum(rich_v2_sizes) - pool_size
    if v0_size < core_size + 3:
        raise PhaseFailure(
            "stars", "guide-build",
            f"V0 would hold {v0_size} vertices for a core of {core_size}", attempts=1,
        )

    # Guide budget: the guide set must outlast the core draws comfortably.
    alpha_hat = min_semidegree(d) / n - 0.5
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
    sizes = [v0_size] + part_sizes + rich_v2_sizes + [pool_size]
    return _StarLayout(parts, lean, rich_classes, sizes, alpha_hat, mu_count)


def _embed_stars_once(
    d: Digraph,
    tree: OrientedTree,
    tprime: set[int],
    layout: _StarLayout,
    t: int,
    v: int,
    params: ParamSchedule,
    rng: np.random.Generator,
) -> Embedding:
    n = d.n
    parts, lean, rich_classes = layout.parts, layout.lean, layout.rich_classes
    for _draw in range(60):
        sets = sample_disjoint_subsets(d, layout.sizes, rng)
        if v in sets[0]:
            break
    else:
        raise GuideBuildError(f"anchor {v} never landed in V0 across 60 partitions")
    v0 = sets[0]
    part_targets = sets[1 : 1 + len(parts)]
    v2_targets = sets[1 + len(parts) : 1 + len(parts) + len(rich_classes)]
    pool = sets[-1] if lean else np.array([], dtype=np.int64)

    guides = GuideSystem(d, params.guide_eps, params.guide_eta, alpha=layout.alpha_hat)
    guides.restrict(v0, part_targets, layout.mu_count)

    core_tree = tree if tree.t == t else tree.with_t(t)
    emb = embed_core_with_leaf_sets(
        d, core_tree, tprime, parts, [v0] + part_targets, v, guides, rng
    )

    # Graft rich classes: every part vertex roots a copy, so each embedded
    # attachment root picks up the copy rooted at its own image.
    for cls, v1, v2 in zip(rich_classes, part_targets[len(parts) - len(rich_classes):], v2_targets):
        _st, rep_piece, rep_root, rep_order = cls[0]
        copies = embed_tree_copies(d, rep_piece.tree, rep_root, v1, v2)
        by_root = {copy[rep_root]: copy for copy in copies}
        for st, piece, _root, mem_order in cls:
            copy = by_root[emb[st.root]]
            labels = piece.labels.tolist()
            for rv, mv in zip(rep_order, mem_order):
                tv = labels[mv]
                if tv == st.root:
                    continue
                emb.assign(tv, copy[rv], "graft")

    # Lean stars: greedy walk from the attach image, leaves batch-matched.
    # Candidates are read in the iteration order of a set of the pool's
    # hosts, which fixes the RNG stream of these draws.
    if lean:
        free = np.zeros(n, dtype=bool)
        free[pool] = True
        maps = walk_lean_pieces(
            d,
            [(piece.tree, local_root, (emb[st.attach], st.sign)) for st, piece, local_root in lean],
            free, rng, "lean star leaves",
            host_order=np.fromiter(set(int(x) for x in pool), dtype=np.int64),
        )
        for (_st, piece, _root), mapping in zip(lean, maps):
            labels = piece.labels.tolist()
            for lv, host in mapping.items():
                emb.assign(labels[lv], host, "stars")

    return emb


def attach_path_trees(
    d: Digraph,
    pieces: list[tuple[TreePiece, int, int]],
    anchors: list[tuple[int, int]],
    params: ParamSchedule,
    rng: np.random.Generator,
) -> list[dict[int, int]]:
    """Embed each piece with its two endpoint leaves at prescribed anchors.

    pieces[i] = (piece, r_local, s_local) where r/s are leaves whose
    neighbors have underlying degree 2; anchors[i] = (a_i, b_i) hosts.
    The piece bodies (minus both endpoint 2-paths) are embedded as a small
    forest away from a sampled buffer B; the degree-2 connector vertices are
    then drawn from pairwise neighborhood intersections inside B.
    """
    if not pieces:
        return []
    return _retry(
        "paths", params.retries,
        lambda: _attach_path_trees_once(d, pieces, anchors, params, rng),
    )


def _attach_path_trees_once(
    d: Digraph,
    pieces: list[tuple[TreePiece, int, int]],
    anchors: list[tuple[int, int]],
    params: ParamSchedule,
    rng: np.random.Generator,
) -> list[dict[int, int]]:
    n = d.n
    anchor_hosts = {h for pair in anchors for h in pair}
    if len(anchor_hosts) != 2 * len(pieces):
        raise ValueError("anchors must be pairwise distinct")

    bodies: list[OrientedTree] = []
    meta = []
    total_body = 0
    for piece, r_local, s_local in pieces:
        tr = piece.tree
        if tr.degree(r_local) != 1 or tr.degree(s_local) != 1:
            raise ValueError(f"endpoints {r_local}, {s_local} must be leaves of the piece")
        r_mid = tr.nbrs(r_local)[0]
        s_mid = tr.nbrs(s_local)[0]
        if tr.degree(r_mid) != 2 or tr.degree(s_mid) != 2:
            raise ValueError(f"the neighbours of endpoints {r_local}, {s_local} must have degree 2")
        drop = {r_local, r_mid, s_local, s_mid}
        body_vertices = [x for x in range(tr.n) if x not in drop]
        body = induced_subtree(tr, body_vertices)
        r_inner = [x for x in tr.nbrs(r_mid) if x != r_local][0]
        s_inner = [x for x in tr.nbrs(s_mid) if x != s_local][0]
        bodies.append(body.tree)
        meta.append((piece, r_local, r_mid, r_inner, s_local, s_mid, s_inner, body))
        total_body += body.tree.n

    rest = np.array(sorted(set(range(n)) - anchor_hosts), dtype=np.int64)
    spare = len(rest) - total_body
    if spare < 2 * len(pieces) + 2:
        raise GuideBuildError(f"no room for a connector buffer of {2 * len(pieces)}")
    forest_reserve = max(2, min(10, spare // 4))
    b_size = max(2 * len(pieces), int(math.ceil(params.beta * n)))
    b_size = min(b_size, spare - forest_reserve)
    perm = rng.permutation(len(rest))
    buffer = set(int(x) for x in rest[perm[:b_size]])
    # Connector candidates are read in the iteration order of a copy of the
    # buffer set (which can differ from the source set's); that order fixes
    # the RNG stream of the connector draws.
    buffer_order = np.fromiter(set(buffer), dtype=np.int64)
    free_buffer = np.zeros(n, dtype=bool)
    free_buffer[buffer_order] = True
    forest_pool = rest[perm[b_size:]]

    headroom = 1.0 - total_body / max(1, len(forest_pool))
    if headroom <= 0.0:
        raise GuideBuildError("piece bodies exceed the forest pool")
    eps_eff = min(0.5, max(0.004, headroom - 0.004))
    body_maps = embed_small_forest(
        d, bodies, eps_eff, rng, pool=forest_pool, pop_min=params.pop_min
    )

    out: list[dict[int, int]] = []
    for (piece, r_local, r_mid, r_inner, s_local, s_mid, s_inner, body), (a, b), bmap in zip(
        meta, anchors, body_maps
    ):
        tr = piece.tree
        labels = body.labels.tolist()
        full = {labels[bv]: host for bv, host in bmap.items()}
        full[r_local] = a
        full[s_local] = b
        for mid, outer, outer_host, inner in (
            (r_mid, r_local, a, r_inner),
            (s_mid, s_local, b, s_inner),
        ):
            sign_out = tr.edge_sign(outer, mid)     # mid as seen from the anchor leaf
            sign_in = tr.edge_sign(inner, mid)      # mid as seen from the body
            row = d.adj_row(outer_host, sign_out) & d.adj_row(full[inner], sign_in)
            host = draw_host(row & free_buffer, rng, buffer_order)
            if host is None:
                raise ForestEmbedError(
                    f"connector intersection empty at anchor {outer_host}",
                    cause="connector-exhausted",
                )
            full[mid] = host
            free_buffer[host] = False
        out.append(full)
    return out


def embed_almost_spanning(
    d: Digraph,
    tree: OrientedTree,
    t: int,
    v: int,
    params: ParamSchedule,
    rng: np.random.Generator,
) -> tuple[Embedding, dict]:
    """Verified copy of an almost-spanning tree with t embedded to v.

    Decomposes the tree, splits the host into three random parts, embeds
    the star layer in the first, the path pieces through the second, and
    the leftover leaves greedily into the third.
    """
    n = d.n
    if not 0 <= v < n:
        raise ValueError(f"anchor host {v} outside 0..{n - 1}")
    slack = n - tree.n
    if slack < 4:
        raise ValueError(f"need at least 4 spare host vertices, got {slack}")
    _check_degree_cap(tree, params, n)
    telemetry: dict = {"phase_retries": {}, "failures": []}
    # Far below the decomposition scale, or small and undecomposable: a plain
    # greedy walk suffices.
    greedy = tree.n <= max(8, params.k)
    if not greedy:
        try:
            td = decompose(tree, t, params)
        except DecompositionError as exc:
            if tree.n > 64:
                raise PhaseFailure("almost", "decompose", str(exc), 0) from exc
            greedy = True
    if greedy:
        return _greedy(d, tree, t, v, params, rng, "almost")[0], telemetry
    stars = stars_from_decomposition(td)

    t1_size = len(td.t1)
    t2_new = int(len(td.t2) - len(td.t1))
    t3_new = tree.n - len(td.t2)

    # The guide machinery needs V0 (inside V1) about a quarter bigger than
    # the core, plus the leaf-part slack; start from that floor and adapt
    # between attempts based on which phase ran out of room.
    n_roots = len(stars)
    s1_floor = len(td.t0) // 3 + 10 + math.ceil(0.1 * n_roots) + 12
    v1_bias = 0

    last: PipelineError | None = None
    for attempt in range(params.retries):
        # Proportional slack split with floors: piece-heavy trees need their
        # headroom in V2, star-heavy trees in V1.
        weight1 = t1_size + 4.0
        weight2 = t2_new + (4.0 if t2_new else 0.0)
        weight3 = t3_new + (2.0 if t3_new else 0.0)
        total_w = weight1 + weight2 + weight3
        s2 = max(3, round(slack * weight2 / total_w)) if t2_new else 0
        s3 = max(2, round(slack * weight3 / total_w)) if t3_new else 0
        s1 = slack - s2 - s3
        ceiling = slack - (3 if t2_new else 0) - (2 if t3_new else 0)
        want1 = min(ceiling, s1_floor + v1_bias)
        if want1 > s1:
            shift = want1 - s1
            take2 = min(shift, max(0, s2 - 3)) if t2_new else 0
            s2 -= take2
            shift -= take2
            take3 = min(shift, max(0, s3 - 2)) if t3_new else 0
            s3 -= take3
            s1 = slack - s2 - s3
        if s1 < 2:
            raise PhaseFailure("almost", "guide-build", "slack too thin to size V1", attempt + 1)
        sizes = [t1_size + s1, t2_new + s2]
        try:
            for _draw in range(300):
                v1, v2 = sample_disjoint_subsets(d, sizes, rng)
                if v in v1:
                    break
            else:
                raise GuideBuildError("anchor never landed in V1")
            v3 = np.array(
                sorted(set(range(n)) - set(v1.tolist()) - set(v2.tolist())), dtype=np.int64
            )
            emb = _assemble_almost(d, tree, t, v, params, rng, td, stars, v1, v2, v3)
            if not is_valid_embedding(d, tree, emb):
                raise VerificationError("almost-spanning embedding failed verification")
            telemetry["phase_retries"]["almost"] = attempt
            return emb, telemetry
        except PipelineError as exc:
            telemetry["failures"].append(
                {"attempt": attempt, "phase": exc.phase or "almost", "cause": exc.cause}
            )
            last = exc
            if exc.phase == "stars" and exc.cause in ("guide-build", "guide-restrict"):
                v1_bias += max(4, slack // 6)
            elif exc.phase == "paths":
                v1_bias -= max(4, slack // 8)
    raise PhaseFailure("almost", last.cause, str(last), attempts=params.retries)


def _check_degree_cap(tree: OrientedTree, params: ParamSchedule, n: int) -> None:
    cap = params.degree_cap(n)
    dplus, dminus = max_semidegree(tree)
    if max(dplus, dminus) > cap:
        raise ValueError(
            f"guest tree max in/out degree {max(dplus, dminus)} exceeds the "
            f"schedule cap {cap}; raise max_tree_semidegree to accept it"
        )


def _greedy(
    d: Digraph,
    tree: OrientedTree,
    t: int,
    v: int | None,
    params: ParamSchedule,
    rng: np.random.Generator,
    phase: str,
) -> tuple[Embedding, int]:
    """Verified greedy prefix embedding with t at v, for trees far below host scale.

    With v None, each try first draws a uniform host for t.  A stuck walk is
    resampled, and a spent budget is a PhaseFailure of `phase`.  Returns the
    embedding and the number of tries it took.
    """
    order = prefix_order(tree, t)
    tries = 0

    def once() -> np.ndarray:
        nonlocal tries
        tries += 1
        root_host = int(rng.integers(d.n)) if v is None else v
        hosts = greedy_walk(d, order, np.ones(d.n, dtype=bool), rng, root_host=root_host)
        if hosts is None:
            raise PipelineError("greedy walk stuck", cause="leaf-greedy-fail")
        return hosts

    hosts = _retry(phase, params.retries, once)
    emb = Embedding()
    for tv, host in zip(order.order, hosts):
        emb.assign(tv, host, "greedy")
    if not is_valid_embedding(d, tree, emb):
        raise VerificationError(f"{phase} greedy embedding failed verification")
    return emb, tries


def path_piece_inputs(tree: OrientedTree, td: TreeDecomposition) -> list[tuple[TreePiece, int, int]]:
    """attach_path_trees inputs for td.pieces: (piece, local x, local y) each."""
    out = []
    for p in td.pieces:
        piece = induced_subtree(tree, [p.x, p.y, p.mid_x, p.mid_y, *p.body])
        pos = {int(h): i for i, h in enumerate(piece.labels)}
        out.append((piece, pos[p.x], pos[p.y]))
    return out


def _assemble_almost(
    d: Digraph,
    tree: OrientedTree,
    t: int,
    v: int,
    params: ParamSchedule,
    rng: np.random.Generator,
    td: TreeDecomposition,
    stars: list[StarComponent],
    v1: np.ndarray,
    v2: np.ndarray,
    v3: np.ndarray,
) -> Embedding:
    # Star layer inside V1.  The guest tree keeps its own ids throughout;
    # only host vertices pass through the induced-subgraph relabeling.
    d1, labels1 = d.induce(v1)
    labels1 = labels1.tolist()
    back1 = {h: i for i, h in enumerate(labels1)}
    emb1 = embed_stars(
        d1,
        tree,
        {int(x) for x in td.t0},
        stars,
        t,
        back1[v],
        params,
        rng,
    )
    emb = Embedding()
    for tv, lh in emb1.map.items():
        emb.assign(tv, labels1[lh], emb1.phase.get(tv, "stars"))

    # Path pieces through V2 (anchors cross over from V1).
    if td.pieces:
        piece_inputs = path_piece_inputs(tree, td)
        anchor_pairs = [(emb[p.x], emb[p.y]) for p in td.pieces]
        anchor_hosts = sorted({h for pair in anchor_pairs for h in pair})
        d2_verts = np.array(sorted(set(v2.tolist()) | set(anchor_hosts)), dtype=np.int64)
        d2, labels2 = d.induce(d2_verts)
        labels2 = labels2.tolist()
        back2 = {h: i for i, h in enumerate(labels2)}
        local_pairs = [(back2[a], back2[b]) for a, b in anchor_pairs]
        maps = attach_path_trees(d2, piece_inputs, local_pairs, params, rng)
        for (piece, _r, _s), pmap in zip(piece_inputs, maps):
            labels = piece.labels.tolist()
            for lv, lh in pmap.items():
                tv = labels[lv]
                if tv not in emb:   # the anchors x, y are already placed
                    emb.assign(tv, labels2[lh], "paths")

    # Leftover leaves greedily into V3.  Like the lean-star walk, candidates
    # are read in the iteration order of a set of V3's hosts.
    leftovers = sorted({u for s_ in td.leftovers.values() for u in s_})
    if leftovers:
        v3_order = np.fromiter(set(int(x) for x in v3), dtype=np.int64)
        v3_free = np.zeros(d.n, dtype=bool)
        v3_free[v3] = True
        left_set = set(leftovers)
        ordered: list[tuple[int, int, Sign]] = []
        seen: set[int] = set()
        frontier = [u for u in leftovers if any(w in emb for w in tree.nbrs(u))]
        while frontier:
            nxt: list[int] = []
            for u in sorted(frontier):
                if u in seen:
                    continue
                parents = [w for w in tree.nbrs(u) if w in emb or w in seen]
                parent = parents[0]
                ordered.append((u, parent, tree.edge_sign(parent, u)))
                seen.add(u)
                nxt.extend(w for w in tree.nbrs(u) if w in left_set and w not in seen)
            frontier = nxt
        placed: dict[int, int] = {}
        for u, parent, sign in ordered:
            parent_host = emb[parent] if parent in emb else placed[parent]
            host = draw_host(d.adj_row(parent_host, sign) & v3_free, rng, v3_order)
            if host is None:
                raise PhaseFailure("leaves", "leaf-greedy-fail",
                                   f"no V3 candidate for leftover {u}", 1)
            placed[u] = host
            v3_free[host] = False
        for u, host in placed.items():
            emb.assign(u, host, "greedy-leaf")
    return emb


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
    block goes through BLAS; on a complete host it is ell x ell.  Counts stay
    below 2**24, so float32 holds them exactly.
    """
    n = d.n
    ell = len(hosts)
    # Rows of no_arc: [k, y] = no arc hosts[k] -> y, then [ell + k, y] = no
    # arc y -> hosts[k].  For sign + the latter block is Xb transposed, for -
    # the former; both also carry every row Mb is an OR of.
    no_arc = np.empty((2 * ell, n), dtype=bool)
    np.logical_not(d.mat[hosts], out=no_arc[:ell])
    # Gather the columns in ascending host order (faster), scatter back in trunk order.
    by_host = np.argsort(hosts)
    cols = d.mat[:, hosts[by_host]]
    np.logical_not(cols, out=cols)
    no_arc[ell + by_host] = cols.T

    # Each trunk arc u -> w blocks y at u by "no arc y -> host(w)" and at w
    # by "no arc host(u) -> y".  Every index past the root has one parent, so
    # the child side is one gather; parents OR in one row per child, one
    # batch per sibling rank (the parents within a batch are distinct).
    parent = np.asarray(order.parent_index[1:], dtype=np.int64)
    minus = np.fromiter((s is Sign.MINUS for s in order.sign[1:]), dtype=bool, count=ell - 1)
    blocked = np.zeros((ell, n), dtype=bool)
    blocked[1:] = no_arc[parent + ell * minus]
    by_parent = np.argsort(parent, kind="stable")
    grouped = parent[by_parent]
    rank = np.arange(ell - 1) - np.searchsorted(grouped, grouped)
    from_child = np.arange(1, ell) + ell * ~minus
    for r in range(int(rank.max(initial=-1)) + 1):
        batch = by_parent[rank == r]
        blocked[parent[batch]] |= no_arc[from_child[batch]]

    # Bool sums in the smallest dtype that holds ell: a wider one makes numpy
    # cast through a buffer.
    count_dtype = np.min_scalar_type(ell)
    b = blocked.sum(axis=0, dtype=count_dtype)
    xb_ts = (no_arc[ell:], no_arc[:ell])   # Xb transposed, sign + then -
    a_by_sign = [xb_t.sum(axis=0, dtype=count_dtype) for xb_t in xb_ts]
    bound = ell - max(int(a.max()) for a in a_by_sign) - int(b.max())
    if threshold is not None and bound >= threshold:
        return bound

    ry = np.flatnonzero(b)
    blocked_ry = blocked[:, ry].astype(np.float32)
    slot_in_ry = np.full(n, -1, dtype=np.int64)
    slot_in_ry[ry] = np.arange(len(ry))
    floor = ell
    for xb_t, a in zip(xb_ts, a_by_sign):
        rx = np.flatnonzero(a)
        block = xb_t[:, rx].astype(np.float32).T @ blocked_ry
        block -= a[rx].astype(np.float32)[:, None]
        block -= b[ry].astype(np.float32)
        same = np.flatnonzero(slot_in_ry[rx] >= 0)
        block[same, slot_in_ry[rx[same]]] = np.inf
        floor = min(floor, ell + int(block.min()))
    return floor


def build_absorber(
    d: Digraph,
    tree: OrientedTree,
    t: int,
    params: ParamSchedule,
    rng: np.random.Generator,
) -> AbsorberState:
    """Randomly embed most of the absorber tree and certify property S.

    Splits the tree (the completed part holds t), orders the trunk with
    leaves last and bare-path middles consecutive, embeds it by the random
    greedy rule, then verifies that every (x, y, sign) has at least
    `threshold` switchable indices.  The union bound of `_property_s_floor`
    (ell minus the largest non-arc count of any x minus the largest blocked
    count of any y) settles most attempts; the exact float32 count runs only
    when the bound falls short of the threshold, and its floor decides the
    attempt and fills the S-fail message.  Both routes accept exactly the
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

    local_t = int(np.searchsorted(trunk.labels, t))
    order = prefix_order(trunk.tree, local_t, "leaves_last_middles_consecutive")
    ell = trunk.tree.n
    if ell <= threshold:
        raise PhaseFailure(
            "absorber", "S-fail",
            f"trunk of {ell} vertices cannot reach a switch threshold of {threshold}", 0,
        )

    def once() -> AbsorberState:
        free = np.ones(n, dtype=bool)
        anchor_host = int(rng.integers(n))
        hosts = greedy_walk(d, order, free, rng, root_host=anchor_host)
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
        extra = (
            rng.choice(np.flatnonzero(free), size=pad, replace=False)
            if pad else np.array([], dtype=np.int64)
        )
        a_set = np.array(sorted(set(hosts.tolist()) | set(int(x) for x in extra)), dtype=np.int64)
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

    For each new vertex y of B beyond the trunk image, an embedded index is
    picked whose host can serve as the next leaf (adjacency to the current
    attachment image), whose current copy-neighborhood y can take over, and
    whose copy degree is below the cap; y replaces it and the freed host
    becomes the new leaf.  Deterministic: smallest admissible index wins.
    """
    d = state.d
    b = np.asarray(sorted(int(x) for x in b_set), dtype=np.int64)
    a_set = set(int(x) for x in state.a_set)
    if not a_set <= set(b.tolist()):
        raise ValueError("B must contain A")
    if len(b) != state.tree.n:
        raise ValueError(f"|B| = {len(b)} must equal |T| = {state.tree.n}")

    order = state.order
    trunk = state.trunk
    labels = trunk.labels.tolist()
    role_of_index = [labels[lv] for lv in order.order]
    host_of_role = dict(zip(role_of_index, state.hosts.tolist()))

    # Current copy adjacency, by tree-vertex role.
    nbr_out: dict[int, list[int]] = {r: [] for r in role_of_index}
    nbr_in: dict[int, list[int]] = {r: [] for r in role_of_index}
    for lu, lw in trunk.tree.edge_list:
        u, w = labels[lu], labels[lw]
        nbr_out[u].append(w)
        nbr_in[w].append(u)

    new_hosts = sorted(set(b.tolist()) - set(host_of_role.values()))
    rest = state.rest
    local_shared = int(np.searchsorted(rest.labels, state.shared))
    rest_order = prefix_order(rest.tree, local_shared)
    rest_labels = rest.labels.tolist()
    slots = [
        (rest_labels[rest_order.order[i]],
         rest_labels[rest_order.order[rest_order.parent_index[i]]],
         rest_order.sign[i])
        for i in range(1, rest.tree.n)
    ]
    if len(slots) != len(new_hosts):
        raise ValueError(f"{len(new_hosts)} new vertices for {len(slots)} tree slots")

    cap = max(6, math.ceil(4 * d.n / max(state.threshold, 1)))
    retired = np.zeros(len(role_of_index), dtype=bool)
    retired[0] = True  # the anchor is never switched out

    for step, (y, (slot, parent_role, sign)) in enumerate(zip(new_hosts, slots)):
        x_host = host_of_role[parent_role]
        chosen = -1
        for j in range(1, len(role_of_index)):
            if retired[j]:
                continue
            role = role_of_index[j]
            cand = host_of_role[role]
            if sign is Sign.PLUS:
                if not d.mat[x_host, cand]:
                    continue
            else:
                if not d.mat[cand, x_host]:
                    continue
            deg = len(nbr_out[role]) + len(nbr_in[role])
            if deg > cap:
                continue
            ok = all(d.mat[y, host_of_role[w]] for w in nbr_out[role]) and all(
                d.mat[host_of_role[w], y] for w in nbr_in[role]
            )
            if not ok:
                continue
            chosen = j
            break
        if chosen < 0:
            raise AbsorptionError(
                f"absorption stuck at step {step + 1}/{len(slots)}: no admissible index "
                f"(threshold {state.threshold}, retired {int(retired.sum())})"
            )
        role = role_of_index[chosen]
        freed = host_of_role[role]
        host_of_role[role] = y
        host_of_role[slot] = freed
        nbr_out.setdefault(slot, [])
        nbr_in.setdefault(slot, [])
        if sign is Sign.PLUS:
            nbr_out[parent_role].append(slot)
            nbr_in[slot].append(parent_role)
        else:
            nbr_out[slot].append(parent_role)
            nbr_in[parent_role].append(slot)
        retired[chosen] = True

    emb = Embedding()
    for role, host in host_of_role.items():
        emb.assign(role, host, "absorber")
    if not is_valid_embedding(d, state.tree, emb) or emb[state.t] != state.anchor_host:
        raise VerificationError("absorption produced a broken copy")
    return emb


def absorb_at_random(
    d: Digraph,
    tree: OrientedTree,
    t: int,
    params: ParamSchedule,
    rng: np.random.Generator,
) -> tuple[AbsorberState, Embedding]:
    """Build the absorber for `tree`, then complete it on A plus uniform extra hosts."""
    state = build_absorber(d, tree, t, params, rng)
    free = np.array(sorted(set(range(d.n)) - set(state.a_set.tolist())), dtype=np.int64)
    extra = rng.choice(free, size=tree.n - len(state.a_set), replace=False)
    b_set = np.array(sorted(set(state.a_set.tolist()) | {int(x) for x in extra}), dtype=np.int64)
    return state, complete_absorption(state, b_set)


def _millis_since(start: float) -> float:
    """Wall milliseconds since a perf_counter reading (telemetry `*_millis` keys)."""
    return round(1000.0 * (time.perf_counter() - start), 3)


def embed_spanning(
    d: Digraph,
    tree: OrientedTree,
    params: ParamSchedule,
    rng: np.random.Generator,
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

    if n < 40:
        # Below the structural minimum for the absorber split; on hosts this
        # small a retried greedy walk is the only sensible route.
        emb, phases["tiny-greedy"] = _greedy(d, tree, anchor, None, params, rng, "spanning")
        return emb, telemetry

    trunk_piece, absorber_piece, shared = split_tree(tree, min(n // 3, params.absorber_size(n)))
    local_shared_abs = int(np.searchsorted(absorber_piece.labels, shared))
    local_shared_trunk = int(np.searchsorted(trunk_piece.labels, shared))
    absorber_tree = absorber_piece.tree.with_t(local_shared_abs)
    trunk_labels, absorber_labels = trunk_piece.labels.tolist(), absorber_piece.labels.tolist()
    outer_budget = max(2, params.retries // 3)
    last: PipelineError | None = None
    for outer in range(outer_budget):
        try:
            start = time.perf_counter()
            state = build_absorber(d, absorber_tree, local_shared_abs, params, rng)
            phases["absorber_build_millis"] = _millis_since(start)
            phases["absorber"] = {
                "size": absorber_tree.n, "threshold": state.threshold,
                "swaps": state.swap_count,
            }

            keep = sorted((set(range(n)) - set(state.a_set.tolist())) | {state.anchor_host})
            d_rest, labels_rest = d.induce(np.array(keep, dtype=np.int64))
            labels_rest = labels_rest.tolist()
            back = {h: i for i, h in enumerate(labels_rest)}
            start = time.perf_counter()
            emb_almost, tele_almost = embed_almost_spanning(
                d_rest,
                trunk_piece.tree.with_t(local_shared_trunk),
                local_shared_trunk,
                back[state.anchor_host],
                params,
                rng,
            )
            phases["almost_millis"] = _millis_since(start)
            phases["almost"] = tele_almost

            used_global = {labels_rest[h] for h in emb_almost.used}
            leftover = set(range(n)) - used_global - set(state.a_set.tolist())
            b_set = np.array(sorted(set(state.a_set.tolist()) | leftover), dtype=np.int64)
            start = time.perf_counter()
            emb_abs = complete_absorption(state, b_set)
            phases["absorption_millis"] = _millis_since(start)

            total = Embedding()
            for lv, lh in emb_almost.map.items():
                total.assign(trunk_labels[lv], labels_rest[lh], "almost")
            for lv, host in emb_abs.map.items():
                tv = absorber_labels[lv]
                if tv not in total:   # the shared vertex is placed by both sides
                    total.assign(tv, host, "absorber")
            if not is_valid_embedding(d, tree, total) or len(total.used) != n:
                raise VerificationError("spanning embedding failed verification")
            phases["outer_attempts"] = outer + 1
            return total, telemetry
        except PipelineError as exc:
            telemetry["failures"].append({"outer": outer, "cause": exc.cause, "detail": str(exc)})
            last = exc

    # Trees whose degrees dwarf the nominal cap sit outside the guarantee the
    # pipeline realizes (a star's absorber has no switch reservoir: every
    # leaf's copy-neighborhood is the center's image).  For those, and only
    # those, fall back to a retried greedy walk; cap-compliant trees report
    # their pipeline failure honestly.
    nominal_cap = params.with_updates(max_tree_semidegree=3).degree_cap(n)
    if max(max_semidegree(tree)) > nominal_cap:
        with contextlib.suppress(PhaseFailure):
            emb, phases["over-cap-greedy"] = _greedy(d, tree, anchor, None, params, rng, "spanning")
            return emb, telemetry
    raise PhaseFailure("spanning", last.cause, str(last), attempts=outer_budget)
