"""Text formats for digraphs, trees, matchings, and embeddings.

Digraph files: header line ``digraph <n>``, then one ``u v`` line per edge
meaning u->v.  Tree files: header ``tree <n> [t=<vertex>]`` then edges.  A
header starts with exactly its keyword and holds no other token.
Blank lines and ``#`` comments are ignored; writers emit edges sorted by
(u, v), so round-trips are bit-exact.
"""

from __future__ import annotations

from .digraph import Digraph
from .trees import OrientedTree


class FormatError(ValueError):
    pass


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _edges(lines: list[str]) -> list[tuple[int, int]]:
    """One (u, v) per line of exactly two integer tokens, else FormatError naming the line."""
    edges = []
    for line in lines:
        try:
            u, v = map(int, line.split())
        except ValueError:
            raise FormatError(f"bad edge line: {line!r}") from None
        edges.append((u, v))
    return edges


def _header(lines: list[str], keyword: str, usage: str) -> tuple[int, list[str]]:
    """The size n after `keyword`, which must be the first token exactly, and the tokens after n."""
    head = lines[0].split() if lines else []
    if head[:1] != [keyword]:
        raise FormatError(f"expected {usage!r} header")
    try:
        return int(head[1]), head[2:]
    except (IndexError, ValueError) as exc:
        raise FormatError(f"bad {keyword} header") from exc


def dumps_digraph(d: Digraph) -> str:
    lines = [f"digraph {d.n}"]
    lines.extend(f"{u} {v}" for u, v in d.edges())
    return "\n".join(lines) + "\n"


def loads_digraph(text: str) -> Digraph:
    lines = _content_lines(text)
    n, rest = _header(lines, "digraph", "digraph <n>")
    if rest:
        raise FormatError(f"bad digraph header: {lines[0]!r}")
    edges = _edges(lines[1:])
    try:
        return Digraph.from_edges(n, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def dumps_tree(tree: OrientedTree) -> str:
    header = f"tree {tree.n}" + (f" t={tree.t}" if tree.t is not None else "")
    lines = [header]
    lines.extend(f"{u} {v}" for u, v in sorted(tree.edge_list))
    return "\n".join(lines) + "\n"


def loads_tree(text: str) -> OrientedTree:
    lines = _content_lines(text)
    n, rest = _header(lines, "tree", "tree <n> [t=<vertex>]")
    for token in rest:
        if not token.startswith("t="):
            raise FormatError(f"unknown header token {token!r}")
    try:
        (t,) = [int(token[2:]) for token in rest] or [None]   # a second t= fails to unpack
    except ValueError:
        raise FormatError(f"bad tree header: {lines[0]!r}") from None
    edges = _edges(lines[1:])
    try:
        return OrientedTree(n, edges, t=t)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def read_digraph(path) -> Digraph:
    with open(path) as fh:
        return loads_digraph(fh.read())


def write_digraph(path, d: Digraph) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_digraph(d))


def read_tree(path) -> OrientedTree:
    with open(path) as fh:
        return loads_tree(fh.read())


def write_tree(path, tree: OrientedTree) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_tree(tree))
