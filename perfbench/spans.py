"""Span recorder for the traced benchmark run.

Spans are taken from outside the library: `Tracer.installed()` rebinds the
module-level names and methods that spantree's own code looks up at call
time, so each call into a probed function opens a span around the real one.
Nothing under src/ knows about it, and the wrappers draw no random numbers,
so a traced call must return exactly what an untraced one does.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

import spantree.digraph
import spantree.embedder
import spantree.guides
import spantree.matching

# (owner, attribute, span name).  A function imported into several modules
# is rebound in every module whose code calls it during embed_spanning.
PROBES = (
    (spantree.digraph.Digraph, "induce", "digraph.induce"),
    (spantree.embedder, "decompose", "decompose"),
    (spantree.guides, "build_guide", "guides.build_guide"),
    (spantree.guides, "build_xy_labeling", "guides.xy_labeling"),
    (spantree.guides.GuideSystem, "get", "guides.get"),
    (spantree.embedder, "covering_matching", "matching.covering"),
    (spantree.guides, "covering_matching", "matching.covering"),
    (spantree.matching, "covering_matching", "matching.covering"),
    (spantree.embedder, "embed_tree_copies", "matching.tree_copies"),
    (spantree.matching, "embed_tree_copies", "matching.tree_copies"),
    (spantree.embedder, "embed_small_forest", "matching.small_forest"),
    (spantree.embedder, "embed_core_with_leaf_sets", "embedder.core"),
    (spantree.embedder, "embed_stars", "embedder.stars"),
    (spantree.embedder, "attach_path_trees", "embedder.paths"),
    (spantree.embedder, "embed_almost_spanning", "embedder.almost"),
    (spantree.embedder, "build_absorber", "embedder.absorber_build"),
    (spantree.embedder, "complete_absorption", "embedder.absorber_complete"),
)

# Layers reported by self time (span minus child spans); the rest by busy time.
SELF_TIMED = (
    "embedder.core",
    "embedder.stars",
    "embedder.paths",
    "embedder.almost",
    "embedder.absorber_build",
    "embedder.absorber_complete",
)

ROOT_SPAN = "embed_spanning"


class Tracer:
    """In-memory spans: [name, start, end, parent id, instance id, failed]."""

    def __init__(self):
        self.spans: list[list] = []
        self.instance: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            record = [name, time.perf_counter(), 0.0,
                      stack[-1] if stack else None, self.instance, False]
            spans.append(record)
            stack.append(span_id)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                record[5] = True
                raise
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every probe for the duration of the block."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in PROBES]
        try:
            for owner, attr, name in PROBES:
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr]))
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Busy/self seconds, call and failure counts per probed name."""
        child_s: dict[int, float] = defaultdict(float)
        has_child: set[int] = set()
        for name, start, end, parent, _inst, _failed in self.spans:
            if parent is not None:
                child_s[parent] += end - start
                has_child.add(parent)
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        failed: dict[str, int] = defaultdict(int)
        get_hits = 0
        for span_id, (name, start, end, _parent, _inst, was_failed) in enumerate(self.spans):
            busy[name] += end - start
            own[name] += end - start - child_s[span_id]
            calls[name] += 1
            failed[name] += was_failed
            if name == "guides.get" and span_id not in has_child:
                get_hits += 1

        m: dict[str, float] = {
            "digraph.induce_s": busy["digraph.induce"],
            "digraph.induce_calls": calls["digraph.induce"],
            "decompose.s": busy["decompose"],
            "decompose.calls": calls["decompose"],
            "guides.build_guide_s": busy["guides.build_guide"],
            "guides.build_guide_calls": calls["guides.build_guide"],
            "guides.build_guide_failed": failed["guides.build_guide"],
            "guides.xy_labeling_s": busy["guides.xy_labeling"],
            "guides.xy_labeling_calls": calls["guides.xy_labeling"],
            "guides.get_calls": calls["guides.get"],
            "guides.get_hit_ratio": get_hits / calls["guides.get"] if calls["guides.get"] else 0.0,
            "matching.covering_s": busy["matching.covering"],
            "matching.covering_calls": calls["matching.covering"],
            "matching.covering_failed": failed["matching.covering"],
            "matching.tree_copies_s": busy["matching.tree_copies"],
            "matching.small_forest_s": busy["matching.small_forest"],
            "matching.small_forest_failed": failed["matching.small_forest"],
        }
        for name in SELF_TIMED:
            m[f"{name}.self_s"] = own[name]
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.failed"] = failed[name]
        m["oracle.verify_s"] = busy["oracle.verify"]
        root_s = busy[ROOT_SPAN]
        m["trace.unattributed_share"] = own[ROOT_SPAN] / root_s if root_s else 0.0
        return m

    def dump(self, path, t0: float) -> None:
        """Write one JSON object per span, times in seconds since `t0`."""
        with open(path, "w") as fh:
            for span_id, (name, start, end, parent, inst, was_failed) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": span_id, "name": name,
                    "start": round(start - t0, 9), "end": round(end - t0, 9),
                    "parent": parent, "instance": inst, "failed": was_failed,
                }) + "\n")
