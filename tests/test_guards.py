"""Repository guards: the library holds no `assert` and no definition without a
caller and runs without scipy, every perfbench probe resolves, and the scaling
record's and the bench seed's embeddings and RNG stream reproduce."""

import ast
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spantree

ROOT = Path(__file__).resolve().parent.parent


def test_library_has_no_assert_statement():
    # `python -O` strips assert statements, so a check the library relies on must raise.
    found = []
    for path in sorted((ROOT / "src" / "spantree").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_only_the_reader_touches_a_bit_generator():
    # Every draw goes one way through numpy's calls or `draws`: no other module
    # saves, rewinds or replays a generator's state.
    found = []
    for path in sorted((ROOT / "src" / "spantree").glob("*.py")):
        if path.name != "draws.py":
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
                      if getattr(node, "id", getattr(node, "attr", None)) == "bit_generator"]
    assert found == []


def _names_in(node, skip=()):
    """Every Name, Attribute and import alias under `node`, not descending into `skip`."""
    skip_ids = {id(s) for s in skip}
    names, stack = set(), [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, ast.Name):
            names.add(cur.id)
        elif isinstance(cur, ast.Attribute):
            names.add(cur.attr)
        elif isinstance(cur, ast.alias):
            names.add(cur.name)
        stack.extend(child for child in ast.iter_child_nodes(cur) if id(child) not in skip_ids)
    return names


def test_every_library_definition_is_referenced():
    # A top-level function or class, or a method, that no library code names
    # outside its own definition and the package exports is API the pipeline
    # never runs.  Dunder methods are called by the language, not by name.
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    units = []     # (id of a top-level statement or a method, the names it mentions)
    defined = []   # (module, name, ids of the units that make up its own definition)
    # Units are keyed by id(), so every module tree stays alive for the whole
    # scan: a freed tree's ids can be reused by the next module's nodes.
    modules = [(path, ast.parse(path.read_text(), filename=str(path)))
               for path in sorted((ROOT / "src" / "spantree").glob("*.py"))]
    for path, module in modules:
        for stmt in module.body:
            methods = []
            if isinstance(stmt, ast.ClassDef):
                methods = [m for m in stmt.body if isinstance(m, funcs)
                           and not (m.name.startswith("__") and m.name.endswith("__"))]
                defined += [(path.name, f"{stmt.name}.{m.name}", {id(m)}) for m in methods]
            if isinstance(stmt, (*funcs, ast.ClassDef)):
                defined.append((path.name, stmt.name, {id(stmt)} | {id(m) for m in methods}))
            if path.name != "__init__.py":
                units.append((id(stmt), _names_in(stmt, skip=methods)))
                units += [(id(m), _names_in(m)) for m in methods]
    unreferenced = [
        f"{module}:{name}" for module, name, own in defined
        if not any(name.rsplit(".", 1)[-1] in names for unit, names in units if unit not in own)
    ]
    assert unreferenced == []


NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None   # every scipy import now raises ImportError
import numpy as np
import spantree
import spantree.cli
from spantree.matching import MatchingError, covering_matching
d = spantree.gen_semidegree_digraph(200, 0.25, np.random.default_rng(1))
tree = spantree.gen_random_tree(200, 3, "uniform", np.random.default_rng(2))
emb, _ = spantree.embed_spanning(d, tree, spantree.spanning_defaults(200, 0.25), np.random.default_rng(2))
if not spantree.verify_embedding(d, tree, emb):
    sys.exit(3)
try:
    covering_matching(np.array([[True, False], [True, False], [False, True]]))
except MatchingError as exc:
    sys.exit(0 if exc.violator.tolist() == [0, 1] else 4)
sys.exit(5)
"""


def test_library_runs_without_scipy():
    # scipy is a test dependency only.  The child reports through its exit
    # code, so the check holds under `python -O` too.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr[-2000:]


def test_every_perfbench_probe_resolves():
    # The traced bench rebinds each (owner, attr) in place; a deleted name breaks it.
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(owner.__name__, attr) for owner, attr, _span in spans.PROBES if attr not in vars(owner)]
    assert missing == []


@pytest.mark.parametrize("n", [500, 1000, 2000])
def test_scaling_record_digest_reproduces(n):
    # The reference call must stay bit-identical; BENCH_scaling.json holds its digests.
    spec = importlib.util.spec_from_file_location("tools_scaling", ROOT / "tools" / "scaling.py")
    scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaling)
    recorded = {run["n"]: run["digest"] for run in json.loads((ROOT / "BENCH_scaling.json").read_text())["runs"]}
    assert scaling.measure(n)["digest"] == recorded[n]


@pytest.mark.parametrize("workload, digest", [
    ("dense-uniform-800", "f5fa1f3bcbe3f72c"),
    ("dense-spider-2000", "96e5ea01476554e5"),
])
def test_bench_seed_embeddings_reproduce(workload, digest, monkeypatch):
    # The first three calls of bench seed 501, hashed as the bench hashes a
    # run: a pure-speed change must leave every one of these maps unchanged.
    loaded = {}
    for name in ("spans", "bench"):
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
        loaded[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, loaded[name])  # bench.py imports spans by name
        spec.loader.exec_module(loaded[name])
    bench = loaded["bench"]
    w = bench.WORKLOADS[workload]
    instances, _host_s = bench.generate(w, 501, 3)
    params = spantree.spanning_defaults(w.n, w.alpha)
    outcomes = [bench.embed_one(inst, params, spantree.embed_spanning, spantree.verify_embedding)
                for inst in instances]
    assert [o.error for o in outcomes] == [None] * 3
    lines = "".join(f"{i}:{o.digest_entry()}\n" for i, o in enumerate(outcomes))
    assert hashlib.sha256(lines.encode()).hexdigest()[:16] == digest


def test_bench_seed_stream_after_each_call(monkeypatch):
    # The first three dense-spider-2000 calls of bench seed 501, as above.  The
    # draw after each call pins the RNG stream where a map cannot: a walk that
    # drew more picks than it used would shift the draws after its call's last walk.
    loaded = {}
    for name in ("spans", "bench"):
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
        loaded[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, loaded[name])
        spec.loader.exec_module(loaded[name])
    w = loaded["bench"].WORKLOADS["dense-spider-2000"]
    instances, _host_s = loaded["bench"].generate(w, 501, 3)
    params = spantree.spanning_defaults(w.n, w.alpha)
    after = []
    for inst in instances:
        rng = np.random.default_rng(inst.embed_seed)
        spantree.embed_spanning(inst.host, inst.tree, params, rng)
        after.append(int(rng.integers(2**62)))
    assert after == [2249608225656012585, 4489773007377969298, 2605850032146696239]


@pytest.mark.parametrize("demo, digest", [
    ("01_generate_instances.py", "46a3a13b6724"),
    ("02_matchings.py", "76a10931662a"),
    ("03_tree_decomposition.py", "dbb0ef2365d3"),
    ("04_guide_graphs.py", "34ab7909383f"),
    ("05_almost_spanning.py", "3404a6b492d9"),
    ("06_absorption.py", "c5cc5e7eae9b"),
    ("07_spanning_pipeline.py", "290ba8d7f780"),
])
def test_demo_output_is_pinned(demo, digest):
    # Each demo's stdout and stderr, as one stream: a pure-speed change prints the same bytes.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=300)
    assert child.returncode == 0, child.stdout[-2000:]
    assert hashlib.sha256(child.stdout).hexdigest()[:12] == digest
