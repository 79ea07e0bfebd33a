"""Repository guards: the library holds no `assert`, every perfbench probe resolves,
and the scaling record's and the bench seed's embeddings reproduce."""

import ast
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

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
