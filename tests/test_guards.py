"""Repository guards: the library holds no `assert`, every perfbench probe resolves,
and the scaling record's digests reproduce."""

import ast
import importlib.util
import json
from pathlib import Path

import pytest

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
