import hashlib
import json
import re
import subprocess
import sys

import pytest

import numpy as np

from spantree import cli
from spantree import io as tio
from spantree.cli import main, parse_experiment_config
from spantree.decompose import decompose
from spantree.digraph import Digraph, min_semidegree
from spantree.embedder import embed_almost_spanning
from spantree.embedding import Embedding
from spantree.params import spanning_defaults
from spantree.trees import FAMILIES, OrientedTree


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "spantree.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestFormats:
    def test_digraph_round_trip(self, tmp_path):
        from spantree.digraph import Digraph

        d = Digraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        path = tmp_path / "d.dg"
        tio.write_digraph(path, d)
        again = tio.read_digraph(path)
        assert again.edges() == d.edges()
        tio.write_digraph(tmp_path / "d2.dg", again)
        assert (tmp_path / "d.dg").read_bytes() == (tmp_path / "d2.dg").read_bytes()

    def test_tree_round_trip_with_anchor(self, tmp_path):
        tree = OrientedTree(4, [(1, 0), (1, 2), (3, 2)], t=2)
        path = tmp_path / "t.tree"
        tio.write_tree(path, tree)
        again = tio.read_tree(path)
        assert again.edge_list == tuple(sorted(tree.edge_list))
        assert again.t == 2

    def test_comments_and_blanks_ignored(self):
        text = "# header comment\n\ndigraph 3\n0 1  # an edge\n\n1 2\n"
        d = tio.loads_digraph(text)
        assert d.edges() == [(0, 1), (1, 2)]

    def test_format_errors(self):
        with pytest.raises(tio.FormatError):
            tio.loads_digraph("graph 3\n0 1\n")
        with pytest.raises(tio.FormatError):
            tio.loads_tree("tree 3\n0 1 2\n")

    @pytest.mark.parametrize("text,message", [
        ("", "expected 'digraph <n>' header"),
        ("digraph\n", "bad digraph header"),
        ("digraph x\n", "bad digraph header"),
        ("digraph 3\n0\n", "bad edge line: '0'"),
        ("digraph 3\n0 1 2\n", "bad edge line: '0 1 2'"),
        ("digraph 3\n0 x\n", "bad edge line: '0 x'"),
        ("digraph 3\n0 1.5\n", "bad edge line: '0 1.5'"),
        ("digraph 3\n1 1\n", "self-loop at 1"),
        ("digraph 3\n0 3\n", "edge (0,3) outside 0..2"),
        ("digraphs 3\n0 1\n", "expected 'digraph <n>' header"),
        ("digraph 3 7\n0 1\n", "bad digraph header: 'digraph 3 7'"),
    ])
    def test_digraph_rejections(self, text, message):
        with pytest.raises(tio.FormatError, match=f"^{re.escape(message)}$"):
            tio.loads_digraph(text)

    @pytest.mark.parametrize("text,message", [
        ("0 1\n", "expected 'tree <n> [t=<vertex>]' header"),
        ("tree\n", "bad tree header"),
        ("tree x\n", "bad tree header"),
        ("tree 2 r=1\n0 1\n", "unknown header token 'r=1'"),
        ("tree 2 t=q\n0 1\n", "bad tree header: 'tree 2 t=q'"),
        ("tree 3\n0 x\n1 2\n", "bad edge line: '0 x'"),
        ("tree 3\n0 1.5\n1 2\n", "bad edge line: '0 1.5'"),
        ("tree 3\n0 1\n", "a tree on 3 vertices needs 2 edges, got 1"),
        ("tree 2\n1 1\n", "bad edge (1,1)"),
        ("tree 3 t=3\n0 1\n1 2\n", "distinguished vertex 3 out of range"),
        ("tree 4\n0 1\n1 0\n2 3\n", "edges do not form a connected tree"),
        ("trees 2\n0 1\n", "expected 'tree <n> [t=<vertex>]' header"),
        ("tree 3 t=0 t=2\n0 1\n1 2\n", "bad tree header: 'tree 3 t=0 t=2'"),
    ])
    def test_tree_rejections(self, text, message):
        with pytest.raises(tio.FormatError, match=f"^{re.escape(message)}$"):
            tio.loads_tree(text)


class TestGen:
    def test_gen_digraph_and_verify_semidegree(self, tmp_path):
        out = tmp_path / "d.dg"
        code = main(["gen", "digraph", "--n", "120", "--alpha", "0.25",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        d = tio.read_digraph(out)
        assert min_semidegree(d) >= 90

    def test_gen_tree_path(self, tmp_path):
        out = tmp_path / "t.tree"
        assert main(["gen", "tree", "--n", "50", "--family", "path",
                     "--seed", "1", "--out", str(out)]) == 0
        tree = tio.read_tree(out)
        assert tree.n == 50

    def test_gen_family_choices_are_the_generators(self, tmp_path, capsys):
        for family in FAMILIES:
            out = tmp_path / f"{family}.tree"
            assert main(["gen", "tree", "--n", "4", "--family", family, "--seed", "1",
                         "--out", str(out)]) == 0
            assert tio.read_tree(out).n == 4
        with pytest.raises(SystemExit) as exc:
            main(["gen", "tree", "--n", "1", "--family", "bogus", "--seed", "1",
                  "--out", str(tmp_path / "bogus.tree")])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "bogus.tree").exists()

    def test_gen_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.dg", tmp_path / "b.dg"
        for out in (a, b):
            main(["gen", "digraph", "--n", "80", "--alpha", "0.2",
                  "--seed", "7", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_gen_infeasible_exits_one(self, tmp_path):
        code = main(["gen", "digraph", "--n", "4", "--alpha", "0.49",
                     "--seed", "1", "--out", str(tmp_path / "x.dg")])
        assert code == 1


class TestEmbed:
    def make_instance(self, tmp_path, n=200, alpha=0.3, tree_n=None, family="uniform"):
        dpath = tmp_path / "d.dg"
        tpath = tmp_path / "t.tree"
        main(["gen", "digraph", "--n", str(n), "--alpha", str(alpha),
              "--seed", "1", "--out", str(dpath)])
        main(["gen", "tree", "--n", str(tree_n or n), "--family", family,
              "--seed", "2", "--out", str(tpath)])
        return dpath, tpath

    def test_spanning_embed_verifies(self, tmp_path):
        dpath, tpath = self.make_instance(tmp_path)
        out = tmp_path / "emb.json"
        code = main(["embed", str(dpath), str(tpath), "--seed", "5", "--out", str(out)])
        assert code == 0
        assert main(["verify", str(dpath), str(tpath), str(out)]) == 0

    def test_tree_larger_than_host_exits_one(self, tmp_path):
        dpath, _ = self.make_instance(tmp_path, n=50)
        big = tmp_path / "big.tree"
        main(["gen", "tree", "--n", "60", "--family", "path", "--seed", "2",
              "--out", str(big)])
        assert main(["embed", str(dpath), str(big), "--seed", "1"]) == 1

    def test_almost_mode(self, tmp_path):
        dpath, tpath = self.make_instance(tmp_path, n=250, tree_n=200)
        out = tmp_path / "a.json"
        code = main(["embed", str(dpath), str(tpath), "--seed", "3",
                     "--phase", "almost", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["map"]) == 200

    def test_format_error_exits_one(self, tmp_path):
        bad = tmp_path / "bad.dg"
        bad.write_text("nonsense\n")
        _, tpath = self.make_instance(tmp_path, n=30)
        assert main(["embed", str(bad), str(tpath), "--seed", "1"]) == 1

    @pytest.mark.parametrize("which, header, message", [
        ("digraph", "digraphs 30", "expected 'digraph <n>' header"),
        ("digraph", "digraph 30 7", "bad digraph header: 'digraph 30 7'"),
        ("tree", "trees 30", "expected 'tree <n> [t=<vertex>]' header"),
        ("tree", "tree 30 t=0 t=2", "bad tree header: 'tree 30 t=0 t=2'"),
    ])
    def test_loose_header_exits_one(self, tmp_path, capsys, which, header, message):
        dpath, tpath = self.make_instance(tmp_path, n=30)
        out = tmp_path / "emb.json"
        assert main(["embed", str(dpath), str(tpath), "--seed", "1", "--out", str(out)]) == 0
        path = dpath if which == "digraph" else tpath
        path.write_text("\n".join([header, *path.read_text().splitlines()[1:]]) + "\n")
        capsys.readouterr()
        assert main(["embed", str(dpath), str(tpath), "--seed", "1"]) == 1
        assert main(["verify", str(dpath), str(tpath), str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n" * 2

    def test_non_integer_token_exits_one(self, tmp_path, capsys):
        dpath, _ = self.make_instance(tmp_path, n=30)
        bad = tmp_path / "bad.tree"
        bad.write_text("tree 3\n0 1\n1 two\n")
        assert main(["embed", str(dpath), str(bad), "--seed", "1"]) == 1
        assert capsys.readouterr().err == "error: bad edge line: '1 two'\n"

    def test_deterministic_output_bytes(self, tmp_path):
        dpath, tpath = self.make_instance(tmp_path, n=150)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            code = main(["embed", str(dpath), str(tpath), "--seed", "9", "--out", str(out)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_phase_selectors(self, tmp_path):
        dpath, tpath = self.make_instance(tmp_path, n=260, tree_n=220, family="path")
        for phase in ("stars", "paths"):
            out = tmp_path / f"{phase}.json"
            code = main(["embed", str(dpath), str(tpath), "--seed", "6",
                         "--phase", phase, "--out", str(out)])
            assert code == 0, phase
            doc = json.loads(out.read_text())
            assert doc["map"]
        small = tmp_path / "small.tree"
        main(["gen", "tree", "--n", "80", "--family", "uniform", "--seed", "5",
              "--out", str(small)])
        out = tmp_path / "absorber.json"
        assert main(["embed", str(dpath), str(small), "--seed", "6",
                     "--phase", "absorber", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["telemetry"]["phase"] == "absorber"

    def test_paths_phase_output_bytes(self, tmp_path):
        dpath, tpath = self.make_instance(tmp_path, n=260, tree_n=220, family="path")
        out = tmp_path / "paths.json"
        assert main(["embed", str(dpath), str(tpath), "--seed", "6", "--phase", "paths",
                     "--out", str(out)]) == 0
        digest = "2113368ae135777543af6614d964b3e1bf3b1a3a72f4e1cc52cb1eee2b82d9e1"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        # Piece i's anchors x and y sit at the i-th pair of a host permutation
        # drawn first from the seed.
        hosts = json.loads(out.read_text())["map"]
        perm = np.random.default_rng(6).permutation(260).tolist()
        pieces = decompose(tio.read_tree(tpath), 0, spanning_defaults(260, 0.3)).pieces
        assert pieces
        for i, p in enumerate(pieces):
            assert (hosts[str(p.x)], hosts[str(p.y)]) == (perm[2 * i], perm[2 * i + 1])

    def test_timings_only_on_request(self, tmp_path):
        dpath, tpath = self.make_instance(tmp_path, n=150, alpha=0.24)
        plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
        assert main(["embed", str(dpath), str(tpath), "--seed", "9", "--out", str(plain)]) == 0
        assert main(["embed", str(dpath), str(tpath), "--seed", "9", "--timings",
                     "--out", str(timed)]) == 0
        # Default output is pinned byte for byte: wall-clock keys never reach it.
        digest = "a5c32eb07b04df3130d1f4ac3b81ddbefbe6f9782fc2ae92fe95065261f2df8a"
        assert hashlib.sha256(plain.read_bytes()).hexdigest() == digest
        doc = json.loads(timed.read_text())
        assert doc["map"] == json.loads(plain.read_text())["map"]
        phases = doc["telemetry"]["phases"]
        for key in ("absorber_build_millis", "almost_millis", "absorption_millis"):
            assert phases[key] >= 0

    def test_verify_rejects_corrupted(self, tmp_path):
        dpath, tpath = self.make_instance(tmp_path, n=120)
        out = tmp_path / "e.json"
        assert main(["embed", str(dpath), str(tpath), "--seed", "4", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        keys = sorted(doc["map"])
        # break injectivity: two tree vertices on the same host
        doc["map"][keys[0]] = doc["map"][keys[1]]
        out.write_text(json.dumps(doc))
        assert main(["verify", str(dpath), str(tpath), str(out)]) != 0


class TestExperiment:
    CONFIG = """
[experiment]
target = matching
trials = 4
seed = 11

[grid]
n = 80,120
alpha = 0.2
tree_family = uniform
set_size = 15
"""

    def test_experiment_csv(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG)
        out = tmp_path / "out.csv"
        assert main(["experiment", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("seed,n,alpha")
        assert len(lines) == 1 + 2 * 4

    def test_experiment_deterministic(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["experiment", str(cfg), "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_empty_grid_header_only(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[experiment]\ntarget = matching\ntrials = 0\nseed = 1\n")
        out = tmp_path / "o.csv"
        assert main(["experiment", str(cfg), "--out", str(out)]) == 0
        assert out.read_text().strip() == "seed,n,alpha,tree_family,target,success,retries,millis,failure_cause"

    def test_parse_grid(self):
        configs, jobs = parse_experiment_config(self.CONFIG)
        assert len(configs) == 2
        assert {c.n for c in configs} == {80, 120}


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "d.dg"
        code, stdout, _ = run_cli(["gen", "digraph", "--n", "60", "--alpha", "0.2",
                                   "--seed", "3", "--out", str(out)])
        assert code == 0
        assert "min_semidegree" in stdout


class TestFailureCause:
    def test_isolated_phase_reports_decompose(self, tmp_path, capsys):
        dpath, tpath = tmp_path / "d.dg", tmp_path / "t.tree"
        main(["gen", "digraph", "--n", "40", "--alpha", "0.25", "--seed", "1", "--out", str(dpath)])
        main(["gen", "tree", "--n", "9", "--family", "path", "--seed", "1", "--out", str(tpath)])
        for phase in ("stars", "paths"):
            capsys.readouterr()
            assert main(["embed", str(dpath), str(tpath), "--seed", "1", "--phase", phase]) == 2
            doc = json.loads(capsys.readouterr().out)
            assert doc["cause"] == "decompose", phase
            assert doc["detail"].startswith("decomposition failed: P1")


class TestScheduleKeys:
    @pytest.mark.parametrize("key", ["foo", "p", "q", "anchor_mode"])
    def test_unknown_key_rejected(self, key):
        with pytest.raises(ValueError, match="unknown \\[schedule\\] key"):
            parse_experiment_config(f"[schedule]\n{key} = 1\n")

    def test_known_keys_apply(self):
        configs, _ = parse_experiment_config("[grid]\nn = 200\n[schedule]\neps = 0.08\nbigk = 90\nk = 14\n")
        sched = configs[0].schedule
        assert (sched.eps, sched.K, sched.k) == (0.08, 90, 14)

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[experiment]\ntarget = matching\ntrials = 1\n[schedule]\nfoo = 1\n")
        assert main(["experiment", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: bad config: unknown [schedule] key 'foo'")

    @pytest.mark.parametrize("key", ["guide_eps", "guide_eta", "pop_min", "part_slack", "part_pad"])
    def test_constant_key_exits_one(self, key, tmp_path, capsys):
        # Constants of the guide, forest and leaf-part code, not schedule fields.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[experiment]\ntarget = matching\ntrials = 1\n[schedule]\n{key} = 1\n")
        assert main(["experiment", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: bad config: unknown [schedule] key '{key}'")

    def test_int_fields_parse_as_int(self):
        configs, _ = parse_experiment_config(
            "[grid]\nn = 200\n[schedule]\nmax_tree_semidegree = 5\nstrip_eps = 0.03\n"
        )
        sched = configs[0].schedule
        assert type(sched.max_tree_semidegree) is int and sched.max_tree_semidegree == 5
        assert sched.strip_eps == 0.03
        # The degree-cap error quotes the cap as configured.
        host = Digraph(20, ~np.eye(20, dtype=bool))
        star = OrientedTree(8, [(0, i) for i in range(1, 8)])
        with pytest.raises(ValueError, match="schedule cap 5;"):
            embed_almost_spanning(host, star, 0, 0, sched, np.random.default_rng(0))

    def test_zero_retries_exits_one(self, tmp_path, capsys):
        dpath, tpath = TestEmbed().make_instance(tmp_path, n=60)
        assert main(["embed", str(dpath), str(tpath), "--seed", "1", "--p-retries", "0"]) == 1
        assert "retry budget must be at least 1" in capsys.readouterr().err


class TestVerifyWithoutAssert:
    """Each map the CLI returns is checked explicitly; a broken one exits 2 with cause verify."""

    @pytest.fixture
    def instance(self, tmp_path):
        # Every host arc runs i -> i-1, so the identity map reverses each tree arc.
        n = 12
        dpath, tpath = tmp_path / "d.dg", tmp_path / "t.tree"
        tio.write_digraph(dpath, Digraph.from_edges(n, [(i, i - 1) for i in range(1, n)]))
        tio.write_tree(tpath, OrientedTree(4, [(0, 1), (1, 2), (2, 3)]))
        spanning = tmp_path / "s.tree"
        tio.write_tree(spanning, OrientedTree(n, [(i, i + 1) for i in range(n - 1)]))
        return dpath, tpath, spanning

    @staticmethod
    def identity(n):
        emb = Embedding()
        for v in range(n):
            emb.assign(v, v)
        return emb

    def run(self, args, capsys):
        capsys.readouterr()
        code = main(args)
        return code, json.loads(capsys.readouterr().out)

    def test_full_embedding_with_a_reversed_arc(self, instance, monkeypatch, capsys):
        dpath, _tpath, spanning = instance
        monkeypatch.setattr(cli, "embed_spanning", lambda d, tree, params, rng: (self.identity(tree.n), {}))
        code, doc = self.run(["embed", str(dpath), str(spanning), "--seed", "1"], capsys)
        assert code == 2
        assert doc == {"success": False, "cause": "verify", "detail": "embedding failed verification"}

    def test_absorber_phase_with_a_reversed_arc(self, instance, monkeypatch, capsys):
        dpath, tpath, _spanning = instance
        monkeypatch.setattr(cli, "absorb_at_random", lambda d, tree, t, params, rng: (None, self.identity(tree.n)))
        code, doc = self.run(["embed", str(dpath), str(tpath), "--seed", "1", "--phase", "absorber"], capsys)
        assert (code, doc["cause"]) == (2, "verify")

    def test_stars_phase_with_a_reversed_arc(self, instance, monkeypatch, capsys):
        dpath, tpath, _spanning = instance
        monkeypatch.setattr(cli, "decompose", lambda tree, t, params: type("TD", (), {"t0": [0]})())
        monkeypatch.setattr(cli, "stars_from_decomposition", lambda td: [])
        monkeypatch.setattr(cli, "embed_stars", lambda d, tree, *rest: self.identity(2))
        code, doc = self.run(["embed", str(dpath), str(tpath), "--seed", "1", "--phase", "stars"], capsys)
        assert (code, doc["cause"]) == (2, "verify")

    def test_paths_phase_with_a_reversed_arc(self, instance, monkeypatch, capsys):
        # The path 0 -> 1 -> 2 -> 3 is one piece with anchors x = 0 and y = 3.
        # Seed 1 draws them to hosts 8 and 11, and the body goes to 9 and 10,
        # so every tree arc lands on a host arc run backwards.
        dpath, tpath, _spanning = instance
        piece = type("Piece", (), {"x": 0, "y": 3})()
        monkeypatch.setattr(cli, "decompose", lambda tree, t, params: type("TD", (), {"pieces": [piece]})())
        monkeypatch.setattr(cli, "attach_path_trees",
                            lambda d, tree, pieces, anchors, *rest: (np.array([1, 2]), np.array([anchors[0][0] + 1, anchors[0][1] - 1])))
        code, doc = self.run(["embed", str(dpath), str(tpath), "--seed", "1", "--phase", "paths"], capsys)
        assert code == 2
        assert doc == {"success": False, "cause": "verify", "detail": "paths phase embedding failed verification"}


class TestVerifyInput:
    """`spantree verify` range-checks every id and rejects documents without a map object."""

    @pytest.fixture
    def instance(self, tmp_path):
        dpath, tpath = tmp_path / "d.dg", tmp_path / "t.tree"
        tio.write_digraph(dpath, Digraph.from_edges(3, [(u, v) for u in range(3) for v in range(3) if u != v]))
        tio.write_tree(tpath, OrientedTree(4, [(0, 1), (1, 2), (2, 3)]))
        return dpath, tpath

    def verify(self, instance, tmp_path, doc, capsys):
        epath = tmp_path / "e.json"
        epath.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["verify", *map(str, instance), str(epath)])
        return code, capsys.readouterr()

    @pytest.mark.parametrize("last_host", [-3, 3, 7])
    def test_host_outside_the_digraph_is_not_verified(self, instance, tmp_path, capsys, last_host):
        doc = {"map": {"0": 0, "1": 1, "2": 2, "3": last_host}}
        code, out = self.verify(instance, tmp_path, doc, capsys)
        assert (code, out.out) == (2, "verified=False\n")

    @pytest.mark.parametrize("doc", [{"mapp": {}}, [1, 2], {"map": [0, 1]}, {"map": {"0": None}}])
    def test_document_without_a_map_object_exits_one(self, instance, tmp_path, capsys, doc):
        code, out = self.verify(instance, tmp_path, doc, capsys)
        assert code == 1
        assert out.err.startswith("error: ")

    @pytest.mark.parametrize("key, value", [
        ("2", 2.0), ("2", 2.5), ("1", True), ("2", "2"),         # values: JSON integers only
        ("02", 2), ("+2", 2), (" 2", 2), ("0_2", 2), ("-0", 0), ("٢", 2),   # keys as str(int) writes them
    ])
    def test_entry_that_is_not_an_integer_exits_one(self, tmp_path, capsys, key, value):
        # The identity map of a path on the complete digraph of 4 verifies until one entry is respelled.
        dpath, tpath = tmp_path / "d.dg", tmp_path / "t.tree"
        tio.write_digraph(dpath, Digraph.from_edges(4, [(u, v) for u in range(4) for v in range(4) if u != v]))
        tio.write_tree(tpath, OrientedTree(4, [(0, 1), (1, 2), (2, 3)]))
        entries = {"0": 0, "1": 1, "2": 2, "3": 3}
        assert self.verify((dpath, tpath), tmp_path, {"map": entries}, capsys)[0] == 0
        del entries[str(int(key))]
        entries[key] = value
        code, out = self.verify((dpath, tpath), tmp_path, {"map": entries}, capsys)
        assert code == 1
        assert out.err.startswith(f"error: map entries must be integers: {key!r}: {value!r}")


class TestAnchorRange:
    """An anchor host outside 0..n-1 is a usage error, not a retried phase failure."""

    @pytest.mark.parametrize(
        "flags",
        [["--phase", "almost", "--anchor", "5000"], ["--phase", "almost", "--anchor", "-1"], ["--phase", "stars", "--anchor", "5000"]],
    )
    def test_anchor_outside_the_host_exits_one(self, tmp_path, capsys, flags):
        dpath, tpath = TestEmbed().make_instance(tmp_path, n=200, tree_n=160)
        capsys.readouterr()
        assert main(["embed", str(dpath), str(tpath), "--seed", "1", *flags]) == 1
        assert "outside 0..199" in capsys.readouterr().err


class TestSizeMismatch:
    """A tree of the wrong size is the library's usage error, reported once with exit code 1."""

    @pytest.mark.parametrize(
        "tree_n, flags, message",
        [(160, [], "spanning embedding needs |T| = n, got 160 != 200"),
         (197, ["--phase", "almost"], "need at least 4 spare host vertices, got 3")],
    )
    def test_wrong_tree_size_exits_one(self, tmp_path, capsys, tree_n, flags, message):
        dpath, tpath = TestEmbed().make_instance(tmp_path, n=200, tree_n=tree_n)
        capsys.readouterr()
        assert main(["embed", str(dpath), str(tpath), "--seed", "1", *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
