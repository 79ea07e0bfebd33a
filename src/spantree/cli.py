"""Command-line front door: generate, embed, verify, experiment.

Exit codes: 0 = success (embedding verified), 1 = usage/format error,
2 = embedding failed after retries.  All randomness flows from --seed, so
identical invocations produce identical outputs; wall-clock telemetry (the
`*_millis` keys) is dropped unless --timings is given, keeping default outputs
bit-stable.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import typing

import numpy as np

from . import io as tio
from .decompose import decompose
from .digraph import gen_semidegree_digraph, min_semidegree
from .embedder import (
    absorb_at_random,
    attach_path_trees,
    embed_almost_spanning,
    embed_spanning,
    embed_stars,
    stars_from_decomposition,
)
from .embedding import Embedding, PipelineError
from .oracle import TrialConfig, reports_to_csv, run_trials, verify_embedding
from .params import ParamSchedule, spanning_defaults
from .trees import FAMILIES, gen_random_tree, max_semidegree


# CLI flag -> ParamSchedule field ("bigk" stands in for the upper size cap K)
_SCHEDULE_FLAGS = (
    ("alpha", "alpha", float), ("eps", "eps", float), ("mu", "mu", float),
    ("eta", "eta", float), ("beta", "beta", float), ("lam", "lam", float),
    ("k", "k", int), ("bigk", "K", int), ("retries", "retries", int),
)


def _schedule_overrides(args, base: ParamSchedule) -> ParamSchedule:
    updates = {}
    for flag, field, _typ in _SCHEDULE_FLAGS:
        val = getattr(args, f"p_{flag}", None)
        if val is not None:
            updates[field] = val
    sched = base.with_updates(**updates) if updates else base
    for warning in sched.validate():
        print(f"schedule warning: {warning}", file=sys.stderr)
    return sched


def _add_schedule_args(sub: argparse.ArgumentParser) -> None:
    for flag, _field, typ in _SCHEDULE_FLAGS:
        sub.add_argument(f"--p-{flag}", dest=f"p_{flag}", type=typ, default=None)


def cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.kind == "digraph":
        d = gen_semidegree_digraph(args.n, args.alpha, rng)
        tio.write_digraph(args.out, d)
        print(f"digraph n={d.n} edges={d.num_edges()} min_semidegree={min_semidegree(d)}")
    else:
        tree = gen_random_tree(args.n, args.max_semideg, args.family, rng)
        tio.write_tree(args.out, tree)
        dplus, dminus = max_semidegree(tree)
        print(f"tree n={tree.n} family={args.family} max_out={dplus} max_in={dminus}")
    return 0


def cmd_embed(args) -> int:
    d = tio.read_digraph(args.digraph)
    tree = tio.read_tree(args.tree)
    rng = np.random.default_rng(args.seed)
    measured_alpha = max(0.01, d.alpha_hat)
    params = _schedule_overrides(args, spanning_defaults(d.n, measured_alpha))
    if args.phase in ("stars", "paths", "absorber"):
        return _run_isolated_phase(args, d, tree, params, rng)

    t = tree.t if tree.t is not None else 0
    try:
        if args.phase == "almost":
            v = args.anchor if args.anchor is not None else int(rng.integers(d.n))
            emb, telemetry = embed_almost_spanning(d, tree.with_t(t), t, v, params, rng)
        else:
            emb, telemetry = embed_spanning(d, tree, params, rng)
    except PipelineError as exc:
        return _emit_failure(args, exc)

    if not verify_embedding(d, tree, emb):
        return _emit_unverified(args, "embedding")
    if not args.timings:
        telemetry = _strip_timings(telemetry)
    return _emit_embedding(args, emb, telemetry)


def _emit(args, text: str, code: int) -> int:
    """Write `text` to --out (if given) and stdout; return the exit code."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return code


def _emit_embedding(args, emb, telemetry) -> int:
    return _emit(args, emb.to_json(telemetry), 0)


def _emit_failure(args, exc: PipelineError) -> int:
    doc = {"success": False, "cause": exc.cause, "detail": str(exc)}
    return _emit(args, json.dumps(doc, indent=2, sort_keys=True), 2)


def _emit_unverified(args, what: str) -> int:
    """Report a returned map that fails its check as a `verify` failure."""
    return _emit_failure(args, PipelineError(f"{what} failed verification", cause="verify"))


def _run_isolated_phase(args, d, tree, params, rng) -> int:
    """Run one embedding phase on inputs derived from the tree, and verify it.

    The stars and paths phases return partial maps: every tree edge with
    both ends mapped must be a host arc in the same direction.
    """
    t = tree.t if tree.t is not None else 0
    try:
        if args.phase == "absorber":   # the input tree is the absorber tree
            if tree.n > d.n // 3:
                print("error: absorber phase needs |T| <= n/3", file=sys.stderr)
                return 1
            state, emb = absorb_at_random(d, tree.with_t(t), t, params, rng)
            if not verify_embedding(d, tree, emb):
                return _emit_unverified(args, "absorber embedding")
            return _emit_embedding(
                args, emb,
                {"phase": "absorber", "threshold": state.threshold, "swaps": state.swap_count},
            )
        td = decompose(tree, t, params)
        if args.phase == "stars":
            stars = stars_from_decomposition(td)
            v = args.anchor if args.anchor is not None else int(rng.integers(d.n))
            emb = embed_stars(d, tree, {int(x) for x in td.t0}, stars, t, v, params, rng)
            telemetry = {"phase": "stars", "embedded": len(emb)}
        else:
            if not td.pieces:
                print("error: decomposition yields no path pieces", file=sys.stderr)
                return 1
            perm = rng.permutation(d.n)
            anchor_pairs = [(int(perm[2 * i]), int(perm[2 * i + 1])) for i in range(len(td.pieces))]
            vertices, hosts = attach_path_trees(d, tree, td.pieces, anchor_pairs, params, rng)
            ends = np.array([(p.x, p.y) for p in td.pieces], dtype=np.int64).ravel()
            emb = Embedding.of(np.concatenate((ends, vertices)),
                               np.concatenate((np.ravel(anchor_pairs), hosts)), "paths")
            telemetry = {"phase": "paths", "pieces": len(td.pieces)}
    except PipelineError as exc:
        return _emit_failure(args, exc)
    if not all(d.has_edge(emb[u], emb[w]) for u, w in zip(*tree.edges.T.tolist()) if u in emb and w in emb):
        return _emit_unverified(args, f"{args.phase} phase embedding")
    return _emit_embedding(args, emb, telemetry)


def _strip_timings(doc):
    if isinstance(doc, dict):
        return {k: _strip_timings(v) for k, v in doc.items() if "millis" not in k}
    if isinstance(doc, list):
        return [_strip_timings(x) for x in doc]
    return doc


def cmd_verify(args) -> int:
    d = tio.read_digraph(args.digraph)
    tree = tio.read_tree(args.tree)
    with open(args.embedding) as fh:
        emb = Embedding.from_json(fh.read())
    ok = verify_embedding(d, tree, emb)
    print(f"verified={ok}")
    return 0 if ok else 2


def parse_experiment_config(text: str) -> tuple[list[TrialConfig], int]:
    """Flat key=value config with [experiment], [grid], [schedule] sections."""
    cp = configparser.ConfigParser()
    cp.read_string(text)
    exp = cp["experiment"] if cp.has_section("experiment") else {}
    target = exp.get("target", "spanning")
    trials = int(exp.get("trials", 10))
    seed = int(exp.get("seed", 0))
    jobs = int(exp.get("jobs", 1))
    record_millis = exp.get("timings", "0") == "1"

    grid = cp["grid"] if cp.has_section("grid") else {}
    ns = [int(x) for x in grid.get("n", "200").split(",")]
    alphas = [float(x) for x in grid.get("alpha", "0.25").split(",")]
    families = [x.strip() for x in grid.get("tree_family", "uniform").split(",")]
    eps = float(grid.get("eps", 0.2))
    set_size = int(grid.get("set_size", 0))
    max_semideg = int(grid.get("max_semideg", 3))

    overrides = {}
    # configparser lowercases keys, so the size cap K is spelled "bigk".
    # Each value parses by its field's declared type (int, or float for
    # float and float | None).
    types = typing.get_type_hints(ParamSchedule)
    if cp.has_section("schedule"):
        for key, val in cp["schedule"].items():
            field = "K" if key == "bigk" else key
            if field not in types:
                raise ValueError(f"unknown [schedule] key {key!r}")
            overrides[field] = int(val) if types[field] is int else float(val)

    configs = []
    for n in ns:
        for alpha in alphas:
            for family in families:
                sched = spanning_defaults(n, alpha).with_updates(**overrides) if overrides else None
                configs.append(
                    TrialConfig(
                        target=target, n=n, alpha=alpha, trials=trials, seed=seed,
                        tree_family=family, max_semideg=max_semideg, eps=eps,
                        set_size=set_size, record_millis=record_millis, schedule=sched,
                    )
                )
    return configs, jobs


def cmd_experiment(args) -> int:
    try:
        with open(args.config) as fh:
            configs, jobs = parse_experiment_config(fh.read())
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return 1
    if args.jobs:
        jobs = args.jobs
    all_reports = []
    for cfg in configs:
        reports = run_trials(cfg, jobs=jobs)
        all_reports.extend(reports)
        rate = sum(r.success for r in reports)
        print(
            f"cell target={cfg.target} n={cfg.n} alpha={cfg.alpha} "
            f"family={cfg.tree_family}: {rate}/{len(reports)}",
            file=sys.stderr,
        )
    csv = reports_to_csv(all_reports)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="spantree", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a digraph or tree file")
    gen.add_argument("kind", choices=("digraph", "tree"))
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--alpha", type=float, default=0.25)
    gen.add_argument("--family", default="uniform", choices=FAMILIES)
    gen.add_argument("--max-semideg", type=int, default=3)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(fn=cmd_gen)

    emb = sub.add_parser("embed", help="embed a tree file into a digraph file")
    emb.add_argument("digraph")
    emb.add_argument("tree")
    emb.add_argument("--seed", type=int, required=True)
    emb.add_argument("--anchor", type=int, default=None, help="host vertex for t")
    emb.add_argument("--phase", choices=("full", "almost", "stars", "paths", "absorber"),
                     default="full", help="run one phase in isolation")
    emb.add_argument("--out", default=None)
    emb.add_argument("--timings", action="store_true")
    _add_schedule_args(emb)
    emb.set_defaults(fn=cmd_embed)

    ver = sub.add_parser("verify", help="verify an embedding JSON")
    ver.add_argument("digraph")
    ver.add_argument("tree")
    ver.add_argument("embedding")
    ver.set_defaults(fn=cmd_verify)

    exp = sub.add_parser("experiment", help="run a Monte Carlo sweep from a config file")
    exp.add_argument("config")
    exp.add_argument("--out", default=None)
    exp.add_argument("--jobs", type=int, default=0)
    exp.set_defaults(fn=cmd_experiment)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:   # unreadable or malformed input files, bad values
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
