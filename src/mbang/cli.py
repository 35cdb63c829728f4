"""Command-line front end.

Exit codes: 0 success, 2 usage, 3 schema or validation problem or an
unwritable output path, 4 numerical failure.  Every randomized subcommand
takes an explicit --seed so published numbers stay reproducible.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import bench, fileio
from .cumulants import sample_cumulant_tensor, tensor_to_json_dict
from .discovery import (
    DiscoveryConfig,
    enumerate_cliques,
    load_first_stage,
    oracle_first_stage,
    run_mbang,
)
from .errors import NumericalError, SchemaError, ValidationError
from .graphs import (
    bidirected_subdivision,
    find_k_trek,
    format_graph,
    graph_to_dot,
    is_acyclic,
    is_bow_free,
    vertex_label,
)
from .sem import center_rows, simulate


def _cmd_simulate(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    doc = fileio.load_json(args.spec)
    spec = fileio.spec_from_json_dict(doc)
    print(f"spec sha256: {fileio.canonical_sha256(doc)}", file=sys.stderr)
    data = simulate(spec, args.n, seed=args.seed)
    if args.format == "bin":
        fileio.write_dataset_bin(data, args.out)
    else:
        fileio.write_dataset_csv(data, args.out)
    print(f"wrote {data.p}x{data.n} dataset to {args.out}", file=sys.stderr)
    return 0


def _cmd_discover(args) -> int:
    data = fileio.read_dataset(args.data)
    if args.stage:
        stage = load_first_stage(args.stage)
    else:
        spec = fileio.load_spec(args.oracle_spec)
        if args.stage_perturbation and args.seed is None:
            raise UsageError("--stage-perturbation needs --seed")
        stage = oracle_first_stage(spec, perturbation=args.stage_perturbation, seed=args.seed)
    if args.tolerance == 0:
        print(
            "warning: tolerance 0 treats every sample cumulant as nonzero; "
            "all cliques will merge",
            file=sys.stderr,
        )
    cfg = DiscoveryConfig(cumulant_tolerance=args.tolerance, relaxed_test=not args.strict)
    result = run_mbang(data, stage, cfg)
    fileio.save_json(result.to_json_dict(), args.out)
    print(format_graph(result.graph))
    return 0


def _cmd_treks(args) -> int:
    g = fileio.load_graph(args.graph)
    try:
        tup = [int(x) for x in args.tuple.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"--tuple must list integer vertices, got {args.tuple!r}") from None
    if len(tup) < 2:
        raise UsageError("--tuple needs at least 2 comma-separated vertices")
    witness = find_k_trek(g, tup)
    if witness is None:
        print(f"no {len(tup)}-trek between ({args.tuple})")
        return 0
    print(f"{len(tup)}-trek found between ({args.tuple})")
    if witness.hidden_edge is not None:
        print("sources lie in multidirected edge (" + ",".join(str(v) for v in sorted(witness.hidden_edge)) + ")")
    else:
        print(f"common source vertex {witness.sources[0]}")
    for sink, src, path in zip(tup, witness.sources, witness.paths):
        print(f"  {src} => {sink}: " + " -> ".join(str(v) for v in path))
    return 0


def _index_keys(wanted, order: int, p: int) -> set[tuple[int, ...]]:
    """Sorted index tuples from an --indices document: lists of ``order`` labels in 1..p."""
    if not isinstance(wanted, list):
        raise SchemaError("--indices file must hold a JSON list of index lists")
    keys = set()
    for idx in wanted:
        try:
            key = tuple(sorted(vertex_label(v) for v in idx))
        except (TypeError, ValueError):
            key = None
        if key is None or len(key) != order or not all(1 <= v <= p for v in key):
            raise SchemaError(f"index {idx!r} is not a list of {order} vertices in 1..{p}")
        keys.add(key)
    return keys


def _cmd_cumulants(args) -> int:
    data = fileio.read_dataset(args.data)
    keys = None
    if args.indices != "all":
        keys = _index_keys(fileio.load_json(args.indices), args.order, data.p)
    centered = center_rows(data)
    tensor = sample_cumulant_tensor(centered, args.order)
    doc = tensor_to_json_dict(tensor)
    if keys is not None:
        doc["entries"] = [e for e in doc["entries"] if tuple(e["idx"]) in keys]
    fileio.save_json(doc, args.out)
    print(f"wrote {len(doc['entries'])} entries of order {args.order} to {args.out}", file=sys.stderr)
    return 0


def _cmd_benchmark(args) -> int:
    fields = {}
    if args.config:
        doc = fileio.load_json(args.config)
        if not isinstance(doc, dict):
            raise SchemaError("benchmark config must be a JSON object")
        fields.update(doc)
    for field in dataclasses.fields(bench.TrialConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            fields[field.name] = value
    try:
        cfg = bench.TrialConfig(**fields)
    except TypeError as exc:
        raise SchemaError(f"bad benchmark config: {exc}") from exc
    outcomes, aggregate = bench.run_benchmark(cfg)
    if args.out_csv:
        bench.write_trials_csv(cfg, outcomes, args.out_csv)
    if args.out_json:
        fileio.save_json(aggregate, args.out_json)
    print(json.dumps(aggregate, indent=2, sort_keys=True))
    return 0


def _cmd_graph_tools(args) -> int:
    g = fileio.load_graph(args.graph)
    if args.tool == "info":
        print(format_graph(g))
        print(f"acyclic: {is_acyclic(g)}")
        print(f"bow-free: {is_bow_free(g)}")
        cliques = enumerate_cliques(bidirected_subdivision(g))
        print("subdivision cliques: " + "; ".join("{" + ",".join(map(str, sorted(c))) + "}" for c in cliques))
        return 0
    if args.tool == "dot":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(graph_to_dot(g))
        return 0
    # "subdivide": the parser's choices admit no other tool.
    pairs = sorted(tuple(sorted(pr)) for pr in bidirected_subdivision(g).pairs)
    fileio.save_json({"p": g.p, "bidirected": [list(pr) for pr in pairs]}, args.out)
    return 0


class UsageError(Exception):
    pass


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbang",
        description="Mixed-graph structure recovery from non-Gaussian data",
    )
    from . import __version__

    parser.add_argument("--version", action="version", version=f"mbang {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="sample a dataset from a model spec")
    sim.add_argument("--spec", required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=nonnegative_int, required=True)
    sim.add_argument("--out", required=True)
    sim.add_argument("--format", choices=("csv", "bin"), default="csv")
    sim.set_defaults(func=_cmd_simulate)

    disc = sub.add_parser("discover", help="recover multidirected edges from data")
    disc.add_argument("--data", required=True)
    stage = disc.add_mutually_exclusive_group(required=True)
    stage.add_argument("--stage", help="first-stage JSON produced externally")
    stage.add_argument("--oracle-spec", dest="oracle_spec", help="ground-truth spec JSON for the oracle stage")
    disc.add_argument("--tolerance", type=float, default=0.05)
    disc.add_argument("--strict", action="store_true", help="disable the relaxed repeat-index test")
    disc.add_argument("--stage-perturbation", type=float, default=0.0)
    disc.add_argument("--seed", type=nonnegative_int, default=None)
    disc.add_argument("--out", required=True)
    disc.set_defaults(func=_cmd_discover)

    treks = sub.add_parser("treks", help="query k-trek existence with a witness")
    treks.add_argument("--graph", required=True)
    treks.add_argument("--tuple", required=True, help="comma-separated vertices, e.g. 2,3,4")
    treks.set_defaults(func=_cmd_treks)

    cum = sub.add_parser("cumulants", help="sample cumulant tensor of a dataset")
    cum.add_argument("--data", required=True)
    cum.add_argument("--order", type=int, required=True)
    cum.add_argument("--indices", default="all", help="'all' or a JSON file of index lists")
    cum.add_argument("--out", required=True)
    cum.set_defaults(func=_cmd_cumulants)

    bm = sub.add_parser("benchmark", help="random-graph recovery benchmark")
    bm.add_argument("--config", help="JSON file mirroring the trial config; flags override")
    bm.add_argument("--p-pre", dest="p_pre", type=int)
    bm.add_argument("--edges", type=int)
    bm.add_argument("--noise")
    bm.add_argument("--n", type=int)
    bm.add_argument("--trials", type=int)
    bm.add_argument("--stage")
    bm.add_argument("--seed", type=nonnegative_int)
    bm.add_argument("--tolerance", dest="cumulant_tolerance", type=float)
    bm.add_argument("--hide-prob", dest="hide_prob", type=float)
    bm.add_argument("--workers", type=int)
    bm.add_argument("--out-csv", dest="out_csv")
    bm.add_argument("--out-json", dest="out_json")
    bm.set_defaults(func=_cmd_benchmark)

    gt = sub.add_parser("graph-tools", help="inspect, convert, and export graphs")
    gt.add_argument("tool", choices=("info", "dot", "subdivide"))
    gt.add_argument("--graph", required=True)
    gt.add_argument("--out")
    gt.set_defaults(func=_cmd_graph_tools)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "graph-tools" and args.tool in ("dot", "subdivide") and not args.out:
        parser.error("--out is required for this tool")
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))
    except (SchemaError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        # Reads report OSError as SchemaError, so what reaches here is a write.
        print(f"error: cannot write: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
