"""Command line entry point: sample graphs, run convergence/stability
sweeps, build the evaluation table, validate model files.

Exit codes: 0 success, 2 config error, 3 precondition violation,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import analysis, linkpred
from .config import (
    parse_converge_config,
    parse_sample_config,
    parse_stability_config,
    parse_table_config,
    write_manifest,
)
from .errors import ConfigError, NumericalError, PreconditionError, SpecValidationError
from .node_mpnn import gmpnn_node
from .sbm import (
    graph_stats,
    isomorphic_block_pairs,
    read_spec_file,
    sample_graph,
    validate_sbm,
    write_edge_list,
)
from .util import format_float, parallel_map, write_csv

log = logging.getLogger("graphon_mpnn")


def cmd_sample(args) -> int:
    cfg, text = parse_sample_config(args.config)
    graph = sample_graph(cfg.spec, cfg.n, cfg.seed)
    os.makedirs(cfg.out_dir, exist_ok=True)
    count = write_edge_list(graph, os.path.join(cfg.out_dir, "edges.txt"),
                            os.path.join(cfg.out_dir, "blocks.txt"))
    write_manifest(cfg.out_dir, text, {"subcommand": "sample"})
    print(f"wrote {cfg.out_dir}/edges.txt ({count} edges)")
    return 0


def cmd_converge(args) -> int:
    cfg, text = parse_converge_config(args.config)
    if len(set(cfg.n_list)) < analysis.MIN_FIT_SIZES:
        raise PreconditionError(f"[converge] n_list: the slope fit needs at least "
                                f"{analysis.MIN_FIT_SIZES} distinct n, got {cfg.n_list}")
    jobs = args.jobs if args.jobs else cfg.jobs
    records = analysis.convergence_sweep(cfg.spec, cfg.mpnn, cfg.mode, cfg.n_list,
                                         cfg.seeds, p=cfg.p, jobs=jobs)
    fit = analysis.loglog_slope(records)
    os.makedirs(cfg.out_dir, exist_ok=True)
    rows = [[r.mode, r.n, r.seed, format_float(r.delta), format_float(r.bound)]
            for r in records]
    write_csv(os.path.join(cfg.out_dir, "deltas.csv"),
              ["mode", "n", "seed", "delta", "bound"], rows)

    with_bounds = [r for r in records if r.bound is not None]
    validity = (
        float(np.mean([r.delta <= r.bound for r in with_bounds]))
        if with_bounds else None
    )
    summary = {
        "mode": cfg.mode,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "bound_validity_frequency": validity,
    }
    with open(os.path.join(cfg.out_dir, "slope_summary.jsonl"), "w") as fh:
        fh.write(json.dumps(summary, sort_keys=True) + "\n")
    write_manifest(cfg.out_dir, text, {"subcommand": "converge"})
    print(f"mode={cfg.mode} slope={fit.slope:.4f} r2={fit.r_squared:.4f}")
    return 0


def _stability_point(task):
    """Iso-gap statistics of one (n, seed) point. The graph lives only
    while this runs, so a serial sweep holds one graph at a time."""
    spec, mpnn, iso, n, seed, sample_budget = task
    graph = sample_graph(spec, n, seed)
    values = gmpnn_node(graph, graph_stats(graph), mpnn, init="degree")
    return analysis.iso_gap_stats(values, graph, iso, sample_budget=sample_budget,
                                  seed=seed)


def cmd_stability(args) -> int:
    cfg, text = parse_stability_config(args.config)
    iso = isomorphic_block_pairs(cfg.spec)
    if not iso:
        raise PreconditionError("the model has no matched block pair")
    r = cfg.spec.r
    if len(iso) == r * (r - 1) // 2:  # before any graph is sampled
        raise PreconditionError("the model has no unmatched block pair")
    jobs = args.jobs if args.jobs else cfg.jobs
    points = [(n, seed) for n in cfg.n_list for seed in cfg.seeds]
    tasks = [(cfg.spec, cfg.mpnn, iso, n, seed, cfg.sample_budget) for n, seed in points]
    results = parallel_map(_stability_point, tasks, jobs=jobs)
    gap_rows = []
    summary_rows = []
    for (n, seed), result in zip(points, results):
        for kind, gaps in (("iso", result.gaps_iso),
                           ("non_iso", result.gaps_non_iso)):
            for g in gaps:
                gap_rows.append([n, seed, kind, format_float(g)])
        summary_rows.append([
            n, seed,
            format_float(result.median_iso),
            format_float(result.median_non_iso),
        ])
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_csv(os.path.join(cfg.out_dir, "gaps.csv"),
              ["n", "seed", "kind", "gap"], gap_rows)
    write_csv(os.path.join(cfg.out_dir, "gap_medians.csv"),
              ["n", "seed", "median_iso", "median_non_iso"], summary_rows)
    write_manifest(cfg.out_dir, text, {"subcommand": "stability"})
    print(f"wrote {cfg.out_dir}/gaps.csv ({len(gap_rows)} rows)")
    return 0


def cmd_table(args) -> int:
    cfg, out_dir, text = parse_table_config(args.config)
    if args.jobs:
        cfg = dataclasses.replace(cfg, jobs=args.jobs)
    report = linkpred.run_table(cfg)
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "table.csv"),
              ["scenario", "method", "metric", "mean", "std", "runs"],
              report.csv_rows())
    table_text = report.format_table()
    with open(os.path.join(out_dir, "table.txt"), "w") as fh:
        fh.write(table_text + "\n")
    write_manifest(out_dir, text, {"subcommand": "table"})
    print(table_text)
    return 0


def cmd_validate_spec(args) -> int:
    spec = read_spec_file(args.spec)
    report = validate_sbm(spec)
    print(f"d_min = {report.d_min!r}")
    print(f"d_cmin = {report.d_cmin!r}")
    print(f"node_use_ok = {report.node_use_ok}")
    print(f"pair_use_ok = {report.pair_use_ok}")
    for v in report.violations:
        print(f"violation: {v}")
    iso = isomorphic_block_pairs(spec)
    print(f"isomorphic_block_pairs = {iso}")
    if not report.ok:
        return 3
    return 0


def _worker_cap(text: str) -> int:
    """The --jobs value: an integer >= 0, where 0 takes the config's."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphon-mpnn",
        description="Block-model sampling, message-passing convergence "
                    "sweeps, and link-prediction evaluation.",
    )
    parser.add_argument("--jobs", type=_worker_cap, default=0,
                        help="worker cap (default 0: value from config, else 1)")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample a graph and dump edge list")
    p.add_argument("config")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("converge", help="discrete-vs-continuous gap sweep")
    p.add_argument("config")
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("stability", help="matched-block embedding gap histograms")
    p.add_argument("config")
    p.set_defaults(fn=cmd_stability)

    p = sub.add_parser("table", help="link-prediction evaluation table")
    p.add_argument("config")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("validate-spec", help="check a model file")
    p.add_argument("spec")
    p.set_defaults(fn=cmd_validate_spec)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, SpecValidationError) as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
