"""Benchmark the graphon-mpnn CLI end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/`` there
and fails without printing a result if that is missing. It writes the
workload's config, launches the CLI in a fresh process (one BLAS thread,
``--jobs 1``) in whole rounds until S seconds have passed, checks every
round's outputs (see ``workloads.py``) and prints, as the last line of
standard output, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

With ``--trace 0`` the metrics are end to end: the median over rounds of
``wall_s``, ``cpu_s`` and ``peak_rss_mib`` of the CLI process, and
``setup_s``, the median over several launches of the time from launch until
the config is parsed and the block model validated. With ``--trace 1`` each
round is an untraced launch followed by a traced one of the same config;
the metrics are the per-layer ones of ``tracing.layer_metrics``, and the
two launches' outputs must be byte-identical.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported here or in any launched process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
#: set-up-only launches per untraced run, half before the rounds and half
#: after, so that their median spans the run; the median is ``setup_s``
SETUP_LAUNCHES = 8
#: a launch still running after this long is killed and its round fails
LAUNCH_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


@dataclass
class Launch:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    setup_s: float | None


@dataclass
class Round:
    launch: Launch
    out_dir: str
    trace_path: str | None = None
    errors: dict = field(default_factory=dict)


def launch(cli_args, src, work, tag, trace_path=None, stop_after_setup=False) -> Launch:
    """Run the CLI once through ``launch.py`` and measure the process."""
    timing_path = os.path.join(work, f"{tag}.timing.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "launch.py"),
           "--src", src, "--timing", timing_path]
    if trace_path:
        cmd += ["--trace", trace_path]
    if stop_after_setup:
        cmd.append("--stop-after-setup")
    cmd += ["--", "--jobs", "1", *cli_args]
    with open(os.path.join(work, f"{tag}.stderr"), "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(LAUNCH_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup = None
    if os.path.exists(timing_path):
        with open(timing_path) as fh:
            done = json.load(fh).get("setup_done")
        if done is not None:
            setup = done - t0
    if proc.returncode != 0:
        with open(os.path.join(work, f"{tag}.stderr")) as fh:
            tail = fh.read()[-2000:]
        print(f"[{tag}] exit {proc.returncode}\n{tail}", file=sys.stderr)
    return Launch(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0, setup)


def _read(path) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def check_round(wl, rnd: Round, reference: dict) -> dict:
    if rnd.launch.returncode != 0:
        return {op: [f"CLI exit code {rnd.launch.returncode}"] for op in wl.operations}
    out = rnd.out_dir
    if wl.name == "table-run":
        return workloads.check_table(_read(os.path.join(out, "table.csv")))
    if wl.name == "pair-sweep":
        return workloads.check_pair_sweep(
            _read(os.path.join(out, "deltas.csv")),
            _read(os.path.join(out, "slope_summary.jsonl")),
            wl.n_list, wl.seeds, reference)
    return workloads.check_node_stability(
        _read(os.path.join(out, "gaps.csv")),
        _read(os.path.join(out, "gap_medians.csv")),
        wl.n_list, wl.seeds, workloads.STABILITY_BUDGET)


def reference_deltas(wl, src, model_path) -> dict:
    """Independent delta at the smallest n, on the graph ``sample_graph``
    draws for it; computed here, outside any timed launch."""
    sys.path.insert(0, src)
    from graphon_mpnn.sbm import read_spec_file, sample_graph

    import pair_reference as ref

    spec = read_spec_file(model_path)
    n = min(wl.n_list)
    out = {}
    for seed in wl.seeds:
        graph = sample_graph(spec, n, seed)
        out[(n, seed)] = ref.pair_gap(graph.adjacency, graph.block_of,
                                      spec.block_mass, spec.S, workloads.PAIR_LAYERS)
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description="graphon-mpnn benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "graphon_mpnn", "cli.py")):
        print(f"no graphon_mpnn package under {src}; run from the repository root",
              file=sys.stderr)
        return 2

    wl = workloads.make_workload(args.workload, args.seed)
    model_path = os.path.join(BENCH_DIR, "models", wl.model)
    work = os.path.join(BENCH_DIR, "work", f"{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return _run(args, wl, src, model_path, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _cli_args(wl, model_path, work, tag):
    out_dir = os.path.join(work, tag)
    cfg = os.path.join(work, f"{tag}.cfg")
    with open(cfg, "w") as fh:
        fh.write(workloads.config_text(wl, model_path, out_dir))
    return [wl.command, cfg], out_dir


def _setup_launches(wl, src, model_path, work, first, count) -> list:
    times = []
    for k in range(first, first + count):
        cli_args, _ = _cli_args(wl, model_path, work, f"setup{k}")
        result = launch(cli_args, src, work, f"setup{k}", stop_after_setup=True)
        if result.returncode != 0 or result.setup_s is None:
            raise RuntimeError(f"set-up launch {k} failed (exit {result.returncode})")
        times.append(result.setup_s)
    return times


def _rounds(args, wl, src, model_path, work) -> list:
    """Whole rounds until ``args.seconds`` have passed; in a traced run each
    round is an untraced launch followed by a traced one."""
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < args.seconds:
        for traced in ((False, True) if args.trace else (False,)):
            tag = f"round{len(rounds)}"
            cli_args, out_dir = _cli_args(wl, model_path, work, tag)
            trace_path = os.path.join(work, f"{tag}.trace.json") if traced else None
            rnd = Round(launch(cli_args, src, work, tag, trace_path), out_dir, trace_path)
            rounds.append(rnd)
            print(f"[{wl.name}] {tag}{' traced' if traced else ''}: exit "
                  f"{rnd.launch.returncode} wall {rnd.launch.wall_s:.3f} s cpu "
                  f"{rnd.launch.cpu_s:.3f} s rss {rnd.launch.peak_rss_mib:.0f} MiB",
                  file=sys.stderr)
    return rounds


def _check(wl, rounds, reference) -> None:
    for rnd in rounds:
        rnd.errors = check_round(wl, rnd, reference)
    # Every round ran the same config: its outputs must match the first's.
    first = rounds[0]
    for rnd in rounds[1:]:
        if first.launch.returncode or rnd.launch.returncode:
            continue
        for name, columns in wl.deterministic.items():
            same = workloads.check_same_outputs(
                _read(os.path.join(first.out_dir, name)),
                _read(os.path.join(rnd.out_dir, name)), columns, wl.operations)
            for op, errs in same.items():
                rnd.errors[op].extend(f"{name}: {e}" for e in errs)
    for k, rnd in enumerate(rounds):
        for op, errs in rnd.errors.items():
            for e in errs:
                print(f"[{wl.name}] round{k} {op}: {e}", file=sys.stderr)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _layer_metrics(rounds) -> dict:
    values = []
    for untraced, traced in zip(rounds[::2], rounds[1::2]):
        if untraced.launch.returncode or traced.launch.returncode:
            continue
        with open(traced.trace_path) as fh:
            spans = json.load(fh)["spans"]
        values.append(tracing.layer_metrics(spans, traced.launch.wall_s,
                                            untraced.launch.wall_s))
    return {name: {"value": _median([v[name] for v in values]), "unit": unit}
            for name, unit in tracing.LAYER_UNITS.items()}


def _end_to_end_metrics(rounds, setup_times) -> dict:
    ok = [rnd.launch for rnd in rounds if rnd.launch.returncode == 0]
    measured = {
        "wall_s": [r.wall_s for r in ok],
        "cpu_s": [r.cpu_s for r in ok],
        "setup_s": setup_times + [r.setup_s for r in ok if r.setup_s is not None],
        "peak_rss_mib": [r.peak_rss_mib for r in ok],
    }
    return {name: {"value": _median(v), "unit": END_TO_END_UNITS[name]}
            for name, v in measured.items()}


def _run(args, wl, src, model_path, work) -> int:
    setup_times = []
    half = SETUP_LAUNCHES // 2
    if not args.trace:
        # The first launch compiles bytecode, a cost users pay once.
        _setup_launches(wl, src, model_path, work, 0, 1)
        setup_times += _setup_launches(wl, src, model_path, work, 1, half)
    rounds = _rounds(args, wl, src, model_path, work)
    if not args.trace:
        setup_times += _setup_launches(wl, src, model_path, work, 1 + half,
                                       SETUP_LAUNCHES - half)

    reference = {}
    if wl.name == "pair-sweep":
        reference = reference_deltas(wl, src, model_path)
    _check(wl, rounds, reference)
    attempted = len(rounds) * len(wl.operations)
    failed = sum(1 for rnd in rounds for errs in rnd.errors.values() if errs)
    correct = all(not errs or rnd.launch.returncode != 0
                  for rnd in rounds for errs in rnd.errors.values())
    metrics = (_layer_metrics(rounds) if args.trace
               else _end_to_end_metrics(rounds, setup_times))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
