"""The benchmark's workloads: the CLI command and config each one runs, and
the checks its outputs must pass.

Every check compares against a computation made apart from the program or
against a property the method must have, never against stored output. A
check returns ``{operation: [error, ...]}`` with an entry for every
operation; an operation with errors counts as one failed operation.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

SCENARIOS = ("transductive", "inductive_same", "inductive_ood")
METHODS = ("node", "pair_fixed", "pair_learn", "oracle")
TABLE_METRICS = ("hits@10", "hits@50", "hits@100", "mcc", "balanced_accuracy", "auc")

PAIR_LAYERS = 3
STABILITY_BUDGET = 3000
#: relative agreement between the CLI's delta and the independent reference
REFERENCE_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # CLI subcommand
    model: str            # block-model file under perfbench/models
    section: str          # the subcommand's config section, without header
    operations: tuple     # one id per checked operation of a round
    #: output file -> columns that name the operation a row belongs to
    #: (None: the whole file belongs to every operation)
    deterministic: dict
    n_list: tuple = ()
    seeds: tuple = ()


def make_workload(name: str, seed: int) -> Workload:
    """The workload ``name`` with its seeds derived from the benchmark seed."""
    if name == "table-run":
        section = "\n".join([
            "n_train = 500", "n_test_ood = 2000", "runs = 1", f"seed = {seed}",
            "methods = " + ", ".join(METHODS),
            "scenarios = " + ", ".join(SCENARIOS),
            "epochs_head = 200", "epochs_end_to_end = 150", "lr = 1e-3",
            "pair_layers = 2",
        ])
        ops = tuple((s, m) for s in SCENARIOS for m in METHODS)
        return Workload(name, "table", "linkpred.sbm", section, ops,
                        {"table.csv": (0, 2)})
    if name == "pair-sweep":
        n_list, seeds = (1024, 2048, 4096), (seed,)
        section = "\n".join([
            "mode = pair_fixed", f"n_list = {_join(n_list)}",
            f"seeds = {_join(seeds)}", f"layers = {PAIR_LAYERS}",
        ])
        ops = tuple((n, s) for n in n_list for s in seeds)
        return Workload(name, "converge", "convergence.sbm", section, ops,
                        {"deltas.csv": (1, 3), "slope_summary.jsonl": None},
                        n_list, seeds)
    if name == "node-stability":
        n_list, seeds = (4096, 8192), (2 * seed, 2 * seed + 1)
        section = "\n".join([
            f"n_list = {_join(n_list)}", f"seeds = {_join(seeds)}",
            "layers = 2", "feature_dim = 8", "update_hidden = 10", "net_seed = 0",
            f"sample_budget = {STABILITY_BUDGET}",
        ])
        ops = tuple((n, s) for n in n_list for s in seeds)
        return Workload(name, "stability", "convergence.sbm", section, ops,
                        {"gaps.csv": (0, 2), "gap_medians.csv": (0, 2)},
                        n_list, seeds)
    raise ValueError(f"unknown workload {name!r}")


WORKLOAD_NAMES = ("table-run", "pair-sweep", "node-stability")


def _join(values) -> str:
    return ", ".join(str(v) for v in values)


def config_text(workload: Workload, model_path: str, out_dir: str) -> str:
    return (f"[sbm]\nspec = {model_path}\n\n[{workload.command}]\n"
            f"{workload.section}\n\n[output]\ndir = {out_dir}\n")


def _rows(text: str, header: tuple) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != header:
        raise ValueError(f"expected header {','.join(header)}")
    return rows[1:]


def _float(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _key(op) -> tuple:
    return tuple(str(v) for v in op)


# --- table-run -----------------------------------------------------------------

def check_table(table_csv: str) -> dict:
    """Per (scenario, method) cell of ``table.csv``.

    - every metric is present and finite; hits@K, auc and balanced accuracy
      lie in [0, 1] and mcc in [-1, 1];
    - oracle identity: on the bundled model every negative scores S_02 =
      0.02, tying with the block 0-2 positives and below every other
      positive, so the oracle's hits@K agree for every K (call it h) and its
      auc is (1 + h) / 2;
    - the paper's claim out of distribution: pair_fixed auc within 0.05 of
      the oracle's, and pair_fixed and pair_learn auc each at least 0.2
      above the node auc.
    """
    ops = [(s, m) for s in SCENARIOS for m in METHODS]
    errors = {op: [] for op in ops}
    try:
        rows = _rows(table_csv, ("scenario", "method", "metric", "mean", "std", "runs"))
    except ValueError as exc:
        return {op: [f"table.csv: {exc}"] for op in ops}
    cells = {}
    for row in rows:
        if len(row) != 6:
            return {op: [f"table.csv: malformed row {row}"] for op in ops}
        cells.setdefault((row[0], row[1]), {})[row[2]] = _float(row[3])

    for op in ops:
        metrics = cells.get(op, {})
        for name in TABLE_METRICS:
            if name not in metrics:
                errors[op].append(f"{name} missing")
                continue
            v = metrics[name]
            lo = -1.0 if name == "mcc" else 0.0
            if not (math.isfinite(v) and lo <= v <= 1.0):
                errors[op].append(f"{name} = {v!r} outside [{lo}, 1]")
    if any(errors.values()):
        return errors

    for s in SCENARIOS:
        oracle = cells[(s, "oracle")]
        hits = [oracle[f"hits@{k}"] for k in (10, 50, 100)]
        if len(set(hits)) != 1:
            errors[(s, "oracle")].append(f"oracle hits@K differ: {hits}")
        elif abs(oracle["auc"] - (1.0 + hits[0]) / 2.0) > 1e-12:
            errors[(s, "oracle")].append(
                f"oracle auc {oracle['auc']!r} != (1 + h)/2 with h = {hits[0]!r}")

    auc = {m: cells[("inductive_ood", m)]["auc"] for m in METHODS}
    if abs(auc["pair_fixed"] - auc["oracle"]) > 0.05:
        errors[("inductive_ood", "pair_fixed")].append(
            f"OOD auc {auc['pair_fixed']!r} not within 0.05 of oracle {auc['oracle']!r}")
    for m in ("pair_fixed", "pair_learn"):
        if auc[m] - auc["node"] < 0.2:
            errors[("inductive_ood", m)].append(
                f"OOD auc {auc[m]!r} not 0.2 above node {auc['node']!r}")
    return errors


# --- pair-sweep ---------------------------------------------------------------

def check_pair_sweep(deltas_csv: str, slope_jsonl: str, n_list, seeds,
                     reference: dict) -> dict:
    """Per (n, seed) point: one row in ``deltas.csv`` with a finite delta > 0
    and an empty bound; at the points in ``reference`` ((n, seed) -> delta
    from ``pair_reference``) the delta agrees to REFERENCE_RTOL; the
    log-log slope in ``slope_summary.jsonl`` is negative (else every point
    fails, since the slope is fitted from all of them)."""
    ops = [(n, s) for n in n_list for s in seeds]
    errors = {op: [] for op in ops}
    try:
        rows = _rows(deltas_csv, ("mode", "n", "seed", "delta", "bound"))
    except ValueError as exc:
        return {op: [f"deltas.csv: {exc}"] for op in ops}
    by_point = {}
    for row in rows:
        by_point.setdefault(tuple(row[1:3]), []).append(row)
    if set(by_point) - {_key(op) for op in ops}:
        return {op: ["deltas.csv has rows for unexpected points"] for op in ops}
    for op in ops:
        found = by_point.get(_key(op), [])
        if len(found) != 1 or len(found[0]) != 5:
            errors[op].append(f"expected one row, found {found}")
            continue
        mode, _, _, delta_cell, bound = found[0]
        delta = _float(delta_cell)
        if mode != "pair_fixed":
            errors[op].append(f"mode {mode!r}")
        if not (math.isfinite(delta) and delta > 0.0):
            errors[op].append(f"delta {delta_cell!r} is not finite and > 0")
        if bound != "":
            errors[op].append(f"bound {bound!r} should be empty")
        if op in reference:
            ref = reference[op]
            if not abs(delta - ref) <= REFERENCE_RTOL * abs(ref):
                errors[op].append(f"delta {delta!r} != reference {ref!r}")
    try:
        slope = float(json.loads(slope_jsonl.strip().splitlines()[0])["slope"])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        slope, problem = math.nan, f"slope_summary.jsonl unreadable: {exc!r}"
    else:
        problem = f"log-log slope {slope!r} is not negative"
    if not slope < 0.0:
        for op in ops:
            errors[op].append(problem)
    return errors


# --- node-stability -----------------------------------------------------------

def check_node_stability(gaps_csv: str, medians_csv: str, n_list, seeds,
                         budget: int) -> dict:
    """Per (n, seed) point: ``median_iso < median_non_iso``, and ``gaps.csv``
    holds 2 x budget finite gaps >= 0, budget of each kind.

    The iso median is not required to shrink from the smallest to the
    largest n per seed: a graph's random size imbalance between the matched
    blocks moves it by as much as the shrink (see the README)."""
    ops = [(n, s) for n in n_list for s in seeds]
    errors = {op: [] for op in ops}
    try:
        medians = _rows(medians_csv, ("n", "seed", "median_iso", "median_non_iso"))
        gaps = _rows(gaps_csv, ("n", "seed", "kind", "gap"))
    except ValueError as exc:
        return {op: [str(exc)] for op in ops}
    med = {}
    for row in medians:
        if len(row) != 4:
            return {op: [f"gap_medians.csv: malformed row {row}"] for op in ops}
        med.setdefault(tuple(row[:2]), []).append((_float(row[2]), _float(row[3])))
    counts, bad = {}, {}
    for row in gaps:
        if len(row) != 4:
            return {op: [f"gaps.csv: malformed row {row}"] for op in ops}
        key = (tuple(row[:2]), row[2])
        counts[key] = counts.get(key, 0) + 1
        g = _float(row[3])
        if not (math.isfinite(g) and g >= 0.0):
            bad.setdefault(tuple(row[:2]), []).append(row[3])
    known = {_key(op) for op in ops}
    if set(med) - known or {k for k, _ in counts} - known:
        return {op: ["outputs have rows for unexpected points"] for op in ops}

    for op in ops:
        key = _key(op)
        found = med.get(key, [])
        if len(found) != 1:
            errors[op].append(f"expected one median row, found {len(found)}")
        else:
            iso, non_iso = found[0]
            if not iso < non_iso:
                errors[op].append(f"median_iso {iso!r} not below median_non_iso {non_iso!r}")
        for kind in ("iso", "non_iso"):
            if counts.get((key, kind), 0) != budget:
                errors[op].append(
                    f"{counts.get((key, kind), 0)} {kind} gaps, expected {budget}")
        if key in bad:
            errors[op].append(f"gaps not finite and >= 0: {bad[key][:3]}")
    return errors


# --- determinism --------------------------------------------------------------

def check_same_outputs(first: str, second: str, columns, ops) -> dict:
    """Two outputs of one config must be byte-identical. Operations whose
    rows differ fail; a difference no operation owns fails them all."""
    errors = {op: [] for op in ops}
    if first == second:
        return errors
    if columns is not None:
        lo, hi = columns

        def grouped(text):
            lines = text.splitlines(keepends=True)
            out = {"header": lines[:1]}
            for line in lines[1:]:
                out.setdefault(tuple(line.split(",")[lo:hi]), []).append(line)
            return out

        a, b = grouped(first), grouped(second)
        differing = {k for k in set(a) | set(b) if a.get(k) != b.get(k)}
        owned = {_key(op): op for op in ops}
        if differing and differing <= set(owned):
            for k in differing:
                errors[owned[k]].append("output differs from the first round")
            return errors
    for op in ops:
        errors[op].append("output differs from the first round")
    return errors
