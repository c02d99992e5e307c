"""Tests that each correctness check of the benchmark accepts well-formed
outputs and rejects corrupted ones, and that the independent pair
reference matches plain nested loops.

Run from the repository root:  python -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import pair_reference  # noqa: E402
import workloads  # noqa: E402
from workloads import METHODS, SCENARIOS  # noqa: E402


def failing(errors):
    return {op for op, errs in errors.items() if errs}


# --- table-run ----------------------------------------------------------------

def table_cells():
    h = 0.97
    base = {
        "node": {"hits@10": 0.1, "hits@50": 0.2, "hits@100": 0.3, "mcc": 0.02,
                 "balanced_accuracy": 0.51, "auc": 0.52},
        "oracle": {"hits@10": h, "hits@50": h, "hits@100": h, "mcc": 0.93,
                   "balanced_accuracy": 0.96, "auc": (1.0 + h) / 2.0},
        "pair_fixed": {"hits@10": 0.95, "hits@50": 0.97, "hits@100": 0.98,
                       "mcc": 0.93, "balanced_accuracy": 0.96, "auc": 0.98},
        "pair_learn": {"hits@10": 0.96, "hits@50": 0.98, "hits@100": 0.99,
                       "mcc": 0.95, "balanced_accuracy": 0.97, "auc": 0.99},
    }
    return {(s, m): dict(base[m]) for s in SCENARIOS for m in METHODS}


def table_csv(cells):
    lines = ["scenario,method,metric,mean,std,runs"]
    for (s, m) in sorted(cells):
        for metric, v in cells[(s, m)].items():
            lines.append(f"{s},{m},{metric},{v!r},0.0,1")
    return "\n".join(lines) + "\n"


class TestTableCheck:
    def test_well_formed_table_passes(self):
        assert failing(workloads.check_table(table_csv(table_cells()))) == set()

    def test_oracle_auc_off_identity_fails(self):
        cells = table_cells()
        cells[("inductive_same", "oracle")]["auc"] += 1e-9
        assert failing(workloads.check_table(table_csv(cells))) == {
            ("inductive_same", "oracle")}

    def test_node_ood_auc_raised_to_pair_fixed_fails(self):
        cells = table_cells()
        cells[("inductive_ood", "node")]["auc"] = cells[("inductive_ood", "pair_fixed")]["auc"]
        assert failing(workloads.check_table(table_csv(cells))) == {
            ("inductive_ood", "pair_fixed"), ("inductive_ood", "pair_learn")}

    def test_pair_fixed_far_from_oracle_fails(self):
        cells = table_cells()
        cells[("inductive_ood", "pair_fixed")]["auc"] = 0.9
        assert ("inductive_ood", "pair_fixed") in failing(
            workloads.check_table(table_csv(cells)))

    def test_out_of_range_and_missing_metrics_fail(self):
        cells = table_cells()
        cells[("transductive", "node")]["mcc"] = -1.5
        cells[("transductive", "pair_learn")]["auc"] = float("nan")
        del cells[("inductive_same", "node")]["hits@50"]
        assert failing(workloads.check_table(table_csv(cells))) == {
            ("transductive", "node"), ("transductive", "pair_learn"),
            ("inductive_same", "node")}

    def test_empty_output_fails_every_cell(self):
        assert len(failing(workloads.check_table(""))) == 12


class TestDeterminismCheck:
    ops = [(s, m) for s in SCENARIOS for m in METHODS]

    def test_identical_outputs_pass(self):
        text = table_csv(table_cells())
        assert failing(workloads.check_same_outputs(text, text, (0, 2), self.ops)) == set()

    def test_one_byte_difference_fails_its_cell(self):
        text = table_csv(table_cells())
        line = next(k for k, l in enumerate(text.splitlines())
                    if l.startswith("inductive_ood,node,auc,"))
        lines = text.splitlines(keepends=True)
        lines[line] = lines[line].replace("0.52", "0.53")
        other = "".join(lines)
        assert len(other) == len(text)
        assert failing(workloads.check_same_outputs(text, other, (0, 2), self.ops)) == {
            ("inductive_ood", "node")}

    def test_difference_no_cell_owns_fails_all(self):
        text = table_csv(table_cells())
        other = text.replace("scenario,", "Scenario,", 1)
        assert len(failing(workloads.check_same_outputs(text, other, (0, 2), self.ops))) == 12
        assert len(failing(workloads.check_same_outputs(text, text + "\n", None, self.ops))) == 12


# --- pair-sweep -----------------------------------------------------------------

N_LIST, SEEDS = (1024, 2048, 4096), (5,)
DELTAS = {1024: 0.0123456789012345, 2048: 0.0087, 4096: 0.0061}


def deltas_csv(deltas, bound=""):
    rows = ["mode,n,seed,delta,bound"]
    rows += [f"pair_fixed,{n},5,{d!r},{bound}" for n, d in deltas.items()]
    return "\n".join(rows) + "\n"


def slope_jsonl(slope):
    return json.dumps({"mode": "pair_fixed", "slope": slope}) + "\n"


class TestPairSweepCheck:
    reference = {(1024, 5): DELTAS[1024]}

    def check(self, deltas=DELTAS, slope=-0.5, bound=""):
        return failing(workloads.check_pair_sweep(
            deltas_csv(deltas, bound), slope_jsonl(slope), N_LIST, SEEDS, self.reference))

    def test_well_formed_sweep_passes(self):
        assert self.check() == set()

    def test_perturbed_delta_fails(self):
        deltas = dict(DELTAS)
        deltas[1024] *= 1.0 + 1e-7
        assert self.check(deltas) == {(1024, 5)}

    def test_rounding_level_difference_passes(self):
        deltas = dict(DELTAS)
        deltas[1024] *= 1.0 + 1e-12
        assert self.check(deltas) == set()

    def test_nonpositive_delta_and_bound_fail(self):
        deltas = dict(DELTAS)
        deltas[2048] = 0.0
        assert self.check(deltas) == {(2048, 5)}
        assert self.check(bound="0.5") == set((n, 5) for n in N_LIST)

    def test_positive_slope_fails_every_point(self):
        assert self.check(slope=0.1) == set((n, 5) for n in N_LIST)

    def test_missing_point_fails(self):
        deltas = dict(DELTAS)
        del deltas[4096]
        assert self.check(deltas) == {(4096, 5)}


# --- node-stability ----------------------------------------------------------------

STAB_N, STAB_SEEDS, BUDGET = (4096, 8192), (0, 1), 4


def stability_outputs(medians, gap=0.01):
    gaps = ["n,seed,kind,gap"]
    med = ["n,seed,median_iso,median_non_iso"]
    for (n, s), (iso, non_iso) in medians.items():
        gaps += [f"{n},{s},{kind},{gap!r}" for kind in ("iso", "non_iso")
                 for _ in range(BUDGET)]
        med.append(f"{n},{s},{iso!r},{non_iso!r}")
    return "\n".join(gaps) + "\n", "\n".join(med) + "\n"


def stability_medians():
    return {(4096, 0): (0.010, 0.30), (4096, 1): (0.011, 0.31),
            (8192, 0): (0.007, 0.30), (8192, 1): (0.008, 0.31)}


class TestNodeStabilityCheck:
    def check(self, medians=None, gap=0.01):
        gaps, med = stability_outputs(medians or stability_medians(), gap)
        return failing(workloads.check_node_stability(gaps, med, STAB_N, STAB_SEEDS, BUDGET))

    def test_well_formed_outputs_pass(self):
        assert self.check() == set()

    def test_swapped_medians_fail(self):
        medians = stability_medians()
        iso, non_iso = medians[(8192, 1)]
        medians[(8192, 1)] = (non_iso, iso)
        assert self.check(medians) == {(8192, 1)}

    def test_negative_gap_and_wrong_count_fail(self):
        assert self.check(gap=-0.5) == set((n, s) for n in STAB_N for s in STAB_SEEDS)
        gaps, med = stability_outputs(stability_medians())
        short = "\n".join(gaps.splitlines()[:-1]) + "\n"
        assert failing(workloads.check_node_stability(
            short, med, STAB_N, STAB_SEEDS, BUDGET)) == {(8192, 1)}


# --- independent pair reference --------------------------------------------------

def nested_loop_pair_fixed(a, layers):
    """The discrete recursion written as the defining sums over i, j, z."""
    n = len(a)
    c = [[sum(a[i][z] * a[j][z] for z in range(n)) / n for j in range(n)]
         for i in range(n)]
    c = [[v if v != 0.0 else 1.0 / n for v in row] for row in c]
    f = [[1.0] * n for _ in range(n)]
    for _ in range(layers):
        m = [[sum(a[j][z] * f[i][z] + a[i][z] * f[j][z] for z in range(n))
              / (2.0 * n * c[i][j]) for j in range(n)] for i in range(n)]
        f = [[f[i][j] / max(m[i][j], 1e-12) for j in range(n)] for i in range(n)]
    return f


@pytest.fixture
def small_graph():
    rng = np.random.default_rng(3)
    n = 12
    block_of = np.array([0] * 5 + [1] * 2 + [2] * 5)
    S = np.array([[0.6, 0.05, 0.02], [0.05, 0.6, 0.05], [0.02, 0.05, 0.6]])
    upper = np.triu(rng.random((n, n)) < S[np.ix_(block_of, block_of)], k=1)
    a = (upper | upper.T).astype(float)
    a[0, :] = a[:, 0] = 0.0  # an isolated node: its common-neighbor counts are 0
    return a, block_of, np.array([0.45, 0.1, 0.45]), S


def test_discrete_reference_matches_nested_loops(small_graph):
    a, _, _, _ = small_graph
    loops = np.array(nested_loop_pair_fixed(a.tolist(), 3))
    fast = pair_reference.discrete_pair_fixed(a, 3)
    np.testing.assert_allclose(fast, loops, rtol=1e-12, atol=0.0)


def test_gap_matches_nested_loops(small_graph):
    a, block_of, pi, S = small_graph
    f = nested_loop_pair_fixed(a.tolist(), 3)
    F = pair_reference.block_pair_fixed(pi, S, 3)
    n = len(a)
    expected = max(abs(f[i][j] - F[block_of[i]][block_of[j]])
                   for i in range(n) for j in range(n) if i != j)
    assert pair_reference.pair_gap(a, block_of, pi, S, 3) == pytest.approx(expected, rel=1e-12)


def test_block_reference_first_layer():
    # The all-ones start reaches S / (common-neighbor weighting) after one
    # layer: g_ab = (1/(2 c_ab)) sum_c pi_c (S_bc + S_ac).
    pi = np.array([0.3, 0.7])
    S = np.array([[0.5, 0.1], [0.1, 0.4]])
    c = (S * pi) @ S.T
    g = (np.add.outer(S @ pi, S @ pi)) / (2.0 * c)
    np.testing.assert_allclose(pair_reference.block_pair_fixed(pi, S, 1), 1.0 / g,
                               rtol=1e-14)
