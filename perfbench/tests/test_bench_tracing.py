"""Tests of the benchmark's span arithmetic and redundancy counters.

Run from the repository root:  python -m pytest perfbench/tests
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402


def span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, attrs]


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            span("root", 0, 100),
            span("a", 10, 30, 0),
            span("b", 40, 70, 0),
            span("b.child", 45, 50, 2),
            span(tracing.BOOKKEEPING, 70, 75, 0),
        ]
        assert tracing.self_times(spans) == [100 - 20 - 30 - 5, 20, 25, 5, 5]

    def test_overlapping_children_counted_once(self):
        spans = [span("root", 0, 100), span("a", 10, 30, 0), span("b", 20, 40, 0)]
        assert tracing.self_times(spans)[0] == 100 - 30

    def test_child_clipped_to_parent(self):
        spans = [span("root", 10, 20), span("a", 5, 15, 0)]
        assert tracing.self_times(spans)[0] == 5

    def test_same_name_spans_sum_self_time(self):
        ns = 10 ** 9
        spans = [
            span("config.parse", 0, 4 * ns),
            span("config.parse", 1 * ns, 2 * ns, 0),
            span("sbm.read_spec_file", 2 * ns, 3 * ns, 0),
        ]
        m = tracing.layer_metrics(spans, traced_wall_s=5.0, untraced_wall_s=4.5)
        assert m["config.parse.s"] == pytest.approx(3.0)
        assert m["trace.overhead_s"] == pytest.approx(0.5)
        assert m["trace.coverage"] == pytest.approx(4.0 / 5.0)
        assert m["trace.spans"] == 3

    def test_bookkeeping_not_covered(self):
        spans = [span("a", 0, 10), span(tracing.BOOKKEEPING, 10, 30)]
        assert tracing.root_coverage_ns(spans) == 10


REPEATING_RUN = textwrap.dedent("""
    import sys
    sys.path[:0] = [sys.argv[1], sys.argv[2]]
    import graphon_mpnn
    from graphon_mpnn import sbm, pair_mpnn, cli
    import tracing

    tracer = tracing.Tracer()
    tracer.install("graphon_mpnn")
    spec = sbm.read_spec_file(sys.argv[3])
    g1 = cli.sample_graph(spec, 40, 7)        # looked up through cli
    g2 = sbm.sample_graph(spec, 40, 7)        # same (n, seed): redundant
    g3 = sbm.sample_graph(spec, 40, 8)
    s1, s2, s3 = cli.graph_stats(g1), sbm.graph_stats(g2), sbm.graph_stats(g3)
    for s in (s1, s1, s2, s3):                # second s1 access reads the cache
        s.common_neighbors
    mpnn = pair_mpnn.fixed_psi_mpnn(2)
    for g, s in ((g1, s1), (g1, s1), (g2, s2), (g3, s3)):
        pair_mpnn.gmpnn_pair(g, s, mpnn)
    tracer.dump(sys.argv[4])
""")


def test_redundant_counters_on_repeated_calls(tmp_path):
    out = tmp_path / "spans.json"
    subprocess.run(
        [sys.executable, "-c", REPEATING_RUN, str(ROOT / "src"), str(BENCH),
         str(BENCH / "models" / "convergence.sbm"), str(out)],
        check=True, timeout=120,
    )
    spans = json.loads(out.read_text())["spans"]
    m = tracing.layer_metrics(spans, traced_wall_s=1.0, untraced_wall_s=1.0)
    assert sum(1 for s in spans if s[0] == "sbm.sample_graph") == 3
    assert m["sbm.sample_graph.redundant"] == 1
    assert sum(1 for s in spans if s[0] == "sbm.common_neighbors") == 3
    assert m["sbm.common_neighbors.redundant"] == 1
    assert m["pair_mpnn.gmpnn_pair.calls"] == 4
    assert m["pair_mpnn.gmpnn_pair.redundant"] == 2
    assert m["pair_mpnn.pair_message_weights.calls"] == 4
    # gmpnn_pair spans enclose the weights they read
    names = {k: s[0] for k, s in enumerate(spans)}
    for s in spans:
        if s[0] == "pair_mpnn.pair_message_weights":
            assert names[s[3]] == "pair_mpnn.gmpnn_pair"
