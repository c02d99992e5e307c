"""Spans around calls into graphon_mpnn, and the per-layer metrics they give.

The child process (``launch.py --trace``) builds a ``Tracer``, which wraps
the public functions of the traced modules wherever a graphon_mpnn module
holds a reference to them, and records one span per call: name, start,
end, the index of the enclosing span and a few attributes. Spans stay in
memory and are written once, when the run ends.

The benchmark process reads the spans back and turns them into per-layer
metrics with ``layer_metrics``. A span's self time is its duration minus
the part of it that its direct child spans cover.
"""

from __future__ import annotations

import builtins
import functools
import hashlib
import json
import sys
import time
import weakref

#: Span names whose time is the tracer's own bookkeeping, not a layer's.
BOOKKEEPING = "trace.tag"

#: Modules whose public functions are wrapped, further functions wrapped
#: with them, and the class methods wrapped. ``nn.sigmoid`` is left out: it
#: is an elementwise helper inside the forward pass, and a span per call
#: would cost about what it measures.
TRACED_MODULES = ("sbm", "node_mpnn", "pair_mpnn", "nn", "linkpred",
                  "analysis", "config")
EXTRA_FUNCTIONS = ("util.write_csv",)
SKIPPED = {"nn.sigmoid"}
METHODS = {
    "sbm": {"SbmSpec": ("require_valid",)},
    "nn": {"FeedForwardNet": ("forward", "forward_cache", "backward",
                              "backward_from_logits")},
}

#: Span names that differ from ``<module>.<function>``.
RENAMED = {
    "nn.backward_from_logits": "nn.backward",
    "config.load_sbm_section": "config.parse",
    "config.parse_sample_config": "config.parse",
    "config.parse_converge_config": "config.parse",
    "config.parse_stability_config": "config.parse",
    "config.parse_table_config": "config.parse",
    "config.write_manifest": "output.write",
    "util.write_csv": "output.write",
}


# --- child side: recording ----------------------------------------------------

class Tracer:
    """Records spans for wrapped calls; single-threaded, in memory."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent_index, attrs]
        self._stack = []
        self._digests = {}  # id(array) -> (weakref to array, digest)

    def _open(self, name):
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        return span

    def _close(self, span):
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    def _tag(self, span, tag, args, kwargs, result):
        # Attribute work (hashing adjacency matrices) runs after the span
        # ends, inside a bookkeeping span, so no layer's self time holds it.
        book = self._open(BOOKKEEPING)
        try:
            span[4] = tag(self, args, kwargs, result)
        finally:
            self._close(book)

    def wrap(self, name, fn, tag=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if tag is not None:
                tracer._tag(span, tag, args, kwargs, result)
            return result

        return traced

    def digest(self, array) -> str:
        """Content hash of an array; computed once per read-only array
        object (the package freezes graphs), every time for writeable ones."""
        entry = self._digests.get(id(array))
        if entry is not None and entry[0]() is array:
            return entry[1]
        import numpy as np

        data = np.ascontiguousarray(array)
        h = hashlib.blake2b(digest_size=16)
        h.update(repr((data.shape, data.dtype.str)).encode())
        h.update(memoryview(data).cast("B"))
        value = h.hexdigest()
        if not array.flags.writeable:
            self._digests[id(array)] = (weakref.ref(array), value)
        return value

    def install(self, package) -> None:
        """Wrap every traced function wherever a package module refers to it."""
        functions = [full.split(".") for full in EXTRA_FUNCTIONS]
        for short in TRACED_MODULES:
            module = sys.modules[f"{package}.{short}"]
            functions += [
                (short, attr) for attr, fn in vars(module).items()
                if not attr.startswith("_") and f"{short}.{attr}" not in SKIPPED
                and callable(fn) and not isinstance(fn, type)
                and getattr(fn, "__module__", None) == module.__name__]
        replaced = {}  # id(original) -> (original, wrapper)
        for short, attr in functions:
            fn = getattr(sys.modules[f"{package}.{short}"], attr)
            full = f"{short}.{attr}"
            replaced[id(fn)] = (fn, self.wrap(RENAMED.get(full, full), fn, TAGS.get(full)))
        for short, classes in METHODS.items():
            for cls_name, names in classes.items():
                cls = getattr(sys.modules[f"{package}.{short}"], cls_name)
                for attr in names:
                    full = f"{short}.{attr}"
                    setattr(cls, attr, self.wrap(RENAMED.get(full, full),
                                                 getattr(cls, attr), TAGS.get(full)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                entry = replaced.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
        self._wrap_common_neighbors(sys.modules[f"{package}.sbm"].GraphStats)
        cli = sys.modules.get(f"{package}.cli")
        if cli is not None:
            cli.open = self._traced_open

    def _wrap_common_neighbors(self, cls):
        """Span the first access of ``GraphStats.common_neighbors`` per
        instance, which computes the A@A product; later accesses read the
        cache and are not spanned.

        The redundancy key is the product's content: the product is a
        function of the adjacency alone, so two equal products mark a
        computation repeated for an identical graph."""
        getter = cls.common_neighbors.fget
        seen = weakref.WeakSet()
        tracer = self

        def common_neighbors(stats):
            if stats in seen:
                return getter(stats)
            seen.add(stats)
            span = tracer._open("sbm.common_neighbors")
            try:
                result = getter(stats)
            finally:
                tracer._close(span)
            tracer._tag(span, lambda t, a, k, r: {
                "n": int(stats.n), "adj": t.digest(r)}, (), {}, result)
            return result

        cls.common_neighbors = property(common_neighbors)

    def _traced_open(self, file, mode="r", *args, **kwargs):
        """``open`` for the CLI module: a file it opens for writing is spanned
        as ``output.write`` from opening until it is closed."""
        fh = builtins.open(file, mode, *args, **kwargs)
        if "w" not in mode and "a" not in mode:
            return fh
        return _SpannedFile(self, fh)

    def dump(self, path) -> None:
        with builtins.open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


class _SpannedFile:
    def __init__(self, tracer, fh):
        self._tracer, self._fh = tracer, fh
        self._span = tracer._open("output.write")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        try:
            self._fh.close()
        finally:
            if self._span is not None:
                self._tracer._close(self._span)
                self._span = None

    def __getattr__(self, name):
        return getattr(self._fh, name)


# --- attributes recorded per call -------------------------------------------

def _rows(array) -> int:
    shape = getattr(array, "shape", ())
    return int(array.size // shape[-1]) if len(shape) >= 1 and shape[-1] else 0


def _params_digest(tracer, mpnn) -> str:
    h = hashlib.blake2b(digest_size=16)
    for message, update in mpnn.layers:
        h.update(f"{type(message).__name__}/{type(update).__name__}/"
                 f"{getattr(update, 'eps_div', '')}".encode())
        for part in (message, update):
            net = getattr(part, "net", None)
            if net is not None:
                for p in net.parameters():
                    h.update(tracer.digest(p).encode())
    return h.hexdigest()


def _tag_sample_graph(tracer, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    key = hashlib.blake2b(digest_size=16)
    for a in (spec.block_mass, spec.S, spec.B):
        key.update(tracer.digest(a).encode())
    return {"n": int(result.n), "key": f"{key.hexdigest()}/{result.n}/{result.seed}"}


def _tag_gmpnn_pair(tracer, args, kwargs, result):
    graph = args[0] if args else kwargs["graph"]
    mpnn = args[2] if len(args) > 2 else kwargs["mpnn"]
    n = int(graph.n)
    widths = mpnn.feature_dims
    flop = sum(4 * n ** 3 * widths[t]
               for t, (message, _) in enumerate(mpnn.layers)
               if message.is_neighbor_projection)
    return {"n": n, "flop": flop, "adj": tracer.digest(graph.adjacency),
            "params": _params_digest(tracer, mpnn)}


def _tag_rows(position, keyword):
    def tag(tracer, args, kwargs, result):
        return {"rows": _rows(args[position] if len(args) > position
                              else kwargs[keyword])}
    return tag


def _tag_train(tracer, args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    if model.kind == "node":
        method = "node"
    else:
        method = "pair_learn" if model.backbone_trainable else "pair_fixed"
    return {"method": method}


TAGS = {
    "sbm.sample_graph": _tag_sample_graph,
    "pair_mpnn.gmpnn_pair": _tag_gmpnn_pair,
    # (self, x) for the forward passes; (self, cache, grad) for backward
    "nn.forward": _tag_rows(1, "x"),
    "nn.forward_cache": _tag_rows(1, "x"),
    "nn.backward": _tag_rows(2, "grad_out"),
    "nn.backward_from_logits": _tag_rows(2, "grad_logits"),
    "linkpred.train_link_model": _tag_train,
}


# --- benchmark side: arithmetic -----------------------------------------------

def _covered(intervals, lo, hi) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Self time of each span in ns: duration minus what its children cover."""
    children = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - _covered(children[k], start, end)
            for k, (name, start, end, parent, _) in enumerate(spans)]


def root_coverage_ns(spans) -> int:
    """Time covered by top-level layer spans (bookkeeping excluded)."""
    roots = [(s[1], s[2]) for s in spans if s[3] < 0 and s[0] != BOOKKEEPING]
    if not roots:
        return 0
    return _covered(roots, min(a for a, _ in roots), max(b for _, b in roots))


def _redundant(keys) -> int:
    seen, repeats = set(), 0
    for key in keys:
        if key in seen:
            repeats += 1
        seen.add(key)
    return repeats


def _ratio(num, den) -> float:
    return num / den if den > 0 else 0.0


#: name -> unit of every per-layer metric, in report order.
LAYER_UNITS = {
    "sbm.sample_graph.s": "s",
    "sbm.sample_graph.mpairs_per_s": "Mpairs/s",
    "sbm.sample_graph.redundant": "count",
    "sbm.common_neighbors.s": "s",
    "sbm.common_neighbors.redundant": "count",
    "sbm.common_neighbors.gflops": "GFLOP/s",
    "node_mpnn.gmpnn_node.s": "s",
    "pair_mpnn.gmpnn_pair.s": "s",
    "pair_mpnn.gmpnn_pair.calls": "count",
    "pair_mpnn.gmpnn_pair.redundant": "count",
    "pair_mpnn.gmpnn_pair.gflops": "GFLOP/s",
    "pair_mpnn.pair_message_weights.s": "s",
    "pair_mpnn.pair_message_weights.calls": "count",
    "nn.forward.s": "s",
    "nn.forward.mrows": "Mrows",
    "nn.forward_cache.s": "s",
    "nn.forward_cache.mrows": "Mrows",
    "nn.backward.s": "s",
    "nn.backward.mrows": "Mrows",
    "nn.adam_step.s": "s",
    "linkpred.build_scenario.s": "s",
    "linkpred.train_link_model.node.total_s": "s",
    "linkpred.train_link_model.pair_fixed.total_s": "s",
    "linkpred.train_link_model.pair_learn.total_s": "s",
    "linkpred.train_link_model.s": "s",
    "linkpred.model_scores.s": "s",
    "linkpred.model_scores.calls": "count",
    "linkpred.evaluate.s": "s",
    "analysis.delta_pair.s": "s",
    "analysis.iso_gap_stats.s": "s",
    "config.parse.s": "s",
    "output.write.s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "trace.spans": "count",
}


def layer_metrics(spans, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Every per-layer metric of one traced run, as name -> value."""
    selfs = self_times(spans)
    self_s, calls, by_name = {}, {}, {}
    for span, st in zip(spans, selfs):
        name = span[0]
        self_s[name] = self_s.get(name, 0.0) + st / 1e9
        calls[name] = calls.get(name, 0) + 1
        by_name.setdefault(name, []).append(span)

    def attrs(name, key):
        return [s[4][key] for s in by_name.get(name, [])]

    def train_total(method):
        return sum((sp[2] - sp[1]) / 1e9 for sp in by_name.get("linkpred.train_link_model", [])
                   if sp[4]["method"] == method)

    pairs_drawn = sum(n * (n - 1) / 2 for n in attrs("sbm.sample_graph", "n"))
    cn_flop = sum(2.0 * n ** 3 for n in attrs("sbm.common_neighbors", "n"))
    pair_flop = float(sum(attrs("pair_mpnn.gmpnn_pair", "flop")))
    pair_keys = zip(attrs("pair_mpnn.gmpnn_pair", "adj"),
                    attrs("pair_mpnn.gmpnn_pair", "params"))
    s = self_s.get
    out = {
        "sbm.sample_graph.s": s("sbm.sample_graph", 0.0),
        "sbm.sample_graph.mpairs_per_s": _ratio(pairs_drawn / 1e6, s("sbm.sample_graph", 0.0)),
        "sbm.sample_graph.redundant": _redundant(attrs("sbm.sample_graph", "key")),
        "sbm.common_neighbors.s": s("sbm.common_neighbors", 0.0),
        "sbm.common_neighbors.redundant": _redundant(attrs("sbm.common_neighbors", "adj")),
        "sbm.common_neighbors.gflops": _ratio(cn_flop / 1e9, s("sbm.common_neighbors", 0.0)),
        "node_mpnn.gmpnn_node.s": s("node_mpnn.gmpnn_node", 0.0),
        "pair_mpnn.gmpnn_pair.s": s("pair_mpnn.gmpnn_pair", 0.0),
        "pair_mpnn.gmpnn_pair.calls": calls.get("pair_mpnn.gmpnn_pair", 0),
        "pair_mpnn.gmpnn_pair.redundant": _redundant(pair_keys),
        "pair_mpnn.gmpnn_pair.gflops": _ratio(pair_flop / 1e9, s("pair_mpnn.gmpnn_pair", 0.0)),
        "pair_mpnn.pair_message_weights.s": s("pair_mpnn.pair_message_weights", 0.0),
        "pair_mpnn.pair_message_weights.calls": calls.get("pair_mpnn.pair_message_weights", 0),
        "nn.forward.s": s("nn.forward", 0.0),
        "nn.forward.mrows": sum(attrs("nn.forward", "rows")) / 1e6,
        "nn.forward_cache.s": s("nn.forward_cache", 0.0),
        "nn.forward_cache.mrows": sum(attrs("nn.forward_cache", "rows")) / 1e6,
        "nn.backward.s": s("nn.backward", 0.0),
        "nn.backward.mrows": sum(attrs("nn.backward", "rows")) / 1e6,
        "nn.adam_step.s": s("nn.adam_step", 0.0),
        "linkpred.build_scenario.s": s("linkpred.build_scenario", 0.0),
        "linkpred.train_link_model.node.total_s": train_total("node"),
        "linkpred.train_link_model.pair_fixed.total_s": train_total("pair_fixed"),
        "linkpred.train_link_model.pair_learn.total_s": train_total("pair_learn"),
        "linkpred.train_link_model.s": s("linkpred.train_link_model", 0.0),
        "linkpred.model_scores.s": s("linkpred.model_scores", 0.0),
        "linkpred.model_scores.calls": calls.get("linkpred.model_scores", 0),
        "linkpred.evaluate.s": s("linkpred.evaluate", 0.0),
        "analysis.delta_pair.s": s("analysis.delta_pair", 0.0),
        "analysis.iso_gap_stats.s": s("analysis.iso_gap_stats", 0.0),
        "config.parse.s": s("config.parse", 0.0),
        "output.write.s": s("output.write", 0.0),
        "trace.wall_s": traced_wall_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
        "trace.coverage": _ratio(root_coverage_ns(spans) / 1e9, traced_wall_s),
        "trace.spans": sum(1 for sp in spans if sp[0] != BOOKKEEPING),
    }
    assert list(out) == list(LAYER_UNITS)
    return out
