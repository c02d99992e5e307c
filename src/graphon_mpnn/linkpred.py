"""Link prediction: scenario construction, end-to-end training, metrics.

Protocol per run: sample a training graph, hide 10% of its edges, split the
hidden edges 80/10/10 into train/val/(transductive) test positives, and draw
equally many negatives uniformly from non-edges whose endpoints lie in two
distinct matched (interchangeable) blocks. Inductive scenarios sample a
fresh test graph, hide 10% of it, and draw the same number of test
positives from its hidden edges for comparability. Every pair, positive or
negative, is stored as ``(i, j)`` with ``i < j``, so the order of its
endpoints carries no block information.

Backbones are either node networks (scored through a head on the two
endpoint embeddings) or pairwise networks (scored through a head on the
pair embedding). Training is full-batch Adam on binary cross-entropy with
model selection on validation accuracy.
"""

from __future__ import annotations

import copy
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, PreconditionError
from .mpnn import NEIGHBOR_AVERAGE, Mpnn, graphsage_mpnn
from .nn import AdamState, Buffers, FeedForwardNet, adam_step, init_net, sigmoid
from .node_mpnn import NodeGraph
from .pair_mpnn import PairGraph, _require_size, fixed_psi_mpnn, learnable_psi_mpnn
from .rng import child_seed, stream
from .sbm import (
    BlockPairPool,
    SampledGraph,
    SbmSpec,
    graph_stats,
    isomorphic_block_pairs,
    sample_graph,
)
from .util import format_float, parallel_map

log = logging.getLogger(__name__)

SCENARIOS = ("transductive", "inductive_same", "inductive_ood")
METHODS = ("node", "pair_fixed", "pair_learn", "oracle")
#: score threshold of a predicted link, for validation accuracy and metrics
TAU = 0.5


# --- datasets -------------------------------------------------------------------

@dataclass(frozen=True)
class LinkDataset:
    """Observed graph plus positive/negative pairs per split."""

    observed: SampledGraph
    positives: dict  # split -> (k, 2) int array
    negatives: dict  # split -> (k, 2) int array


def _hide_edges(graph: SampledGraph, fraction: float, rng) -> tuple:
    """Remove a uniform fraction of edges; returns (observed, hidden edges).

    The hidden edges are those at the first positions of a permutation of
    the m edges i < j in row-major order, in the permutation's order. Each
    is read from its strip of ``graph.edge_strips()``, located by the
    edges of the strips before it, so no (m, 2) list is formed.
    """
    m = int(graph.upper_counts().sum())
    n_hide = int(math.floor(fraction * m))
    chosen = rng.permutation(m)[:n_hide].copy()  # the whole permutation is let go
    hidden = np.empty((n_hide, 2), dtype=np.intp)
    first = 0  # the strip's first edge
    for edges in graph.edge_strips():
        at = np.flatnonzero((chosen >= first) & (chosen < first + len(edges)))
        hidden[at] = edges[chosen[at] - first]
        first += len(edges)
    return graph.without_edges(hidden), hidden


def sample_across_block_nonedges(graph: SampledGraph, iso_pairs, count: int,
                                 rng) -> np.ndarray:
    """Uniform sample, without replacement, of non-edges whose endpoints lie
    in two distinct matched blocks. Fails if the pool is too small.

    Each draw from ``rng`` is one index into the ``BlockPairPool`` of
    ``iso_pairs``; repeats and edges are skipped. The pairs come back in
    the order drawn, each as ``(i, j)`` with ``i < j``, the convention of
    ``SampledGraph.edge_strips``, whichever matched block either node is in.
    """
    if not iso_pairs:
        raise PreconditionError("negative sampling needs a matched block pair")
    pool = BlockPairPool(graph, iso_pairs)
    free = np.concatenate([~graph.submatrix(ia, jb).ravel() for ia, jb in pool.blocks])
    if free.sum() < count:
        raise PreconditionError(f"across-block non-edge pool has {free.sum()} pairs, need {count}")
    chosen = []
    seen = set()
    attempts = 0
    max_attempts = 200 * count + 1000
    while len(chosen) < count:
        attempts += 1
        if attempts > max_attempts:
            raise PreconditionError("negative sampling stalled; pool too dense")
        idx = int(rng.integers(pool.size))
        if idx in seen:
            continue
        seen.add(idx)
        if free[idx]:
            chosen.append(idx)
    i, j = pool.pairs(chosen)
    return np.column_stack([np.minimum(i, j), np.maximum(i, j)])


def build_training_split(spec: SbmSpec, n_tr: int, seed: int) -> tuple:
    """The training dataset of one seed and its transductive test dataset.

    Every scenario of the seed trains on this split, so a run builds it
    once and passes it to ``build_scenario``.
    """
    iso_pairs = isomorphic_block_pairs(spec)
    if not iso_pairs:
        raise PreconditionError("the model needs at least one matched block pair")

    graph_tr = sample_graph(spec, n_tr, child_seed(seed, "train-graph"))
    split_rng = stream(seed, "splits")
    observed_tr, hidden = _hide_edges(graph_tr, 0.10, split_rng)
    n_hidden = len(hidden)
    n_train = int(math.floor(0.8 * n_hidden))
    n_val = int(math.floor(0.1 * n_hidden))
    n_test = n_hidden - n_train - n_val
    if min(n_train, n_val, n_test) == 0:
        raise PreconditionError(f"the training graph (n = {n_tr}) hides {n_hidden} edge(s), "
                                "too few for non-empty train, validation and test positives")

    neg_rng = stream(seed, "negatives")
    negs = sample_across_block_nonedges(graph_tr, iso_pairs,
                                        n_train + n_val + n_test, neg_rng)
    train_ds = LinkDataset(
        observed=observed_tr,
        positives={"train": hidden[:n_train],
                   "val": hidden[n_train : n_train + n_val]},
        negatives={"train": negs[:n_train], "val": negs[n_train : n_train + n_val]},
    )
    test_ds = LinkDataset(
        observed=observed_tr,
        positives={"test": hidden[n_train + n_val :]},
        negatives={"test": negs[n_train + n_val :]},
    )
    return train_ds, test_ds


def build_scenario(spec: SbmSpec, n_tr: int, n_te: int, seed: int,
                   scenario: str, training: tuple | None = None) -> tuple:
    """Construct the (train, test) datasets for one scenario and seed.

    All randomness is derived from ``seed`` through purpose-tagged streams,
    so the training split is identical across the three scenarios of the
    same seed and the whole construction is reproducible. ``training`` is
    that split as ``build_training_split(spec, n_tr, seed)`` returns it;
    it is built here when not given.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {SCENARIOS}")
    if training is None:
        training = build_training_split(spec, n_tr, seed)
    train_ds, transductive_ds = training
    if scenario == "transductive":
        return train_ds, transductive_ds

    n_test = len(transductive_ds.positives["test"])
    graph_te = sample_graph(spec, n_te, child_seed(seed, f"test-graph/{scenario}"))
    te_rng = stream(seed, f"splits/{scenario}")
    observed_te, hidden_te = _hide_edges(graph_te, 0.10, te_rng)
    if len(hidden_te) < n_test:
        raise PreconditionError(
            f"test graph hides {len(hidden_te)} edges, need {n_test} positives"
        )
    pos_test = hidden_te[:n_test]
    te_neg_rng = stream(seed, f"negatives/{scenario}")
    neg_test = sample_across_block_nonedges(graph_te, isomorphic_block_pairs(spec),
                                            n_test, te_neg_rng)
    test_ds = LinkDataset(
        observed=observed_te,
        positives={"test": pos_test},
        negatives={"test": neg_test},
    )
    return train_ds, test_ds


# --- models --------------------------------------------------------------------

@dataclass
class LinkModel:
    """Embedding backbone plus a sigmoid-output link head.

    ``kind`` is "node" or "pair". Node backbones start from the
    size-normalized degrees and feed the head the concatenated endpoint
    embeddings; pair backbones feed the pair embedding directly.
    Gradients flow into the backbone exactly when it has nets.
    """

    kind: str
    mpnn: Mpnn
    head: FeedForwardNet

    @property
    def backbone_trainable(self) -> bool:
        return bool(self.mpnn.trainable_nets())

    def trainable_nets(self) -> list:
        return [self.head, *self.mpnn.trainable_nets()]


def node_link_model(feature_dims=(8, 8), update_hidden=10,
                    head_hidden=(10, 10, 10), seed: int = 0) -> LinkModel:
    """Node backbone in the neighbor-sampling style with an MLP head; it
    starts from the one-column size-normalized degrees."""
    dims = [1, *feature_dims]
    mpnn = graphsage_mpnn(dims, update_hidden=update_hidden, seed=seed,
                          aggregation=NEIGHBOR_AVERAGE)
    head = init_net([2 * dims[-1], *head_hidden, 1], seed=seed,
                    output_activation="sigmoid", tag="init/head")
    return LinkModel(kind="node", mpnn=mpnn, head=head)


def pair_link_model(T: int = 2, learn_update: bool = False, update_hidden=5,
                    head_hidden=(10, 10, 10), seed: int = 0) -> LinkModel:
    """Pairwise backbone: fixed ratio update or a trainable update net."""
    if learn_update:
        mpnn = learnable_psi_mpnn(T, hidden=update_hidden, seed=seed)
    else:
        mpnn = fixed_psi_mpnn(T)
    head = init_net([1, *head_hidden, 1], seed=seed,
                    output_activation="sigmoid", tag="init/head")
    return LinkModel(kind="pair", mpnn=mpnn, head=head)


# --- forward/backward through the backbones -----------------------------------

def _engines(graph: SampledGraph) -> dict:
    """The engines link models' backbones run on one observed graph, by
    model kind, over one ``graph_stats``.

    A ``NodeGraph`` or ``PairGraph`` holds what a backbone reads of the
    graph, so the models of one kind share it: a ``PairGraph`` builds
    layer 0's count classes, the neighbor lists and each query map once
    for all. Its ``forward(model.mpnn, pairs, record)`` returns the head
    inputs at ``pairs`` and, with ``record``, the tape whose ``backward``
    returns each layer's update-net gradients.
    """
    stats = graph_stats(graph)
    return {"node": NodeGraph(graph, stats, init="degree"), "pair": PairGraph(graph, stats)}


def model_scores(model: LinkModel, graph: SampledGraph, pairs,
                 backbone=None) -> np.ndarray:
    """Head probabilities for the given pairs on the given observed graph.
    ``backbone`` may pass the model's engine of that graph in (of
    ``_engines``), to share it."""
    backbone = _engines(graph)[model.kind] if backbone is None else backbone
    head_in, _ = backbone.forward(model.mpnn, pairs)
    return model.head.forward(head_in).reshape(-1)


def _loss_and_grads(model: LinkModel, backbone, pairs, labels, head_in=None,
                    buffers: Buffers | None = None):
    """Cross-entropy over the first ``len(labels)`` pairs and its exact
    parameter gradients.

    ``backbone`` is the model's engine (of ``_engines``). Pairs past the
    labelled ones (the validation pairs during training) ride along
    through the backbone without a gradient, so that one pass embeds them
    too. ``head_in`` holds a frozen backbone's head inputs at ``pairs``.
    ``buffers``, the training run's ``nn.Buffers``, takes the arrays the
    pass rewrites every epoch; without it they are new, with the same bits.
    Gradients are ordered like ``model.trainable_nets()`` parameters: head
    first, then the backbone's update nets layer by layer (when it has
    any).
    Returns (loss, grads, head inputs at every pair).
    """
    n_loss = len(labels)
    buffers = Buffers() if buffers is None else buffers
    tape = None
    if head_in is None:
        head_in, tape = backbone.forward(model.mpnn, pairs, record=model.backbone_trainable,
                                         buffers=buffers)

    _, cache = model.head.forward_cache(head_in[:n_loss], buffers)
    logits = cache[1].reshape(-1)
    loss, d_logits = _bce_loss_and_grad(logits, labels)
    head_grads, d_head_in = model.head.backward_from_logits(
        cache, d_logits.reshape(-1, 1), buffers
    )
    grads = list(head_grads)
    if tape is not None:
        d_all = buffers.get("head_in_grad", head_in.shape)
        d_all[:n_loss] = d_head_in
        d_all[n_loss:] = 0.0
        for g in tape.backward(d_all):
            grads.extend(g)
    return loss, grads, head_in


# --- training --------------------------------------------------------------------

@dataclass
class TrainLog:
    losses: list = field(default_factory=list)
    val_accuracies: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_accuracy: float = -1.0


def _bce_loss_and_grad(logits, labels):
    # softplus(z) - y z, stable for large |z|
    loss = float(np.mean(np.maximum(logits, 0.0) - logits * labels
                         + np.log1p(np.exp(-np.abs(logits)))))
    grad = (sigmoid(logits) - labels) / logits.shape[0]
    return loss, grad


def train_link_model(model: LinkModel, dataset: LinkDataset, epochs: int = 200,
                     lr: float = 1e-3, backbone=None) -> tuple:
    """Full-batch Adam on cross-entropy; returns (best model, train log).

    Validation accuracy at the threshold ``TAU`` is evaluated after every
    epoch; the returned model, a copy that Adam steps in place, carries the
    parameters of the best epoch (earliest on ties). Non-finite losses
    abort with a NumericalError. ``backbone`` may pass the model's engine
    of the observed graph in (of ``_engines``), to share it.
    ``epochs = 0`` returns the model as given, with its validation accuracy.
    """
    if epochs < 0:
        raise PreconditionError(f"epochs must be >= 0, got {epochs}")
    model = copy.deepcopy(model)
    if backbone is None:
        backbone = _engines(dataset.observed)[model.kind]
    pos_tr, neg_tr = dataset.positives["train"], dataset.negatives["train"]
    pos_val, neg_val = dataset.positives["val"], dataset.negatives["val"]
    val_pairs = np.concatenate([pos_val, neg_val], axis=0)
    pairs = np.concatenate([pos_tr, neg_tr, val_pairs], axis=0)
    labels = np.concatenate([np.ones(len(pos_tr)), np.zeros(len(neg_tr))])
    n_train = len(labels)

    params = [p for net in model.trainable_nets() for p in net.parameters()]
    state = AdamState.for_parameters(params, lr=lr)
    log_out = TrainLog()
    buffers = Buffers()  # this run's, released when it returns

    frozen_head_in = None
    if not model.backbone_trainable:
        frozen_head_in, _ = backbone.forward(model.mpnn, pairs)

    def val_accuracy(val_head_in) -> float:
        scores = model.head.forward(val_head_in).reshape(-1)
        scores_p, scores_n = scores[:len(pos_val)], scores[len(pos_val):]
        correct = int(np.sum(scores_p > TAU)) + int(np.sum(scores_n <= TAU))
        return correct / len(scores)

    best = None  # (val_acc, epoch, params); strict improvement keeps ties early

    for epoch in range(epochs + 1):
        if epoch == epochs:
            if frozen_head_in is not None:
                val_head_in = frozen_head_in[n_train:]
            else:
                val_head_in, _ = backbone.forward(model.mpnn, val_pairs)
        else:
            loss, grads, head_in = _loss_and_grads(
                model, backbone, pairs, labels, head_in=frozen_head_in, buffers=buffers,
            )
            if not np.isfinite(loss):
                log.error("training diverged at epoch %d (loss=%r)", epoch, loss)
                raise NumericalError(f"non-finite loss at epoch {epoch}")
            log_out.losses.append(loss)
            val_head_in = head_in[n_train:]

        # Accuracy of the parameters produced by `epoch` completed epochs.
        acc = val_accuracy(val_head_in)
        log_out.val_accuracies.append(acc)
        if best is None or acc > best[0]:
            best = (acc, epoch - 1, [p.copy() for p in params])
        if epoch == epochs:
            break

        adam_step(params, grads, state)

    log_out.best_val_accuracy, log_out.best_epoch = best[0], best[1]
    for p, kept in zip(params, best[2]):
        p[...] = kept
    return model, log_out


# --- scoring and metrics -----------------------------------------------------------

def oracle_scores(spec: SbmSpec, graph: SampledGraph, pairs) -> np.ndarray:
    """Edge probabilities read off the generating model."""
    pairs = np.asarray(pairs, dtype=int)
    return spec.S[graph.block_of[pairs[:, 0]], graph.block_of[pairs[:, 1]]]


def evaluate(scores_pos, scores_neg, tau: float = TAU,
             k_list=(10, 50, 100)) -> dict:
    """Ranking and threshold metrics for one scored test split.

    hits@K (K >= 1) counts positives strictly above the K-th largest
    negative score (ties count as failure). auc is the Mann-Whitney
    statistic: the fraction of (positive, negative) pairs in which the
    positive scores higher, with ties counted as half; it reads 0.5 for a
    random ranking. mcc and balanced accuracy come from the confusion
    matrix of "predict a link iff score > tau"; mcc is 0 when its
    denominator vanishes.
    """
    scores_pos = np.asarray(scores_pos, dtype=float)
    scores_neg = np.asarray(scores_neg, dtype=float)
    if scores_pos.size == 0 or scores_neg.size == 0:
        raise PreconditionError("need non-empty positive and negative scores")
    metrics = {}
    neg_sorted = np.sort(scores_neg)[::-1]
    for k in k_list:
        if k < 1:
            raise PreconditionError(f"hits@{k} needs K >= 1")
        if k > scores_neg.size:
            raise PreconditionError(f"hits@{k} needs at least {k} negatives")
        metrics[f"hits@{k}"] = float(np.mean(scores_pos > neg_sorted[k - 1]))
    neg_ascending = neg_sorted[::-1]
    below = np.searchsorted(neg_ascending, scores_pos, side="left")
    not_above = np.searchsorted(neg_ascending, scores_pos, side="right")
    metrics["auc"] = float(np.sum(below + not_above)
                           / (2.0 * scores_pos.size * scores_neg.size))
    tp = int(np.sum(scores_pos > tau))
    fn = scores_pos.size - tp
    fp = int(np.sum(scores_neg > tau))
    tn = scores_neg.size - fp
    denom = math.sqrt(float(tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    mcc = 0.0 if denom == 0.0 else (tp * tn - fp * fn) / denom
    metrics["mcc"] = float(mcc)
    metrics["balanced_accuracy"] = 0.5 * (tp / (tp + fn) + tn / (tn + fp))
    return metrics


# --- the full table ----------------------------------------------------------------

@dataclass(frozen=True)
class RunTableConfig:
    spec: SbmSpec
    n_train: int = 500
    n_test_ood: int = 2000
    runs: int = 10
    seed: int = 0
    methods: tuple = METHODS
    scenarios: tuple = SCENARIOS
    epochs_head: int = 200
    epochs_end_to_end: int = 200
    lr: float = 1e-3
    pair_layers: int = 2
    k_list: tuple = (10, 50, 100)


@dataclass
class EvalReport:
    """Per-(scenario, method, metric) means and deviations over runs, and
    the training log of each run's trained models."""

    values: dict  # (scenario, method) -> {metric: [per-run floats]}
    runs: int
    k_list: tuple
    curves: dict = field(default_factory=dict)  # (run, method) -> TrainLog

    def mean_std(self, scenario, method, metric) -> tuple:
        """(mean, sample standard deviation); the deviation is None for a
        single run, where none is defined."""
        vals = np.array(self.values[(scenario, method)][metric])
        std = float(vals.std(ddof=1)) if len(vals) > 1 else None
        return float(vals.mean()), std

    def metric_names(self) -> list:
        return ([f"hits@{k}" for k in self.k_list]
                + ["mcc", "balanced_accuracy", "auc"])

    def csv_rows(self) -> list:
        rows = []
        for (scenario, method) in sorted(self.values):
            for metric in self.metric_names():
                mean, std = self.mean_std(scenario, method, metric)
                rows.append([scenario, method, metric, format_float(mean),
                             format_float(std), self.runs])
        return rows

    def curve_rows(self) -> list:
        """One row per run, trained method and epoch e, ordered by run and
        method: the training loss of the parameters after e Adam steps and
        their validation accuracy. The last row of a model, after its last
        step, has an accuracy and no loss."""
        rows = []
        for (run, method), log in sorted(self.curves.items()):
            for epoch, acc in enumerate(log.val_accuracies):
                loss = log.losses[epoch] if epoch < len(log.losses) else None
                rows.append([run, method, epoch, format_float(loss), format_float(acc)])
        return rows

    def format_table(self) -> str:
        metrics = self.metric_names()
        header = ["scenario", "method"] + metrics
        lines = []
        rows = []
        for (scenario, method) in sorted(self.values):
            cells = [scenario, method]
            for metric in metrics:
                mean, std = self.mean_std(scenario, method, metric)
                cells.append(f"{mean:.4f}" if std is None else f"{mean:.4f}({std:.4f})")
            rows.append(cells)
        widths = [max(len(r[c]) for r in [header] + rows) for c in range(len(header))]
        for r in [header] + rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        return "\n".join(lines)


def _untrained_model(method: str, config: RunTableConfig, run_seed: int):
    """The model that ``method`` trains in the run of ``run_seed``, before
    training, or None for the oracle, which trains none."""
    if method == "oracle":
        return None
    if method == "node":
        return node_link_model(seed=child_seed(run_seed, "model/node"))
    learn = method == "pair_learn"
    return pair_link_model(T=config.pair_layers, learn_update=learn,
                           seed=child_seed(run_seed, "model/pair-learn" if learn
                                           else "model/pair-fixed"))


def _run_one(args) -> tuple:
    """One run's metrics, keyed by (scenario, method), and the training
    log of each method it trains."""
    config, run_seed = args
    spec = config.spec
    training = build_training_split(spec, config.n_train, run_seed)
    # every scenario scores as many negatives as the transductive test
    # split, so a K that evaluate() would refuse is refused before training
    n_negatives = len(training[1].negatives["test"])
    for k in config.k_list:
        if k > n_negatives:
            raise PreconditionError(f"hits@{k} needs at least {k} negatives")
    train_ds = training[0]
    train_engines = _engines(train_ds.observed)
    models, logs = {}, {}
    for method in dict.fromkeys(config.methods):  # a repeated name trains once
        model = _untrained_model(method, config, run_seed)
        if model is not None:  # a frozen backbone trains its head alone
            epochs = config.epochs_end_to_end if model.backbone_trainable else config.epochs_head
            models[method], logs[method] = train_link_model(
                model, train_ds, epochs=epochs, lr=config.lr,
                backbone=train_engines[model.kind])

    out = {}
    for scenario in config.scenarios:
        n_te = {"transductive": config.n_train,
                "inductive_same": config.n_train,
                "inductive_ood": config.n_test_ood}[scenario]
        _, test_ds = build_scenario(spec, config.n_train, n_te, run_seed,
                                    scenario, training=training)
        graph = test_ds.observed
        engines = train_engines if graph is train_ds.observed else _engines(graph)
        pos, neg = test_ds.positives["test"], test_ds.negatives["test"]
        pairs = np.concatenate([pos, neg], axis=0)
        for method in config.methods:
            if method == "oracle":
                scores = oracle_scores(spec, graph, pairs)
            else:
                model = models[method]
                scores = model_scores(model, graph, pairs, engines[model.kind])
            out[(scenario, method)] = evaluate(scores[:len(pos)], scores[len(pos):],
                                               tau=TAU, k_list=config.k_list)
    return out, logs


def run_table(config: RunTableConfig, jobs: int = 1) -> EvalReport:
    """Execute the full protocol over independent runs and aggregate.

    Each run trains the models of ``config.methods`` in their order; every
    model has a seed of its own, so the order changes no result. Runs go
    to at most ``jobs`` worker processes, which changes no result either.
    The largest graph a pair model runs on is checked against its cap
    before any run samples a graph.
    """
    config.spec.require_valid(pairwise=True)
    n_max = max(config.n_train,
                config.n_test_ood if "inductive_ood" in config.scenarios else 0)
    for method in config.methods:
        model = _untrained_model(method, config, config.seed)
        if model is not None and model.kind == "pair":
            _require_size(n_max, model.mpnn)
    tasks = [(config, child_seed(config.seed, f"run/{r}"))
             for r in range(config.runs)]
    per_run = parallel_map(_run_one, tasks, jobs=jobs)
    values, curves = {}, {}
    for run, (result, logs) in enumerate(per_run):
        for key, metrics in result.items():
            bucket = values.setdefault(key, {})
            for metric, v in metrics.items():
                bucket.setdefault(metric, []).append(v)
        curves.update(((run, method), log) for method, log in logs.items())
    return EvalReport(values=values, runs=config.runs, k_list=config.k_list, curves=curves)
