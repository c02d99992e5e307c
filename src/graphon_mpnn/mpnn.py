"""Message-passing networks: per-layer message/update functions.

A network is T layers of (message, update) pairs. Message functions map a
pair of feature vectors (x, y) to a message; update functions map (x, m) to
the next feature vector. Both come either as micro feed-forward nets or as
closed-form symbolic functions, and both operate on batched arrays whose
last axis is the feature width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError, PreconditionError
from .nn import Buffers, FeedForwardNet, init_net, lipschitz_upper_bound

NEIGHBOR_AVERAGE = "neighbor_average"
N_NORMALIZED_SUM = "n_normalized_sum"
AGGREGATIONS = (NEIGHBOR_AVERAGE, N_NORMALIZED_SUM)

#: Division guard for the closed-form ratio update; documented constant.
EPS_DIV = 1e-12


class NeighborProjection:
    """Message function (x, y) -> y.

    Lipschitz constant 1 under the sup norm, zero formal bias. Aggregations
    of this message reduce to adjacency matrix products, which the graph
    paths exploit as a fast path.
    """

    is_neighbor_projection = True
    net = None

    def __init__(self, width: int):
        self.width_in = 2 * int(width)
        self.width_out = int(width)

    def __call__(self, x, y):
        return np.asarray(y, dtype=float)

    def lipschitz(self) -> float:
        return 1.0

    def formal_bias(self) -> float:
        return 0.0


class RatioUpdate:
    """Update function (x, m) -> x / max(m, EPS_DIV), applied entrywise.

    Not globally Lipschitz; bound computations reject it.
    """

    is_neighbor_projection = False
    net = None

    def __init__(self, width: int):
        self.width_in = 2 * int(width)
        self.width_out = int(width)

    def __call__(self, x, m, out=None):
        """x / max(m, EPS_DIV). With ``out``, ``m`` is a float array whose
        values the caller no longer needs: the guard is applied to it in
        place and the quotient lands in ``out``, which may be ``x`` or ``m``."""
        guarded = np.maximum(m, EPS_DIV, out=None if out is None else m)
        return np.divide(x, guarded, out=out)

    def lipschitz(self):
        return None

    def formal_bias(self) -> float:
        return 0.0


class NetFunction:
    """Message or update function backed by a net on the concatenated pair:
    [x, y] for a message, [x, m] for an update."""

    is_neighbor_projection = False

    def __init__(self, net: FeedForwardNet):
        self.net = net
        self.width_in = net.width_in
        self.width_out = net.width_out

    def __call__(self, x, y):
        return self.net.forward(np.concatenate([x, y], axis=-1))

    def lipschitz(self) -> float:
        return lipschitz_upper_bound(self.net)

    def formal_bias(self) -> float:
        return self.net.formal_bias()


def update_rows(update, u, record: bool, buffers=None):
    """One layer's update on the rows of ``u``, its input [x, m] joined in
    one array, and with ``record`` (only for a net update) the net's
    forward cache (else None), its arrays in ``buffers`` when given. A net
    reads ``u`` as it is; the closed-form update reads x and m as the two
    halves of its width."""
    if update.net is None:
        return update(u[:, :update.width_out], u[:, update.width_out:]), None
    if record:
        return update.net.forward_cache(u, buffers)
    return update.net.forward(u), None


@dataclass(frozen=True)
class Mpnn:
    """T layers of (message, update) pairs plus the node aggregation mode.

    Feature widths must chain: for layer t with input width F, the message
    function consumes 2F and emits H, and the update consumes F + H. Width
    mismatches are construction-time errors.
    """

    layers: tuple
    aggregation: str = NEIGHBOR_AVERAGE

    def __post_init__(self):
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}")
        layers = tuple(tuple(pair) for pair in self.layers)
        if not layers:
            raise ValueError("need at least one layer")
        f = layers[0][0].width_in // 2
        for t, (msg, upd) in enumerate(layers):
            if msg.width_in != 2 * f:
                raise ValueError(
                    f"layer {t}: message input width {msg.width_in} != 2*{f}"
                )
            if upd.width_in != f + msg.width_out:
                raise ValueError(
                    f"layer {t}: update input width {upd.width_in} != "
                    f"{f} + {msg.width_out}"
                )
            f = upd.width_out
        object.__setattr__(self, "layers", layers)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def feature_dims(self) -> list:
        dims = [self.layers[0][0].width_in // 2]
        for _, upd in self.layers:
            dims.append(upd.width_out)
        return dims

    @property
    def message_dims(self) -> list:
        return [msg.width_out for msg, _ in self.layers]

    @property
    def all_symbolic(self) -> bool:
        return all(msg.net is None and upd.net is None for msg, upd in self.layers)

    def trainable_nets(self) -> list:
        """Every net of the network, layer by layer, message before update."""
        return [part.net for layer in self.layers for part in layer
                if part.net is not None]


def graphsage_mpnn(feature_dims, update_hidden=10, seed=0,
                   aggregation=NEIGHBOR_AVERAGE) -> Mpnn:
    """Randomly initialized network in the neighbor-sampling style.

    Each layer projects the neighbor feature as its message and updates via
    a one-hidden-layer tanh net on [own, aggregated]: for ``feature_dims``
    [F0, F1, ..., FT] layer t maps width F_{t-1} to F_t.
    """
    layers = []
    for t in range(len(feature_dims) - 1):
        f_in, f_out = feature_dims[t], feature_dims[t + 1]
        net = init_net([2 * f_in, update_hidden, f_out], seed=seed,
                       tag=f"init/update{t}")
        layers.append((NeighborProjection(f_in), NetFunction(net)))
    return Mpnn(layers=tuple(layers), aggregation=aggregation)


def block_recursion(mpnn: Mpnn, f: np.ndarray, messages: Callable, return_layers: bool):
    """The layer loop of a continuous recursion over block states ``f``: each
    layer sets f <- update(f, messages(f, message)). Returns the last states,
    or with ``return_layers`` the start and every layer's states."""
    trace = [f.copy()]
    for message, update in mpnn.layers:
        f = update(f, messages(f, message))
        trace.append(f.copy())
    return trace if return_layers else trace[-1]


def require_tape(mpnn: Mpnn, pairs, engine: str) -> None:
    """Raise unless a pass of ``mpnn`` at ``pairs`` can be recorded for
    backprop: the tape needs queried pairs, neighbor-projection messages
    and net updates."""
    if pairs is None or not all(msg.is_neighbor_projection and upd.net is not None
                                for msg, upd in mpnn.layers):
        raise PreconditionError(
            f"backprop through the {engine} recursion needs queried pairs, "
            "neighbor-projection messages and net updates"
        )


def require_finite(values: np.ndarray, engine: str) -> None:
    """Raise NumericalError unless every entry of ``values`` is finite.

    NaN propagates through ``min`` and ``max``, and an infinity of either
    sign is one of them, so the two reductions accept exactly the arrays
    that ``np.all(np.isfinite(values))`` accepts, with no mask as large as
    ``values``. An empty array passes."""
    if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise NumericalError(f"non-finite {engine} features during message passing")


@dataclass(frozen=True)
class Tape:
    """A recorded forward pass of either engine at queried pairs.

    ``pull(t, d)`` is the engine's share of the backward pass: it maps the
    gradient at layer t's update input to the gradient at layer t-1's
    output rows, and at t = depth the gradient at the returned values to
    the gradient at the last layer's output rows. ``buffers``, a training
    run's ``nn.Buffers`` or None, takes the update nets' backward arrays
    as it took their caches.
    """

    mpnn: Mpnn
    caches: list  # per layer: the update net's forward cache
    pull: Callable
    buffers: Buffers | None = None

    def backward(self, d_values: np.ndarray) -> list:
        """Parameter gradients of <d_values, values> for the recorded pass.

        Returns one gradient list per layer, ordered like each update net's
        ``parameters()``. Layer 0 takes no input gradient, so the pass
        stops there.
        """
        depth = self.mpnn.depth
        grads = [None] * depth
        delta = self.pull(depth, d_values)
        for t in range(depth - 1, -1, -1):
            grads[t], d_u = self.mpnn.layers[t][1].net.backward(self.caches[t], delta,
                                                                self.buffers)
            if t > 0:
                delta = self.pull(t, d_u)
        return grads
