"""Micro feed-forward networks with exact backpropagation and Adam.

These are deliberately small, pure-numpy MLPs (all math in float64) used as
message/update functions inside message-passing layers and as link heads.
Forward and backward operate on batched inputs of shape (..., width).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import stream


def _tanh_grad(h, out=None):
    """1 - h^2 for h = tanh(z), written into ``out`` or one temporary."""
    d = np.multiply(h, h, out=out)
    return np.subtract(1.0, d, out=d)


def _column_sums(d):
    """``d.sum(axis=0)`` bit for bit. Over the rows of a C-contiguous
    array of several columns numpy adds one row after another, as
    ``einsum`` does in under half the time; it sums one column, or a
    Fortran-ordered array's columns, pairwise, which ``einsum`` does not."""
    if d.shape[1] > 1 and d.flags.c_contiguous:
        return np.einsum("ij->j", d)
    return d.sum(axis=0)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so that no
    exponential overflows: both read the one e^-|z|, and no mask indexes
    the input."""
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, np.divide(1.0, d), np.divide(e, d, out=e))


class Buffers:
    """The arrays a training run rewrites every epoch: the head's and the
    update nets' recorded activations, their backward products and
    tanh-derivative scratch, the head-input gradient and the node pull's
    endpoint gradients. ``get(key, shape)`` hands out the array of ``key``,
    allocated at first use and kept while its shape holds, so an epoch
    writes into the arrays the one before it wrote. A run owns one and
    drops it when it returns; an array it hands out is valid until the next
    ``get`` of its key.

    Freeing and reallocating them every epoch costs page faults, not only
    copies: glibc returns a few hundred KiB freed at the heap top to the
    system and faults the pages back in at the next allocation.
    """

    def __init__(self):
        self._arrays = {}

    def get(self, key, shape) -> np.ndarray:
        array = self._arrays.get(key)
        if array is None or array.shape != shape:
            array = self._arrays[key] = np.empty(shape)
        return array


class FeedForwardNet:
    """MLP with tanh hidden layers and an identity or sigmoid output.

    Parameters are ``weights[k]`` of shape (dims[k+1], dims[k]) and
    ``biases[k]`` of shape (dims[k+1],), all zero at construction.
    ``backward`` returns exact gradients of the scalar
    <grad_out, forward(x)>.
    """

    def __init__(self, dims, output_activation="identity"):
        if not dims or len(dims) < 2:
            raise ValueError("dims must list at least input and output widths")
        if output_activation not in ("identity", "sigmoid"):
            raise ValueError(f"unknown output activation {output_activation!r}")
        self.dims = [int(d) for d in dims]
        self.output_activation = output_activation
        self.weights = [np.zeros((o, i)) for i, o in zip(self.dims, self.dims[1:])]
        self.biases = [np.zeros(o) for o in self.dims[1:]]

    # -- basic properties ----------------------------------------------------

    @property
    def width_in(self) -> int:
        return self.dims[0]

    @property
    def width_out(self) -> int:
        return self.dims[-1]

    def parameters(self) -> list:
        """The parameter arrays themselves, [w0, b0, w1, b1, ...]."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def formal_bias(self) -> float:
        """Sup norm of the output at the zero input."""
        zero = np.zeros(self.width_in)
        return float(np.max(np.abs(self.forward(zero))))

    # -- forward / backward ----------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._forward(x)[0]

    def forward_cache(self, x: np.ndarray, buffers: Buffers | None = None):
        """Forward pass retaining what backward() reads.

        The cache is (inputs, logits, out): each layer's input (x, then the
        tanh outputs of the hidden layers), the last layer's output before
        the output nonlinearity and the net's output. With ``buffers`` each
        layer's output is written into this net's array there, bit for bit
        what it would be in a new one.
        """
        inputs = []
        out, logits = self._forward(x, inputs, buffers)
        return out, (inputs, logits, out)

    def _forward(self, x, inputs=None, buffers=None):
        """The net's output and logits; each layer's input is appended to
        the list ``inputs`` when one is given."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.width_in:
            raise ValueError(f"input width {x.shape[-1]} != {self.width_in}")
        h = x
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if inputs is not None:
                inputs.append(h)
            z = None if buffers is None else buffers.get((id(self), "z", k),
                                                         h.shape[:-1] + (len(w),))
            if w.shape[1] == 1:  # one product per entry either way
                z = np.multiply(h, w[:, 0], out=z)
            else:
                z = np.matmul(h, w.T, out=z)
            z += b
            h = z if k == last else np.tanh(z, out=z)
        out = sigmoid(h) if self.output_activation == "sigmoid" else h
        return out, h

    def backward(self, cache, grad_out: np.ndarray, buffers: Buffers | None = None):
        """Gradients of <grad_out, forward(x)> w.r.t. parameters and input.

        Returns (param_grads, grad_in). Parameter gradients are summed over
        all batch elements; grad_in matches the input batch shape. With
        ``buffers`` the gradients at the layers' inputs and the tanh
        derivatives are written into this net's arrays there, grad_in
        included; the cache is only read.
        """
        out = cache[2]
        delta = np.asarray(grad_out, dtype=float)
        if self.output_activation == "sigmoid":
            delta = delta * out * (1.0 - out)
        return self._backward_from_logits(cache, delta, buffers)

    def backward_from_logits(self, cache, grad_logits: np.ndarray,
                             buffers: Buffers | None = None):
        """Like backward() but the gradient is taken at the logits, the last
        layer's output before the output nonlinearity."""
        return self._backward_from_logits(cache, np.asarray(grad_logits, dtype=float), buffers)

    def _backward_from_logits(self, cache, delta, buffers=None):
        inputs = cache[0]
        grads = [None] * (2 * len(self.weights))
        for k in range(len(self.weights) - 1, -1, -1):
            h_in, w = inputs[k], self.weights[k]
            flat_delta = delta.reshape(-1, delta.shape[-1])
            flat_in = h_in.reshape(-1, h_in.shape[-1])
            grads[2 * k] = flat_delta.T @ flat_in
            grads[2 * k + 1] = _column_sums(flat_delta)
            d_in = tanh_grad = None
            if buffers is not None:
                d_in = buffers.get((id(self), "d_in", k), h_in.shape)
                if k > 0:
                    tanh_grad = buffers.get((id(self), "tanh'", k), h_in.shape)
            delta = np.matmul(delta, w, out=d_in)
            if k > 0:
                delta *= _tanh_grad(h_in, out=tanh_grad)
        return grads, delta


def init_net(dims, seed=0, output_activation="identity",
             tag="init") -> FeedForwardNet:
    """Random net with weights and biases ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)).

    Deterministic in ``(seed, tag)``; distinct tags give independent nets
    from one seed.
    """
    net = FeedForwardNet(dims, output_activation)
    rng = stream(seed, tag)
    for k, (i, o) in enumerate(zip(net.dims, net.dims[1:])):
        bound = 1.0 / np.sqrt(i)
        net.weights[k] = rng.uniform(-bound, bound, size=(o, i))
        net.biases[k] = rng.uniform(-bound, bound, size=o)
    return net


def lipschitz_upper_bound(net: FeedForwardNet) -> float:
    """Product of per-layer sup-operator norms, times 1/4 for a sigmoid output.

    The sup-operator norm of a weight matrix is its maximum absolute row
    sum; tanh is 1-Lipschitz and the sigmoid 1/4-Lipschitz, so the product
    is a valid upper bound on the net's Lipschitz constant under the sup
    norm.
    """
    bound = 1.0
    for w in net.weights:
        bound *= float(np.max(np.sum(np.abs(w), axis=1)))
    if net.output_activation == "sigmoid":
        bound *= 0.25
    return bound


# --- Adam ---------------------------------------------------------------------

#: Adam's moment decay rates and denominator guard, the usual defaults.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators, shaped like the parameter list."""

    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    lr: float = 1e-3

    @classmethod
    def for_parameters(cls, params, lr=1e-3):
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params], lr=lr)


def adam_step(params, grads, state: AdamState) -> None:
    """One Adam update of a flat parameter list: the parameter arrays and
    ``state`` (step count and moments) are updated in place."""
    state.step += 1
    t = state.step
    for k, (p, g) in enumerate(zip(params, grads)):
        state.m[k] = _BETA1 * state.m[k] + (1 - _BETA1) * g
        state.v[k] = _BETA2 * state.v[k] + (1 - _BETA2) * g * g
        m_hat = state.m[k] / (1 - _BETA1 ** t)
        v_hat = state.v[k] / (1 - _BETA2 ** t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + _EPS)
