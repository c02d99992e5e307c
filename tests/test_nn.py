import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphon_mpnn.nn import (
    AdamState,
    Buffers,
    FeedForwardNet,
    adam_step,
    init_net,
    lipschitz_upper_bound,
    sigmoid,
)

from oracles import finite_difference_gradients, max_relative_error


class TestInit:
    def test_deterministic(self):
        a = init_net([3, 5, 2], seed=11)
        b = init_net([3, 5, 2], seed=11)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)
        c = init_net([3, 5, 2], seed=12)
        assert any(
            not np.array_equal(pa, pc)
            for pa, pc in zip(a.parameters(), c.parameters())
        )

    def test_zero_init_reduces_to_bias(self):
        net = FeedForwardNet([2, 1])
        net.biases[0] = np.array([0.7])
        out = net.forward(np.array([3.0, -4.0]))
        assert out == pytest.approx([0.7])

    def test_fan_in_scaling(self):
        net = init_net([100, 4], seed=3)
        assert np.max(np.abs(net.weights[0])) <= 1 / np.sqrt(100)

    def test_output_bounded_by_interval_propagation(self):
        # tanh hidden layers land in [-1, 1], so the output is bounded by
        # the last layer's absolute row sums plus its bias.
        net = init_net([2, 5, 3], seed=5)
        w_out, b_out = net.weights[-1], net.biases[-1]
        cap = np.sum(np.abs(w_out), axis=1) + np.abs(b_out)
        rng = np.random.default_rng(0)
        for _ in range(200):
            out = net.forward(rng.normal(scale=50.0, size=2))
            assert np.all(np.abs(out) <= cap + 1e-12)


class TestForwardBackward:
    def test_linear_case(self):
        net = FeedForwardNet([1, 1])
        net.weights[0] = np.array([[2.0]])
        net.biases[0] = np.array([0.5])
        assert net.forward(np.array([3.0])) == pytest.approx([6.5])
        out, cache = net.forward_cache(np.array([3.0]))
        grads, grad_in = net.backward(cache, np.array([1.0]))
        np.testing.assert_allclose(grads[0], [[3.0]])
        np.testing.assert_allclose(grads[1], [1.0])
        np.testing.assert_allclose(grad_in, [2.0])

    def test_shape_mismatch(self):
        net = init_net([3, 2], seed=0)
        with pytest.raises(ValueError):
            net.forward(np.zeros(4))

    @pytest.mark.parametrize(
        "dims,output_activation",
        [
            ([2, 5, 3], "identity"),
            ([4, 10, 1], "sigmoid"),
            ([2, 2], "identity"),
            ([1, 10, 10, 10, 1], "sigmoid"),
        ],
    )
    def test_gradients_match_finite_differences(self, dims, output_activation):
        net = init_net(dims, seed=42, output_activation=output_activation)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(7, dims[0]))
        g = rng.normal(size=(7, dims[-1]))

        def loss():
            return float(np.sum(net.forward(x) * g))

        _, cache = net.forward_cache(x)
        analytic, grad_in = net.backward(cache, g)
        numeric = finite_difference_gradients(loss, net.parameters())
        assert max_relative_error(analytic, numeric) < 1e-4

        x_work = x.copy()

        def loss_x():
            return float(np.sum(net.forward(x_work) * g))

        numeric_in = finite_difference_gradients(loss_x, [x_work])
        assert max_relative_error([grad_in], numeric_in) < 1e-4


@pytest.mark.parametrize("dims, rows", [([3, 7, 6, 2], 50), ([1, 7, 6, 1], 6000),
                                        ([16, 7, 16, 16], 6000)])
def test_tanh_backward_bitwise_equals_recomputed_derivative(dims, rows):
    # backward reads tanh'(z) = 1 - h^2 off the cached activation h; the
    # result must equal, bit for bit, recomputing 1 - tanh(z)^2, and the
    # forward pass's and bias gradients' fast paths (a one-column input,
    # einsum column sums) the plain matrix product and sum(axis=0)
    rng = np.random.default_rng(3)
    for seed in range(5):
        net = init_net(dims, seed=seed)
        x = rng.normal(scale=2.0, size=(rows, dims[0]))
        g = rng.normal(size=(rows, dims[-1]))
        out, cache = net.forward_cache(x)
        h = x
        for k, (w, b) in enumerate(zip(net.weights, net.biases)):
            h = h @ w.T + b
            if k < len(net.weights) - 1:
                h = np.tanh(h)
        assert np.array_equal(out, h)
        grads, grad_in = net.backward(cache, g)

        inputs = cache[0]
        delta = g
        expected = [None] * (2 * len(net.weights))
        for k in range(len(net.weights) - 1, -1, -1):
            expected[2 * k] = delta.T @ inputs[k]
            expected[2 * k + 1] = delta.sum(axis=0)
            delta = delta @ net.weights[k]
            if k > 0:
                z = inputs[k - 1] @ net.weights[k - 1].T + net.biases[k - 1]
                delta = delta * (1.0 - np.tanh(z) ** 2)
        for a, b in zip(grads, expected):
            assert np.array_equal(a, b)
        assert np.array_equal(grad_in, delta)


@pytest.mark.parametrize("dims, rows", [([3, 7, 6, 2], 50), ([1, 7, 6, 1], 600),
                                        ([16, 7, 16, 16], 600)])
def test_buffered_passes_are_bitwise_and_reuse_their_arrays(dims, rows):
    # a training run's Buffers hand each epoch the arrays the one before
    # wrote: forward and backward into them give the bits of new arrays,
    # the cache backward reads is left as it was, and the second epoch
    # writes into the first epoch's arrays
    rng = np.random.default_rng(5)
    net = init_net(dims, seed=1, output_activation="sigmoid")
    buffers = Buffers()
    first = None
    for epoch in range(3):
        x = rng.normal(scale=2.0, size=(rows, dims[0]))
        g = rng.normal(size=(rows, dims[-1]))
        out, cache = net.forward_cache(x)
        grads, grad_in = net.backward(cache, g)
        out_b, cache_b = net.forward_cache(x, buffers)
        kept = [h.copy() for h in cache_b[0]]
        grads_b, grad_in_b = net.backward(cache_b, g, buffers)
        assert np.array_equal(out_b, out) and np.array_equal(cache_b[1], cache[1])
        assert all(np.array_equal(a, b) for a, b in zip(grads_b, grads))
        assert np.array_equal(grad_in_b, grad_in)
        assert all(np.array_equal(a, b) for a, b in zip(cache_b[0], kept))
        arrays = [*cache_b[0][1:], cache_b[1], grad_in_b]
        if first is None:
            first = arrays
        assert all(a is b for a, b in zip(arrays, first))
        for p in net.parameters():  # a step between epochs
            p += 0.1 * rng.normal(size=p.shape)


def test_buffers_reallocate_only_for_a_new_shape():
    buffers = Buffers()
    a = buffers.get("x", (4, 3))
    assert buffers.get("x", (4, 3)) is a and buffers.get("y", (4, 3)) is not a
    b = buffers.get("x", (5, 3))
    assert b.shape == (5, 3) and b is not a and buffers.get("x", (5, 3)) is b


def test_sigmoid_is_the_masked_formula():
    # 1 / (1 + e^-z) where z >= 0 and e^z / (1 + e^z) elsewhere, each
    # side computed on its own entries, equal bit for bit
    rng = np.random.default_rng(0)
    z = np.concatenate([rng.normal(scale=s, size=6000) for s in (1.0, 30.0, 400.0)]
                       + [[0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan]])
    want = np.empty_like(z)
    pos = z >= 0
    want[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    want[~pos] = ez / (1.0 + ez)
    got = sigmoid(z)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(got[-1]) and got[-3:-1].tolist() == [1.0, 0.0]


class TestLipschitz:
    def test_single_layer_row_sum(self):
        net = FeedForwardNet([2, 1])
        net.weights[0] = np.array([[2.0, -3.0]])
        assert lipschitz_upper_bound(net) == pytest.approx(5.0)

    def test_product_of_layers(self):
        net = FeedForwardNet([2, 2, 1])
        net.weights[0] = np.array([[1.5, 1.5], [0.5, 0.5]])
        net.weights[1] = np.array([[0.5, 0.0]])
        assert lipschitz_upper_bound(net) == pytest.approx(1.5)

    def test_empirical_ratio_below_bound(self):
        net = init_net([3, 8, 2], seed=13)
        bound = lipschitz_upper_bound(net)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(10_000, 3))
        y = rng.normal(size=(10_000, 3))
        num = np.max(np.abs(net.forward(x) - net.forward(y)), axis=1)
        den = np.max(np.abs(x - y), axis=1)
        assert np.all(num <= bound * den + 1e-12)

    @given(alpha=st.floats(0.1, 10.0), seed=st.integers(0, 100))
    def test_scaling_homogeneity(self, alpha, seed):
        net = init_net([2, 4, 3], seed=seed)
        scaled = init_net([2, 4, 3], seed=seed)
        for k in range(len(scaled.weights)):
            scaled.weights[k] = alpha * scaled.weights[k]
        n_layers = len(net.weights)
        assert lipschitz_upper_bound(scaled) == pytest.approx(
            alpha ** n_layers * lipschitz_upper_bound(net)
        )


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        net = init_net([2, 2], seed=0)
        params = net.parameters()
        before = [p.copy() for p in params]
        state = AdamState.for_parameters(params)
        adam_step(params, [np.zeros_like(p) for p in params], state)
        assert state.step == 1
        for p, q in zip(params, before):
            assert np.array_equal(p, q)

    def test_steps_the_net_in_place(self):
        net = init_net([2, 3, 1], seed=4)
        params = net.parameters()
        state = AdamState.for_parameters(params, lr=0.1)
        adam_step(params, [np.ones_like(p) for p in params], state)
        assert np.allclose(net.weights[0], init_net([2, 3, 1], seed=4).weights[0] - 0.1)

    def test_descends_quadratic_scalar(self):
        w = [np.array([1.0])]
        state = AdamState.for_parameters(w, lr=0.1)
        adam_step(w, [2.0 * w[0]], state)
        assert w[0][0] < 1.0

    def test_converges_on_quadratic(self):
        w = [np.array([3.0, -2.0])]
        state = AdamState.for_parameters(w, lr=0.05)
        for _ in range(500):
            adam_step(w, [2.0 * w[0]], state)
        assert float(np.sum(w[0] ** 2)) < 1e-6
