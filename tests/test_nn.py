"""Tests for the dense-network building blocks: forward pass, reverse-mode
gradients, Adam updates, finite-difference checking and checkpointing.

Gradient correctness is established against central finite differences,
which act as the independent oracle throughout.  Expected forward values
for the seeded two-layer case come from a straight-line evaluation of the
two matrix products, written out explicitly in the test body.
"""

import json
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from tvgan import nn, training


def _readout_loss(x, readout):
    """Loss(params) = sum(readout * mlp(x)); its output gradient is `readout`."""

    def loss(params):
        out, cache = nn.mlp_forward(params, x)
        value = float(np.sum(out * readout))
        grads, _ = nn.mlp_backward(params, cache, readout)
        return value, grads

    return loss


def _squared_loss(x):
    """Loss(params) = 0.5 * sum(mlp(x)**2); output gradient equals the output."""

    def loss(params):
        out, cache = nn.mlp_forward(params, x)
        value = 0.5 * float(np.sum(out * out))
        grads, _ = nn.mlp_backward(params, cache, out)
        return value, grads

    return loss


def _masked_sigmoid(pre):
    """The sigmoid as four boolean-mask gathers and scatters: the reference
    the single-expression ``nn._sigmoid`` must match bit for bit."""
    out = np.empty_like(pre)
    pos = pre >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-pre[pos]))
    ex = np.exp(pre[~pos])
    out[~pos] = ex / (1.0 + ex)
    return np.clip(out, nn.LOG_EPS, 1.0 - nn.LOG_EPS)


def _per_layer_adam(arrays, grads, m, v, t, state):
    """Adam descent written one array at a time over [W0, b0, W1, b1, ...]:
    the update the whole-vector ``nn.adam_step`` must reproduce bit for bit."""
    out = []
    for value, grad, m_old, v_old in zip(arrays, grads, m, v):
        m_new = state.config.beta1 * m_old + (1.0 - state.config.beta1) * grad
        v_new = state.config.beta2 * v_old + (1.0 - state.config.beta2) * grad * grad
        step = state.config.lr * (m_new / (1.0 - state.config.beta1**t)) / (
            np.sqrt(v_new / (1.0 - state.config.beta2**t)) + state.config.epsilon
        )
        out.append((value - step, m_new, v_new))
    return [list(col) for col in zip(*out)]


def _arrays(layers):
    return [a for l in layers for a in (l.weights, l.biases)]


def _split(params, vec):
    """``vec``, laid out like ``params.flat``, cut into views shaped
    [W0, b0, W1, b1, ...] by the layer shapes."""
    out, start = [], 0
    for a in _arrays(params.layers):
        out.append(vec[start:start + a.size].reshape(a.shape))
        start += a.size
    assert start == vec.size
    return out


def _scalar_param(value):
    """A 1x1 identity network whose single weight is the optimization variable."""
    layer = nn.Layer(
        weights=np.array([[float(value)]]),
        biases=np.zeros(1),
        activation="identity",
    )
    return nn.MlpParams(layers=[layer])


class TestForward:
    def test_zero_network_maps_to_zero(self):
        """All-zero weights and biases with identity activation give zero output."""
        layers = [
            nn.Layer(np.zeros((3, 4)), np.zeros(4), "identity"),
            nn.Layer(np.zeros((4, 2)), np.zeros(2), "identity"),
        ]
        params = nn.MlpParams(layers=layers)
        out, _ = nn.mlp_forward(params, np.ones((5, 3)))
        assert out.shape == (5, 2)
        np.testing.assert_array_equal(out, np.zeros((5, 2)))

    def test_identity_layer_passes_input_through(self):
        layer = nn.Layer(np.eye(3), np.zeros(3), "identity")
        params = nn.MlpParams(layers=[layer])
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 3))
        out, cache = nn.mlp_forward(params, x)
        np.testing.assert_array_equal(out, x)
        np.testing.assert_array_equal(cache.inputs[0], x)

    def test_two_layer_matches_straight_line_evaluation(self):
        """Forward pass agrees with the matrix products written out by hand."""
        rng = np.random.default_rng(0)
        params = nn.init_mlp([2, 3, 2], ["identity", "identity"], rng)
        x = np.array([[1.0, 1.0]])

        w1, b1 = params.layers[0].weights, params.layers[0].biases
        w2, b2 = params.layers[1].weights, params.layers[1].biases
        by_hand = (x @ w1 + b1) @ w2 + b2

        out, _ = nn.mlp_forward(params, x)
        np.testing.assert_allclose(out, by_hand, atol=1e-15)
        # Frozen from the evaluation above under the seed-0 init stream.
        np.testing.assert_allclose(
            out[0],
            [-0.23012113842854515, -0.09781671543737246],
            atol=1e-12,
        )

    def test_forward_is_deterministic(self):
        """Identical (params, input) pairs produce bit-identical outputs."""
        rng = np.random.default_rng(3)
        params = nn.init_mlp([4, 8, 1], ["tanh", "sigmoid"], rng)
        x = rng.normal(size=(32, 4))
        out1, _ = nn.mlp_forward(params, x)
        out2, _ = nn.mlp_forward(params, x)
        np.testing.assert_array_equal(out1, out2)

    def test_sigmoid_output_strictly_inside_unit_interval(self):
        """Sigmoid outputs stay strictly in (0, 1) even for saturating inputs."""
        layer = nn.Layer(np.array([[1.0]]), np.zeros(1), "sigmoid")
        params = nn.MlpParams(layers=[layer])
        x = np.array([[-1e6], [-50.0], [0.0], [50.0], [1e6]])
        out, _ = nn.mlp_forward(params, x)
        assert np.all(out > 0.0)
        assert np.all(out < 1.0)

    def test_sigmoid_matches_masked_reference_bit_for_bit(self):
        """One exp(-|x|) and a where give the masked formula's bits, with no
        numerical warning, at +-0, +-inf, nan, |x| >= 710 and random inputs."""
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 709.0, -709.0, 710.0, -710.0,
                   745.2, -745.2, 1e6, -1e6, 5e-324, -5e-324, 36.7, -36.7]
        pre = np.concatenate([special, np.random.default_rng(41).normal(scale=30.0, size=500)])
        pre = pre.reshape(-1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nn._sigmoid(pre)
            expected = _masked_sigmoid(pre)
        np.testing.assert_array_equal(got, expected)  # nan-aware
        finite = ~np.isnan(pre)
        assert got[finite].tobytes() == expected[finite].tobytes()

    def test_relu_activation(self):
        layer = nn.Layer(np.eye(2), np.zeros(2), "relu")
        params = nn.MlpParams(layers=[layer])
        out, _ = nn.mlp_forward(params, np.array([[-3.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_dimension_mismatch_raises_with_layer_index(self):
        rng = np.random.default_rng(1)
        params = nn.init_mlp([3, 4, 2], ["tanh", "identity"], rng)
        with pytest.raises(nn.ShapeMismatchError) as err:
            nn.mlp_forward(params, np.ones((5, 7)))
        assert err.value.layer == 0

    def test_mismatched_layer_chain_rejected(self):
        layers = [
            nn.Layer(np.zeros((3, 4)), np.zeros(4), "identity"),
            nn.Layer(np.zeros((5, 2)), np.zeros(2), "identity"),
        ]
        with pytest.raises(nn.ShapeMismatchError):
            nn.MlpParams(layers=layers)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError):
            nn.Layer(np.zeros((2, 2)), np.zeros(2), "softplus")


class TestApply:
    """``mlp_apply`` is ``mlp_forward(...)[0]`` without the cache: the same
    bits, and the same errors for the same faults."""

    SIZES = ([3, 1], [2, 5, 3], [4, 8, 8, 2])

    @staticmethod
    def _same_error(error, params, x):
        errors = []
        for fn in (lambda: nn.mlp_forward(params, x), lambda: nn.mlp_apply(params, x)):
            with pytest.raises(error) as err:
                fn()
            errors.append(err.value)
        forward, apply = errors
        assert type(apply) is type(forward) and str(apply) == str(forward)
        assert apply.layer == forward.layer
        return apply

    @pytest.mark.parametrize("activation", nn.ACTIVATIONS)
    @pytest.mark.parametrize("sizes", SIZES, ids=lambda s: "-".join(map(str, s)))
    def test_output_equals_forward_bit_for_bit(self, activation, sizes):
        rng = np.random.default_rng(len(sizes))
        hidden = [activation] * (len(sizes) - 2)
        for last in (activation, "identity", "sigmoid"):
            params = nn.init_mlp(sizes, hidden + [last], rng)
            params.flat += rng.normal(scale=0.3, size=params.flat.size)  # non-zero biases
            for rows in (1, 7, 300):
                x = rng.normal(scale=2.0, size=(rows, sizes[0]))
                before = x.tobytes()
                got = nn.mlp_apply(params, x)
                want = nn.mlp_forward(params, x)[0]
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
                assert x.tobytes() == before

    # A block holds APPLY_BLOCK_BYTES of the widest layer's output, 512 rows at
    # width 64: 2 * 512 + 1 rows make three blocks of 342, 342 and 341, so no
    # block is a one-row remainder.
    BLOCKED_SIZES = [4, 64, 64, 2]
    BLOCKED_ROWS = 2 * (nn.APPLY_BLOCK_BYTES // (8 * 64)) + 1
    # Against the whole-batch forward only the summation order of a product
    # may differ: a relative error of at most fan_in * eps per layer, summed
    # over the layers, taken relative to the largest output.
    BLOCKED_TOL = (len(BLOCKED_SIZES) - 1) * max(BLOCKED_SIZES) * np.finfo(np.float64).eps

    @pytest.mark.parametrize("activation", nn.ACTIVATIONS)
    def test_blocked_output_is_the_per_block_forward(self, activation):
        rng = np.random.default_rng(5)
        for last in (activation, "identity"):
            params = nn.init_mlp(self.BLOCKED_SIZES, [activation, activation, last], rng)
            params.flat += rng.normal(scale=0.3, size=params.flat.size)  # non-zero biases
            x = rng.normal(scale=2.0, size=(self.BLOCKED_ROWS, self.BLOCKED_SIZES[0]))
            before = x.tobytes()
            got = nn.mlp_apply(params, x)
            assert x.tobytes() == before
            blocks = [nn.mlp_forward(params, block)[0] for block in np.array_split(x, 3)]
            assert [len(b) for b in blocks] == [342, 342, 341]
            want = np.vstack(blocks)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            whole = nn.mlp_forward(params, x)[0]
            scale = np.abs(whole).max()
            np.testing.assert_allclose(got, whole, rtol=0, atol=self.BLOCKED_TOL * scale)

    def test_blocked_errors_are_the_whole_batch_errors(self):
        rng = np.random.default_rng(6)
        params = nn.init_mlp(self.BLOCKED_SIZES, ["tanh", "tanh", "identity"], rng)
        rows = self.BLOCKED_ROWS
        err = self._same_error(nn.ShapeMismatchError, params, np.ones((rows, 5)))
        assert err.layer == 0 and err.expected == (rows, 4) and err.actual == (rows, 5)
        x = rng.normal(size=(rows, 4))
        x[rows - 1, 2] = np.nan  # in the last block
        self._same_error(nn.NonFiniteError, params, x)
        params.layers[-1].weights[:] = 1e308
        params.layers[-1].biases[:] = 1e308
        with np.errstate(all="ignore"):
            err = self._same_error(nn.NonFiniteError, params, np.full((rows, 4), 5.0))
        assert err.layer == len(params.layers) - 1

    def test_blocked_forward_memory_does_not_grow_with_the_batch(self):
        """A 20 000-row forward through width 64 holds two blocks of hidden
        activations, not two 20 000 x 64 arrays (20.5 MB)."""
        params = nn.init_mlp([4, 64, 64, 2], ["tanh", "tanh", "identity"], np.random.default_rng(7))
        x = np.random.default_rng(8).normal(size=(20000, 4))
        nn.mlp_apply(params, x)  # first-call allocations are not the forward's
        tracemalloc.start()
        try:
            nn.mlp_apply(params, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @staticmethod
    def _block_rows(width):
        """The derived rule: the most rows whose width-``width`` output fits the budget."""
        return max(1, nn.APPLY_BLOCK_BYTES // (8 * width))

    @pytest.mark.parametrize("width", [32, 64, 256])
    def test_blocks_are_budget_sized_forwards(self, width):
        """20 000 rows run as the fewest near-equal blocks of at most
        ``_block_rows(width)`` rows, each ``mlp_forward`` of that block."""
        rng = np.random.default_rng(width)
        params = nn.init_mlp([4, width, width, 2], ["tanh", "tanh", "identity"], rng)
        params.flat += rng.normal(scale=0.1, size=params.flat.size)  # non-zero biases
        x = rng.normal(size=(20000, 4))
        rows = self._block_rows(width)
        blocks = np.array_split(x, -(-len(x) // rows))
        assert max(len(b) for b in blocks) <= rows < 20000
        want = np.vstack([nn.mlp_forward(params, b)[0] for b in blocks])
        assert nn.mlp_apply(params, x).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "sizes, rows",
        [([4, 32, 32, 2], 128), ([2, 32, 32, 1], 128), ([4, 64, 64, 2], 512), ([2, 64, 64, 1], 512)],
        ids=["g-128x32", "d-128x32", "g-512x64", "d-512x64"],
    )
    def test_batch_within_the_budget_is_one_forward(self, monkeypatch, sizes, rows):
        """The discriminator step's fake batches (128 rows at width 32, 512 at
        width 64) run as one layer loop; one row past the budget makes two."""
        rng = np.random.default_rng(rows)
        params = nn.init_mlp(sizes, ["tanh", "tanh", "identity"], rng)
        calls = []
        layers = nn._layers
        monkeypatch.setattr(nn, "_layers", lambda p, h, i: calls.append(len(h)) or layers(p, h, i))
        x = rng.normal(size=(rows, sizes[0]))
        assert nn.mlp_apply(params, x).tobytes() == nn.mlp_forward(params, x)[0].tobytes()
        assert calls == [rows, rows]  # mlp_apply's one block, then mlp_forward
        calls.clear()
        fit = self._block_rows(max(sizes[1:]))
        nn.mlp_apply(params, rng.normal(size=(fit, sizes[0])))
        nn.mlp_apply(params, rng.normal(size=(fit + 1, sizes[0])))
        assert calls == [fit, fit // 2 + 1, fit // 2]

    # Fixed before the first run: room for the loop's small arrays (the last
    # layer's block output and its finiteness mask) and Python objects.
    APPLY_SLACK = 64 * 2**10

    @pytest.mark.parametrize("width", [64, 256])
    def test_apply_memory_is_the_output_and_two_blocks(self, width):
        """A 20 000-row forward allocates its output and at most two blocks of
        the widest layer's activations at a time."""
        params = nn.init_mlp([4, width, width, 2], ["tanh", "tanh", "identity"], np.random.default_rng(9))
        x = np.random.default_rng(10).normal(size=(20000, 4))
        nn.mlp_apply(params, x)  # first-call allocations are not the forward's
        tracemalloc.start()
        try:
            out = nn.mlp_apply(params, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 2 * nn.APPLY_BLOCK_BYTES + self.APPLY_SLACK

    @pytest.mark.parametrize("sizes", SIZES, ids=lambda s: "-".join(map(str, s)))
    def test_bad_width_raises_like_forward(self, sizes):
        params = nn.init_mlp(sizes, ["tanh"] * (len(sizes) - 1), np.random.default_rng(2))
        err = self._same_error(nn.ShapeMismatchError, params, np.ones((5, sizes[0] + 1)))
        assert err.layer == 0 and err.expected == (5, sizes[0]) and err.actual == (5, sizes[0] + 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_like_forward(self, bad):
        params = nn.init_mlp([2, 4, 1], ["relu", "sigmoid"], np.random.default_rng(3))
        x = np.ones((3, 2))
        x[1, 0] = bad
        self._same_error(nn.NonFiniteError, params, x)

    @pytest.mark.parametrize("activation", nn.ACTIVATIONS)
    def test_overflowing_weight_raises_like_forward_with_the_layer(self, activation):
        params = nn.init_mlp([2, 4, 3], [activation, "identity"], np.random.default_rng(4))
        np.abs(params.layers[0].weights, out=params.layers[0].weights)  # hidden units > 0.5
        params.layers[-1].weights[:] = 1e308
        params.layers[-1].biases[:] = 1e308
        x = np.full((6, 2), 5.0)
        with np.errstate(all="ignore"):
            err = self._same_error(nn.NonFiniteError, params, x)
        assert err.layer == len(params.layers) - 1


class TestBackward:
    def test_zero_output_grad_gives_zero_param_grads(self):
        rng = np.random.default_rng(11)
        params = nn.init_mlp([3, 5, 2], ["tanh", "identity"], rng)
        x = rng.normal(size=(4, 3))
        _, cache = nn.mlp_forward(params, x)
        grads, input_grad = nn.mlp_backward(params, cache, np.zeros((4, 2)))
        for g in _split(params, grads):
            np.testing.assert_array_equal(g, np.zeros_like(g))
        np.testing.assert_array_equal(input_grad, np.zeros((4, 3)))

    def test_identity_network_sum_loss_input_grad_is_ones(self):
        """For f(x) = x and loss = sum of outputs, d loss / d x is all ones."""
        layer = nn.Layer(np.eye(3), np.zeros(3), "identity")
        params = nn.MlpParams(layers=[layer])
        x = np.random.default_rng(2).normal(size=(5, 3))
        _, cache = nn.mlp_forward(params, x)
        _, input_grad = nn.mlp_backward(params, cache, np.ones((5, 3)))
        np.testing.assert_array_equal(input_grad, np.ones((5, 3)))

    def test_two_layer_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        params = nn.init_mlp([2, 6, 1], ["tanh", "identity"], rng)
        x = rng.normal(size=(8, 2))
        readout = rng.normal(size=(8, 1))
        worst = nn.grad_check(params, _readout_loss(x, readout), h=1e-5)
        assert worst <= 1e-6, f"finite differences disagree: {worst:.3e}"

    def test_nonlinear_loss_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        params = nn.init_mlp([3, 4, 4, 2], ["tanh", "sigmoid", "identity"], rng)
        x = rng.normal(size=(10, 3))
        worst = nn.grad_check(params, _squared_loss(x), h=1e-5)
        assert worst <= 1e-6, f"finite differences disagree: {worst:.3e}"

    def test_random_smooth_networks_pass_gradient_check(self):
        """Twenty seeded networks (depth <= 3, width <= 16) with smooth
        activations all agree with central differences to 1e-6."""
        shape_rng = np.random.default_rng(2024)
        for trial in range(20):
            depth = int(shape_rng.integers(1, 4))
            sizes = [int(shape_rng.integers(1, 17)) for _ in range(depth + 1)]
            acts = [
                str(shape_rng.choice(["tanh", "sigmoid", "identity"]))
                for _ in range(depth)
            ]
            params = nn.init_mlp(sizes, acts, np.random.default_rng(trial))
            x = shape_rng.normal(size=(4, sizes[0]))
            readout = shape_rng.normal(size=(4, sizes[-1]))
            worst = nn.grad_check(params, _readout_loss(x, readout), h=1e-5)
            assert worst <= 1e-6, (
                f"trial {trial}: sizes={sizes}, acts={acts}, error={worst:.3e}"
            )

    def test_relu_network_off_kink_passes_gradient_check(self):
        """ReLU gradients agree with finite differences away from the kink.

        Biases are shifted so no pre-activation sits near zero; otherwise
        the two-sided difference would straddle the non-differentiable point.
        """
        rng = np.random.default_rng(9)
        params = nn.init_mlp([2, 8, 1], ["relu", "identity"], rng)
        for layer in params.layers[:-1]:
            layer.biases += 0.25
        x = rng.normal(size=(6, 2))
        pre = x @ params.layers[0].weights + params.layers[0].biases
        assert np.min(np.abs(pre)) > 1e-3, "test setup too close to kink"
        readout = rng.normal(size=(6, 1))
        worst = nn.grad_check(params, _readout_loss(x, readout), h=1e-5)
        assert worst <= 1e-5, f"finite differences disagree: {worst:.3e}"

    def test_relu_derivative_is_zero_at_exactly_zero(self):
        """The subgradient convention at the kink is relu'(0) = 0."""
        layer = nn.Layer(np.eye(1), np.zeros(1), "relu")
        params = nn.MlpParams(layers=[layer])
        _, cache = nn.mlp_forward(params, np.array([[0.0]]))
        grads, input_grad = nn.mlp_backward(params, cache, np.ones((1, 1)))
        np.testing.assert_array_equal(input_grad, [[0.0]])
        np.testing.assert_array_equal(_split(params, grads)[0], [[0.0]])

    def test_grad_accumulation_helpers(self):
        rng = np.random.default_rng(12)
        params = nn.init_mlp([2, 3, 1], ["tanh", "identity"], rng)
        x = rng.normal(size=(4, 2))
        _, cache = nn.mlp_forward(params, x)
        grads, _ = nn.mlp_backward(params, cache, np.ones((4, 1)))

        acc = nn.zero_grads(params)
        nn.add_grads(acc, grads)
        nn.add_grads(acc, grads)
        for a, g in zip(_split(params, acc), _split(params, grads)):
            np.testing.assert_allclose(a, 2.0 * g, atol=1e-15)


    @pytest.mark.parametrize(
        "acts",
        [["relu", "tanh", "sigmoid"], ["tanh", "identity", "relu"], ["sigmoid", "sigmoid", "identity"]],
    )
    def test_backward_matches_the_per_layer_formulas(self, acts):
        """``dpre = da * act'(pre)``, ``dW = x.T @ dpre``, ``db = dpre.sum(0)``,
        ``da = dpre @ W.T``, each as one new array, with each layer's
        ``pre = x @ W + b`` formed here: the in-place kernel, which reads the
        derivative from the cached activations, gives the same bits."""
        rng = np.random.default_rng(70)
        params = nn.init_mlp([3, 6, 5, 2], acts, rng)
        x = rng.normal(size=(11, 3))
        x[0] = 0.0  # relu pre-activations at exactly the kink
        for layer in params.layers:
            layer.biases[0] = 0.0
        _, cache = nn.mlp_forward(params, x)
        out_grad = rng.normal(size=(11, 2))
        grads, input_grad = nn.mlp_backward(params, cache, out_grad)

        activation = {
            "relu": lambda pre: np.maximum(pre, 0.0),
            "tanh": np.tanh,
            "sigmoid": _masked_sigmoid,
            "identity": lambda pre: pre,
        }
        derivative = {
            "relu": lambda pre, post: (pre > 0).astype(np.float64),
            "tanh": lambda pre, post: 1.0 - post * post,
            "sigmoid": lambda pre, post: post * (1.0 - post),
            "identity": lambda pre, post: np.ones_like(pre),
        }
        inputs, pres, posts = [], [], []
        h = x
        for layer in params.layers:
            inputs.append(h)
            pres.append(h @ layer.weights + layer.biases)
            h = activation[layer.activation](pres[-1])
            posts.append(h)
        assert [a.tobytes() for a in cache.inputs + [cache.output]] == [
            a.tobytes() for a in inputs + [h]
        ]
        da, want = out_grad, []
        for i in range(len(params.layers) - 1, -1, -1):
            layer = params.layers[i]
            dpre = da * derivative[layer.activation](pres[i], posts[i])
            want = [inputs[i].T @ dpre, dpre.sum(axis=0)] + want
            da = dpre @ layer.weights.T
        assert [a.tobytes() for a in _split(params, grads)] == [a.tobytes() for a in want]
        assert input_grad.tobytes() == da.tobytes()

    def test_cache_holds_only_the_activations(self):
        """The cache of a [4, 64, 64, 1] forward at 1000 rows holds each
        layer's activation once, n * (64 + 64 + 1) float64s, and no
        pre-activations (2.07 MB when it kept both)."""
        params = nn.init_mlp([4, 64, 64, 1], ["relu", "tanh", "sigmoid"], np.random.default_rng(72))
        n = 1000
        x = np.random.default_rng(73).normal(size=(n, 4))
        nn.mlp_forward(params, x)  # first-call allocations are not the cache's
        tracemalloc.start()
        try:
            out, cache = nn.mlp_forward(params, x)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= n * (64 + 64 + 1) * 8 + 4096
        assert cache.inputs[0] is x and cache.output is out

    def test_kernel_input_only_and_params_only_passes_match_the_full_pass(self):
        """The input-gradient-only pass (the generator step's pass through D)
        and the parameter-only pass return None for the part they skip and
        equal the full pass, bit for bit, in the other."""
        rng = np.random.default_rng(71)
        for acts in (["tanh", "tanh", "sigmoid"], ["relu", "sigmoid", "identity"]):
            params = nn.init_mlp([2, 8, 8, 1], acts, rng)
            _, cache = nn.mlp_forward(params, rng.normal(size=(16, 2)))
            out_grad = rng.normal(size=(16, 1))
            grads, input_grad = nn.mlp_backward(params, cache, out_grad)
            skipped, input_only = nn.mlp_backward(params, cache, out_grad, params_grad=False)
            assert skipped is None
            assert input_only.tobytes() == input_grad.tobytes()
            params_only, skipped = nn.mlp_backward(params, cache, out_grad, input_grad=False)
            assert skipped is None
            assert params_only.tobytes() == grads.tobytes()


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = _scalar_param(1.5)
        state = nn.init_adam(params, nn.AdamConfig(lr=0.1))
        grads = np.array([0.0, 0.0])  # [w, b]
        new_params, _ = nn.adam_step(params, grads, state)
        assert new_params.layers[0].weights[0, 0] == 1.5

    def test_first_step_size_equals_learning_rate(self):
        """With constant unit gradient the bias-corrected first step is
        exactly lr / (1 + epsilon)."""
        lr, eps = 1e-3, 1e-8
        params = _scalar_param(0.0)
        state = nn.init_adam(params, nn.AdamConfig(lr=lr, epsilon=eps))
        grads = np.array([1.0, 0.0])  # [w, b]
        new_params, new_state = nn.adam_step(params, grads, state)
        delta = new_params.layers[0].weights[0, 0]
        assert delta == pytest.approx(-lr / (1.0 + eps), rel=1e-12)
        assert new_state.step_count == 1

    def test_descent_minimizes_convex_bowl(self):
        """200 steps on f(w) = w^2 from w = 3 with lr = 0.05 land near zero."""
        params = _scalar_param(3.0)
        state = nn.init_adam(params, nn.AdamConfig(lr=0.05))
        for _ in range(200):
            w = params.layers[0].weights[0, 0]
            grads = np.array([2.0 * w, 0.0])  # [w, b]
            params, state = nn.adam_step(params, grads, state)
        assert abs(params.layers[0].weights[0, 0]) < 0.1

    def test_step_does_not_mutate_inputs(self):
        params = _scalar_param(2.0)
        state = nn.init_adam(params, nn.AdamConfig(lr=0.1))
        grads = np.array([1.0, 1.0])  # [w, b]
        nn.adam_step(params, grads, state)
        assert params.layers[0].weights[0, 0] == 2.0
        assert state.step_count == 0
        np.testing.assert_array_equal(_split(params, state.first_moment)[0], np.zeros((1, 1)))

    def test_non_finite_gradient_rejected_with_layer_index(self):
        rng = np.random.default_rng(30)
        params = nn.init_mlp([2, 3, 1], ["tanh", "identity"], rng)
        state = nn.init_adam(params)
        grads = np.zeros_like(params.flat)
        _split(params, grads)[2][0, 0] = np.nan  # layer 1's weights
        with pytest.raises(nn.NonFiniteError) as err:
            nn.adam_step(params, grads, state)
        assert err.value.layer == 1

    @pytest.mark.parametrize("shape", [(12,), (14,), (13, 1), (1, 13)], ids=["12", "14", "13x1", "1x13"])
    @pytest.mark.parametrize("call", ["adam_step", "grad_check"])
    def test_gradient_of_another_shape_names_both_shapes(self, call, shape):
        """A gradient must be laid out like ``params.flat`` (13 values here)."""
        params = nn.init_mlp([2, 3, 1], ["tanh", "identity"], np.random.default_rng(0))
        grads = np.zeros(shape)
        match = re.escape(f"gradient shape {shape} does not match parameters (13,)")
        with pytest.raises(ValueError, match=match):
            if call == "adam_step":
                nn.adam_step(params, grads, nn.init_adam(params))
            else:
                nn.grad_check(params, lambda p: (0.0, grads))

    def test_state_needs_both_moments(self):
        with pytest.raises(TypeError):
            nn.AdamState(nn.AdamConfig())
        params = nn.init_mlp([2, 3, 1], ["tanh", "identity"], np.random.default_rng(0))
        state = nn.init_adam(params)
        for moment in (state.first_moment, state.second_moment):
            assert type(moment) is np.ndarray and moment.shape == params.flat.shape
        assert not np.shares_memory(state.first_moment, state.second_moment)

    def test_non_finite_update_rejected_with_layer_index(self):
        """Finite gradients whose update overflows are refused, naming the layer."""
        rng = np.random.default_rng(31)
        params = nn.init_mlp([2, 3, 2, 1], ["tanh", "tanh", "identity"], rng)
        state = nn.init_adam(params, nn.AdamConfig(lr=10.0, beta1=0.0))
        grads = np.zeros_like(params.flat)
        _split(params, grads)[5][0] = 1e308  # layer 2's biases
        with np.errstate(all="ignore"), pytest.raises(nn.NonFiniteError) as err:
            nn.adam_step(params, grads, state)
        assert err.value.layer == 2
        assert "layer parameters" in str(err.value)

    def test_whole_vector_step_matches_per_layer_reference(self):
        """Fifty random steps on a 3-layer net, with gradients of random sign
        drawn per layer and as one vector: params and both moments equal the
        per-layer reference bit for bit."""
        rng = np.random.default_rng(50)
        params = nn.init_mlp([3, 7, 5, 2], ["tanh", "relu", "identity"], rng)
        state = nn.init_adam(params, nn.AdamConfig(lr=0.01, beta1=0.5, beta2=0.99, epsilon=1e-7))
        ref = _arrays(params.layers)
        ref_m = [np.zeros_like(a) for a in ref]
        ref_v = [np.zeros_like(a) for a in ref]
        for t in range(1, 51):
            sign = (1.0, -1.0)[int(rng.integers(2))]
            if t % 2:
                grads = np.concatenate([rng.normal(size=a.shape).ravel() for a in _arrays(params.layers)])
            else:
                grads = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=params.flat.size)
            grads = sign * grads
            ref, ref_m, ref_v = _per_layer_adam(ref, _split(params, grads), ref_m, ref_v, t, state)
            params, state = nn.adam_step(params, grads, state)
            assert state.step_count == t
            for got, want in (
                (_arrays(params.layers), ref),
                (_split(params, state.first_moment), ref_m),
                (_split(params, state.second_moment), ref_v),
            ):
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_step_leaves_multi_layer_inputs_untouched(self):
        rng = np.random.default_rng(52)
        params = nn.init_mlp([2, 5, 4, 1], ["tanh", "tanh", "sigmoid"], rng)
        state = nn.init_adam(params, nn.AdamConfig(lr=0.05))
        for _ in range(3):  # non-zero moments
            grads = rng.normal(size=params.flat.size)
            params, state = nn.adam_step(params, grads, state)
        grads = rng.normal(size=params.flat.size)
        before = [a.copy() for a in _arrays(params.layers)]
        before += [v.copy() for v in (state.first_moment, state.second_moment, grads)]
        flat_before = params.flat.copy()
        new_params, new_state = nn.adam_step(params, grads, state)
        after = _arrays(params.layers) + [state.first_moment, state.second_moment, grads]
        assert [x.tobytes() for x in before] == [x.tobytes() for x in after]
        assert params.flat.tobytes() == flat_before.tobytes()
        assert state.step_count == 3 and new_state.step_count == 4
        assert not np.shares_memory(new_params.flat, params.flat)
        for moment in ("first_moment", "second_moment"):
            assert not np.shares_memory(getattr(new_state, moment), getattr(state, moment))

    def test_settings_are_the_one_config_class(self):
        """``training`` and ``nn`` share one ``AdamConfig``, and a state carries it."""
        assert nn.AdamConfig is training.AdamConfig
        params = _scalar_param(0.0)
        config = nn.AdamConfig(lr=0.01, beta1=0.5)
        assert nn.init_adam(params, config).config is config
        assert nn.init_adam(params).config == nn.AdamConfig(lr=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8)


class TestGradCheck:
    def test_linear_model_is_exact(self):
        """A linear scalar model has gradient error at machine-noise level."""
        params = _scalar_param(0.7)
        x = np.array([[1.0]])
        readout = np.array([[2.0]])
        worst = nn.grad_check(params, _readout_loss(x, readout), h=1e-5)
        assert worst <= 1e-9

    def test_tanh_network_passes_at_default_step(self):
        rng = np.random.default_rng(0)
        params = nn.init_mlp([2, 8, 8, 1], ["tanh", "tanh", "identity"], rng)
        x = rng.normal(size=(4, 2))
        worst = nn.grad_check(params, _squared_loss(x), h=1e-5)
        assert worst <= 1e-6

    def test_detects_a_wrong_gradient(self):
        """A deliberately corrupted gradient must produce a large error."""
        rng = np.random.default_rng(4)
        params = nn.init_mlp([2, 4, 1], ["tanh", "identity"], rng)
        x = rng.normal(size=(4, 2))

        def bad_loss(p):
            value, grads = _squared_loss(x)(p)
            _split(p, grads)[0][0, 0] += 1.0
            return value, grads

        worst = nn.grad_check(params, bad_loss, h=1e-5)
        assert worst > 1e-2

    @pytest.mark.parametrize("h", [np.nan, np.inf, 0.0, -1e-5])
    def test_unusable_step_is_refused_before_any_perturbation(self, h):
        params = nn.init_mlp([2, 3, 1], ["tanh", "identity"], np.random.default_rng(5))
        before = params.flat.tobytes()
        x = np.random.default_rng(6).normal(size=(4, 2))
        with pytest.raises(ValueError, match="h must be finite and > 0"):
            nn.grad_check(params, _squared_loss(x), h=h)
        assert params.flat.tobytes() == before

    def test_params_are_restored_when_the_loss_raises(self):
        """A loss that fails mid-check leaves every parameter as it was."""
        params = nn.init_mlp([2, 3, 1], ["tanh", "identity"], np.random.default_rng(7))
        before = params.flat.tobytes()
        x = np.random.default_rng(8).normal(size=(4, 2))
        calls = []

        def failing_loss(p):
            calls.append(None)
            if len(calls) == 5:  # the second entry's plus side
                raise RuntimeError("loss failed")
            return _squared_loss(x)(p)

        with pytest.raises(RuntimeError, match="loss failed"):
            nn.grad_check(params, failing_loss, h=1e-5)
        assert params.flat.tobytes() == before


class TestInit:
    def test_glorot_bounds_and_zero_biases(self):
        rng = np.random.default_rng(17)
        params = nn.init_mlp([10, 20, 5], ["tanh", "identity"], rng)
        for layer in params.layers:
            fan_in, fan_out = layer.weights.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(layer.weights) <= bound)
            np.testing.assert_array_equal(layer.biases, np.zeros(fan_out))

    def test_same_seed_same_network(self):
        a = nn.init_mlp([3, 5, 2], ["tanh", "identity"], np.random.default_rng(99))
        b = nn.init_mlp([3, 5, 2], ["tanh", "identity"], np.random.default_rng(99))
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_sizes_and_activations_must_agree(self):
        with pytest.raises(ValueError):
            nn.init_mlp([3, 5, 2], ["tanh"], np.random.default_rng(0))

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: nn.init_mlp([2, 0, 1], ["tanh", "identity"], np.random.default_rng(0)),
             r"widths must be >= 1, got \[2, 0, 1\]"),
            (lambda: nn.init_mlp([2, -3, 1], ["tanh", "identity"], np.random.default_rng(0)),
             r"widths must be >= 1, got \[2, -3, 1\]"),
            (lambda: nn.Layer(np.zeros((2, 0)), np.zeros(0), "tanh"),
             r"weights must not be empty, got shape \(2, 0\)"),
        ],
        ids=["init_mlp-zero", "init_mlp-negative", "Layer-empty"],
    )
    def test_width_below_one_is_refused(self, build, message):
        """A zero-width layer would make the output ignore the input; a negative
        width is refused before its bound takes the square root of a negative."""
        with pytest.raises(ValueError, match=message):
            build()


class TestCheckpoint:
    def test_roundtrip_preserves_params_exactly(self, tmp_path):
        rng = np.random.default_rng(123)
        params = nn.init_mlp([4, 7, 3], ["relu", "sigmoid"], rng)
        manifest = tmp_path / "net.json"
        nn.save_checkpoint(params, manifest)

        loaded = nn.load_checkpoint(manifest)
        assert len(loaded.layers) == len(params.layers)
        for lo, la in zip(loaded.layers, params.layers):
            assert lo.activation == la.activation
            np.testing.assert_array_equal(lo.weights, la.weights)
            np.testing.assert_array_equal(lo.biases, la.biases)

    def test_manifest_is_readable_json_with_format_tag(self, tmp_path):
        params = _scalar_param(1.0)
        manifest = tmp_path / "net.json"
        nn.save_checkpoint(params, manifest)
        meta = json.loads(manifest.read_text())
        assert meta["format"] == nn.CHECKPOINT_FORMAT
        assert (tmp_path / meta["weights_file"]).exists()

    def test_wrong_format_tag_rejected(self, tmp_path):
        params = _scalar_param(1.0)
        manifest = tmp_path / "net.json"
        nn.save_checkpoint(params, manifest)
        meta = json.loads(manifest.read_text())
        meta["format"] = "something-else"
        manifest.write_text(json.dumps(meta))
        with pytest.raises(ValueError):
            nn.load_checkpoint(manifest)

    def test_truncated_binary_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        params = nn.init_mlp([3, 3], ["tanh"], rng)
        manifest = tmp_path / "net.json"
        nn.save_checkpoint(params, manifest)
        meta = json.loads(manifest.read_text())
        bin_path = tmp_path / meta["weights_file"]
        bin_path.write_bytes(bin_path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            nn.load_checkpoint(manifest)


    def test_manifest_layout_is_unchanged(self, tmp_path):
        params = nn.init_mlp([2, 3, 1], ["tanh", "identity"], np.random.default_rng(8))
        manifest = nn.save_checkpoint(params, tmp_path / "net.json")
        expected = {
            "format": nn.CHECKPOINT_FORMAT,
            "dtype": "<f8",
            "weights_file": "net.bin",
            "layers": [
                {"fan_in": 2, "fan_out": 3, "activation": "tanh"},
                {"fan_in": 3, "fan_out": 1, "activation": "identity"},
            ],
        }
        assert manifest.read_text() == json.dumps(expected, indent=2) + "\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m["layers"][0].update(fan_in=2.7), r"layers\[0\]\.fan_in must be a whole number, got 2\.7$"),
            (lambda m: m["layers"][0].update(fan_in="2"), r"layers\[0\]\.fan_in must be a whole number, got '2'$"),
            (lambda m: m["layers"][1].update(fan_out=0), r"layers\[1\]\.fan_out must be >= 1, got 0$"),
            (lambda m: m.update(dtype=">f4"), r"dtype must be '<f8', got '>f4'$"),
            (lambda m: m.pop("weights_file"), r"weights_file is required$"),
            (lambda m: m.update(weights_file="../net.bin"), r"weights_file must be a bare file name, got '\.\./net\.bin'$"),
            (lambda m: m.update(weights_file=".."), r"weights_file must be a bare file name, got '\.\.'$"),
            (lambda m: m.update(weights_file="/tmp/net.bin"), r"weights_file must be a bare file name, got '/tmp/net\.bin'$"),
            (
                lambda m: m["layers"][1].update(activation="softmax"),
                r"layers\[1\]\.activation must be one of relu, tanh, sigmoid, identity, got 'softmax'$",
            ),
            (  # 1·3 + 3 + 6·1 + 1 = 13 floats, the blob's 2·3 + 3 + 3·1 + 1
                lambda m: m["layers"][0].update(fan_in=1) or m["layers"][1].update(fan_in=6),
                r"layers\[1\]\.fan_in 6 differs from layers\[0\]\.fan_out 3$",
            ),
            (lambda m: m.update(layers=[]), r"layers must not be empty$"),
        ],
        ids=["fractional-fan-in", "string-fan-in", "zero-fan-out", "dtype", "no-weights-file",
             "parent-dir", "dot-dot", "absolute", "unknown-activation", "unchained-widths", "no-layers"],
    )
    def test_bad_manifest_is_refused_naming_the_key(self, tmp_path, edit, message):
        params = nn.init_mlp([2, 3, 1], ["tanh", "identity"], np.random.default_rng(9))
        manifest = nn.save_checkpoint(params, tmp_path / "net.json")
        meta = json.loads(manifest.read_text())
        edit(meta)
        manifest.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"^{re.escape(str(manifest))}: {message}"):
            nn.load_checkpoint(manifest)

    def test_non_finite_blob_is_refused_naming_the_blob_and_layer(self, tmp_path):
        params = nn.init_mlp([2, 3, 1], ["tanh", "identity"], np.random.default_rng(9))
        manifest = nn.save_checkpoint(params, tmp_path / "net.json")
        blob = bytearray((tmp_path / "net.bin").read_bytes())
        blob[8 * 9 : 8 * 10] = struct.pack("<d", float("nan"))  # layer 1's first weight
        (tmp_path / "net.bin").write_bytes(bytes(blob))
        blob_name = re.escape(str(tmp_path / "net.bin"))
        with pytest.raises(nn.NonFiniteError, match=f"^non-finite values in {blob_name} in layer 1$") as err:
            nn.load_checkpoint(manifest)
        assert err.value.layer == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"{bad", r"Expecting property name"),
            (b"\xff{}", r"'utf-8' codec can't decode byte 0xff"),
            (b'{"format": "other"}', r"unrecognized checkpoint format$"),
        ],
        ids=["not-json", "not-utf8", "format-tag"],
    )
    def test_unreadable_manifest_is_refused_naming_it(self, tmp_path, text, message):
        manifest = tmp_path / "net.json"
        manifest.write_bytes(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(manifest))}: {message}"):
            nn.load_checkpoint(manifest)


class TestFlatLayout:
    def test_layer_arrays_are_views_of_one_vector(self):
        rng = np.random.default_rng(60)
        params = nn.init_mlp([3, 4, 2], ["tanh", "identity"], rng)
        assert params.flat.shape == (3 * 4 + 4 + 4 * 2 + 2,)
        for a in _arrays(params.layers):
            assert a.base is params.flat
        x = rng.normal(size=(5, 3))
        _, cache = nn.mlp_forward(params, x)
        grads, _ = nn.mlp_backward(params, cache, np.ones((5, 2)))
        assert type(grads) is np.ndarray and grads.dtype == np.float64
        assert grads.shape == params.flat.shape

    def test_in_place_edits_reach_forward_adam_and_checkpoint(self, tmp_path):
        rng = np.random.default_rng(61)
        params = nn.init_mlp([3, 4, 2], ["tanh", "identity"], rng)
        params.layers[0].biases += 0.25
        params.layers[1].weights[2, 1] = 3.0
        w0, b0, w1, b1 = (a.copy() for a in _arrays(params.layers))
        np.testing.assert_array_equal(b0, np.full(4, 0.25))
        assert w1[2, 1] == 3.0

        x = rng.normal(size=(6, 3))
        np.testing.assert_array_equal(nn.mlp_forward(params, x)[0], np.tanh(x @ w0 + b0) @ w1 + b1)

        # a zero gradient leaves Adam's output equal to its input
        stepped, _ = nn.adam_step(params, np.zeros_like(params.flat), nn.init_adam(params))
        assert [a.tobytes() for a in _arrays(stepped.layers)] == [
            a.tobytes() for a in (w0, b0, w1, b1)
        ]

        nn.save_checkpoint(params, tmp_path / "net.json")
        loaded = nn.load_checkpoint(tmp_path / "net.json")
        assert [a.tobytes() for a in _arrays(loaded.layers)] == [
            a.tobytes() for a in (w0, b0, w1, b1)
        ]

    def test_checkpoint_blob_is_the_per_layer_concatenation(self, tmp_path):
        """The blob is W0, b0, W1, b1, ... row-major little-endian float64,
        packed here value by value from the arrays the network was built from."""
        rng = np.random.default_rng(62)
        shapes = [(3, 5), (5, 4), (4, 2)]
        built = [(rng.normal(size=s), rng.normal(size=s[1])) for s in shapes]
        params = nn.MlpParams([nn.Layer(w, b, "tanh") for w, b in built])
        nn.save_checkpoint(params, tmp_path / "net.json")
        values = [float(v) for w, b in built for v in (*w.flatten().tolist(), *b.tolist())]
        expected = struct.pack(f"<{len(values)}d", *values)
        assert (tmp_path / "net.bin").read_bytes() == expected

    def test_load_checkpoint_keeps_the_finite_check(self, tmp_path):
        params = nn.init_mlp([2, 3, 1], ["tanh", "identity"], np.random.default_rng(63))
        nn.save_checkpoint(params, tmp_path / "net.json")
        blob = bytearray((tmp_path / "net.bin").read_bytes())
        blob[-8:] = struct.pack("<d", float("nan"))
        (tmp_path / "net.bin").write_bytes(bytes(blob))
        with pytest.raises(nn.NonFiniteError):
            nn.load_checkpoint(tmp_path / "net.json")

    def test_external_construction_keeps_its_checks(self):
        with pytest.raises(nn.NonFiniteError):
            nn.Layer(np.array([[np.inf]]), np.zeros(1), "identity")
        with pytest.raises(ValueError):
            nn.Layer(np.zeros((2, 3)), np.zeros(2), "identity")
        with pytest.raises(ValueError):
            nn.MlpParams(layers=[])
