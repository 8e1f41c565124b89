"""Dense network core: MLP forward/backward, Adam, gradient checking, checkpoints.

Everything is float64 and pure: functions take parameter containers and return
new ones, so callers own all state. Batches are 2-D numpy arrays with one
sample per row. Each network, its gradients and its Adam moments are held as
one contiguous vector laid out W0, b0, W1, b1, ... row-major (the checkpoint
blob's layout); the per-layer arrays are views into it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

ACTIVATIONS = ("relu", "tanh", "sigmoid", "identity")

# Sigmoid outputs and log arguments are kept at least this far from {0, 1} so
# the adversarial losses stay finite even when the discriminator saturates.
LOG_EPS = 1e-12


class ShapeMismatchError(ValueError):
    """Input/gradient shape does not match the layer that consumes it."""

    def __init__(self, layer: int, expected, actual):
        self.layer = layer
        self.expected = tuple(expected)
        self.actual = tuple(actual)
        super().__init__(f"layer {layer}: expected shape {self.expected}, got {self.actual}")


class NonFiniteError(ValueError):
    """A NaN or infinity showed up where only finite values are allowed."""

    def __init__(self, what: str, layer: int | None = None):
        self.layer = layer
        where = f" in layer {layer}" if layer is not None else ""
        super().__init__(f"non-finite values in {what}{where}")


def _as_f64(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64)


def as_batch(x, dim: int | None = None) -> np.ndarray:
    """Validate a sample batch: 2-D, float64, finite, optionally fixed width."""
    x = _as_f64(x)
    if x.ndim != 2:
        raise ValueError(f"batch must be 2-D [n, d], got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("batch")
    if dim is not None and x.shape[1] != dim:
        raise ShapeMismatchError(0, (x.shape[0], dim), x.shape)
    return x


@dataclass
class Layer:
    """One dense layer: ``act(x @ weights + biases)``."""

    weights: np.ndarray  # [fan_in, fan_out]
    biases: np.ndarray   # [fan_out]
    activation: str

    def __post_init__(self):
        self.weights = _as_f64(self.weights)
        self.biases = _as_f64(self.biases)
        if self.weights.ndim != 2 or self.biases.ndim != 1:
            raise ValueError("weights must be 2-D and biases 1-D")
        if self.biases.shape[0] != self.weights.shape[1]:
            raise ValueError(
                f"bias length {self.biases.shape[0]} != fan_out {self.weights.shape[1]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.biases))):
            raise NonFiniteError("layer parameters")

    @property
    def fan_in(self) -> int:
        return self.weights.shape[0]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[1]


def _unchecked(cls, **attrs):
    """An instance of dataclass ``cls`` from parts already validated, skipping its checks."""
    obj = object.__new__(cls)
    obj.__dict__.update(attrs)
    return obj


def _split(flat: np.ndarray, shapes) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weights, biases) views of ``flat`` in W0, b0, W1, b1, ... order, one
    pair per ``(fan_in, fan_out)`` in ``shapes``."""
    views, start = [], 0
    for fan_in, fan_out in shapes:
        mid = start + fan_in * fan_out
        views.append((flat[start:mid].reshape(fan_in, fan_out), flat[mid : mid + fan_out]))
        start = mid + fan_out
    return views


@dataclass
class MlpParams:
    """A stack of dense layers with chained dimensions, held in one vector.

    ``flat`` holds every parameter; each layer's ``weights`` and ``biases``
    are views into it, so edit them in place (``layer.biases += 0.25``) and
    never rebind them.
    """

    layers: list[Layer]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for i, (a, b) in enumerate(zip(self.layers, self.layers[1:]), start=1):
            if a.fan_out != b.fan_in:
                raise ShapeMismatchError(i, (a.fan_out, b.fan_out), b.weights.shape)
        self.flat = np.concatenate([a.ravel() for l in self.layers for a in (l.weights, l.biases)])
        for layer, (w, b) in zip(self.layers, _split(self.flat, _shapes(self))):
            layer.weights, layer.biases = w, b

    @property
    def input_dim(self) -> int:
        return self.layers[0].fan_in

    @property
    def output_dim(self) -> int:
        return self.layers[-1].fan_out

    def copy(self) -> "MlpParams":
        return _wrap(self, self.flat.copy())


def _shapes(params: MlpParams) -> list[tuple[int, int]]:
    return [l.weights.shape for l in params.layers]


def _wrap(like: MlpParams, flat: np.ndarray) -> MlpParams:
    """Params shaped like ``like`` over the vector ``flat``, which becomes theirs."""
    layers = [
        _unchecked(Layer, weights=w, biases=b, activation=l.activation)
        for l, (w, b) in zip(like.layers, _split(flat, _shapes(like)))
    ]
    return _unchecked(MlpParams, layers=layers, flat=flat)


@dataclass
class LayerGrads:
    """Per-layer arrays shaped like (weights, biases); also used for Adam moments."""

    weights: np.ndarray
    biases: np.ndarray


class FlatGrads(list):
    """A list of :class:`LayerGrads` that are views into one vector ``flat``,
    laid out like ``MlpParams.flat``; edit them in place, never rebind them."""

    def __init__(self, like: MlpParams, flat: np.ndarray):
        super().__init__(LayerGrads(w, b) for w, b in _split(flat, _shapes(like)))
        self.flat = flat


def _as_vector(grads: list[LayerGrads]) -> np.ndarray:
    """``grads`` as one vector laid out like ``MlpParams.flat``."""
    if isinstance(grads, FlatGrads):
        return grads.flat
    return np.concatenate([a.ravel() for g in grads for a in (g.weights, g.biases)], dtype=np.float64)


def _first_non_finite_layer(params: MlpParams, vec: np.ndarray) -> int:
    ends = np.cumsum([l.weights.size + l.biases.size for l in params.layers])
    return int(np.searchsorted(ends, np.argmin(np.isfinite(vec)), side="right"))


@dataclass
class ForwardCache:
    """Intermediate values from :func:`mlp_forward`, consumed by :func:`mlp_backward`."""

    inputs: list[np.ndarray]  # input to each layer
    pres: list[np.ndarray]    # pre-activation of each layer
    posts: list[np.ndarray]   # post-activation of each layer


def init_mlp(sizes: Sequence[int], activations: Sequence[str], rng: np.random.Generator) -> MlpParams:
    """Build an MLP with the given layer widths.

    Weights are uniform in +/- sqrt(6 / (fan_in + fan_out)); biases start at zero.
    ``sizes`` has one more entry than ``activations``.
    """
    if len(sizes) < 2 or len(activations) != len(sizes) - 1:
        raise ValueError("need len(sizes) >= 2 and one activation per layer")
    layers = []
    for fan_in, fan_out, act in zip(sizes[:-1], sizes[1:], activations):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        layers.append(Layer(w, np.zeros(fan_out), act))
    return MlpParams(layers)


def _sigmoid(pre: np.ndarray) -> np.ndarray:
    ex = np.exp(-np.abs(pre))  # in (0, 1]: neither branch can overflow
    out = np.where(pre >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
    # keep strictly inside (0, 1); saturation would make log-losses infinite
    return np.clip(out, LOG_EPS, 1.0 - LOG_EPS)


def _activate(name: str, pre: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(pre, 0.0)
    if name == "tanh":
        return np.tanh(pre)
    if name == "sigmoid":
        return _sigmoid(pre)
    return pre  # identity


def _activation_grad(name: str, pre: np.ndarray, post: np.ndarray) -> np.ndarray:
    if name == "relu":
        # derivative at exactly 0 is defined as 0
        return (pre > 0).astype(np.float64)
    if name == "tanh":
        return 1.0 - post * post
    if name == "sigmoid":
        return post * (1.0 - post)
    return np.ones_like(pre)


def mlp_forward(params: MlpParams, x) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on a batch; returns (output [n, d_out], cache for backward)."""
    h = as_batch(x)
    inputs, pres, posts = [], [], []
    for i, layer in enumerate(params.layers):
        if h.shape[1] != layer.fan_in:
            raise ShapeMismatchError(i, (h.shape[0], layer.fan_in), h.shape)
        inputs.append(h)
        pres.append(h @ layer.weights + layer.biases)
        h = _activate(layer.activation, pres[-1])
        posts.append(h)
    if not np.all(np.isfinite(h)):
        raise NonFiniteError("forward output", layer=len(params.layers) - 1)
    return h, ForwardCache(inputs, pres, posts)


def mlp_backward(
    params: MlpParams, cache: ForwardCache, output_grad: np.ndarray
) -> tuple[FlatGrads, np.ndarray]:
    """Reverse-mode pass: exact derivatives of the forward map.

    ``output_grad`` is d(loss)/d(output); returns the parameter gradients (as
    :class:`FlatGrads`) and the gradient with respect to the batch input.
    """
    output_grad = _as_f64(output_grad)
    last = len(params.layers) - 1
    if output_grad.shape != cache.posts[last].shape:
        raise ShapeMismatchError(last, cache.posts[last].shape, output_grad.shape)
    grads = FlatGrads(params, np.empty_like(params.flat))
    da = output_grad
    for i in range(last, -1, -1):
        layer, g = params.layers[i], grads[i]
        dpre = da * _activation_grad(layer.activation, cache.pres[i], cache.posts[i])
        np.matmul(cache.inputs[i].T, dpre, out=g.weights)
        dpre.sum(axis=0, out=g.biases)
        da = dpre @ layer.weights.T
    return grads, da


def zero_grads(params: MlpParams) -> FlatGrads:
    return FlatGrads(params, np.zeros_like(params.flat))


def add_grads(total: list[LayerGrads], extra: list[LayerGrads]) -> list[LayerGrads]:
    """Accumulate ``extra`` into ``total`` in place and return it."""
    for t, e in zip(total, extra):
        t.weights += e.weights
        t.biases += e.biases
    return total


@dataclass
class AdamState:
    """Bias-corrected Adam moments for one network, each a :class:`FlatGrads`."""

    lr: float
    beta1: float
    beta2: float
    epsilon: float
    step_count: int = 0
    first_moment: list[LayerGrads] = field(default_factory=list)
    second_moment: list[LayerGrads] = field(default_factory=list)


def init_adam(
    params: MlpParams,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> AdamState:
    m, v = (FlatGrads(params, np.zeros_like(params.flat)) for _ in range(2))
    return AdamState(lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon, first_moment=m, second_moment=v)


def adam_step(
    params: MlpParams,
    grads: list[LayerGrads],
    state: AdamState,
    direction: str = "descend",
) -> tuple[MlpParams, AdamState]:
    """One bias-corrected Adam update with the requested sign.

    ``direction="ascend"`` moves parameters up the gradient (discriminator),
    ``"descend"`` moves them down (generator). Returns fresh params and state.
    """
    if direction not in ("ascend", "descend"):
        raise ValueError(f"direction must be 'ascend' or 'descend', got {direction!r}")
    if len(grads) != len(params.layers):
        raise ValueError("gradient list length does not match layer count")
    for i, (layer, g) in enumerate(zip(params.layers, grads)):
        for have, want in ((g.weights, layer.weights), (g.biases, layer.biases)):
            if have.shape != want.shape:
                raise ShapeMismatchError(i, want.shape, have.shape)
    g = _as_vector(grads)
    if not np.isfinite(g).all():
        raise NonFiniteError("gradients", layer=_first_non_finite_layer(params, g))
    t = state.step_count + 1
    m = state.beta1 * _as_vector(state.first_moment) + (1.0 - state.beta1) * g
    v = state.beta2 * _as_vector(state.second_moment) + (1.0 - state.beta2) * g * g
    step = state.lr * (m / (1.0 - state.beta1**t)) / (
        np.sqrt(v / (1.0 - state.beta2**t)) + state.epsilon
    )
    flat = params.flat + step if direction == "ascend" else params.flat - step
    if not np.isfinite(flat).all():
        raise NonFiniteError("layer parameters", layer=_first_non_finite_layer(params, flat))
    new_state = replace(
        state, step_count=t, first_moment=FlatGrads(params, m), second_moment=FlatGrads(params, v)
    )
    return _wrap(params, flat), new_state


LossFn = Callable[[MlpParams], tuple[float, list[LayerGrads]]]


def grad_check(params: MlpParams, loss: LossFn, h: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    ``loss`` maps params to ``(scalar value, per-layer analytic grads)``; only
    the value is used for the numeric side. Returns the worst relative error
    ``|analytic - numeric| / max(1e-12, |analytic| + |numeric|)`` over all
    parameters. Params are perturbed in place and restored before returning.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    _, analytic = loss(params)
    g = _as_vector(analytic)
    flat = params.flat
    worst = 0.0
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        plus, _ = loss(params)
        flat[j] = orig - h
        minus, _ = loss(params)
        flat[j] = orig
        numeric = (plus - minus) / (2.0 * h)
        denom = max(1e-12, abs(g[j]) + abs(numeric))
        worst = max(worst, float(abs(g[j] - numeric) / denom))
    return worst


# --- checkpoint I/O ---------------------------------------------------------
#
# A checkpoint is a small JSON manifest (layer sizes and activations) next to
# a binary blob of ``MlpParams.flat``: weights then biases, layer by layer,
# row-major, little-endian float64.

CHECKPOINT_FORMAT = "tvgan-mlp-v1"


def save_checkpoint(params: MlpParams, manifest_path) -> Path:
    manifest_path = Path(manifest_path)
    blob_path = manifest_path.with_suffix(".bin")
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "dtype": "<f8",
        "weights_file": blob_path.name,
        "layers": [
            {"fan_in": l.fan_in, "fan_out": l.fan_out, "activation": l.activation}
            for l in params.layers
        ],
    }
    blob_path.write_bytes(params.flat.astype("<f8", copy=False).tobytes())
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


def load_checkpoint(manifest_path) -> MlpParams:
    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unrecognized checkpoint format in {manifest_path}")
    blob = (manifest_path.parent / manifest["weights_file"]).read_bytes()
    specs = manifest["layers"]
    shapes = [(int(s["fan_in"]), int(s["fan_out"])) for s in specs]
    size = 8 * sum(fan_in * fan_out + fan_out for fan_in, fan_out in shapes)
    if size != len(blob):
        raise ValueError(f"checkpoint blob has {len(blob)} bytes, manifest accounts for {size}")
    flat = np.frombuffer(blob, dtype="<f8")
    return MlpParams([Layer(w, b, s["activation"]) for (w, b), s in zip(_split(flat, shapes), specs)])
