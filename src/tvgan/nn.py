"""Dense network core: MLP forward/backward, Adam, gradient checking, checkpoints.

Everything is float64 and the public functions are pure: they take parameter
containers and return new ones, so callers own all state. Batches are 2-D
numpy arrays with one sample per row. A network is one vector laid out W0,
b0, W1, b1, ... row-major (the checkpoint blob's layout), its layers' arrays
are views into it at offsets computed once (``_Layout``), and its gradients
and Adam moments are plain vectors of the same layout.

The backward pass is ``mlp_backward``: it writes the parameter gradients
into one new vector and builds no per-layer containers. Its two keywords,
``params_grad`` and ``input_grad``, skip the part of the pass a caller
discards: ``training``'s generator objective takes only the input gradient
through D and only the parameter gradients of G, and the discriminator
objective skips every input gradient. ``adam_step`` copies the parameter
vector and both moments once and updates the copies in place; it is the
only Adam update, so each training step's one copy happens there.

``mlp_apply`` is the forward without a backward cache. It runs a batch of
more than ``APPLY_BLOCK_ROWS`` rows in row blocks, so its hidden activations
stay a few MB whatever the batch size; each block's output is
``mlp_forward``'s on that block bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .distributions import from_json, to_json

ACTIVATIONS = ("relu", "tanh", "sigmoid", "identity")

# Sigmoid outputs and log arguments are kept at least this far from {0, 1} so
# the adversarial losses stay finite even when the discriminator saturates.
LOG_EPS = 1e-12

# ``mlp_apply`` runs larger batches in row blocks of at most this many rows,
# so an eval's hidden activations stay a few MB whatever ``eval_samples`` is.
APPLY_BLOCK_ROWS = 4096


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
    if not np.isfinite(x).all():
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


class _Layout:
    """Where each layer's weights and biases lie in a network's flat vector.

    Computed once when a network is built and shared by all its copies, so
    no kernel recomputes offsets or shapes.
    """

    __slots__ = ("shapes", "bounds", "ends")

    def __init__(self, shapes):
        self.shapes = [(int(fan_in), int(fan_out)) for fan_in, fan_out in shapes]
        self.bounds, start = [], 0  # (weights start, biases start, biases end) per layer
        for fan_in, fan_out in self.shapes:
            mid = start + fan_in * fan_out
            self.bounds.append((start, mid, mid + fan_out))
            start = mid + fan_out
        self.ends = np.array([end for _, _, end in self.bounds])

    def views(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """(weights, biases) views of ``flat``, one pair per layer."""
        return [
            (flat[start:mid].reshape(shape), flat[mid:end])
            for (start, mid, end), shape in zip(self.bounds, self.shapes)
        ]

    def first_non_finite_layer(self, vec: np.ndarray) -> int:
        return int(np.searchsorted(self.ends, np.argmin(np.isfinite(vec)), side="right"))


@dataclass
class MlpParams:
    """A stack of dense layers with chained dimensions, held in one vector.

    ``flat`` holds every parameter; each layer's ``weights`` and ``biases``
    are views into it, so edit them in place (``layer.biases += 0.25``) and
    never rebind them or change the list of layers.
    """

    layers: list[Layer]
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    _layout: _Layout = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for i, (a, b) in enumerate(zip(self.layers, self.layers[1:]), start=1):
            if a.fan_out != b.fan_in:
                raise ShapeMismatchError(i, (a.fan_out, b.fan_out), b.weights.shape)
        self._layout = _Layout(l.weights.shape for l in self.layers)
        self.flat = np.concatenate([a.ravel() for l in self.layers for a in (l.weights, l.biases)])
        for layer, (w, b) in zip(self.layers, self._layout.views(self.flat)):
            layer.weights, layer.biases = w, b

    def copy(self) -> "MlpParams":
        return _wrap(self, self.flat.copy())


def _wrap(like: MlpParams, flat: np.ndarray) -> MlpParams:
    """Params shaped like ``like`` over the vector ``flat``, which becomes theirs."""
    layers = [
        _unchecked(Layer, weights=w, biases=b, activation=l.activation)
        for l, (w, b) in zip(like.layers, like._layout.views(flat))
    ]
    return _unchecked(MlpParams, layers=layers, flat=flat, _layout=like._layout)


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
    ex = np.abs(pre)
    np.negative(ex, out=ex)
    np.exp(ex, out=ex)  # in (0, 1]: neither branch can overflow
    den = ex + 1.0
    out = np.divide(ex, den)
    np.divide(1.0, den, out=out, where=pre >= 0)
    # keep strictly inside (0, 1); saturation would make log-losses infinite
    # (np.clip's two ufuncs, in place)
    np.maximum(out, LOG_EPS, out=out)
    return np.minimum(out, 1.0 - LOG_EPS, out=out)


def _activate(name: str, pre: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The activation at ``pre``; relu and tanh write into ``out`` when given."""
    if name == "relu":
        return np.maximum(pre, 0.0, out=out)
    if name == "tanh":
        return np.tanh(pre, out=out)
    if name == "sigmoid":
        return _sigmoid(pre)
    return pre  # identity


def _pre_grad(name: str, da: np.ndarray, pre: np.ndarray, post: np.ndarray) -> np.ndarray:
    """d(loss)/d(pre-activation): ``da`` times the activation's derivative at
    ``pre`` (``post`` is its value there). A new array, or ``da`` itself for
    the identity. The products are formed in place with their operands
    swapped, which IEEE multiplication rounds the same."""
    if name == "relu":
        return da * (pre > 0)  # derivative at exactly 0 is defined as 0
    if name == "tanh":
        grad = post * post
        np.subtract(1.0, grad, out=grad)
    elif name == "sigmoid":
        grad = 1.0 - post
        grad *= post
    else:
        return da
    grad *= da
    return grad


def mlp_forward(params: MlpParams, x) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on a batch; returns (output [n, d_out], cache for backward)."""
    h = as_batch(x)
    inputs, pres, posts = [], [], []
    for i, layer in enumerate(params.layers):
        if h.shape[1] != layer.fan_in:
            raise ShapeMismatchError(i, (h.shape[0], layer.fan_in), h.shape)
        inputs.append(h)
        pre = h @ layer.weights
        pre += layer.biases
        pres.append(pre)
        h = _activate(layer.activation, pre)
        posts.append(h)
    if not np.isfinite(h).all():
        raise NonFiniteError("forward output", layer=len(params.layers) - 1)
    return h, ForwardCache(inputs, pres, posts)


def mlp_apply(params: MlpParams, x) -> np.ndarray:
    """The network's output on a batch, with no backward cache.

    Up to ``APPLY_BLOCK_ROWS`` rows this is ``mlp_forward(params, x)[0]`` bit
    for bit. A larger batch runs in ceil(n / APPLY_BLOCK_ROWS) blocks of
    near-equal size, each ``mlp_forward`` of that block bit for bit, written
    into one output array; since BLAS may round a product differently at
    another row count, that can differ from the whole-batch forward in the
    last bits. Each layer's activation runs in place on that layer's fresh
    product (sigmoid builds its own), so hidden activations take at most two
    blocks of a layer's width whatever the batch size. Errors are those of
    ``mlp_forward`` on the whole batch.
    """
    h = as_batch(x)
    n, width = h.shape
    for i, layer in enumerate(params.layers):
        if width != layer.fan_in:
            raise ShapeMismatchError(i, (n, layer.fan_in), (n, width))
        width = layer.fan_out
    if n <= APPLY_BLOCK_ROWS:
        out = _apply_block(params, h)
    else:
        out = np.empty((n, width))
        blocks = -(-n // APPLY_BLOCK_ROWS)
        for src, dst in zip(np.array_split(h, blocks), np.array_split(out, blocks)):
            dst[...] = _apply_block(params, src)
    if not np.isfinite(out).all():
        raise NonFiniteError("forward output", layer=len(params.layers) - 1)
    return out


def _apply_block(params: MlpParams, h: np.ndarray) -> np.ndarray:
    """``mlp_apply``'s layer loop on rows already checked against every layer."""
    for layer in params.layers:
        h = h @ layer.weights
        h += layer.biases
        h = _activate(layer.activation, h, out=h)
    return h


def mlp_backward(
    params: MlpParams,
    cache: ForwardCache,
    output_grad,
    *,
    params_grad: bool = True,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Reverse-mode pass: exact derivatives of the forward map.

    ``output_grad`` is d(loss)/d(output); returns the parameter gradients, a
    new vector laid out like ``params.flat``, and the gradient with respect to
    the batch input. ``params_grad=False`` skips each layer's weight product
    and bias sum, ``input_grad=False`` the first layer's input product; a
    skipped part is returned as None.
    """
    output_grad = _as_f64(output_grad)
    last = len(params.layers) - 1
    if output_grad.shape != cache.posts[last].shape:
        raise ShapeMismatchError(last, cache.posts[last].shape, output_grad.shape)
    layout = params._layout
    grads = np.empty_like(params.flat) if params_grad else None
    da = output_grad
    for i in range(last, -1, -1):
        layer = params.layers[i]
        dpre = _pre_grad(layer.activation, da, cache.pres[i], cache.posts[i])
        if grads is not None:
            start, mid, end = layout.bounds[i]
            np.matmul(cache.inputs[i].T, dpre, out=grads[start:mid].reshape(layout.shapes[i]))
            np.add.reduce(dpre, axis=0, out=grads[mid:end])
        da = dpre @ layer.weights.T if i or input_grad else None
    return grads, da


# Training uses neither. Both stay because the benchmark tracer looks them up by name
# (perfbench/tracing.py::TRACED), and Tracer.install raises AttributeError for a missing one.
def zero_grads(params: MlpParams) -> np.ndarray:
    return np.zeros_like(params.flat)


def add_grads(total: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """Accumulate ``extra`` into ``total`` in place and return it."""
    total += extra
    return total


@dataclass
class AdamState:
    """Bias-corrected Adam moments for one network, vectors laid out like ``MlpParams.flat``."""

    lr: float
    beta1: float
    beta2: float
    epsilon: float
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0


def init_adam(
    params: MlpParams,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> AdamState:
    m, v = np.zeros_like(params.flat), np.zeros_like(params.flat)
    return AdamState(lr, beta1, beta2, epsilon, first_moment=m, second_moment=v)


def _as_grad(params: MlpParams, grads) -> np.ndarray:
    """``grads`` as a float64 vector, checked to be laid out like ``params.flat``."""
    g = _as_f64(grads)
    if g.shape != params.flat.shape:
        raise ValueError(f"gradient shape {g.shape} does not match parameters {params.flat.shape}")
    return g


def adam_step(
    params: MlpParams,
    grads: np.ndarray,
    state: AdamState,
    direction: str = "descend",
) -> tuple[MlpParams, AdamState]:
    """One bias-corrected Adam update with the requested sign.

    ``grads`` is a vector laid out like ``params.flat``. ``direction="ascend"``
    moves parameters up the gradient (discriminator), ``"descend"`` moves them
    down (generator). Returns fresh params and state and leaves its inputs
    untouched: the parameter vector and both moments are copied once, and the
    update runs on the copies in place.
    """
    g = _as_grad(params, grads)
    if direction not in ("ascend", "descend"):
        raise ValueError(f"direction must be 'ascend' or 'descend', got {direction!r}")
    if not np.isfinite(g).all():
        raise NonFiniteError("gradients", layer=params._layout.first_non_finite_layer(g))
    t = state.step_count + 1
    m, v = state.first_moment.copy(), state.second_moment.copy()
    params, state = params.copy(), replace(state, first_moment=m, second_moment=v, step_count=t)
    flat = params.flat
    # The operations of
    #   m = beta1 * m + (1 - beta1) * g,   v = beta2 * v + (1 - beta2) * g * g,
    #   step = lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + epsilon),
    # one by one and in that order; the in-place products swap their operands,
    # which IEEE multiplication rounds the same.
    m *= state.beta1
    tmp = np.multiply(g, 1.0 - state.beta1)
    m += tmp
    v *= state.beta2
    np.multiply(g, 1.0 - state.beta2, out=tmp)
    tmp *= g
    v += tmp
    step = np.divide(m, 1.0 - state.beta1**t, out=tmp)
    step *= state.lr
    den = np.divide(v, 1.0 - state.beta2**t)
    np.sqrt(den, out=den)
    den += state.epsilon
    step /= den
    if direction == "ascend":
        flat += step
    else:
        flat -= step
    if not np.isfinite(flat).all():
        raise NonFiniteError("layer parameters", layer=params._layout.first_non_finite_layer(flat))
    return params, state


LossFn = Callable[[MlpParams], tuple[float, np.ndarray]]


def grad_check(params: MlpParams, loss: LossFn, h: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    ``loss`` maps params to ``(scalar value, analytic gradient)``, the
    gradient a vector laid out like ``params.flat``; only the value is used
    for the numeric side. Returns the worst relative error
    ``|analytic - numeric| / max(1e-12, |analytic| + |numeric|)`` over all
    parameters. Params are perturbed in place and restored before returning.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    _, analytic = loss(params)
    g = _as_grad(params, analytic)
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


@dataclass
class _LayerFile:
    fan_in: int
    fan_out: int
    activation: str

    def __post_init__(self):
        for name in ("fan_in", "fan_out"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class _CheckpointFile:
    """A checkpoint manifest as its JSON file lays it out."""

    format: str
    dtype: str
    weights_file: str  # a file name in the manifest's directory
    layers: list[_LayerFile]

    def __post_init__(self):
        if self.dtype != "<f8":
            raise ValueError(f"dtype must be '<f8', got {self.dtype!r}")
        name = self.weights_file
        if name in ("", "..") or Path(name).name != name:
            raise ValueError(f"weights_file must be a bare file name, got {name!r}")


def save_checkpoint(params: MlpParams, manifest_path) -> Path:
    manifest_path = Path(manifest_path)
    blob_path = manifest_path.with_suffix(".bin")
    layers = [_LayerFile(l.fan_in, l.fan_out, l.activation) for l in params.layers]
    manifest = to_json(_CheckpointFile(CHECKPOINT_FORMAT, "<f8", blob_path.name, layers))
    blob_path.write_bytes(params.flat.astype("<f8", copy=False).tobytes())
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


def load_checkpoint(manifest_path) -> MlpParams:
    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text())
    if not isinstance(manifest, dict) or manifest.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unrecognized checkpoint format in {manifest_path}")
    try:
        checkpoint = from_json(_CheckpointFile, manifest)
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: {exc}") from exc
    blob = (manifest_path.parent / checkpoint.weights_file).read_bytes()
    specs = checkpoint.layers
    shapes = [(s.fan_in, s.fan_out) for s in specs]
    size = 8 * sum(fan_in * fan_out + fan_out for fan_in, fan_out in shapes)
    if size != len(blob):
        raise ValueError(f"checkpoint blob has {len(blob)} bytes, manifest accounts for {size}")
    views = _Layout(shapes).views(np.frombuffer(blob, dtype="<f8"))
    return MlpParams([Layer(w, b, s.activation) for (w, b), s in zip(views, specs)])
