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

One layer loop, ``_layers``, runs both forwards. ``mlp_forward`` caches each
layer's input and the output, and the backward pass reads each activation's
derivative from its output. ``mlp_apply`` caches nothing and runs a batch in
row blocks sized so that each hidden activation of the widest layer fits in
``APPLY_BLOCK_BYTES``, each block ``mlp_forward``'s bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .distributions import from_json, to_json

ACTIVATIONS = ("relu", "tanh", "sigmoid", "identity")

# Sigmoid outputs and log arguments are kept at least this far from {0, 1} so
# the adversarial losses stay finite even when the discriminator saturates.
LOG_EPS = 1e-12

# ``mlp_apply`` runs a batch in row blocks whose widest layer output takes at
# most this many bytes, so an eval's hidden activations stay in cache whatever
# ``eval_samples`` is. Timed alone on one BLAS thread of a 2-CPU VM, 256 KiB
# and 512 KiB matched at widths 32 to 256; 128 KiB lost 15 % at width 64 and
# 1 MiB all of the gain at width 32.
APPLY_BLOCK_BYTES = 1 << 18


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
        if self.weights.size == 0:
            raise ValueError(f"weights must not be empty, got shape {self.weights.shape}")
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

    inputs: list[np.ndarray]  # input to each layer, so layer i's activation is inputs[i + 1]
    output: np.ndarray        # the last layer's activation


def init_mlp(sizes: Sequence[int], activations: Sequence[str], rng: np.random.Generator) -> MlpParams:
    """Build an MLP with the given layer widths.

    Weights are uniform in +/- sqrt(6 / (fan_in + fan_out)); biases start at zero.
    ``sizes`` has one more entry than ``activations``, and every width is >= 1.
    """
    if len(sizes) < 2 or len(activations) != len(sizes) - 1:
        raise ValueError("need len(sizes) >= 2 and one activation per layer")
    if min(sizes) < 1:
        raise ValueError(f"widths must be >= 1, got {list(sizes)}")
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


def _activate(name: str, h: np.ndarray) -> np.ndarray:
    """The activation of ``h``: relu and tanh in place, sigmoid in a new array."""
    if name == "relu":
        return np.maximum(h, 0.0, out=h)
    if name == "tanh":
        return np.tanh(h, out=h)
    if name == "sigmoid":
        return _sigmoid(h)
    return h  # identity


def _pre_grad(name: str, da: np.ndarray, post: np.ndarray) -> np.ndarray:
    """d(loss)/d(pre-activation): ``da`` times the activation's derivative,
    read from its output ``post`` (relu's input is > 0 exactly where ``post``
    is). A new array, or ``da`` itself for the identity; products are formed
    in place with operands swapped, which IEEE multiplication rounds the same."""
    if name == "relu":
        return da * (post > 0)  # derivative at exactly 0 is defined as 0
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


def _layers(params: MlpParams, h: np.ndarray, inputs: list | None) -> np.ndarray:
    """The network's output on rows ``h`` already checked against layer 0,
    appending each layer's input to ``inputs`` unless it is None."""
    for layer in params.layers:
        if inputs is not None:
            inputs.append(h)
        h = h @ layer.weights
        h += layer.biases
        h = _activate(layer.activation, h)
    if not np.isfinite(h).all():
        raise NonFiniteError("forward output", layer=len(params.layers) - 1)
    return h


def mlp_forward(params: MlpParams, x) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on a batch; returns (output [n, d_out], cache for backward)."""
    inputs = []
    out = _layers(params, as_batch(x, params.layers[0].fan_in), inputs)
    return out, ForwardCache(inputs, out)


def mlp_apply(params: MlpParams, x) -> np.ndarray:
    """The network's output on a batch, with no backward cache.

    A block holds at most ``max(1, APPLY_BLOCK_BYTES // (8 * widest fan_out))``
    rows. A batch that fits in one block is ``mlp_forward(params, x)[0]`` bit
    for bit. A larger batch runs in the fewest near-equal blocks of that size
    (``np.array_split``), each ``mlp_forward`` of that block bit for bit,
    written into one output array; since BLAS may round a product differently
    at another row count, that can differ from the whole-batch forward in the
    last bits. With relu, tanh or identity hidden layers the hidden
    activations take at most two blocks, ``2 * APPLY_BLOCK_BYTES``, whatever
    the batch size. Errors are those of ``mlp_forward`` on the whole batch.
    It bypasses ``mlp_forward`` so that no tracer wrapping it runs on the
    eval worker thread.
    """
    h = as_batch(x, params.layers[0].fan_in)
    rows = max(1, APPLY_BLOCK_BYTES // (8 * max(layer.fan_out for layer in params.layers)))
    if len(h) <= rows:
        out = _layers(params, h, None)
    else:
        out = np.empty((len(h), params.layers[-1].fan_out))
        blocks = -(-len(h) // rows)
        for src, dst in zip(np.array_split(h, blocks), np.array_split(out, blocks)):
            dst[...] = _layers(params, src, None)
    return out


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
    if output_grad.shape != cache.output.shape:
        raise ShapeMismatchError(last, cache.output.shape, output_grad.shape)
    layout = params._layout
    grads = np.empty_like(params.flat) if params_grad else None
    da = output_grad
    for i in range(last, -1, -1):
        layer = params.layers[i]
        post = cache.inputs[i + 1] if i < last else cache.output
        dpre = _pre_grad(layer.activation, da, post)
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
class AdamConfig:
    """Adam's step size, moment decays and denominator floor. Each beta lies in
    [0, 1): a beta of 1 divides by zero in the bias correction."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        for name in ("lr", "epsilon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value!r}")


@dataclass
class AdamState:
    """Bias-corrected Adam moments for one network, vectors laid out like ``MlpParams.flat``."""

    config: AdamConfig
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0


def init_adam(params: MlpParams, config: AdamConfig | None = None) -> AdamState:
    """Zero moments for ``params``, stepped with ``config`` (default ``AdamConfig()``)."""
    m, v = np.zeros_like(params.flat), np.zeros_like(params.flat)
    return AdamState(AdamConfig() if config is None else config, m, v)


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
    cfg, t = state.config, state.step_count + 1
    m, v = state.first_moment.copy(), state.second_moment.copy()
    params, state = params.copy(), AdamState(cfg, m, v, t)
    flat = params.flat
    # The operations of
    #   m = beta1 * m + (1 - beta1) * g,   v = beta2 * v + (1 - beta2) * g * g,
    #   step = lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + epsilon),
    # one by one and in that order; the in-place products swap their operands,
    # which IEEE multiplication rounds the same.
    m *= cfg.beta1
    tmp = np.multiply(g, 1.0 - cfg.beta1)
    m += tmp
    v *= cfg.beta2
    np.multiply(g, 1.0 - cfg.beta2, out=tmp)
    tmp *= g
    v += tmp
    step = np.divide(m, 1.0 - cfg.beta1**t, out=tmp)
    step *= cfg.lr
    den = np.divide(v, 1.0 - cfg.beta2**t)
    np.sqrt(den, out=den)
    den += cfg.epsilon
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
    parameters. Params are perturbed in place and each entry is restored,
    also when ``loss`` raises.
    """
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"h must be finite and > 0, got {h!r}")
    _, analytic = loss(params)
    g = _as_grad(params, analytic)
    flat = params.flat
    worst = 0.0
    for j in range(flat.size):
        orig = flat[j]
        try:
            flat[j] = orig + h
            plus, _ = loss(params)
            flat[j] = orig - h
            minus, _ = loss(params)
        finally:
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
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {', '.join(ACTIVATIONS)}, got {self.activation!r}")


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
        for i, (a, b) in enumerate(zip(self.layers, self.layers[1:]), start=1):
            if b.fan_in != a.fan_out:
                raise ValueError(
                    f"layers[{i}].fan_in {b.fan_in} differs from layers[{i - 1}].fan_out {a.fan_out}"
                )


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
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if not isinstance(manifest, dict) or manifest.get("format") != CHECKPOINT_FORMAT:
            raise ValueError("unrecognized checkpoint format")
        checkpoint = from_json(_CheckpointFile, manifest)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are two
        raise ValueError(f"{manifest_path}: {exc}") from exc
    blob_path = manifest_path.parent / checkpoint.weights_file
    blob = blob_path.read_bytes()
    specs = checkpoint.layers
    shapes = [(s.fan_in, s.fan_out) for s in specs]
    size = 8 * sum(fan_in * fan_out + fan_out for fan_in, fan_out in shapes)
    if size != len(blob):
        raise ValueError(
            f"{manifest_path}: checkpoint blob has {len(blob)} bytes, manifest accounts for {size}"
        )
    flat, layout = np.frombuffer(blob, dtype="<f8"), _Layout(shapes)
    if not np.isfinite(flat).all():
        raise NonFiniteError(str(blob_path), layer=layout.first_non_finite_layer(flat))
    return MlpParams([Layer(w, b, s.activation) for (w, b), s in zip(layout.views(flat), specs)])
