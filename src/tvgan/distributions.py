"""Data distributions, latent priors, and the spike-and-slab noise channel.

The channel adds ``Z ~ (1 - gamma) * (point mass at 0) + gamma * slab`` to each
sample; this keeps the total variation between the clean and the noised law at
most ``gamma`` no matter what the slab is. For finite-support inputs and slabs
the noised law can be computed exactly by discrete convolution.

All samplers take an explicit ``numpy.random.Generator`` owned by the caller;
nothing here touches global randomness.
"""

from __future__ import annotations

import math
import numbers
import reprlib
import sys
import types
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache, cached_property
from itertools import chain
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

# Two coordinates merge when they differ by at most MERGE_RTOL * max(1, |a|, |b|),
# so roundoff in a Minkowski sum never splits an atom, near 0 as near 1e6.
MERGE_RTOL = 1e-12

PROB_TOL = 1e-12


class UnsupportedSlabError(ValueError):
    """Raised when an operation needs a finite-support slab but got a continuous one."""


def canonicalize(rows: np.ndarray, *weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """Merge coincident rows: ``(support [K, d], inverse [n], one [K] mass per weights)``.

    Each coordinate is clustered on its own (``_clusters``); rows sharing their cluster in every
    coordinate are one atom. Atoms are in lexicographic order, each its first row in input order.
    """
    inverse, first = _atoms(rows)
    masses = [np.bincount(inverse, weights=w, minlength=first.size) for w in weights]
    return (rows[first], inverse, *masses)


def _atoms(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``canonicalize``'s atom of each row and each atom's first row in input order."""
    n = rows.shape[0]
    inverse, first = np.zeros(n, dtype=np.int64), np.arange(min(n, 1))  # no coordinates: one atom
    for j, col in enumerate(rows.T):
        ids, first = _clusters(col, MERGE_RTOL)
        # atoms by (atom so far, cluster here), in that lexicographic order; keys below n ** 2
        inverse, first = _clusters(inverse * first.size + ids, 0.0) if j else (ids, first)
    return inverse, first


def _distinct(rows: np.ndarray) -> bool:
    """Whether ``canonicalize`` keeps every row, found without building its support: at once
    when the clusters of one coordinate separate every row, else from ``_atoms``."""
    if any(_gaps(np.sort(col), MERGE_RTOL).all() for col in rows.T):
        return True
    return _atoms(rows)[1].size == rows.shape[0]


def _categorical_cdf(p: np.ndarray) -> np.ndarray:
    """The normalized running sum of ``p``, for ``_draw_categorical``."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw_categorical(cdf: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` indices drawn from the categorical law with ``cdf = _categorical_cdf(p)``.

    This is what ``rng.choice(p.size, size=n, p=p)`` does, with the same indices
    and the same generator state afterwards, minus its validation of ``p`` on
    every call: callers build ``cdf`` once per validated law.
    """
    return cdf.searchsorted(rng.random(n), side="right")


def _gaps(s: np.ndarray, rtol: float) -> np.ndarray:
    """For sorted values, whether each starts a new cluster after the one before it: it exceeds
    it by over ``rtol * max(1, |a|, |b|)``, or, with ``rtol`` 0 (integer keys), differs from it."""
    if not rtol:
        return s[1:] != s[:-1]
    mag = np.abs(s)
    return s[1:] - s[:-1] > rtol * np.maximum(1.0, np.maximum(mag[1:], mag[:-1]))


def _clusters(values: np.ndarray, rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """Cluster id of each value, numbered by value (``_gaps``), and each cluster's first index
    in input order."""
    order = values.argsort(kind="stable")
    new = np.empty(order.size, dtype=bool)
    new[:1], new[1:] = True, _gaps(values[order], rtol)
    ids = np.empty(order.size, dtype=np.int64)
    ids[order] = np.add.accumulate(new, dtype=np.int64) - 1
    return ids, np.minimum.reduceat(order, new.nonzero()[0])


def _vector(name: str, value) -> np.ndarray:
    """``value`` as a float64 vector: a scalar is one coordinate; nested or empty lists are refused."""
    v = np.atleast_1d(np.asarray(value, dtype=np.float64))
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a nonempty vector, got an array of shape {v.shape}")
    return v


@dataclass
class DiscreteDist:
    """Exact finite-support probability table on points in R^d.

    No two points may lie within ``MERGE_RTOL * max(1, |v|)`` of each other in every coordinate.
    """

    support: np.ndarray  # [m, d]
    probs: np.ndarray    # [m]

    def __post_init__(self):
        self.support = np.asarray(self.support, dtype=np.float64)
        if self.support.ndim == 1:
            self.support = self.support.reshape(-1, 1)
        if self.support.ndim != 2 or self.support.shape[0] == 0:
            raise ValueError("support must be a nonempty [m, d] array")
        if self.support.shape[1] == 0:
            raise ValueError(f"support must have at least one coordinate, got shape {self.support.shape}")
        self.probs = _vector("probs", self.probs)
        if self.probs.shape[0] != self.support.shape[0]:
            raise ValueError("support and probs lengths differ")
        if not np.isfinite(self.support).all():
            raise ValueError("support points must be finite")
        if not (self.probs >= 0).all():
            raise ValueError("probabilities must be nonnegative numbers")
        total = float(self.probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if not _distinct(self.support):
            raise ValueError("support points must be pairwise distinct")

    @property
    def dimension(self) -> int:
        return self.support.shape[1]

    @cached_property
    def _cdf(self) -> np.ndarray:
        """Built on the first draw, so laws that are never sampled pay nothing."""
        return _categorical_cdf(self.probs)


def _law(rows: np.ndarray, weights: np.ndarray) -> DiscreteDist:
    """Weighted rows as a law, merged, zero masses dropped; unvalidated: its atoms are distinct."""
    support, _, masses = canonicalize(rows, weights)
    law = DiscreteDist.__new__(DiscreteDist)
    law.support, law.probs = support[masses > 0], masses[masses > 0]
    return law


def align(p: DiscreteDist, q: DiscreteDist) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The union of two supports and each law's mass on it (0 off its own support)."""
    m = p.probs.size
    pw, qw = np.zeros((2, m + q.probs.size))
    pw[:m], qw[m:] = p.probs, q.probs
    support, _, pv, qv = canonicalize(np.vstack([p.support, q.support]), pw, qw)
    return support, pv, qv


def mixture(parts: list[tuple[DiscreteDist, float]]) -> DiscreteDist:
    """Weighted mixture of finite-support distributions, coincident atoms merged."""
    weights = np.array([w for _, w in parts], dtype=np.float64)
    if not ((weights >= 0).all() and abs(weights.sum() - 1.0) <= PROB_TOL):  # also refuses nan
        raise ValueError("mixture weights must be nonnegative and sum to 1")
    rows = np.vstack([dist.support for dist, _ in parts])
    return _law(rows, np.concatenate([w * dist.probs for dist, w in parts]))


# --- slabs ------------------------------------------------------------------


@dataclass
class GaussianSlab:
    """Axis-aligned Gaussian noise with per-coordinate standard deviation."""

    std: np.ndarray

    def __post_init__(self):
        self.std = _vector("std", self.std)
        if np.any(self.std <= 0):
            raise ValueError(f"std must be positive, got {self.std.tolist()}")

    @property
    def dimension(self) -> int:
        return self.std.shape[0]


@dataclass
class DirichletSlab:
    """Flat Dirichlet on the probability simplex; a deliberately asymmetric slab."""

    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")


@dataclass
class PointMassSlab:
    """Deterministic shift by a fixed offset vector."""

    offset: np.ndarray

    def __post_init__(self):
        self.offset = _vector("offset", self.offset)

    @property
    def dimension(self) -> int:
        return self.offset.shape[0]


SlabSpec = Union[GaussianSlab, DirichletSlab, PointMassSlab, DiscreteDist]


def slab_atoms(slab: SlabSpec) -> tuple[np.ndarray, np.ndarray]:
    """Finite-support slabs as (points [k, d], probabilities [k]); others are rejected."""
    if isinstance(slab, PointMassSlab):
        return slab.offset.reshape(1, -1), np.ones(1)
    if isinstance(slab, DiscreteDist):
        return slab.support, slab.probs
    raise UnsupportedSlabError(
        f"{type(slab).__name__} has continuous support; exact convolution needs "
        "a point-mass or discrete slab"
    )


def sample_slab(slab: SlabSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(slab, GaussianSlab):
        d = slab.std.shape[0]
        return rng.standard_normal((n, d)) * slab.std
    if isinstance(slab, DirichletSlab):
        # flat Dirichlet via normalized standard exponentials
        e = rng.standard_exponential((n, slab.dimension))
        return e / e.sum(axis=1, keepdims=True)
    if isinstance(slab, PointMassSlab):
        return np.tile(slab.offset, (n, 1))
    if isinstance(slab, DiscreteDist):
        return slab.support[_draw_categorical(slab._cdf, n, rng)]
    raise TypeError(f"not a slab spec: {type(slab).__name__}")


@dataclass
class SpikeSlabNoise:
    """The additive channel ``(1 - gamma) * delta(z) + gamma * slab(z)``."""

    gamma: float
    slab: SlabSpec

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")


def sample_spike_slab(
    noise: SpikeSlabNoise, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n channel realizations; rows are 0 with probability 1 - gamma.

    Returns ``(z [n, d], slab_mask [n])`` where the mask marks rows that took
    a slab draw rather than the spike.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = noise.slab.dimension
    mask = rng.random(n) < noise.gamma
    z = np.zeros((n, d))
    hits = int(mask.sum())
    if hits:
        z[mask] = sample_slab(noise.slab, hits, rng)
    return z, mask


def inject_noise(
    batch: np.ndarray,
    noise: SpikeSlabNoise,
    mode: str = "per_sample",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the channel to a batch of samples.

    ``per_sample`` flips an independent spike/slab coin per row, which is what
    realizes the mixture law on each sample. ``per_batch`` flips one coin for
    the whole minibatch (all rows perturbed or none), retained for fidelity to
    training loops that draw a single Bernoulli per batch. Returns the noised
    batch and the slab mask.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2:
        raise ValueError("batch must be 2-D [n, d]")
    n, d = batch.shape
    if noise.slab.dimension != d:
        raise ValueError(f"slab dimension {noise.slab.dimension} does not match batch width {d}")
    if rng is None:
        raise ValueError("an explicit rng is required")
    if mode == "per_sample":
        z, mask = sample_spike_slab(noise, n, rng)
        return batch + z, mask
    if mode == "per_batch":
        if rng.random() < noise.gamma:
            return batch + sample_slab(noise.slab, n, rng), np.ones(n, dtype=bool)
        return batch.copy(), np.zeros(n, dtype=bool)
    raise ValueError(f"mode must be 'per_sample' or 'per_batch', got {mode!r}")


def channel_rows(p_x: DiscreteDist, noise: SpikeSlabNoise) -> tuple[np.ndarray, np.ndarray]:
    """``X + Z`` before merging: ``(rows [m * k, d], masses [m * k])``, one row per
    support point and channel atom of positive mass ({0} with mass 1 - gamma,
    then the slab atoms scaled by gamma), point-major. Needs a finite-support slab.
    """
    points, q = slab_atoms(noise.slab)
    d = p_x.dimension
    if points.shape[1] != d:
        raise ValueError(f"slab and distribution dimensions differ: {points.shape[1]} vs {d}")
    z = np.concatenate([np.zeros((1, d)), points])
    pz = np.concatenate([[1.0 - noise.gamma], noise.gamma * q])
    keep = pz > 0
    z, pz = z[keep], pz[keep]
    rows = (p_x.support[:, None, :] + z[None, :, :]).reshape(-1, d)
    return rows, (p_x.probs[:, None] * pz[None, :]).reshape(-1)


def discrete_convolve(p_x: DiscreteDist, noise: SpikeSlabNoise) -> DiscreteDist:
    """Exact law of ``Y = X + Z`` for a finite-support slab.

    The output support is the Minkowski sum of the input support and the
    channel atoms (``channel_rows``); sums within ``MERGE_RTOL * max(1, |v|)``
    of each other in every coordinate are merged, at any magnitude (see
    ``canonicalize``).
    """
    return _law(*channel_rows(p_x, noise))


# --- dataset specs ----------------------------------------------------------


@dataclass
class MixtureComponent:
    mean: np.ndarray
    cov_diag: np.ndarray
    weight: float

    def __post_init__(self):
        self.mean = _vector("mean", self.mean)
        self.cov_diag = _vector("cov_diag", self.cov_diag)
        if self.mean.shape != self.cov_diag.shape:
            raise ValueError("mean and cov_diag must have the same shape")
        if np.any(self.cov_diag <= 0):
            raise ValueError("covariance diagonal must be positive")


@dataclass
class GaussianMixture:
    """Diagonal Gaussian mixture. The sampling arrays (stacked means, stacked
    standard deviations, the normalized weights' ``_categorical_cdf``) are
    built once, at construction."""

    components: list[MixtureComponent]
    _means: np.ndarray = field(init=False, repr=False, compare=False)
    _stds: np.ndarray = field(init=False, repr=False, compare=False)
    _cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.components:
            raise ValueError("mixture needs at least one component")
        weights = np.array([c.weight for c in self.components])
        if not ((weights > 0).all() and abs(weights.sum() - 1.0) <= PROB_TOL):  # also refuses nan
            raise ValueError("the weights of components must be positive and sum to 1")
        dims = {c.mean.shape[0] for c in self.components}
        if len(dims) != 1:
            raise ValueError("all components must share one dimension")
        self._means = np.stack([c.mean for c in self.components])
        self._stds = np.sqrt(np.stack([c.cov_diag for c in self.components]))
        self._cdf = _categorical_cdf(weights / weights.sum())

    @property
    def dimension(self) -> int:
        return self._means.shape[1]


@dataclass
class Ring:
    """Uniform angle on a circle of the given radius plus isotropic jitter."""

    radius: float
    noise_std: float = 0.0
    dimension = 2  # unannotated, so neither a field nor a JSON key

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:  # also refuses nan
            raise ValueError(f"radius must be finite and > 0, got {self.radius!r}")
        if not 0.0 <= self.noise_std < math.inf:
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std!r}")


@dataclass
class FileDataset:
    """Empirical distribution backed by a plain-text sample matrix.

    One sample per line, space-separated decimal coordinates; rows are drawn
    with replacement.
    """

    path: str
    _samples: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def load(self) -> np.ndarray:
        if self._samples is None:
            self._samples = load_samples(self.path)
        return self._samples

    @property
    def dimension(self) -> int:
        return self.load().shape[1]


def load_samples(path) -> np.ndarray:
    """The [n, d] sample matrix of a text file: one sample per line, ``#`` comments.

    Raises the ``OSError`` of a file that cannot be opened, and a ``ValueError``
    naming one that is not UTF-8 or holds no row, a bad row or a non-finite value.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not any(line.split("#", 1)[0].strip() for line in lines):
            raise ValueError("no samples")  # np.loadtxt would only warn
        samples = np.loadtxt(lines, ndmin=2, dtype=np.float64)
    except ValueError as exc:  # UnicodeDecodeError is one
        raise ValueError(f"sample file {path}: {exc}") from exc
    if not np.isfinite(samples).all():
        raise ValueError(f"sample file {path}: non-finite values")
    return samples


def format_samples(rows) -> str:
    """The text ``load_samples`` reads back bit for bit: one line per row, each
    coordinate as ``repr(float)``, separated by single spaces, no header."""
    rows = np.asarray(rows, dtype=np.float64).tolist()
    return "".join(" ".join(map(repr, row)) + "\n" for row in rows)


DatasetSpec = Union[GaussianMixture, Ring, DiscreteDist, FileDataset]


def sample_dataset(spec: DatasetSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. rows from the spec's distribution."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(spec, GaussianMixture):
        means, stds = spec._means, spec._stds
        which = _draw_categorical(spec._cdf, n, rng)
        return means[which] + stds[which] * rng.standard_normal((n, means.shape[1]))
    if isinstance(spec, Ring):
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        base = spec.radius * np.column_stack([np.cos(theta), np.sin(theta)])
        if spec.noise_std > 0:
            base = base + spec.noise_std * rng.standard_normal((n, 2))
        return base
    if isinstance(spec, DiscreteDist):
        return spec.support[_draw_categorical(spec._cdf, n, rng)]
    if isinstance(spec, FileDataset):
        rows = spec.load()
        return rows[rng.integers(0, rows.shape[0], size=n)]
    raise TypeError(f"not a dataset spec: {type(spec).__name__}")


@dataclass
class DatasetPart:
    """One part of the data: its law, its mixture weight and its noise channel."""

    spec: DatasetSpec
    alpha: float
    noise: SpikeSlabNoise


def check_parts(parts: list[DatasetPart], name: str, noise: str, exact: bool = False) -> int:
    """The dimension of one or more ``parts`` whose alphas are positive and sum to 1 and whose
    specs and channels share it; ``exact`` parts are ``DiscreteDist``s behind finite-support slabs.
    Else a ``ValueError`` names the list ``name``, a part ``name[l]`` or a channel ``noise.format(l)``."""
    if not parts:
        raise ValueError(f"{name} needs at least one part")
    alphas = np.array([part.alpha for part in parts], dtype=np.float64)
    if not ((alphas > 0).all() and abs(alphas.sum() - 1.0) <= PROB_TOL):  # also refuses nan
        raise ValueError(f"the alphas of {name} must be positive and sum to 1, got {alphas.tolist()}")
    dims = {part.spec.dimension for part in parts}
    if len(dims) != 1:
        raise ValueError(f"the parts of {name} must share one dimension, got {sorted(dims)}")
    (dim,) = dims
    for l, part in enumerate(parts):
        if exact:
            if not isinstance(part.spec, DiscreteDist):
                raise ValueError(f"{name}[{l}].spec: {type(part.spec).__name__} has no finite support")
            try:
                slab_atoms(part.noise.slab)
            except UnsupportedSlabError as exc:
                raise UnsupportedSlabError(f"{noise.format(l)}.slab: {exc}") from None
        if (d := part.noise.slab.dimension) != dim:
            raise ValueError(f"{noise.format(l)}: slab dimension {d} differs from the data dimension {dim}")
    return dim


def budget(parts: list[DatasetPart]) -> float:
    """The divergence budget the channels realize: the largest gamma."""
    return max(part.noise.gamma for part in parts)


@dataclass
class LatentPrior:
    """Generator input law: standard Gaussian or uniform on [-1, 1]^d."""

    dimension: int
    kind: str = "gaussian"

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.kind not in ("gaussian", "uniform"):
            raise ValueError(f"kind must be 'gaussian' or 'uniform', got {self.kind!r}")


def sample_latent(prior: LatentPrior, n: int, rng: np.random.Generator) -> np.ndarray:
    if prior.kind == "gaussian":
        return rng.standard_normal((n, prior.dimension))
    return rng.uniform(-1.0, 1.0, size=(n, prior.dimension))


# --- JSON -------------------------------------------------------------------
#
# A config type's JSON format is its dataclass declaration: an object with one
# key per init field, in field order, each value read by the field's type hint
# and never coerced. The members of ``SlabSpec`` and ``DatasetSpec`` carry their
# ``KINDS`` tag under ``"kind"``, first. Every refusal is a ``ValueError`` that
# names the value by its JSON path (``datasets[1].noise.gamma``); numbers inside
# a list are named by the list.

KINDS = {
    GaussianSlab: "gaussian",
    DirichletSlab: "dirichlet_flat",
    PointMassSlab: "point_mass",
    DiscreteDist: "discrete",
    GaussianMixture: "gaussian_mixture",
    Ring: "ring",
    FileDataset: "file",
}


def _name(path) -> str:
    """A JSON path as text. Readers pass a path down as ``(parent path, key)``, a str
    key naming a field and an int key a list index, and render it only for a message."""
    if isinstance(path, str):
        return path
    parent, key = _name(path[0]), path[1]
    if isinstance(key, int):
        return f"{parent}[{key}]"
    return f"{parent}.{key}" if parent else key


def _whole_number(path, value) -> int:
    """``value`` as an int. A JSON number with a fractional part, a boolean or a
    string is refused rather than truncated or coerced."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{_name(path)} must be a whole number, got {value!r}")


def _real_number(path, value) -> float:
    """``value`` as a finite float. A boolean, a string, NaN or an infinity is refused."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{_name(path)} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # also refuses nan, and ints past float range
        raise ValueError(f"{_name(path)} must be finite, got {value!r}")
    return float(value)


def _array(path, value) -> np.ndarray:
    """Nested lists of finite numbers as an array: not ragged, no booleans, no strings."""
    try:
        a = np.asarray(value) if isinstance(value, list) else None
    except ValueError:  # ragged
        a = None
    if a is not None and a.dtype.kind in "iuf" and np.isfinite(a).all():
        flat = value
        for _ in range(a.ndim - 1):
            flat = chain.from_iterable(flat)
        if bool not in set(map(type, flat)):  # a true among numbers reads as 1
            return a
    raise ValueError(
        f"{_name(path)} must be a rectangular list of finite numbers, got {reprlib.repr(value)}"
    )


def _string(path, value) -> str:
    if isinstance(value, str):
        return value
    raise ValueError(f"{_name(path)} must be a string, got {value!r}")


@cache
def _fields(cls) -> dict[str, tuple[object, bool]]:
    """``cls``'s JSON keys, in field order: each init field's type hint and whether
    it is required."""
    hints = get_type_hints(cls)
    return {
        f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
        if f.init
    }


def _object(path, value) -> dict:
    if isinstance(value, dict):
        return value
    raise ValueError(f"{_name(path) or 'the document'} must be a JSON object, got {reprlib.repr(value)}")


def to_json(value):
    """``value`` as plain JSON data: a config dataclass as an object of its fields
    (``"kind"`` first for a tagged one), an array or a tuple as a list."""
    if is_dataclass(value):
        out = {"kind": KINDS[type(value)]} if type(value) in KINDS else {}
        for name in _fields(type(value)):
            out[name] = to_json(getattr(value, name))
        return out
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    return value


def from_json(kind, value, path: str = ""):
    """The JSON data ``value`` read as ``kind``: a config dataclass, a tagged union
    such as ``DatasetSpec``, ``X | None``, ``list[X]``, ``int``, ``float``, ``str``
    or ``np.ndarray``. ``path`` names ``value`` in error messages.

    An object must have a key for each required field and no key that is not a
    field; a field it leaves out takes the dataclass default. A ``ValueError``
    from the dataclass's own checks is prefixed with ``path``.
    """
    return _reader(kind)(path, value)


@cache
def _reader(kind):
    """``from_json``'s reader for ``kind``, a function of ``(path, value)``: the type's
    fields, hints, tags and item type are looked up once, on first use."""
    scalars = {int: _whole_number, float: _real_number, np.ndarray: _array, str: _string}
    if kind in scalars:
        return scalars[kind]
    origin = get_origin(kind)
    if origin is list:
        return _list_reader(*get_args(kind))
    if origin in (Union, types.UnionType):
        return _union_reader(get_args(kind))
    return _dataclass_reader(kind)


def _list_reader(item):
    read = _reader(item)
    by_index = item not in (int, float, str)  # scalars are named by the list

    def read_list(path, value):
        if not isinstance(value, list):
            raise ValueError(f"{_name(path)} must be a list, got {reprlib.repr(value)}")
        if by_index:
            return [read((path, i), v) for i, v in enumerate(value)]
        return [read(path, v) for v in value]

    return read_list


def _union_reader(args):
    members = [m for m in args if m is not type(None)]
    optional = len(members) < len(args)
    if len(members) == 1:
        read = _reader(members[0])
        return (lambda path, value: None if value is None else read(path, value)) if optional else read
    tags = {KINDS[m]: _reader(m) for m in members}

    def read_tagged(path, value):
        if value is None and optional:
            return None
        tag = _object(path, value).get("kind")
        if not isinstance(tag, str) or tag not in tags:
            known = ", ".join(map(repr, tags))
            raise ValueError(f"{_name((path, 'kind'))} must be one of {known}, got {tag!r}")
        return tags[tag](path, value)

    return read_tagged


def _dataclass_reader(kind):
    declared = {name: (_reader(hint), required) for name, (hint, required) in _fields(kind).items()}
    tag = KINDS.get(kind)
    keys = declared.keys() | ({"kind"} if tag else set())

    def read_dataclass(path, value):
        for key in _object(path, value):
            if key not in keys:
                raise ValueError(f"{_name((path, key))} is not a known key")
        if tag and value.get("kind") != tag:
            raise ValueError(f"{_name((path, 'kind'))} must be {tag!r}, got {value.get('kind')!r}")
        args = {}
        for name, (read, required) in declared.items():
            if name in value:
                args[name] = read((path, name), value[name])
            elif required:
                raise ValueError(f"{_name((path, name))} is required")
        try:
            return kind(**args)
        except ValueError as exc:
            if not path:
                raise
            message = str(exc)  # "radius must be ..." reads as "<path>.radius must be ..."
            sep = "." if message.split(" ", 1)[0] in declared else ": "
            raise ValueError(f"{_name(path)}{sep}{message}") from exc

    return read_dataclass


# The program reads laws with ``from_json``. This stays because the benchmark
# (perfbench/workloads.py, perfbench/setup_probe.py) parses its laws with it.
def discrete_dist_from_dict(d: dict) -> DiscreteDist:
    return from_json(DiscreteDist, d)
