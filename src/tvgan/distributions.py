"""Data distributions, latent priors, and the spike-and-slab noise channel.

The channel adds ``Z ~ (1 - gamma) * (point mass at 0) + gamma * slab`` to each
sample; this keeps the total variation between the clean and the noised law at
most ``gamma`` no matter what the slab is. For finite-support inputs and slabs
the noised law can be computed exactly by discrete convolution.

All samplers take an explicit ``numpy.random.Generator`` owned by the caller;
nothing here touches global randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

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
    inverse = np.zeros(rows.shape[0], dtype=np.int64)
    for col in rows.T:
        ids, _ = _clusters(col, MERGE_RTOL)
        inverse, first = _clusters(inverse * (ids.max() + 1) + ids, 0.0)  # below len(rows) ** 2
    masses = [np.bincount(inverse, weights=w, minlength=first.size) for w in weights]
    return (rows[first], inverse, *masses)


def _clusters(values: np.ndarray, rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """Cluster id of each value, by value, and each cluster's first index in stable sort order.

    Sorted, a new cluster starts where a value exceeds the last by over ``rtol * max(1, |a|, |b|)``.
    """
    order = values.argsort(kind="stable")
    s = values[order]
    mag = np.abs(s)
    new = np.empty(s.size, dtype=bool)
    new[0], new[1:] = True, s[1:] - s[:-1] > rtol * np.maximum(1.0, np.maximum(mag[1:], mag[:-1]))
    ids = np.empty(s.size, dtype=np.int64)
    ids[order] = np.add.accumulate(new, dtype=np.int64) - 1
    return ids, order[new]


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
        self.probs = np.asarray(self.probs, dtype=np.float64).reshape(-1)
        if self.probs.shape[0] != self.support.shape[0]:
            raise ValueError("support and probs lengths differ")
        if not np.isfinite(self.support).all():
            raise ValueError("support points must be finite")
        if not (self.probs >= 0).all():
            raise ValueError("probabilities must be nonnegative numbers")
        total = float(self.probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if canonicalize(self.support)[0].shape[0] != self.support.shape[0]:
            raise ValueError("support points must be pairwise distinct")

    @property
    def dimension(self) -> int:
        return self.support.shape[1]

    def prob_table(self) -> dict[tuple, float]:
        return dict(zip(map(tuple, self.support.tolist()), self.probs.tolist()))

    def to_dict(self) -> dict:
        return {
            "kind": "discrete",
            "support": self.support.tolist(),
            "probs": self.probs.tolist(),
        }


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
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > PROB_TOL:
        raise ValueError("mixture weights must be nonnegative and sum to 1")
    rows = np.vstack([dist.support for dist, _ in parts])
    return _law(rows, np.concatenate([w * dist.probs for dist, w in parts]))


# --- slabs ------------------------------------------------------------------


@dataclass
class GaussianSlab:
    """Axis-aligned Gaussian noise with per-coordinate standard deviation."""

    std: np.ndarray

    def __post_init__(self):
        self.std = np.atleast_1d(np.asarray(self.std, dtype=np.float64))
        if np.any(self.std <= 0):
            raise ValueError("gaussian slab std must be positive")


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
        self.offset = np.atleast_1d(np.asarray(self.offset, dtype=np.float64))


SlabSpec = Union[GaussianSlab, DirichletSlab, PointMassSlab, DiscreteDist]


def slab_dimension(slab: SlabSpec) -> int:
    if isinstance(slab, GaussianSlab):
        return slab.std.shape[0]
    if isinstance(slab, DirichletSlab):
        return slab.dimension
    if isinstance(slab, PointMassSlab):
        return slab.offset.shape[0]
    if isinstance(slab, DiscreteDist):
        return slab.dimension
    raise TypeError(f"not a slab spec: {type(slab).__name__}")


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
        idx = rng.choice(slab.support.shape[0], size=n, p=slab.probs)
        return slab.support[idx]
    raise TypeError(f"not a slab spec: {type(slab).__name__}")


@dataclass
class SpikeSlabNoise:
    """The additive channel ``(1 - gamma) * delta(z) + gamma * slab(z)``."""

    gamma: float
    slab: SlabSpec

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")

    @property
    def dimension(self) -> int:
        return slab_dimension(self.slab)


def sample_spike_slab(
    noise: SpikeSlabNoise, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n channel realizations; rows are 0 with probability 1 - gamma.

    Returns ``(z [n, d], slab_mask [n])`` where the mask marks rows that took
    a slab draw rather than the spike.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = noise.dimension
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
    if noise.dimension != d:
        raise ValueError(
            f"slab dimension {noise.dimension} does not match batch width {d}"
        )
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


def discrete_convolve(p_x: DiscreteDist, noise: SpikeSlabNoise) -> DiscreteDist:
    """Exact law of ``Y = X + Z`` for a finite-support slab.

    The output support is the Minkowski sum of the input support and the
    channel atoms ({0} with mass 1 - gamma plus the slab atoms scaled by
    gamma); sums within ``MERGE_RTOL * max(1, |v|)`` of each other in every
    coordinate are merged, at any magnitude (see ``canonicalize``).
    """
    points, q = slab_atoms(noise.slab)
    d = p_x.dimension
    if points.shape[1] != d:
        raise ValueError(f"slab and distribution dimensions differ: {points.shape[1]} vs {d}")
    z = np.vstack([np.zeros((1, d)), points])
    pz = np.concatenate([[1.0 - noise.gamma], noise.gamma * q])
    z, pz = z[pz > 0], pz[pz > 0]
    rows = (p_x.support[:, None, :] + z[None, :, :]).reshape(-1, d)
    return _law(rows, np.outer(p_x.probs, pz).reshape(-1))


# --- dataset specs ----------------------------------------------------------


@dataclass
class MixtureComponent:
    mean: np.ndarray
    cov_diag: np.ndarray
    weight: float

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        self.cov_diag = np.atleast_1d(np.asarray(self.cov_diag, dtype=np.float64))
        if self.mean.shape != self.cov_diag.shape:
            raise ValueError("mean and cov_diag must have the same shape")
        if np.any(self.cov_diag <= 0):
            raise ValueError("covariance diagonal must be positive")


@dataclass
class GaussianMixture:
    """Diagonal Gaussian mixture. The sampling arrays (stacked means, stacked
    standard deviations, normalized weights) are built once, at construction."""

    components: list[MixtureComponent]
    _means: np.ndarray = field(init=False, repr=False, compare=False)
    _stds: np.ndarray = field(init=False, repr=False, compare=False)
    _probs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.components:
            raise ValueError("mixture needs at least one component")
        weights = np.array([c.weight for c in self.components])
        if np.any(weights <= 0) or abs(weights.sum() - 1.0) > PROB_TOL:
            raise ValueError("component weights must be positive and sum to 1")
        dims = {c.mean.shape[0] for c in self.components}
        if len(dims) != 1:
            raise ValueError("all components must share one dimension")
        self._means = np.stack([c.mean for c in self.components])
        self._stds = np.sqrt(np.stack([c.cov_diag for c in self.components]))
        self._probs = weights / weights.sum()


@dataclass
class Ring:
    """Uniform angle on a circle of the given radius plus isotropic jitter."""

    radius: float
    noise_std: float = 0.0

    def __post_init__(self):
        if self.radius <= 0 or self.noise_std < 0:
            raise ValueError("need radius > 0 and noise_std >= 0")


@dataclass
class FileDataset:
    """Empirical distribution backed by a plain-text sample matrix.

    One sample per line, space-separated decimal coordinates; rows are drawn
    with replacement.
    """

    path: str
    _samples: np.ndarray | None = field(default=None, repr=False, compare=False)

    def load(self) -> np.ndarray:
        if self._samples is None:
            samples = np.loadtxt(self.path, ndmin=2, dtype=np.float64)
            if samples.size == 0:
                raise ValueError(f"dataset file {self.path} is empty")
            if not np.isfinite(samples).all():
                raise ValueError(f"dataset file {self.path} has non-finite values")
            self._samples = samples
        return self._samples


DatasetSpec = Union[GaussianMixture, Ring, DiscreteDist, FileDataset]


def dataset_dimension(spec: DatasetSpec) -> int:
    if isinstance(spec, GaussianMixture):
        return spec.components[0].mean.shape[0]
    if isinstance(spec, Ring):
        return 2
    if isinstance(spec, DiscreteDist):
        return spec.dimension
    if isinstance(spec, FileDataset):
        return spec.load().shape[1]
    raise TypeError(f"not a dataset spec: {type(spec).__name__}")


def sample_dataset(spec: DatasetSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. rows from the spec's distribution."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(spec, GaussianMixture):
        means, stds = spec._means, spec._stds
        which = rng.choice(len(spec.components), size=n, p=spec._probs)
        return means[which] + stds[which] * rng.standard_normal((n, means.shape[1]))
    if isinstance(spec, Ring):
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        base = spec.radius * np.column_stack([np.cos(theta), np.sin(theta)])
        if spec.noise_std > 0:
            base = base + spec.noise_std * rng.standard_normal((n, 2))
        return base
    if isinstance(spec, DiscreteDist):
        idx = rng.choice(spec.support.shape[0], size=n, p=spec.probs)
        return spec.support[idx]
    if isinstance(spec, FileDataset):
        rows = spec.load()
        return rows[rng.integers(0, rows.shape[0], size=n)]
    raise TypeError(f"not a dataset spec: {type(spec).__name__}")


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


# --- (de)serialization ------------------------------------------------------
#
# Every spec maps to a JSON-friendly dict tagged with "kind", so config and
# instance files stay human-writable.


def slab_to_dict(slab: SlabSpec) -> dict:
    if isinstance(slab, GaussianSlab):
        return {"kind": "gaussian", "std": slab.std.tolist()}
    if isinstance(slab, DirichletSlab):
        return {"kind": "dirichlet_flat", "dimension": slab.dimension}
    if isinstance(slab, PointMassSlab):
        return {"kind": "point_mass", "offset": slab.offset.tolist()}
    if isinstance(slab, DiscreteDist):
        return slab.to_dict()
    raise TypeError(f"not a slab spec: {type(slab).__name__}")


def slab_from_dict(d: dict) -> SlabSpec:
    kind = d.get("kind")
    if kind == "gaussian":
        return GaussianSlab(np.asarray(d["std"]))
    if kind == "dirichlet_flat":
        return DirichletSlab(int(d["dimension"]))
    if kind == "point_mass":
        return PointMassSlab(np.asarray(d["offset"]))
    if kind == "discrete":
        return discrete_dist_from_dict(d)
    raise ValueError(f"unknown slab kind {kind!r}")


def noise_to_dict(noise: SpikeSlabNoise) -> dict:
    return {"gamma": noise.gamma, "slab": slab_to_dict(noise.slab)}


def noise_from_dict(d: dict) -> SpikeSlabNoise:
    return SpikeSlabNoise(float(d["gamma"]), slab_from_dict(d["slab"]))


def discrete_dist_from_dict(d: dict) -> DiscreteDist:
    return DiscreteDist(np.asarray(d["support"]), np.asarray(d["probs"]))


def dataset_spec_to_dict(spec: DatasetSpec) -> dict:
    if isinstance(spec, GaussianMixture):
        return {
            "kind": "gaussian_mixture",
            "components": [
                {
                    "mean": c.mean.tolist(),
                    "cov_diag": c.cov_diag.tolist(),
                    "weight": c.weight,
                }
                for c in spec.components
            ],
        }
    if isinstance(spec, Ring):
        return {"kind": "ring", "radius": spec.radius, "noise_std": spec.noise_std}
    if isinstance(spec, DiscreteDist):
        return spec.to_dict()
    if isinstance(spec, FileDataset):
        return {"kind": "file", "path": spec.path}
    raise TypeError(f"not a dataset spec: {type(spec).__name__}")


def dataset_spec_from_dict(d: dict) -> DatasetSpec:
    kind = d.get("kind")
    if kind == "gaussian_mixture":
        return GaussianMixture(
            [
                MixtureComponent(
                    np.asarray(c["mean"]), np.asarray(c["cov_diag"]), float(c["weight"])
                )
                for c in d["components"]
            ]
        )
    if kind == "ring":
        return Ring(float(d["radius"]), float(d.get("noise_std", 0.0)))
    if kind == "discrete":
        return discrete_dist_from_dict(d)
    if kind == "file":
        return FileDataset(str(d["path"]))
    raise ValueError(f"unknown dataset kind {kind!r}")


def latent_to_dict(prior: LatentPrior) -> dict:
    return {"dimension": prior.dimension, "kind": prior.kind}


def latent_from_dict(d: dict) -> LatentPrior:
    return LatentPrior(int(d["dimension"]), str(d.get("kind", "gaussian")))
