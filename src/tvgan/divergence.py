"""Total variation and Jensen-Shannon divergence, exact and histogram-estimated.

Exact versions operate on finite-support distributions over the union of both
supports (``distributions.align``). The histogram estimator bins low-dimensional
sample sets on a shared grid and applies the same exact formulas to the binned
laws. All divergences are in natural log units; JSD therefore lives in [0, ln 2].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDist, align

LN2 = float(np.log(2.0))

# Histogram estimators are exponential in dimension; beyond 3-D they are not a
# sensible tool and HistogramEstimator refuses to be built.
MAX_ESTIMATOR_DIM = 3


def _tv_arrays(pv: np.ndarray, qv: np.ndarray) -> float:
    # Clamp away rounding overshoot; mathematically the value is in [0, 1].
    return float(min(1.0, 0.5 * np.abs(pv - qv).sum()))


def _jsd_arrays(pv: np.ndarray, qv: np.ndarray) -> float:
    total = pv + qv  # 2v / total is v / m, but finite where m underflows (a mass of 5e-324)
    terms = 0.0
    for v in (pv, qv):
        pos = v > 0
        v = v[pos]
        terms += float((v * np.log(2.0 * v / total[pos])).sum())
    # Cancellation can push the sum a few ulp outside [0, ln 2]; clamp so
    # sqrt(jsd) and the budget comparisons never see a stray sign.
    return float(min(LN2, max(0.0, 0.5 * terms)))


def tv_discrete(p: DiscreteDist, q: DiscreteDist) -> float:
    """Half the L1 distance between the probability tables; in [0, 1]."""
    _, pv, qv = align(p, q)
    return _tv_arrays(pv, qv)


def jsd_discrete(p: DiscreteDist, q: DiscreteDist) -> float:
    """Jensen-Shannon divergence in nats against the midpoint (p + q)/2.

    Conventions: 0 * log(0 / m) = 0; the result lies in [0, ln 2].
    """
    _, pv, qv = align(p, q)
    return _jsd_arrays(pv, qv)


@dataclass
class HistogramEstimator:
    """Shared-grid binning for sample-based divergence estimation.

    ``bounds`` is an array of per-dimension [low, high] pairs; samples outside
    are clipped to the edge bins (and counted) so the estimated laws stay
    normalized. ``smoothing`` is an additive pseudo-count per bin that keeps
    the KL terms finite; it introduces a small, documented bias.
    """

    bounds: np.ndarray  # [d, 2]
    bins_per_dim: int
    smoothing: float = 1e-9

    def __post_init__(self):
        self.bounds = np.asarray(self.bounds, dtype=np.float64)
        if self.bounds.shape == (2,):  # one [low, high] pair
            self.bounds = self.bounds.reshape(1, 2)
        if self.bounds.ndim != 2 or self.bounds.shape[1] != 2:
            raise ValueError(
                f"bounds must be a [d, 2] array of [low, high] pairs, got shape {self.bounds.shape}"
            )
        if self.bounds.shape[0] > MAX_ESTIMATOR_DIM:
            raise ValueError(
                f"histogram estimation is limited to {MAX_ESTIMATOR_DIM} dimensions, "
                f"got {self.bounds.shape[0]}"
            )
        if not np.isfinite(self.bounds).all():
            raise ValueError(f"bounds must be finite, got {self.bounds.tolist()}")
        if np.any(self.bounds[:, 0] >= self.bounds[:, 1]):
            raise ValueError("bounds need low < high in each dimension")
        if self.bins_per_dim < 2:
            raise ValueError("bins_per_dim must be >= 2")
        if not (np.isfinite(self.smoothing) and self.smoothing >= 0):
            raise ValueError(f"smoothing must be finite and >= 0, got {self.smoothing!r}")

    @property
    def dimension(self) -> int:
        return self.bounds.shape[0]

    def edges(self) -> list[np.ndarray]:
        return [
            np.linspace(low, high, self.bins_per_dim + 1)
            for low, high in self.bounds
        ]

    def bin_law(self, samples: np.ndarray) -> tuple[np.ndarray, int]:
        """Normalized (smoothed) bin-probability vector and the clipped-row count."""
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 2:
            raise ValueError("samples must be 2-D [n, d]")
        if samples.shape[0] == 0:
            raise ValueError("sample set is empty")
        if samples.shape[1] != self.dimension:
            raise ValueError(
                f"samples have dimension {samples.shape[1]}, estimator expects "
                f"{self.dimension}"
            )
        if not np.isfinite(samples).all():
            raise ValueError("samples contain non-finite values")
        low = self.bounds[:, 0]
        high = self.bounds[:, 1]
        outside = np.any((samples < low) | (samples > high), axis=1)
        clipped = np.clip(samples, low, high)
        counts, _ = np.histogramdd(clipped, bins=self.edges())
        law = counts.reshape(-1) + self.smoothing
        return law / law.sum(), int(outside.sum())


@dataclass
class DivergenceReport:
    """TV and JSD between two laws plus how they were measured."""

    tv: float
    jsd_nats: float
    method: str  # "histogram"; a column of the CSV report
    n_p: int
    n_q: int
    clipped_p: int = 0
    clipped_q: int = 0

    CSV_HEADER = "tv,jsd_nats,method,n_p,n_q"

    def csv_row(self) -> str:
        return f"{self.tv!r},{self.jsd_nats!r},{self.method},{self.n_p},{self.n_q}"


def estimate_divergences(
    samples_p: np.ndarray, samples_q: np.ndarray, est: HistogramEstimator
) -> DivergenceReport:
    """Bin both sample sets on the estimator's grid and compare the binned laws."""
    samples_p = np.asarray(samples_p, dtype=np.float64)
    samples_q = np.asarray(samples_q, dtype=np.float64)
    if samples_p.ndim != 2 or samples_q.ndim != 2:
        raise ValueError("sample sets must be 2-D [n, d]")
    if samples_p.shape[1] != samples_q.shape[1]:
        raise ValueError("sample sets must share one dimension")
    pv, clipped_p = est.bin_law(samples_p)
    qv, clipped_q = est.bin_law(samples_q)
    return DivergenceReport(
        tv=_tv_arrays(pv, qv),
        jsd_nats=_jsd_arrays(pv, qv),
        method="histogram",
        n_p=samples_p.shape[0],
        n_q=samples_q.shape[0],
        clipped_p=clipped_p,
        clipped_q=clipped_q,
    )
