"""Exact finite-support analysis of the two-player minimax game.

For discrete data, noise, and generator laws everything is computable in
closed form: the optimal discriminator is the ratio of the (noised) data
mixture to data-plus-generator mass, the resulting game value equals
``-log 4 + 2 * JSD(noised mixture, generator)``, and the global minimum over
generator laws can be found by brute-force grid enumeration. These exact
quantities are the ground truth that sampled training runs are judged
against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from itertools import accumulate, chain, combinations, islice
from typing import NamedTuple

import numpy as np

from .distributions import (
    DatasetPart,
    DiscreteDist,
    FileDataset,
    SpikeSlabNoise,
    budget,
    canonicalize,
    channel_rows,
    check_parts,
    discrete_convolve,
    from_json,
    to_json,
)
from .divergence import _jsd_arrays, _tv_arrays
from .divergence import tv_discrete

LOG4 = float(np.log(4.0))

# Exact-arithmetic inequality claims get 1e-12; identities that go through log
# evaluations get 1e-9.
INEQ_TOL = 1e-12
VALUE_TOL = 1e-9

_CLIP = 1e-12

# The check families ``instance_checks`` runs, ``all`` first.
CHECK_FAMILIES = ("all", "channel", "value", "chain")


class Masses(NamedTuple):
    """One law on a ``SharedSupport``: its mass per atom, and which atoms are on its own
    support (a zero-probability atom of an input law is on it; so ``align`` keeps it)."""

    mass: np.ndarray  # [K]
    on: np.ndarray    # [K] bool


def _on_union(p: Masses, q: Masses) -> tuple[np.ndarray, np.ndarray]:
    """Both laws' masses on the union of their supports, in support order: what ``align``
    returns when no third law's atoms merge two of theirs."""
    keep = p.on | q.on
    return p.mass[keep], q.mass[keep]


@dataclass
class SharedSupport:
    """Every law an instance's checks compare, as masses on one canonical support."""

    support: np.ndarray  # [K, d]
    clean: list[Masses]
    noised: list[Masses]
    p_g: Masses
    clean_mixture: Masses
    noised_mixture: Masses
    mixtures: tuple[np.ndarray, np.ndarray]   # both mixtures on the union of their supports
    generator: tuple[np.ndarray, np.ndarray]  # the noised mixture and p_g on theirs


@dataclass
class GameInstance:
    """Weighted data parts, their noise channels, and a candidate generator law.

    The parts are exact (``check_parts``): discrete laws behind finite-support slabs.
    The shared support and shared divergences are computed once: do not mutate an instance.
    """

    parts: list[DatasetPart]
    p_g: DiscreteDist

    def __post_init__(self):
        dim = check_parts(self.parts, "data_parts", "noise[{}]", exact=True)  # the file's names
        if self.p_g.dimension != dim:
            raise ValueError(f"p_g: dimension {self.p_g.dimension} differs from the data dimension {dim}")

    @staticmethod
    def of_config(config, p_g: DiscreteDist) -> "GameInstance":
        """A ``TrainConfig``'s exact instance against ``p_g``: a ``FileDataset`` part is read as
        its empirical law, rows merged by ``canonicalize``; any spec but that and a
        ``DiscreteDist``, or a continuous slab, is refused by its path in the config."""
        parts = []
        for part in config.datasets:
            if isinstance(part.spec, FileDataset):
                support, inverse = canonicalize(part.spec.load())
                part = replace(part, spec=DiscreteDist(support, np.bincount(inverse) / inverse.size))
            parts.append(part)
        check_parts(parts, "datasets", "datasets[{}].noise", exact=True)
        return GameInstance(parts, p_g)

    @functools.cached_property
    def shared_support(self) -> SharedSupport:
        """The clean parts, noised parts, ``p_g`` and both mixtures on one support.

        One ``canonicalize`` of every row the checks need: the clean supports,
        each part's ``channel_rows`` and ``p_g``'s support. Each law's masses are
        the ``bincount`` of its rows, and each mixture adds ``alpha * masses``
        part by part, the sums ``discrete_convolve`` and ``mixture`` form. All
        checks thus see the same atoms: a single-linkage chain through one law's
        atom merges atoms for every pair of laws, not only the pair it sits in.
        """
        clean = [(part.spec.support, part.spec.probs) for part in self.parts]
        channels = [channel_rows(part.spec, part.noise) for part in self.parts]
        blocks = clean + channels + [(self.p_g.support, self.p_g.probs)]
        support, inverse = canonicalize(np.concatenate([rows for rows, _ in blocks]))
        k = support.shape[0]
        bounds = [0, *accumulate(w.size for _, w in blocks)]
        atoms = [inverse[a:b] for a, b in zip(bounds, bounds[1:])]
        masses = [np.bincount(i, weights=w, minlength=k) for i, (_, w) in zip(atoms, blocks)]
        parts = len(clean)
        on_input = [np.bincount(i, minlength=k) > 0 for i in atoms[:parts] + atoms[-1:]]
        clean_mix, noised_mix = np.zeros(k), np.zeros(k)
        for part, c, n in zip(self.parts, masses[:parts], masses[parts:-1]):
            clean_mix += part.alpha * c
            noised_mix += part.alpha * n
        p_g = Masses(masses[-1], on_input[-1])
        clean_mixture, noised_mixture = Masses(clean_mix, clean_mix > 0), Masses(noised_mix, noised_mix > 0)
        return SharedSupport(
            support=support,
            clean=[Masses(m, on) for m, on in zip(masses[:parts], on_input)],
            noised=[Masses(m, m > 0) for m in masses[parts:-1]],
            p_g=p_g,
            clean_mixture=clean_mixture,
            noised_mixture=noised_mixture,
            mixtures=_on_union(clean_mixture, noised_mixture),
            generator=_on_union(noised_mixture, p_g),
        )

    @functools.cached_property
    def part_tvs(self) -> list[float]:
        """TV(clean part, noised part) per part: the mass each channel moved."""
        s = self.shared_support
        return [_tv_arrays(*_on_union(c, n)) for c, n in zip(s.clean, s.noised)]

    @functools.cached_property
    def mixture_jsd(self) -> float:
        """JSD(clean mixture, noised mixture)."""
        return _jsd_arrays(*self.shared_support.mixtures)

    @functools.cached_property
    def generator_jsd(self) -> float:
        """JSD(noised mixture, generator)."""
        return _jsd_arrays(*self.shared_support.generator)

    # These two convert the instance file's own layout (``_InstanceFile``), which
    # differs from the instance's fields; ``from_json`` alone cannot read it.
    def to_dict(self) -> dict:
        data_parts = [_PartFile(part.spec, part.alpha) for part in self.parts]
        return to_json(_InstanceFile(data_parts, [part.noise for part in self.parts], self.p_g))

    @staticmethod
    def from_dict(d: dict) -> "GameInstance":
        f = from_json(_InstanceFile, d)
        if len(f.data_parts) != len(f.noise):
            raise ValueError("one noise channel per data part is required")
        return GameInstance([DatasetPart(p.dist, p.alpha, n) for p, n in zip(f.data_parts, f.noise)], f.p_g)


@dataclass
class _PartFile:
    dist: DiscreteDist
    alpha: float


@dataclass
class _InstanceFile:
    """A ``GameInstance`` as its JSON file lays it out."""

    data_parts: list[_PartFile]
    noise: list[SpikeSlabNoise]
    p_g: DiscreteDist


def _xlog_share(x: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Elementwise ``x * log(x / total)``, and 0 where ``x`` is 0."""
    return x * np.log(np.divide(x, total, out=np.ones_like(total), where=x > 0))


def _with_mass(inst: GameInstance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shared-support atoms with noised-mixture or generator mass, and both masses there."""
    s = inst.shared_support
    a, b = s.noised_mixture.mass, s.p_g.mass
    keep = a + b > 0
    return keep, a[keep], b[keep]


def optimal_discriminator(inst: GameInstance) -> tuple[np.ndarray, np.ndarray]:
    """Best-response discriminator: ``(support [K, d], d_star [K])``, noised-data mass
    over total mass on the atoms of ``shared_support`` that carry either, in its order.
    """
    keep, a, b = _with_mass(inst)
    return inst.shared_support.support[keep], a / (a + b)


def game_value(inst: GameInstance, scores: np.ndarray) -> float:
    """Adversarial objective of a discriminator given by its ``[K]`` scores on
    ``optimal_discriminator``'s support, in that order.

    ``E_mix[log D] + E_gen[log(1 - D)]`` with D clamped into (0, 1) so the
    value stays finite for saturated scores. Scores of another length or with a
    non-finite entry are refused.
    """
    _, a, b = _with_mass(inst)
    d = np.asarray(scores, dtype=np.float64)
    if d.shape != a.shape or not np.isfinite(d).all():
        raise ValueError(
            f"scores must be {a.size} finite numbers, one per atom of optimal_discriminator's "
            f"support; got {d.size} of shape {d.shape}, {np.isfinite(d).sum()} finite"
        )
    d = np.clip(d, _CLIP, 1.0 - _CLIP)
    return float(np.sum(a[a > 0] * np.log(d[a > 0])) + np.sum(b[b > 0] * np.log(1.0 - d[b > 0])))


def optimal_value(inst: GameInstance) -> float:
    """Game value under the best-response discriminator.

    Computed as the exact expectation ``E_mix[log D*] + E_gen[log(1 - D*)]``;
    it always equals ``-log 4 + 2 * JSD(noised mixture, generator)`` up to
    roundoff, and -log 4 exactly when the two laws coincide.
    """
    a, b = inst.shared_support.generator
    total = a + b
    return float(np.sum(_xlog_share(a, total)) + np.sum(_xlog_share(b, total)))


MAX_GRID_SUPPORT = 4
GRID_BLOCK = 4096  # candidates scored per block in grid_minimize


@dataclass
class GridMinimum:
    """Result of brute-force minimization over generator laws on a simplex grid."""

    minimizer: DiscreteDist
    min_value: float
    candidates: int


def grid_minimize(p_data: DiscreteDist, grid_step: float) -> GridMinimum:
    """Enumerate every generator law on the grid and minimize the game value.

    The grid is all probability vectors over ``p_data``'s support whose
    coordinates are multiples of ``grid_step``, scored ``GRID_BLOCK`` at a
    time so memory does not grow with the grid. Candidates share the data
    law's support points, so no ``MERGE_RTOL`` merging applies. Ties go to
    the first candidate in lexicographic order. Supports larger than 4
    points are refused; enumeration is combinatorial.
    """
    m = p_data.support.shape[0]
    if m > MAX_GRID_SUPPORT:
        raise ValueError(
            f"grid enumeration supports at most {MAX_GRID_SUPPORT} points, got {m}"
        )
    if not 0.0 < grid_step <= 0.25:
        raise ValueError("grid_step must lie in (0, 0.25]")
    k = round(1.0 / grid_step)
    if abs(k * grid_step - 1.0) > 1e-9:
        raise ValueError(f"grid_step {grid_step} does not evenly divide 1")
    pd = p_data.probs
    best_value, best_probs, count = np.inf, None, 0
    # Stars and bars: a composition of k into m parts is m - 1 bar positions
    # among k + m - 1 slots, and both come in the same lexicographic order.
    blocks = combinations(range(k + m - 1), m - 1)
    while block := list(islice(blocks, GRID_BLOCK)):
        bars = np.fromiter(chain.from_iterable(block), np.int64).reshape(len(block), m - 1)
        pg = (np.diff(bars, axis=1, prepend=-1, append=k + m - 1) - 1) / k
        total = pd + pg
        data_terms, gen_terms = _xlog_share(pd, total), _xlog_share(pg, total)
        values = np.zeros(len(pg))
        for j in range(m):  # the order of the per-candidate scalar sum: data_0, gen_0, data_1, ...
            values += data_terms[:, j]
            values += gen_terms[:, j]
        i = int(np.argmin(values))
        if values[i] < best_value:
            best_value, best_probs = values[i], pg[i]
        count += len(pg)
    return GridMinimum(
        minimizer=DiscreteDist(p_data.support.copy(), best_probs),
        min_value=float(best_value),
        candidates=count,
    )


@dataclass
class Inequality:
    name: str
    lhs: float
    rhs: float
    holds: bool

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def csv_row(self) -> str:
        return f"{self.name},{self.lhs!r},{self.rhs!r},{self.slack!r},{self.holds}"


CHAIN_CSV_HEADER = "check,lhs,rhs,slack,holds"


def _ineq(name: str, lhs: float, rhs: float, tol: float = INEQ_TOL) -> Inequality:
    return Inequality(name=name, lhs=float(lhs), rhs=float(rhs), holds=lhs <= rhs + tol)


def channel_bound_check(p_x: DiscreteDist, noise: SpikeSlabNoise) -> Inequality:
    """TV between a law and its noised image, against the channel budget ``gamma``."""
    return _ineq("channel_tv", tv_discrete(p_x, discrete_convolve(p_x, noise)), noise.gamma)


def _check_delta(inst: GameInstance, delta: float) -> None:
    if not 0.0 <= delta <= 1.0:  # also refuses nan
        raise ValueError(f"delta must be a finite number in [0, 1], got {delta}")
    if budget(inst.parts) > delta + INEQ_TOL:
        gammas = [part.noise.gamma for part in inst.parts]
        raise ValueError(f"every channel gamma must be <= delta={delta}, got {gammas}")


def mixture_chain_check(inst: GameInstance, delta: float) -> list[Inequality]:
    """Verify the full divergence chain from per-part budgets to the generator.

    Exact discrete computation of, in order: per-part TV within the budget,
    mixture TV below the weighted per-part TVs (concavity), the weighted sum
    below delta, JSD below TV for the clean/noised mixture pair, and the
    triangle inequality for the square root of JSD. ``delta`` lies in [0, 1].
    """
    _check_delta(inst, delta)
    part_tvs = inst.part_tvs
    checks = [_ineq(f"part{l}_tv_budget", tv, delta) for l, tv in enumerate(part_tvs)]
    s = inst.shared_support
    tv_mix = _tv_arrays(*s.mixtures)
    weighted = float(np.dot([part.alpha for part in inst.parts], part_tvs))
    checks.append(_ineq("mixture_tv_concavity", tv_mix, weighted))
    checks.append(_ineq("weighted_tv_budget", weighted, delta))
    checks.append(_ineq("jsd_le_tv", inst.mixture_jsd, tv_mix))
    sqrt_total = np.sqrt(_jsd_arrays(*_on_union(s.clean_mixture, s.p_g)))
    sqrt_parts = np.sqrt(inst.generator_jsd) + np.sqrt(inst.mixture_jsd)
    checks.append(_ineq("sqrt_jsd_triangle", sqrt_total, sqrt_parts))
    return checks


def instance_checks(
    inst: GameInstance, which: str = "all", delta: float | None = None
) -> list[Inequality]:
    """Every exact check of an instance, as report rows: ``which`` is ``channel``
    (``part{l}_channel_tv``), ``value`` (``value_identity``), ``chain`` (the
    rows of ``mixture_chain_check``, ``delta`` defaulting to the largest
    gamma) or ``all`` three in that order. Shared divergences are computed once.
    """
    if which not in CHECK_FAMILIES:
        raise ValueError(f"unknown check family {which!r}")
    if delta is None:
        delta = budget(inst.parts)
    _check_delta(inst, delta)
    checks: list[Inequality] = []
    if which in ("channel", "all"):
        for l, (tv, part) in enumerate(zip(inst.part_tvs, inst.parts)):
            checks.append(_ineq(f"part{l}_channel_tv", tv, part.noise.gamma))
    if which in ("value", "all"):
        gap = abs(optimal_value(inst) - (-LOG4 + 2.0 * inst.generator_jsd))
        checks.append(_ineq("value_identity", gap, VALUE_TOL, tol=0.0))
    if which in ("chain", "all"):
        checks.extend(mixture_chain_check(inst, delta))
    return checks
