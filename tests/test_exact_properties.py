"""Property tests of the exact layer on random finite-support laws.

Support points are multiples of 0.1 (inexact in binary), so Minkowski sums
collide only up to roundoff and every property exercises the merging of
coincident points. Example counts are bounded to keep the suite fast.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvgan import distributions as dist
from tvgan import oracle, training
from tvgan.divergence import jsd_discrete, tv_discrete

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def laws(draw, dim):
    m = draw(st.integers(1, 6))
    points = st.tuples(*[st.integers(-8, 8)] * dim)
    cells = draw(st.lists(points, min_size=m, max_size=m, unique=True))
    weights = np.array(draw(st.lists(st.integers(1, 20), min_size=m, max_size=m)), dtype=float)
    return dist.DiscreteDist(np.array(cells, dtype=float) * 0.1, weights / weights.sum())


@st.composite
def law_and_channel(draw):
    dim = draw(st.integers(1, 2))
    gamma = draw(st.sampled_from([0.0, 0.25, 0.3, 0.5, 1.0]) | st.floats(0.0, 1.0))
    if draw(st.booleans()):
        offset = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
        slab = dist.PointMassSlab(np.array(offset) * 0.1)
    else:
        slab = draw(laws(dim))
    return draw(laws(dim)), dist.SpikeSlabNoise(gamma, slab)


def _same_law(a, b):
    assert a.support.shape == b.support.shape
    np.testing.assert_allclose(a.support, b.support, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(a.probs, b.probs, rtol=0, atol=1e-14)


@SETTINGS
@given(law_and_channel())
def test_convolve_conserves_mass_and_keeps_tv_within_gamma(case):
    p, noise = case
    out = dist.discrete_convolve(p, noise)
    assert np.all(out.probs > 0)
    assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert tv_discrete(p, out) <= noise.gamma + 1e-12
    # The output is a valid law: re-validation finds no coincident atoms.
    dist.DiscreteDist(out.support, out.probs)


@SETTINGS
@given(st.integers(1, 2).flatmap(lambda d: st.lists(laws(d), min_size=1, max_size=4)), st.data())
def test_mixture_conserves_mass(parts, data):
    raw = np.array(data.draw(st.lists(st.integers(1, 9), min_size=len(parts), max_size=len(parts))))
    mixed = dist.mixture(list(zip(parts, raw / raw.sum())))
    assert mixed.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert mixed.support.shape[0] <= sum(p.support.shape[0] for p in parts)
    dist.DiscreteDist(mixed.support, mixed.probs)


@SETTINGS
@given(law_and_channel(), st.randoms(use_true_random=False))
def test_reordering_support_rows_changes_nothing(case, rnd):
    p, noise = case
    perm = np.array(rnd.sample(range(p.probs.size), p.probs.size))
    shuffled = dist.DiscreteDist(p.support[perm], p.probs[perm])
    out = dist.discrete_convolve(p, noise)
    _same_law(dist.discrete_convolve(shuffled, noise), out)
    assert tv_discrete(shuffled, out) == pytest.approx(tv_discrete(p, out), abs=1e-14)
    assert jsd_discrete(shuffled, out) == pytest.approx(jsd_discrete(p, out), abs=1e-14)


@SETTINGS
@given(law_and_channel(), st.sampled_from([1e3, -1e3, 1e6, -1e6]))
def test_common_translation_changes_nothing(case, shift):
    p, noise = case
    moved = dist.DiscreteDist(p.support + shift, p.probs)
    out, out_moved = dist.discrete_convolve(p, noise), dist.discrete_convolve(moved, noise)
    assert out_moved.support.shape == out.support.shape
    np.testing.assert_allclose(out_moved.support - shift, out.support, rtol=0, atol=1e-9)
    np.testing.assert_allclose(out_moved.probs, out.probs, rtol=0, atol=1e-14)
    assert tv_discrete(moved, out_moved) == pytest.approx(tv_discrete(p, out), abs=1e-12)
    assert jsd_discrete(moved, out_moved) == pytest.approx(jsd_discrete(p, out), abs=1e-12)


@st.composite
def lattice_laws(draw, dim, scale):
    """Like ``laws``, on a lattice of spacing ``scale``, and with zero-probability atoms."""
    m = draw(st.integers(1, 6))
    points = st.tuples(*[st.integers(-8, 8)] * dim)
    cells = draw(st.lists(points, min_size=m, max_size=m, unique=True))
    weights = np.array(draw(st.lists(st.integers(0, 20), min_size=m, max_size=m)), dtype=float)
    weights[draw(st.integers(0, m - 1))] += 1.0
    return dist.DiscreteDist(np.array(cells, dtype=float) * scale, weights / weights.sum())


@st.composite
def game_instances(draw):
    dim = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([0.1, 0.3, 1.0, 1e6]))
    parts = draw(st.integers(1, 3))
    raw = np.array(draw(st.lists(st.integers(1, 9), min_size=parts, max_size=parts)), dtype=float)
    noise = []
    for _ in range(parts):
        gamma = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        if draw(st.booleans()):
            offset = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
            slab = dist.PointMassSlab(np.array(offset) * scale)
        else:
            slab = draw(lattice_laws(dim, scale))
        noise.append(dist.SpikeSlabNoise(gamma, slab))
    data = [dist.DatasetPart(draw(lattice_laws(dim, scale)), float(a), n) for a, n in zip(raw / raw.sum(), noise)]
    return oracle.GameInstance(data, draw(lattice_laws(dim, scale)))


def _rows_from_the_primitives(inst):
    """``instance_checks(inst, "all")`` recomputed pair by pair with ``discrete_convolve``,
    ``mixture``, ``align``, ``tv_discrete`` and ``jsd_discrete``."""
    clean = [part.spec for part in inst.parts]
    alphas = [part.alpha for part in inst.parts]
    noised = [dist.discrete_convolve(part.spec, part.noise) for part in inst.parts]
    c_mix, n_mix = dist.mixture(list(zip(clean, alphas))), dist.mixture(list(zip(noised, alphas)))
    delta = max(part.noise.gamma for part in inst.parts)
    part_tvs = [tv_discrete(p, q) for p, q in zip(clean, noised)]
    _, a, b = dist.align(n_mix, inst.p_g)
    total = a + b
    xlog = [x * np.log(np.divide(x, total, out=np.ones_like(total), where=x > 0)) for x in (a, b)]
    value = float(np.sum(xlog[0]) + np.sum(xlog[1]))
    tv_mix = tv_discrete(c_mix, n_mix)
    weighted = float(np.dot(alphas, part_tvs))
    rows = [(f"part{l}_channel_tv", tv, part.noise.gamma) for l, (tv, part) in enumerate(zip(part_tvs, inst.parts))]
    rows.append(("value_identity", abs(value - (-oracle.LOG4 + 2.0 * jsd_discrete(n_mix, inst.p_g))), oracle.VALUE_TOL))
    rows += [(f"part{l}_tv_budget", tv, delta) for l, tv in enumerate(part_tvs)]
    rows.append(("mixture_tv_concavity", tv_mix, weighted))
    rows.append(("weighted_tv_budget", weighted, delta))
    rows.append(("jsd_le_tv", jsd_discrete(c_mix, n_mix), tv_mix))
    sqrt_parts = np.sqrt(jsd_discrete(n_mix, inst.p_g)) + np.sqrt(jsd_discrete(c_mix, n_mix))
    rows.append(("sqrt_jsd_triangle", np.sqrt(jsd_discrete(c_mix, inst.p_g)), sqrt_parts))
    return [(name, repr(float(lhs)), repr(float(rhs))) for name, lhs, rhs in rows]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(game_instances())
def test_instance_checks_equal_the_pairwise_primitives_byte_for_byte(inst):
    """One canonical support gives every report row the bits of the pairwise computation
    on lattice laws, whose sums merge only up to roundoff (no single-linkage chains)."""
    rows = [tuple(row.csv_row().split(",")[:3]) for row in oracle.instance_checks(inst, "all")]
    assert rows == _rows_from_the_primitives(inst)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(game_instances())
def test_best_response_on_the_shared_support_equals_the_pairwise_ratio(inst):
    """On lattice laws the best response's atoms are those of ``align`` of the noised
    mixture and p_g, with the same ratios, and its game value is the optimal value."""
    noised = [(dist.discrete_convolve(part.spec, part.noise), part.alpha) for part in inst.parts]
    points, a, b = dist.align(dist.mixture(noised), inst.p_g)
    keep = a + b > 0
    support, d_star = oracle.optimal_discriminator(inst)
    assert support.shape == points[keep].shape
    np.testing.assert_allclose(support, points[keep], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(d_star, a[keep] / (a + b)[keep], rtol=0, atol=1e-12)
    assert abs(oracle.game_value(inst, d_star) - oracle.optimal_value(inst)) <= 1e-9


def _clusters_before(values, rtol):
    """``distributions._clusters`` as it was before the distinct-points check, kept as a reference."""
    order = values.argsort(kind="stable")
    s = values[order]
    mag = np.abs(s)
    new = np.empty(s.size, dtype=bool)
    new[0], new[1:] = True, s[1:] - s[:-1] > rtol * np.maximum(1.0, np.maximum(mag[1:], mag[:-1]))
    ids = np.empty(s.size, dtype=np.int64)
    ids[order] = np.add.accumulate(new, dtype=np.int64) - 1
    return ids, order[new]


def _canonicalize_before(rows, *weights):
    """``distributions.canonicalize`` as it was, with an integer regrouping after every coordinate."""
    inverse = np.zeros(rows.shape[0], dtype=np.int64)
    for col in rows.T:
        ids, _ = _clusters_before(col, dist.MERGE_RTOL)
        inverse, first = _clusters_before(inverse * (ids.max() + 1) + ids, 0.0)
    masses = [np.bincount(inverse, weights=w, minlength=first.size) for w in weights]
    return (rows[first], inverse, *masses)


# Nudges in merge tolerances: within (0.5, 0.9), at (1.0) and beyond (1.1, 2.0) the
# tolerance; 0.9 and 1.8 from one point make a single-linkage chain.
NUDGES = [0.0, 0.5, -0.5, 0.9, 1.0, -1.0, 1.1, 1.8, 2.0, -2.0]


@st.composite
def near_supports(draw):
    """Rows on a coarse lattice of spacing 0.1, 0.3, 1 or 1e6, so cells repeat, each
    coordinate nudged by a few merge tolerances; sometimes a chain of rows each 0.9
    tolerances past the last in one coordinate."""
    dim = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([0.1, 0.3, 1.0, 1e6]))
    m = draw(st.integers(1, 7))
    cells = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=m, max_size=m))
    rows = np.array(cells, dtype=float) * scale
    nudges = np.array(draw(st.lists(st.sampled_from(NUDGES), min_size=m * dim, max_size=m * dim)))
    rows += nudges.reshape(m, dim) * dist.MERGE_RTOL * np.maximum(1.0, np.abs(rows))
    links = draw(st.integers(0, 3))
    if links:
        start, j = rows[draw(st.integers(0, m - 1))], draw(st.integers(0, dim - 1))
        chain = np.repeat(start[None, :], links, axis=0)
        chain[:, j] += 0.9 * dist.MERGE_RTOL * max(1.0, abs(start[j])) * np.arange(1, links + 1)
        rows = np.vstack([rows, chain])
    return rows


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(near_supports())
def test_the_distinct_points_check_accepts_exactly_what_canonicalize_keeps(rows):
    m = rows.shape[0]
    keeps_every_row = dist.canonicalize(rows)[0].shape[0] == m
    assert dist._distinct(rows) == keeps_every_row
    probs = np.full(m, 1.0 / m)
    if keeps_every_row:
        dist.DiscreteDist(rows, probs)
    else:
        with pytest.raises(ValueError, match="pairwise distinct"):
            dist.DiscreteDist(rows, probs)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(near_supports(), st.randoms(use_true_random=False))
def test_canonicalize_equals_its_previous_implementation_bit_for_bit(rows, rnd):
    weights = np.array([rnd.random() for _ in range(rows.shape[0])])
    now, before = dist.canonicalize(rows, weights), _canonicalize_before(rows, weights)
    assert len(now) == len(before) == 3
    for a, b in zip(now, before):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(game_instances())
def test_of_config_rows_equal_the_hand_built_instance_byte_for_byte(inst):
    """A training config of the instance's parts, written to JSON and read back, gives
    through ``GameInstance.of_config`` the report of the instance built by hand."""
    config = training.TrainConfig(datasets=inst.parts, latent=dist.LatentPrior(1))
    read_back = dist.from_json(training.TrainConfig, dist.to_json(config))
    rows = [row.csv_row() for row in oracle.instance_checks(oracle.GameInstance.of_config(read_back, inst.p_g))]
    assert rows == [row.csv_row() for row in oracle.instance_checks(inst)]
