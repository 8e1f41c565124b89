"""Tests for distributions, samplers, and the spike-and-slab channel.

Exact convolution results are checked against a brute-force enumeration of
every (input atom, channel atom) pair written out in the test module, so
the library code and the oracle never share a code path.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tvgan import distributions as dist
from tvgan import oracle, training
from tvgan.divergence import jsd_discrete, tv_discrete


def _hand_key(point):
    """The brute-force reference's own point identity: coordinates rounded to 12 decimals."""
    return tuple(round(float(c), 12) for c in point)


def _table(law):
    """Each support point of ``law`` as a tuple, mapped to its probability."""
    return dict(zip(map(tuple, law.support.tolist()), law.probs.tolist()))


def _convolve_by_hand(p_x, noise):
    """Brute-force law of X + Z: loop over all atom pairs and accumulate."""
    table = {}
    pairs = [(np.zeros(p_x.dimension), 1.0 - noise.gamma)]
    for point, q in zip(*dist.slab_atoms(noise.slab)):
        pairs.append((np.atleast_1d(point), noise.gamma * q))
    for x, px in zip(p_x.support, p_x.probs):
        for z, pz in pairs:
            key = _hand_key(x + z)
            table[key] = table.get(key, 0.0) + float(px) * pz
    return {k: v for k, v in table.items() if v > 0}


class TestDiscreteDist:
    def test_one_dimensional_support_is_reshaped(self):
        d = dist.DiscreteDist(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert d.support.shape == (2, 1)
        assert d.dimension == 1

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            dist.DiscreteDist(np.array([0.0, 1.0]), np.array([1.5, -0.5]))

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            dist.DiscreteDist(np.array([0.0, 1.0]), np.array([0.5, 0.4]))

    def test_duplicate_support_points_rejected(self):
        with pytest.raises(ValueError):
            dist.DiscreteDist(np.array([1.0, 1.0]), np.array([0.5, 0.5]))

    def test_near_duplicates_merge_under_rounded_keys(self):
        """Points within the merge tolerance (1e-12 near zero) count as equal."""
        with pytest.raises(ValueError):
            dist.DiscreteDist(np.array([0.0, 1e-13]), np.array([0.5, 0.5]))

    def test_points_keep_their_rows_and_probabilities(self):
        d = dist.DiscreteDist(np.array([[1.0, 2.0], [0.0, 0.0]]), np.array([0.75, 0.25]))
        assert d.support.tolist() == [[1.0, 2.0], [0.0, 0.0]]
        assert d.probs.tolist() == [0.75, 0.25]

    def test_near_duplicates_at_large_magnitude_rejected(self):
        """The merge tolerance scales with magnitude: 1e-9 apart at 1e6 is one point."""
        with pytest.raises(ValueError):
            dist.DiscreteDist(np.array([1e6, 1e6 + 1e-9]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    def test_near_duplicates_found_whatever_lies_between_them(self, shift):
        """In lexicographic order (s, 7) sits between (s, 5) and (s + eps, 5);
        the duplicate pair is still found."""
        eps = 1e-13 if shift == 0.0 else 1e-9
        support = np.array([[shift, 5.0], [shift, 7.0], [shift + eps, 5.0]])
        with pytest.raises(ValueError):
            dist.DiscreteDist(support, np.full(3, 1 / 3))

    def test_points_just_outside_the_tolerance_stay_distinct(self):
        d = dist.DiscreteDist(np.array([1e6, 1e6 + 1e-5, 1e-11]), np.array([0.25, 0.25, 0.5]))
        assert d.support.shape == (3, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_support_or_probs_rejected(self, bad):
        with pytest.raises(ValueError):
            dist.DiscreteDist(np.array([0.0, bad]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            dist.DiscreteDist(np.array([0.0, 1.0]), np.array([bad, 0.5]))

    def test_building_a_law_calls_canonicalize_no_times(self, monkeypatch):
        """The distinct-points check tests the merge rule on the clusters alone."""
        calls, canonicalize = [], dist.canonicalize
        monkeypatch.setattr(dist, "canonicalize", lambda *args: calls.append(1) or canonicalize(*args))
        dist.DiscreteDist(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        # no coordinate separates every row: the rows are regrouped by both
        dist.DiscreteDist(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]), np.full(3, 1 / 3))
        with pytest.raises(ValueError, match="pairwise distinct"):
            dist.DiscreteDist(np.array([[0.0, 0.0], [0.0, 1.0], [1e-13, 0.0]]), np.full(3, 1 / 3))
        assert calls == []

    def test_support_without_coordinates_rejected(self):
        with pytest.raises(ValueError, match="support must have at least one coordinate, got shape \\(1, 0\\)"):
            dist.DiscreteDist(np.zeros((1, 0)), np.array([1.0]))

    def test_nested_probs_rejected(self):
        with pytest.raises(ValueError, match="probs must be a nonempty vector, got an array of shape \\(2, 1\\)"):
            dist.DiscreteDist(np.array([0.0, 1.0]), np.array([[0.5], [0.5]]))
        with pytest.raises(ValueError, match="probs must be a nonempty vector"):
            dist.DiscreteDist(np.array([0.0]), np.array([[1.0]]))
        assert dist.DiscreteDist(np.array([2.0]), 1.0).probs.shape == (1,)


class TestVectorFields:
    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: dist.GaussianSlab(np.array([[0.5, 0.5]])), "std"),
            (lambda: dist.PointMassSlab(np.array([[1.0]])), "offset"),
            (lambda: dist.MixtureComponent(np.array([[-1.5, 0.0]]), np.array([0.0625, 0.0625]), 1.0), "mean"),
            (lambda: dist.MixtureComponent(np.array([-1.5, 0.0]), np.array([[0.0625, 0.0625]]), 1.0), "cov_diag"),
            (lambda: dist.GaussianSlab(np.array([])), "std"),
            (lambda: dist.PointMassSlab([]), "offset"),
            (lambda: dist.MixtureComponent([], [], 1.0), "mean"),
        ],
        ids=["std", "offset", "mean", "cov_diag", "empty-std", "empty-offset", "empty-mean"],
    )
    def test_nested_or_empty_arrays_are_refused_naming_the_field(self, build, field):
        with pytest.raises(ValueError, match=f"^{field} must be a nonempty vector"):
            build()

    def test_a_scalar_is_one_coordinate(self):
        assert dist.GaussianSlab(0.5).std.shape == (1,)
        assert dist.PointMassSlab(1.0).offset.shape == (1,)
        component = dist.MixtureComponent(0.0, 1.0, 1.0)
        assert component.mean.shape == component.cov_diag.shape == (1,)


class TestCanonicalize:
    def test_rows_without_coordinates_are_one_atom(self):
        support, inverse, mass = dist.canonicalize(np.zeros((3, 0)), np.array([0.5, 0.25, 0.25]))
        assert support.shape == (1, 0)
        np.testing.assert_array_equal(inverse, [0, 0, 0])
        np.testing.assert_array_equal(mass, [1.0])


class TestMixture:
    def test_overlapping_atoms_merge(self):
        a = dist.DiscreteDist(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        b = dist.DiscreteDist(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
        m = dist.mixture([(a, 0.5), (b, 0.5)])
        table = _table(m)
        assert table[(0.0,)] == pytest.approx(0.25, abs=1e-15)
        assert table[(1.0,)] == pytest.approx(0.5, abs=1e-15)
        assert table[(2.0,)] == pytest.approx(0.25, abs=1e-15)

    def test_weights_must_sum_to_one(self):
        a = dist.DiscreteDist(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            dist.mixture([(a, 0.5), (a, 0.4)])


class TestSpikeSlabSampling:
    def test_gamma_zero_never_fires(self):
        noise = dist.SpikeSlabNoise(0.0, dist.GaussianSlab(np.array([1.0])))
        z, mask = dist.sample_spike_slab(noise, 500, np.random.default_rng(0))
        np.testing.assert_array_equal(z, np.zeros((500, 1)))
        assert not mask.any()

    def test_gamma_one_always_fires(self):
        noise = dist.SpikeSlabNoise(1.0, dist.PointMassSlab(np.array([2.0])))
        z, mask = dist.sample_spike_slab(noise, 100, np.random.default_rng(0))
        assert mask.all()
        np.testing.assert_array_equal(z, np.full((100, 1), 2.0))

    def test_slab_frequency_within_three_sigma(self):
        """The observed slab rate matches gamma within 3 binomial sigmas."""
        gamma, n = 0.3, 20000
        noise = dist.SpikeSlabNoise(gamma, dist.GaussianSlab(np.array([1.0])))
        _, mask = dist.sample_spike_slab(noise, n, np.random.default_rng(42))
        freq = mask.mean()
        sigma = np.sqrt(gamma * (1.0 - gamma) / n)
        assert abs(freq - gamma) <= 3.0 * sigma, (
            f"slab rate {freq:.4f} is off gamma={gamma} by more than 3 sigma"
        )

    def test_gamma_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            dist.SpikeSlabNoise(1.5, dist.PointMassSlab(np.array([1.0])))


class TestInjectNoise:
    def test_gamma_zero_is_identity_in_both_modes(self):
        rng = np.random.default_rng(1)
        batch = rng.normal(size=(20, 2))
        noise = dist.SpikeSlabNoise(0.0, dist.GaussianSlab(np.array([1.0, 1.0])))
        for mode in ("per_sample", "per_batch"):
            noised, mask = dist.inject_noise(batch, noise, mode, np.random.default_rng(2))
            np.testing.assert_array_equal(noised, batch)
            assert not mask.any()

    def test_per_batch_flips_one_coin(self):
        """In per-batch mode either every row is shifted or none is."""
        batch = np.zeros((50, 1))
        noise = dist.SpikeSlabNoise(0.5, dist.PointMassSlab(np.array([1.0])))
        rng = np.random.default_rng(7)
        saw_all, saw_none = False, False
        for _ in range(40):
            noised, mask = dist.inject_noise(batch, noise, "per_batch", rng)
            assert mask.all() or not mask.any()
            if mask.all():
                np.testing.assert_array_equal(noised, np.ones((50, 1)))
                saw_all = True
            else:
                np.testing.assert_array_equal(noised, batch)
                saw_none = True
        assert saw_all and saw_none

    def test_per_sample_mean_shift_matches_gamma(self):
        """A point-mass slab at offset 1 shifts the batch mean by about gamma."""
        gamma, n = 0.3, 20000
        batch = np.zeros((n, 2))
        noise = dist.SpikeSlabNoise(gamma, dist.PointMassSlab(np.array([1.0, 0.0])))
        noised, mask = dist.inject_noise(batch, noise, "per_sample", np.random.default_rng(5))
        assert abs(noised[:, 0].mean() - gamma) < 0.02
        np.testing.assert_array_equal(noised[:, 1], np.zeros(n))
        np.testing.assert_array_equal(noised[mask, 0], np.ones(int(mask.sum())))

    def test_dimension_mismatch_rejected(self):
        noise = dist.SpikeSlabNoise(0.5, dist.PointMassSlab(np.array([1.0])))
        with pytest.raises(ValueError):
            dist.inject_noise(np.zeros((4, 2)), noise, "per_sample", np.random.default_rng(0))

    def test_rng_is_required(self):
        noise = dist.SpikeSlabNoise(0.5, dist.PointMassSlab(np.array([1.0])))
        with pytest.raises(ValueError):
            dist.inject_noise(np.zeros((4, 1)), noise, "per_sample")


class TestDiscreteConvolve:
    def test_gamma_zero_returns_same_law(self):
        p = dist.DiscreteDist(np.array([0.0, 3.0]), np.array([0.25, 0.75]))
        noise = dist.SpikeSlabNoise(0.0, dist.PointMassSlab(np.array([1.0])))
        out = dist.discrete_convolve(p, noise)
        assert _table(out) == _table(p)

    def test_point_mass_input_splits_into_two_atoms(self):
        p = dist.DiscreteDist(np.array([0.0]), np.array([1.0]))
        noise = dist.SpikeSlabNoise(0.3, dist.PointMassSlab(np.array([1.0])))
        out = dist.discrete_convolve(p, noise)
        table = _table(out)
        assert table[(0.0,)] == pytest.approx(0.7, abs=1e-15)
        assert table[(1.0,)] == pytest.approx(0.3, abs=1e-15)

    def test_two_atom_input_with_disjoint_shift(self):
        """Uniform on {0, 10} through a +1 slab at gamma = 0.3.

        All four (x, z) products are written out: the shifted copies land on
        fresh points, so the output has four atoms.
        """
        p = dist.DiscreteDist(np.array([0.0, 10.0]), np.array([0.5, 0.5]))
        noise = dist.SpikeSlabNoise(0.3, dist.PointMassSlab(np.array([1.0])))
        out = dist.discrete_convolve(p, noise)
        expected = {
            (0.0,): 0.5 * 0.7,
            (1.0,): 0.5 * 0.3,
            (10.0,): 0.5 * 0.7,
            (11.0,): 0.5 * 0.3,
        }
        table = _table(out)
        assert set(table) == set(expected)
        for key, value in expected.items():
            assert table[key] == pytest.approx(value, abs=1e-15)

    def test_overlapping_shift_merges_atoms(self):
        """Uniform on {0, 1} through a +1 slab: the shifted 0 lands on 1."""
        p = dist.DiscreteDist(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        noise = dist.SpikeSlabNoise(0.5, dist.PointMassSlab(np.array([1.0])))
        table = _table(dist.discrete_convolve(p, noise))
        assert table[(0.0,)] == pytest.approx(0.25, abs=1e-15)
        assert table[(1.0,)] == pytest.approx(0.5, abs=1e-15)
        assert table[(2.0,)] == pytest.approx(0.25, abs=1e-15)

    def test_matches_brute_force_on_random_triples(self):
        """Fifty random (law, slab, gamma) triples agree with the hand loop,
        stay normalized, and keep total variation within gamma."""
        rng = np.random.default_rng(314)
        for trial in range(50):
            m = int(rng.integers(1, 6))
            support = rng.choice(np.arange(-20, 21, dtype=np.float64), size=m, replace=False)
            probs = rng.dirichlet(np.ones(m))
            p = dist.DiscreteDist(support, probs)

            if rng.random() < 0.5:
                slab = dist.PointMassSlab(np.array([float(rng.integers(-5, 6))]))
            else:
                k = int(rng.integers(1, 4))
                pts = rng.choice(np.arange(-5, 6, dtype=np.float64), size=k, replace=False)
                slab = dist.DiscreteDist(pts, rng.dirichlet(np.ones(k)))
            gamma = float(rng.uniform(0.0, 1.0))
            noise = dist.SpikeSlabNoise(gamma, slab)

            out = dist.discrete_convolve(p, noise)
            assert np.all(out.probs >= 0)
            assert abs(out.probs.sum() - 1.0) <= 1e-12

            by_hand = _convolve_by_hand(p, noise)
            table = _table(out)
            assert set(table) == set(by_hand), f"trial {trial}: support differs"
            for key in by_hand:
                assert table[key] == pytest.approx(by_hand[key], abs=1e-12), (
                    f"trial {trial}: mass at {key} differs"
                )

            assert tv_discrete(p, out) <= gamma + 1e-12, (
                f"trial {trial}: tv {tv_discrete(p, out)} exceeds gamma {gamma}"
            )

    def test_disjoint_shift_achieves_the_bound_exactly(self):
        """With fully disjoint shifted support the TV equals gamma.

        gamma = 0.25 stays exact in binary floating point, so the equality
        is bitwise; an awkward gamma like 0.3 matches to one ulp.
        """
        p = dist.DiscreteDist(np.array([0.0, 10.0]), np.array([0.5, 0.5]))

        out = dist.discrete_convolve(p, dist.SpikeSlabNoise(0.25, dist.PointMassSlab(np.array([1.0]))))
        assert tv_discrete(p, out) == 0.25

        out = dist.discrete_convolve(p, dist.SpikeSlabNoise(0.3, dist.PointMassSlab(np.array([1.0]))))
        assert tv_discrete(p, out) == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize("shift", [0.0, 1e3, 1e6])
    def test_coincident_sums_merge_at_every_magnitude(self, shift):
        """{s + 0.1, s + 0.3} through a +0.2 point mass at gamma = 1/2: the
        shifted s + 0.1 lands on s + 0.3 (up to roundoff), so the output has
        three atoms and the TV is exactly 1/4, not 1/2, at every shift s."""
        p = dist.DiscreteDist(np.array([shift + 0.1, shift + 0.3]), np.array([0.5, 0.5]))
        noise = dist.SpikeSlabNoise(0.5, dist.PointMassSlab(np.array([0.2])))
        out = dist.discrete_convolve(p, noise)
        assert out.support.shape == (3, 1)
        np.testing.assert_array_equal(out.probs, [0.25, 0.5, 0.25])
        assert tv_discrete(p, out) == 0.25

    def test_divergences_do_not_depend_on_a_common_shift(self):
        """Decimal offsets, several of whose sums coincide, give the same
        support size, TV and JSD at shifts 0, 1e3 and 1e6."""
        base = np.array([[0.1, 0.0], [0.3, 0.2], [0.7, -0.4], [1.1, 0.2]])
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        offsets = np.array([[0.2, 0.2], [0.4, -0.6], [-0.6, 0.0]])
        slab = dist.DiscreteDist(offsets, np.array([0.5, 0.3, 0.2]))
        noise = dist.SpikeSlabNoise(0.35, slab)
        results = []
        for shift in (0.0, 1e3, 1e6):
            p = dist.DiscreteDist(base + shift, probs)
            out = dist.discrete_convolve(p, noise)
            results.append((out.support.shape[0], tv_discrete(p, out), jsd_discrete(p, out)))
        assert results[0][0] < base.shape[0] * 4, "the instance must merge some sums"
        for size, tv, jsd in results[1:]:
            assert size == results[0][0]
            assert tv == pytest.approx(results[0][1], abs=1e-12)
            assert jsd == pytest.approx(results[0][2], abs=1e-12)

    def test_continuous_slab_rejected(self):
        p = dist.DiscreteDist(np.array([0.0]), np.array([1.0]))
        noise = dist.SpikeSlabNoise(0.5, dist.GaussianSlab(np.array([1.0])))
        with pytest.raises(dist.UnsupportedSlabError):
            dist.discrete_convolve(p, noise)

    def test_dimension_mismatch_rejected(self):
        p = dist.DiscreteDist(np.array([[0.0, 0.0]]), np.array([1.0]))
        noise = dist.SpikeSlabNoise(0.5, dist.PointMassSlab(np.array([1.0])))
        with pytest.raises(ValueError):
            dist.discrete_convolve(p, noise)


class TestSlabSamplers:
    def test_gaussian_slab_moments(self):
        slab = dist.GaussianSlab(np.array([0.5, 2.0]))
        z = dist.sample_slab(slab, 50000, np.random.default_rng(11))
        np.testing.assert_allclose(z.std(axis=0), [0.5, 2.0], rtol=0.05)
        np.testing.assert_allclose(z.mean(axis=0), [0.0, 0.0], atol=0.05)

    def test_dirichlet_slab_lands_on_simplex(self):
        slab = dist.DirichletSlab(3)
        z = dist.sample_slab(slab, 1000, np.random.default_rng(12))
        assert np.all(z >= 0)
        np.testing.assert_allclose(z.sum(axis=1), 1.0, atol=1e-12)

    def test_point_mass_slab_is_constant(self):
        slab = dist.PointMassSlab(np.array([1.5, -2.0]))
        z = dist.sample_slab(slab, 7, np.random.default_rng(0))
        np.testing.assert_array_equal(z, np.tile([1.5, -2.0], (7, 1)))

    def test_discrete_slab_draws_from_support(self):
        slab = dist.DiscreteDist(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        z = dist.sample_slab(slab, 200, np.random.default_rng(3))
        assert set(np.unique(z)) <= {-1.0, 1.0}

    def test_gaussian_slab_has_no_atoms(self):
        with pytest.raises(dist.UnsupportedSlabError):
            dist.slab_atoms(dist.GaussianSlab(np.array([1.0])))


class TestDatasets:
    def test_single_atom_law_samples_are_constant(self):
        spec = dist.DiscreteDist(np.array([[2.0, 3.0]]), np.array([1.0]))
        x = dist.sample_dataset(spec, 25, np.random.default_rng(0))
        np.testing.assert_array_equal(x, np.tile([2.0, 3.0], (25, 1)))

    def test_noiseless_ring_lies_on_the_circle(self):
        spec = dist.Ring(radius=1.0, noise_std=0.0)
        x = dist.sample_dataset(spec, 500, np.random.default_rng(1))
        np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-9)

    def test_gaussian_mixture_component_means(self):
        spec = dist.GaussianMixture(
            [
                dist.MixtureComponent(np.array([-3.0, 0.0]), np.array([0.01, 0.01]), 0.5),
                dist.MixtureComponent(np.array([3.0, 0.0]), np.array([0.01, 0.01]), 0.5),
            ]
        )
        x = dist.sample_dataset(spec, 10000, np.random.default_rng(2))
        left = x[x[:, 0] < 0]
        right = x[x[:, 0] > 0]
        np.testing.assert_allclose(left.mean(axis=0), [-3.0, 0.0], atol=0.05)
        np.testing.assert_allclose(right.mean(axis=0), [3.0, 0.0], atol=0.05)
        assert abs(left.shape[0] / 10000 - 0.5) < 0.05

    def test_gaussian_mixture_draws_match_arrays_built_per_call(self):
        """The arrays kept on the spec give the draws of arrays rebuilt on every
        call, bit for bit: the same choice and standard_normal calls."""
        spec = dist.GaussianMixture(
            [
                dist.MixtureComponent(np.array([-1.0, 2.0]), np.array([0.3, 0.05]), 0.2),
                dist.MixtureComponent(np.array([0.5, 0.0]), np.array([1.0, 2.0]), 0.3),
                dist.MixtureComponent(np.array([4.0, -1.0]), np.array([0.01, 0.7]), 0.5),
            ]
        )
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        for n in (1, 7, 128, 1000):
            weights = np.array([c.weight for c in spec.components])
            means = np.stack([c.mean for c in spec.components])
            stds = np.sqrt(np.stack([c.cov_diag for c in spec.components]))
            which = ref_rng.choice(3, size=n, p=weights / weights.sum())
            expected = means[which] + stds[which] * ref_rng.standard_normal((n, 2))
            assert dist.sample_dataset(spec, n, rng).tobytes() == expected.tobytes()

    def test_file_dataset_resamples_file_rows(self, tmp_path):
        path = tmp_path / "rows.txt"
        path.write_text("0.5 1.5\n2.5 3.5\n-1.0 0.0\n")
        spec = dist.FileDataset(str(path))
        assert dist.dataset_dimension(spec) == 2
        x = dist.sample_dataset(spec, 40, np.random.default_rng(4))
        file_rows = {(0.5, 1.5), (2.5, 3.5), (-1.0, 0.0)}
        for row in x:
            assert tuple(row) in file_rows

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_file_dataset_rejects_non_finite_rows(self, tmp_path, bad):
        path = tmp_path / "rows.txt"
        path.write_text(f"0.5 1.5\n{bad} 3.5\n")
        with pytest.raises(ValueError, match="rows.txt"):
            dist.FileDataset(str(path)).load()

    def test_file_dataset_missing_file(self):
        spec = dist.FileDataset("/nonexistent/rows.txt")
        with pytest.raises(FileNotFoundError):
            spec.load()

    def test_mixture_weights_validated(self):
        with pytest.raises(ValueError):
            dist.GaussianMixture(
                [dist.MixtureComponent(np.zeros(2), np.ones(2), 0.7)]
            )


class TestCategoricalDraws:
    """Categorical draws come from a CDF built once per law. They must stay
    what ``Generator.choice(k, size=n, p=p)`` draws, index for index and with
    the same generator state afterwards, so seeded runs keep their bits."""

    @staticmethod
    def _random_laws(seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            k = int(rng.integers(2, 10))
            p = rng.dirichlet(np.full(k, float(rng.uniform(0.2, 5.0))))
            p[-1] = 1.0 - p[:-1].sum()
            yield k, p

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024, 31337])
    def test_cdf_draws_equal_generator_choice(self, seed):
        for k, p in self._random_laws(seed):
            cdf = dist._categorical_cdf(p)
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for n in (1, 5, 128, 1000):
                got = dist._draw_categorical(cdf, n, rng)
                want = ref.choice(k, size=n, p=p)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("seed", [3, 11])
    def test_discrete_datasets_and_slabs_draw_like_choice(self, seed):
        for k, p in self._random_laws(seed):
            law = dist.DiscreteDist(np.arange(k, dtype=np.float64) * 0.5, p)
            for sample in (dist.sample_dataset, dist.sample_slab):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                for n in (1, 64, 300):
                    want = law.support[ref.choice(k, size=n, p=p)]
                    assert sample(law, n, rng).tobytes() == want.tobytes()
                assert rng.bit_generator.state == ref.bit_generator.state

    def test_laws_that_are_never_drawn_build_no_cdf(self):
        law = dist.DiscreteDist(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        noised = dist.discrete_convolve(law, dist.SpikeSlabNoise(0.5, dist.PointMassSlab([0.5])))
        assert "_cdf" not in vars(law) and "_cdf" not in vars(noised)
        dist.sample_dataset(law, 3, np.random.default_rng(0))
        assert "_cdf" in vars(law)


class TestLatentPrior:
    def test_gaussian_latent_moments(self):
        prior = dist.LatentPrior(3, "gaussian")
        z = dist.sample_latent(prior, 50000, np.random.default_rng(8))
        assert z.shape == (50000, 3)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=0.05)
        np.testing.assert_allclose(z.std(axis=0), 1.0, rtol=0.05)

    def test_uniform_latent_bounds(self):
        prior = dist.LatentPrior(2, "uniform")
        z = dist.sample_latent(prior, 10000, np.random.default_rng(9))
        assert np.all(z >= -1.0) and np.all(z <= 1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            dist.LatentPrior(2, "cauchy")


class TestSerialization:
    @pytest.mark.parametrize(
        "slab",
        [
            dist.GaussianSlab(np.array([0.5, 1.5])),
            dist.DirichletSlab(3),
            dist.PointMassSlab(np.array([4.0, 0.0])),
            dist.DiscreteDist(np.array([-1.0, 1.0]), np.array([0.25, 0.75])),
        ],
    )
    def test_slab_roundtrip(self, slab):
        again = dist.from_json(dist.SlabSpec, dist.to_json(slab))
        assert type(again) is type(slab)
        assert dist.to_json(again) == dist.to_json(slab)

    def test_noise_roundtrip(self):
        noise = dist.SpikeSlabNoise(0.3, dist.PointMassSlab(np.array([1.0])))
        again = dist.from_json(dist.SpikeSlabNoise, dist.to_json(noise))
        assert again.gamma == 0.3
        np.testing.assert_array_equal(again.slab.offset, [1.0])

    @pytest.mark.parametrize(
        "spec",
        [
            dist.GaussianMixture(
                [dist.MixtureComponent(np.array([1.0]), np.array([0.5]), 1.0)]
            ),
            dist.Ring(2.0, 0.05),
            dist.DiscreteDist(np.array([0.0, 1.0]), np.array([0.5, 0.5])),
            dist.FileDataset("some/rows.txt"),
        ],
    )
    def test_dataset_spec_roundtrip(self, spec):
        again = dist.from_json(dist.DatasetSpec, dist.to_json(spec))
        assert dist.to_json(again) == dist.to_json(spec)

    def test_readers_are_built_on_first_use_and_kept(self):
        """Importing the package builds no JSON reader; reading a type resolves its readers once."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = "import tvgan.cli; from tvgan.distributions import _reader; print(_reader.cache_info().currsize)"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "0"
        spec = dist.to_json(dist.GaussianMixture([dist.MixtureComponent(np.array([1.0]), np.array([0.5]), 1.0)]))
        dist.from_json(dist.DatasetSpec, spec)
        built = dist._reader.cache_info().misses
        dist.from_json(dist.DatasetSpec, spec)
        assert dist._reader.cache_info().misses == built

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ValueError):
            dist.from_json(dist.SlabSpec, {"kind": "banana"})
        with pytest.raises(ValueError):
            dist.from_json(dist.DatasetSpec, {"kind": "banana"})


def _two_parts(weight):
    law = dist.DiscreteDist(np.array([[0.0]]), np.array([1.0]))
    noise = dist.SpikeSlabNoise(0.0, dist.PointMassSlab(np.array([1.0])))
    return [dist.DatasetPart(law, weight, noise), dist.DatasetPart(law, 0.5, noise)]


@pytest.mark.parametrize(
    "build",
    [
        lambda w: dist.mixture([(part.spec, part.alpha) for part in _two_parts(w)]),
        lambda w: dist.GaussianMixture(
            [dist.MixtureComponent([0.0], [1.0], w), dist.MixtureComponent([1.0], [1.0], 0.5)]
        ),
        lambda w: oracle.GameInstance(_two_parts(w), _two_parts(w)[0].spec),
        lambda w: training.TrainConfig(datasets=_two_parts(w), latent=dist.LatentPrior(1)),
    ],
    ids=["mixture", "gaussian-mixture", "game-instance", "train-config"],
)
def test_a_nan_weight_is_refused(build):
    """NaN fails every comparison, so each weight check is written to pass only on good
    weights: a NaN weight beside 0.5 is refused as JSON already refuses it."""
    with pytest.raises(ValueError, match="sum to 1"):
        build(math.nan)
