"""Tests for exact and histogram-based total variation / Jensen-Shannon.

Hand-checked values are written as explicit formulas next to the frozen
constants; the Gaussian-shift benchmark value is recomputed by quadrature
(scipy) inside the test so the frozen number can never drift silently.
"""

import numpy as np
import pytest
from scipy import integrate, stats

from tvgan import distributions as dist
from tvgan import divergence as dv
from tvgan.distributions import from_json

# 2*Phi(1/2) - 1 for unit Gaussians one apart; re-derived by quadrature below.
GAUSSIAN_SHIFT_TV = 0.38292492254802624

# 0.5*(0.5*ln(0.5/0.75) + 0.5*ln(0.5/0.25)) + 0.5*ln(1/0.75), see test below.
JSD_HALF_VS_SURE = 0.21576155433883565


def _law(support, probs):
    return dist.DiscreteDist(np.asarray(support, dtype=np.float64), np.asarray(probs))


def _random_law(rng, max_atoms=6):
    m = int(rng.integers(1, max_atoms))
    support = rng.choice(np.arange(-8.0, 9.0), size=m, replace=False)
    return _law(support, rng.dirichlet(np.ones(m)))


class TestExactTotalVariation:
    def test_identical_laws_have_zero_distance(self):
        p = _law([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
        assert dv.tv_discrete(p, p) == 0.0

    def test_disjoint_laws_have_distance_one(self):
        p = _law([0.0], [1.0])
        q = _law([5.0], [1.0])
        assert dv.tv_discrete(p, q) == 1.0

    def test_hand_computed_value(self):
        """TV((1/2,1/2), (3/4,1/4)) = (|1/2-3/4| + |1/2-1/4|)/2 = 1/4."""
        p = _law([0.0, 1.0], [0.5, 0.5])
        q = _law([0.0, 1.0], [0.75, 0.25])
        assert dv.tv_discrete(p, q) == 0.25

    def test_partial_overlap(self):
        p = _law([0.0, 1.0], [0.5, 0.5])
        q = _law([1.0, 2.0], [0.5, 0.5])
        assert dv.tv_discrete(p, q) == 0.5


class TestExactJensenShannon:
    def test_identical_laws_have_zero_divergence(self):
        p = _law([0.0, 3.0], [0.4, 0.6])
        assert dv.jsd_discrete(p, p) == 0.0

    def test_disjoint_laws_reach_log_two(self):
        p = _law([0.0], [1.0])
        q = _law([1.0], [1.0])
        assert dv.jsd_discrete(p, q) == pytest.approx(dv.LN2, abs=1e-15)

    def test_hand_computed_value(self):
        """Fair coin against a sure coin, against the midpoint m = (3/4, 1/4)."""
        p = _law([0.0, 1.0], [0.5, 0.5])
        q = _law([0.0, 1.0], [1.0, 0.0])
        by_hand = 0.5 * (
            0.5 * np.log(0.5 / 0.75) + 0.5 * np.log(0.5 / 0.25)
        ) + 0.5 * (1.0 * np.log(1.0 / 0.75))
        got = dv.jsd_discrete(p, q)
        assert got == pytest.approx(by_hand, abs=1e-15)
        assert got == pytest.approx(JSD_HALF_VS_SURE, abs=1e-12)

    def test_smallest_subnormal_mass_contributes_nothing(self):
        """A mass of 5e-324 has a midpoint that underflows to 0; the JSD stays
        about 0, not ln 2, and below the TV as the chain of bounds needs."""
        p = _law([0.0], [1.0])
        q = _law([0.0, 1.0], [1.0, 5e-324])
        assert dv.jsd_discrete(p, q) == pytest.approx(0.0, abs=1e-300)
        assert dv.jsd_discrete(p, q) <= dv.tv_discrete(p, q)

    def test_zero_mass_atoms_contribute_nothing(self):
        """Adding a zero-probability atom to one law changes nothing."""
        p = _law([0.0, 1.0], [0.5, 0.5])
        q1 = _law([0.0, 1.0], [0.9, 0.1])
        q2 = _law([0.0, 1.0, 2.0], [0.9, 0.1, 0.0])
        assert dv.jsd_discrete(p, q1) == dv.jsd_discrete(p, q2)


class TestDivergenceProperties:
    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(100)
        for _ in range(50):
            p, q = _random_law(rng), _random_law(rng)
            assert dv.tv_discrete(p, q) == dv.tv_discrete(q, p)
            assert dv.jsd_discrete(p, q) == dv.jsd_discrete(q, p)

    def test_ranges_are_hard_bounds(self):
        """Outputs never leave [0, 1] and [0, ln 2], not even by one ulp."""
        rng = np.random.default_rng(101)
        for _ in range(200):
            p, q = _random_law(rng), _random_law(rng)
            tv = dv.tv_discrete(p, q)
            jsd = dv.jsd_discrete(p, q)
            assert 0.0 <= tv <= 1.0
            assert 0.0 <= jsd <= dv.LN2

    def test_jsd_bounded_by_tv_in_nats(self):
        """JSD <= ln2 * TV <= TV when both are measured in nats."""
        rng = np.random.default_rng(102)
        for trial in range(200):
            p, q = _random_law(rng), _random_law(rng)
            tv = dv.tv_discrete(p, q)
            jsd = dv.jsd_discrete(p, q)
            assert jsd <= dv.LN2 * tv + 1e-12, f"trial {trial}: jsd={jsd}, tv={tv}"
            assert jsd <= tv + 1e-12

    def test_sqrt_jsd_satisfies_triangle_inequality(self):
        """sqrt(JSD) is a metric: check the triangle on 200 random triples."""
        rng = np.random.default_rng(103)
        for trial in range(200):
            a, b, c = _random_law(rng), _random_law(rng), _random_law(rng)
            lhs = np.sqrt(dv.jsd_discrete(a, c))
            rhs = np.sqrt(dv.jsd_discrete(a, b)) + np.sqrt(dv.jsd_discrete(b, c))
            assert lhs <= rhs + 1e-12, (
                f"trial {trial}: sqrt-JSD triangle violated ({lhs} > {rhs})"
            )

    def test_tv_is_concave_under_mixing(self):
        """TV of equal-weight mixtures never exceeds the weighted member TVs."""
        rng = np.random.default_rng(104)
        for trial in range(100):
            parts = int(rng.integers(2, 5))
            alphas = rng.dirichlet(np.ones(parts))
            ps = [_random_law(rng) for _ in range(parts)]
            qs = [_random_law(rng) for _ in range(parts)]
            mix_p = dist.mixture(list(zip(ps, alphas)))
            mix_q = dist.mixture(list(zip(qs, alphas)))
            weighted = sum(
                a * dv.tv_discrete(p, q) for a, p, q in zip(alphas, ps, qs)
            )
            assert dv.tv_discrete(mix_p, mix_q) <= weighted + 1e-12, (
                f"trial {trial}: mixing increased TV"
            )


class TestHistogramEstimator:
    def test_identical_sample_sets_give_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1000, 1))
        est = dv.HistogramEstimator(np.array([[-5.0, 5.0]]), bins_per_dim=32)
        report = dv.estimate_divergences(x, x, est)
        assert report.tv == 0.0
        assert report.jsd_nats == 0.0
        assert report.method == "histogram"

    def test_far_apart_point_clouds_give_distance_near_one(self):
        a = np.zeros((500, 1))
        b = np.full((500, 1), 10.0)
        est = dv.HistogramEstimator(np.array([[-1.0, 11.0]]), bins_per_dim=24)
        report = dv.estimate_divergences(a, b, est)
        assert report.tv > 0.99
        assert report.jsd_nats > 0.99 * dv.LN2

    def test_estimator_is_deterministic(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2000, 2))
        y = rng.normal(size=(2000, 2)) + 0.5
        est = dv.HistogramEstimator(np.array([[-4.0, 5.0], [-4.0, 5.0]]), 16)
        r1 = dv.estimate_divergences(x, y, est)
        r2 = dv.estimate_divergences(x, y, est)
        assert (r1.tv, r1.jsd_nats) == (r2.tv, r2.jsd_nats)

    def test_out_of_bounds_rows_are_clipped_and_counted(self):
        inside = np.full((90, 1), 0.5)
        outside = np.full((10, 1), 99.0)
        samples = np.vstack([inside, outside])
        est = dv.HistogramEstimator(np.array([[0.0, 1.0]]), bins_per_dim=4)
        law, clipped = est.bin_law(samples)
        assert clipped == 10
        assert law.sum() == pytest.approx(1.0, abs=1e-12)
        report = dv.estimate_divergences(samples, inside, est)
        assert report.clipped_p == 10
        assert report.clipped_q == 0

    def test_bin_edges_span_bounds(self):
        est = dv.HistogramEstimator(np.array([[-2.0, 2.0], [0.0, 8.0]]), 4)
        edges = est.edges()
        np.testing.assert_allclose(edges[0], [-2.0, -1.0, 0.0, 1.0, 2.0])
        np.testing.assert_allclose(edges[1], [0.0, 2.0, 4.0, 6.0, 8.0])

    def test_more_than_three_dimensions_rejected(self):
        with pytest.raises(ValueError, match="limited to 3 dimensions, got 4"):
            dv.HistogramEstimator(np.tile([-1.0, 1.0], (4, 1)), 4)
        est = dv.HistogramEstimator(np.tile([-1.0, 1.0], (3, 1)), 4)
        x = np.zeros((10, 4))
        with pytest.raises(ValueError, match="dimension 4, estimator expects 3"):
            dv.estimate_divergences(x, x, est)

    @pytest.mark.parametrize(
        "bins, dim", [(2**24, 1), (2**12, 2), (2**8, 3)], ids=["1d", "2d", "3d"]
    )
    def test_grid_past_the_bin_limit_is_refused_when_built(self, bins, dim):
        """``bins_per_dim ** d`` up to ``MAX_ESTIMATOR_BINS`` is accepted; one
        bin per dimension more is refused, naming the count. Only built: no
        grid is ever allocated."""
        bounds = np.tile([-1.0, 1.0], (dim, 1))
        assert bins**dim == dv.MAX_ESTIMATOR_BINS
        assert dv.HistogramEstimator(bounds, bins).bins_per_dim == bins
        with pytest.raises(ValueError, match=rf"^bins_per_dim {bins + 1} in {dim} dimensions makes {(bins + 1) ** dim} bins"):
            dv.HistogramEstimator(bounds, bins + 1)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            dv.HistogramEstimator(np.array([[1.0, -1.0]]), 8)
        with pytest.raises(ValueError):
            dv.HistogramEstimator(np.array([[0.0, 1.0]]), 1)

    def test_flat_bounds_list_is_refused_under_its_path(self):
        """Four numbers in a row are not two pairs; the message is the field's
        own, not NumPy's reshape error."""
        d = {"bounds": [0, 1, 2, 3], "bins_per_dim": 8}
        with pytest.raises(ValueError, match=r"^estimator\.bounds must be a \[d, 2\] array"):
            from_json(dv.HistogramEstimator | None, d, "estimator")

    def test_one_flat_pair_is_one_dimension(self):
        est = from_json(dv.HistogramEstimator, {"bounds": [-1, 2], "bins_per_dim": 8})
        assert est.bounds.tolist() == [[-1.0, 2.0]] and est.dimension == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_bounds_and_smoothing_rejected(self, bad):
        with pytest.raises(ValueError, match="bounds must be finite"):
            dv.HistogramEstimator([[0.0, 1.0], [0.0, bad]], 8)
        with pytest.raises(ValueError, match="bounds must be finite"):
            dv.HistogramEstimator([[bad, 1.0]], 8)
        with pytest.raises(ValueError, match="smoothing"):
            dv.HistogramEstimator([[0.0, 1.0]], 8, smoothing=bad)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("bins_per_dim", 8.7),
            ("bins_per_dim", True),
            ("bins_per_dim", "8"),
            ("smoothing", True),
            ("smoothing", "1e-9"),
        ],
    )
    def test_from_dict_refuses_coercion(self, field, value):
        """A fractional bin count, a boolean or a string is refused, not read
        as the nearest number."""
        d = {"bounds": [[0.0, 1.0]], "bins_per_dim": 8, field: value}
        with pytest.raises(ValueError, match=rf"^{field} must be a"):
            from_json(dv.HistogramEstimator, d)

    def test_from_dict_reads_whole_floats_and_ints(self):
        est = from_json(dv.HistogramEstimator, {"bounds": [[0.0, 1.0]], "bins_per_dim": 8.0, "smoothing": 0})
        assert type(est.bins_per_dim) is int and est.bins_per_dim == 8
        assert type(est.smoothing) is float and est.smoothing == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        """Refused, not binned: NaN rows would drop out of the histogram
        while ``n_q`` still counted them, and infinities would be clipped."""
        est = dv.HistogramEstimator(np.array([[-3.0, 3.0], [-3.0, 3.0]]), 8)
        p = np.random.default_rng(3).normal(size=(50, 2))
        q = p.copy()
        q[::2, 1] = bad  # 25 of 50 rows
        with pytest.raises(ValueError, match="non-finite"):
            est.bin_law(q)
        with pytest.raises(ValueError, match="non-finite"):
            dv.estimate_divergences(p, q, est)

    def test_mismatched_sample_dimensions_rejected(self):
        est = dv.HistogramEstimator(np.array([[-1.0, 1.0]]), 4)
        with pytest.raises(ValueError):
            dv.estimate_divergences(np.zeros((5, 1)), np.zeros((5, 2)), est)


class TestEstimatorConsistency:
    """The histogram estimate converges to the exact value when atoms sit in
    their own bins and samples are plentiful."""

    def test_same_law_estimates_near_zero(self):
        law = _law([0.0, 1.0, 2.0, 3.0], [0.1, 0.2, 0.3, 0.4])
        rng = np.random.default_rng(7)
        a = dist.sample_dataset(law, 100000, rng)
        b = dist.sample_dataset(law, 100000, rng)
        est = dv.HistogramEstimator(np.array([[-0.5, 3.5]]), bins_per_dim=4)
        report = dv.estimate_divergences(a, b, est)
        assert report.tv <= 0.02

    def test_different_laws_estimate_matches_exact(self):
        p = _law([0.0, 1.0, 2.0, 3.0], [0.1, 0.2, 0.3, 0.4])
        q = _law([0.0, 1.0, 2.0, 3.0], [0.4, 0.3, 0.2, 0.1])
        rng = np.random.default_rng(8)
        a = dist.sample_dataset(p, 100000, rng)
        b = dist.sample_dataset(q, 100000, rng)
        est = dv.HistogramEstimator(np.array([[-0.5, 3.5]]), bins_per_dim=4)
        report = dv.estimate_divergences(a, b, est)
        assert abs(report.tv - dv.tv_discrete(p, q)) <= 0.02
        assert abs(report.jsd_nats - dv.jsd_discrete(p, q)) <= 0.02

    def test_shifted_gaussians_match_quadrature(self):
        """TV(N(0,1), N(1,1)) estimated from 50k samples on 64 bins.

        The reference value is recomputed here by quadrature and must equal
        both the closed form 2*Phi(1/2) - 1 and the frozen module constant.
        """
        by_quadrature, quad_err = integrate.quad(
            lambda x: 0.5 * abs(stats.norm.pdf(x) - stats.norm.pdf(x, loc=1.0)),
            -12.0,
            13.0,
        )
        assert quad_err < 1e-9
        closed_form = 2.0 * stats.norm.cdf(0.5) - 1.0
        assert by_quadrature == pytest.approx(closed_form, abs=1e-12)
        assert by_quadrature == pytest.approx(GAUSSIAN_SHIFT_TV, abs=1e-12)

        rng = np.random.default_rng(2718)
        a = rng.normal(0.0, 1.0, size=(50000, 1))
        b = rng.normal(1.0, 1.0, size=(50000, 1))
        est = dv.HistogramEstimator(np.array([[-6.0, 7.0]]), bins_per_dim=64)
        report = dv.estimate_divergences(a, b, est)
        assert abs(report.tv - by_quadrature) <= 0.03, (
            f"estimated {report.tv:.5f} vs quadrature {by_quadrature:.5f}"
        )


class TestReport:
    def test_exact_divergences_of_disjoint_point_masses(self):
        p = _law([0.0], [1.0])
        q = _law([1.0], [1.0])
        assert dv.tv_discrete(p, q) == 1.0
        assert dv.jsd_discrete(p, q) == dv.LN2

    def test_csv_row_matches_header(self):
        report = dv.DivergenceReport(0.5, 0.25, "exact", 3, 4)
        assert dv.DivergenceReport.CSV_HEADER == "tv,jsd_nats,method,n_p,n_q"
        fields = report.csv_row().split(",")
        assert len(fields) == len(dv.DivergenceReport.CSV_HEADER.split(","))
        assert float(fields[0]) == 0.5
        assert fields[2] == "exact"
