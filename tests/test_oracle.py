"""Tests for the exact finite-support game analysis.

The closed-form pieces check against values computed by hand in the test
bodies (ratio discriminators, two-atom game values) and against brute-force
re-enumeration written independently here.  Randomized sections stress the
identities on instance families the closed forms must cover.
"""

import numpy as np
import pytest

from tvgan import distributions as dist
from tvgan import oracle, training
from tvgan.divergence import jsd_discrete, tv_discrete

# -log 4 + 2 * JSD((1/2,1/2), (1,0)); the JSD factor is rederived in
# tests/test_divergence.py from the definition.
VALUE_HALF_VS_SURE = -0.9547712524422193


def _law(support, probs):
    return dist.DiscreteDist(np.asarray(support, dtype=np.float64), np.asarray(probs))


def _no_noise(parts=1):
    zero = dist.SpikeSlabNoise(0.0, dist.PointMassSlab(np.array([1.0])))
    return [zero] * parts


def _single_part(p_data, p_g, noise=None):
    return oracle.GameInstance([dist.DatasetPart(p_data, 1.0, noise or _no_noise()[0])], p_g)


def _random_law(rng, max_atoms=5):
    m = int(rng.integers(1, max_atoms))
    support = rng.choice(np.arange(-10.0, 11.0), size=m, replace=False)
    return _law(support, rng.dirichlet(np.ones(m)))


def _random_noise(rng):
    gamma = float(rng.uniform(0.0, 1.0))
    if rng.random() < 0.5:
        slab = dist.PointMassSlab(np.array([float(rng.integers(-4, 5))]))
    else:
        k = int(rng.integers(1, 4))
        pts = rng.choice(np.arange(-4.0, 5.0), size=k, replace=False)
        slab = dist.DiscreteDist(pts, rng.dirichlet(np.ones(k)))
    return dist.SpikeSlabNoise(gamma, slab)


def _instance_with_parts(rng, parts):
    alphas = rng.dirichlet(np.ones(parts) * 5.0)
    laws = [_random_law(rng) for _ in alphas]
    noise = [_random_noise(rng) for _ in alphas]
    return oracle.GameInstance(
        [dist.DatasetPart(law, float(a), n) for law, a, n in zip(laws, alphas, noise)], _random_law(rng)
    )


def _random_instance(rng, max_parts=3):
    return _instance_with_parts(rng, int(rng.integers(1, max_parts + 1)))


def _noised_mixture(inst):
    """The noised mixture built apart from the instance, with ``discrete_convolve`` and ``mixture``."""
    return dist.mixture([(dist.discrete_convolve(part.spec, part.noise), part.alpha) for part in inst.parts])


def _table(support, values):
    """Each support point as a tuple, mapped to its value."""
    return dict(zip(map(tuple, support.tolist()), values.tolist()))


class TestOptimalDiscriminator:
    def test_matched_laws_give_half_everywhere(self):
        p = _law([0.0, 1.0], [0.5, 0.5])
        inst = _single_part(p, p)
        d_star = _table(*oracle.optimal_discriminator(inst))
        assert d_star == {(0.0,): 0.5, (1.0,): 0.5}

    def test_disjoint_laws_saturate(self):
        inst = _single_part(_law([0.0], [1.0]), _law([5.0], [1.0]))
        d_star = _table(*oracle.optimal_discriminator(inst))
        assert d_star[(0.0,)] == 1.0
        assert d_star[(5.0,)] == 0.0

    def test_hand_computed_ratios(self):
        """Data (0.6, 0.4) against generator (0.2, 0.8): D = (0.75, 1/3)."""
        inst = _single_part(
            _law([0.0, 1.0], [0.6, 0.4]), _law([0.0, 1.0], [0.2, 0.8])
        )
        d_star = _table(*oracle.optimal_discriminator(inst))
        assert d_star[(0.0,)] == pytest.approx(0.6 / 0.8, abs=1e-12)
        assert d_star[(1.0,)] == pytest.approx(0.4 / 1.2, abs=1e-12)

    def test_channel_shifts_the_data_side(self):
        """The ratio uses the noised data law, not the clean one."""
        noise = dist.SpikeSlabNoise(0.3, dist.PointMassSlab(np.array([1.0])))
        inst = _single_part(_law([0.0], [1.0]), _law([0.0], [1.0]), noise)
        d_star = _table(*oracle.optimal_discriminator(inst))
        assert d_star[(0.0,)] == pytest.approx(0.7 / 1.7, abs=1e-12)
        assert d_star[(1.0,)] == 1.0

    def test_atoms_are_the_shared_support_atoms_with_mass(self):
        """A clean atom that the channel empties and a zero-probability generator atom
        carry no mass and are left out; the rest keep the shared support's order."""
        noise = dist.SpikeSlabNoise(1.0, dist.PointMassSlab(np.array([-1.0])))
        inst = _single_part(_law([0.0, 3.0], [0.5, 0.5]), _law([-1.0, 2.0, 7.0], [0.5, 0.5, 0.0]), noise)
        support, d_star = oracle.optimal_discriminator(inst)
        assert inst.shared_support.support[:, 0].tolist() == [-1.0, 0.0, 2.0, 3.0, 7.0]
        assert support.tolist() == [[-1.0], [2.0]]
        assert d_star.tolist() == [0.5, 0.5]

    def test_a_chain_through_the_clean_atom_is_one_atom_at_half(self):
        """A clean atom at 0, a gamma = 1 shift of -0.8e-12 and p_g at +0.8e-12 are one atom
        of the shared support, which every report row reads: the generator JSD is 0. Aligned
        as a pair, without the clean atom, the noised atom and p_g's are two atoms 1.6e-12
        apart, with D* 1 and 0 and a value of -2e-12 instead of -log 4."""
        noise = dist.SpikeSlabNoise(1.0, dist.PointMassSlab(np.array([-0.8e-12])))
        inst = _single_part(_law([0.0], [1.0]), _law([0.8e-12], [1.0]), noise)
        support, d_star = oracle.optimal_discriminator(inst)
        assert support.tolist() == [[0.0]] and d_star.tolist() == [0.5]
        assert inst.generator_jsd == 0.0
        assert oracle.optimal_value(inst) == pytest.approx(-oracle.LOG4, abs=1e-12)
        assert abs(oracle.game_value(inst, d_star) - oracle.optimal_value(inst)) <= oracle.VALUE_TOL


class TestGameValue:
    def test_constant_half_discriminator_scores_minus_log4(self):
        """D = 1/2 everywhere always gives log(1/2) + log(1/2) = -log 4."""
        rng = np.random.default_rng(0)
        for _ in range(10):
            inst = _random_instance(rng)
            _, d_star = oracle.optimal_discriminator(inst)
            half = np.full(d_star.size, 0.5)
            assert oracle.game_value(inst, half) == pytest.approx(
                -oracle.LOG4, abs=1e-12
            )

    @pytest.mark.parametrize(
        "scores",
        [[0.9], [0.9, 0.1, 0.5], [[0.9], [0.1]], [0.9, np.nan], [np.inf, 0.1]],
        ids=["short", "long", "column", "nan", "inf"],
    )
    def test_scores_of_another_length_or_not_finite_are_refused(self, scores):
        inst = _single_part(_law([0.0], [1.0]), _law([1.0], [1.0]))
        size = np.asarray(scores).size
        with pytest.raises(ValueError, match=rf"must be 2 finite numbers.*got {size}\b"):
            oracle.game_value(inst, scores)

    def test_best_response_beats_perturbed_tables(self):
        """No perturbation of the ratio discriminator improves the value:
        50 random instances x 20 jittered score vectors."""
        rng = np.random.default_rng(9)
        for trial in range(50):
            inst = _random_instance(rng)
            _, d_star = oracle.optimal_discriminator(inst)
            v_star = oracle.game_value(inst, d_star)
            for _ in range(20):
                jittered = np.clip(d_star + rng.normal(0.0, 0.2, d_star.size), 1e-6, 1.0 - 1e-6)
                v = oracle.game_value(inst, jittered)
                assert v <= v_star + 1e-12, (
                    f"trial {trial}: jittered scores scored {v} > best {v_star}"
                )

    def test_best_response_value_matches_closed_form(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            inst = _random_instance(rng)
            _, d_star = oracle.optimal_discriminator(inst)
            assert oracle.game_value(inst, d_star) == pytest.approx(
                oracle.optimal_value(inst), abs=1e-9
            )


class TestOptimalValue:
    def test_matched_generator_reaches_minus_log4(self):
        p = _law([0.0, 1.0, 2.0], [0.2, 0.5, 0.3])
        inst = _single_part(p, p)
        assert oracle.optimal_value(inst) == pytest.approx(-oracle.LOG4, abs=1e-12)

    def test_disjoint_generator_scores_zero(self):
        inst = _single_part(_law([0.0], [1.0]), _law([9.0], [1.0]))
        assert oracle.optimal_value(inst) == pytest.approx(0.0, abs=1e-12)

    def test_fair_coin_against_sure_coin(self):
        inst = _single_part(
            _law([0.0, 1.0], [0.5, 0.5]), _law([0.0, 1.0], [1.0, 0.0])
        )
        assert oracle.optimal_value(inst) == pytest.approx(
            VALUE_HALF_VS_SURE, abs=1e-12
        )

    def test_value_identity_on_random_instances(self):
        """The expectation form equals -log 4 + 2 * JSD(noised mix, generator)
        on 100 random instances to 1e-9."""
        rng = np.random.default_rng(11)
        for trial in range(100):
            inst = _random_instance(rng)
            lhs = oracle.optimal_value(inst)
            rhs = -oracle.LOG4 + 2.0 * jsd_discrete(_noised_mixture(inst), inst.p_g)
            assert lhs == pytest.approx(rhs, abs=1e-9), f"trial {trial}"

    def test_value_never_below_minus_log4(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            inst = _random_instance(rng)
            assert oracle.optimal_value(inst) >= -oracle.LOG4 - 1e-12

    def test_matched_generator_after_noise(self):
        """Matching the noised mixture, not the clean one, is what attains
        the floor when a channel is present."""
        noise = dist.SpikeSlabNoise(0.4, dist.PointMassSlab(np.array([1.0])))
        p = _law([0.0, 10.0], [0.5, 0.5])
        noised = dist.discrete_convolve(p, noise)
        matched = oracle.GameInstance([dist.DatasetPart(p, 1.0, noise)], noised)
        clean = oracle.GameInstance([dist.DatasetPart(p, 1.0, noise)], p)
        assert oracle.optimal_value(matched) == pytest.approx(-oracle.LOG4, abs=1e-12)
        assert oracle.optimal_value(clean) > -oracle.LOG4 + 1e-3


class TestGridMinimize:
    def test_single_atom_support(self):
        p = _law([0.0], [1.0])
        result = oracle.grid_minimize(p, 0.25)
        assert result.candidates == 1
        np.testing.assert_array_equal(result.minimizer.probs, [1.0])
        assert result.min_value == pytest.approx(-oracle.LOG4, abs=1e-12)

    def test_on_grid_target_is_recovered_exactly(self):
        """Three atoms, step 0.05: the data law itself is on the grid, so the
        enumeration must return it with value -log 4."""
        p = _law([0.0, 1.0, 2.0], [0.5, 0.3, 0.2])
        result = oracle.grid_minimize(p, 0.05)
        np.testing.assert_allclose(result.minimizer.probs, [0.5, 0.3, 0.2], atol=1e-12)
        assert result.min_value == pytest.approx(-oracle.LOG4, abs=1e-9)
        # 20 grid ticks over 3 coordinates -> C(22, 2) compositions.
        assert result.candidates == 231

    def test_sure_coin_minimum_is_unique(self):
        """For data (1, 0) on a 0.1 grid, re-enumerate the objective here and
        confirm the reported minimizer strictly beats every other candidate."""
        p = _law([0.0, 1.0], [1.0, 0.0])
        result = oracle.grid_minimize(p, 0.1)
        np.testing.assert_allclose(result.minimizer.probs, [1.0, 0.0], atol=1e-12)

        values = []
        for i in range(11):
            pg = _law([0.0, 1.0], [i / 10.0, 1.0 - i / 10.0])
            values.append(-oracle.LOG4 + 2.0 * jsd_discrete(p, pg))
        values = np.array(values)
        assert result.min_value == pytest.approx(values.min(), abs=1e-12)
        assert np.sum(values <= values.min() + 1e-12) == 1

    def test_off_grid_target_picks_nearest_by_value(self):
        """An off-grid data law gets the grid point minimizing the game value,
        cross-checked against an independent JSD sweep."""
        p = _law([0.0, 1.0], [1.0 / 3.0, 2.0 / 3.0])
        result = oracle.grid_minimize(p, 0.25)
        sweep = [
            (-oracle.LOG4 + 2.0 * jsd_discrete(p, _law([0.0, 1.0], [i / 4.0, 1.0 - i / 4.0])), i)
            for i in range(5)
        ]
        best_value, best_i = min(sweep)
        np.testing.assert_allclose(
            result.minimizer.probs, [best_i / 4.0, 1.0 - best_i / 4.0], atol=1e-12
        )
        assert result.min_value == pytest.approx(best_value, abs=1e-9)
        assert result.min_value > -oracle.LOG4

    def test_enumeration_is_deterministic(self):
        p = _law([0.0, 1.0, 2.0], [0.4, 0.4, 0.2])
        a = oracle.grid_minimize(p, 0.1)
        b = oracle.grid_minimize(p, 0.1)
        np.testing.assert_array_equal(a.minimizer.probs, b.minimizer.probs)
        assert a.min_value == b.min_value

    def test_large_support_refused(self):
        p = _law([0.0, 1.0, 2.0, 3.0, 4.0], [0.2] * 5)
        with pytest.raises(ValueError):
            oracle.grid_minimize(p, 0.25)

    @pytest.mark.parametrize("step", [0.0, -0.1, 0.3, 0.5])
    def test_bad_steps_refused(self, step):
        p = _law([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            oracle.grid_minimize(p, step)


class TestChannelBound:
    def test_zero_gamma_moves_nothing(self):
        p = _law([0.0, 1.0], [0.5, 0.5])
        noise = dist.SpikeSlabNoise(0.0, dist.PointMassSlab(np.array([1.0])))
        report = oracle.channel_bound_check(p, noise)
        assert report.lhs == 0.0
        assert report.holds

    def test_disjoint_shift_attains_gamma(self):
        p = _law([0.0, 10.0], [0.5, 0.5])
        noise = dist.SpikeSlabNoise(0.3, dist.PointMassSlab(np.array([1.0])))
        report = oracle.channel_bound_check(p, noise)
        assert report.lhs == pytest.approx(0.3, abs=1e-15)
        assert report.rhs == 0.3
        assert report.holds

    def test_overlapping_shift_stays_strictly_inside(self):
        """{0, 1} shifted by +1 at gamma = 1/2 only moves 1/4 of the mass."""
        p = _law([0.0, 1.0], [0.5, 0.5])
        noise = dist.SpikeSlabNoise(0.5, dist.PointMassSlab(np.array([1.0])))
        report = oracle.channel_bound_check(p, noise)
        assert report.lhs == pytest.approx(0.25, abs=1e-15)
        assert report.holds

    def test_bound_holds_on_random_channels(self):
        rng = np.random.default_rng(55)
        for trial in range(50):
            p = _random_law(rng)
            noise = _random_noise(rng)
            report = oracle.channel_bound_check(p, noise)
            assert report.holds, (
                f"trial {trial}: tv {report.lhs} exceeded gamma {report.rhs}"
            )


class TestChainCheck:
    CHECK_NAMES = {
        "mixture_tv_concavity",
        "weighted_tv_budget",
        "jsd_le_tv",
        "sqrt_jsd_triangle",
    }

    def test_zero_budget_chain_is_tight(self):
        p = _law([0.0, 1.0], [0.5, 0.5])
        inst = _single_part(p, p)
        checks = oracle.mixture_chain_check(inst, delta=0.0)
        assert all(c.holds for c in checks)
        names = {c.name for c in checks}
        assert names == self.CHECK_NAMES | {"part0_tv_budget"}
        by_name = {c.name: c for c in checks}
        assert by_name["part0_tv_budget"].lhs == 0.0
        assert by_name["weighted_tv_budget"].lhs == 0.0

    def test_two_part_worked_example(self):
        """Two channels with per-part TVs 0.3 and 0.25 under delta = 0.5;
        the weighted budget lands at 0.275 = (0.3 + 0.25) / 2."""
        part_a = _law([0.0, 10.0], [0.5, 0.5])
        part_b = _law([20.0, 21.0], [0.5, 0.5])
        shift = dist.PointMassSlab(np.array([1.0]))
        noises = [
            dist.SpikeSlabNoise(0.3, shift),
            dist.SpikeSlabNoise(0.5, shift),
        ]
        inst = oracle.GameInstance(
            [dist.DatasetPart(part_a, 0.5, noises[0]), dist.DatasetPart(part_b, 0.5, noises[1])],
            p_g=_law([0.0, 20.0], [0.5, 0.5]),
        )
        checks = oracle.mixture_chain_check(inst, delta=0.5)
        assert all(c.holds for c in checks)
        by_name = {c.name: c for c in checks}
        assert by_name["part0_tv_budget"].lhs == pytest.approx(0.3, abs=1e-15)
        assert by_name["part1_tv_budget"].lhs == pytest.approx(0.25, abs=1e-15)
        assert by_name["weighted_tv_budget"].lhs == pytest.approx(0.275, abs=1e-15)
        assert by_name["weighted_tv_budget"].rhs == 0.5
        assert by_name["mixture_tv_concavity"].lhs <= 0.275 + 1e-12

    def test_gamma_above_delta_rejected(self):
        p = _law([0.0], [1.0])
        noise = dist.SpikeSlabNoise(0.6, dist.PointMassSlab(np.array([1.0])))
        inst = _single_part(p, p, noise)
        with pytest.raises(ValueError):
            oracle.mixture_chain_check(inst, delta=0.5)

    def test_chain_holds_on_random_instances(self):
        """With delta = max gamma the whole chain holds for 100 instances."""
        rng = np.random.default_rng(77)
        for trial in range(100):
            inst = _random_instance(rng)
            delta = dist.budget(inst.parts)
            checks = oracle.mixture_chain_check(inst, delta)
            assert all(c.holds for c in checks), (
                f"trial {trial}: "
                + "; ".join(
                    f"{c.name}: {c.lhs} vs {c.rhs}"
                    for c in checks
                    if not c.holds
                )
            )

    def test_csv_rows_match_header(self):
        p = _law([0.0], [1.0])
        inst = _single_part(p, p)
        checks = oracle.mixture_chain_check(inst, delta=0.0)
        n_cols = len(oracle.CHAIN_CSV_HEADER.split(","))
        for check in checks:
            row = check.csv_row()
            assert len(row.split(",")) == n_cols
            assert row.startswith(check.name)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -0.1, 1.5])
    def test_delta_outside_the_unit_interval_rejected(self, delta):
        p = _law([0.0, 1.0], [0.5, 0.5])
        inst = _single_part(p, p)
        with pytest.raises(ValueError, match="delta"):
            oracle.mixture_chain_check(inst, delta)


def _fresh(inst):
    """The same instance with nothing computed yet."""
    return oracle.GameInstance.from_dict(inst.to_dict())


class TestInstanceChecks:
    def test_rows_equal_the_independent_functions_bit_for_bit(self):
        rng = np.random.default_rng(21)
        for trial in range(30):
            inst = _random_instance(rng)
            parts = len(inst.parts)
            delta = dist.budget(inst.parts)
            rows = oracle.instance_checks(inst)
            want = [oracle.channel_bound_check(part.spec, part.noise) for part in inst.parts]
            again = _fresh(inst)
            gap = abs(
                oracle.optimal_value(again)
                - (-oracle.LOG4 + 2.0 * jsd_discrete(_noised_mixture(again), again.p_g))
            )
            want.append(oracle.Inequality("value_identity", gap, oracle.VALUE_TOL, gap <= oracle.VALUE_TOL))
            want += oracle.mixture_chain_check(_fresh(inst), delta)
            assert len(rows) == len(want) == 2 * parts + 5
            for row, ref in zip(rows, want):
                assert (row.lhs, row.rhs, row.holds) == (ref.lhs, ref.rhs, ref.holds), (
                    f"trial {trial}: {row.name}"
                )
                assert row.csv_row().split(",")[1:] == ref.csv_row().split(",")[1:]

    @pytest.mark.parametrize("family", ["all", "channel", "value", "chain"])
    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_delta_outside_the_unit_interval_rejected(self, family, delta):
        inst = _instance_with_parts(np.random.default_rng(5), 2)
        with pytest.raises(ValueError, match="delta"):
            oracle.instance_checks(inst, family, delta)

    def test_unknown_family_rejected(self):
        inst = _instance_with_parts(np.random.default_rng(6), 1)
        with pytest.raises(ValueError):
            oracle.instance_checks(inst, "everything")

    def test_a_chain_through_another_law_merges_atoms_for_every_row(self):
        """Clean atom 0, channel atom 1.8e-12 and generator atom 0.9e-12: no two
        laws' atoms are within MERGE_RTOL of each other except through 0.9e-12,
        so the part and its noised image, aligned as a pair, are two atoms
        apart, while all three laws on one support are one atom."""
        p = _law([0.0], [1.0])
        noise = dist.SpikeSlabNoise(0.5, dist.PointMassSlab(np.array([1.8e-12])))
        p_g = _law([0.9e-12], [1.0])
        assert tv_discrete(p, dist.discrete_convolve(p, noise)) == 0.5  # the pairwise view
        assert jsd_discrete(dist.discrete_convolve(p, noise), p_g) == 0.0

        inst = _single_part(p, p_g, noise)
        assert inst.shared_support.support.shape == (1, 1)
        rows = {row.name: row for row in oracle.instance_checks(inst, "all")}
        assert rows["part0_channel_tv"].lhs == 0.0
        assert rows["part0_tv_budget"].lhs == 0.0
        assert rows["mixture_tv_concavity"].lhs == 0.0
        assert rows["jsd_le_tv"].lhs == 0.0
        assert rows["sqrt_jsd_triangle"].lhs == 0.0
        assert rows["value_identity"].lhs == abs(-2.0 * np.log(2.0) + oracle.LOG4)
        assert all(row.holds for row in rows.values())

    def test_optimal_value_does_not_call_the_jsd(self, monkeypatch):
        """The value identity compares two independent computations."""
        from tvgan import divergence

        def refuse(*args):
            raise AssertionError("optimal_value went through the JSD")

        inst = _instance_with_parts(np.random.default_rng(7), 2)
        want = oracle.optimal_value(_fresh(inst))
        # oracle holds its own reference to the kernel, divergence to both
        for module, name in ((oracle, "_jsd_arrays"), (divergence, "jsd_discrete"), (divergence, "_jsd_arrays")):
            monkeypatch.setattr(module, name, refuse)
        assert oracle.optimal_value(inst) == want


class TestGameInstance:
    def test_alphas_must_sum_to_one(self):
        p = _law([0.0], [1.0])
        with pytest.raises(ValueError):
            oracle.GameInstance([dist.DatasetPart(p, a, n) for a, n in zip((0.5, 0.4), _no_noise(2))], p)

    def test_noise_count_must_match_parts(self):
        raw = _single_part(_law([0.0], [1.0]), _law([0.0], [1.0])).to_dict()
        raw["noise"] = []
        with pytest.raises(ValueError, match="one noise channel per data part"):
            oracle.GameInstance.from_dict(raw)

    def test_dimensions_must_agree(self):
        p1 = _law([0.0], [1.0])
        p2 = dist.DiscreteDist(np.array([[0.0, 0.0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            _single_part(p1, p2)

    @pytest.mark.parametrize(
        "slab, error, message",
        [
            (dist.GaussianSlab(np.array([1.0])), dist.UnsupportedSlabError, r"^noise\[1\]\.slab: GaussianSlab has continuous"),
            (dist.DirichletSlab(1), dist.UnsupportedSlabError, r"^noise\[1\]\.slab: DirichletSlab has continuous"),
            (dist.PointMassSlab(np.array([1.0, 0.0])), ValueError, r"^noise\[1\]: slab dimension 2 differs from the data dimension 1$"),
            (_law([[0.0, 1.0]], [1.0]), ValueError, r"^noise\[1\]: slab dimension 2 differs from the data dimension 1$"),
        ],
        ids=["gaussian", "dirichlet", "point-mass-2d", "discrete-2d"],
    )
    def test_channel_without_an_exact_law_is_refused_when_built(self, slab, error, message):
        p = _law([0.0], [1.0])
        noise = [_no_noise()[0], dist.SpikeSlabNoise(0.5, slab)]
        with pytest.raises(error, match=message):
            oracle.GameInstance([dist.DatasetPart(p, 0.5, n) for n in noise], p)

    def test_zero_gamma_noised_masses_equal_clean_masses(self):
        p = _law([0.0, 2.0], [0.25, 0.75])
        inst = _single_part(p, p)
        s = inst.shared_support
        assert s.support.tolist() == [[0.0], [2.0]]
        assert s.noised[0].mass.tolist() == s.clean[0].mass.tolist() == [0.25, 0.75]
        assert s.noised_mixture.mass.tolist() == s.clean_mixture.mass.tolist() == [0.25, 0.75]

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(5)
        inst = _random_instance(rng)
        again = oracle.GameInstance.from_dict(inst.to_dict())
        assert again.to_dict() == inst.to_dict()
        assert oracle.optimal_value(again) == oracle.optimal_value(inst)


class TestOfConfig:
    @staticmethod
    def _config(*parts):
        return training.TrainConfig(datasets=list(parts), latent=dist.LatentPrior(1))

    def test_a_file_dataset_is_its_empirical_law(self, tmp_path):
        path = tmp_path / "rows.txt"
        path.write_text("0\n0\n1\n")
        config = self._config(dist.DatasetPart(dist.FileDataset(str(path)), 1.0, _no_noise()[0]))
        law = oracle.GameInstance.of_config(config, _law([0.0], [1.0])).parts[0].spec
        assert law.support.tolist() == [[0.0], [1.0]]
        assert law.probs.tolist() == [2 / 3, 1 / 3]

    @pytest.mark.parametrize(
        "spec, slab, message",
        [
            (
                dist.GaussianMixture([dist.MixtureComponent([0.0], [1.0], 1.0)]),
                dist.PointMassSlab([1.0]),
                r"^datasets\[1\]\.spec: GaussianMixture has no finite support$",
            ),
            (
                _law([0.0], [1.0]),
                dist.GaussianSlab([1.0]),
                r"^datasets\[0\]\.noise\.slab: GaussianSlab has continuous support",
            ),
        ],
        ids=["continuous-spec", "continuous-slab"],
    )
    def test_a_part_without_an_exact_law_is_refused_by_its_path(self, spec, slab, message):
        """The continuous spec is the second part's and the continuous slab the first part's."""
        first = dist.DatasetPart(_law([0.0], [1.0]), 0.5, dist.SpikeSlabNoise(0.5, slab))
        config = self._config(first, dist.DatasetPart(spec, 0.5, _no_noise()[0]))
        with pytest.raises(ValueError, match=message):
            oracle.GameInstance.of_config(config, _law([0.0], [1.0]))


def _grid_by_hand(p_data, grid_step):
    """Reference enumeration: every composition in lexicographic order, one
    scalar game value each, the first strict minimum kept."""
    k, m = round(1.0 / grid_step), p_data.probs.size

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    best, best_value, count = None, np.inf, 0
    for counts in compositions(k, m):
        pg = np.asarray(counts, dtype=np.float64) / k
        value = 0.0
        for a, b in zip(p_data.probs, pg):
            if a > 0:
                value += a * np.log(a / (a + b))
            if b > 0:
                value += b * np.log(b / (a + b))
        count += 1
        if value < best_value:
            best, best_value = pg, value
    return best, best_value, count


class TestGridBlocks:
    @pytest.mark.parametrize("block", [1, 7, oracle.GRID_BLOCK])
    @pytest.mark.parametrize(
        "probs, step",
        [
            ([1 / 3, 1 / 3, 1 / 3], 0.25),
            ([0.1, 0.2, 0.3, 0.4], 0.1),
            ([0.37, 0.63], 0.05),
            ([0.25, 0.0, 0.75], 0.125),
        ],
    )
    def test_blocked_scoring_matches_the_scalar_loop(self, monkeypatch, block, probs, step):
        """Any block size, ties included (the uniform law has three equal
        minima on the 0.25 grid), gives the scalar loop's minimizer and count."""
        monkeypatch.setattr(oracle, "GRID_BLOCK", block)
        p = _law(np.arange(len(probs)), probs)
        want_probs, want_value, want_count = _grid_by_hand(p, step)
        result = oracle.grid_minimize(p, step)
        np.testing.assert_array_equal(result.minimizer.probs, want_probs)
        assert result.min_value == pytest.approx(want_value, abs=1e-15)
        assert result.candidates == want_count
