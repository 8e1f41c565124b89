"""Tests for the adversarial training loop and its objectives.

The two objectives are validated the same way as the raw network gradients:
values against formulas written out directly in the tests, gradients against
central finite differences.  Loop-level behavior (step accounting, budget
gating, determinism, artifact layout) is pinned with tiny seeded runs.
"""

import csv
import threading
import weakref

import numpy as np
import pytest

from tvgan import distributions as dist
from tvgan import nn
from tvgan import oracle
from tvgan import training as tr
from tvgan.distributions import from_json, to_json
from tvgan.divergence import HistogramEstimator, estimate_divergences


def _blob(mean, var=0.0625, weight=1.0):
    mean = np.asarray(mean, dtype=np.float64)
    return dist.MixtureComponent(mean, np.full(mean.shape, var), weight)


def _zero_noise(dim):
    return dist.SpikeSlabNoise(0.0, dist.PointMassSlab(np.zeros(dim)))


def _tiny_config(**overrides):
    defaults = dict(
        datasets=[
            tr.DatasetPart(
                spec=dist.GaussianMixture([_blob([0.0, 0.0])]),
                alpha=1.0,
                noise=_zero_noise(2),
            )
        ],
        latent=dist.LatentPrior(2, "gaussian"),
        g_hidden=[8],
        d_hidden=[8],
        k=1,
        batch_size=16,
        total_samples_n=64,
        epochs=1,
        eval_samples=500,
        samples_out=50,
        seed=0,
    )
    defaults.update(overrides)
    return tr.TrainConfig(**defaults)


def _zero_last_layer(params):
    """Kill the readout layer so a sigmoid head outputs exactly 1/2."""
    out = params.copy()
    out.layers[-1].weights[:] = 0.0
    out.layers[-1].biases[:] = 0.0
    return out


class TestDiscriminatorObjective:
    def test_value_matches_direct_formula(self):
        """Two weighted datasets against one fake batch, recomputed inline."""
        rng = np.random.default_rng(3)
        d_params = nn.init_mlp([2, 6, 1], ["tanh", "sigmoid"], rng)
        real = [rng.normal(size=(8, 2)), rng.normal(size=(8, 2)) + 2.0]
        alphas = np.array([0.3, 0.7])
        fake = rng.normal(size=(8, 2)) - 2.0

        value, _, mean_real, mean_fake = tr.discriminator_objective(
            d_params, real, alphas, fake
        )

        s0 = nn.mlp_forward(d_params, real[0])[0]
        s1 = nn.mlp_forward(d_params, real[1])[0]
        sf = nn.mlp_forward(d_params, fake)[0]
        expected = (
            0.3 * np.mean(np.log(s0))
            + 0.7 * np.mean(np.log(s1))
            + np.mean(np.log(1.0 - sf))
        )
        assert value == pytest.approx(float(expected), abs=1e-12)
        assert mean_real == pytest.approx(float(0.3 * s0.mean() + 0.7 * s1.mean()), abs=1e-12)
        assert mean_fake == pytest.approx(float(sf.mean()), abs=1e-12)

    def test_indifferent_discriminator_scores_minus_log4(self):
        """With the readout layer zeroed, D = 1/2 and the objective sits at
        log(1/2) + log(1/2) = -log 4 for any inputs."""
        rng = np.random.default_rng(4)
        d_params = _zero_last_layer(nn.init_mlp([2, 8, 1], ["tanh", "sigmoid"], rng))
        real = [rng.normal(size=(32, 2))]
        fake = rng.normal(size=(32, 2))
        value, grads, mean_real, mean_fake = tr.discriminator_objective(
            d_params, real, np.array([1.0]), fake
        )
        assert value == pytest.approx(-float(np.log(4.0)), abs=1e-12)
        assert mean_real == 0.5
        assert mean_fake == 0.5
        # The readout weight gradient vanishes only if real and fake batches
        # coincide, so just require finiteness here.
        assert np.all(np.isfinite(grads))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        d_params = nn.init_mlp([2, 6, 1], ["tanh", "sigmoid"], rng)
        real = [rng.normal(size=(6, 2)), rng.normal(size=(6, 2)) + 1.0]
        alphas = np.array([0.4, 0.6])
        fake = rng.normal(size=(6, 2))

        def loss(params):
            value, grads, _, _ = tr.discriminator_objective(params, real, alphas, fake)
            return value, grads

        worst = nn.grad_check(d_params, loss, h=1e-5)
        assert worst <= 1e-5, f"finite differences disagree: {worst:.3e}"


    def test_gradient_is_the_pass_sum_in_pass_order(self):
        """The gradient is the public backward pass of each real batch, then
        of the fake batch, added left to right into the first, bit for bit."""
        rng = np.random.default_rng(9)
        d_params = nn.init_mlp([2, 7, 5, 1], ["tanh", "relu", "sigmoid"], rng)
        real = [rng.normal(size=(10, 2)) + shift for shift in (0.0, 1.0, -2.0)]
        alphas = np.array([0.2, 0.5, 0.3])
        fake = rng.normal(size=(10, 2))
        _, grads, _, _ = tr.discriminator_objective(d_params, real, alphas, fake)

        passes = []
        for alpha, batch in zip(alphas, real):
            out, cache = nn.mlp_forward(d_params, batch)
            out_grad = (alpha / 10) * (1.0 / np.clip(out, tr.LOG_EPS, 1.0))
            passes.append(nn.mlp_backward(d_params, cache, out_grad)[0])
        out, cache = nn.mlp_forward(d_params, fake)
        out_grad = -(1.0 / 10) * (1.0 / np.clip(1.0 - out, tr.LOG_EPS, 1.0))
        passes.append(nn.mlp_backward(d_params, cache, out_grad)[0])
        want = passes[0].copy()
        for extra in passes[1:]:
            want += extra
        assert grads.tobytes() == want.tobytes()


class TestGeneratorObjective:
    @pytest.mark.parametrize("kind", ["minimax", "non_saturating"])
    def test_gradient_matches_finite_differences(self, kind):
        rng = np.random.default_rng(6)
        g_params = nn.init_mlp([2, 6, 2], ["tanh", "identity"], rng)
        d_params = nn.init_mlp([2, 6, 1], ["tanh", "sigmoid"], rng)
        z = rng.normal(size=(8, 2))

        def loss(params):
            return tr.generator_objective(params, d_params, z, kind)

        worst = nn.grad_check(g_params, loss, h=1e-5)
        assert worst <= 1e-5, f"{kind}: finite differences disagree: {worst:.3e}"

    def test_blind_discriminator_gives_zero_generator_gradient(self):
        """If D ignores its input (zeroed readout), nothing flows back to G."""
        rng = np.random.default_rng(7)
        g_params = nn.init_mlp([2, 6, 2], ["tanh", "identity"], rng)
        d_params = _zero_last_layer(nn.init_mlp([2, 6, 1], ["tanh", "sigmoid"], rng))
        z = rng.normal(size=(8, 2))
        value, grads = tr.generator_objective(g_params, d_params, z, "minimax")
        assert value == pytest.approx(-float(np.log(2.0)), abs=1e-12)
        np.testing.assert_array_equal(grads, np.zeros_like(g_params.flat))

    def test_unknown_loss_kind_rejected(self):
        rng = np.random.default_rng(8)
        g_params = nn.init_mlp([2, 4, 2], ["tanh", "identity"], rng)
        d_params = nn.init_mlp([2, 4, 1], ["tanh", "sigmoid"], rng)
        with pytest.raises(ValueError):
            tr.generator_objective(g_params, d_params, np.zeros((4, 2)), "wasserstein")


class TestSteps:
    def test_repeated_ascent_on_fixed_batches_is_monotone(self):
        """100 full-batch ascent steps: the objective must not decrease in at
        least 95 of them (Adam's momentum may overshoot occasionally)."""
        rng = np.random.default_rng(10)
        d_params = nn.init_mlp([2, 8, 1], ["tanh", "sigmoid"], rng)
        real = [rng.normal(size=(64, 2)) + np.array([1.5, 0.0])]
        fake = rng.normal(size=(64, 2)) - np.array([1.5, 0.0])
        alphas = np.array([1.0])
        state = nn.init_adam(d_params, nn.AdamConfig(lr=1e-2))

        values = []
        for _ in range(100):
            value, grads, _, _ = tr.discriminator_objective(d_params, real, alphas, fake)
            values.append(value)
            d_params, state = nn.adam_step(d_params, -grads, state)
        final, _, _, _ = tr.discriminator_objective(d_params, real, alphas, fake)
        values.append(final)

        diffs = np.diff(values)
        assert np.sum(diffs >= 0) >= 95, f"only {np.sum(diffs >= 0)} increases"
        assert final > values[0]

    def test_discriminator_step_descends_the_negated_objective_gradient(self):
        """One D step is ``adam_step`` on minus ``discriminator_objective``'s
        gradient at the step's own draws, bit for bit, from non-zero moments."""
        config = _tiny_config(batch_size=32)
        rng = np.random.default_rng(4)
        g_params, d_params = tr.build_models(config, rng)
        d_state = nn.init_adam(d_params, nn.AdamConfig(lr=1e-2))
        for _ in range(2):
            d_params, d_state, _ = tr.discriminator_step(d_params, d_state, g_params, config, rng)
        seed = 5
        got_params, got_state, stats = tr.discriminator_step(
            d_params, d_state, g_params, config, np.random.default_rng(seed)
        )

        draws = np.random.default_rng(seed)
        real = []
        for part in config.datasets:
            batch = dist.sample_dataset(part.spec, config.batch_size, draws)
            real.append(dist.inject_noise(batch, part.noise, config.injection_mode, draws)[0])
        fake = nn.mlp_apply(g_params, dist.sample_latent(config.latent, config.batch_size, draws))
        alphas = [part.alpha for part in config.datasets]
        value, grads, _, _ = tr.discriminator_objective(d_params, real, alphas, fake)
        want_params, want_state = nn.adam_step(d_params, -grads, d_state)

        assert stats.loss == value
        assert _snapshot(got_params, got_state) == _snapshot(want_params, want_state)

    def test_discriminator_step_improves_held_out_objective(self):
        """Stochastic minibatch steps still raise the objective on a large
        held-out evaluation batch."""
        config = _tiny_config(
            datasets=[
                tr.DatasetPart(
                    spec=dist.GaussianMixture([_blob([2.0, 0.0])]),
                    alpha=1.0,
                    noise=_zero_noise(2),
                )
            ],
            batch_size=64,
        )
        rng = np.random.default_rng(config.seed)
        g_params, d_params = tr.build_models(config, rng)
        d_state = nn.init_adam(d_params, config.d_adam)

        eval_rng = np.random.default_rng(999)
        eval_real = [tr.sample_clean_mixture(config, 2000, eval_rng)]
        eval_fake = tr.generator_sample(g_params, config.latent, 2000, eval_rng)

        alphas = [part.alpha for part in config.datasets]
        before = tr.discriminator_objective(d_params, eval_real, alphas, eval_fake)[0]
        for _ in range(60):
            d_params, d_state, _ = tr.discriminator_step(
                d_params, d_state, g_params, config, rng
            )
        after = tr.discriminator_objective(d_params, eval_real, alphas, eval_fake)[0]
        assert after > before

    def test_generator_descent_chases_a_frozen_preference(self):
        """Against a frozen D that rewards the half-plane x0 > 0, generator
        steps drive the mean score up with at most 5% backward steps."""
        rng = np.random.default_rng(12)
        config = _tiny_config(batch_size=64)
        g_params, _ = tr.build_models(config, rng)
        frozen_d = nn.MlpParams(
            layers=[nn.Layer(np.array([[3.0], [0.0]]), np.zeros(1), "sigmoid")]
        )
        g_state = nn.init_adam(g_params, config.g_adam)

        eval_z = np.random.default_rng(500).standard_normal((2000, 2))

        def mean_score(params):
            fake = nn.mlp_forward(params, eval_z)[0]
            return float(nn.mlp_forward(frozen_d, fake)[0].mean())

        scores = [mean_score(g_params)]
        for _ in range(100):
            g_params, g_state, _ = tr.generator_step(
                g_params, g_state, frozen_d, config, rng
            )
            scores.append(mean_score(g_params))

        drops = np.sum(np.diff(scores) < 0)
        assert drops <= 5, f"{drops} of 100 steps lowered the frozen-D score"
        assert scores[-1] > scores[0]

    def test_steps_are_deterministic(self):
        config = _tiny_config()
        base_rng = np.random.default_rng(0)
        g_params, d_params = tr.build_models(config, base_rng)
        d_state = nn.init_adam(d_params)

        out_a = tr.discriminator_step(
            d_params, d_state, g_params, config, np.random.default_rng(42)
        )
        out_b = tr.discriminator_step(
            d_params, d_state, g_params, config, np.random.default_rng(42)
        )
        for la, lb in zip(out_a[0].layers, out_b[0].layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
        assert out_a[2].loss == out_b[2].loss


class TestTrainLoop:
    def test_metrics_accounting(self):
        """epochs=2 with ceil(80/16)=5 outer iterations gives 10 records,
        each carrying estimates when eval_every=1."""
        est = HistogramEstimator(np.array([[-3.0, 3.0], [-3.0, 3.0]]), 8)
        config = _tiny_config(
            epochs=2,
            total_samples_n=80,
            batch_size=16,
            estimator=est,
            eval_every=1,
            eval_samples=200,
        )
        assert config.steps_per_epoch == 5
        result = tr.train(config)
        assert [rec.step for rec in result.metrics] == list(range(1, 11))
        assert all(rec.tv_estimate is not None for rec in result.metrics)
        assert all(0.0 <= rec.tv_estimate <= 1.0 for rec in result.metrics)

    def test_eval_cadence(self):
        est = HistogramEstimator(np.array([[-3.0, 3.0], [-3.0, 3.0]]), 8)
        config = _tiny_config(
            epochs=1,
            total_samples_n=96,
            batch_size=16,
            estimator=est,
            eval_every=3,
            eval_samples=200,
        )
        result = tr.train(config)
        evaluated = [rec.step for rec in result.metrics if rec.tv_estimate is not None]
        assert evaluated == [3, 6]

    def test_no_estimator_means_no_estimates(self):
        result = tr.train(_tiny_config())
        assert all(rec.tv_estimate is None for rec in result.metrics)
        assert all(rec.jsd_estimate is None for rec in result.metrics)

    def test_zero_epochs_returns_untrained_models(self):
        config = _tiny_config(epochs=0)
        result = tr.train(config)
        assert result.metrics == []
        fresh_g, _ = tr.build_models(config, np.random.default_rng(config.seed))
        for la, lb in zip(result.generator.layers, fresh_g.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_training_is_deterministic(self):
        config = _tiny_config(epochs=1, k=2)
        a = tr.train(config)
        b = tr.train(config)
        assert len(a.metrics) == len(b.metrics)
        for ra, rb in zip(a.metrics, b.metrics):
            assert ra == rb
        for la, lb in zip(a.generator.layers, b.generator.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
        for la, lb in zip(a.discriminator.layers, b.discriminator.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_evals_do_not_move_the_run(self, tmp_path):
        """The networks, the loss columns and the final sample are the same
        without an estimator, at two eval cadences and at two eval sizes."""
        est = HistogramEstimator(np.array([[-3.0, 3.0], [-3.0, 3.0]]), 8)
        base = dict(epochs=2, k=2, total_samples_n=80, samples_out=20)
        variants = (
            dict(estimator=None),
            dict(estimator=est, eval_every=1, eval_samples=200),
            dict(estimator=est, eval_every=3, eval_samples=200),
            dict(estimator=est, eval_every=3, eval_samples=700),
        )
        runs = [tr.train(_tiny_config(**base, **v), tmp_path / str(i)) for i, v in enumerate(variants)]
        assert [sum(r.tv_estimate is not None for r in run.metrics) for run in runs] == [0, 10, 3, 3]
        losses = [
            [repr((r.step, r.d_loss, r.g_loss, r.d_real, r.d_fake)) for r in run.metrics] for run in runs
        ]
        samples = [(tmp_path / str(i) / "samples.txt").read_bytes() for i in range(len(runs))]
        for i, run in enumerate(runs[1:], start=1):
            assert run.generator.flat.tobytes() == runs[0].generator.flat.tobytes()
            assert run.discriminator.flat.tobytes() == runs[0].discriminator.flat.tobytes()
            assert losses[i] == losses[0] and len(losses[i]) == 10
            assert samples[i] == samples[0]

    def test_zero_gamma_run_ignores_the_slab_entirely(self):
        """At gamma = 0 the slab is never sampled, so swapping it for a
        completely different one reproduces the run bit for bit; the loop
        reduces to the plain two-player game on clean data."""
        base = _tiny_config()
        swapped = _tiny_config(
            datasets=[
                tr.DatasetPart(
                    spec=dist.GaussianMixture([_blob([0.0, 0.0])]),
                    alpha=1.0,
                    noise=dist.SpikeSlabNoise(
                        0.0, dist.GaussianSlab(np.array([9.0, 9.0]))
                    ),
                )
            ]
        )
        a = tr.train(base)
        b = tr.train(swapped)
        for ra, rb in zip(a.metrics, b.metrics):
            assert ra == rb
        for la, lb in zip(a.generator.layers, b.generator.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_mean_scores_stay_in_unit_interval(self):
        result = tr.train(_tiny_config(epochs=2))
        for rec in result.metrics:
            assert 0.0 < rec.d_real < 1.0
            assert 0.0 < rec.d_fake < 1.0


class TestArtifacts:
    def test_run_outputs_land_on_disk(self, tmp_path):
        config = _tiny_config()
        result = tr.train(config, out_dir=tmp_path)
        names = (
            "metrics.csv",
            "generator.json",
            "generator.bin",
            "discriminator.json",
            "discriminator.bin",
            "samples.txt",
        )
        for name in names:
            assert (tmp_path / name).exists(), f"missing {name}"
        assert [p.name for p in result.outputs] == list(names)

        loaded = nn.load_checkpoint(tmp_path / "generator.json")
        for la, lb in zip(loaded.layers, result.generator.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.biases, lb.biases)

        assert dist.load_samples(tmp_path / "samples.txt").shape == (config.samples_out, 2)

        # Cells written by the live loop must be plain parseable numbers and
        # recover the in-memory records exactly.
        with (tmp_path / "metrics.csv").open() as fh:
            metric_rows = list(csv.reader(fh))
        assert len(metric_rows) - 1 == len(result.metrics)
        for row, rec in zip(metric_rows[1:], result.metrics):
            assert float(row[1]) == rec.d_loss, f"d_loss cell {row[1]!r} drifted"
            assert float(row[2]) == rec.g_loss

    def test_metrics_csv_roundtrips_at_full_precision(self, tmp_path):
        metrics = [
            tr.MetricsRecord(1, -1.3862943611198906, 0.1 + 0.2, 0.5, 0.5),
            tr.MetricsRecord(2, -0.7, -0.6931471805599453, 0.4, 0.6, 0.25, 0.125),
        ]
        path = tr.write_metrics_csv(metrics, tmp_path / "metrics.csv")
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == tr.METRICS_CSV_HEADER
        assert float(rows[1][1]) == metrics[0].d_loss
        assert float(rows[1][2]) == metrics[0].g_loss
        assert rows[1][5] == ""
        assert float(rows[2][5]) == 0.25

    def test_config_roundtrip(self):
        est = HistogramEstimator(np.array([[-3.0, 3.0], [-3.0, 3.0]]), 16)
        config = _tiny_config(
            estimator=est,
            k=3,
            generator_loss="non_saturating",
            injection_mode="per_batch",
            g_adam=tr.AdamConfig(lr=2e-4, beta1=0.5),
        )
        again = tr.TrainConfig.from_dict(to_json(config))
        assert to_json(again) == to_json(config)
        assert again.g_adam.beta1 == 0.5
        assert again.estimator.bins_per_dim == 16

    def test_config_missing_fields_rejected(self):
        with pytest.raises(ValueError):
            tr.TrainConfig.from_dict({"datasets": []})


class TestConfigValidation:
    def test_alphas_must_sum_to_one(self):
        part = tr.DatasetPart(
            spec=dist.GaussianMixture([_blob([0.0, 0.0])]),
            alpha=0.9,
            noise=_zero_noise(2),
        )
        with pytest.raises(ValueError):
            _tiny_config(datasets=[part])

    def test_noise_dimension_must_match_data(self):
        part = tr.DatasetPart(
            spec=dist.GaussianMixture([_blob([0.0, 0.0])]),
            alpha=1.0,
            noise=_zero_noise(3),
        )
        with pytest.raises(ValueError):
            _tiny_config(datasets=[part])

    def test_estimator_dimension_must_match_data(self):
        est = HistogramEstimator(np.array([[-1.0, 1.0]]), 8)
        with pytest.raises(ValueError):
            _tiny_config(estimator=est)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("k", 0),
            ("batch_size", 0),
            ("epochs", -1),
            ("eval_every", 0),
            ("injection_mode", "per_universe"),
            ("generator_loss", "hinge"),
        ],
    )
    def test_bad_scalar_fields_rejected(self, field, value):
        with pytest.raises(ValueError):
            _tiny_config(**{field: value})


class TestSampling:
    def test_clean_mixture_respects_alphas(self):
        """Two point-mass datasets at 0 and 10 with weights (1/4, 3/4)."""
        parts = [
            tr.DatasetPart(
                spec=dist.DiscreteDist(np.array([0.0]), np.array([1.0])),
                alpha=0.25,
                noise=_zero_noise(1),
            ),
            tr.DatasetPart(
                spec=dist.DiscreteDist(np.array([10.0]), np.array([1.0])),
                alpha=0.75,
                noise=_zero_noise(1),
            ),
        ]
        config = _tiny_config(datasets=parts, latent=dist.LatentPrior(1))
        x = tr.sample_clean_mixture(config, 20000, np.random.default_rng(77))
        frac_high = float(np.mean(x[:, 0] > 5.0))
        assert abs(frac_high - 0.75) < 0.02

    @staticmethod
    def _choice_clean_mixture(config, n, rng):
        """The mixture draw as first written, with ``Generator.choice``."""
        which = rng.choice(len(config.datasets), size=n, p=[part.alpha for part in config.datasets])
        out = np.zeros((n, config.data_dim))
        for l, part in enumerate(config.datasets):
            rows = which == l
            count = int(rows.sum())
            if count:
                out[rows] = dist.sample_dataset(part.spec, count, rng)
        return out

    @pytest.mark.parametrize("alphas", [(1.0,), (0.3, 0.7), (0.5, 0.3, 0.2)])
    def test_clean_mixture_draws_like_generator_choice(self, alphas):
        specs = [
            dist.GaussianMixture([_blob([1.0, -1.0], weight=0.5), _blob([0.0, 2.0], weight=0.5)]),
            dist.DiscreteDist(np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 0.5]]), np.array([0.2, 0.5, 0.3])),
            dist.Ring(2.0, 0.05),
        ]
        parts = [
            tr.DatasetPart(spec=spec, alpha=alpha, noise=_zero_noise(2))
            for spec, alpha in zip(specs, alphas)
        ]
        config = _tiny_config(datasets=parts)
        for seed in (0, 9):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for n in (1, 50, 2000):
                got = tr.sample_clean_mixture(config, n, rng)
                want = self._choice_clean_mixture(config, n, ref)
                assert got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_generator_sample_shape_and_determinism(self):
        config = _tiny_config()
        g_params, _ = tr.build_models(config, np.random.default_rng(1))
        a = tr.generator_sample(g_params, config.latent, 64, np.random.default_rng(5))
        b = tr.generator_sample(g_params, config.latent, 64, np.random.default_rng(5))
        assert a.shape == (64, 2)
        np.testing.assert_array_equal(a, b)


class TestBudget:
    def test_identity_generator_on_matching_data_passes(self):
        """A generator that reproduces the latent standard normal exactly,
        against standard-normal data: the estimated JSD is tiny."""
        est = HistogramEstimator(np.array([[-4.0, 4.0], [-4.0, 4.0]]), 32)
        config = _tiny_config(
            datasets=[
                tr.DatasetPart(
                    spec=dist.GaussianMixture([_blob([0.0, 0.0], var=1.0)]),
                    alpha=1.0,
                    noise=_zero_noise(2),
                )
            ],
            estimator=est,
        )
        identity_g = nn.MlpParams(
            layers=[nn.Layer(np.eye(2), np.zeros(2), "identity")]
        )
        report = tr.evaluate_budget(identity_g, config, n_eval=100000)
        assert report.delta == 0.0
        assert report.jsd_estimate < 0.02
        assert report.within_budget

    def test_collapsed_faraway_generator_fails(self):
        est = HistogramEstimator(np.array([[-4.0, 4.0], [-4.0, 4.0]]), 32)
        config = _tiny_config(
            datasets=[
                tr.DatasetPart(
                    spec=dist.GaussianMixture([_blob([0.0, 0.0], var=1.0)]),
                    alpha=1.0,
                    noise=_zero_noise(2),
                )
            ],
            estimator=est,
        )
        stuck_g = nn.MlpParams(
            layers=[nn.Layer(np.zeros((2, 2)), np.full(2, 100.0), "identity")]
        )
        report = tr.evaluate_budget(stuck_g, config, n_eval=20000)
        assert report.tv_estimate > 0.95
        assert not report.within_budget

    def test_budget_requires_an_estimator(self):
        config = _tiny_config()
        g_params, _ = tr.build_models(config, np.random.default_rng(0))
        with pytest.raises(ValueError):
            tr.evaluate_budget(g_params, config, n_eval=100)


class TestNetworkAndEvalFieldsRejected:
    """Network shape and eval fields are refused when the config is built,
    each with a message that names the field."""

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"hidden_activation": "swish"}, "hidden_activation"),
            ({"g_hidden": [0]}, "g_hidden"),
            ({"d_hidden": [8, -3]}, "d_hidden"),
            (
                {
                    "estimator": HistogramEstimator(np.array([[-3.0, 3.0], [-3.0, 3.0]]), 8),
                    "eval_samples": 0,
                },
                "eval_samples",
            ),
        ],
    )
    def test_field_is_named(self, overrides, field):
        with pytest.raises(ValueError, match=field):
            _tiny_config(**overrides)

    @pytest.mark.parametrize(
        "network,field,value",
        [
            ("d_adam", "beta1", 1.0),
            ("g_adam", "beta2", 1.0),
            ("g_adam", "beta1", -0.1),
            ("d_adam", "lr", -1e-3),
            ("g_adam", "lr", float("nan")),
            ("d_adam", "lr", float("inf")),
            ("g_adam", "epsilon", -1e-8),
        ],
    )
    def test_adam_settings_follow_the_adam_rules(self, network, field, value):
        with pytest.raises(ValueError, match=field):
            tr.AdamConfig(**{field: value})
        raw = to_json(_tiny_config())
        raw[network] = {**raw[network], field: value}
        with pytest.raises(ValueError, match=rf"^{network}\.{field} "):
            tr.TrainConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("batch_size", 64.5),
            ("k", 1.5),
            ("total_samples_n", 100.25),
            ("epochs", float("nan")),
            ("eval_every", True),
            ("eval_samples", False),
            ("samples_out", float("inf")),
            ("seed", "3"),
            ("g_hidden", [7.9]),
            ("d_hidden", [8, True]),
        ],
    )
    def test_whole_number_fields_are_not_truncated(self, field, value):
        raw = to_json(_tiny_config())
        raw[field] = value
        with pytest.raises(ValueError, match=rf"^{field} must be a whole number"):
            tr.TrainConfig.from_dict(raw)

    def test_whole_floats_read_as_ints(self):
        raw = to_json(_tiny_config())
        raw.update(batch_size=32.0, g_hidden=[4.0, 5])
        config = tr.TrainConfig.from_dict(raw)
        assert type(config.batch_size) is int and config.batch_size == 32
        assert config.g_hidden == [4, 5] and all(type(w) is int for w in config.g_hidden)

    def test_omitted_fields_take_the_dataclass_defaults(self):
        config = _tiny_config()
        raw = {"datasets": to_json(config)["datasets"], "latent": to_json(config)["latent"]}
        want = to_json(tr.TrainConfig(config.datasets, config.latent))
        assert to_json(tr.TrainConfig.from_dict(raw)) == want

    def test_adam_edge_values_are_accepted(self):
        tr.AdamConfig(lr=0.0, beta1=0.0, beta2=0.0, epsilon=0.0)

    @pytest.mark.parametrize("field,value", [("lr", True), ("beta2", False), ("epsilon", "1e-8")])
    def test_adam_numbers_are_not_coerced(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be a number"):
            from_json(tr.AdamConfig, {field: value})
        raw = to_json(_tiny_config())
        raw["d_adam"] = {**raw["d_adam"], field: value}
        with pytest.raises(ValueError, match=rf"^d_adam\.{field} must be a number"):
            tr.TrainConfig.from_dict(raw)

    def test_estimator_errors_are_named_with_their_prefix(self):
        raw = to_json(_tiny_config())
        raw["estimator"] = {"bounds": [[-1.0, 1.0], [-1.0, 1.0]], "bins_per_dim": 8.7}
        with pytest.raises(ValueError, match=r"^estimator\.bins_per_dim must be a whole number"):
            tr.TrainConfig.from_dict(raw)

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0"):
            _tiny_config(seed=-1)
        raw = to_json(_tiny_config())
        raw["seed"] = -1
        with pytest.raises(ValueError, match=r"^seed must be >= 0"):
            tr.TrainConfig.from_dict(raw)
        assert _tiny_config(seed=0).seed == 0

    def test_negative_samples_out_is_named(self):
        with pytest.raises(ValueError, match="samples_out"):
            _tiny_config(samples_out=-5)
        assert _tiny_config(samples_out=0).samples_out == 0

    def test_eval_samples_unused_without_an_estimator(self):
        assert _tiny_config(eval_samples=0).estimator is None

    def test_empty_hidden_list_is_a_network_without_hidden_layers(self):
        config = _tiny_config(g_hidden=[], d_hidden=[])
        g_params, d_params = tr.build_models(config, np.random.default_rng(0))
        assert len(g_params.layers) == len(d_params.layers) == 1


def _snapshot(*objs):
    """Bytes of every array reachable from params and Adam states, and the step counts."""
    out = []
    for obj in objs:
        if isinstance(obj, nn.MlpParams):
            out.append(obj.flat.tobytes())
            out += [a.tobytes() for l in obj.layers for a in (l.weights, l.biases)]
        else:
            out.append(obj.step_count)
            out += [moment.tobytes() for moment in (obj.first_moment, obj.second_moment)]
    return out


class TestStepContract:
    """The public steps are pure, ``train`` drives them through the module
    once per step, and a run is exactly a loop over them."""

    @pytest.mark.parametrize("step", ["discriminator_step", "generator_step"])
    def test_step_leaves_its_inputs_untouched(self, step):
        config = _tiny_config(batch_size=32)
        rng = np.random.default_rng(3)
        g_params, d_params = tr.build_models(config, rng)
        g_state, d_state = nn.init_adam(g_params), nn.init_adam(d_params)
        for _ in range(2):  # non-zero moments and step counts
            d_params, d_state, _ = tr.discriminator_step(d_params, d_state, g_params, config, rng)
            g_params, g_state, _ = tr.generator_step(g_params, g_state, d_params, config, rng)
        if step == "discriminator_step":
            own, state, other = d_params, d_state, g_params
        else:
            own, state, other = g_params, g_state, d_params
        before = _snapshot(own, state, other)
        new_params, new_state, _ = getattr(tr, step)(own, state, other, config, rng)
        assert _snapshot(own, state, other) == before
        assert new_state.step_count == state.step_count + 1
        assert not np.shares_memory(new_params.flat, own.flat)
        for moment in ("first_moment", "second_moment"):
            assert not np.shares_memory(getattr(new_state, moment), getattr(state, moment))
        assert new_params.flat.tobytes() != own.flat.tobytes()

    def test_train_calls_each_step_through_the_module(self, monkeypatch):
        config = _tiny_config(k=3, total_samples_n=80, batch_size=16, epochs=2)
        calls = {"discriminator_step": 0, "generator_step": 0}
        for name in calls:
            step = getattr(tr, name)

            def counted(*args, _step=step, _name=name, **kwargs):
                calls[_name] += 1
                return _step(*args, **kwargs)

            monkeypatch.setattr(tr, name, counted)
        result = tr.train(config)
        steps = config.epochs * config.steps_per_epoch
        assert len(result.metrics) == steps == 10
        assert calls == {"discriminator_step": config.k * steps, "generator_step": steps}

    @pytest.mark.parametrize(
        "generator_loss,evals",
        [
            pytest.param("minimax", False, id="minimax"),
            pytest.param("non_saturating", False, id="non_saturating"),
            pytest.param("minimax", True, id="minimax-eval_every_2"),
            pytest.param("non_saturating", True, id="non_saturating-eval_every_2"),
        ],
    )
    def test_run_equals_a_loop_over_the_public_steps(self, generator_loss, evals):
        """With evals, the reference evaluates inline at each eval step, drawing
        from child 0 of the seed's ``SeedSequence``; the run's overlapped evals
        must give the same records."""
        estimator = HistogramEstimator(np.array([[-3.0, 3.0], [-1.0, 3.0]]), 8) if evals else None
        config = _tiny_config(
            estimator=estimator,
            eval_every=2,
            k=2,
            epochs=2,
            total_samples_n=48,
            generator_loss=generator_loss,
            injection_mode="per_batch",
            datasets=[
                tr.DatasetPart(
                    spec=dist.GaussianMixture(
                        [_blob([1.0, 0.0], weight=0.25), _blob([-1.0, 0.0], weight=0.75)]
                    ),
                    alpha=0.6,
                    noise=dist.SpikeSlabNoise(0.5, dist.GaussianSlab(np.array([0.5, 0.5]))),
                ),
                tr.DatasetPart(
                    spec=dist.DiscreteDist(np.array([[0.0, 1.0], [1.0, 1.0]]), np.array([0.3, 0.7])),
                    alpha=0.4,
                    noise=dist.SpikeSlabNoise(0.25, dist.PointMassSlab(np.array([0.5, 0.0]))),
                ),
            ],
        )
        result = tr.train(config)

        rng = np.random.default_rng(config.seed)
        eval_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[0])
        g_params, d_params = tr.build_models(config, rng)
        g_state = nn.init_adam(g_params, config.g_adam)
        d_state = nn.init_adam(d_params, config.d_adam)
        expected = []
        for step in range(1, config.epochs * config.steps_per_epoch + 1):
            for _ in range(config.k):
                d_params, d_state, stats = tr.discriminator_step(d_params, d_state, g_params, config, rng)
            g_params, g_state, g_loss = tr.generator_step(g_params, g_state, d_params, config, rng)
            record = tr.MetricsRecord(step, stats.loss, g_loss, stats.mean_real, stats.mean_fake)
            if evals and step % config.eval_every == 0:
                data = tr.sample_clean_mixture(config, config.eval_samples, eval_rng)
                fake = tr.generator_sample(g_params, config.latent, config.eval_samples, eval_rng)
                report = estimate_divergences(data, fake, config.estimator)
                record.tv_estimate, record.jsd_estimate = report.tv, report.jsd_nats
            expected.append(record)

        assert sum(r.tv_estimate is not None for r in expected) == (3 if evals else 0)
        assert result.metrics == expected
        assert [repr(r) for r in result.metrics] == [repr(r) for r in expected]
        assert result.generator.flat.tobytes() == g_params.flat.tobytes()
        assert result.discriminator.flat.tobytes() == d_params.flat.tobytes()


class TestOverlappedEval:
    """An eval's generator forward runs on a worker thread while training
    goes on; its errors reach the caller and no thread outlives ``train``."""

    @staticmethod
    def _config():
        est = HistogramEstimator(np.array([[-3.0, 3.0], [-3.0, 3.0]]), 8)
        return _tiny_config(estimator=est, eval_every=2, eval_samples=300, total_samples_n=96)

    def test_a_run_leaves_no_thread_behind(self):
        threads = threading.active_count()
        result = tr.train(self._config())
        assert [r.step for r in result.metrics if r.tv_estimate is not None] == [2, 4, 6]
        assert threading.active_count() == threads

    def test_every_eval_forward_of_a_run_runs_on_one_worker_thread(self, monkeypatch):
        config = self._config()
        apply = nn.mlp_apply
        threads = []

        def recorded(params, x):
            if x.shape[0] == config.eval_samples:
                threads.append(threading.current_thread())
            return apply(params, x)

        monkeypatch.setattr(nn, "mlp_apply", recorded)
        tr.train(config)
        assert len(threads) == 3
        assert threads[0] is not threading.main_thread()
        assert all(thread is threads[0] for thread in threads)

    def test_error_in_the_eval_forward_is_raised(self, monkeypatch):
        config = self._config()
        apply = nn.mlp_apply
        evals = []

        def failing(params, x):
            if x.shape[0] == config.eval_samples:
                evals.append(threading.current_thread() is not threading.main_thread())
                raise nn.NonFiniteError("forward output", layer=2)
            return apply(params, x)

        monkeypatch.setattr(nn, "mlp_apply", failing)
        threads = threading.active_count()
        with pytest.raises(nn.NonFiniteError, match="layer 2"):
            tr.train(config)
        assert evals == [True]
        assert threading.active_count() == threads

    def test_error_in_training_while_an_eval_is_in_flight(self, monkeypatch):
        config = self._config()
        apply, step = nn.mlp_apply, tr.discriminator_step
        started, release = threading.Event(), threading.Event()
        calls, running = [], []

        def held(params, x):  # the eval forward waits until the D step fails
            if x.shape[0] == config.eval_samples:
                started.set()
                release.wait(30)
            return apply(params, x)

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3 * config.k:  # the first D step after the first eval
                assert started.wait(30)
                running.append(threading.active_count())
                release.set()
                raise RuntimeError("discriminator step failed")
            return step(*args, **kwargs)

        monkeypatch.setattr(nn, "mlp_apply", held)
        monkeypatch.setattr(tr, "discriminator_step", failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="discriminator step failed"):
            tr.train(config)
        assert running == [threads + 1]
        assert threading.active_count() == threads

    def test_the_previous_eval_is_freed_before_the_next_draws(self, monkeypatch):
        """At each eval's first draw, the clean sample, latent batch and generator output
        of the eval before it are no longer referenced."""
        config = self._config()
        sample, latent, apply = tr.sample_clean_mixture, tr.sample_latent, nn.mlp_apply
        previous, alive = [], []

        def kept(f):
            def draw(*args):
                out = f(*args)
                if out.shape[0] == config.eval_samples:
                    previous.append(weakref.ref(out))
                return out

            return draw

        def clean(config_, n, rng):
            if n == config.eval_samples:
                alive.append([ref() is not None for ref in previous])
                previous.clear()
            return kept(sample)(config_, n, rng)

        monkeypatch.setattr(tr, "sample_clean_mixture", clean)
        monkeypatch.setattr(tr, "sample_latent", kept(latent))
        monkeypatch.setattr(nn, "mlp_apply", kept(apply))
        tr.train(config)
        assert alive == [[], [False] * 3, [False] * 3]


class TestGeneratorObjectiveBackward:
    @pytest.mark.parametrize("kind", ["minimax", "non_saturating"])
    def test_gradient_equals_the_full_backward_chain(self, kind):
        """The objective backpropagates through D for d(loss)/d(fake) alone;
        its gradient equals the chain of two full public backward passes,
        bit for bit."""
        rng = np.random.default_rng(40)
        g_params = nn.init_mlp([3, 7, 5, 2], ["tanh", "relu", "identity"], rng)
        d_params = nn.init_mlp([2, 6, 4, 1], ["sigmoid", "tanh", "sigmoid"], rng)
        z = rng.normal(size=(9, 3))
        value, grads = tr.generator_objective(g_params, d_params, z, kind)

        fake, g_cache = nn.mlp_forward(g_params, z)
        score, d_cache = nn.mlp_forward(d_params, fake)
        clipped = np.clip(1.0 - score if kind == "minimax" else score, tr.LOG_EPS, 1.0)
        score_grad = -(1.0 / 9) * (1.0 / clipped)
        _, fake_grad = nn.mlp_backward(d_params, d_cache, score_grad)
        want, _ = nn.mlp_backward(g_params, g_cache, fake_grad)
        assert grads.tobytes() == want.tobytes()
        sign = 1.0 if kind == "minimax" else -1.0
        assert value == sign * float(np.mean(np.log(clipped)))


class TestDiscriminatorClosure:
    """A discriminator trained alone against a frozen point-mass generator
    approaches the exact best response D* = p_noised / (p_noised + p_g)
    (Goodfellow et al. 2014, Proposition 1).

    Data: parts {0, 1, 2} (0.5/0.3/0.2) and {1, 3} (0.6/0.4) with alphas
    0.8/0.2, behind point-mass channels at gamma 0.3 (offset +1) and 0.5
    (offset -2); G is frozen at 1. Only atom 1 carries generator mass, so it
    is the one unsaturated atom, D*(1) = 0.388 / 1.388 = 0.2795; D* is 1
    elsewhere, which a sigmoid only approaches. D's outputs at the atoms are
    averaged over the second half of the steps (iterate averaging); without
    it D(1) wanders by about 0.04.

    Tolerances were fixed from development seeds 1-5 before the held-out
    seed below was run: the averaged D(1) missed D*(1) by 0.0009-0.0017 and
    the value gap read 0.0029-0.0036 (about 0.55-0.69 after one step). Equal
    alphas in the step move D(1) to 0.302, a skipped channel to 0.266.
    """

    STEPS = 2000
    SEED = 11  # held out: not one of the development seeds
    D_TOL = 0.005
    GAP_TOL = 0.008

    @staticmethod
    def _law(support, probs):
        return dist.DiscreteDist(np.array(support, dtype=np.float64).reshape(-1, 1), np.array(probs))

    @classmethod
    def parts(cls):
        return [
            dist.DatasetPart(cls._law([0, 1, 2], [0.5, 0.3, 0.2]), 0.8, dist.SpikeSlabNoise(0.3, dist.PointMassSlab([1.0]))),
            dist.DatasetPart(cls._law([1, 3], [0.6, 0.4]), 0.2, dist.SpikeSlabNoise(0.5, dist.PointMassSlab([-2.0]))),
        ]

    def test_of_config_rows_equal_the_hand_built_instance(self):
        config = tr.TrainConfig(datasets=self.parts(), latent=dist.LatentPrior(1))
        p_g = self._law([1.0], [1.0])
        rows = [row.csv_row() for row in oracle.instance_checks(oracle.GameInstance.of_config(config, p_g))]
        assert rows == [row.csv_row() for row in oracle.instance_checks(oracle.GameInstance(self.parts(), p_g))]

    def test_averaged_discriminator_matches_the_exact_best_response(self):
        config = tr.TrainConfig(
            datasets=self.parts(),
            latent=dist.LatentPrior(1),
            g_hidden=[],
            d_hidden=[16, 16],
            batch_size=512,
            d_adam=tr.AdamConfig(lr=1e-3, beta1=0.5),
            seed=self.SEED,
        )
        inst = oracle.GameInstance.of_config(config, self._law([1.0], [1.0]))
        rng = np.random.default_rng(config.seed)
        g_params, d_params = tr.build_models(config, rng)
        g_params.layers[-1].weights[:] = 0.0  # G(z) = 1 for every z
        g_params.layers[-1].biases[:] = 1.0
        d_state = nn.init_adam(d_params, config.d_adam)
        support, d_star = oracle.optimal_discriminator(inst)
        total = np.zeros(len(d_star))
        for step in range(self.STEPS):
            d_params, d_state, _ = tr.discriminator_step(d_params, d_state, g_params, config, rng)
            if step >= self.STEPS // 2:
                total += nn.mlp_apply(d_params, support)[:, 0]
        averaged = total / (self.STEPS - self.STEPS // 2)

        gated = (0.05 <= d_star) & (d_star <= 0.95)
        assert support[gated].tolist() == [[1.0]] and d_star[gated].tolist() == pytest.approx([0.388 / 1.388], abs=1e-12)
        for atom, d, d_opt in zip(support[gated].tolist(), averaged[gated], d_star[gated]):
            assert abs(d - d_opt) <= self.D_TOL, (atom, d, d_opt)
        gap = oracle.optimal_value(inst) - oracle.game_value(inst, averaged)
        assert 0.0 <= gap <= self.GAP_TOL
