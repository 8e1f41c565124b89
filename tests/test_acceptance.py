"""Acceptance gate: eight falsifiable claims the toolkit must satisfy.

Each test prints one ``[PASS]``/``[FAIL]`` line carrying the measured
quantity and its pinned tolerance, then asserts.  Criteria 6 and 7 run
real seeded training loops, so this module takes about a minute; run it
with ``pytest tests/test_acceptance.py -s`` to see the gate lines.
"""

import time

import numpy as np

from tvgan import distributions as dist
from tvgan import nn
from tvgan import oracle
from tvgan import training as tr
from tvgan.divergence import HistogramEstimator, estimate_divergences, jsd_discrete, tv_discrete

# 2 * Phi(1/2) - 1 for the unit-shift Gaussian pair, cross-checked against
# direct quadrature in tests/test_divergence.py.
GAUSSIAN_SHIFT_TV = 0.38292492254802624


def _gate(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _law(support, probs):
    return dist.DiscreteDist(np.asarray(support, dtype=np.float64), np.asarray(probs))


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


def _random_instance(rng, max_parts=3):
    parts = int(rng.integers(1, max_parts + 1))
    alphas = rng.dirichlet(np.ones(parts) * 5.0)
    laws = [_random_law(rng) for _ in alphas]
    noise = [_random_noise(rng) for _ in alphas]
    return oracle.GameInstance(
        [dist.DatasetPart(law, float(a), n) for law, a, n in zip(laws, alphas, noise)], _random_law(rng)
    )


def _two_blob_config():
    """Frozen zero-budget regression run: two tight Gaussians at (+-1.5, 0)."""
    spec = dist.GaussianMixture(
        [
            dist.MixtureComponent(mean=[-1.5, 0.0], cov_diag=[0.0625, 0.0625], weight=0.5),
            dist.MixtureComponent(mean=[1.5, 0.0], cov_diag=[0.0625, 0.0625], weight=0.5),
        ]
    )
    noise = dist.SpikeSlabNoise(0.0, dist.PointMassSlab([0.0, 0.0]))
    return tr.TrainConfig(
        datasets=[tr.DatasetPart(spec=spec, alpha=1.0, noise=noise)],
        latent=dist.LatentPrior(2, "gaussian"),
        g_hidden=[32, 32],
        d_hidden=[32, 32],
        hidden_activation="tanh",
        k=5,
        batch_size=128,
        total_samples_n=12800,
        epochs=80,
        generator_loss="non_saturating",
        g_adam=tr.AdamConfig(lr=2e-4, beta1=0.5),
        d_adam=tr.AdamConfig(lr=1e-3, beta1=0.5),
        eval_every=10**9,
        estimator=None,
        samples_out=0,
        seed=1,
    )


def _offset_config(gamma):
    """Frozen budget-effect run: one Gaussian at (-1.5, 0), slab shifts by (3, 0)."""
    spec = dist.GaussianMixture(
        [dist.MixtureComponent(mean=[-1.5, 0.0], cov_diag=[0.0625, 0.0625], weight=1.0)]
    )
    noise = dist.SpikeSlabNoise(gamma, dist.PointMassSlab([3.0, 0.0]))
    return tr.TrainConfig(
        datasets=[tr.DatasetPart(spec=spec, alpha=1.0, noise=noise)],
        latent=dist.LatentPrior(2, "gaussian"),
        g_hidden=[32, 32],
        d_hidden=[32, 32],
        hidden_activation="tanh",
        k=5,
        batch_size=128,
        total_samples_n=12800,
        epochs=60,
        generator_loss="non_saturating",
        g_adam=tr.AdamConfig(lr=2e-4, beta1=0.5),
        d_adam=tr.AdamConfig(lr=1e-3, beta1=0.5),
        eval_every=10**9,
        estimator=None,
        samples_out=0,
        seed=0,
    )


def test_criterion_1_channel_tv_never_exceeds_the_budget():
    """Exact TV between a law and its noised image stays within gamma, and the
    disjoint-shift construction attains the budget exactly."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = -np.inf
    for _ in range(50):
        law = _random_law(rng)
        noise = _random_noise(rng)
        noised = dist.discrete_convolve(law, noise)
        worst = max(worst, tv_discrete(law, noised) - noise.gamma)
    base = _law([0.0, 10.0], [0.5, 0.5])
    shift = dist.SpikeSlabNoise(0.25, dist.PointMassSlab([1.0]))
    witness = tv_discrete(base, dist.discrete_convolve(base, shift))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and witness == 0.25 and elapsed < 1.0
    _gate(
        1,
        ok,
        "TV(p, noised p) <= gamma + 1e-12 on 50 random channels "
        f"(worst excess {worst:.2e}); disjoint-shift witness TV == gamma "
        f"exactly ({witness!r} at gamma=0.25); {elapsed:.2f}s < 1s",
    )


def test_criterion_2_grid_search_recovers_the_data_law():
    """Full grid enumeration of a 3-atom game lands on p_g = p_data at -log 4."""
    t0 = time.perf_counter()
    p_data = _law([0.0, 1.0, 2.0], [0.5, 0.3, 0.2])
    result = oracle.grid_minimize(p_data, 0.05)
    elapsed = time.perf_counter() - t0
    recovered = np.array_equal(result.minimizer.probs, p_data.probs)
    gap = abs(result.min_value - (-oracle.LOG4))
    ok = recovered and gap <= 1e-9 and result.candidates == 231 and elapsed < 10.0
    _gate(
        2,
        ok,
        f"grid argmin over {result.candidates} candidate laws equals the data law "
        f"(recovered={recovered}), min value within {gap:.2e} of -log 4 "
        f"(tol 1e-9); {elapsed:.2f}s < 10s",
    )


def test_criterion_3_game_value_identity():
    """The exact game value equals -log 4 + 2 JSD(noised mixture, p_g)."""
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        inst = _random_instance(rng)
        direct = oracle.optimal_value(inst)
        noised = dist.mixture([(dist.discrete_convolve(part.spec, part.noise), part.alpha) for part in inst.parts])
        via_jsd = -oracle.LOG4 + 2.0 * jsd_discrete(noised, inst.p_g)
        worst = max(worst, abs(direct - via_jsd))
    ok = worst <= 1e-9
    _gate(
        3,
        ok,
        "|optimal value - (-log4 + 2 JSD)| <= 1e-9 on 100 random instances "
        f"(worst {worst:.2e})",
    )


def test_criterion_4_mixture_chain_of_divergence_bounds():
    """Per-part TV budgets, mixture concavity, JSD <= TV, and the sqrt-JSD
    triangle inequality all hold with 1e-12 slack tolerance."""
    rng = np.random.default_rng(104)
    required = {"mixture_tv_concavity", "weighted_tv_budget", "jsd_le_tv", "sqrt_jsd_triangle"}
    all_hold = True
    most_negative_slack = np.inf
    for _ in range(100):
        inst = _random_instance(rng)
        delta = dist.budget(inst.parts)
        checks = oracle.mixture_chain_check(inst, delta)
        all_hold = all_hold and all(c.holds for c in checks)
        all_hold = all_hold and required <= {c.name for c in checks}
        most_negative_slack = min(
            most_negative_slack, min(c.slack for c in checks)
        )
    ok = all_hold and most_negative_slack >= -1e-12
    _gate(
        4,
        ok,
        "chain of bounds holds on 100 random instances at tol 1e-12 "
        f"(most negative slack {most_negative_slack:.2e})",
    )


def test_criterion_5_training_gradients_match_finite_differences():
    """Analytic gradients of both minimax objectives agree with central
    differences on seeded random networks."""
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(5):
        d_params = nn.init_mlp([2, 8, 8, 1], ["tanh", "tanh", "sigmoid"], rng)
        g_params = nn.init_mlp([2, 8, 8, 2], ["tanh", "tanh", "identity"], rng)
        real = [rng.normal(size=(6, 2)), rng.normal(size=(6, 2)) + 1.0]
        alphas = rng.dirichlet(np.ones(2))
        fake = rng.normal(size=(6, 2))
        z = rng.normal(size=(6, 2))

        def d_loss(params):
            value, grads, _, _ = tr.discriminator_objective(params, real, alphas, fake)
            return value, grads

        worst = max(worst, nn.grad_check(d_params, d_loss, h=1e-5))
        for kind in ("minimax", "non_saturating"):

            def g_loss(params, kind=kind):
                return tr.generator_objective(params, d_params, z, kind)

            worst = max(worst, nn.grad_check(g_params, g_loss, h=1e-5))
    ok = worst <= 1e-5
    _gate(
        5,
        ok,
        "discriminator and both generator objectives match central finite "
        f"differences, rel err <= 1e-5 (worst {worst:.2e}, 5 seeded nets)",
    )


def test_criterion_6_zero_budget_training_regression():
    """A fixed-seed run on a two-Gaussian mixture converges to low histogram JSD."""
    t0 = time.perf_counter()
    config = _two_blob_config()
    result = tr.train(config)
    estimator = HistogramEstimator(np.array([[-3.0, 3.0], [-3.0, 3.0]]), 64)
    rng = np.random.default_rng(12345)
    data = tr.sample_clean_mixture(config, 20000, rng)
    fake = tr.generator_sample(result.generator, config.latent, 20000, rng)
    jsd = estimate_divergences(data, fake, estimator).jsd_nats
    elapsed = time.perf_counter() - t0
    ok = jsd < 0.15 and elapsed < 300.0
    _gate(
        6,
        ok,
        f"two-Gaussian run (8000 generator steps, seed 1) reaches histogram "
        f"JSD {jsd:.4f} < 0.15 nats (64x64 bins, 20k samples/side); "
        f"{elapsed:.0f}s < 300s",
    )


def test_criterion_7_noise_budget_moves_generator_mass():
    """Paired seeded runs: only the gamma=0.5 run pushes mass into the slab's
    offset region."""
    frac = {}
    for gamma in (0.0, 0.5):
        config = _offset_config(gamma)
        result = tr.train(config)
        samples = tr.generator_sample(
            result.generator, config.latent, 20000, np.random.default_rng(54321)
        )
        frac[gamma] = float(np.mean(samples[:, 0] > 0.75))
    ok = frac[0.5] >= 0.10 and frac[0.0] < 0.02
    _gate(
        7,
        ok,
        f"offset-region mass {frac[0.5]:.3f} >= 0.10 with budget 0.5 versus "
        f"{frac[0.0]:.3f} < 0.02 with budget 0 (paired runs, seed 0)",
    )


def test_criterion_8_histogram_estimator_matches_quadrature():
    """The binned TV estimate for N(0,1) vs N(1,1) lands on the closed-form value."""
    rng = np.random.default_rng(108)
    p = rng.normal(size=(50000, 1))
    q = rng.normal(size=(50000, 1)) + 1.0
    estimator = HistogramEstimator(np.array([[-6.0, 7.0]]), 64)
    tv = estimate_divergences(p, q, estimator).tv
    err = abs(tv - GAUSSIAN_SHIFT_TV)
    ok = err <= 0.03
    _gate(
        8,
        ok,
        f"TV estimate {tv:.4f} within 0.03 of the quadrature value 0.38292 "
        f"(err {err:.4f}; 50k samples, 64 bins)",
    )
