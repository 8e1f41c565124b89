"""Training a small GAN under a noise budget, end to end.

Runs the canonical training config (two tight Gaussians pushed through a
gamma=0.25 Gaussian slab), reports the in-loop divergence estimates, checks
the trained generator against the budget, and finishes with a paired
comparison showing what the budget buys: with gamma=0.5 and a point-mass
slab the generator moves real mass into the offset region; with gamma=0 it
does not.

Run:  python3 demos/budgeted_training.py   (about half a minute)
"""

import json
from pathlib import Path

import numpy as np

from tvgan.distributions import (
    DatasetPart,
    GaussianMixture,
    LatentPrior,
    MixtureComponent,
    PointMassSlab,
    SpikeSlabNoise,
    budget,
    from_json,
)
from tvgan.training import (
    BUDGET_MARGIN,
    AdamConfig,
    TrainConfig,
    evaluate_budget,
    generator_sample,
    train,
)


def main():
    config_path = Path(__file__).parent / "configs" / "train.json"
    config = from_json(TrainConfig, json.loads(config_path.read_text()))

    print("== Canonical run: two Gaussians through a gamma=0.25 slab ==")
    print(f"budget delta = max part gamma = {budget(config.datasets)}")
    result = train(config)
    logged = [m for m in result.metrics if m.tv_estimate is not None]
    print(f"{'step':>6}  {'d_loss':>9}  {'g_loss':>9}  {'TV est':>8}  {'JSD est':>8}")
    for m in logged:
        print(
            f"{m.step:>6}  {m.d_loss:>9.4f}  {m.g_loss:>9.4f}"
            f"  {m.tv_estimate:>8.4f}  {m.jsd_estimate:>8.4f}"
        )

    report = evaluate_budget(result.generator, config, n_eval=20000)
    print(
        f"final budget check: JSD(clean data, generator) = {report.jsd_estimate:.4f} "
        f"vs delta + margin = {report.delta + BUDGET_MARGIN:.2f} -> within budget: {report.within_budget}"
    )

    print()
    print("== What the budget buys: paired runs, gamma = 0 vs 0.5 ==")
    for gamma in (0.0, 0.5):
        cfg = _offset_config(gamma)
        fake = generator_sample(
            train(cfg).generator, cfg.latent, 20000, np.random.default_rng(54321)
        )
        frac = float(np.mean(fake[:, 0] > 0.75))
        print(f"gamma = {gamma}: generator mass in the offset region x0 > 0.75: {frac:.3f}")


def _offset_config(gamma):
    """One Gaussian at (-1.5, 0); the slab shifts half the samples by (3, 0)."""
    spec = GaussianMixture(
        [MixtureComponent(mean=[-1.5, 0.0], cov_diag=[0.0625, 0.0625], weight=1.0)]
    )
    return TrainConfig(
        datasets=[DatasetPart(spec=spec, alpha=1.0, noise=SpikeSlabNoise(gamma, PointMassSlab([3.0, 0.0])))],
        latent=LatentPrior(2, "gaussian"),
        g_hidden=[32, 32],
        d_hidden=[32, 32],
        hidden_activation="tanh",
        k=5,
        batch_size=128,
        total_samples_n=12800,
        epochs=30,
        generator_loss="non_saturating",
        g_adam=AdamConfig(lr=2e-4, beta1=0.5),
        d_adam=AdamConfig(lr=1e-3, beta1=0.5),
        eval_every=10**9,
        samples_out=0,
        seed=0,
    )


if __name__ == "__main__":
    main()
