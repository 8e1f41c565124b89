"""Divergence-budgeted adversarial training toolkit.

Three layers, verifiable bottom to top:

- exact: finite-support distributions, discrete convolution through the
  spike-and-slab channel, closed-form TV/JSD, and a brute-force minimax
  oracle (``oracle``);
- estimated: histogram TV/JSD for low-dimensional sampled data
  (``divergence``);
- trained: a from-scratch MLP minimax loop with per-dataset noise channels
  that keep the generated law within a chosen divergence budget of the data
  (``nn``, ``training``).
"""

__version__ = "0.1.0"

from .distributions import (
    DatasetPart,
    DirichletSlab,
    DiscreteDist,
    FileDataset,
    GaussianMixture,
    GaussianSlab,
    LatentPrior,
    MixtureComponent,
    PointMassSlab,
    Ring,
    SpikeSlabNoise,
    UnsupportedSlabError,
    discrete_convolve,
    inject_noise,
    mixture,
    sample_dataset,
    sample_latent,
    sample_spike_slab,
)
from .divergence import (
    DivergenceReport,
    HistogramEstimator,
    estimate_divergences,
    jsd_discrete,
    tv_discrete,
)
from .nn import (
    AdamConfig,
    AdamState,
    MlpParams,
    adam_step,
    grad_check,
    init_adam,
    init_mlp,
    load_checkpoint,
    mlp_apply,
    mlp_backward,
    mlp_forward,
    save_checkpoint,
)
from .oracle import (
    GameInstance,
    GridMinimum,
    Inequality,
    game_value,
    grid_minimize,
    instance_checks,
    mixture_chain_check,
    optimal_discriminator,
    optimal_value,
)
from .training import (
    BudgetReport,
    MetricsRecord,
    TrainConfig,
    TrainResult,
    build_models,
    discriminator_objective,
    discriminator_step,
    evaluate_budget,
    generator_objective,
    generator_sample,
    generator_step,
    sample_clean_mixture,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
