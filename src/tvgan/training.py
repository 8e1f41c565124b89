"""Two-player minimax training with weighted datasets and divergence budgets.

Each outer iteration runs ``k`` discriminator ascents followed by one
generator descent. Every discriminator minibatch is pushed through its
dataset's spike-and-slab channel before scoring, so the discriminator learns
to match the noised mixture while the clean data stays within ``gamma`` total
variation of what it sees. Runs are fully deterministic given the config seed.

Each histogram eval draws from its own random stream, so evals never move
the trained networks. Its generator forward runs on the run's one worker
thread (a one-thread ``ThreadPoolExecutor``, started at the first eval) while
training goes on; its record is completed at the next eval or at the end of
the run, so the numbers are the same as an inline eval's.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import nn
from .distributions import (
    DatasetPart,
    LatentPrior,
    _categorical_cdf,
    _draw_categorical,
    budget,
    check_parts,
    format_samples,
    from_json,
    inject_noise,
    sample_dataset,
    sample_latent,
)
from .divergence import HistogramEstimator, estimate_divergences
from .nn import AdamConfig

LOG_EPS = nn.LOG_EPS


def _mean(v: np.ndarray) -> float:
    # np.mean's sum and division, without its wrappers: the same bits
    return float(v.sum() / v.size)


def _safe_log(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log of ``v`` clamped to [LOG_EPS, 1], and its derivative, which is zero
    on the clamped flats."""
    clamped = np.minimum(np.maximum(v, LOG_EPS), 1.0)  # np.clip's ufuncs, without its wrappers
    grad = 1.0 / clamped
    grad[(v < LOG_EPS) | (v > 1.0)] = 0.0
    return np.log(clamped), grad


@dataclass
class TrainConfig:
    """Every knob of the training procedure; one seed drives all randomness.

    The networks, the loss columns of the metrics and the final sample depend
    on the seed and the training fields only, not on ``estimator``,
    ``eval_every`` or ``eval_samples``: training draws from
    ``default_rng(seed)`` and the evals from child 0 of ``SeedSequence(seed)``.
    """

    datasets: list[DatasetPart]
    latent: LatentPrior
    g_hidden: list[int] = field(default_factory=lambda: [32, 32])
    d_hidden: list[int] = field(default_factory=lambda: [32, 32])
    hidden_activation: str = "tanh"
    k: int = 1
    batch_size: int = 64
    total_samples_n: int = 6400
    epochs: int = 1
    injection_mode: str = "per_sample"
    generator_loss: str = "minimax"
    g_adam: AdamConfig = field(default_factory=AdamConfig)
    d_adam: AdamConfig = field(default_factory=AdamConfig)
    eval_every: int = 100
    eval_samples: int = 20000
    estimator: HistogramEstimator | None = None
    samples_out: int = 5000
    seed: int = 0

    def __post_init__(self):
        dim = check_parts(self.datasets, "datasets", "datasets[{}].noise")
        for name in ("g_hidden", "d_hidden"):
            widths = getattr(self, name)
            if any(w < 1 for w in widths):
                raise ValueError(f"{name} widths must be >= 1, got {list(widths)}")
        if self.hidden_activation not in nn.ACTIVATIONS:
            raise ValueError(
                f"hidden_activation must be one of {', '.join(nn.ACTIVATIONS)}, "
                f"got {self.hidden_activation!r}"
            )
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.batch_size < 1 or self.total_samples_n < 1:
            raise ValueError("batch_size and total_samples_n must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.injection_mode not in ("per_sample", "per_batch"):
            raise ValueError(f"unknown injection_mode {self.injection_mode!r}")
        if self.generator_loss not in ("minimax", "non_saturating"):
            raise ValueError(f"unknown generator_loss {self.generator_loss!r}")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.estimator is not None and self.estimator.dimension != dim:
            raise ValueError(
                f"estimator dimension {self.estimator.dimension} does not match "
                f"sample dimension {dim}"
            )
        if self.estimator is not None and self.eval_samples < 1:
            raise ValueError(f"eval_samples must be >= 1 with an estimator, got {self.eval_samples}")
        if self.samples_out < 0:
            raise ValueError(f"samples_out must be >= 0, got {self.samples_out}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def data_dim(self) -> int:
        return self.datasets[0].spec.dimension

    @property
    def steps_per_epoch(self) -> int:
        return math.ceil(self.total_samples_n / self.batch_size)

    # The program reads configs with ``from_json``. This stays because the benchmark
    # (perfbench/workloads.py, perfbench/setup_probe.py) parses its configs with it.
    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        return from_json(TrainConfig, d)


@dataclass
class MetricsRecord:
    """Per-step losses plus periodic divergence estimates."""

    step: int
    d_loss: float
    g_loss: float
    d_real: float
    d_fake: float
    tv_estimate: float | None = None
    jsd_estimate: float | None = None


METRICS_CSV_HEADER = ["step", "d_loss", "g_loss", "d_real", "d_fake", "tv", "jsd"]


def _child_rng(seed: int, child: int) -> np.random.Generator:
    """A generator on child ``child`` of ``SeedSequence(seed)``, a stream
    independent of the training stream ``default_rng(seed)``: child 0 feeds
    ``train``'s evals and child 1 ``evaluate_budget``'s default."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[child])


def build_models(config: TrainConfig, rng: np.random.Generator) -> tuple[nn.MlpParams, nn.MlpParams]:
    """Seeded generator and discriminator networks for this config.

    The generator ends with an identity layer (unbounded samples), the
    discriminator with a sigmoid so scores live in (0, 1).
    """
    act = config.hidden_activation
    g_sizes = [config.latent.dimension, *config.g_hidden, config.data_dim]
    d_sizes = [config.data_dim, *config.d_hidden, 1]
    generator = nn.init_mlp(g_sizes, [act] * len(config.g_hidden) + ["identity"], rng)
    discriminator = nn.init_mlp(d_sizes, [act] * len(config.d_hidden) + ["sigmoid"], rng)
    return generator, discriminator


def discriminator_objective(
    d_params: nn.MlpParams,
    real_batches: list[np.ndarray],
    alphas: np.ndarray,
    fake_batch: np.ndarray,
) -> tuple[float, np.ndarray, float, float]:
    """Ascending objective for fixed minibatches, with its exact gradient.

    ``sum_l alpha_l * mean_i log D(x_l_i) + mean_i log(1 - D(fake_i))``.
    Returns (value, gradient vector laid out like ``d_params.flat``, mean
    score on real data weighted by alpha, mean score on fakes). The gradient
    is the sum of one backward pass per batch, added in pass order (real
    batches, then the fake one).
    """
    grads = None
    value = mean_real = 0.0
    for alpha, batch in zip(alphas, real_batches):
        out, cache = nn.mlp_forward(d_params, batch)
        n = out.shape[0]
        log_out, log_grad = _safe_log(out)
        value += alpha * _mean(log_out)
        mean_real += alpha * _mean(out)
        g, _ = nn.mlp_backward(d_params, cache, (alpha / n) * log_grad, input_grad=False)
        grads = g if grads is None else np.add(grads, g, out=grads)
    out, cache = nn.mlp_forward(d_params, fake_batch)
    n = out.shape[0]
    log_rest, log_grad = _safe_log(1.0 - out)
    value += _mean(log_rest)
    mean_fake = _mean(out)
    g, _ = nn.mlp_backward(d_params, cache, -(1.0 / n) * log_grad, input_grad=False)
    grads = g if grads is None else np.add(grads, g, out=grads)
    # alphas may arrive as a numpy vector; keep the scalar outputs plain floats
    # so downstream repr()-based serialization stays portable.
    return float(value), grads, float(mean_real), mean_fake


def generator_objective(
    g_params: nn.MlpParams,
    d_params: nn.MlpParams,
    latent_batch: np.ndarray,
    loss_kind: str = "minimax",
) -> tuple[float, np.ndarray]:
    """Descending objective for a fixed latent minibatch, with its gradient
    vector, laid out like ``g_params.flat``.

    ``minimax`` descends ``mean log(1 - D(G(z)))``; ``non_saturating``
    descends ``-mean log D(G(z))``, which has the same fixed point but does
    not stall when the discriminator confidently rejects fakes. The pass back
    through the frozen discriminator computes only d(loss)/d(fake).
    """
    fake, g_cache = nn.mlp_forward(g_params, latent_batch)
    score, d_cache = nn.mlp_forward(d_params, fake)
    n = score.shape[0]
    if loss_kind == "minimax":
        log_rest, log_grad = _safe_log(1.0 - score)
        value = _mean(log_rest)
    elif loss_kind == "non_saturating":
        log_score, log_grad = _safe_log(score)
        value = -_mean(log_score)
    else:
        raise ValueError(f"unknown generator loss {loss_kind!r}")
    score_grad = -(1.0 / n) * log_grad
    _, fake_grad = nn.mlp_backward(d_params, d_cache, score_grad, params_grad=False)
    grads, _ = nn.mlp_backward(g_params, g_cache, fake_grad, input_grad=False)
    return value, grads


@dataclass
class DiscStepStats:
    loss: float
    mean_real: float
    mean_fake: float


def discriminator_step(
    d_params: nn.MlpParams,
    d_state: nn.AdamState,
    g_params: nn.MlpParams,
    config: TrainConfig,
    rng: np.random.Generator,
) -> tuple[nn.MlpParams, nn.AdamState, DiscStepStats]:
    """One ascent step: fresh noised minibatches per dataset, one latent batch.

    ``discriminator_objective`` on those batches, then ``nn.adam_step``
    descending the negated gradient, which ascends the objective; returns
    fresh params and state and leaves the inputs untouched.
    """
    real_batches = []
    for part in config.datasets:
        batch = sample_dataset(part.spec, config.batch_size, rng)
        noised, _ = inject_noise(batch, part.noise, config.injection_mode, rng)
        real_batches.append(noised)
    z = sample_latent(config.latent, config.batch_size, rng)
    fake = nn.mlp_apply(g_params, z)
    alphas = [part.alpha for part in config.datasets]
    value, grads, mean_real, mean_fake = discriminator_objective(d_params, real_batches, alphas, fake)
    if not np.isfinite(value):
        raise nn.NonFiniteError("discriminator objective")
    # the objective's gradient is a fresh vector, so it is negated in place
    d_params, d_state = nn.adam_step(d_params, np.negative(grads, out=grads), d_state)
    return d_params, d_state, DiscStepStats(value, mean_real, mean_fake)


def generator_step(
    g_params: nn.MlpParams,
    g_state: nn.AdamState,
    d_params: nn.MlpParams,
    config: TrainConfig,
    rng: np.random.Generator,
) -> tuple[nn.MlpParams, nn.AdamState, float]:
    """One descent step on the generator with the discriminator frozen.

    ``generator_objective`` on a fresh latent batch, then ``nn.adam_step``
    on its gradient; returns fresh params and state and leaves the inputs
    untouched.
    """
    z = sample_latent(config.latent, config.batch_size, rng)
    value, grads = generator_objective(g_params, d_params, z, config.generator_loss)
    if not np.isfinite(value):
        raise nn.NonFiniteError("generator objective")
    g_params, g_state = nn.adam_step(g_params, grads, g_state)
    return g_params, g_state, value


def sample_clean_mixture(config: TrainConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw from the alpha-weighted mixture of the clean (un-noised) datasets."""
    which = _draw_categorical(_categorical_cdf(np.array([part.alpha for part in config.datasets])), n, rng)
    out = np.zeros((n, config.data_dim))
    for l, part in enumerate(config.datasets):
        rows = which == l
        count = int(rows.sum())
        if count:
            out[rows] = sample_dataset(part.spec, count, rng)
    return out


def generator_sample(
    g_params: nn.MlpParams, latent: LatentPrior, n: int, rng: np.random.Generator
) -> np.ndarray:
    z = sample_latent(latent, n, rng)
    return nn.mlp_apply(g_params, z)


@dataclass
class TrainResult:
    generator: nn.MlpParams
    discriminator: nn.MlpParams
    metrics: list[MetricsRecord]
    outputs: list[Path] = field(default_factory=list)  # the files ``train`` wrote, if any


def _fill_estimates(metrics: list[MetricsRecord], pending, estimator: HistogramEstimator) -> None:
    """Fill in the estimates of the eval ``pending`` = (record index, clean
    sample, future of the generator forward). ``future.result()`` waits for the
    forward and re-raises its error here, on the calling thread."""
    index, data, future = pending
    # the estimator stays on the calling thread, where its Python-heavy
    # binning does not contend with training for the GIL
    report = estimate_divergences(data, future.result(), estimator)
    metrics[index] = replace(metrics[index], tv_estimate=report.tv, jsd_estimate=report.jsd_nats)


def train(config: TrainConfig, out_dir: str | Path | None = None) -> TrainResult:
    """Run the full minimax loop: epochs x ceil(n / batch) outer iterations.

    Each outer iteration performs ``k`` discriminator ascents and one
    generator descent; a metrics record is appended per generator step, with
    divergence estimates against a fresh clean-mixture sample every
    ``eval_every`` steps. If ``out_dir`` is given, metrics, checkpoints, and a
    final generator sample are written there at the end, and listed in the
    result's ``outputs``.

    An eval draws its clean and latent samples at its step from child 0 of
    ``SeedSequence(config.seed)``, never from the training stream, then
    submits its generator forward to the run's one worker thread, which
    overlaps it with the following steps; at most one is in flight, and its
    estimates are filled in at the next eval or after the loop. The forward's
    future carries its error, raised from there, and no thread outlives the
    call.
    """
    # imported here, not at the top, where it would add ~5 ms to every import of this module
    from concurrent.futures import ThreadPoolExecutor

    rng, eval_rng = np.random.default_rng(config.seed), _child_rng(config.seed, 0)
    g_params, d_params = build_models(config, rng)
    g_state = nn.init_adam(g_params, config.g_adam)
    d_state = nn.init_adam(d_params, config.d_adam)
    metrics: list[MetricsRecord] = []
    pending = None  # the eval in flight: (record index, clean sample, future)
    step = 0
    # The worker thread starts at the first submit; leaving the block joins it.
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="tvgan-eval") as worker:
        for _ in range(config.epochs):
            for _ in range(config.steps_per_epoch):
                stats = None
                for _ in range(config.k):
                    d_params, d_state, stats = discriminator_step(
                        d_params, d_state, g_params, config, rng
                    )
                g_params, g_state, g_loss = generator_step(
                    g_params, g_state, d_params, config, rng
                )
                step += 1
                metrics.append(
                    MetricsRecord(
                        step=step,
                        d_loss=stats.loss,
                        g_loss=g_loss,
                        d_real=stats.mean_real,
                        d_fake=stats.mean_fake,
                    )
                )
                if config.estimator is not None and step % config.eval_every == 0:
                    if pending is not None:
                        _fill_estimates(metrics, pending, config.estimator)
                        pending = None  # its samples are freed before the next draws
                    data = sample_clean_mixture(config, config.eval_samples, eval_rng)
                    z = sample_latent(config.latent, config.eval_samples, eval_rng)
                    # g_params is not copied: the pure steps never change it afterwards
                    pending = (len(metrics) - 1, data, worker.submit(nn.mlp_apply, g_params, z))
                    del data, z  # the worker holds z only until the forward returns
        if pending is not None:
            _fill_estimates(metrics, pending, config.estimator)
    result = TrainResult(g_params, d_params, metrics)
    if out_dir is not None:
        result.outputs = write_run_outputs(result, config, out_dir, rng)
    return result


def write_metrics_csv(metrics: list[MetricsRecord], path: str | Path) -> Path:
    """Stable-header CSV with full round-trip float precision; blank cells for
    steps without divergence estimates."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_CSV_HEADER)
        for rec in metrics:
            writer.writerow(
                [
                    rec.step,
                    repr(rec.d_loss),
                    repr(rec.g_loss),
                    repr(rec.d_real),
                    repr(rec.d_fake),
                    "" if rec.tv_estimate is None else repr(rec.tv_estimate),
                    "" if rec.jsd_estimate is None else repr(rec.jsd_estimate),
                ]
            )
    return path


# Writes ``format_samples``' text, not CSV. The name stays because the benchmark's
# tracer (perfbench/tracing.py) looks it up.
def write_samples_csv(samples: np.ndarray, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(format_samples(samples))
    return path


def write_run_outputs(
    result: TrainResult,
    config: TrainConfig,
    out_dir: str | Path,
    rng: np.random.Generator,
) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [write_metrics_csv(result.metrics, out / "metrics.csv")]
    for name, params in (("generator", result.generator), ("discriminator", result.discriminator)):
        written += [nn.save_checkpoint(params, out / f"{name}.json"), out / f"{name}.bin"]
    samples = generator_sample(result.generator, config.latent, config.samples_out, rng)
    written.append(write_samples_csv(samples, out / "samples.txt"))
    return written


# ``evaluate_budget``'s allowance over delta for estimator bias and the
# finite-capacity optimization gap.
BUDGET_MARGIN = 0.15


@dataclass
class BudgetReport:
    """Estimated divergences between the clean mixture and the generator."""

    tv_estimate: float
    jsd_estimate: float
    delta: float
    within_budget: bool


def evaluate_budget(
    g_params: nn.MlpParams,
    config: TrainConfig,
    n_eval: int,
    rng: np.random.Generator | None = None,
) -> BudgetReport:
    """Check the trained generator against the budget.

    Compares generator samples to the clean mixture (not the noised one; the
    budget claim is about the original data) and soft-checks
    ``jsd <= delta + BUDGET_MARGIN``. The default ``rng`` is child 1 of
    ``SeedSequence(config.seed)``, a stream shared with neither the run's
    training nor its evals; ``default_rng(config.seed)`` would restart the
    training stream and replay the run's first draws.
    """
    if config.estimator is None:
        raise ValueError("config has no histogram estimator")
    if rng is None:
        rng = _child_rng(config.seed, 1)
    data = sample_clean_mixture(config, n_eval, rng)
    fake = generator_sample(g_params, config.latent, n_eval, rng)
    report = estimate_divergences(data, fake, config.estimator)
    delta = budget(config.datasets)
    return BudgetReport(
        tv_estimate=report.tv,
        jsd_estimate=report.jsd_nats,
        delta=delta,
        within_budget=report.jsd_nats <= delta + BUDGET_MARGIN,
    )
