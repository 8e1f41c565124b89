"""The benchmark tracer (``perfbench/tracing.py``) finds the functions it
wraps by name on the ``tvgan`` modules, so renaming or deleting one of them
breaks ``perfbench/run.py --trace 1``, and work that reaches the same
arithmetic through an untraced name reads 0 in its metrics. These tests load
the tracer from its file, unmodified, and check its names against the
program."""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import tvgan.cli  # noqa: F401  (imports every module the tracer patches)
from tvgan import distributions as dist
from tvgan import nn, training

TRACING_PY = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
TRACED_NAMES = [(module, fn) for module, names in tracing.TRACED.items() for fn in names]


def _tvgan_namespaces():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "tvgan" or name.startswith("tvgan.")
    }


def test_every_traced_name_resolves():
    missing = [
        f"tvgan.{module_name}.{fn_name}"
        for module_name, fn_name in TRACED_NAMES
        if not callable(getattr(importlib.import_module(f"tvgan.{module_name}"), fn_name, None))
    ]
    assert not missing, f"traced but gone: {missing}"


def test_install_wraps_every_name_and_uninstall_restores_every_attribute():
    before = _tvgan_namespaces()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module_name, fn_name in TRACED_NAMES:
            wrapper = getattr(sys.modules[f"tvgan.{module_name}"], fn_name)
            assert wrapper.__wrapped__ is before[f"tvgan.{module_name}"][fn_name]
    finally:
        tracer.uninstall()
    after = _tvgan_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        changed = [attr for attr, value in namespace.items() if after[name].get(attr) is not value]
        assert not changed, f"{name}: {changed} not restored"


def test_the_training_steps_run_through_the_traced_objectives_and_adam():
    """Each step is its objective followed by ``nn.adam_step``, and each
    objective's backward passes are ``nn.mlp_backward`` calls (one per batch
    for D, one through D and one through G for G), so the objectives', the
    backward pass's and Adam's per-layer metrics see every step of a run."""
    k, steps = 2, 2
    config = training.TrainConfig(
        datasets=[
            training.DatasetPart(
                spec=dist.Ring(1.0, 0.05),
                alpha=1.0,
                noise=dist.SpikeSlabNoise(0.25, dist.PointMassSlab(np.array([0.5, 0.0]))),
            )
        ],
        latent=dist.LatentPrior(2),
        g_hidden=[4],
        d_hidden=[4],
        k=k,
        batch_size=8,
        total_samples_n=8 * steps,
        samples_out=0,
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        training.train(config)
    finally:
        tracer.uninstall()
    spans = Counter(tracer.name)
    assert spans["training.discriminator_step"] == spans["training.discriminator_objective"] == k * steps
    assert spans["training.generator_step"] == spans["training.generator_objective"] == steps
    assert spans["nn.adam_step"] == (k + 1) * steps
    parts = len(config.datasets)
    assert spans["nn.mlp_backward"] == (parts + 1) * k * steps + 2 * steps


def test_mlp_apply_records_no_span():
    """``nn.mlp_apply`` runs on the eval worker thread, and the tracer keeps
    one span stack per process, so it must reach the layer loop without
    passing through a traced name, in one block or in several."""
    params = nn.init_mlp([2, 8, 1], ["tanh", "sigmoid"], np.random.default_rng(0))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for rows in (16, 2 * (nn.APPLY_BLOCK_BYTES // (8 * 8)) + 1):  # one block, then three
            nn.mlp_apply(params, np.zeros((rows, 2)))
    finally:
        tracer.uninstall()
    assert tracer.name == []
