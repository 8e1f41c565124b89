"""In-memory span tracer wrapped around the public functions of ``tvgan``.

Each traced function is replaced, at every name a caller looks it up by (the
module attribute and every ``from ... import`` copy in other ``tvgan``
modules), with a wrapper that records one span: name, start, end, parent span
and the unit of work it belongs to. Work counts (rows, params, atoms, ...) are
taken at the same boundary, after the span has ended. Spans stay in memory;
``Tracer.summary`` turns them into per-layer metrics and ``Tracer.write_spans``
writes them out.

Only layer-boundary functions are traced. Per-row and per-atom helpers such as
``distributions.point_key`` or ``nn.as_batch`` are called hundreds of
thousands of times per request; wrapping them would cost more than the work
they do and distort every parent's self time.
"""

from __future__ import annotations

import csv
import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

TRACED = {
    "distributions": ("sample_dataset", "inject_noise", "sample_latent", "discrete_convolve", "mixture"),
    "divergence": ("tv_discrete", "jsd_discrete", "estimate_divergences"),
    "oracle": ("optimal_value", "mixture_chain_check", "channel_bound_check", "grid_minimize"),
    "nn": (
        "mlp_forward", "mlp_backward", "adam_step", "zero_grads", "add_grads",
        "init_mlp", "init_adam", "save_checkpoint",
    ),
    "training": (
        "train", "build_models", "discriminator_step", "generator_step",
        "discriminator_objective", "generator_objective", "sample_clean_mixture",
        "generator_sample", "write_run_outputs", "write_metrics_csv", "write_samples_csv",
    ),
    "cli": ("main", "cmd_train", "cmd_oracle"),
}


def _net_params(params) -> int:
    return sum(l.weights.size + l.biases.size for l in params.layers)


def _grad_params(grads) -> int:
    return sum(g.weights.size + g.biases.size for g in grads)


# Work counts taken at each traced boundary: (args, result) -> {stat: increment}.
def _count_inject(args, result):
    gamma = float(args[1].gamma)
    rows = result[1].shape[0]
    slab = int(result[1].sum())
    return {"rows": rows, "slab_rows": slab, ("slab_rows", gamma): slab, ("rows", gamma): rows}


def _count_convolve(args, result):
    p_x, slab = args[0], args[1].slab
    slab_atoms = slab.support.shape[0] if hasattr(slab, "support") else 1
    return {
        "atoms_in": p_x.support.shape[0],
        "atoms_in_x_channel": p_x.support.shape[0] * (1 + slab_atoms),
        "atoms_out": result.support.shape[0],
    }


COUNTERS = {
    "nn.mlp_forward": lambda a, r: {"rows": a[1].shape[0], "params": _net_params(a[0])},
    "nn.mlp_backward": lambda a, r: {"rows": a[1].inputs[0].shape[0], "params": _net_params(a[0])},
    "nn.adam_step": lambda a, r: {"params": _net_params(a[0])},
    "nn.zero_grads": lambda a, r: {"params": _net_params(a[0])},
    "nn.add_grads": lambda a, r: {"params": _grad_params(a[0])},
    "distributions.sample_dataset": lambda a, r: {"rows": r.shape[0]},
    "distributions.sample_latent": lambda a, r: {"rows": r.shape[0]},
    "distributions.inject_noise": _count_inject,
    "distributions.discrete_convolve": _count_convolve,
    "divergence.estimate_divergences": lambda a, r: {
        "samples": r.n_p + r.n_q, "clipped": r.clipped_p + r.clipped_q
    },
    "oracle.grid_minimize": lambda a, r: {"candidates": r.candidates},
    "training.write_run_outputs": lambda a, r: {"bytes": sum(os.path.getsize(p) for p in r)},
}

# For these the aligned (union) support size is counted after tracing ends,
# from the kept input supports, so the count costs no traced time.
ALIGNED = ("divergence.tv_discrete", "divergence.jsd_discrete")


class Tracer:
    """Span recorder for one benchmark process. ``install``/``uninstall`` swap
    the wrappers in and out, so untraced units run the program unmodified."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.unit: list[int] = []
        self.stack: list[int] = []
        self.current_unit = -1
        self.counts: dict[str, defaultdict] = {}
        self.aligned_inputs: dict[str, list] = {name: [] for name in ALIGNED}
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn):
        counter = COUNTERS.get(qualname)
        counts = self.counts.setdefault(qualname, defaultdict(float))
        kept = self.aligned_inputs.get(qualname)
        name, start, end, parent, unit, stack = (
            self.name, self.start, self.end, self.parent, self.unit, self.stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(qualname)
            parent.append(stack[-1] if stack else -1)
            unit.append(self.current_unit)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                for stat, increment in counter(args, return_value).items():
                    counts[stat] += increment
            if kept is not None:
                kept.append((args[0].support, args[1].support))
            return return_value

        return wrapper

    def install(self) -> None:
        originals = {}
        for module_name, functions in TRACED.items():
            module = sys.modules[f"tvgan.{module_name}"]
            for fn_name in functions:
                fn = getattr(module, fn_name)
                originals[id(fn)] = self._wrap(f"{module_name}.{fn_name}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "tvgan" and not mod_name.startswith("tvgan."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def slab_tally(self) -> dict[float, tuple[int, int]]:
        """Realized (slab rows, rows) per channel gamma over all traced injections."""
        counts = self.counts.get("distributions.inject_noise", {})
        return {
            key[1]: (int(counts[("slab_rows", key[1])]), int(value))
            for key, value in counts.items()
            if isinstance(key, tuple) and key[0] == "rows"
        }

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "unit", "parent", "start_s", "end_s"])
            t0 = self.start[0] if self.start else 0.0
            for i, (n, u, p, s, e) in enumerate(
                zip(self.name, self.unit, self.parent, self.start, self.end)
            ):
                writer.writerow([i, n, u, p, f"{s - t0:.9f}", f"{e - t0:.9f}"])

    def summary(self, units: int, requests: int) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics per traced unit, and report lines giving each ratio's base.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so the children never overlap.
        """
        n = len(self.start)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        names = np.asarray(self.name, dtype=object)
        by_name: dict[str, np.ndarray] = {}
        for key in set(self.name):
            by_name[key] = np.flatnonzero(names == key)

        def calls(key):
            return len(by_name.get(key, ()))

        def busy_ms(key):
            return 1e3 * float(dur[by_name[key]].sum()) / units if key in by_name else 0.0

        def self_ms(key):
            return 1e3 * float(self_time[by_name[key]].sum()) / units if key in by_name else 0.0

        def pct_ms(key, q):
            idx = by_name.get(key)
            return 1e3 * float(np.percentile(dur[idx], q)) if idx is not None else 0.0

        def count(key, stat):
            return float(self.counts.get(key, {}).get(stat, 0.0))

        m: dict[str, float] = {}
        lines: list[str] = []
        for fn in ("mlp_forward", "mlp_backward", "adam_step", "zero_grads", "add_grads"):
            key = f"nn.{fn}"
            m[f"{key}.calls"] = calls(key) / units
            m[f"{key}.busy_ms"] = busy_ms(key)
            m[f"{key}.self_ms"] = self_ms(key)
            if fn in ("mlp_forward", "mlp_backward"):
                m[f"{key}.rows"] = count(key, "rows") / units
            m[f"{key}.params"] = count(key, "params") / units
        for fn in ("discriminator_step", "generator_step"):
            key = f"training.{fn}"
            m[f"{key}.calls"] = calls(key) / units
            m[f"{key}.ms.p50"] = pct_ms(key, 50)
            m[f"{key}.ms.p99"] = pct_ms(key, 99)
            m[f"{key}.self_ms"] = self_ms(key)
            lines.append(f"{key}.ms: p50/p99 over {calls(key)} calls")
        for fn in ("discriminator_objective", "generator_objective", "sample_clean_mixture", "generator_sample"):
            m[f"training.{fn}.busy_ms"] = busy_ms(f"training.{fn}")
        for fn in ("sample_dataset", "inject_noise", "sample_latent"):
            key = f"distributions.{fn}"
            m[f"{key}.busy_ms"] = busy_ms(key)
            m[f"{key}.rows"] = count(key, "rows") / units
        key = "distributions.inject_noise"
        tally = sorted(self.slab_tally().items())
        errors = [abs(slab / total - gamma) for gamma, (slab, total) in tally]
        m[f"{key}.slab_frac_error"] = max(errors, default=0.0)
        lines.append(f"{key}.slab_frac_error: largest |slab_frac - gamma| over {len(tally)} channels")
        for gamma, (slab, total) in tally:
            lines.append(f"  {key}.slab_frac = {slab / total:.5f} ({slab}/{total} rows), gamma={gamma!r}")
        key = "divergence.estimate_divergences"
        samples = count(key, "samples")
        m[f"{key}.calls"] = calls(key) / units
        m[f"{key}.busy_ms"] = busy_ms(key)
        m[f"{key}.samples"] = samples / units
        m[f"{key}.clipped_frac"] = count(key, "clipped") / samples if samples else 0.0
        lines.append(f"{key}.clipped_frac = {count(key, 'clipped'):.0f}/{samples:.0f} samples")
        key = "distributions.discrete_convolve"
        expand = count(key, "atoms_in_x_channel")
        m[f"{key}.calls"] = calls(key) / units
        m[f"{key}.busy_ms"] = busy_ms(key)
        m[f"{key}.atoms_in"] = count(key, "atoms_in") / units
        m[f"{key}.atoms_out"] = count(key, "atoms_out") / units
        m[f"{key}.merge_ratio"] = count(key, "atoms_out") / expand if expand else 0.0
        m[f"{key}.calls_per_request"] = calls(key) / requests if requests else 0.0
        lines.append(
            f"{key}.merge_ratio = {count(key, 'atoms_out'):.0f}/{expand:.0f} "
            "atoms out / (atoms in x channel atoms)"
        )
        lines.append(f"{key}.calls_per_request = {calls(key)}/{requests} oracle requests")
        m["distributions.mixture.busy_ms"] = busy_ms("distributions.mixture")
        for fn in ("tv_discrete", "jsd_discrete"):
            key = f"divergence.{fn}"
            aligned = sum(_union_size(p, q) for p, q in self.aligned_inputs[key])
            m[f"{key}.busy_ms"] = busy_ms(key)
            m[f"{key}.aligned_atoms"] = aligned / units
        for fn in ("optimal_value", "mixture_chain_check", "channel_bound_check"):
            m[f"oracle.{fn}.busy_ms"] = busy_ms(f"oracle.{fn}")
        m["oracle.grid_minimize.busy_ms"] = busy_ms("oracle.grid_minimize")
        m["oracle.grid_minimize.candidates"] = count("oracle.grid_minimize", "candidates") / units
        m["cli.main.self_ms"] = self_ms("cli.main")
        m["training.write_run_outputs.busy_ms"] = busy_ms("training.write_run_outputs")
        m["training.write_run_outputs.bytes"] = count("training.write_run_outputs", "bytes") / units
        m["trace.spans"] = n / units
        lines.append(f"per-layer values are per traced unit, over {units} units")
        return m, lines


def _union_size(p: np.ndarray, q: np.ndarray) -> int:
    # Rounded to 12 decimals, like the program's point_key, so coincident atoms count once.
    stacked = np.round(np.vstack([p, q]), 12)
    return int(np.unique(stacked, axis=0).shape[0])


PER_LAYER_UNITS = {
    "calls": "count",
    "busy_ms": "ms",
    "self_ms": "ms",
    "p50": "ms",
    "p99": "ms",
    "rows": "rows",
    "params": "params",
    "slab_frac_error": "frac",
    "samples": "samples",
    "clipped_frac": "frac",
    "atoms_in": "atoms",
    "atoms_out": "atoms",
    "merge_ratio": "ratio",
    "calls_per_request": "calls/request",
    "aligned_atoms": "atoms",
    "candidates": "candidates",
    "bytes": "bytes",
    "spans": "count",
    "overhead_frac": "frac",
}


def unit_of(metric: str) -> str:
    return PER_LAYER_UNITS[metric.rsplit(".", 1)[1]]
