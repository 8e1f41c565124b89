"""Command-line entry point: train, oracle, divergence, sample, gradcheck.

Exit codes follow one contract everywhere: 0 on success (and all checked
inequalities holding), 1 on runtime failure or a failed check, 2 on bad
usage or malformed input files. Every training run writes a manifest that is
sufficient to reproduce it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, nn
from .distributions import (
    DatasetSpec,
    FileDataset,
    GaussianMixture,
    MixtureComponent,
    Ring,
    from_json,
    load_samples,
    sample_dataset,
    to_json,
)
from .divergence import DivergenceReport, HistogramEstimator, estimate_divergences
from .oracle import CHAIN_CSV_HEADER, CHECK_FAMILIES, GameInstance, instance_checks
from .training import TrainConfig, train


class UsageError(Exception):
    """Bad arguments or malformed input files; maps to exit code 2."""


@dataclass
class RunManifest:
    """Reproducibility record: the config echo plus the seed fully determine a run."""

    tool: str
    version: str
    seed: int
    config: dict
    started: str
    finished: str | None = None
    outputs: list[str] = field(default_factory=list)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(asdict(self), indent=2) + "\n")


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _load_json(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"file not found: {p}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise UsageError(f"{p}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{p}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    if not isinstance(data, dict):
        raise UsageError(f"{p}: must be a JSON object, got {type(data).__name__}")
    return data


def _out_file(path: str | None) -> Path | None:
    """``--out`` of a report, None for stdout, checked with stats before any
    work: its directory must exist and it must not be one. An existing file
    is overwritten."""
    if not path:
        return None
    p = Path(path)
    if p.is_dir():
        raise UsageError(f"--out {p}: is a directory")
    if not p.parent.is_dir():
        raise UsageError(f"--out {p}: directory {p.parent} does not exist")
    return p


def _out_dir(path: str) -> Path:
    """``--out`` of a run, checked with stats before any work: it and its
    nearest existing ancestor must be directories, since ``train`` creates the
    missing ones."""
    p = Path(path)
    existing = next(a for a in (p, *p.parents) if a.exists())
    if not existing.is_dir():
        raise UsageError(f"--out {p}: {existing} is not a directory")
    return p


def cmd_train(args) -> int:
    raw = _load_json(args.config)
    try:
        if args.seed is not None:
            raw = {**raw, "seed": args.seed}
        config = from_json(TrainConfig, raw)  # reads every file dataset's samples
    except (OSError, ValueError) as exc:
        raise UsageError(f"{args.config}: {exc}") from exc
    out = _out_dir(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        tool="tvgan",
        version=__version__,
        seed=config.seed,
        config=to_json(config),
        started=_utc_now(),
    )
    manifest_path = out / "manifest.json"
    manifest.write(manifest_path)
    result = train(config, out_dir=out)
    manifest.finished = _utc_now()
    manifest.outputs = sorted(p.name for p in result.outputs)
    manifest.write(manifest_path)
    if result.metrics:
        last = result.metrics[-1]
        print(
            f"done: {last.step} generator steps, "
            f"d_loss={last.d_loss:.6f}, g_loss={last.g_loss:.6f}"
        )
    else:
        print("done: 0 generator steps")
    return 0


def cmd_oracle(args) -> int:
    out = _out_file(args.out)
    raw = _load_json(args.instance)
    try:
        inst = GameInstance.from_dict(raw)
    except ValueError as exc:
        raise UsageError(f"{args.instance}: {exc}") from exc
    try:
        checks = instance_checks(inst, args.check, args.delta)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    lines = [CHAIN_CSV_HEADER] + [c.csv_row() for c in checks]
    text = "\n".join(lines) + "\n"
    if out:
        out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if all(c.holds for c in checks) else 1


def cmd_divergence(args) -> int:
    try:
        samples_p, samples_q = load_samples(args.samples_p), load_samples(args.samples_q)
    except (OSError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    if samples_p.shape[1] != samples_q.shape[1]:
        raise UsageError(
            f"dimension mismatch: {samples_p.shape[1]} vs {samples_q.shape[1]}"
        )
    if args.bounds:
        try:
            bounds = np.array(
                [[float(part) for part in b.split(",")] for b in args.bounds]
            )
        except ValueError as exc:
            raise UsageError(f"bad --bounds (want 'low,high' per dimension): {exc}") from exc
        if bounds.shape != (samples_p.shape[1], 2):
            raise UsageError(
                f"need one 'low,high' pair per dimension ({samples_p.shape[1]}), "
                f"got {len(args.bounds)}"
            )
    else:
        stacked = np.vstack([samples_p, samples_q])
        low = stacked.min(axis=0)
        high = stacked.max(axis=0)
        # relative to the magnitude, like MERGE_RTOL: an absolute pad rounds away above ~1.6e7
        pad = 1e-9 * np.maximum(1.0, np.maximum(np.abs(low), np.abs(high)))
        bounds = np.column_stack([low - pad, high + pad])
    try:
        est = HistogramEstimator(bounds, args.bins, args.smoothing)
        report = estimate_divergences(samples_p, samples_q, est)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(DivergenceReport.CSV_HEADER)
    print(report.csv_row())
    return 0


_PRESETS = {
    "ring": lambda args: Ring(radius=args.radius, noise_std=args.noise_std),
    "gaussian": lambda args: GaussianMixture(
        [MixtureComponent(np.zeros(2), np.ones(2), 1.0)]
    ),
}


def cmd_sample(args) -> int:
    out = _out_file(args.out)
    try:
        if args.spec in _PRESETS:
            spec = _PRESETS[args.spec](args)
        else:
            spec = from_json(DatasetSpec, _load_json(args.spec))
            if isinstance(spec, FileDataset):
                spec.load()
    except (OSError, ValueError) as exc:
        raise UsageError(f"{args.spec}: {exc}") from exc
    if args.n < 1:
        raise UsageError("-n must be >= 1")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    rows = sample_dataset(spec, args.n, rng)
    lines = "\n".join(" ".join(repr(float(v)) for v in row) for row in rows) + "\n"
    if out:
        out.write_text(lines)
    else:
        sys.stdout.write(lines)
    return 0


def cmd_gradcheck(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad --sizes (want comma-separated ints): {exc}") from exc
    if not (np.isfinite(args.step) and args.step > 0):
        raise UsageError(f"--step must be finite and > 0, got {args.step!r}")
    if not (np.isfinite(args.tol) and args.tol >= 0):
        raise UsageError(f"--tol must be finite and >= 0, got {args.tol!r}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    try:
        params = nn.init_mlp(sizes, [args.activation] * (len(sizes) - 2) + ["identity"], rng)
    except ValueError as exc:
        raise UsageError(f"--sizes {args.sizes}: {exc}") from exc
    x = rng.standard_normal((4, sizes[0]))
    readout = rng.standard_normal((4, sizes[-1]))

    def loss(p):
        out, cache = nn.mlp_forward(p, x)
        grads, _ = nn.mlp_backward(p, cache, readout)
        return float(np.sum(out * readout)), grads

    err = nn.grad_check(params, loss, h=args.step)
    print(f"max_rel_error={err!r}")
    return 0 if err <= args.tol else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use.

    Each subcommand's name is stored in ``args.command``, and ``main`` looks
    up ``cmd_<name>`` in this module at call time, so a command replaced on
    the module after the parser was built is still the one that runs.
    """
    parser = argparse.ArgumentParser(
        prog="tvgan",
        description="Divergence-budgeted adversarial training toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training config end to end")
    p_train.add_argument("--config", required=True, help="JSON training config")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_oracle = sub.add_parser("oracle", help="exact checks on a discrete game instance")
    p_oracle.add_argument("--instance", required=True, help="JSON game instance")
    p_oracle.add_argument(
        "--check",
        choices=CHECK_FAMILIES,
        default="all",
        help="which inequality family to verify",
    )
    p_oracle.add_argument(
        "--delta", type=float, default=None, help="chain-check budget in [0, 1] (default: max gamma)"
    )
    p_oracle.add_argument("--out", default=None, help="write the CSV report here instead of stdout")

    p_div = sub.add_parser("divergence", help="histogram TV/JSD between two sample files")
    p_div.add_argument("samples_p", help="first sample file (text rows)")
    p_div.add_argument("samples_q", help="second sample file (text rows)")
    p_div.add_argument("--bins", type=int, default=64, help="bins per dimension")
    p_div.add_argument(
        "--bounds",
        nargs="+",
        default=None,
        metavar="LOW,HIGH",
        help="per-dimension bounds; default: data range",
    )
    p_div.add_argument("--smoothing", type=float, default=1e-9, help="pseudo-count per bin")

    p_sample = sub.add_parser("sample", help="draw samples from a dataset spec")
    p_sample.add_argument("spec", help="JSON spec file, or preset: ring, gaussian")
    p_sample.add_argument("-n", type=int, default=1000, help="number of samples")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--radius", type=float, default=1.0, help="ring preset radius")
    p_sample.add_argument("--noise-std", type=float, default=0.05, help="ring preset jitter")
    p_sample.add_argument("--out", default=None, help="write samples here instead of stdout")

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of the backward pass")
    p_grad.add_argument("--sizes", default="2,8,8,1", help="comma-separated layer widths")
    p_grad.add_argument("--activation", choices=nn.ACTIVATIONS, default="tanh")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--step", type=float, default=1e-5, help="finite-difference step")
    p_grad.add_argument("--tol", type=float, default=1e-6, help="pass threshold")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return globals()[f"cmd_{args.command}"](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # CLI boundary: report and exit nonzero
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
