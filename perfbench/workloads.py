"""The benchmark's workloads: input generation, one unit of work, and the gates.

A workload makes all of its input files from the seed before anything is
timed. ``run_unit`` then issues one closed-loop unit of requests (one client,
the next request only after the previous one returns) and times each request;
``check`` applies the correctness gates afterwards, outside the timed region
and outside any tracing. Every failed gate marks its request as failed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tvgan import cli, distributions, nn, oracle, training

LN2 = math.log(2.0)


@dataclass
class Op:
    """One timed request and what its gates found.

    ``granules`` splits ``seconds`` into consecutive intervals. For ``tvgan
    train`` a granule runs from one generator step's return to the next (the
    first also holds argument parsing and model set-up, the last the output
    writing); any other request is one granule.
    """

    kind: str
    seconds: float
    work: float  # generator steps for a train request, 1 for an oracle request
    granules: list[float]
    failures: list[str] = field(default_factory=list)
    detail: object = None  # what ``check`` needs: an output dir, a report path, a result
    traced: bool = False


def slab_tolerance(rows: int, gamma: float) -> float:
    """Allowed |slab rows - rows * gamma|: six binomial standard deviations plus one row."""
    return 6.0 * math.sqrt(rows * gamma * (1.0 - gamma)) + 1.0


def slab_failures(per_gamma: dict[float, tuple[int, int]]) -> list[str]:
    """Realized slab fractions (slab rows, rows) per channel gamma, against the gamma."""
    out = []
    for gamma, (slab, rows) in per_gamma.items():
        if abs(slab - rows * gamma) > slab_tolerance(rows, gamma):
            out.append(f"slab_frac {slab}/{rows} outside binomial tolerance of gamma={gamma}")
    return out


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TrainWorkload:
    """Repeated ``tvgan train`` calls, in process through ``cli.main``, on one
    generated config with one seed. Every call does identical work, so the
    calls are comparable and their metrics.csv digests must agree."""

    kind = "train"

    def __init__(self, name: str, config: dict, seed: int, work: Path, budget_gate: bool):
        self.name = name
        self.seed = seed
        self.work = work
        self.budget_gate = budget_gate
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(config, indent=2) + "\n")
        seeded = dict(config, seed=seed)
        self.config = training.TrainConfig.from_dict(seeded)
        self.steps = self.config.epochs * self.config.steps_per_epoch
        self.reference_digest: str | None = None
        self.channel_failures = self._channel_check()

    @property
    def input_files(self) -> list[str]:
        return [f"train:{self.config_path}"]

    def _channel_check(self) -> list[str]:
        """Each channel, driven for as many rows as one call injects, realizes its gamma.

        The rows are drawn one batch at a time, so the check's own arrays stay
        batch-sized and do not set the process's peak resident set.
        """
        batch_size, batches = self.config.batch_size, self.config.k * self.steps
        per_gamma: dict[float, list[int]] = {}
        for l, part in enumerate(self.config.datasets):
            rng = np.random.default_rng([self.seed, l])
            tally = per_gamma.setdefault(float(part.noise.gamma), [0, 0])
            for _ in range(batches):
                batch = distributions.sample_dataset(part.spec, batch_size, rng)
                _, mask = distributions.inject_noise(batch, part.noise, self.config.injection_mode, rng)
                tally[0] += int(mask.sum())
                tally[1] += batch_size
        return slab_failures(per_gamma)

    def run_unit(self, index: int) -> list[Op]:
        """One ``tvgan train`` call, with a step clock: a timestamp as each
        generator step returns (one ``perf_counter`` call per step)."""
        out = self.work / f"run{index}"
        argv = ["train", "--config", str(self.config_path), "--out", str(out), "--seed", str(self.seed)]
        clock = time.perf_counter
        marks = [0.0]
        step = training.generator_step

        def clocked_step(*args, **kwargs):
            result = step(*args, **kwargs)
            marks.append(clock())
            return result

        training.generator_step = clocked_step
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                marks[0] = clock()
                code = cli.main(argv)
                marks.append(clock())
        finally:
            training.generator_step = step
        granules = np.diff(marks).tolist()
        return [Op("train", marks[-1] - marks[0], self.steps, granules, detail=(code, out))]

    def check(self, op: Op) -> None:
        code, out = op.detail
        fail = op.failures
        fail.extend(self.channel_failures)
        if code != 0:
            fail.append(f"tvgan train exited {code}")
            return
        metrics_path = out / "metrics.csv"
        with metrics_path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != training.METRICS_CSV_HEADER:
            fail.append(f"metrics.csv header {rows[0]}")
        body = rows[1:]
        if [int(r[0]) for r in body] != list(range(1, self.steps + 1)):
            fail.append(f"metrics.csv has {len(body)} rows, want one per step ({self.steps})")
        for r in body:
            if not all(math.isfinite(float(v)) for v in r[1:5]):
                fail.append(f"non-finite loss at step {r[0]}")
                break
        evals = [(float(r[5]), float(r[6])) for r in body if r[5] != ""]
        want_evals = self.steps // self.config.eval_every if self.config.estimator else 0
        if len(evals) != want_evals:
            fail.append(f"{len(evals)} divergence estimates, want {want_evals}")
        if not all(0.0 <= tv <= 1.0 and 0.0 <= jsd <= LN2 for tv, jsd in evals):
            fail.append("a TV estimate outside [0, 1] or a JSD estimate outside [0, ln 2]")
        digest = file_digest(metrics_path)
        if self.reference_digest is None:
            self.reference_digest = digest
        elif digest != self.reference_digest:
            fail.append("metrics.csv differs from the first run of the same seed")
        if self.budget_gate:
            generator = nn.load_checkpoint(out / "generator.json")
            report = training.evaluate_budget(
                generator, self.config, self.config.eval_samples, np.random.default_rng(self.seed)
            )
            if not report.within_budget:
                fail.append(f"budget missed: jsd={report.jsd_estimate} delta={report.delta}")


def train_demo(root: Path, seed: int, work: Path, epochs: int | None = None) -> TrainWorkload:
    """The shipped ``demos/configs/train.json``; ``epochs`` shortens it for smoke tests."""
    config = json.loads((root / "demos" / "configs" / "train.json").read_text())
    if epochs is not None:
        config["epochs"] = epochs
    return TrainWorkload("train-demo", config, seed, work, budget_gate=True)


def mixture_config(seed: int, steps: int) -> dict:
    """Three datasets behind three channel kinds, shapes fixed, values drawn from the seed."""
    rng = np.random.default_rng(seed)

    def gamma():
        return round(float(rng.uniform(0.1, 0.4)), 3)

    radius = float(rng.uniform(1.6, 2.0))
    phase = float(rng.uniform(0.0, np.pi / 4))
    angles = phase + np.arange(8) * np.pi / 4
    var = float(rng.uniform(0.05, 0.1)) ** 2
    gmm = {
        "kind": "gaussian_mixture",
        "components": [
            {"mean": [radius * np.cos(a), radius * np.sin(a)], "cov_diag": [var, var], "weight": 0.125}
            for a in angles
        ],
    }
    spacing = float(rng.uniform(0.5, 0.8))
    grid = [[spacing * i, spacing * j] for i in (-1, 0, 1) for j in (-1, 0, 1)]
    probs = rng.dirichlet(np.full(9, 4.0))
    probs[-1] = 1.0 - probs[:-1].sum()
    offset = rng.uniform(-0.3, 0.3, size=2).tolist()
    return {
        "datasets": [
            {
                "spec": gmm,
                "alpha": 0.5,
                "noise": {"gamma": gamma(), "slab": {"kind": "gaussian", "std": [0.3, 0.3]}},
            },
            {
                "spec": {"kind": "ring", "radius": float(rng.uniform(0.8, 1.2)), "noise_std": 0.05},
                "alpha": 0.3,
                "noise": {"gamma": gamma(), "slab": {"kind": "dirichlet_flat", "dimension": 2}},
            },
            {
                "spec": {"kind": "discrete", "support": grid, "probs": probs.tolist()},
                "alpha": 0.2,
                "noise": {"gamma": gamma(), "slab": {"kind": "point_mass", "offset": offset}},
            },
        ],
        "latent": {"dimension": 4, "kind": "gaussian"},
        "g_hidden": [64, 64],
        "d_hidden": [64, 64],
        "hidden_activation": "tanh",
        "k": 2,
        "batch_size": 512,
        "total_samples_n": 512 * steps,
        "epochs": 1,
        "injection_mode": "per_sample",
        "generator_loss": "non_saturating",
        "g_adam": {"lr": 2e-4, "beta1": 0.5, "beta2": 0.999, "epsilon": 1e-8},
        "d_adam": {"lr": 1e-3, "beta1": 0.5, "beta2": 0.999, "epsilon": 1e-8},
        "eval_every": 10,
        "eval_samples": 20000,
        "estimator": {"bounds": [[-4.0, 4.0], [-4.0, 4.0]], "bins_per_dim": 64, "smoothing": 1e-9},
        "samples_out": 2000,
        "seed": seed,
    }


def train_mixture(root: Path, seed: int, work: Path, steps: int = 120) -> TrainWorkload:
    return TrainWorkload("train-mixture", mixture_config(seed, steps), seed, work, budget_gate=False)


def _law(rng, atoms: int, dim: int, side: int, step: float) -> dict:
    """A random law on ``atoms`` distinct points of a ``side``^dim lattice of spacing ``step``.

    Lattice coordinates keep every Minkowski sum exact, so coincident atoms
    merge and the merge ratio is a property of the instance, not of rounding.
    """
    cells = rng.choice(side**dim, size=atoms, replace=False)
    coords = np.stack(np.unravel_index(cells, (side,) * dim), axis=1) * step
    probs = rng.dirichlet(np.full(atoms, 2.0))
    probs[-1] = 1.0 - probs[:-1].sum()
    return {"kind": "discrete", "support": coords.tolist(), "probs": probs.tolist()}


# Slab offsets in lattice steps. Fixed shapes keep the merge pattern, and so
# the cost of a request, nearly independent of the seed; the seed draws the
# positions of the data atoms, the masses and the gammas.
SLAB_OFFSETS = {1: [[1], [-1], [2]], 2: [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]]}


def _channel(rng, slab_atoms: int, dim: int, step: float) -> dict:
    gamma = round(float(rng.uniform(0.05, 0.5)), 3)
    offsets = (np.asarray(SLAB_OFFSETS[dim][:slab_atoms], dtype=float) * step).tolist()
    if slab_atoms == 1:
        return {"gamma": gamma, "slab": {"kind": "point_mass", "offset": offsets[0]}}
    probs = rng.dirichlet(np.full(slab_atoms, 2.0))
    probs[-1] = 1.0 - probs[:-1].sum()
    return {"gamma": gamma, "slab": {"kind": "discrete", "support": offsets, "probs": probs.tolist()}}


def small_instance(rng, index: int) -> dict:
    """Shapes cycle with period 12 by ``index``, covering 1-3 parts, 2-5 atoms,
    1-2 dimensions and 1-3 slab atoms, so every seed issues the same sizes."""
    parts = 1 + index % 3
    atoms = 2 + index % 4
    dim = 1 + (index // 6) % 2
    slab_atoms = 1 + (index // 4) % 3
    alphas = rng.dirichlet(np.full(parts, 5.0))
    alphas[-1] = 1.0 - alphas[:-1].sum()
    return {
        "data_parts": [{"dist": _law(rng, atoms, dim, 6, 0.5), "alpha": float(a)} for a in alphas],
        "noise": [_channel(rng, slab_atoms, dim, 0.5) for _ in range(parts)],
        "p_g": _law(rng, atoms, dim, 6, 0.5),
    }


def large_instance(rng, atoms: int) -> dict:
    side = int(math.ceil(math.sqrt(atoms * 3)))
    return {
        "data_parts": [
            {"dist": _law(rng, atoms, 2, side, 0.5), "alpha": 0.6},
            {"dist": _law(rng, atoms, 2, side, 0.5), "alpha": 0.4},
        ],
        "noise": [_channel(rng, 5, 2, 0.5) for _ in range(2)],
        "p_g": _law(rng, atoms, 2, side, 0.5),
    }


def grid_law(rng, m: int, grid_step: float) -> dict:
    """A law on m points whose probabilities are positive multiples of grid_step."""
    k = round(1.0 / grid_step)
    cuts = np.sort(rng.choice(np.arange(1, k), size=m - 1, replace=False))
    counts = np.diff(np.concatenate([[0], cuts, [k]]))
    return {
        "kind": "discrete",
        "support": (np.arange(m, dtype=float) * 1.5).reshape(-1, 1).tolist(),
        "probs": (counts / k).tolist(),
    }


class OracleWorkload:
    """A stream of ``tvgan oracle --check all`` requests plus ``grid_minimize`` calls.

    One unit is one round: the large instance, then ``passes`` passes over the
    small instances, each pass followed by its share of the grid calls. Every
    round issues the same requests in the same order, so request i of one
    round is the same work as request i of any other.
    """

    kind = "oracle"

    def __init__(
        self, seed: int, work: Path, small: int, passes: int, large_atoms: int, grids: int, grid_step: float
    ):
        rng = np.random.default_rng(seed)
        self.work = work
        self.grid_step = grid_step
        self.input_files = []
        smalls = [self._write(f"small{i}.json", small_instance(rng, i), "instance") for i in range(small)]
        large = self._write("large.json", large_instance(rng, large_atoms), "instance")
        laws = [self._load_law(self._write(f"law{i}.json", grid_law(rng, 4, grid_step), "law")) for i in range(grids)]
        self.requests: list[tuple[str, object]] = [("large", large)]
        for p in range(passes):
            self.requests += [("small", path) for path in smalls]
            self.requests += [("grid", law) for g, law in enumerate(laws) if g * passes // grids == p]

    def _write(self, name: str, payload: dict, kind: str) -> Path:
        path = self.work / name
        path.write_text(json.dumps(payload) + "\n")
        self.input_files.append(f"{kind}:{path}")
        return path

    @staticmethod
    def _load_law(path: Path):
        return distributions.discrete_dist_from_dict(json.loads(path.read_text()))

    def run_unit(self, index: int) -> list[Op]:
        ops = []
        clock = time.perf_counter
        for i, (kind, target) in enumerate(self.requests):
            if kind == "grid":
                start = clock()
                try:
                    result = oracle.grid_minimize(target, self.grid_step)
                except Exception as exc:  # a raised request is a failed operation
                    result = exc
                seconds = clock() - start
                ops.append(Op(kind, seconds, 1, [seconds], detail=(target, result)))
                continue
            report = self.work / f"report{i}.csv"
            argv = ["oracle", "--instance", str(target), "--check", "all", "--out", str(report)]
            start = clock()
            code = cli.main(argv)
            seconds = clock() - start
            ops.append(Op(kind, seconds, 1, [seconds], detail=(target, code, report)))
        return ops

    def check(self, op: Op) -> None:
        if op.kind == "grid":
            self._check_grid(op)
            return
        instance_path, code, report = op.detail
        if code != 0:
            op.failures.append(f"tvgan oracle exited {code} on {instance_path.name}")
            return
        lines = report.read_text().splitlines()
        parts = len(json.loads(instance_path.read_text())["data_parts"])
        if lines[0] != oracle.CHAIN_CSV_HEADER or len(lines) - 1 != 2 * parts + 5:
            op.failures.append(f"report for {instance_path.name} has {len(lines) - 1} checks")
        if not all(line.endswith(",True") for line in lines[1:]):
            op.failures.append(f"an inequality fails on {instance_path.name}")

    def _check_grid(self, op: Op) -> None:
        law, result = op.detail
        if isinstance(result, Exception):
            op.failures.append(f"grid_minimize raised {result!r}")
            return
        k = round(1.0 / self.grid_step)
        m = law.support.shape[0]
        if result.candidates != math.comb(k + m - 1, m - 1):
            op.failures.append(f"grid_minimize enumerated {result.candidates} candidates")
        if not np.allclose(result.minimizer.probs, law.probs, rtol=0.0, atol=1e-12):
            op.failures.append("grid_minimize missed the data law")
        if abs(result.min_value + oracle.LOG4) > oracle.VALUE_TOL:
            op.failures.append(f"grid minimum {result.min_value} is not -log 4")


def oracle_mix(
    root: Path, seed: int, work: Path, small: int = 12, passes: int = 24, large_atoms: int = 1000,
    grids: int = 2, grid_step: float = 0.02,
) -> OracleWorkload:
    """12 small instances cover every small shape once (see ``small_instance``);
    24 passes weigh the per-call cost of small requests against the per-atom
    cost of the large one."""
    return OracleWorkload(seed, work, small, passes, large_atoms, grids, grid_step)


WORKLOADS = {"train-demo": train_demo, "train-mixture": train_mixture, "oracle-mix": oracle_mix}
