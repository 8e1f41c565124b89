"""tvgan benchmark: one workload per process, every output checked.

    python3 perfbench/run.py --workload train-demo --seed 1 --seconds 30 --trace 0

Run from the root of a tvgan checkout; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, measured untraced. ``--trace 1``
alternates untraced and traced units of the same inputs and prints the
per-layer metrics from the traced ones, plus the tracing overhead; it also
writes the spans to ``.perfbench-out/``. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 8
MIN_UNITS = 3  # untraced units per run, so every median has at least three samples
PROBE_TIMEOUT_S = 60


def percentile_name(n: int) -> tuple[str, float]:
    """The highest of p99.9/p99/p90/p50 that has at least ten samples beyond it."""
    for name, q in (("p99.9", 99.9), ("p99", 99.0), ("p90", 90.0)):
        if n * (1.0 - q / 100.0) >= 10:
            return name, q
    return "p50", 50.0


def percentile(values: list[float], q: float) -> float:
    import numpy as np  # imported late: main() sets the BLAS thread variables first

    return float(np.percentile(values, q))


def environment(args) -> dict:
    import numpy as np  # imported late: main() sets the BLAS thread variables first

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(workload, probes: int) -> list[float]:
    """Fresh-process time to import tvgan and parse the workload's inputs."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *workload.input_files]
    times = []
    for _ in range(probes):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_units(workload, seconds: float, tracer=None, probes: int = 0):
    """Closed loop of units for about ``seconds``, and at least ``MIN_UNITS`` untraced.

    With a tracer, odd units are traced and even ones are not, so both see
    the same inputs at nearly the same time. Gates run between units, with the
    tracer removed. ``probes`` set-up probes are spread evenly over the run,
    between units. Returns the operations and the set-up times.
    """
    from workloads import slab_failures

    ops, units, setup_times = [], {False: 0, True: 0}, []
    start = time.perf_counter()
    index = 0
    while True:
        while len(setup_times) < probes and time.perf_counter() - start >= seconds * len(setup_times) / probes:
            setup_times += measure_setup(workload, 1)
        unit_start = time.perf_counter()
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.current_unit = index
            before = tracer.slab_tally()
            tracer.install()
        try:
            unit_ops = workload.run_unit(index)
        finally:
            if traced:
                tracer.uninstall()
        for op in unit_ops:
            workload.check(op)
        if traced and workload.kind == "train":
            realized = {}
            for gamma, (slab, rows) in tracer.slab_tally().items():
                slab_before, rows_before = before.get(gamma, (0, 0))
                realized[gamma] = (slab - slab_before, rows - rows_before)
            unit_ops[0].failures.extend(slab_failures(realized))
        units[traced] += 1
        for op in unit_ops:
            op.traced = traced
        ops.extend(unit_ops)
        index += 1
        # Stop before a unit that would probably end after the deadline, so a
        # run measures about ``seconds`` whatever the length of its units.
        now = time.perf_counter()
        enough = units[False] >= MIN_UNITS and (tracer is None or units[True])
        if enough and now - start + (now - unit_start) > seconds:
            setup_times += measure_setup(workload, probes - len(setup_times))
            return ops, setup_times


def typical_requests(units: list[list]) -> list[float]:
    """Each request of a unit, timed as the sum over its granules of that
    granule's median over the units of the run.

    Every unit repeats the same work, so the granule at one position (step i
    of a call, request i of a round) is the same work in every unit. The
    median over repeats drops the machine's slow moments at that position,
    while any cost the program pays there in most units, on every step or on
    some steps only, stays in the sum.
    """
    return [
        sum(statistics.median(repeats) for repeats in zip(*(unit[j].granules for unit in units)))
        for j in range(len(units[0]))
    ]


def end_to_end(workload, ops, setup_times) -> tuple[dict, list[str]]:
    untraced = [op for op in ops if not op.traced]
    units = _group_units(untraced, workload)
    per_request = typical_requests(units)
    unit_s = sum(per_request)
    work = sum(op.work for op in units[0])
    metrics = {
        "setup_s": (min(setup_times), "s"),
        "work_per_s": (work / unit_s, "1/s"),
        "request_ms.p50": (1e3 * statistics.median(per_request), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw_unit = statistics.median(sum(op.seconds for op in unit) for unit in units)
    lines = [
        f"setup_s: fastest of {len(setup_times)} fresh processes: "
        + ", ".join(f"{t:.4f}" for t in setup_times),
        f"work_per_s: {work:g} work items per unit over the unit time from per-position medians "
        f"{unit_s:.4f} s ({len(units)} units; median raw unit {raw_unit:.4f} s)",
        f"request_ms.p50: median over the {len(per_request)} requests of a unit, each from per-position medians",
    ]
    if workload.kind == "train":
        lines.append(
            f"gen_steps_per_s = {metrics['work_per_s'][0]:.3f} from per-position medians, "
            f"{workload.steps / raw_unit:.3f} from the median raw call ({workload.steps} steps per call)"
        )
    else:
        for kind in ("small", "large", "grid"):
            ms = [1e3 * op.seconds for op in untraced if op.kind == kind]
            tail, q = percentile_name(len(ms))
            kind_ms = [1e3 * t for t, op in zip(per_request, units[0]) if op.kind == kind]
            lines.append(
                f"oracle.{kind}_ms: raw p50 {percentile(ms, 50):.4f}, raw {tail} {percentile(ms, q):.4f} "
                f"(n={len(ms)}); p50 {percentile(kind_ms, 50):.4f} (n={len(kind_ms)})"
            )
        grid = [op for op in untraced if op.kind == "grid" and not op.failures]
        candidates = grid[0].detail[1].candidates if grid else 0
        grid_s = sum(t for t, op in zip(per_request, units[0]) if op.kind == "grid")
        per_unit = sum(1 for op in units[0] if op.kind == "grid")
        lines.append(
            f"oracle.grid_candidates_per_s = {candidates * per_unit / grid_s:.1f} "
            f"({candidates} candidates x {per_unit} calls per unit)"
        )
    return metrics, lines


def _group_units(ops, workload):
    size = len(workload.requests) if workload.kind == "oracle" else 1
    return [ops[i:i + size] for i in range(0, len(ops), size)]


def per_layer(workload, ops, tracer) -> tuple[dict, list[str]]:
    from tracing import unit_of

    traced = _group_units([op for op in ops if op.traced], workload)
    untraced = _group_units([op for op in ops if not op.traced], workload)
    requests = sum(1 for op in ops if op.traced and op.kind in ("small", "large"))
    values, lines = tracer.summary(len(traced), requests)
    # Both sides priced by per-position medians, as the end-to-end metrics
    # are, so the machine's swings do not pass for tracing cost.
    traced_s, untraced_s = sum(typical_requests(traced)), sum(typical_requests(untraced))
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    lines.append(
        f"trace.overhead_frac = {values['trace.overhead_frac']:.4f} (unit from per-position medians: "
        f"traced {traced_s:.4f} s over {len(traced)} units, untraced {untraced_s:.4f} s over {len(untraced)})"
    )
    return {name: (value, unit_of(name)) for name, value in values.items()}, lines


def run_benchmark(workload, seconds: float, trace: bool, probes: int = SETUP_PROBES, spans_path=None) -> dict:
    """Measure one workload and return the result object printed as the last line."""
    from tracing import Tracer

    # The set-up probes are spread over the run, so their minimum is drawn
    # from the whole run rather than one moment of a shared machine.
    tracer = Tracer() if trace else None
    ops, setup_times = run_units(workload, seconds, tracer, 0 if trace else probes)
    if trace:
        metrics, lines = per_layer(workload, ops, tracer)
        if spans_path is not None:
            tracer.write_spans(spans_path)
            lines.append(f"spans written to {spans_path}")
    else:
        metrics, lines = end_to_end(workload, ops, setup_times)
    failed = [op for op in ops if op.failures]
    lines.append(f"failed_frac = {len(failed) / len(ops):.6f} ({len(failed)}/{len(ops)} operations)")
    for op in failed[:5]:
        lines.append(f"  failed {op.kind}: {'; '.join(op.failures)}")
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "report": lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train-demo", "train-mixture", "oracle-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import tvgan from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as tmp:
        try:
            workload = WORKLOADS[args.workload](ROOT, args.seed, Path(tmp))
        except OSError as exc:
            print(f"error: cannot build workload {args.workload}: {exc}", file=sys.stderr)
            return 2
        spans_path = None
        if args.trace:
            out_dir = ROOT / ".perfbench-out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.csv"
        result = run_benchmark(workload, args.seconds, bool(args.trace), spans_path=spans_path)

    print("env " + json.dumps(environment(args), sort_keys=True))
    for line in result.pop("report"):
        print(line)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
