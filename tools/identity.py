"""Check that two checkouts of tvgan give byte-identical outputs.

    python3 tools/identity.py --parent <tree> --change <tree> [--json table.json] [--work dir]

Each tree is a checkout of this repository (for example a ``git worktree``).
On each, with one BLAS thread, it runs:

- ``tvgan train`` on ``demos/configs/train.json --seed 7``, on that config with
  ``"estimator": null`` at seed 7 (the estimator-free path, which no eval
  setting may move), and on the config
  ``perfbench/workloads.py::mixture_config(11, 60)``;
- ``tvgan oracle --check all`` on ``demos/configs/oracle_instance.json`` and
  on every instance file the benchmark's ``oracle_mix`` writes for seeds 3 and 61;
- every script in ``demos/``, keeping its stdout.

It then compares every file the runs wrote, the input files and exit codes
included, and prints one line per file with each side's sha256 and a verdict.
The only bytes it ignores are the ``started`` and ``finished`` times of a
``manifest.json``. It exits 0 when every file is identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

IGNORED = ("started", "finished")

# Runs inside one tree with argv [tree, out]; imports that tree's tvgan and perfbench.
DRIVER = r"""
import contextlib, importlib.util, json, subprocess, sys
from pathlib import Path

tree, out = Path(sys.argv[1]), Path(sys.argv[2])
sys.path.insert(0, str(tree / "src"))
from tvgan import cli

spec = importlib.util.spec_from_file_location("workloads", tree / "perfbench" / "workloads.py")
workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
exits = []


def run(name, argv):
    with open(out / f"{name}.stdout", "w") as fh, contextlib.redirect_stdout(fh):
        exits.append(f"{name} {cli.main(argv)}")


run("train-demo", ["train", "--config", str(tree / "demos/configs/train.json"), "--seed", "7",
                   "--out", str(out / "train-demo")])
config = out / "train-demo-no-estimator.json"
demo_config = json.loads((tree / "demos/configs/train.json").read_text())
config.write_text(json.dumps(dict(demo_config, estimator=None), indent=2) + "\n")
run("train-demo-no-estimator", ["train", "--config", str(config), "--seed", "7",
                                "--out", str(out / "train-demo-no-estimator")])
config = out / "train-mixture.json"
config.write_text(json.dumps(workloads.mixture_config(11, 60), indent=2) + "\n")
run("train-mixture", ["train", "--config", str(config), "--out", str(out / "train-mixture")])
run("oracle-demo", ["oracle", "--instance", str(tree / "demos/configs/oracle_instance.json"),
                    "--check", "all"])
for seed in (3, 61):
    work = out / f"oracle-mix-{seed}"
    work.mkdir()
    load = workloads.oracle_mix(tree, seed, work)
    for entry in load.input_files:
        kind, path = entry.split(":", 1)
        if kind == "instance":
            run(f"oracle-mix-{seed}/{Path(path).stem}", ["oracle", "--instance", path, "--check", "all"])
(out / "demos").mkdir()
for demo in sorted((tree / "demos").glob("*.py")):
    with open(out / "demos" / f"{demo.name}.stdout", "w") as fh:
        code = subprocess.run([sys.executable, str(demo)], cwd=tree, stdout=fh).returncode
    exits.append(f"demos/{demo.name} {code}")
(out / "exit-codes.txt").write_text("\n".join(exits) + "\n")
"""


def run_protocol(tree: Path, out: Path) -> None:
    """Write every output of the protocol on ``tree`` under ``out``."""
    out.mkdir(parents=True)
    threads = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **threads)
    result = subprocess.run([sys.executable, "-c", DRIVER, str(tree), str(out)], cwd=tree, env=env)
    if result.returncode != 0:
        sys.exit(f"identity: the protocol failed on {tree} (exit {result.returncode})")


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        for key in IGNORED:
            manifest.pop(key, None)
        data = json.dumps(manifest, indent=2).encode()
    return hashlib.sha256(data).hexdigest()


def digests(out: Path) -> dict[str, str]:
    return {p.relative_to(out).as_posix(): digest(p) for p in sorted(out.rglob("*")) if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--json", type=Path, help="also write the table here as JSON")
    parser.add_argument("--work", type=Path, help="keep the outputs here (default: a temporary directory)")
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "tvgan").is_dir():
            parser.error(f"{tree} is not a tvgan checkout")
    with tempfile.TemporaryDirectory(prefix="tvgan-identity-") as tmp:
        work = args.work or Path(tmp)
        sides = {}
        for side, tree in (("parent", args.parent), ("change", args.change)):
            run_protocol(tree.resolve(), (work / side).resolve())
            sides[side] = digests(work / side)
    print(f"ignored: the {' and '.join(IGNORED)} fields of each manifest.json; nothing else")
    rows = []
    for name in sorted(sides["parent"].keys() | sides["change"].keys()):
        parent, change = sides["parent"].get(name), sides["change"].get(name)
        verdict = "identical" if parent == change else "different"
        rows.append({"artifact": name, "parent": parent, "change": change, "verdict": verdict})
        print(f"{verdict:<9}  {name:<36}  parent {parent or 'missing':<64}  change {change or 'missing'}")
    differ = sum(row["verdict"] != "identical" for row in rows)
    print(f"{len(rows)} artifacts, {differ} different")
    if args.json:
        args.json.write_text(json.dumps(rows, indent=2) + "\n")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
