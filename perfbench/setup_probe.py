"""Time, in a fresh process, importing tvgan and parsing a workload's inputs.

    python3 perfbench/setup_probe.py train:<config.json> instance:<game.json> law:<law.json> ...

Prints the seconds from just before ``import tvgan`` until every input has
been parsed by the program's own loaders.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tvgan.distributions import discrete_dist_from_dict  # noqa: E402
from tvgan.oracle import GameInstance  # noqa: E402
from tvgan.training import TrainConfig  # noqa: E402

LOADERS = {"train": TrainConfig.from_dict, "instance": GameInstance.from_dict, "law": discrete_dist_from_dict}

for arg in sys.argv[1:]:
    kind, path = arg.split(":", 1)
    LOADERS[kind](json.loads(Path(path).read_text()))
print(repr(time.perf_counter() - START))
