"""The shipped demos run to completion, calling the library as users do."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["exact_oracle.py", "channel_budget.py", "divergence_estimators.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
