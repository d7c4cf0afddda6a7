"""Each demo script runs to completion against the package as it stands."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(ROOT.glob("demos/*.py")), ids=lambda p: p.name)
def test_demo_exits_0(demo):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    # a RuntimeWarning fails the demo, as pyproject.toml makes it fail a test
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
