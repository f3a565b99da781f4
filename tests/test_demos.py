"""Every demo script runs to completion against the package in ``src/``.

Nothing else imports the demos, so an API change that breaks one shows
here.  Each runs in a fresh interpreter with a temporary working
directory, so the record directories they write land there."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from wigs.config import ENV_OUT_DIR

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = {key: value for key, value in os.environ.items() if key != ENV_OUT_DIR}
    env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
