import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_zero_window_regression_script_certifies_the_cohort():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    res = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "zero_window_regression.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
    assert "108 instances, 0 failures" in res.stdout.splitlines()[-1]
