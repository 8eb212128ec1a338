import signal
import subprocess
import sys
from pathlib import Path

ENDLESS = """
from hypothesis import given, strategies as st


def test_endless_loop():
    while True:
        pass


@given(st.integers())
def test_endless_hypothesis_loop(x):
    while True:
        pass


def test_quick():
    assert True
"""


def test_endless_loops_fail_under_a_short_limit(tmp_path):
    conftest = Path(__file__).with_name("conftest.py").read_text(encoding="utf-8")
    assert "TIME_LIMIT_S = 60\n" in conftest
    (tmp_path / "conftest.py").write_text(
        conftest.replace("TIME_LIMIT_S = 60\n", "TIME_LIMIT_S = 0.5\n"), encoding="utf-8")
    (tmp_path / "test_endless.py").write_text(ENDLESS, encoding="utf-8")
    # A Hypothesis test that shrank and replayed the interrupted example
    # would run with no alarm armed and hang until this timeout.
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=30,
    )
    assert res.returncode == 1
    assert "2 failed, 1 passed" in res.stdout
    for name in ("test_endless_loop", "test_endless_hypothesis_loop"):
        message = f"test_endless.py::{name} ran past its time limit of 0.5 s"
        assert f"TimeLimitExceeded: {message}" in res.stdout


def test_limit_is_armed():
    remaining, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 5 < remaining <= 60
