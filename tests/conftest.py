import dataclasses
import signal
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
# Seconds a test may run before it fails; far above the slowest test, so
# only a hang trips it.
TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """A BaseException, so that Hypothesis re-raises it at once instead of
    shrinking and replaying the example with no alarm armed."""


@pytest.fixture(autouse=True)
def time_limit(request):
    """Fail the test, instead of hanging the run, once it has run longer
    than TIME_LIMIT_S; the alarm interrupts the test wherever it is."""

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{request.node.nodeid} ran past its time limit of {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def with_rows(group, rows, heights=None):
    """The group with its residue rows, and optionally its heights,
    replaced: ``rows`` become one column per vertex, so ``rows()`` reads
    them back exactly."""
    changes = {} if heights is None else {"heights": heights}
    return dataclasses.replace(
        group, columns=rows.T, column_map=tuple(range(rows.shape[1])), **changes)


def as_rows(points, den):
    """Points as numerator rows over den, a multiple of every point's den."""
    return [[x * (den // p.den) for x in p.nums] for p in points]


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return REPO / "corpus"


@pytest.fixture(scope="session")
def run_cli():
    def run(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "hstarkit", *args],
            capture_output=True,
            text=True,
            env=env,
        )

    return run
