import signal

import pytest

DEADLINE_S = 120  # well above the slowest test, which takes about 3 s


def _expired(signum, frame):
    raise TimeoutError(f"test still running after {DEADLINE_S} s")


@pytest.fixture(autouse=True)
def deadline():
    """Fail a test that runs past ``DEADLINE_S``, so a regression that hangs
    ends the run with a failure instead of stalling it."""
    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
