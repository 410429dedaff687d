"""A time limit on every test, so that a test that hangs fails the run
instead of stopping it.  The slowest test takes well under a minute."""

import signal

import pytest

TIME_LIMIT_S = 300


@pytest.fixture(autouse=True)
def time_limit():
    if not hasattr(signal, "SIGALRM"):  # no alarm clock on this platform
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test still running after its {TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
