import contextlib
import signal

import pytest


@pytest.fixture
def deadline():
    """deadline(seconds) is a context manager that fails the test with
    TimeoutError once that many seconds pass, so a call that runs without
    end fails its test instead of hanging the suite."""
    @contextlib.contextmanager
    def limit(seconds: int):
        def expire(*_):
            raise TimeoutError(f"no result within {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    return limit
