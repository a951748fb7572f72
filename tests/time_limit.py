"""A wall-clock guard for tests of loops that must end."""

import contextlib
import signal


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once it has run `seconds` (a whole
    number) seconds, so that a loop that never ends fails at once instead
    of hanging the run.  Uses SIGALRM, so only in the main thread."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
