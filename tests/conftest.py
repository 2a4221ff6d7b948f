"""A wall-clock limit on every test: its setup, call and teardown
together may take at most TEST_LIMIT_S seconds, or the phase running
when the time runs out fails with TimeLimitExceeded, which names the
test.

The limit is a SIGALRM set with signal.alarm for each phase, to the
time the test has left, and cleared after it. A watchdog thread would
not do: harness._usable_cpus plays everything in one process while
another thread runs, so a thread would change what the tests run. A
forked worker does not inherit the alarm; the test process that waits
for it gets the signal, and _forked kills its workers on the way out.
"""

from __future__ import annotations

import contextlib
import math
import signal
import time

import pytest

# the slowest part of the suite, AC-4's module set-up, takes about 12 s
# on a 2-vCPU box
SLOWEST_PART_S = 12
# seconds a test may spend in its setup, call and teardown together
TEST_LIMIT_S = 10 * SLOWEST_PART_S

_deadline = pytest.StashKey[float]()


class TimeLimitExceeded(Exception):
    """A test ran past its wall-clock limit."""


@contextlib.contextmanager
def _alarm(item):
    """Raise TimeLimitExceeded in this phase of item when its test's
    time is spent."""
    def expire(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid} ran past its limit of {TEST_LIMIT_S} s "
                                "for setup, call and teardown")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(max(1, math.ceil(item.stash[_deadline] - time.monotonic())))
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    item.stash[_deadline] = time.monotonic() + TEST_LIMIT_S
    with _alarm(item):
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    with _alarm(item):
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item):
    with _alarm(item):
        return (yield)
