"""A wall-clock limit on every test and a memory cap on the test
session. A test's setup, call and teardown together may take at most
TEST_LIMIT_S seconds, or the phase running when the time runs out fails
with TimeLimitExceeded, which names the test.

The limit is a SIGALRM set with signal.alarm for each phase, to the
time the test has left, and cleared after it. A watchdog thread would
not do: harness._usable_cpus plays everything in one process while
another thread runs, so a thread would change what the tests run. A
forked worker does not inherit the alarm; the test process that waits
for it gets the signal, and _forked kills its workers on the way out.

Memory is capped too: at the start of the session the test process
lowers its soft address-space limit (RLIMIT_AS) to MEMORY_LIMIT_BYTES,
so a test that grows without bound fails with MemoryError instead of
exhausting the machine. Forked workers and subprocesses inherit the
cap. Setting it starts no thread. A phase that fails with MemoryError
has the locals of its finished frames cleared before it is reported:
pytest keeps the last failure's traceback (sys.last_traceback), which
would otherwise hold what the test grew, and leave the tests after it
no memory.
"""

from __future__ import annotations

import contextlib
import math
import resource
import signal
import time
import traceback

import pytest

# the slowest part of the suite, AC-4's module set-up, takes about 12 s
# on a 2-vCPU box
SLOWEST_PART_S = 12
# seconds a test may spend in its setup, call and teardown together
TEST_LIMIT_S = 10 * SLOWEST_PART_S
# the address space the test process and its children may reserve; the
# whole suite peaks at about 355 MiB of address space (VmPeak) and
# 217 MiB resident (VmHWM)
MEMORY_LIMIT_BYTES = 2 * 1024**3

_deadline = pytest.StashKey[float]()


class TimeLimitExceeded(Exception):
    """A test ran past its wall-clock limit."""


@contextlib.contextmanager
def _limited(item):
    """Raise TimeLimitExceeded in this phase of item when its test's
    time is spent, and let go of what a phase that ran out of memory
    holds."""
    def expire(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid} ran past its limit of {TEST_LIMIT_S} s "
                                "for setup, call and teardown")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(max(1, math.ceil(item.stash[_deadline] - time.monotonic())))
    try:
        yield
    except MemoryError as exc:
        traceback.clear_frames(exc.__traceback__)
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def pytest_sessionstart(session):
    """Lower the soft address-space limit to MEMORY_LIMIT_BYTES, unless
    it is lower already."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > MEMORY_LIMIT_BYTES:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, hard))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    item.stash[_deadline] = time.monotonic() + TEST_LIMIT_S
    with _limited(item):
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    with _limited(item):
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item):
    with _limited(item):
        return (yield)
