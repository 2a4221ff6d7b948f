"""The per-test wall-clock limit that conftest.py sets."""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

# a test that never ends, under a copy of conftest.py with a 1 s limit
PLANTED = """
import conftest

conftest.TEST_LIMIT_S = 1


def test_endless_loop():
    while True:
        pass


def test_after_it():
    pass
"""


def test_an_endless_test_fails_by_name_at_its_limit(tmp_path):
    """pytest on a planted endless loop reports it failed with
    TimeLimitExceeded after its 1 s, and runs the next test."""
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    (tmp_path / "test_planted.py").write_text(PLANTED)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=1",
         "--durations-min=0", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert run.returncode == 1, run.stdout
    assert "FAILED test_planted.py::test_endless_loop - conftest.TimeLimitExceeded" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
    took = re.search(r"([\d.]+)s call +test_planted.py::test_endless_loop", run.stdout)
    assert took and 1.0 <= float(took.group(1)) < 2.0, run.stdout
