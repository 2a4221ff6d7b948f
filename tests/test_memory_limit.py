"""The address-space cap that conftest.py sets for the test session."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import conftest

# a test whose list grows without bound, run under a copy of conftest.py
# whose cap is PLANTED_LIMIT_BYTES
PLANTED = """
def test_unbounded_list():
    grown = []
    while True:
        grown.append(bytes(1 << 20))


def test_after_it():
    pass
"""
PLANTED_LIMIT_BYTES = 256 * 1024**2


def test_an_unbounded_list_fails_by_name_at_the_cap(tmp_path):
    """pytest on a planted unbounded list reports it failed with
    MemoryError within the time limit, and runs the next test."""
    planted, stated = re.subn(r"^MEMORY_LIMIT_BYTES = .*$",
                              f"MEMORY_LIMIT_BYTES = {PLANTED_LIMIT_BYTES}",
                              Path(conftest.__file__).read_text(), flags=re.M)
    assert stated == 1
    (tmp_path / "conftest.py").write_text(planted)
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    (tmp_path / "test_planted.py").write_text(PLANTED)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=1",
         "--durations-min=0", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=conftest.TEST_LIMIT_S)
    assert run.returncode == 1, run.stdout
    assert "FAILED test_planted.py::test_unbounded_list - MemoryError" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
    took = re.search(r"([\d.]+)s call +test_planted.py::test_unbounded_list", run.stdout)
    assert took and float(took.group(1)) < conftest.TEST_LIMIT_S, run.stdout
