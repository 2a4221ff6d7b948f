"""Invariant checks must survive `python -O`: the package raises typed
errors (DesyncError, RuntimeFailure, ...) instead of asserting or
raising a bare RuntimeError."""

from __future__ import annotations

import ast
from pathlib import Path

import housebandits

SOURCES = sorted(Path(housebandits.__file__).parent.glob("*.py"))


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_no_assert_or_bare_runtime_error_in_package():
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and _raised_name(node) == "RuntimeError"
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert len(SOURCES) > 5
    assert offenders == []
