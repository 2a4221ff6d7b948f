"""Source checks on the package. Invariant checks must survive
`python -O`: the package raises typed errors (DesyncError,
RuntimeFailure, ...) instead of asserting or raising a bare
RuntimeError. No module keeps an import it never uses or a memo
decorator, and the harness never asks whether an episode is traced."""

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


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module's top-level imports bind that no expression reads
    and __all__ does not export."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_no_unused_import_in_package():
    offenders = []
    for path in SOURCES:
        offenders += [f"{path.name}: {name}"
                      for name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert offenders == []


def test_unused_import_check_sees_a_stale_name():
    tree = ast.parse("from .decentralized import EXPLORE, PHASE2\n"
                     "import numpy as np\n"
                     "__all__ = ['PHASE2']\n"
                     "x = np.zeros(1)\n")
    assert _unused_imports(tree) == ["EXPLORE (line 1)"]


def _cached_functions(tree: ast.Module) -> list[str]:
    """Functions decorated with functools.lru_cache or functools.cache,
    bare or called, by attribute or by imported name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = (target.attr if isinstance(target, ast.Attribute)
                        else getattr(target, "id", None))
                if name in ("lru_cache", "cache"):
                    found.append(f"{node.name} (line {node.lineno})")
    return found


def test_no_function_in_package_keeps_a_cache():
    """A memo decorator keeps state across episodes in one process."""
    offenders = []
    for path in SOURCES:
        offenders += [f"{path.name}: {name}"
                      for name in _cached_functions(ast.parse(path.read_text(encoding="utf-8")))]
    assert offenders == []


def _trace_reads(tree: ast.Module) -> list[int]:
    """Lines that read an attribute named trace."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "trace"
            and isinstance(node.ctx, ast.Load)]


def test_harness_never_reads_whether_an_episode_is_traced():
    """Tracing must not fork the episode path: a traced ledger takes the
    same blocks and writes their rows itself."""
    path = Path(housebandits.__file__).parent / "harness.py"
    assert _trace_reads(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_trace_check_sees_a_read():
    tree = ast.parse("if ledger.trace:\n    pass\n"
                     "run_episode(config, seed, trace=fh)\n"
                     "trace = None\n"
                     "self.trace = trace is not None\n"
                     "fast = not self.ledger.trace\n")
    assert _trace_reads(tree) == [1, 6]


def test_cache_check_sees_every_spelling():
    tree = ast.parse("import functools\n"
                     "from functools import cache, lru_cache\n"
                     "@functools.lru_cache(maxsize=8)\ndef a(x): return x\n"
                     "@lru_cache\ndef b(x): return x\n"
                     "@cache\ndef c(x): return x\n"
                     "@functools.cache\ndef d(x): return x\n"
                     "@staticmethod\ndef e(x): return x\n")
    assert _cached_functions(tree) == ["a (line 4)", "b (line 6)", "c (line 8)", "d (line 10)"]
