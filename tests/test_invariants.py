"""Source checks on the package. Invariant checks must survive
`python -O`: the package raises typed errors (DesyncError,
RuntimeFailure, ...) instead of asserting or raising a bare
RuntimeError. No module keeps an import it never uses or a memo
decorator, the harness never asks whether an episode is traced, the
one fork in the package ends its child in os._exit, one method reads
the environment's noise, the environment looks its family up once, one
method and one closure write a player's statistics, one function opens
files for writing, and every private module-level name is read inside
the package.
Every name the traced benchmark wraps is still defined where it looks,
and the code-line counter counts by its rule."""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import housebandits
from code_lines import code_lines
from housebandits.env import SAMPLING_FAMILIES

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


def _is_call(node: ast.AST, name: str, module: str | None = None) -> bool:
    """A call of name, as module.name, or bare when module is None."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr == name and (module is None or ast.unparse(func.value) == module)
    return module is None and isinstance(func, ast.Name) and func.id == name


def _ends_in_exit(body: list[ast.stmt]) -> bool:
    """The statements end in os._exit, directly or in a try's finally."""
    last = body[-1]
    if isinstance(last, ast.Try) and last.finalbody:
        return _ends_in_exit(last.finalbody)
    return isinstance(last, ast.Expr) and _is_call(last.value, "_exit", "os")


def _own_nodes(scope: ast.AST):
    """The nodes of a module or function outside its nested functions
    and classes (which are scopes of their own)."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                 ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _fork_sites(tree: ast.Module) -> list[tuple[int, bool]]:
    """(line, exits) for every call of a function named fork: exits
    holds when the call is `pid = os.fork()` and the same function has
    an `if pid == 0:` whose branch ends in os._exit."""
    sites = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(_own_nodes(scope))
        exiting = {ast.unparse(node.test)[:-len(" == 0")] for node in nodes
                   if isinstance(node, ast.If) and ast.unparse(node.test).endswith(" == 0")
                   and _ends_in_exit(node.body)}
        safe = {id(node.value) for node in nodes
                if isinstance(node, ast.Assign) and _is_call(node.value, "fork", "os")
                and len(node.targets) == 1 and ast.unparse(node.targets[0]) in exiting}
        sites += [(node.lineno, id(node) in safe) for node in nodes if _is_call(node, "fork")]
    return sorted(sites)


def test_the_package_forks_once_and_the_child_ends_in_exit():
    """A forked child that returned would run its caller's code a second
    time; one that exited normally would flush inherited buffers."""
    sites = []
    for path in SOURCES:
        sites += [(path.name, ok) for _, ok in _fork_sites(ast.parse(path.read_text(
            encoding="utf-8")))]
    assert sites == [("harness.py", True)]


def test_fork_check_sees_a_stray_fork():
    tree = ast.parse("import os\n"
                     "def good():\n"
                     "    pid = os.fork()\n"
                     "    if pid == 0:\n"
                     "        try:\n"
                     "            work()\n"
                     "        finally:\n"
                     "            os._exit(0)\n"
                     "def returns():\n"
                     "    pid = os.fork()\n"
                     "    if pid == 0:\n"
                     "        work()\n"
                     "def untested():\n"
                     "    os.fork()\n"
                     "    os._exit(0)\n"
                     "from os import fork\n"
                     "child = fork()\n")
    assert _fork_sites(tree) == [(3, True), (10, False), (14, False), (17, False)]


def _scoped(tree: ast.AST):
    """(scope, node) for every node of tree, scope being the dotted
    names of the classes and functions that enclose it (a class or
    function's own name included)."""
    stack = [((), tree)]
    while stack:
        scope, node = stack.pop()
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        yield ".".join(scope), node
        stack.extend((scope, child) for child in ast.iter_child_nodes(node))


def _noise_reads(tree: ast.Module) -> list[tuple[str, int]]:
    """(scope, line) of every read of an attribute named rng or
    _chunk."""
    return sorted((scope, node.lineno) for scope, node in _scoped(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("rng", "_chunk")
                  and isinstance(node.ctx, ast.Load))


def test_only_the_draw_method_reads_the_noise():
    """Every family resolves a round through one draw of noise rows, so
    no other code can consume the stream out of order or skip it."""
    scopes = set()
    for path in SOURCES:
        scopes |= {f"{path.name}: {scope}"
                   for scope, _ in _noise_reads(ast.parse(path.read_text(encoding="utf-8")))}
    assert scopes == {"env.py: MarketEnv._draw"}


def test_noise_check_sees_a_stray_read():
    tree = ast.parse("class MarketEnv:\n"
                     "    def _draw(self, k):\n"
                     "        return self._chunk[:k], self.rng\n"
                     "    def step(self):\n"
                     "        self._chunk = None\n"
                     "        return self.rng.random()\n"
                     "def peek(env):\n"
                     "    return env._chunk_pos, env._chunk\n")
    assert _noise_reads(tree) == [("MarketEnv._draw", 3), ("MarketEnv._draw", 3),
                                  ("MarketEnv.step", 6), ("peek", 8)]


def _family_uses(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(kind, scope, line) of every comparison that holds a sampling
    family's name as a string constant (kind "compare") and every read
    of an attribute named family (kind "read")."""
    found = []
    for scope, node in _scoped(tree):
        if isinstance(node, ast.Compare) and any(
                isinstance(sub, ast.Constant) and sub.value in SAMPLING_FAMILIES
                for sub in ast.walk(node)):
            found.append(("compare", scope, node.lineno))
        elif (isinstance(node, ast.Attribute) and node.attr == "family"
              and isinstance(node.ctx, ast.Load)):
            found.append(("read", scope, node.lineno))
    return sorted(found)


def test_the_environment_looks_its_family_up_once():
    """Each sampling family is one entry of env._FAMILIES, its noise
    draw and its reward rule, so the per-round spec and the block path
    pay by the same rule: no code in env.py branches on a family's
    name, and only the constructor reads it, to look the entry up."""
    path = Path(housebandits.__file__).parent / "env.py"
    uses = _family_uses(ast.parse(path.read_text(encoding="utf-8")))
    assert uses and {(kind, scope) for kind, scope, _ in uses} == {("read", "MarketEnv.__init__")}


def test_family_check_sees_a_branch_on_a_name():
    tree = ast.parse("class MarketEnv:\n"
                     "    def __init__(self, family):\n"
                     "        self.family = family\n"
                     "        self.rule = RULES[self.family]\n"
                     "    def step(self, mean, x):\n"
                     "        if self.family == 'bernoulli':\n"
                     "            return float(x < mean)\n"
                     "        return mean + x\n"
                     "def draw(rng, family, shape):\n"
                     "    if family in ('gaussian', 'deterministic'):\n"
                     "        return rng.standard_normal(shape)\n"
                     "    return rng.random(shape) if 'bernoulli' != family else None\n"
                     "def names(env):\n"
                     "    return env.family, SAMPLING_FAMILIES == ('gauss',)\n")
    assert _family_uses(tree) == [("compare", "MarketEnv.step", 6), ("compare", "draw", 10),
                                  ("compare", "draw", 12), ("read", "MarketEnv.__init__", 4),
                                  ("read", "MarketEnv.step", 6), ("read", "names", 14)]


def _unread_private_names(modules: dict[str, ast.Module]) -> list[str]:
    """module: name for every name a module's top-level statement
    defines (def, class or assignment) that starts with one underscore
    and that no other top-level statement of any module reads, by name
    or as an attribute."""
    defined = []
    for module, tree in modules.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            else:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else \
                    [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
                names = [node.id for target in targets for node in ast.walk(target)
                         if isinstance(node, ast.Name)]
            defined += [(module, name, stmt) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    reads = {}  # name -> the top-level statements that read it
    for tree in modules.values():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.setdefault(node.id, set()).add(id(stmt))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.setdefault(node.attr, set()).add(id(stmt))
    return [f"{module}: {name}" for module, name, stmt in defined
            if not reads.get(name, set()) - {id(stmt)}]


def test_every_private_name_is_read_inside_the_package():
    """A module-level _name that only tests read exists only for tests,
    and goes."""
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert _unread_private_names(modules) == []


def test_private_name_check_sees_a_name_only_tests_read():
    modules = {
        "a.py": ast.parse("_USED = 1\n"
                          "_ONLY_TESTS, _PAIRED = 2, 3\n"
                          "_TYPED: int = 4\n"
                          "def _recursive(k):\n"
                          "    return _recursive(k - 1) if k else _USED\n"
                          "class _Box:\n"
                          "    _slot = 0\n"
                          "def public():\n"
                          "    _local = _PAIRED\n"
                          "    return _local\n"
                          "__all__ = ['public']\n"),
        "b.py": ast.parse("from . import a\n"
                          "box = a._Box(a._TYPED)\n"
                          "a._ONLY_TESTS = 5\n"),
    }
    assert _unread_private_names(modules) == ["a.py: _ONLY_TESTS", "a.py: _recursive"]


def _stats_writes(tree: ast.Module) -> list[tuple[str, int]]:
    """(scope, line) of every assignment, plain, augmented or annotated,
    to an item or slice of an attribute named means or counts, also
    inside a tuple or starred target."""
    found = []
    for scope, node in _scoped(tree):
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []
        found += [(scope, sub.lineno) for target in targets for sub in ast.walk(target)
                  if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Attribute)
                  and sub.value.attr in ("means", "counts")]
    return sorted(found)


def test_only_the_fold_and_the_held_stretch_write_statistics():
    """Every per-arm mean comes from one recurrence: ArmStats.fold, and
    hold_profile's keep, which commits the kept prefix of a run that
    ArmStats.run computed, are the only writers of a mean or count."""
    scopes = set()
    for path in SOURCES:
        scopes |= {f"{path.name}: {scope}"
                   for scope, _ in _stats_writes(ast.parse(path.read_text(encoding="utf-8")))}
    assert scopes == {"env.py: ArmStats.fold", "centralized.py: hold_profile.keep"}


def test_stats_write_check_sees_a_stray_write():
    tree = ast.parse("class ArmStats:\n"
                     "    def __init__(self, n):\n"
                     "        self.means, self.counts = [0.0] * n, [0] * n\n"
                     "    def fold(self, arm, m, c):\n"
                     "        self.means[arm] = m\n"
                     "        self.counts[arm] = c\n"
                     "def stray(st, a, x):\n"
                     "    st.counts[a] += 1\n"
                     "    st.means[a], st.counts[a] = x, 1\n"
                     "    st.means[:]: list = [x]\n"
                     "    [*st.counts[:1]] = [0]\n"
                     "    return st.means[a], st.counts\n")
    assert _stats_writes(tree) == [("ArmStats.fold", 5), ("ArmStats.fold", 6), ("stray", 8),
                                   ("stray", 9), ("stray", 9), ("stray", 10), ("stray", 11)]


# os.open flags that let a descriptor write
_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether a call opens a file for writing: os.open with a write
    flag, or with flags that name no O_ constant; open, io.open,
    os.fdopen, io.FileIO or a path's open(mode) whose mode holds w, a,
    x or + or is not a literal; a path's write_text or write_bytes."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if _is_call(call, "open", "os"):
        flags = {getattr(node, "attr", getattr(node, "id", "")) for arg in call.args[1:2]
                 for node in ast.walk(arg)}
        named = {f for f in flags if f.startswith("O_")}
        return bool(named & _WRITE_FLAGS) or not named
    if name not in ("open", "fdopen", "FileIO"):
        return False
    # a method of something other than a module takes its mode first
    on_path = isinstance(func, ast.Attribute) and ast.unparse(func.value) not in ("io", "os")
    modes = [k.value for k in call.keywords if k.arg == "mode"] or \
        (call.args[:1] if on_path else call.args[1:2])
    if not modes:
        return False
    mode = modes[0]
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(set(mode.value) & set("wax+"))
    return True


def _write_opens(tree: ast.Module) -> list[tuple[str, int]]:
    """(scope, line) of every call that opens a file for writing."""
    return sorted((scope, node.lineno) for scope, node in _scoped(tree)
                  if isinstance(node, ast.Call) and _opens_for_writing(node))


def test_only_the_writer_opens_a_file_for_writing():
    """Every output is made by market.written, whole or not at all. The
    listed exceptions are the forked workers' pipe descriptors; the
    trace windows' tempfile.TemporaryFile is not an open call."""
    scopes = set()
    for path in SOURCES:
        scopes |= {f"{path.name}: {scope}"
                   for scope, _ in _write_opens(ast.parse(path.read_text(encoding="utf-8")))}
    assert scopes - {"harness.py: _forked", "harness.py: _send_result"} == {"market.py: written"}


def test_write_check_sees_a_stray_open():
    tree = ast.parse("import io, os, tempfile\n"
                     "def written(path):\n"
                     "    return os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)\n"
                     "def reads(path, fd):\n"
                     "    open(path).read(), open(path, 'rb'), path.open()\n"
                     "    os.open(path, os.O_RDONLY), open(fd, mode='r'), io.open(path)\n"
                     "def stray(path, mode, flags):\n"
                     "    open(path, 'w'), io.open(path, mode='a'), path.open('r+')\n"
                     "    open(path, mode), os.fdopen(3, 'wb'), path.write_text('x')\n"
                     "    os.open(path, flags), io.FileIO(path, 'w')\n"
                     "class Windows:\n"
                     "    def part(self):\n"
                     "        return tempfile.TemporaryFile('w+')\n")
    assert _write_opens(tree) == ([("stray", 8)] * 3 + [("stray", 9)] * 3 + [("stray", 10)] * 2
                                  + [("written", 3)])


BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_bench_name_is_defined_by_its_owner(monkeypatch, tmp_path):
    """bench/run.py --trace 1 wraps each name bench/layers.py lists and
    fails on one that is gone; this finds a dropped or renamed name
    (harness.commit_cascade, say) without a traced bench run. Importing
    the bench writes nothing."""
    monkeypatch.setattr(sys, "path", [str(BENCH)] + sys.path)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.chdir(tmp_path)
    before = sorted(BENCH.rglob("*"))
    fresh = [name for name in ("layers", "tracer", "workloads") if name not in sys.modules]
    try:
        targets = importlib.import_module("layers").targets()
    finally:
        for name in fresh:
            sys.modules.pop(name, None)
    assert sorted(BENCH.rglob("*")) == before
    assert list(tmp_path.iterdir()) == []
    assert targets
    assert [t.name for t in targets if t.attr not in vars(t.owner)] == []


CODE_LINES_SAMPLE = '''"""Module docstring,
two lines."""

# a comment
import os  # a trailing comment


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,
        two lines."""
        text = """a string
that is not a docstring"""
        return (text,
                os.sep)


async def run():
    \'\'\'Async function docstring.\'\'\'
    "a string statement after the docstring"
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    """Code lines: import, class, def, text's two lines, return's two
    lines, async def and the later string statement."""
    assert code_lines(CODE_LINES_SAMPLE) == 9
    assert code_lines("") == 0
    assert code_lines('x = 1\n"""not a module docstring"""\n') == 2
