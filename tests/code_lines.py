"""Count the code lines of Python sources: the lines that tokenize finds
a token on, leaving out docstrings (module, class and function),
comments and blank lines. Each line of a multi-line string that is not
a docstring counts.

    python tests/code_lines.py src/housebandits

prints each module's code lines and the total; a directory stands for
the .py files under it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that are no code: layout, comments and the stream's end
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}


def _docstring_spans(tree: ast.Module) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions of each module, class and function
    docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant) \
                and isinstance(node.body[0].value.value, str):
            doc = node.body[0]
            spans.append(((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines in source."""
    spans = _docstring_spans(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE:
            continue
        if any(start <= token.start and token.end <= end for start, end in spans):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    paths = []
    for arg in argv:
        path = Path(arg)
        paths += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    if not paths:
        print("usage: python tests/code_lines.py PATH ...", file=sys.stderr)
        return 2
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
