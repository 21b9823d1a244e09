"""Print the line counts of ``src/emacprof/*.py`` that ROADMAP.md tracks.

Usage, from the root of a checkout::

    python tools/line_count.py [SRC]

``SRC`` is a directory of ``.py`` files, by default this checkout's
``src/emacprof``. The first count is every line of those files, as
``cat src/emacprof/*.py | wc -l`` counts them. The second is the lines of
code: a line counts where it holds a token other than a comment, once every
docstring statement (an expression statement that is a string literal) is
dropped, so that neither comments, docstrings nor blank lines count, and a
string literal that spans lines inside code counts every line it spans.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: tokens that hold no code
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER, tokenize.ENCODING,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every expression statement of ``tree`` that is a string literal."""
    return {
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for line in range(node.lineno, node.end_lineno + 1)
    }


def counts(text: str) -> tuple[int, int]:
    """Total lines and lines of code of one file's ``text``."""
    dropped = docstring_lines(ast.parse(text))
    code = {
        line
        for token in tokenize.generate_tokens(io.StringIO(text).readline)
        if token.type not in NOT_CODE
        for line in range(token.start[0], token.end[0] + 1)
        if line not in dropped
    }
    return text.count("\n"), len(code)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", type=Path, default=ROOT / "src" / "emacprof",
                        help="directory of the .py files to count")
    args = parser.parse_args(argv)
    files = sorted(args.src.glob("*.py"))
    if not files:
        print(f"error: no .py files under {args.src}", file=sys.stderr)
        return 2
    total = code = 0
    for path in files:
        lines, statements = counts(path.read_text(encoding="utf-8"))
        total += lines
        code += statements
    print(f"{total} lines, {code} lines of code in {len(files)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
