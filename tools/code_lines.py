"""Count the lines and the code lines of the ``nematicfem`` package.

A code line holds a token other than a comment and lies outside every
docstring (of a module, class or function).  Blank lines, comment lines and
docstring lines count toward the total only.

    python3 tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/nematicfem`` next to this script's directory.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers covered by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """(total lines, code lines) of one Python source text."""
    skip = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - skip)


def main(argv):
    root = (Path(argv[1]) if len(argv) > 1
            else Path(__file__).resolve().parent.parent / "src" / "nematicfem")
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        t, c = count(path.read_text(encoding="utf-8"))
        total += t
        code += c
    print(f"{root}: {total:,} lines, {code:,} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
