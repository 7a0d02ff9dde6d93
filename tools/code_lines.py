"""Count the code lines of the ordcurves package.

A code line holds a token other than a comment, NL, NEWLINE, INDENT,
DEDENT or ENDMARKER, and is not part of a module, class or function
docstring; a token that spans lines counts on each of them.  Prints each
module's count and the total without `oracle.py`, the brute-force
reference kept apart from the package's own code.

    python3 tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/ordcurves beside this tool.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, OWNERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    lines = {
        n for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type not in SKIPPED for n in range(tok.start[0], tok.end[0] + 1)
    }
    return len(lines - docstring_lines(source))


def main(argv) -> None:
    package = Path(argv[1]) if len(argv) > 1 else Path(__file__).parent.parent / "src" / "ordcurves"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        print(f"{path.name:24} {count:6,}")
        if path.name != "oracle.py":
            total += count
    print(f"{'total without oracle.py':24} {total:6,}")


if __name__ == "__main__":
    main(sys.argv)
