"""Raw and code-only line counts of the package's Python sources.

    python3 scripts/src_lines.py [ROOT]

ROOT defaults to ``src/`` beside this script's directory; every ``*.py``
file under it is counted.  A raw line is any line.  A code-only line holds
a ``tokenize`` token other than a comment, a newline, an indent or a
dedent, and is not part of a statement that is a bare string (a
docstring, found with ``ast``); a token spanning lines counts on each.
Prints one line per file, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def line_counts(source: str) -> tuple[int, int]:
    """(raw, code-only) line counts of one module's source."""
    bare = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            bare.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - bare)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    raw_total = code_total = 0
    for path in sorted(root.rglob("*.py")):
        raw, code = line_counts(path.read_text())
        raw_total += raw
        code_total += code
        print(f"{path.relative_to(root)} raw={raw} code={code}")
    print(f"total raw={raw_total} code={code_total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
