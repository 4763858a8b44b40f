"""Print the code lines of each `src/rrrt` module and their total.

    python3 tools/codelines.py

A code line is a non-blank line that holds part of a token other than a
comment, and is not part of a docstring (the string that opens a module,
class or function body). Lines of any other string, such as a multi-line
f-string, count where they are not blank. This is the measure CHANGES.md
quotes as "code lines".
"""

from __future__ import annotations

import ast
import io
import tokenize

from linecov import PACKAGE, docstring_nodes

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    lines = source.splitlines()
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for doc in docstring_nodes(ast.parse(source)):
        code -= set(range(doc.lineno, doc.end_lineno + 1))
    return sum(1 for row in code if lines[row - 1].strip())


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.name:16} {n:6,}")
    print(f"{'total':16} {total:6,}")


if __name__ == "__main__":
    main()
