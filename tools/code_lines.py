"""Print the code lines and statements of each module under src/ (or a given directory), and their totals.

A code line holds a token that is not a comment, a docstring, a blank
line or indentation.  A statement is an ``ast.stmt`` node that is not a
string standing alone (a docstring); reflowing a statement over more or
fewer lines moves the first count and not the second.  Run from the
repository root: python tools/code_lines.py
"""
import ast
import pathlib
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER}


def is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


total = total_statements = 0
print(f"{'lines':>6} {'stmts':>6}")
for path in sorted(pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "src").rglob("*.py")):
    with path.open("rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type != tokenize.ENCODING]
    lines, previous = set(), tokenize.NEWLINE
    for tok, after in zip(tokens, tokens[1:] + tokens[-1:]):
        docstring = (tok.type == tokenize.STRING and previous in SKIP
                     and after.type == tokenize.NEWLINE)  # a string statement of its own
        if tok.type not in SKIP and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        previous = tok.type
    statements = sum(isinstance(node, ast.stmt) and not is_docstring(node)
                     for node in ast.walk(ast.parse(path.read_bytes(), str(path))))
    print(f"{len(lines):6d} {statements:6d} {path}")
    total += len(lines)
    total_statements += statements
print(f"{total:6d} {total_statements:6d} total")
