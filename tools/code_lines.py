"""Print the code lines of each module under src/ (or a given directory) and their total.

A code line holds a token that is not a comment, a docstring, a blank
line or indentation.  Run from the repository root: python tools/code_lines.py
"""
import pathlib
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER}
total = 0
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
    print(f"{len(lines):6d} {path}")
    total += len(lines)
print(f"{total:6d} total")
