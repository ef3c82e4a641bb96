"""Count code lines in Python sources, per module and in total.

A code line is a physical line that holds at least one token other
than a comment, an indent or a line break, and is not part of a
docstring (a string literal standing alone as a statement). Blank
lines, comment lines and docstring lines are skipped; a statement that
spans several lines counts each line it touches.

    python3 tools/code_lines.py [path ...]      (default: src)

A path may be a file or a directory, searched for *.py recursively.
Uses the standard library only.
"""

import io
import os
import sys
import tokenize

_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
           tokenize.ENDMARKER}


def code_lines(source):
    """Line numbers of the code lines in one module's source text."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        before = tokens[i - 1].type if i else tokenize.NEWLINE
        after = tokens[i + 1].type if i + 1 < len(tokens) else tokenize.NEWLINE
        if (tok.type == tokenize.STRING and after == tokenize.NEWLINE
                and before in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)):
            continue  # a docstring, or any string standing alone
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines


def _modules(paths):
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def main(argv):
    total = 0
    for path in _modules(argv or ["src"]):
        with open(path, encoding="utf-8") as fh:
            n = len(code_lines(fh.read()))
        total += n
        print("%6d  %s" % (n, path))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
