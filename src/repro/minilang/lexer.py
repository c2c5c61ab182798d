"""Regular-expression lexer for MiniLang.

The lexer produces a flat list of :class:`~repro.minilang.tokens.Token`
objects.  It supports ``//`` line comments and ``/* ... */`` block comments,
decimal integer literals, identifiers, keywords, and the operator set in
:data:`repro.minilang.tokens.OPERATORS`.

One compiled pattern splits the source; the loop below only turns its
matches into tokens and keeps the line count.  Lines are split at ``\\n``
alone; a tab or ``\\r`` counts as one column.  Identifiers follow
``str.isalpha``/``str.isalnum`` (``\\w`` is exactly ``isalnum`` or ``_``,
``\\d`` exactly ``isdecimal``), and an integer literal is a run of
``str.isdigit`` characters read with ``int``, so a literal holding a
non-decimal digit such as ``²`` raises ``int``'s ``ValueError``.
"""

import re

from repro.minilang.errors import LexError
from repro.minilang.tokens import EOF, IDENT, INT, KEYWORDS, OPERATORS, Token

# Alternatives are tried in order: comments before the ``/`` operator,
# and OPERATORS lists multi-character operators before their prefixes
# (maximal munch).  ``word`` may start with a non-decimal digit or
# numeral that is not a letter; ``tokenize`` rejects those.
_TOKEN = re.compile(
    r"(?P<space>[ \t\r]+)"
    r"|(?P<word>[^\W\d]\w*)"
    r"|(?P<newline>\n+)"
    r"|(?P<int>\d+)"
    r"|(?P<comment>//[^\n]*|/\*.*?\*/)"
    r"|(?P<unterminated>/\*)"
    r"|(?P<op>" + "|".join(re.escape(op) for op in OPERATORS) + ")"
    r"|(?P<other>.)",
    re.DOTALL,
)


def tokenize(source, name="<minilang>"):
    """Tokenize ``source`` and return a list of tokens ending with EOF."""
    tokens = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the current line's first character
    eof = len(source)  # where the EOF token sits

    def error(message, start):
        raise LexError(message, line=line, column=start - line_start + 1, filename=name)

    for match in _TOKEN.finditer(source):
        group = match.lastgroup
        if group == "space":
            continue
        start = match.start()
        if group == "word":
            text = match.group()
            first = text[0]
            if not (first.isascii() or first.isalpha()):
                if first.isdigit():
                    int(_digit_run(source, start))  # raises ValueError
                error("unexpected character %r" % first, start)
            kind = text if text in KEYWORDS else IDENT
            append(Token(kind, text, line, start - line_start + 1))
        elif group == "op":
            text = match.group()
            append(Token(text, text, line, start - line_start + 1))
        elif group == "newline":
            line += match.end() - start
            line_start = match.end()
        elif group == "int":
            end = match.end()
            if source[end : end + 1].isdigit():
                int(_digit_run(source, start))  # raises ValueError
            append(Token(INT, int(match.group()), line, start - line_start + 1))
        elif group == "comment":
            text = match.group()
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rfind("\n") + 1
            elif match.end() == eof and text.startswith("//"):
                # A trailing line comment leaves the EOF token where the
                # comment starts.
                eof = start
        elif group == "unterminated":
            error("unterminated block comment", start)
        else:
            error("unexpected character %r" % match.group(), start)

    tokens.append(Token(EOF, None, line, eof - line_start + 1))
    return tokens


def _digit_run(source, start):
    """The run of ``str.isdigit`` characters at ``start``."""
    end = start
    while end < len(source) and source[end].isdigit():
        end += 1
    return source[start:end]
