"""The regular-expression lexer against the character-walking lexer it
replaced.

``_reference_tokenize`` is that lexer, kept here as the oracle.  Both must
give the same tokens (kind, value and its type, line, column) or fail
the same way (a ``LexError`` with the same message, line and column, or
``int``'s ``ValueError`` for a literal holding a non-decimal digit) on
every benchmark source, every example program and seeded random strings
built from comments, tabs, carriage returns, non-ASCII letters, digits
and numerals, and invalid characters.
"""

import glob
import os
import random

import pytest

from repro.bench.programs import BENCHMARK_NAMES, get_benchmark
from repro.minilang.errors import LexError
from repro.minilang.lexer import tokenize
from repro.minilang.tokens import EOF, IDENT, INT, KEYWORDS, OPERATORS, Token

from tests.runtime.test_schedule_golden import RECORD_SIZES

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _reference_tokenize(source, name="<minilang>"):
    """The former hand-written lexer, character by character."""
    tokens = []
    pos = 0
    line = 1
    col = 1
    n = len(source)

    def error(message):
        raise LexError(message, line=line, column=col, filename=name)

    while pos < n:
        ch = source[pos]
        if ch == "\n":
            pos += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            pos += 1
            col += 1
            continue
        if source.startswith("//", pos):
            end = source.find("\n", pos)
            if end < 0:
                pos = n
            else:
                pos = end
            continue
        if source.startswith("/*", pos):
            end = source.find("*/", pos + 2)
            if end < 0:
                error("unterminated block comment")
            skipped = source[pos : end + 2]
            newlines = skipped.count("\n")
            if newlines:
                line += newlines
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            pos = end + 2
            continue
        if ch.isdigit():
            start = pos
            while pos < n and source[pos].isdigit():
                pos += 1
            text = source[start:pos]
            tokens.append(Token(INT, int(text), line, col))
            col += len(text)
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (source[pos].isalnum() or source[pos] == "_"):
                pos += 1
            text = source[start:pos]
            kind = text if text in KEYWORDS else IDENT
            tokens.append(Token(kind, text, line, col))
            col += len(text)
            continue
        for op in OPERATORS:
            if source.startswith(op, pos):
                tokens.append(Token(op, op, line, col))
                pos += len(op)
                col += len(op)
                break
        else:
            error("unexpected character %r" % ch)

    tokens.append(Token(EOF, None, line, col))
    return tokens


def outcome(lex, source):
    """What ``lex`` makes of ``source``, in comparable form."""
    try:
        tokens = lex(source, name="t.ml")
    except LexError as exc:
        return ("LexError", exc.message, exc.line, exc.column, exc.filename)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return [(t.kind, t.value, type(t.value), t.line, t.column) for t in tokens]


def _sources():
    """Every benchmark at its default and at its pipeline-benchmark
    ``record`` size, and every example program."""
    for name in BENCHMARK_NAMES:
        yield "bench/%s" % name, get_benchmark(name).source
    for name, size in RECORD_SIZES.items():
        yield "record/%s" % name, get_benchmark(name, **size).source
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "minilang", "*.ml"))):
        with open(path, encoding="utf-8") as fh:
            yield "examples/" + os.path.basename(path), fh.read()


SOURCES = dict(_sources())


def test_sources_cover_benchmarks_and_examples():
    assert len(SOURCES) >= len(BENCHMARK_NAMES) + len(RECORD_SIZES) + 10


@pytest.mark.parametrize("label", sorted(SOURCES))
def test_program_sources_lex_identically(label):
    source = SOURCES[label]
    expected = outcome(_reference_tokenize, source)
    assert isinstance(expected, list), expected
    assert outcome(tokenize, source) == expected


# Fragments of random sources: mostly valid MiniLang, with comment
# openers and closers, odd whitespace, non-ASCII letters, decimal and
# non-decimal digits and numerals, and characters MiniLang rejects.
_FRAGMENTS = (
    ["x", "y1", "_t", "abc", "0", "7", "42", "007", " ", " ", "  ", "\n", "\n\n"]
    + sorted(KEYWORDS)[:8]
    + list(OPERATORS)
    + ["\t", "\r", "\r\n", "//", "// note", "/*", "*/", "/* a\nb */", "/**/", "*"]
    + ["é", "ß", "中", "ǅ", "٣", "७", "²", "①", "½", "Ⅳ", "〇"]
    + ["$", "@", "#", "`", '"', "\\", "\x0b", "\x0c", "\xa0", "\x00"]
)
_INVALID = frozenset(["$", "@", "#", "`", '"', "\\", "\x0b", "\x0c", "\xa0", "\x00"])


def _random_sources(count, seed=20130616):
    gen = random.Random(seed)
    valid = [f for f in _FRAGMENTS if f not in _INVALID]
    for _ in range(count):
        pool = _FRAGMENTS if gen.random() < 0.3 else valid
        yield "".join(gen.choice(pool) for _ in range(gen.randint(0, 40)))


def test_random_strings_lex_identically():
    kinds = {"ok": 0, "LexError": 0, "ValueError": 0}
    messages = set()
    for source in _random_sources(500):
        expected = outcome(_reference_tokenize, source)
        assert outcome(tokenize, source) == expected, repr(source)
        if isinstance(expected, list):
            kinds["ok"] += 1
        else:
            kinds[expected[0]] += 1
            messages.add(expected[1].split(" ")[0])
    # Each way of lexing or failing is exercised.
    assert min(kinds.values()) >= 10, kinds
    assert {"unterminated", "unexpected"} <= messages


@pytest.mark.parametrize(
    "source",
    [
        "",
        "x // trailing",
        "x /* c */",
        "/* a\n b */ y",
        "/* open",
        "a\tb\rc\r\nd",
        "é1 ǅx _中",
        "٣٤ 1٣",
        "12² 3",
        "²",
        "½",
        "Ⅳ",
        "x $ y",
        "a\x0bb",
        "//*/ x\n/**/y/***/z",
        "+++---<<=>>=!==",
    ],
)
def test_edge_cases_lex_identically(source):
    assert outcome(tokenize, source) == outcome(_reference_tokenize, source)
