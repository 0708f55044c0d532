"""Tokenizer shared by the LISA parser and the behaviour-language parser.

The LISA dialect and its embedded C-like behaviour language use one token
set, so BEHAVIOR/EXPRESSION sections can be captured as token slices and
handed to the behaviour parser without re-lexing.

Token kinds:

``ident``
    Identifiers and keywords (keyword-ness is decided by the parsers).
``int``
    Integer literals: decimal, ``0x`` hex, ``0b`` binary without
    don't-cares.  ``value`` holds the integer.
``bits``
    Binary literals containing don't-care digits (``0b01x1``).  ``value``
    holds a :class:`repro.support.BitPattern`.
``string``
    Double-quoted strings with C escapes; ``value`` holds the text.
``punct``
    Operators and delimiters; ``text`` holds the exact spelling.
``eof``
    End of input (always the final token).

Identifiers and digits are ASCII.  The scanner is one regular expression
matched at the current position: the ``skip`` group takes whitespace and
comments, then exactly one token group matches.  Input no token accepts
matches the empty ``error`` group and is diagnosed off the fast path.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.support.bitutils import BitPattern
from repro.support.diagnostics import SourceLocation
from repro.support.errors import LisaSyntaxError

# Longest-first so that "<<=" is not read as "<<" then "=".
_PUNCTUATION = [
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "{", "}", "(", ")", "[", "]", ";", ",", ":", "=", "<", ">",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "?", ".", "@",
]

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    '"': '"',
    "\\": "\\",
}

_STRING_BODY = r'"(?:[^"\\\n]|\\[nrt0"\\])*'

# ``error`` matches the empty string, so a token group always matches
# after the longest ``skip`` and the engine never backtracks into it.
# The number lookaheads also exclude their own digits, so a shorter
# prefix of a rejected literal cannot match instead.  A "/" before "*"
# opens a comment that ``skip`` could not close.
_SCANNER = re.compile(
    r"(?P<skip>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*)"
    r"(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>%s)"
    r"|(?P<hex>0[xX][0-9a-fA-F]+)"
    r"|(?P<bin>0[bB][01]+(?![01xX]))"
    r"|(?P<bits>0[bB][01xX]+)"
    r"|(?P<dec>[0-9]+(?![A-Za-z0-9_]))"
    r"|(?P<string>%s\")"
    r"|(?P<eof>\Z)"
    r"|(?P<error>))"
    % ("|".join(r"/(?!\*)" if p == "/" else re.escape(p)
                for p in _PUNCTUATION), _STRING_BODY),
    re.DOTALL,
)
_STRING_PREFIX = re.compile(_STRING_BODY)
_ESCAPE = re.compile(r"\\(.)")
_DIGITS = re.compile(r"[0-9]*")


class Token(NamedTuple):
    """One lexical token."""

    kind: str
    text: str
    value: object
    location: SourceLocation

    def is_punct(self, text):
        return self.kind == "punct" and self.text == text

    def is_ident(self, text=None):
        if self.kind != "ident":
            return False
        return text is None or self.text == text

    def __str__(self):
        return "%s(%r)" % (self.kind, self.text)


def tokenize(source, filename="<string>"):
    """Tokenize ``source`` into a list ending with an ``eof`` token."""
    tokens = []
    append = tokens.append
    scan = _SCANNER.match
    pos = 0
    line = 1
    line_start = 0  # offset of the first character of ``line``
    while True:
        match = scan(source, pos)
        kind = match.lastgroup
        start, end = match.span(kind)
        if start != pos:
            newlines = source.count("\n", pos, start)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", pos, start) + 1
        location = SourceLocation(filename, line, start - line_start + 1)
        text = source[start:end]
        if kind == "ident" or kind == "punct":
            append(Token(kind, text, text, location))
        elif kind == "dec":
            append(Token("int", text, int(text), location))
        elif kind == "hex":
            append(Token("int", text, int(text, 16), location))
        elif kind == "bin":
            append(Token("int", text, int(text[2:], 2), location))
        elif kind == "bits":
            append(Token("bits", text, BitPattern.parse(text[2:]), location))
        elif kind == "string":
            value = text[1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(_unescape, value)
            append(Token("string", '"%s"' % value, value, location))
        elif kind == "eof":
            append(Token("eof", "", None, location))
            return tokens
        else:
            raise _syntax_error(source, start, location)
        pos = end


def _unescape(match):
    return _ESCAPES[match.group(1)]


def _syntax_error(source, pos, location):
    """The error for the input at ``pos``, which no token accepts."""

    def at(offset):
        return SourceLocation(location.filename, location.line,
                              location.column + offset)

    if source.startswith("/*", pos):
        return LisaSyntaxError("unterminated block comment", location)
    char = source[pos]
    if char == '"':
        # Valid characters and escapes run up to the first bad one: a bad
        # escape, or the newline or end of input that ends the string.
        end = _STRING_PREFIX.match(source, pos).end()
        if source.startswith("\\", end):
            return LisaSyntaxError(
                "unknown escape sequence \\%s" % source[end + 1:end + 2],
                at(end - pos),
            )
        return LisaSyntaxError("unterminated string literal", location)
    prefix = source[pos:pos + 2]
    if prefix in ("0x", "0X"):
        return LisaSyntaxError("incomplete hex literal %r" % prefix, location)
    if prefix in ("0b", "0B"):
        return LisaSyntaxError(
            "incomplete binary literal %r" % prefix, location
        )
    digits = _DIGITS.match(source, pos).group()
    if digits:
        return LisaSyntaxError(
            "invalid character %r after number %r"
            % (source[pos + len(digits)], digits),
            at(len(digits)),
        )
    return LisaSyntaxError("unexpected character %r" % char, location)
