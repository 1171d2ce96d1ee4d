"""Word grammar shared by the command line and the certificate files.

Words are whitespace-separated products of terms:

    term  := atom | atom '^' INT | atom '^' atom
    atom  := NAME | '1' | '(' word ')' | '[' word ',' word ']'

``x ^ k`` is the k-th power (k may be negative), ``x ^ y`` the conjugate
``y^-1 x y`` and ``[x, y]`` the commutator ``x^-1 y^-1 x y``.  ``1`` is
the empty word.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional, Tuple

from .core import MAX_DIGITS, Element, EngineError, GroupDef, Letter, UnknownGenerator
from .core import _clip, _shown

__all__ = ["ParseError", "parse_word", "word_letters"]


class ParseError(EngineError):
    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}: " if col is None else f"line {line}, col {col}: "
        elif col is not None:
            where = f"col {col}: "
        super().__init__(where + message)


class Token(NamedTuple):
    kind: str
    value: object
    col: int


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_@.]*)"
    r"|(?P<int>-?[0-9]+)"
    r"|(?P<arrow>->)"
    r"|(?P<sym>[()\[\],^=:])"
)


def tokenize(text: str, line: Optional[int] = None) -> List[Token]:
    tokens: List[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {_shown(text[pos])}", line, pos + 1)
        if m.lastgroup == "name":
            tokens.append(Token("name", m.group(), pos + 1))
        elif m.lastgroup == "int":
            if len(m.group().lstrip("-")) > MAX_DIGITS:
                raise ParseError(f"number longer than {MAX_DIGITS} digits", line, pos + 1)
            tokens.append(Token("int", int(m.group()), pos + 1))
        elif m.lastgroup == "arrow":
            tokens.append(Token("->", "->", pos + 1))
        elif m.lastgroup == "sym":
            tokens.append(Token(m.group(), m.group(), pos + 1))
        pos = m.end()
    return tokens


# Brackets nest at most this deep; each level costs the recursive descent three frames.
MAX_NESTING = 100
# Letters in a parsed word, checked before each expansion, so a short text cannot exhaust memory.
MAX_WORD_LETTERS = 1 << 20


def _invert(letters: List[Letter]) -> List[Letter]:
    return [(n, -e) for n, e in reversed(letters)]


class _WordParser:
    """Recursive-descent parser producing a flat letter list."""

    def __init__(self, tokens: List[Token], line: Optional[int] = None):
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.depth = 0

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of word", self.line)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.take()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {_shown(tok.value)}", self.line, tok.col)
        return tok

    def fits(self, n: int, col: int) -> None:
        if n > MAX_WORD_LETTERS:
            raise ParseError(f"word longer than {MAX_WORD_LETTERS} letters", self.line, col)

    def word(self, stop: Tuple[str, ...] = ()) -> List[Letter]:
        letters: List[Letter] = []
        while True:
            tok = self.peek()
            if tok is None or tok.kind in stop:
                return letters
            term = self.term(stop)
            self.fits(len(letters) + len(term), tok.col)
            letters.extend(term)

    def term(self, stop: Tuple[str, ...]) -> List[Letter]:
        letters = self.atom()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "^":
                return letters
            self.take()
            nxt = self.peek()
            if nxt is None:
                raise ParseError("dangling '^'", self.line)
            if nxt.kind == "int":
                self.take()
                k = nxt.value
                self.fits(abs(k) * len(letters), nxt.col)
                if letters:  # [] * k overflows past sys.maxsize, though it stays empty
                    letters = (letters if k >= 0 else _invert(letters)) * abs(k)
            else:
                conj = self.atom()
                self.fits(2 * len(conj) + len(letters), nxt.col)
                letters = _invert(conj) + letters + conj

    def atom(self) -> List[Letter]:
        tok = self.take()
        if tok.kind == "name":
            return [(tok.value, 1)]
        if tok.kind == "int":
            if tok.value == 1:
                return []
            raise ParseError(f"unexpected number {_clip(str(tok.value))}", self.line, tok.col)
        if tok.kind in ("(", "["):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"brackets nested deeper than {MAX_NESTING}", self.line, tok.col)
        if tok.kind == "(":
            inner = self.word(stop=(")",))
            self.expect(")")
            self.depth -= 1
            return inner
        if tok.kind == "[":
            left = self.word(stop=(",",))
            self.expect(",")
            right = self.word(stop=("]",))
            self.expect("]")
            self.depth -= 1
            self.fits(2 * (len(left) + len(right)), tok.col)
            return _invert(left) + _invert(right) + left + right
        raise ParseError(f"unexpected token {_shown(tok.value)}", self.line, tok.col)


def word_letters(text: str, line: Optional[int] = None) -> List[Letter]:
    """Parse `text` without resolving names against any group."""
    tokens = tokenize(text, line)
    if not tokens:
        raise ParseError("empty word (use '1' for the identity)", line)
    parser = _WordParser(tokens, line)
    letters = parser.word()
    if parser.peek() is not None:
        tok = parser.peek()
        raise ParseError(f"unexpected token {_shown(tok.value)}", line, tok.col)
    return letters


def parse_word(text: str, group: GroupDef) -> Element:
    """Parse `text` into a freely reduced element of `group`."""
    letters = word_letters(text)
    for name, _ in letters:
        if name not in group.state_names:
            raise UnknownGenerator(
                f"no generator named {_shown(name)} in group {_shown(group.name)}"
            )
    return group.element(letters)
