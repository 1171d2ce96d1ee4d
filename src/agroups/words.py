"""Word grammar shared by the command line and the certificate files.

Words are whitespace-separated products of terms:

    term  := atom | atom '^' INT | atom '^' atom
    atom  := NAME | '1' | '(' word ')' | '[' word ',' word ']'

``x ^ k`` is the k-th power (k may be negative), ``x ^ y`` the conjugate
``y^-1 x y`` and ``[x, y]`` the commutator ``x^-1 y^-1 x y``.  ``1`` is
the empty word.

:func:`parse_word` reads a word in the form that elements print in,
``a b^-1 c``, by one table lookup per letter, and hands any other text
to the grammar.

:func:`read_word` reads a word once, where a file is loaded: it returns a
:class:`Word`, which is still the text and also carries the letters the
grammar reads in it, so that :func:`parse_word` only resolves their names
against a group.  Grammar errors name the line and column.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from .core import MAX_DIGITS, MAX_WORD_LETTERS, Element, EngineError, GroupDef, Letter
from .core import UnknownGenerator, _NAME, _clip, _reduce, _shown

__all__ = ["ParseError", "Word", "parse_word", "read_word", "word_letters"]


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


# (kind, text, column); kind is "name", "int", the symbol, or None for the end of the text
_Token = Tuple[Optional[str], str, int]
# `->`, `=` and `:` belong to no word; they are tokens so that errors name them as such.
_TOKEN_RE = re.compile(
    rf"(?P<name>{_NAME})"
    r"|(?P<int>-?[0-9]+)"
    r"|(?P<sym>->|[()\[\],^=:])"
    r"|(?P<bad>\S)"
)

# Brackets nest at most this deep; each level costs the recursive descent three frames.
MAX_NESTING = 100


def _invert(letters: List[Letter]) -> List[Letter]:
    return [(n, -e) for n, e in reversed(letters)]


class _WordParser:
    """Recursive-descent parser producing a flat letter list."""

    def __init__(self, tokens: List[_Token], line: Optional[int]):
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.depth = 0

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] is None:
            raise ParseError("unexpected end of word", self.line, tok[2])
        self.pos += 1
        return tok

    def fits(self, n: int, col: int) -> None:
        if n > MAX_WORD_LETTERS:
            raise ParseError(f"word longer than {MAX_WORD_LETTERS} letters", self.line, col)

    def word(self, stop: Optional[str]) -> List[Letter]:
        # returns only at `stop`; any other token a term cannot start is an error in `atom`
        letters: List[Letter] = []
        while True:
            kind, _, col = self.tokens[self.pos]
            if kind == stop:
                return letters
            term = self.term()
            self.fits(len(letters) + len(term), col)
            letters.extend(term)

    def term(self) -> List[Letter]:
        letters = self.atom()
        while self.tokens[self.pos][0] == "^":
            self.pos += 1
            kind, text, col = self.tokens[self.pos]
            if kind is None:
                raise ParseError("dangling '^'", self.line, col)
            if kind == "int":
                self.pos += 1
                k = int(text)
                self.fits(abs(k) * len(letters), col)
                if letters:  # [] * k overflows past sys.maxsize, though it stays empty
                    letters = (letters if k >= 0 else _invert(letters)) * abs(k)
            else:
                conj = self.atom()
                self.fits(2 * len(conj) + len(letters), col)
                letters = _invert(conj) + letters + conj
        return letters

    def atom(self) -> List[Letter]:
        kind, text, col = self.take()
        if kind == "name":
            return [(text, 1)]
        if kind == "int":
            if int(text) == 1:
                return []
            raise ParseError(f"unexpected number {_clip(str(int(text)))}", self.line, col)
        if kind == "(" or kind == "[":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"brackets nested deeper than {MAX_NESTING}", self.line, col)
        if kind == "(":
            inner = self.word(")")
            self.take()
            self.depth -= 1
            return inner
        if kind == "[":
            left = self.word(",")
            self.take()
            right = self.word("]")
            self.take()
            self.depth -= 1
            self.fits(2 * (len(left) + len(right)), col)
            return _invert(left) + _invert(right) + left + right
        raise ParseError(f"unexpected token {_shown(text)}", self.line, col)


def word_letters(text: str, line: Optional[int] = None) -> List[Letter]:
    """Parse `text` without resolving names against any group."""
    # every token is read before parsing, so a bad character anywhere beats a grammar error
    tokens: List[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind, piece, col = m.lastgroup, m.group(), m.start() + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {_shown(piece)}", line, col)
        if kind == "int" and len(piece.lstrip("-")) > MAX_DIGITS:
            raise ParseError(f"number longer than {MAX_DIGITS} digits", line, col)
        tokens.append((piece if kind == "sym" else kind, piece, col))
    if not tokens:
        raise ParseError("empty word (use '1' for the identity)", line)
    tokens.append((None, "", len(text) + 1))  # the end, one column past the last character
    return _WordParser(tokens, line).word(None)


class Word(str):
    """The text of a word and, in `letters`, the letters the grammar reads in it;
    it prints, compares and hashes as its text does."""

    __slots__ = ("letters",)


def read_word(text: str, line: Optional[int] = None) -> Word:
    """`text` as a :class:`Word`, read once; a ParseError at `line` if it is no word."""
    word = Word(text)
    word.letters = tuple(word_letters(text, line))
    return word


def parse_word(text: str, group: GroupDef) -> Element:
    """Parse `text` into a freely reduced element of `group`; a :class:`Word`
    is not read again."""
    if isinstance(text, Word):
        letters = text.letters
    else:
        # str.split() and the tokenizer part a text at the same (Unicode) whitespace
        printed = group._printed
        pieces = text.split()
        if 0 < len(pieces) <= MAX_WORD_LETTERS and all(p in printed for p in pieces):
            return Element._make(group, _reduce([printed[p] for p in pieces]))
        letters = word_letters(text)
    for name, _ in letters:
        if name not in group._states:
            raise UnknownGenerator(
                f"no generator named {_shown(name)} in group {_shown(group.name)}"
            )
    return Element._make(group, _reduce(letters))
