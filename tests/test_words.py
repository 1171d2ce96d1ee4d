import pytest

from agroups.core import UnknownGenerator
from agroups.words import MAX_NESTING, MAX_WORD_LETTERS, ParseError, parse_word, word_letters


def test_basic_words(grig):
    assert parse_word("a b", grig).letters == (("a", 1), ("b", 1))
    assert parse_word("1", grig).letters == ()
    assert parse_word("b b^-1", grig).letters == ()
    assert len(parse_word("a a", grig)) == 2  # no semantic reduction here


def test_powers(grig):
    assert parse_word("(a b)^2", grig).letters == (
        ("a", 1), ("b", 1), ("a", 1), ("b", 1),
    )
    assert parse_word("a^2", grig).letters == (("a", 1), ("a", 1))
    assert parse_word("(a b)^-2", grig).letters == (
        ("b", -1), ("a", -1), ("b", -1), ("a", -1),
    )
    assert parse_word("(a b)^0", grig).letters == ()
    assert parse_word("b^-1", grig).letters == (("b", -1),)


def test_conjugation(grig):
    assert parse_word("(c a)^d", grig).letters == (
        ("d", -1), ("c", 1), ("a", 1), ("d", 1),
    )
    assert parse_word("b^a", grig).letters == (("a", -1), ("b", 1), ("a", 1))
    # left associative: (a^2)^b
    assert parse_word("a^2^b", grig).letters == (
        ("b", -1), ("a", 1), ("a", 1), ("b", 1),
    )


def test_commutator(bas):
    assert parse_word("[a, b^2]", bas).letters == (
        ("a", -1), ("b", -1), ("b", -1), ("a", 1), ("b", 1), ("b", 1),
    )
    assert parse_word("[b^-1, a]", bas).letters == (
        ("b", 1), ("a", -1), ("b", -1), ("a", 1),
    )


def test_nesting(grig):
    assert parse_word("((a b) c)^2", grig).letters == parse_word(
        "a b c a b c", grig
    ).letters
    assert parse_word("[a, [b, c]]", grig) is not None
    assert parse_word("(1)^5", grig).letters == ()


def test_nesting_bound():
    # brackets deeper than the bound are a ParseError, not a RecursionError
    for inner in ("a", "[a, b]"):  # both bracket kinds count
        depth = MAX_NESTING - inner.count("[")
        ok = "(" * depth + inner + ")" * depth
        assert word_letters(ok)
        with pytest.raises(ParseError, match="nested deeper"):
            word_letters("(" + ok + ")")
    with pytest.raises(ParseError):
        word_letters("(" * 2000 + "a" + ")" * 2000)
    # the bound counts depth, not brackets: siblings never add up
    assert len(word_letters("(a) " * (3 * MAX_NESTING))) == 3 * MAX_NESTING


def test_word_letter_bound():
    # expansions are sized before they are built, so a short text cannot exhaust memory
    def nested(k):  # k nested commutators hold 3 * 2^k - 2 letters
        return "[a, " * k + "a" + "]" * k

    assert MAX_WORD_LETTERS == 1 << 20
    assert len(word_letters(nested(18))) == 786_430
    half = MAX_WORD_LETTERS // 2
    assert len(word_letters(f"(a b)^{half}")) == MAX_WORD_LETTERS
    assert len(word_letters(f"(a b)^-{half}")) == MAX_WORD_LETTERS
    assert word_letters("1^1000000000000") == []
    assert word_letters("1^" + "9" * 640) == []  # past sys.maxsize, which no list repeats
    too_long = [
        nested(19),  # commutator
        f"(a b)^{half + 1}",  # power
        f"(a b)^-{half + 1}",
        "a^1000000000000",
        f"(a^{half}) ^ (b^{half})",  # conjugate
        f"a^{half} b^{half} a",  # concatenation
        f"[a^{half}, b]",  # commutator of short pieces
        f"(a^{MAX_WORD_LETTERS} b)^2",
    ]
    for text in too_long:
        with pytest.raises(ParseError, match="longer than"):
            word_letters(text)


def test_errors(grig):
    for bad in ["", "a )", "(a b", "[a b]", "a ^", "2", "a^", "a,", "; a"]:
        with pytest.raises(ParseError):
            word_letters(bad)
    with pytest.raises(UnknownGenerator):
        parse_word("a z", grig)


def test_roundtrip_display(grig):
    for text in ["a b^-1 c", "a a a", "1", "d c b a"]:
        w = parse_word(text, grig)
        assert parse_word(str(w), grig) == w
