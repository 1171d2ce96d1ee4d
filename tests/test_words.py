import random
from collections import Counter

import pytest

from agroups import cli, corpus, words
from agroups.certify import run_suite
from agroups.core import UnknownGenerator
from agroups.words import MAX_NESTING, MAX_WORD_LETTERS, ParseError, Word, parse_word, read_word
from agroups.words import word_letters
from oracles import parse_word_reference, word_letters_reference


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


NAMES = ["a", "b", "c", "d", "x", "_", "a@1", "b.c", "d.", "A_9.@z"]
NUMBERS = [
    "1", "2", "3", "0", "-1", "-2", "01", "-0", "12", "1048577", "4294967296",
    "9" * 640, "9" * 641, "-" + "9" * 640, "0" * 641,
]
SYMBOLS = ["^", "-", "->", "(", ")", "[", "]", ",", "=", ":"]
ODD = ["\xa0", "\x1c", "\u0663", "\xe9"]  # NBSP and \x1c are whitespace to `\s`; ٣ and é are not
SEPARATORS = ["", " ", "  ", "\t", "\n", "\xa0", "\x1c"]
PIECES = NAMES + NUMBERS + SYMBOLS + ODD


def _grammatical(rng, depth):
    """A word the grammar accepts (unknown names and all), nested at most `depth` deep."""
    def atom(depth):
        r = rng.random()
        if depth <= 0 or r < 0.5:
            return rng.choice(NAMES[:6] + ["1"])
        if r < 0.75:
            return "(" + word(depth - 1) + ")"
        return "[" + word(depth - 1) + ", " + word(depth - 1) + "]"

    def term(depth):
        text, r = atom(depth), rng.random()
        if r < 0.3:
            text += "^" + rng.choice(["2", "3", "-1", "-2", "0", "1"])
        elif r < 0.4:
            text += " ^ " + atom(depth)
        return text

    def word(depth):
        return " ".join(term(depth) for _ in range(rng.randint(1, 3)))

    return word(depth)


def _random_text(rng):
    """A grammatical word with a few pieces spliced in or cut out, or pieces at random."""
    if rng.random() < 0.5:
        pieces = (rng.choice(PIECES) + rng.choice(SEPARATORS) for _ in range(rng.randint(0, 8)))
        return "".join(pieces)
    text = _grammatical(rng, rng.randint(0, 3))
    for _ in range(rng.randint(0, 2)):
        i = rng.randint(0, len(text))
        if rng.random() < 0.6:
            text = text[:i] + rng.choice(PIECES + SEPARATORS) + text[i:]
        else:
            text = text[:i] + text[i + rng.randint(1, 3):]
    return text


def _printed_forms(rng, group):
    """A random nonempty reduced word as elements print it, rejoined by each of SEPARATORS."""
    while True:
        size = rng.randint(1, 12)
        element = group.element(
            (rng.choice(group.state_names), rng.choice((1, -1))) for _ in range(size)
        )
        if element.letters:
            pieces = str(element).split(" ")
            return [sep.join(pieces) for sep in SEPARATORS]


def _outcome(fn, *args, **kwargs):
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # any type, so a mismatch shows as a difference, not a crash
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)
    return (result.group, result.letters) if hasattr(result, "letters") else result


NEAR = ["a z b", "a ^-1", "a^-1^-1", "a^-10", "a^-1b", "b^-1 1", "1", " ", "\t\n", "\xa0\x1c"]


def _draws(grig):
    """20,000 random texts, and 500 printed forms in each of SEPARATORS, from one seed."""
    rng = random.Random(20260)
    draw = [_random_text(rng) for _ in range(20_000)]
    return draw, [_printed_forms(rng, grig) for _ in range(500)]


def _raising(text, line=None):
    raise AssertionError(f"grammar path taken for {text!r}")


def test_word_parser_matches_reference(grig, monkeypatch):
    # the one-scan parser and the printed-form lookup give the token-list parser's letters,
    # or its error, message and column
    half = MAX_WORD_LETTERS // 2
    deep = MAX_NESTING + 1
    bounds = [  # each bound at its edge, which random draws rarely reach
        "(" * MAX_NESTING + "a" + ")" * MAX_NESTING, "[a, " * deep + "a" + "]" * deep,
        f"a^{half} b^{half} a", f"a^{half} (b)^-{half}",
        f"[a^{half}, b]", f"(a^{half}) ^ (b^{half})",
    ]
    draw, printed = _draws(grig)
    seen = set()
    for text in bounds + NEAR + [t for forms in printed for t in forms] + draw:
        for new, old, kwargs in [
            (word_letters, word_letters_reference, {}),
            (word_letters, word_letters_reference, {"line": 7}),
            (parse_word, parse_word_reference, {"group": grig}),
        ]:
            got = _outcome(new, text, **kwargs)
            assert got == _outcome(old, text, **kwargs), (text, kwargs)
            error = isinstance(got, tuple) and isinstance(got[0], type)
            seen.add(" ".join(got[1].rsplit(": ", 1)[-1].split()[:2]) if error else "ok")
    # the draw reaches words, unknown names and each error the grammar gives
    assert seen == {
        "ok", "no generator", "empty word", "unexpected character", "number longer",
        "brackets nested", "unexpected token", "unexpected end", "dangling '^'",
        "unexpected number", "word longer",
    }, seen

    # one letter over the bound, the grammar gives its error at the letter's column
    with pytest.raises(ParseError) as excinfo:
        parse_word("a " * (MAX_WORD_LETTERS + 1), grig)
    col = 2 * MAX_WORD_LETTERS + 1
    assert str(excinfo.value) == f"col {col}: word longer than {MAX_WORD_LETTERS} letters"

    # the printed forms, the bound included, are read without the grammar
    at_limit = "a " * MAX_WORD_LETTERS
    limit_letters = tuple(word_letters(at_limit))

    monkeypatch.setattr(words, "word_letters", _raising)
    assert parse_word(at_limit, grig).letters == limit_letters
    for text in [t for forms in printed for t in forms[1:]]:  # forms[0] is joined by ""
        got = _outcome(parse_word, text, group=grig)
        assert got == _outcome(parse_word_reference, text, group=grig), text


def _certificate_words(cert):
    """The word texts of `cert`'s assertions, tuple entries one by one."""
    for assertion in cert.assertions:
        for _, field, part in assertion.layout:
            value = getattr(assertion, field)
            if part == "word":
                yield value
            elif part == "tuple":
                yield from value


def test_read_words_carry_the_grammars_letters(grig, bas, odo):
    # a word read once at load carries word_letters' letters, or raises its error, message
    # and column; parse_word of it gives what parse_word of its text gives, on each group
    draw, printed = _draws(grig)
    certs = [corpus.load_certificate(name) for name in corpus.CERTIFICATES]
    suites = [w for cert in certs for w in _certificate_words(cert)]
    assert all(type(w) is Word for w in suites)
    read = 0
    for text in list(map(str, suites)) + NEAR + [t for forms in printed for t in forms] + draw:
        want = _outcome(word_letters, text, line=7)
        try:
            word = read_word(text, 7)
        except ParseError as exc:
            assert (ParseError, str(exc), exc.line, exc.col) == want, text
            continue
        assert type(word) is Word and word == text and word.letters == tuple(want), text
        for group in (grig, bas, odo):  # unknown names included: the same UnknownGenerator text
            assert _outcome(parse_word, word, group=group) == _outcome(parse_word, text, group=group), text
        read += 1
    assert read > 5_000, read


@pytest.mark.parametrize("suite", corpus.CERTIFICATES)
def test_certificate_words_are_parsed_once(monkeypatch, capsys, suite):
    # a certify request runs the grammar exactly once per .cert word, all at load
    grammar, calls = word_letters, []

    def counted(text, line=None):
        calls.append(text)
        return grammar(text, line)

    monkeypatch.setattr(words, "word_letters", counted)
    cert = corpus.load_certificate(suite)
    texts = Counter(map(str, _certificate_words(cert)))
    calls.clear()
    assert cli.main(["certify", "--group", cert.group_name, "--suite", suite, "--json"]) == 0
    assert Counter(calls) == texts, calls
    calls.clear()
    report = run_suite(cert, corpus.load_group(cert.group_name))
    assert report.passed and calls == []
    # no Word reaches the payload: cli._json writes it whole, as the request printed it
    out = []
    cli._json(report.to_payload(), "", out)
    assert "".join(out) + "\n" == capsys.readouterr().out
