"""Usage errors and help: `main` against the full command table.

`main` reads a clean argv from the invoked command's row and builds the
whole table's parser for every other argv.  Each argv here must
give the same stdout, stderr and exit code as the whole table's parser
does, so help text and argparse's messages stay those of `agt` as a
whole.  Both sides run on the same Python, so the comparison holds
whatever argparse version formats them.
"""

import argparse
import contextlib
import io
import random

import pytest

from agroups import cli

G = ["--group", "grigorchuk"]

ARGVS = [
    [],
    ["--help"],
    ["-h", "trivial"],
    ["nosuchcommand", *G],
    ["trivia", *G, "--word", "a"],
    *([name, "--help"] for name, *_ in cli.COMMANDS),
    ["trivial", *G],
    ["trivial", *G, "--word", "a", "--frobnicate"],
    ["eval", *G, "--word", "a", "stray"],
    ["order", *G, "--word", "a", "--bound", "x"],
    ["orbits", *G, "--depth", "x", "--json"],
    ["certify", "--suite", "grigorchuk_nea"],
]


def _outcome(capsys, call, argv):
    """(exit code, stdout, stderr) of `call(argv)`, which must exit through argparse."""
    with pytest.raises(SystemExit) as excinfo:
        call(argv)
    out, err = capsys.readouterr()
    return excinfo.value.code, out, err


@pytest.mark.parametrize("columns", ["100", "40"])
@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "(empty)")
def test_usage_matches_full_table(capsys, monkeypatch, argv, columns):
    # argparse wraps usage and help at the terminal width it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", columns)
    full = _outcome(capsys, lambda a: cli.build_parser().parse_args(a), argv)
    assert _outcome(capsys, cli.main, argv) == full
    assert full[0] in (0, 2) and (full[1] or full[2])


@pytest.mark.parametrize(
    "argv, rows",
    [
        (["trivial", *G, "--word", "b c d", "--json"], 0),
        (["certify", *G, "--suite", "grigorchuk_nea"], 0),
        (["trivial", "--group=grigorchuk", "--word", "b c d"], len(cli.COMMANDS)),
        (["trivial", *G, "--wor", "b c d"], len(cli.COMMANDS)),
        (["trivia", *G, "--word", "a"], len(cli.COMMANDS)),
        (["--help"], len(cli.COMMANDS)),
    ],
    ids=["trivial", "certify", "equals-form", "abbreviation", "misspelled", "help"],
)
def test_main_builds_the_table_only_when_the_reader_declines(capsys, monkeypatch, argv, rows):
    # a clean argv is read from its row with no parser; argparse reads every other form
    built = []
    build = cli.build_parser

    def counted():
        parser = build()
        built.append(parser)
        return parser

    monkeypatch.setattr(cli, "build_parser", counted)
    try:
        cli.main(argv)
    except SystemExit:
        pass
    capsys.readouterr()
    if rows == 0:
        assert built == []
        return
    (parser,) = built
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(sub.choices) == rows


# -- the clean-argv reader against argparse ----------------------------------------

# cli._integer reads each of these: ASCII digits, as a .cert number
INT_VALUES = ["0", "3", "12"]
STR_VALUES = ["a", "b c d", "", "x=y", "\u0663", "a;;b", "grigorchuk_nea"]
# values that start with '-' or that cli._integer refuses, int() reading the last three
BAD_VALUES = ["-3", "-a", "-a b", "--", "-", "-h", "--json", "", "x", "3.5", "1__0",
              "\u0663", "1_0", " 4"]
INSERTED = ["-h", "--help", "--", "stray", "-3"]


def _flags(row):
    return (cli.GROUP, cli.JSON) + row[3]


def test_reader_models_every_option_keyword():
    # a row with a keyword the reader does not know (choices, nargs, ...) must fail here
    for row in cli.COMMANDS:
        for flag, keywords in _flags(row):
            assert flag.startswith("--"), (row[0], flag)
            assert set(keywords) <= {"required", "type", "default", "action", "help"}, (row[0], flag)
            assert keywords.get("action", "store_true") == "store_true", (row[0], flag)
            assert keywords.get("type", cli._integer) is cli._integer, (row[0], flag)


def _clean(rng, row):
    """Every required flag and some optional ones, each with a good value, in shuffled order."""
    pairs = []
    for flag, keywords in _flags(row):
        if keywords.get("required") or rng.random() < 0.5:
            if keywords.get("action") == "store_true":
                pairs.append([flag])
            else:
                pairs.append([flag, rng.choice(INT_VALUES if "type" in keywords else STR_VALUES)])
    rng.shuffle(pairs)
    return pairs


def _valued(rng, pairs):
    return rng.choice([p for p in pairs if len(p) == 2])  # --group always has a value


def _equals_form(rng, pairs):
    p = _valued(rng, pairs)
    p[:] = ["=".join(p)]


def _abbreviate(rng, pairs):
    p = rng.choice(pairs)
    p[0] = p[0][: rng.randint(3, len(p[0]) - 1)]


def _repeat(rng, pairs):
    pairs.insert(rng.randint(0, len(pairs)), list(rng.choice(pairs)))


def _drop(rng, pairs):
    pairs.pop(rng.randrange(len(pairs)))


def _bad_value(rng, pairs):
    _valued(rng, pairs)[1] = rng.choice(BAD_VALUES)


def _insert(rng, pairs):
    pairs.insert(rng.randint(0, len(pairs)), [rng.choice(INSERTED)])


# in the order applied: the first two need a flag that still has its value
MUTATIONS = [_bad_value, _equals_form, _abbreviate, _repeat, _insert, _drop]


def _argparse(parser, argv):
    """argparse's Namespace for `argv`, or None where it exits (help or a usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return parser.parse_args(argv)
        except SystemExit:
            return None


def test_reader_agrees_with_argparse():
    rng = random.Random(7919)
    parser = cli.build_parser()
    for row in cli.COMMANDS:
        for i in range(60):
            pairs = _clean(rng, row)
            mutations = sorted(rng.sample(range(len(MUTATIONS)), i % 3))  # a third stay clean
            for m in mutations:
                MUTATIONS[m](rng, pairs)
            argv = [row[0], *(token for p in pairs for token in p)]
            read = cli._read_clean(row, argv[1:])
            if not mutations:
                assert read is not None, argv
            if read is not None:
                parsed = _argparse(parser, argv)
                assert parsed is not None and vars(read) == vars(parsed), argv


def test_console_entry_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["agt", "trivial", *G, "--word", "b c d"])
    assert cli.main() == 0
    assert capsys.readouterr().out == "true\n"
