"""Usage errors and help: `main` against the full command table.

`main` builds only the invoked command's parser.  Each argv here must
give the same stdout, stderr and exit code as the whole table's parser
does, so help text and argparse's messages stay those of `agt` as a
whole.  Both sides run on the same Python, so the comparison holds
whatever argparse version formats them.
"""

import argparse

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
        (["trivial", *G, "--word", "b c d", "--json"], 1),
        (["certify", *G, "--suite", "grigorchuk_nea"], 1),
        (["trivia", *G, "--word", "a"], len(cli.COMMANDS)),
        (["--help"], len(cli.COMMANDS)),
    ],
    ids=["trivial", "certify", "misspelled", "help"],
)
def test_main_builds_only_the_invoked_row(capsys, monkeypatch, argv, rows):
    built = []
    build = cli.build_parser

    def counted(*args):
        parser = build(*args)
        built.append(parser)
        return parser

    monkeypatch.setattr(cli, "build_parser", counted)
    try:
        cli.main(argv)
    except SystemExit:
        pass
    capsys.readouterr()
    (parser,) = built
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(sub.choices) == rows


def test_console_entry_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["agt", "trivial", *G, "--word", "b c d"])
    assert cli.main() == 0
    assert capsys.readouterr().out == "true\n"
