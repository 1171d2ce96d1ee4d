"""Golden test for the ``agt`` command line.

`cli_golden.json` holds, for every call in `CALLS`, the exit code and the
stdout bytes, plus the option set of every subcommand.  Text-mode
``certify`` prints its run time, which is masked on both sides.  Run this
file as a script to rewrite the data from the current code:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import argparse
import contextlib
import io
import json
import random
import re
from pathlib import Path

import pytest

from agroups import cli

DATA = Path(__file__).with_name("cli_golden.json")

HANOI = """\
group hanoi
alphabet 3
gen a = (1, 1, a) (1 2)
gen b = (1, b, 1) (1 3)
gen c = (c, 1, 1) (2 3)
"""

BAD_CERT = "suite bad\ntrivial a\nequal b = c d\n"

# "{tmp}" stands for a directory holding hanoi.agt and bad.cert
G, B, H = ["--group", "grigorchuk"], ["--group", "basilica"], ["--group", "{tmp}/hanoi.agt"]

README = [
    ["eval", *B, "--word", "b b"],
    ["trivial", *G, "--word", "b c d"],
    ["equal", *G, "--word", "b", "--other", "c d"],
    ["order", *G, "--word", "a d", "--bound", "10"],
    ["section", *G, "--word", "(a b a d)^2", "--vertex", "2"],
    ["act", *G, "--word", "a", "--vertex", "1.1"],
    ["portrait", *B, "--word", "b", "--depth", "3", "--dot"],
    ["activity", *G, "--word", "b", "--levels", "12"],
    ["closure", *G, "--word", "b"],
    ["orbits", *B, "--depth", "7"],
    ["stab", *B, "--level", "1"],
    ["project", *B, "--vertex", "2"],
    ["rist", *G, "--vertex", "2", "--maxlen", "2"],
    ["chain", *G, "--vertex", ".", "--depth", "4"],
    ["commutator-witness", *B, "--word", "a", "--slot", "2", "--inner", "1", "--witness", "b"],
    ["ball", *G, "--radius", "4"],
    ["freesemigroup", *B, "--maxlen", "10"],
    ["certify", *G, "--suite", "grigorchuk_nea"],
]

# one text and one --json call per subcommand, and --dot where it exists
MODES = [
    ["eval", *G, "--word", "[a, b]^2 c"],
    ["trivial", *B, "--word", "[a, b^2]"],
    ["equal", *B, "--word", "a b", "--other", "b a"],
    ["order", *B, "--word", "a", "--bound", "16"],
    ["order", *G, "--word", "a b", "--bound", "20"],
    ["section", *B, "--word", "a b a", "--vertex", "2.1"],
    ["act", *B, "--word", "a b^-1", "--vertex", "2.1.2"],
    ["portrait", *G, "--word", "a b", "--depth", "3"],
    ["activity", *B, "--word", "a b", "--levels", "6"],
    ["closure", *B, "--word", "a b^-1"],
    ["orbits", *G, "--depth", "4"],
    ["orbits", *G, "--depth", "3", "--gens", "b; c"],
    ["stab", *G, "--vertex", "2"],
    ["stab", *B, "--level", "2", "--gens", "a; b a"],
    ["project", *G, "--vertex", "1", "--gens", "a; b"],
    ["rist", *B, "--vertex", "2", "--maxlen", "2"],
    ["chain", *B, "--vertex", "2", "--depth", "3", "--gens", "a; b^2"],
    ["chain", *G, "--vertex", "1", "--depth", "3", "--gens", "b; c"],
    ["commutator-witness", *G, "--word", "b", "--slot", "1", "--inner", "1", "--witness", "a"],
    ["ball", *B, "--radius", "3", "--gens", "a; b; a b"],
    ["ball", *G, "--radius", "3", "--cap", "100000"],
    ["freesemigroup", *G, "--maxlen", "4"],
    ["freesemigroup", *B, "--maxlen", "4", "--gens", "a; b"],
    ["certify", *B, "--suite", "basilica_nea"],
    ["certify", *B, "--suite", "basilica_growth"],
]

DOT = [
    ["portrait", *G, "--word", "a b", "--depth", "2", "--dot"],
    ["closure", *G, "--word", "b", "--dot"],
    ["orbits", *G, "--depth", "2", "--dot"],
    ["orbits", *B, "--depth", "3", "--dot", "--level", "1"],
    ["chain", *G, "--vertex", ".", "--depth", "3", "--dot"],
    ["chain", *G, "--vertex", "1", "--depth", "2", "--dot", "--gens", "b; c"],
]

TERNARY = [
    ["eval", *H, "--word", "a b c"],
    ["order", *H, "--word", "a b", "--bound", "64"],
    ["portrait", *H, "--word", "a b", "--depth", "2"],
    ["closure", *H, "--word", "a b", "--json"],
    ["orbits", *H, "--depth", "3"],
    ["stab", *H, "--level", "1"],
    ["ball", *H, "--radius", "3"],
]

FAILURES = [
    ["certify", *G, "--suite", "{tmp}/bad.cert"],
    ["certify", *G, "--suite", "{tmp}/bad.cert", "--json"],
    ["eval", "--group", "nope.agt", "--word", "a"],
    ["eval", *G, "--word", "z"],
]

CALLS = (
    README
    + [argv + ["--json"] for argv in README if "--dot" not in argv]
    + MODES
    + [argv + ["--json"] for argv in MODES]
    + DOT
    + [argv + ["--json"] for argv in DOT]  # --dot wins over --json
    + TERNARY
    + FAILURES
)

_RUNTIME = re.compile(r"passed in \d+\.\d+ s$", re.M)


def run(argv, tmp):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main([a.replace("{tmp}", str(tmp)) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "code": code, "stdout": _RUNTIME.sub("passed in <t> s", out.getvalue())}


def write_inputs(tmp: Path) -> None:
    (tmp / "hanoi.agt").write_text(HANOI, encoding="utf-8")
    (tmp / "bad.cert").write_text(BAD_CERT, encoding="utf-8")


def option_sets() -> dict:
    """Per subcommand: its help text and every option, in declaration order."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    return {
        name: {
            "help": helps[name],
            "options": [
                {
                    "flags": list(a.option_strings),
                    "dest": a.dest,
                    "default": a.default,
                    "required": a.required,
                    "type": getattr(a.type, "__name__", None),
                    "action": type(a).__name__,
                    "help": a.help,
                }
                for a in p._actions
            ],
        }
        for name, p in sub.choices.items()
    }


def record(tmp: Path) -> dict:
    write_inputs(tmp)
    return {"options": option_sets(), "calls": [run(argv, tmp) for argv in CALLS]}


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    write_inputs(path)
    return path


def test_calls_match_recorded_list(golden):
    assert [c["argv"] for c in golden["calls"]] == CALLS


@pytest.mark.parametrize("index", range(len(CALLS)), ids=lambda i: f"{i:03d}-{CALLS[i][0]}")
def test_call_matches_golden(golden, tmp, index):
    assert run(CALLS[index], tmp) == golden["calls"][index]


# pieces of random strings: JSON escapes, control, non-ASCII, astral and lone surrogate characters
_PIECES = ['"', "\\", "/", "'", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "\u2028", "\ufeff", "😀",
           "\U0001d11e", "\ud800", "a b", "1"]


def _random_value(rng: random.Random, depth: int):
    """A random value of the kinds a payload holds: dicts with str keys, lists, str, int, bool, None."""
    kind = rng.randrange(8 if depth else 6)
    if kind == 0:
        return "".join(rng.choice(_PIECES) for _ in range(rng.randrange(5)))
    if kind == 1:
        return rng.choice([True, False, 0, 1])
    if kind == 2:
        return rng.choice([-1, 2**64, -(2**70), 10**40, rng.randrange(-1000, 1000)])
    if kind == 3:
        return rng.choice([None, [], {}, [[]], {"": {}}])
    if kind in (4, 5):
        return rng.choice(["", "x", "é", "\U0001d11e"])
    if kind == 6:
        keys = ["k", "é\\", '"', "", "\U0001d11e", "k2", "k3", 1, None, True]
        return {rng.choice(keys): _random_value(rng, depth - 1) for _ in range(rng.randrange(4))}
    return [_random_value(rng, depth - 1) for _ in range(rng.randrange(4))]


def test_json_writer_matches_json_dumps(golden):
    # the payload of every --json call on record, and seeded random values
    payloads = [json.loads(c["stdout"]) for c in golden["calls"] if c["stdout"].startswith("{")]
    assert len(payloads) > 40
    rng = random.Random(15)
    values = payloads + [_random_value(rng, 4) for _ in range(2000)]
    written = 0
    for value in values:
        out = []
        try:
            cli._json(value, "", out)
        except TypeError:  # a random dict key that is not a str
            continue
        assert "".join(out) == json.dumps(value, indent=2), value
        written += 1
    assert written > 1500


@pytest.mark.parametrize(
    "payload",
    [{1: "a"}, {"a": {None: [True]}}, {"a": (1, 2)}, {"a": [1.5, float("nan")]}, {"b": {False: 0}},
     {"a": [type("Text", (str,), {})("x")]}, {"a": [type("Count", (int,), {})(3)]}],
)
def test_emit_refuses_what_the_writer_does_not_cover(capsys, payload):
    # json.dumps wrote these, though no handler's payload holds them; _emit now refuses
    # them with _json's TypeError (a key that is not a str, from its string encoder),
    # before it prints anything
    with pytest.raises(TypeError):
        cli._emit(argparse.Namespace(json=True), payload, iter(()))
    assert capsys.readouterr().out == ""


def test_emit_refuses_what_json_dumps_refuses():
    with pytest.raises(TypeError, match="^set is not written directly$"):
        cli._emit(argparse.Namespace(json=True), {"a": {1, 2}}, iter(()))


def test_option_sets_unchanged(golden):
    assert option_sets() == golden["options"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        text = json.dumps(record(Path(scratch)), indent=1, ensure_ascii=False) + "\n"
        DATA.write_text(text, encoding="utf-8")
