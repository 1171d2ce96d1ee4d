import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from agroups import corpus
from agroups.certify import Assertion, Certificate, run_suite
from agroups.cli import main
from agroups.core import CELL_CAP, MAX_DIGITS, BadVertex, BoundExceeded, EmptyGroup, EngineError
from agroups.formats import (
    _FORMS,
    _READ,
    MAX_FILE_BYTES,
    format_group_file,
    parse_certificate,
    parse_group_file,
)
from agroups.words import ParseError, word_letters
import agt_requests
from oracles import parse_certificate_reference, parse_group_file_reference


GRIG_TEXT = """\
# comment line
group grigorchuk
alphabet 2
gen a = (1, 1) (1 2)
gen b = (a, c)
gen c = (a, d)   # trailing comment
gen d = (1, b)
"""


def test_parse_group_file(grig):
    g = parse_group_file(GRIG_TEXT)
    assert g == grig
    assert g.state_names == ("a", "b", "c", "d")


def test_parse_group_file_errors():
    with pytest.raises(EmptyGroup):
        parse_group_file("group g\nalphabet 2\n")
    with pytest.raises(ParseError):
        parse_group_file("alphabet 2\ngen a = (1, 1)\n")  # gen before group
    with pytest.raises(ParseError):
        parse_group_file("group g\nalphabet x\n")
    with pytest.raises(ParseError):
        parse_group_file("group g\nalphabet 2\ngen a = 1, 1\n")
    with pytest.raises(ParseError):
        parse_group_file("group g\nalphabet 2\nbogus line\n")
    try:
        parse_group_file("group g\nalphabet 2\ngen a = (1, 1) (1 x)\n")
    except ParseError as exc:
        assert exc.line == 3
    else:
        raise AssertionError("expected ParseError")


def test_group_file_roundtrip(grig, bas, odo):
    for group in (grig, bas, odo):
        assert parse_group_file(format_group_file(group)) == group


HANOI_TEXT = """\
group hanoi
alphabet 3
gen a = (1, 1, a) (1 2)
gen b = (1, b, 1) (1 3)
gen c = (c, 1, 1) (2 3)
gen t = (b, c, a) (1 2 3)
"""

# characters and pieces that a mutation inserts or puts in place of a piece of a line
_AGT_PIECES = [" ", "  ", "\t", ",", ", ", "(", ")", "()", "=", "#", "1", "0", "a", "x", "id", "²", "٣",
               "\u00a0", "(1 2)", "(1,2)", "(2 3)(1 2)", "(1 1)", "(9)", "1" * 10, "7" * 641]

_AGT_SLOTS = ["(1, 1)", "(1, 1, 1)", "(a)", "(a, a, a, a)", "(zz, 1)", "(1a, 1)", "(a.b, 1)", "(@, 1)",
              "(1 ,1)", "(a,  1)", "(, 1)", "((a), 1)", "[a, 1]", "(a, 1"]
_AGT_CYCLES = ["(1 2)", "(1 1)", "(1 3)", "(0 1)", "(1 2)(1 2)", "(1 2)(2 3)", "(1 2) (1 3)", "(1 2 3)",
               "(2 1)(3)", "(123456789 1)", "(1234567890 1)", "(" + "1" * 641 + " 1)", "()", "(1,2)",
               "id", "(1 2)id", "(1 2", "1 2", "(1 ²)"]


def _agt_mutants(text: str, rng: random.Random):
    """Variants of an .agt text: one line changed, moved, doubled or dropped."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        others = lines[:i] + lines[i + 1 :]
        yield "\n".join(others)  # dropped
        yield "\n".join(lines[: i + 1] + [line] + lines[i + 1 :])  # doubled
        yield "\n".join([line] + others)  # moved first
        for _ in range(12):  # one piece cut, inserted or replaced
            a = rng.randrange(len(line) + 1)
            b = min(len(line), a + rng.choice([0, 0, 1, 1, 2, 4]))
            variant = line[:a] + rng.choice(_AGT_PIECES + [""]) + line[b:]
            yield "\n".join(lines[:i] + [variant] + lines[i + 1 :])
        for old, new in ((" = ", "="), (", ", ","), (") (", ")("), (") (", ") id "), (" ", "  ")):
            yield "\n".join(lines[:i] + [line.replace(old, new)] + lines[i + 1 :])
        yield "\n".join(lines[:i] + [line + "  # note", " " + line] + lines[i + 1 :])
        if line.startswith("gen "):  # each slot tuple and cycle text, on this state
            head = line[: line.index("(")]
            slots = line[len(head) : line.index(")") + 1]
            for other in _AGT_SLOTS:
                yield "\n".join(lines[:i] + [head + other] + lines[i + 1 :])
            for cycles in _AGT_CYCLES:
                yield "\n".join(lines[:i] + [f"{head}{slots} {cycles}"] + lines[i + 1 :])


def _group_outcome(parse, text):
    try:
        return parse(text)
    except EngineError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def test_parse_group_file_matches_reference_on_mutated_texts():
    # a clean gen line, read by one regex, reads as the general path reads it; every
    # other line gives the same group, or the same error type, message and line
    rng = random.Random(15)
    texts = [corpus.corpus_text(f"{name}.agt") for name in corpus.GROUPS]
    texts += [HANOI_TEXT, (Path(__file__).parent / "aleshin.agt").read_text(encoding="utf-8")]
    outcomes = Counter()
    for text in texts:
        for variant in _agt_mutants(text, rng):
            old = _group_outcome(parse_group_file_reference, variant)
            new = _group_outcome(parse_group_file, variant)
            assert old == new, (variant, old, new)
            if isinstance(new, tuple):
                outcomes[new[0].__name__] += 1
            else:
                outcomes["group"] += 1
                assert new.state_names == old.state_names
    assert outcomes["group"] > 200 and outcomes["ParseError"] > 200, outcomes
    assert min(outcomes[e] for e in ("BadPerm", "UnknownState", "DuplicateState")) > 20, outcomes


def test_parse_certificate_roundtrips_bundled():
    for name in corpus.CERTIFICATES:
        text = corpus.corpus_text(f"{name}.cert")
        cert = parse_certificate(text)
        assert cert.name == name and cert.assertions
        assert cert == parse_certificate_reference(text)
        lines = [f"suite {cert.name}", f"group {cert.group_name}"]
        assert parse_certificate("\n".join(lines + [a.describe() for a in cert.assertions])) == cert


# the separators of the assertion forms, and the tuple brackets
_SEPARATOR_RE = re.compile(r"->|[=:,()]|\bmaxlen\b|\bexpect\b")


def _mutants(rest: str, rng: random.Random):
    """Variants of the text after one assertion keyword."""
    seps = list(_SEPARATOR_RE.finditer(rest))
    for m in seps:  # drop, double or join up each separator
        yield rest[: m.start()] + rest[m.end() :]
        yield rest[: m.end()] + " " + m.group() + rest[m.end() :]
        yield rest[: m.start()].rstrip() + m.group() + rest[m.end() :].lstrip()
    fields = [f for f in _SEPARATOR_RE.split(rest) if f.strip()]
    for field in fields:  # empty each field
        yield rest.replace(field, " ", 1)
    numbers = list(re.finditer(r"[0-9]+", rest))
    for m in numbers:
        for digits in ("0", "²", "٣", "1" + "0" * 640, "7" * 640, "7" * 641, m.group() + "²"):
            yield rest[: m.start()] + digits + rest[m.end() :]
    if numbers:
        m = rng.choice(numbers)
        yield rest[: m.start()] + m.group() + "." + "7" * 641 + rest[m.end() :]
    if "(" in rest:  # brackets inside the first tuple or word
        inner = rest.index("(") + 1
        for wrap in ("({})", "[{0}, {0}]", "(({}))", "({}", "{})"):
            entry = re.match(r"[^,()]*", rest[inner:]).group()
            yield rest[:inner] + wrap.format(entry) + rest[inner + len(entry) :]
    for junk in (" x", " )", " (", " 5", " ->", " =", " :", " ,", " expect 3", "²"):
        yield rest + junk
    for _ in range(3):  # one separator swapped for another
        if seps:
            m = rng.choice(seps)
            other = rng.choice(["->", "=", ":", ",", "maxlen", "expect"])
            yield rest[: m.start()] + other + rest[m.end() :]


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


def test_parse_certificate_matches_reference_on_mutated_lines():
    # each bundled assertion line, mutated, reads as the keyword-by-keyword reader read it,
    # but for the changes asserted on their own: long vertex letters, and the tuple and
    # the messages of distinct_positive_words
    rng = random.Random(12)
    changed = Counter()
    lines = {
        line
        for name in corpus.CERTIFICATES
        for line in corpus.corpus_text(f"{name}.cert").splitlines()
        if line.strip() and line.split()[0] not in ("#", "suite", "group")
    }
    kinds = Counter()
    for line in sorted(lines):
        keyword, rest = line.split(None, 1)
        for variant in _mutants(rest, rng):
            text = f"suite s\n{keyword} {variant}\n"
            old, new = _outcome(parse_certificate_reference, text), _outcome(parse_certificate, text)
            kinds[keyword] += 1
            if old == new:
                continue
            if keyword == "distinct_positive_words":
                changed["distinct " + _tuple_change(old, new)] += 1
            else:
                assert isinstance(old, Certificate) and "malformed vertex" in new, (text, old, new)
                vertex = old.assertions[0].vertex
                assert max(map(len, vertex.split("."))) > MAX_DIGITS, text
                changed["vertex"] += 1
    assert set(kinds) == set(_FORMS) and min(kinds.values()) >= 15, kinds
    assert set(changed) == {"vertex", "distinct empty entry", "distinct brackets", "distinct message"}
    assert sum(changed.values()) < sum(kinds.values()) / 10, changed


def _tuple_change(old, new) -> str:
    """Which change of distinct_positive_words turns the earlier outcome `old` into `new`."""
    if isinstance(old, Certificate):  # an empty entry was dropped; now it is an empty word
        assert new.startswith("line 2: empty word"), (old, new)
        return "empty entry"
    if isinstance(new, Certificate):  # a bracket in the tuple was refused, or split at its comma
        assert old.startswith("line 2"), (old, new)
        assert any(set("()[]") & set(w) for w in new.assertions[0].gen_words), new
        return "brackets"
    # an error either way: the earlier reader's one message for the whole line, or its
    # empty list for `()`, which has an empty word now
    assert new.startswith("line 2: "), (old, new)
    assert old in (
        "line 2: expected '(gens) maxlen N expect M' after keyword",
        "line 2: empty generator list",
    ), (old, new)
    return "message"


def test_parse_certificate_errors():
    with pytest.raises(ParseError):
        parse_certificate("trivial a\n")  # missing suite line
    with pytest.raises(ParseError):
        parse_certificate("suite s\nfrobnicate a\n")
    with pytest.raises(ParseError):
        parse_certificate("suite s\nequal a\n")  # missing '='
    with pytest.raises(ParseError):
        parse_certificate("suite s\ncoords a = a, b\n")
    with pytest.raises(ParseError):
        parse_certificate("suite s\nprojection_witness 1 : a\n")  # missing '->'
    with pytest.raises(ParseError):
        parse_certificate("suite s\ntrivial a )\n")  # word syntax checked early


def test_certificate_header_lines_come_once():
    # the earlier reader kept the last 'suite' or 'group' line; .agt files refuse duplicates
    for text, message in (
        ("suite s\nsuite t\n", "line 2: duplicate 'suite' line"),
        ("suite s\ngroup g\ntrivial a\ngroup g\n", "line 4: duplicate 'group' line"),
    ):
        assert parse_certificate_reference(text).name in ("s", "t")
        with pytest.raises(ParseError) as exc:
            parse_certificate(text)
        assert str(exc.value) == message


def test_distinct_positive_words_reads_tuples_as_coords_does(bas, capsys):
    # an empty entry is an empty word, as in a coords slot tuple; the earlier reader dropped it
    for line in ("coords a = (a, , b)", "distinct_positive_words (a, , b) maxlen 2 expect 6"):
        with pytest.raises(ParseError) as exc:
            parse_certificate(f"suite s\n{line}\n")
        assert str(exc.value) == "line 2: empty word (use '1' for the identity)"
    assert parse_certificate_reference(
        "suite s\ndistinct_positive_words (a, , b) maxlen 2 expect 6\n"
    ).assertions[0].gen_words == ("a", "b")
    # a bracketed generator reads as `agt freesemigroup --gens` reads it; the earlier reader refused it
    code, out, _ = run_cli(
        capsys, "freesemigroup", "--group", "basilica", "--gens", "(a b);[a, b^2]", "--maxlen", "3", "--json"
    )
    assert code == 0
    line = f"distinct_positive_words ((a b), [a, b^2]) maxlen 3 expect {json.loads(out)['distinct']}"
    cert = parse_certificate(f"suite s\n{line}\n")
    assert cert.assertions[0].gen_words == ("(a b)", "[a, b^2]")
    assert run_suite(cert, bas).passed
    with pytest.raises(ParseError):
        parse_certificate_reference(f"suite s\n{line}\n")


@pytest.mark.parametrize("gens", ["a;;b", "a;b;", " ; a", ""])
@pytest.mark.parametrize("command", [["freesemigroup", "--maxlen", "2"], ["orbits", "--depth", "2"]])
def test_empty_gens_entry_is_an_empty_word(capsys, command, gens):
    # every ';'-separated entry is a word, as every entry of a .cert tuple is; none is dropped
    code, out, err = run_cli(capsys, *command, "--group", "basilica", "--gens", gens, "--json")
    assert (code, out) == (2, "")
    assert err == "agt: error: empty word (use '1' for the identity)\n"


def test_certificate_vertex_letters_are_numbers_read_at_load(grig):
    # a letter over MAX_DIGITS digits passed the earlier reader and failed only at run time
    text = f"suite s\n\nsupported_only_at 1.{'7' * (MAX_DIGITS + 1)} : a\n"
    vertex = parse_certificate_reference(text).assertions[0].vertex
    with pytest.raises(BadVertex):
        grig.vertex(vertex)
    with pytest.raises(ParseError) as exc:
        parse_certificate(text)
    assert str(exc.value).startswith("line 3: malformed vertex '1.777")
    assert parse_certificate(text.replace("7" * (MAX_DIGITS + 1), "7" * MAX_DIGITS)).assertions


def test_readme_lists_each_assertion_form():
    # the .cert block of README.md is one `kind form` line per keyword that parse_certificate reads
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Certificates (`.cert`)", 1)[1].split("```")[1]
    lines = block.strip().splitlines()
    assert lines == [f"{cls.kind} {cls.form}" for cls, _ in _FORMS.values()]
    assert {cls.kind for cls in Assertion.__subclasses__()} == set(_FORMS)
    assert all(part in _READ for cls, _ in _FORMS.values() for _, _, part in cls.layout)


# -- command line -----------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_eval(capsys):
    code, out, _ = run_cli(capsys, "eval", "--group", "basilica", "--word", "b b")
    assert code == 0
    assert "slots: (a, a)" in out and "perm: id" in out


def test_cli_trivial_and_equal(capsys):
    code, out, _ = run_cli(
        capsys, "trivial", "--group", "grigorchuk.agt", "--word", "b c d"
    )
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(
        capsys, "equal", "--group", "grigorchuk", "--word", "b", "--other", "c d"
    )
    assert code == 0 and out.strip() == "true"


def test_cli_certify_bundled(capsys):
    code, out, _ = run_cli(
        capsys, "certify", "--group", "grigorchuk.agt", "--suite", "grigorchuk_nea.cert"
    )
    assert code == 0
    assert "passed" in out and "FAIL" not in out


@pytest.mark.parametrize("option", ["--group", "--suite"])
@pytest.mark.parametrize("form", ["directory", "suffix"])
def test_cli_missing_path_is_not_bundled(tmp_path, monkeypatch, capsys, option, form):
    # each loaded the bundled file of the same stem and exited 0
    monkeypatch.chdir(tmp_path)
    name = {"--group": "grigorchuk", "--suite": "grigorchuk_nea"}[option]
    kind = {"--group": ".agt", "--suite": ".cert"}[option]
    source = str(tmp_path / "missing" / (name + kind)) if form == "directory" else name + ".txt"
    given = {"--group": "grigorchuk", "--suite": "grigorchuk_nea", option: source}
    code, out, err = run_cli(capsys, "certify", *[x for kv in given.items() for x in kv])
    assert (code, out) == (2, "")
    assert err.startswith("agt: error: ") and "not found" in err, err


def test_cli_certify_failing_suite(tmp_path, capsys):
    cert = tmp_path / "bad.cert"
    cert.write_text("suite bad\ntrivial a\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "certify", "--group", "grigorchuk", "--suite", str(cert)
    )
    assert code == 1
    assert "FAIL" in out


def test_cli_json_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "eval", "--group", "basilica", "--word", "[a, b^2]", "--json"
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert payload["slots"] == ["1", "b^-1 a^-1 b a"]
    # certificate reports too, byte for byte
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "certify", "--group", "basilica", "--suite", "basilica_nea", "--json"
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_cli_engine_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "eval", "--group", "nope.agt", "--word", "a")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "eval", "--group", "grigorchuk", "--word", "z")
    assert code == 2


def test_cli_usage_error_is_distinct(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["eval", "--group", "grigorchuk"])  # missing --word
    assert excinfo.value.code == 2


def test_cli_dot_outputs(capsys):
    code, out, _ = run_cli(
        capsys, "portrait", "--group", "basilica", "--word", "b", "--depth", "2", "--dot"
    )
    assert code == 0 and out.startswith("digraph")
    code, out, _ = run_cli(
        capsys, "closure", "--group", "grigorchuk", "--word", "b", "--dot"
    )
    assert code == 0 and out.startswith("digraph")
    code, out, _ = run_cli(
        capsys,
        "orbits", "--group", "grigorchuk", "--depth", "2", "--dot", "--level", "2",
    )
    assert code == 0 and out.startswith("digraph")
    code, out, _ = run_cli(
        capsys,
        "chain", "--group", "grigorchuk", "--vertex", ".", "--depth", "3", "--dot",
    )
    assert code == 0 and out.startswith("digraph")


def test_cli_subcommands_smoke(capsys):
    checks = [
        (["order", "--group", "grigorchuk", "--word", "a d", "--bound", "10"], "4"),
        (["section", "--group", "grigorchuk", "--word", "(a b a d)^2", "--vertex", "2"], None),
        (["act", "--group", "grigorchuk", "--word", "a", "--vertex", "1.1"], "2.1"),
        (["activity", "--group", "grigorchuk", "--word", "b", "--levels", "5"], "1 2 2 1 2 2"),
        (["closure", "--group", "basilica", "--word", "a"], "3 distinct sections"),
        (["orbits", "--group", "basilica", "--depth", "3"], "level 3: 1 orbit(s)"),
        (["stab", "--group", "basilica", "--level", "1"], "3 generator(s)"),
        (["project", "--group", "basilica", "--vertex", "2"], None),
        (["rist", "--group", "basilica", "--vertex", "2", "--maxlen", "1"], "witness(es)"),
        (["chain", "--group", "grigorchuk", "--vertex", ".", "--depth", "3"], "stabilized at level 0"),
        (
            [
                "commutator-witness", "--group", "basilica", "--word", "a",
                "--slot", "2", "--inner", "1", "--witness", "b",
            ],
            "equals witness: True",
        ),
        (["ball", "--group", "grigorchuk", "--radius", "2"], "1 5 11"),
        (["freesemigroup", "--group", "basilica", "--maxlen", "3"], "14 distinct"),
    ]
    for argv, needle in checks:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        if needle is not None:
            assert needle in out, (argv, out)


def test_non_ascii_digits_are_engine_errors(tmp_path, capsys, grig):
    # str.isdigit accepts superscripts, which int() then refuses
    with pytest.raises(EngineError):
        grig.vertex("²")
    with pytest.raises(ParseError):
        parse_group_file("group g\nalphabet ²\ngen a = (1, 1)\n")
    with pytest.raises(ParseError):
        parse_group_file("group g\nalphabet 2\ngen a = (1, 1) (1 ²)\n")
    with pytest.raises(ParseError):
        parse_certificate("suite s\nin_level_stab ² : a\n")
    with pytest.raises(ParseError):
        parse_certificate("suite s\ntransitive ²\n")
    with pytest.raises(ParseError):
        parse_certificate("suite s\ndistinct_positive_words (a, b) maxlen ٣ expect ٤\n")
    with pytest.raises(ParseError):
        parse_certificate("suite s\nsupported_only_at ٢ : a\n")
    with pytest.raises(ParseError):
        word_letters("(a b)^٣")
    code, _, err = run_cli(capsys, "act", "--group", "grigorchuk", "--word", "a", "--vertex", "²")
    assert code == 2 and "error" in err
    code, out, err = run_cli(capsys, "eval", "--group", "grigorchuk", "--word", "(a b)^٣")
    assert code == 2 and out == "" and "error" in err
    agt = tmp_path / "sup.agt"
    agt.write_text("group g\nalphabet ²\ngen a = (1, 1)\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "eval", "--group", str(agt), "--word", "a")
    assert code == 2 and "error" in err


G, B = ["--group", "grigorchuk"], ["--group", "basilica"]


@pytest.mark.parametrize(
    "argv",
    [
        ["ball", *G, "--radius", "-1"],
        ["order", *G, "--word", "a", "--bound", "0"],
        ["orbits", *G, "--depth", "0"],
        ["chain", *G, "--vertex", ".", "--depth", "0"],
        ["stab", *G, "--level", "-1"],
        ["rist", *G, "--vertex", "2", "--maxlen", "0"],
        ["freesemigroup", *G, "--maxlen", "0"],
        ["activity", *G, "--word", "b", "--levels", "-1"],
        ["portrait", *G, "--word", "b", "--depth", "-1"],
        ["commutator-witness", *B, "--word", "a", "--slot", "9", "--inner", "1", "--witness", "b"],
        ["orbits", *G, "--depth", "3", "--dot", "--level", "7"],
        ["orbits", *G, "--depth", "2", "--dot", "--level", "-1"],
        ["portrait", *G, "--word", "b", "--depth", "1200"],
        ["portrait", *G, "--word", "b", "--depth", "20"],
        ["eval", *G, "--word", "(" * 2000 + "a" + ")" * 2000],
        ["order", *B, "--word", "a", "--bound", "100000000"],
        ["activity", *B, "--word", "a", "--levels", "10000000"],
        ["ball", *B, "--radius", "3", "--cap", "100000000"],
        ["ball", *G, "--radius", "3", "--cap", "-5"],
    ],
    ids=lambda argv: " ".join([argv[0]] + argv[3:])[:40],
)
def test_out_of_range_numbers_exit_2(capsys, argv):
    # each raised ValueError, IndexError or RecursionError, printed a wrong answer or ran
    # past a 10 s timeout; a ball --cap above decide.BALL_CAP let radius 16 run out of memory
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("agt: error: ")


@pytest.mark.parametrize("targets", [[], ["--level", "1", "--vertex", "1"]], ids=["neither", "both"])
def test_stab_takes_exactly_one_target(capsys, targets):
    code, out, err = run_cli(capsys, "stab", *G, *targets)
    assert (code, out, err) == (2, "", "agt: error: give exactly one of --level or --vertex\n")


BIG = "9" * 5000  # over the 4,300 digits Python's int() reads by default


@pytest.mark.parametrize(
    "argv, text",
    [
        (["eval", *G, "--word", "a^" + BIG], None),
        (["act", *G, "--word", "a", "--vertex", "1" * 5000], None),
        (["eval", "--word", "a", "--group"], f"group g\nalphabet {BIG}\ngen a = (1, 1)\n"),
        (["eval", "--word", "a", "--group"], f"group g\nalphabet 2\ngen a = (1, 1) (1 {BIG})\n"),
        (["certify", *G, "--suite"], f"suite s\nin_level_stab {BIG} : a\n"),
        (["certify", *G, "--suite"], f"suite s\ntransitive {BIG}\n"),
        (["certify", *G, "--suite"], f"suite s\ndistinct_positive_words (a) maxlen {BIG} expect 1\n"),
    ],
    ids=["power", "vertex", "alphabet", "cycle", "in_level_stab", "transitive", "distinct"],
)
def test_oversized_numbers_exit_2(tmp_path, capsys, argv, text):
    # each raised int()'s ValueError, with a traceback and exit 1
    if text is not None:
        path = tmp_path / ("g.agt" if text.startswith("group") else "s.cert")
        path.write_text(text, encoding="utf-8")
        argv = argv + [str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("agt: error: ")


LONG = "x" * 5000
CYCLE = "(" + " ".join(map(str, range(1, 3001))) + " 1)"  # repeats its first letter


@pytest.mark.parametrize(
    "argv, text",
    [
        (["act", *G, "--word", "a", "--vertex", "1" * 5000], None),
        (["act", *G, "--word", "a", "--vertex", ".".join("3" * 2500)], None),
        (["eval", *G, "--word", LONG], None),
        (["eval", *G, "--word", "a " + "7" * 640], None),
        (["eval", "--word", "a", "--group", LONG], None),
        (["certify", *G, "--suite", LONG], None),
        (["eval", "--word", "a", "--group"], f"group g\nalphabet {LONG}\ngen a = (1, 1)\n"),
        (["eval", "--word", "a", "--group"], f"group g\nalphabet {'9' * 640}\ngen a = (1, 1)\n"),
        (["eval", "--word", "a", "--group"], f"group g\nalphabet 2\ngen a = (1, 1) ({LONG})\n"),
        (["eval", "--word", "a", "--group"], f"group g\nalphabet 2\ngen a = (1, {LONG}-)\n"),
        (["certify", *G, "--suite"], f"suite s\nin_level_stab {LONG} : a\n"),
        (["certify", *G, "--suite"], f"suite s\nsupported_only_at {LONG} : a\n"),
        (["certify", *G, "--suite"], f"suite {LONG}\ngroup {LONG}\n"),
        (["eval", "--word", "a", "--group"], f"group g\nalphabet 3000\ngen a = (1, 1) {CYCLE}\n"),
    ],
    ids=[
        "vertex", "vertex letters", "word name", "word number", "group path", "suite path",
        "alphabet", "alphabet size", "cycle", "slot", "level", "cert vertex", "cert group",
        "repeated letter",
    ],
)
def test_errors_clip_echoed_input(tmp_path, capsys, argv, text):
    # each echoed its input of 5,000 characters or more whole in the error line
    if text is not None:
        path = tmp_path / ("g.agt" if text.startswith("group") else "s.cert")
        path.write_text(text, encoding="utf-8")
        argv = argv + [str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("agt: error: ") and err.count("\n") == 1 and len(err) < 200, err
    assert "…" in err


NINES = "9" * 600
WIDE = (  # section b of a at letter 1 has a root permutation of 99 letters that fixes 1
    "group wide\nalphabet 100\ngen a = (b" + ", 1" * 99 + ")\n"
    "gen b = (" + ", ".join("1" * 100) + ") (" + " ".join(map(str, range(2, 101))) + ")\n"
)


@pytest.mark.parametrize(
    "argv, text",
    [
        (["commutator-witness", *G, "--word", "a" + " b" * 499, "--slot", "1", "--inner", "2",
          "--witness", "a"], None),
        (["commutator-witness", "--word", "a", "--slot", "1", "--inner", "1", "--witness", "a",
          "--group"], WIDE),
        (["commutator-witness", *G, "--word", "b", "--slot", "1", "--inner", NINES,
          "--witness", "a"], None),
        (["chain", *G, "--gens", " ".join("a" * 301), "--vertex", "1", "--depth", "2"], None),
        (["chain", *G, "--gens", "a", "--vertex", ".".join("1" * 200), "--depth", "2"], None),
        (["chain", *G, "--gens", "b", "--vertex", "1", "--depth", NINES], None),
        (["orbits", *G, "--depth", "-" + NINES], None),
        (["orbits", *G, "--depth", "3", "--dot", "--level", NINES], None),
        (["stab", *G, "--level", NINES], None),
        (["stab", *G, "--level", "-" + NINES], None),
        (["rist", *G, "--vertex", "2", "--maxlen", "-" + NINES], None),
        (["order", *G, "--word", "a", "--bound", NINES], None),
        (["order", *G, "--word", "a", "--bound", "-" + NINES], None),
        (["portrait", *G, "--word", "b", "--depth", NINES], None),
        (["portrait", *G, "--word", "b", "--depth", "-" + NINES], None),
        (["activity", *G, "--word", "b", "--levels", NINES], None),
        (["activity", *G, "--word", "b", "--levels", "-" + NINES], None),
        (["ball", *G, "--radius", "-" + NINES], None),
        (["ball", *G, "--radius", "2", "--cap", NINES], None),
        (["freesemigroup", *G, "--maxlen", "-" + NINES], None),
        (["certify", *G, "--suite"], f"suite s\ntransitive {NINES}\n"),
        (["certify", *G, "--suite"], f"suite s\nin_level_stab {NINES} : a\n"),
    ],
    ids=[
        "witness word", "witness permutation", "witness slot", "chain gens", "chain vertex",
        "chain depth", "orbits depth", "dot level", "stab level", "stab negative level",
        "rist maxlen", "order bound", "order negative bound", "portrait depth",
        "portrait negative depth", "activity levels", "activity negative levels",
        "ball radius", "ball cap", "freesemigroup maxlen", "cert transitive",
        "cert in_level_stab",
    ],
)
def test_errors_clip_echoed_values(tmp_path, capsys, argv, text):
    # each echoed a word, vertex, permutation or number whole: lines of 201 to 3,046 characters
    if text is not None:
        path = tmp_path / ("g.agt" if text.startswith("group") else "s.cert")
        path.write_text(text, encoding="utf-8")
        argv = argv + [str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("agt: error: ") and err.count("\n") == 1 and len(err) <= 200, err


@pytest.mark.parametrize("option", ["--group", "--suite"])
@pytest.mark.parametrize("kind", ["directory", "binary"])
def test_unreadable_files_exit_2(tmp_path, capsys, option, kind):
    # each raised IsADirectoryError or UnicodeDecodeError, with a traceback and exit 1
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    else:
        data = random.Random(8).randbytes(512)
        with pytest.raises(UnicodeDecodeError):
            data.decode("utf-8")
        path.write_bytes(data)
    given = {"--group": "grigorchuk", "--suite": "grigorchuk_nea", option: str(path)}
    code, out, err = run_cli(capsys, "certify", *[x for kv in given.items() for x in kv])
    assert (code, out) == (2, "")
    assert err.startswith("agt: error: cannot read '") and err.count("\n") == 1, err


def test_end_of_word_errors_name_a_column(tmp_path, capsys):
    # the column one past the word's last character; these named the line alone
    for text, message in (("(a b", "col 5: unexpected end of word"), ("a^", "col 3: dangling '^'"),
                          ("[a, b ", "col 7: unexpected end of word")):
        with pytest.raises(ParseError) as excinfo:
            word_letters(text)
        assert (str(excinfo.value), excinfo.value.col) == (message, len(text) + 1)
    assert run_cli(capsys, "trivial", *G, "--word", "(a b") == (
        2, "", "agt: error: col 5: unexpected end of word\n")
    (tmp_path / "end.cert").write_text("suite s\ngroup grigorchuk\ntrivial (a b\n", encoding="utf-8")
    assert run_cli(capsys, "certify", *G, "--suite", str(tmp_path / "end.cert")) == (
        2, "", "agt: error: line 3, col 5: unexpected end of word\n")


def test_unreadable_path_is_named_as_pathlib_spells_it(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "input").mkdir()
    code, out, err = run_cli(capsys, "eval", "--group", ".//input/", "--word", "a")
    assert (code, out, err) == (2, "", "agt: error: cannot read 'input': Is a directory\n")


def test_each_call_reads_its_files_again(tmp_path, capsys):
    # nothing is kept across calls in one process: a rewritten file gives a new answer
    agt, cert = tmp_path / "g.agt", tmp_path / "s.cert"
    argv = ["certify", "--group", str(agt), "--suite", str(cert), "--json"]
    agt.write_text("group g\nalphabet 2\ngen a = (1, a) (1 2)\n", encoding="utf-8")
    cert.write_text("suite s\ncoords a = (1, a) (1 2)\n", encoding="utf-8")
    assert run_cli(capsys, *argv)[0] == 0
    agt.write_text("group g\nalphabet 2\ngen a = (a, 1)\n", encoding="utf-8")
    assert run_cli(capsys, *argv)[0] == 1
    cert.write_text("suite s\ncoords a = (a, 1)\n", encoding="utf-8")
    assert run_cli(capsys, *argv)[0] == 0


def test_files_are_read_as_utf8(tmp_path):
    # bundled and path files alike: reading in the locale's encoding is an EncodingWarning
    (tmp_path / "g.agt").write_text("# é\ngroup g\nalphabet 2\ngen a = (1, a) (1 2)\n", encoding="utf-8")
    for argv in (
        ["trivial", "--group", "grigorchuk", "--word", "b c d"],
        ["certify", "--group", "basilica", "--suite", "basilica_nea"],
        ["eval", "--group", "g.agt", "--word", "a"],
    ):
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error", "-m", "agroups.cli", *argv],
            capture_output=True, encoding="utf-8", env=_env(), cwd=tmp_path, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), (argv, proc.stderr)


def _env():
    """The environment of a child Python that imports this checkout's package."""
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


_MODULES_LOADED = """
import json, sys
before = set(sys.modules)  # what site loaded does not count
import agroups.cli
imported = set(sys.modules) - before
agroups.cli.main(["ball", "--group", "basilica", "--radius", "3"])
ran = set(sys.modules) - before
print(json.dumps([sorted(imported), sorted(ran)]))
"""


def test_import_and_ball_load_no_heavy_modules():
    # every check runs as a new process, which pays for each module the import loads:
    # dataclasses brings inspect, ast, dis and tokenize, logging costs 4-6 ms cold, pathlib
    # and typing 4 ms each; a site module may load these first, so a child without one (-S)
    # runs too
    for flags in ((), ("-S",)):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _MODULES_LOADED],
            capture_output=True, encoding="utf-8", env=_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        *ball, last = proc.stdout.splitlines()
        imported, ran = map(set, json.loads(last))
        assert ball and "agroups.cli" in imported
        assert not {"dataclasses", "inspect"} & imported, imported
        assert not {"logging", "pathlib", "typing"} & ran, (flags, ran)


@pytest.mark.parametrize("row", agt_requests.ROWS, ids=[row.id for row in agt_requests.ROWS])
def test_agt_request(row):
    report = agt_requests.check(row, [sys.executable, "-m", "agroups.cli"], _env())
    assert not report, report


def test_agt_request_rows():
    # an exit-2 row expects one `agt: error:` line, or argparse's usage and its error line
    assert len({row.id for row in agt_requests.ROWS}) == len(agt_requests.ROWS) and all(
        row.err is None or row.err.startswith(("agt: error: ", "usage: agt "))
        for row in agt_requests.ROWS if row.code == 2
    )


def test_group_file_reader_keeps_no_rows_past_the_cell_cap():
    # a 2,000,000-state chain ended in MemoryError in parse_group_file (rows.append) under
    # 512 MiB; the reader now counts every row but keeps none past the cap
    n = CELL_CAP // 2 + 1
    rows = [f"gen s{i} = (s{i + 1}, 1)" for i in range(n - 1)] + [f"gen s{n - 1} = (1, 1) (1 2)"]
    with pytest.raises(BoundExceeded) as excinfo:
        parse_group_file("group chain\nalphabet 2\n" + "\n".join(rows))
    assert str(excinfo.value) == f"{n} states x 2 letters exceed {CELL_CAP} cells"
    # every line is still read: a syntax error past the cap names its line
    rows[-1] = "gen s = (1, 1) (1 x)"
    with pytest.raises(ParseError) as excinfo:
        parse_group_file("group chain\nalphabet 2\n" + "\n".join(rows))
    assert excinfo.value.line == n + 2 and str(excinfo.value).startswith(f"line {n + 2}: malformed cycle")


def test_files_are_read_up_to_the_byte_cap(tmp_path, capsys):
    # a file of exactly MAX_FILE_BYTES bytes is read and parsed; one byte more is refused
    path = tmp_path / "one.agt"
    path.write_bytes(b"nonsense" + b" " * (MAX_FILE_BYTES - 8))
    assert run_cli(capsys, "eval", "--group", str(path), "--word", "a") == (
        2, "", "agt: error: line 1: unknown keyword 'nonsense'\n")
    with open(path, "ab") as file:
        file.write(b" ")
    code, out, err = run_cli(capsys, "eval", "--group", str(path), "--word", "a")
    assert (code, out) == (2, "") and err.endswith(f": over {MAX_FILE_BYTES} bytes\n"), err
    # a pipe is read to its end, past the reader's first 64 KiB, though a raw read may stop short
    n = 10_000
    rows = "".join(f"gen s{i} = (s{i + 1}, 1)\n" for i in range(n - 1))
    text = f"group chain\nalphabet 2\n{rows}gen s{n - 1} = (1, 1) (1 2)\n"
    assert len(text) > 3 << 16
    proc = subprocess.run(
        [sys.executable, "-m", "agroups.cli", "eval", "--group", "/dev/stdin", "--word", f"s{n - 1}"],
        input=text, capture_output=True, encoding="utf-8", env=_env(), cwd=tmp_path, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "") and "perm: (1 2)" in proc.stdout, proc.stderr


def test_level_stabilizer_transversal_is_bounded(tmp_path):
    # grigorchuk acts on level 5 through 2^22 configurations of 32 vertices
    script = (
        "from agroups import corpus, subgroups\n"
        "from agroups.core import BoundExceeded\n"
        "gens = subgroups.GenSet.from_group(corpus.load_group('grigorchuk'))\n"
        "try:\n"
        "    subgroups.stabilizer_gens(gens, 5)\n"
        "except BoundExceeded:\n"
        "    raise SystemExit(2)\n"
    )
    proc = agt_requests.limited_run([sys.executable, "-c", script], tmp_path, _env())
    assert (proc.returncode, proc.stderr) == (2, b"")


def test_closed_pipe_exits_without_traceback():
    # the reader takes one line of a 288 KB answer, then closes the pipe
    argv = [sys.executable, "-m", "agroups.cli", "orbits", *G, "--depth", "12", "--json"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env())
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")
