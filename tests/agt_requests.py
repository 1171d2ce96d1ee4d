"""The budgeted `agt` requests: each row answers, or exits 2 with one short error line,
within its wall bound under a 512 MiB address-space limit.  pytest runs every row
through `python -m agroups.cli`; CI runs every row against the installed script with
`python tests/agt_requests.py agt`, which names each failing row and then exits 1.
"""

import itertools
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

LIMIT = 512 << 20  # bytes of address space
HERE = Path(__file__).resolve().parent


class Row(NamedTuple):
    """`argv` after `agt`, run where `files` were written (name -> text, or a writer of
    the path); the exit code, the exact stdout (None: not read), the exact stderr (None:
    one `agt: error:` line of at most 200 bytes) and a bound on the wall time."""

    id: str
    argv: Tuple[str, ...]
    files: Optional[dict] = None
    code: int = 2
    out: Optional[str] = ""
    err: Optional[str] = None
    seconds: float = 10


def _answer(id, argv, out=None, files=None, code=0, seconds=10) -> Row:
    """A row with nothing on stderr."""
    return Row(id, argv, files, code, out, "", seconds)


def _chain(n: int):
    """A writer of the n-state chain: s<i> = (s<i+1>, 1), the last (1, 1) (1 2)."""
    def write(path):
        with open(path, "w", encoding="utf-8") as file:
            file.write("group chain\nalphabet 2\n")
            file.writelines(f"gen s{i} = (s{i + 1}, 1)\n" for i in range(n - 1))
            file.write(f"gen s{n - 1} = (1, 1) (1 2)\n")
    return write


def _sparse(path):
    with open(path, "wb") as file:
        file.truncate(200_000_000)  # 200 MB of NULs that take no disk


def _json(**payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


E = "agt: error: {}\n".format  # the one stderr line of an engine error
BYTES = E("cannot read {!r}: over 16777216 bytes")
LETTERS = E("section words of one call exceeded 1000000 letters")
REFINED = E("intern table refinement exceeded 250000 nodes")
USAGE = ("usage: agt ball [-h] --group GROUP [--json] --radius RADIUS [--gens GENS]\n"
         "                [--cap CAP]\nagt ball: error: argument --radius: invalid int value: ")
G, B = ("--group", "grigorchuk"), ("--group", "basilica")
ALESHIN, RAND4 = ("--group", str(HERE / "aleshin.agt")), ("--group", str(HERE / "rand4.agt"))
CHAIN, CERT = ("eval", "--group", "g.agt", "--word", "s0"), ("certify", *G, "--suite", "s.cert")
HEAD = "suite s\ngroup grigorchuk\n"
DEEP = ".".join("2" * 10_000)
TREE = "group tree\nalphabet 2\n" + "".join(  # s_i = (s_2i+1, s_2i+2) (1 2), leaves trivial
    f"gen s{i} = ({', '.join(f's{j}' if j < 2047 else '1' for j in (2 * i + 1, 2 * i + 2))}) (1 2)\n"
    for i in range(2047))
WIDE = "group wide\nalphabet 12\ngen s = (" + ", ".join("s" * 12) + ") (1 2)\n"
_RNG = random.Random(25)
WORDS = ";".join(" ".join(_RNG.choices("abcd", k=3)) for _ in range(3000))
ORBITS = _json(group="grigorchuk", depth=3, counts=[1] * 4, levels=[
    {"level": n, "count": 1, "orbits": [[".".join(v) or "." for v in itertools.product("12", repeat=n)]],
     "parent": [0] if n else []} for n in range(4)])
SECTION = "a b a b"  # (a b a d)^2 at vertex 2, as `section` prints it

ROWS = (
    _answer("trivial json", ("trivial", *G, "--word", "b c d", "--json"),
            _json(group="grigorchuk", word="b c d", trivial=True)),
    _answer("certify basilica_nea", ("certify", *B, "--suite", "basilica_nea")),
    # the intern table's product loops: balls batched per frontier element, words per level
    _answer("ball 271", ("ball", *G, "--radius", "8", "--json"),
            _json(group="grigorchuk", radius=8, sizes=[1, 5, 11, 23, 40, 68, 108, 176, 271])),
    _answer("ball 421", ("ball", *B, "--radius", "5", "--json"),
            _json(group="basilica", radius=5, sizes=[1, 5, 17, 53, 153, 421])),
    _answer("freesemigroup 2046", ("freesemigroup", *B, "--maxlen", "10", "--json"),
            _json(group="basilica", maxlen=10, total_words=2046, distinct=2046, collision=None)),
    # a clean argv, read from the command table, answers as argparse's spelling of it does
    _answer("orbits clean", ("orbits", *G, "--depth", "3", "--json"), ORBITS),
    _answer("orbits argparse", ("orbits", "--group=grigorchuk", "--dep", "3", "--json"), ORBITS),
    # a printed word read back (by table lookup) equals the same element written with a power
    _answer("section", ("section", *G, "--word", "(a b a d)^2", "--vertex", "2", "--json"),
            _json(group="grigorchuk", word="(a b a d)^2", vertex="2", section=SECTION)),
    _answer("section read back", ("equal", *G, "--word", SECTION, "--other", "(a b)^2", "--json"),
            _json(group="grigorchuk", left=SECTION, right="(a b)^2", equal=True)),
    # a radius past decide.BALL_CAP exits 2; argparse refuses over core.MAX_DIGITS digits
    _answer("ball one generator", ("ball", *G, "--gens", "a", "--radius", "1000"), "1" + " 2" * 1000 + "\n"),
    Row("ball radius 600 digits", ("ball", *G, "--gens", "a", "--radius", "9" * 600), seconds=1),
    Row("ball radius 5000 digits", ("ball", *G, "--radius", "9" * 5000), seconds=1,
        err=USAGE + f"'{'9' * 58}…\n"),
    Row("ball radius -3000 digits", ("ball", *G, "--radius", "-" + "9" * 3000),
        err=USAGE + f"'-{'9' * 57}…\n"),
    # a witness search stops at its first empty sphere
    _answer("rist maxlen 600 digits", ("rist", *G, "--gens", "a", "--vertex", "2", "--maxlen", "9" * 600),
            "0 witness(es)\n", seconds=1),
    Row("ball cap", ("ball", *B, "--radius", "3", "--cap", "100000000"),
        err=E("cap 100000000 exceeds cap 500000")),
    Row("group directory", ("eval", "--group", ".", "--word", "a"), err=E("cannot read '.': Is a directory")),
    Row("group path missing", ("eval", "--group", "missing/grigorchuk.agt", "--word", "a"),
        err=E("group file 'missing/grigorchuk.agt' not found (and not a bundled group)")),
    Row("suite twice", CERT, {"s.cert": "suite one\nsuite two\ntrivial a^2\n"},
        err=E("line 2: duplicate 'suite' line")),
    # each .cert word is read once, at load: its errors name a line and a column
    Row("cert token column", CERT, {"s.cert": HEAD + "trivial (a b))\n"},
        err=E("line 3, col 6: unexpected token ')'")),
    Row("cert end column", CERT, {"s.cert": HEAD + "trivial (a b\n"},
        err=E("line 3, col 5: unexpected end of word")),
    Row("empty gens entry", ("freesemigroup", *B, "--gens", "a;;b", "--maxlen", "2"),
        err=E("empty word (use '1' for the identity)")),
    # an error line quotes at most 60 characters of each value
    Row("witness word", ("commutator-witness", *G, "--word", "a" + " b" * 499, "--slot", "1", "--inner", "2",
                         "--witness", "a")),
    Row("chain vertex", ("chain", *G, "--gens", "a", "--vertex", "1" + ".1" * 199, "--depth", "2")),
    # the level action at full size: 4,096 configurations x 4 generators, the 16,384 pairs
    # of a Schreier pass, and orbits at subgroups.ORBIT_DEPTH_CAP
    _answer("stab level 4", ("stab", *G, "--level", "4"), seconds=5),
    _answer("orbits depth 12", ("orbits", *G, "--depth", "12", "--json"), seconds=5),
    # levels, transversals and alphabets over core.VERTEX_CAP
    Row("stab level 24", ("stab", *G, "--level", "24"), err=E("level 24 has over 100000 vertices")),
    Row("project depth 22", ("project", *G, "--vertex", "1" + ".1" * 21),
        err=E("transversal exceeded 100000 vertex entries")),
    Row("rist depth 24", ("rist", *G, "--vertex", "2" + ".2" * 23, "--maxlen", "2"),
        err=E("level 24 has over 100000 vertices")),
    Row("in_level_stab 40", CERT, {"s.cert": "suite s\nin_level_stab 40 : a\n"},
        err=E("level 40 has over 100000 vertices")),
    Row("alphabet", ("eval", "--group", "g.agt", "--word", "a"),
        {"g.agt": "group g\nalphabet 100000000\ngen a = (1, 1)\n"},
        err=E("alphabet size 100000000 puts over 100000 vertices on level 1")),
    # presentations over core.CELL_CAP cells, files over formats.MAX_FILE_BYTES bytes
    Row("chain 400000 states", CHAIN, {"g.agt": _chain(400_000)},
        err=E("400000 states x 2 letters exceed 131072 cells")),
    Row("chain 2000000 states", CHAIN, {"g.agt": _chain(2_000_000)}, err=BYTES.format("g.agt")),
    Row("sparse group", CHAIN, {"g.agt": _sparse}, err=BYTES.format("g.agt")),
    Row("sparse suite", CERT, {"s.cert": _sparse}, err=BYTES.format("s.cert")),
    # the level action of a 2,047-state tree compiles only the letters it reaches
    _answer("tree orbits", ("orbits", "--group", "g.agt", "--depth", "12"), files={"g.agt": TREE},
            seconds=30),
    _answer("tree certify", ("certify", "--group", "g.agt", "--suite", "s.cert"), code=1, seconds=30,
            files={"g.agt": TREE, "s.cert": "suite s\ntransitive 12\nin_level_stab 16 : s0\n"}),
    # Aleshin's group is free: a 13-letter word has 3^13 sections, and (a^-1 b)^k long ones
    Row("section closure", ("closure", *ALESHIN, "--word", "c a b b c a b a c a b b a"),
        err=E("section closure exceeded 100000 nodes"), seconds=20),
    Row("closure 512", ("closure", *ALESHIN, "--word", "(a^-1 b)^512"), err=LETTERS),
    Row("closure 2048", ("closure", *ALESHIN, "--word", "(a^-1 b)^2048"), err=LETTERS),
    Row("portrait 2048", ("portrait", *ALESHIN, "--depth", "12", "--word", "(a^-1 b)^2048"), err=LETTERS),
    Row("activity 2048", ("activity", *ALESHIN, "--levels", "40", "--word", "(a^-1 b)^2048"), err=LETTERS),
    Row("rand4 stab", ("stab", *RAND4, "--level", "2"), err=REFINED),
    Row("rand4 order", ("order", *RAND4, "--word", "s0^-1 s1^-1"), err=REFINED),
    Row("free semigroup ids", ("freesemigroup", *B, "--maxlen", "40"),
        err=E("free semigroup words exceeded 500000 ids at length 18"), seconds=30),
    _answer("odometer maxlen", ("freesemigroup", "--group", "odometer", "--maxlen", "100000"),
            "100000 distinct of 100000 positive words\n"),
    _answer("finite maxlen", ("freesemigroup", *G, "--gens", "a", "--maxlen", "1000000000"),
            "2 distinct of 1000000000 positive words\nfirst collision: a = a a a\n"),
    # counts of over core.MAX_DIGITS digits, level actions and Schreier passes of many
    # generators, and walks down a 10,000-letter vertex
    Row("total digits", ("freesemigroup", *G, "--gens", "b;c", "--maxlen", "20000")),
    Row("activity digits", ("activity", "--group", "g.agt", "--word", "s", "--levels", "4096"),
        {"g.agt": WIDE}),
    Row("level entries", ("orbits", *G, "--depth", "12", "--gens", ";".join(["a b"] * 30_000))),
    Row("schreier pairs", ("stab", *G, "--level", "4", "--gens", WORDS)),
    Row("act depth", ("act", *G, "--word", "(b c)^5000", "--vertex", DEEP)),
    Row("cert projection depth", CERT, {"s.cert": f"suite deep\nprojection_witness {DEEP} : (b c)^5000 -> 1\n"}),
)


def limited_run(argv, cwd, env=None, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run `argv` in `cwd` under LIMIT; stdout and stderr are bytes."""
    return subprocess.run(argv, capture_output=True, env=env, cwd=cwd, timeout=timeout,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT)))


def check(row: Row, prefix, env=None) -> str:
    """'' if `row` holds behind the command `prefix`, else a report that names it."""
    env = {**(os.environ if env is None else env), "COLUMNS": "80"}  # argparse's usage width
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in (row.files or {}).items():
            if callable(content):
                content(os.path.join(tmp, name))
            else:
                Path(tmp, name).write_text(content, encoding="utf-8")
        start = time.monotonic()
        try:
            proc = limited_run([*prefix, *row.argv], tmp, env, row.seconds)
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as exc:
            code, out, err = "killed", exc.stdout or b"", exc.stderr or b""
        seconds = time.monotonic() - start
    wrong = [] if code == row.code else [f"expected exit {row.code}"]
    if row.out is not None and out != row.out.encode():
        wrong.append(f"stdout differs ({len(out)} bytes)")
    if row.err is not None and err != row.err.encode():
        wrong.append("stderr differs")
    one_line = err.startswith(b"agt: error: ") and err.count(b"\n") == 1 and err.endswith(b"\n")
    if row.err is None and not (one_line and len(err) <= 200):
        wrong.append(f"not one agt: error: line of at most 200 bytes ({len(err)} bytes)")
    if seconds > row.seconds:
        wrong.append(f"took {seconds:.1f} s, over {row.seconds} s")
    if not wrong:
        return ""
    argv = " ".join(row.argv)
    return (f"{row.id}: agt {argv if len(argv) <= 200 else argv[:199] + '…'}\n  exit {code}: "
            f"{'; '.join(wrong)}\n  stderr ends {err[-300:].decode(errors='replace')!r}")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: python agt_requests.py COMMAND [ARG...]  (the command that runs agt)")
    failed = 0
    for row in ROWS:
        report = check(row, sys.argv[1:])
        failed += bool(report)
        print(report or f"ok {row.id}", flush=True)
    print(f"{len(ROWS) - failed} of {len(ROWS)} agt requests hold")
    sys.exit(1 if failed else 0)
