"""Traced mode: spans and counters around the package's layers, from outside.

`Tracer.install` patches the callables listed in `HOOKS` on the imported
``agroups`` modules and classes; `Tracer.uninstall` puts the originals
back.  Nothing here is active in an untraced run, so end-to-end numbers
carry no tracing cost.

A span records its name, start, end and parent.  Spans are kept in
compact arrays and written out once, at the end of a run.  A span's self
time is its duration minus the durations of its child spans; with a
single thread the children never overlap, so that is exactly the part of
the interval the children cover.  Self times are summed online as spans
close, so no pass over the stored spans is needed.

A hook whose target is missing (renamed by a later change) is recorded as
absent; every metric that needs it is then reported absent, not guessed.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

SPAN, COUNT = "span", "count"

# Spans whose extent other hooks ask about ("is this call inside one?").
SCOPES = ("decide.is_trivial", "words.parse_word", "subgroups.rist")


def _note_coords(tr, args, result):
    tr.extra["core.coords.letters"] += len(args[0].letters)
    if tr.inside["decide.is_trivial"]:
        tr.extra["decide.is_trivial.nodes"] += 1


def _note_word_letters(tr, args, result):
    if tr.inside["words.parse_word"]:
        tr.extra["words.parse_word.letters"] += len(result)


def _note_key(tr, args, result):
    tr.keys.add(result)


def _note_closure(tr, args, result):
    tr.extra["decide.closure.nodes"] += len(result[0])


def _note_orbits(tr, args, result):
    tr.extra["subgroups.orbits.vertices"] += sum(
        len(block) for level in result.levels for block in level.blocks
    )


def _note_schreier(tr, args, result):
    tr.extra["subgroups.schreier.transversal"] += len(result[0])
    tr.extra["subgroups.schreier.raw"] += len(result[1])


def _note_dedupe(tr, args, result):
    tr.extra["subgroups.dedupe.in"] += len(args[1])
    tr.extra["subgroups.dedupe.kept"] += len(result)


def _note_rist(tr, args, result):
    tr.extra["subgroups.rist.found"] += len(result)


def _note_supported(tr, args, result):
    if tr.inside["subgroups.rist"]:
        tr.extra["subgroups.rist.candidates"] += 1


def _note_parser(tr, args, result):
    # parse_args runs on the parser build_parser returns; time it as parser work
    result.parse_args = tr.wrap_span("cli.parser", result.parse_args)


# (hook name, module under agroups, attribute, span or count, note on return)
# "Class.method" patches the class; "*Class.method" patches every subclass
# in the module that defines the method; a bare name is patched in every
# agroups module that imported the same function.
HOOKS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("core.coords", "core", "Element.coords", SPAN, _note_coords),
    ("core.act", "core", "Element.act", SPAN, None),
    ("core.mul", "core", "Element.__mul__", SPAN, None),
    ("core.section", "core", "Element.section", SPAN, None),
    ("core.perm.new", "core", "Perm.__init__", COUNT, None),
    ("words.parse_word", "words", "parse_word", SPAN, None),
    ("words.word_letters", "words", "word_letters", COUNT, _note_word_letters),
    ("formats.load", "corpus", "load_group", SPAN, None),
    ("formats.load", "corpus", "load_certificate", SPAN, None),
    ("formats.load", "formats", "load_group_file", SPAN, None),
    ("formats.load", "formats", "load_certificate_file", SPAN, None),
    ("decide.is_trivial", "decide", "is_trivial", SPAN, None),
    ("decide.canonical_key", "decide", "canonical_key", SPAN, _note_key),
    ("decide.closure", "decide", "_syntactic_closure", SPAN, _note_closure),
    ("decide.refine", "decide", "_refine", SPAN, None),
    ("decide.rank", "decide", "_rank", COUNT, None),
    ("decide.number", "decide", "_canonical_order", SPAN, None),
    ("subgroups.orbits", "subgroups", "orbits", SPAN, _note_orbits),
    ("subgroups.schreier", "subgroups", "_schreier", SPAN, _note_schreier),
    ("subgroups.dedupe", "subgroups", "_dedupe_gens", COUNT, _note_dedupe),
    ("subgroups.rist", "subgroups", "rist_elements", SPAN, _note_rist),
    ("subgroups.supported_only_at", "subgroups", "is_supported_only_at", COUNT, _note_supported),
    ("certify.assertion", "certify", "*Assertion.evaluate", SPAN, None),
    ("certify.ball", "certify", "ball_sizes", SPAN, None),
    ("certify.freesemigroup", "certify", "free_semigroup_check", SPAN, None),
    ("cli.parser", "cli", "build_parser", SPAN, _note_parser),
    ("cli.emit", "cli", "_emit", SPAN, None),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, unit, hooks it needs, value from one pass's aggregates)
def _calls(hook):
    return (f"{hook}.calls", "count", (hook,), lambda a: a["calls"][hook])


def _self_s(hook):
    return (f"{hook}.self_s", "s", (hook,), lambda a: a["self_ns"][hook] / 1e9)


def _extra(metric, *hooks):
    return (metric, "count", hooks, lambda a: a["extra"][metric])


METRICS = (
    _calls("core.coords"),
    _extra("core.coords.letters", "core.coords"),
    _self_s("core.coords"),
    ("core.perm.new", "count", ("core.perm.new",), lambda a: a["calls"]["core.perm.new"]),
    _calls("core.act"),
    _self_s("core.act"),
    _calls("core.mul"),
    _self_s("core.mul"),
    _calls("core.section"),
    _calls("words.parse_word"),
    _self_s("words.parse_word"),
    _extra("words.parse_word.letters", "words.parse_word", "words.word_letters"),
    _calls("formats.load"),
    _self_s("formats.load"),
    _calls("decide.is_trivial"),
    _self_s("decide.is_trivial"),
    _extra("decide.is_trivial.nodes", "decide.is_trivial", "core.coords"),
    _calls("decide.canonical_key"),
    _self_s("decide.canonical_key"),
    _extra("decide.closure.nodes", "decide.closure"),
    _self_s("decide.closure"),
    (
        "decide.refine.rounds",
        "count",
        ("decide.refine", "decide.rank"),
        # _refine ranks once to start and once per refinement round
        lambda a: a["calls"]["decide.rank"] - a["calls"]["decide.refine"],
    ),
    _self_s("decide.refine"),
    _self_s("decide.number"),
    (
        "decide.key_new_ratio",
        "ratio",
        ("decide.canonical_key",),
        lambda a: _ratio(a["extra"]["decide.distinct_keys"], a["calls"]["decide.canonical_key"]),
    ),
    _self_s("subgroups.orbits"),
    _extra("subgroups.orbits.vertices", "subgroups.orbits"),
    _self_s("subgroups.schreier"),
    _extra("subgroups.schreier.transversal", "subgroups.schreier"),
    _extra("subgroups.schreier.raw", "subgroups.schreier"),
    (
        "subgroups.dedupe.kept_ratio",
        "ratio",
        ("subgroups.dedupe",),
        lambda a: _ratio(a["extra"]["subgroups.dedupe.kept"], a["extra"]["subgroups.dedupe.in"]),
    ),
    _self_s("subgroups.rist"),
    _extra("subgroups.rist.candidates", "subgroups.rist", "subgroups.supported_only_at"),
    (
        "subgroups.rist.hit_ratio",
        "ratio",
        ("subgroups.rist", "subgroups.supported_only_at"),
        lambda a: _ratio(a["extra"]["subgroups.rist.found"], a["extra"]["subgroups.rist.candidates"]),
    ),
    _calls("subgroups.supported_only_at"),
    _calls("certify.assertion"),
    _self_s("certify.assertion"),
    _self_s("certify.ball"),
    _self_s("certify.freesemigroup"),
    _calls("cli.parser"),
    _self_s("cli.parser"),
    _self_s("cli.emit"),
)


class Tracer:
    """Span and counter collection for one traced run.

    The containers below are captured by the wrappers, so they are cleared
    in place between passes and never rebound.
    """

    def __init__(self):
        self.origin = time.perf_counter_ns()
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [[-1, 0]]  # [span id, ns covered by children]; -1 is the root
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.extra: Counter = Counter()
        self.inside: Counter = Counter()
        self.keys: set = set()
        self.absent: set = set()
        self.passes: List[dict] = []
        self.first_spans: Optional[tuple] = None
        self._restore: List[Tuple[object, str, object]] = []
        self._op = self.wrap_span("op", lambda call: call())

    # -- wrappers --------------------------------------------------------------

    def wrap_span(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        idx = self._ids[name]
        scoped = name in SCOPES
        clock = time.perf_counter_ns
        origin = self.origin
        stack, inside = self.stack, self.inside
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        calls, self_ns = self.calls, self.self_ns
        tr = self

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1][0])
            starts.append(0)
            ends.append(0)
            frame = [sid, 0]
            stack.append(frame)
            if scoped:
                inside[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if scoped:
                    inside[name] -= 1
                stack.pop()
                dur = t1 - t0
                stack[-1][1] += dur
                starts[sid] = t0 - origin
                ends[sid] = t1 - origin
                self_ns[name] += dur - frame[1]
                calls[name] += 1
            if note is not None:
                note(tr, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_count(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        calls, tr = self.calls, self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[name] += 1
            if note is not None:
                note(tr, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "agroups" or n.startswith("agroups.")]
        for name, modname, attr, kind, note in HOOKS:
            targets = _targets(modules, modname, attr)
            if not targets:
                self.absent.add(name)
                continue
            for owner, key, original in targets:
                wrap = self.wrap_span if kind == SPAN else self.wrap_count
                self._restore.append((owner, key, original))
                setattr(owner, key, wrap(name, original, note))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- passes --------------------------------------------------------------------

    def begin_pass(self) -> None:
        for c in (self.calls, self.self_ns, self.extra, self.inside):
            c.clear()
        self.keys.clear()
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]

    def run_op(self, call: Callable):
        """Run one operation under an "op" span; distinct keys count per operation."""
        try:
            return self._op(call)
        finally:
            self.extra["decide.distinct_keys"] += len(self.keys)
            self.keys.clear()

    def end_pass(self) -> None:
        self.passes.append(
            {"calls": Counter(self.calls), "self_ns": Counter(self.self_ns), "extra": Counter(self.extra)}
        )
        if self.first_spans is None:
            self.first_spans = tuple(
                array(a.typecode, a)
                for a in (self.span_name, self.span_parent, self.span_start, self.span_end)
            )

    # -- results ---------------------------------------------------------------------

    def counts_repeat(self) -> bool:
        """True when every pass did exactly the work of the first."""
        first = self.passes[0]
        return all(p["calls"] == first["calls"] and p["extra"] == first["extra"] for p in self.passes)

    def metrics(self) -> Tuple[Dict[str, dict], List[str]]:
        """Per-layer metrics: counts from the first pass, times as medians over passes."""
        out: Dict[str, dict] = {}
        absent: List[str] = []
        for metric, unit, hooks, value in METRICS:
            if self.absent.intersection(hooks):
                absent.append(metric)
                continue
            if unit == "s":
                v = statistics.median(value(p) for p in self.passes)
            else:
                v = value(self.passes[0])
            out[metric] = {"value": v, "unit": unit}
        return out, absent

    def dump(self, path, header: dict) -> int:
        """Write the first traced pass's spans; returns the number written."""
        names, parents, starts, ends = self.first_spans
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(json.dumps({**header, "names": self.names,
                                "columns": ["id", "parent", "name", "start_ns", "end_ns"]}) + "\n")
            for sid in range(len(names)):
                f.write(f"{sid}\t{parents[sid]}\t{names[sid]}\t{starts[sid]}\t{ends[sid]}\n")
        return len(names)


def _targets(modules, modname: str, attr: str):
    """(owner, attribute, original) triples to patch for one hook; [] if missing."""
    mod = sys.modules.get(f"agroups.{modname}")
    if mod is None:
        return []
    if "." in attr:
        cls_name, meth = attr.lstrip("*").split(".")
        base = getattr(mod, cls_name, None)
        if not isinstance(base, type):
            return []
        if attr.startswith("*"):
            owners = [c for c in vars(mod).values()
                      if isinstance(c, type) and issubclass(c, base) and c is not base
                      and meth in vars(c)]
        else:
            owners = [base] if meth in vars(base) else []
        return [(c, meth, vars(c)[meth]) for c in owners]
    original = getattr(mod, attr, None)
    if not callable(original):
        return []
    return [(m, attr, original) for m in modules if vars(m).get(attr) is original]
