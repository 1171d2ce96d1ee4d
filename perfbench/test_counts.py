"""Self-checks of the benchmark's traced mode and of its answer oracle.

    python3 -m pytest perfbench -q

A small traced pass of `growth` and of `levels`, run twice on one seed,
must count exactly the same work both times, and the bypass predictions
of README.md must hold: no level action and no subgroup work on growth,
no CLI work on either.
"""

from __future__ import annotations

import random
import sys

import pytest

import oracle
import run
import tracing

sys.path.insert(0, str(run.SRC))

SEED = 3


def traced_counts(workload: str) -> dict:
    _, ops = run.setup(workload, SEED, small=True)
    checker = run.Checker(None)
    with tracing.Tracer() as tracer:
        run.run_passes(lambda: ops, 0, checker, tracer)
    assert checker.failed == 0, checker.problems
    metrics, absent = tracer.metrics()
    assert absent == []
    return {name: m["value"] for name, m in metrics.items() if m["unit"] != "s"}


@pytest.mark.parametrize("workload", ["growth", "levels"])
def test_counts_repeat(workload):
    first = traced_counts(workload)
    assert first["core.coords.calls"] > 0
    assert traced_counts(workload) == first


def test_bypass_predictions():
    growth = traced_counts("growth")
    levels = traced_counts("levels")
    assert growth["core.act.calls"] == 0
    assert growth["decide.canonical_key.calls"] > 0
    subgroup_counts = [k for k in growth if k.startswith("subgroups.")]
    assert subgroup_counts and all(growth[k] == 0 for k in subgroup_counts)
    assert growth["cli.parser.calls"] == levels["cli.parser.calls"] == 0
    assert levels["core.act.calls"] > 0
    assert levels["subgroups.schreier.transversal"] > 0
    assert levels["words.parse_word.calls"] == 0  # words are parsed during set-up only


def test_untraced_path_has_no_wrappers():
    run.fresh_import()
    from agroups.core import Element

    original = Element.coords
    with tracing.Tracer():
        assert Element.coords is not original
    assert Element.coords is original


def test_oracle_agrees_with_package():
    run.fresh_import()
    from agroups import corpus, decide, formats
    from agroups.core import Element

    rng = random.Random(SEED)
    groups = {name: corpus.load_group(name) for name in ("grigorchuk", "basilica")}
    groups["rot3"] = formats.parse_group_file(oracle.agt_text("rot3"))
    for name, group in groups.items():
        table = oracle.TABLES[name]
        d = oracle.degree(table)
        for rel in oracle.RELATORS[name]:
            assert decide.is_trivial(Element(group, oracle.parse(rel))), rel
        for _ in range(50):
            letters = oracle.random_word(rng, table, rng.randint(1, 12))
            v = tuple(rng.randint(1, d) for _ in range(6))
            assert Element(group, letters).act(v) == oracle.act(table, letters, v)
