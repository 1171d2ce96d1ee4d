import logging
import math
from random import Random

import pytest

from agroups import certify, corpus, decide
from agroups.certify import (
    Certificate,
    CoordsIs,
    DistinctPositiveWords,
    Equal,
    ProjectionWitness,
    Trivial,
    UnknownGroup,
    ball_sizes,
    free_semigroup_check,
    run_suite,
)
from agroups.core import MAX_DIGITS, BadArgument, BoundExceeded
from agroups.subgroups import GenSet, rist_elements, stabilizer_gens

from oracles import free_semigroup_reference, pairwise_ball_sizes


def test_bundled_suites_pass(grig, bas):
    for name, group in [("grigorchuk_nea", grig), ("basilica_nea", bas)]:
        report = run_suite(corpus.load_certificate(name), group)
        failed = [r for r in report.results if not r.passed]
        assert not failed, [r.assertion.describe() for r in failed]


def test_empty_certificate_passes(grig):
    report = run_suite(Certificate("empty", None, ()), grig)
    assert report.passed and report.results == []


def test_member_by_expression_example(grig):
    cert = Certificate(
        "m",
        None,
        (certify.MemberByExpression("(a b a d)^2", "(a b)^2 d^-1 (a b)^-2 d"),),
    )
    assert run_suite(cert, grig).passed


def test_failing_assertions_report_details(grig):
    cert = Certificate(
        "bad",
        None,
        (
            Trivial("a b"),
            Equal("a", "b"),
            CoordsIs("c a", ("a", "d"), None),  # perm is actually the swap
        ),
    )
    report = run_suite(cert, grig)
    assert not report.passed
    assert all(not r.passed and r.detail for r in report.results)
    assert any("computed" in r.detail for r in report.results)


@pytest.mark.parametrize(
    "assertion, detail",
    [
        (CoordsIs("b", ("a",), None), "expected 2 slots"),
        (CoordsIs("b", ("a", "c"), ((1, 2),)), "computed (a, c) id"),
        (CoordsIs("a", ("1", "1"), None), "computed (1, 1) (1 2)"),
        (CoordsIs("b", ("a", "d"), None), "computed (a, c) id"),
        (ProjectionWitness("1", "a", "b"), "a moves 1"),
    ],
    ids=["slot count", "root permutation", "root swap", "slot word", "moved vertex"],
)
def test_failing_assertion_details(grig, assertion, detail):
    (result,) = run_suite(Certificate("bad", None, (assertion,)), grig).results
    assert (result.passed, result.detail) == (False, detail)


def test_group_name_mismatch(grig):
    cert = Certificate("x", "basilica", ())
    with pytest.raises(UnknownGroup):
        run_suite(cert, grig)


def test_distinct_positive_words_failure_reports_pair(grig):
    cert = Certificate(
        "collide", None, (DistinctPositiveWords(("a", "b"), 4, 30),)
    )
    report = run_suite(cert, grig)
    assert not report.passed
    assert "a a" in report.results[0].detail and "b b" in report.results[0].detail


def test_free_semigroup_basilica(bas):
    gens = GenSet.from_group(bas)
    res = free_semigroup_check(gens, 1)
    assert res.distinct == 2 and res.collision is None
    # oracle on a subsample: all positive words of length <= 4 pairwise distinct
    words = []
    frontier = [bas.identity()]
    for _ in range(4):
        frontier = [w * g for w in frontier for g in gens.elements]
        words.extend(frontier)
    for i, w1 in enumerate(words):
        for w2 in words[i + 1 :]:
            assert not decide.equals(w1, w2)
    res = free_semigroup_check(gens, 4)
    assert res.distinct == len(words) == 2 ** 5 - 2


def test_free_semigroup_grigorchuk_collides(grig):
    gens = GenSet.from_elements([grig.generator("a"), grig.generator("b")])
    res = free_semigroup_check(gens, 4)
    assert res.collision is not None
    first, second = res.collision
    assert str(first) == "a a" and str(second) == "b b"
    assert res.distinct < res.total_words


def test_ball_sizes_grigorchuk(grig):
    sizes = ball_sizes(GenSet.from_group(grig), 3)
    assert sizes[0] == 1 and sizes[1] == 5
    # |B(1)| oracle: dedupe generators and inverses pairwise
    candidates = [grig.identity()]
    for g in GenSet.from_group(grig).elements:
        candidates += [g, g.inverse()]
    distinct = []
    for c in candidates:
        if not any(decide.equals(c, r) for r in distinct):
            distinct.append(c)
    assert len(distinct) == 5


def test_ball_monotone_and_dedup_agreement(grig, bas):
    for group in (grig, bas):
        gens = GenSet.from_group(group)
        sizes = ball_sizes(gens, 4)
        assert all(a < b for a, b in zip(sizes, sizes[1:]))
        assert sizes == pairwise_ball_sizes(gens, 4)


def test_ball_sizes_basilica_radius_10(bas):
    # the seed's canonical-key loop gave the same tuple (about 34 s on its own)
    sizes = ball_sizes(GenSet.from_group(bas), 10)
    assert sizes == (1, 5, 17, 53, 153, 421, 1125, 2945, 7545, 18973, 46957)


def test_ball_stores_each_root_image_once(bas):
    # 7,545 states over 2 root images: every state shares one of 2 image tuples
    table = decide._InternTable(bas)
    letters = [table.intern(x) for e in bas.generators() for x in (e, e.inverse())]
    assert sum(len(sphere) for sphere in table.spheres(letters, 8)) + 1 == len(table.images) == 7545
    assert len({id(t) for t in table.images}) == len(set(table.images)) == 2


def test_ball_cap(grig):
    gens = GenSet.from_group(grig)
    with pytest.raises(BoundExceeded):
        ball_sizes(gens, 4, max_elements=10)
    # a cap may lower decide.BALL_CAP, not lift it
    assert ball_sizes(gens, 2, max_elements=decide.BALL_CAP) == (1, 5, 11)
    for cap in (0, -5, decide.BALL_CAP + 1):
        with pytest.raises(BadArgument, match=f"^cap must be in 1..{decide.BALL_CAP}, got {cap}$"):
            ball_sizes(gens, 2, max_elements=cap)


def _per_product_ball(table, letters):
    """A Cayley-ball loop of one `mul` per product: yields the ball's size after each."""
    ball, frontier = {0}, [0]
    while True:
        sphere = []
        for g in frontier:
            for s in letters:
                h = table.mul(g, s)
                if h not in ball:
                    ball.add(h)
                    sphere.append(h)
                yield len(ball)
        frontier = sphere


def test_ball_cap_trips_within_one_batch(grig, bas):
    # `spheres` batches one frontier element's products, so when it raises, its table is
    # the per-product loop's table at the product that passed the cap, or after at most
    # len(letters) - 1 more products: no more states and no more memoized products
    for group, cap in ((bas, 100), (grig, 30)):
        batch, single = decide._InternTable(group), decide._InternTable(group)
        letters = [batch.intern(x) for e in group.generators() for x in (e, e.inverse())]
        assert [single.intern(x) for e in group.generators() for x in (e, e.inverse())] == letters
        with pytest.raises(BoundExceeded, match=f"^ball exceeded {cap} elements$"):
            for _ in batch.spheres(letters, 20, cap):
                pass
        loop = _per_product_ball(single, letters)
        for size in loop:  # up to the product that passes the cap
            if size > cap:
                break
        extra = 0
        while (single.images, single._products) != (batch.images, batch._products):
            assert extra < len(letters) - 1, group.name
            next(loop)
            extra += 1
        assert single.kids == batch.kids


def test_free_semigroup_stops_before_a_level_past_the_cap(bas, monkeypatch):
    # `--maxlen 40` exits 2 at BALL_CAP (test_free_semigroup_words_are_bounded); here, at a
    # cap of 1,000, the levels are batched whole: basilica's positive words are distinct, so
    # length 9 would bring the 510 ids of lengths 1-8 past the cap, and it raises before
    # making a product of that level
    made = []
    products = decide._InternTable.products

    def counted(table, ps, qs):
        made.append(len(ps) * len(qs))
        return products(table, ps, qs)

    monkeypatch.setattr(decide._InternTable, "products", counted)
    monkeypatch.setattr(decide, "BALL_CAP", 1000)
    gens = GenSet.from_group(bas)
    assert free_semigroup_check(gens, 8).distinct == 510
    with pytest.raises(BoundExceeded, match="^free semigroup words exceeded 1000 ids at length 9$"):
        free_semigroup_check(gens, 40)
    assert made == [2 ** n for n in range(1, 9)] * 2


def test_free_semigroup_matches_reference(grig, bas, odo, aleshin):
    # seeded generating sets of 1-3 words of 1-3 letters: the same result or the same error
    # as the count that kept each id's first word and ran every length up to maxlen.
    # Aleshin's lengths stop at 2: at 3 a count can take seconds in the intern table's refinement
    rng = Random(25)
    groups = (grig, bas, odo, aleshin)
    collided = 0
    for _ in range(300):
        group = rng.choice(groups)
        names = group.state_names
        elements = [group.element([(rng.choice(names), rng.choice((1, -1)))
                                   for _ in range(rng.randint(1, 3))]) for _ in range(rng.randint(1, 3))]
        gens = GenSet.from_elements(elements)
        maxlen = rng.randint(1, 2 if group is aleshin else 9)
        outcomes = []
        for count in (free_semigroup_check, free_semigroup_reference):
            try:
                outcomes.append(count(gens, maxlen))
            except BoundExceeded as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], (group.name, [str(e) for e in elements], maxlen)
        collided += getattr(outcomes[0], "collision", None) is not None
    assert 50 < collided < 250, collided


def test_free_semigroup_stops_at_a_length_with_no_new_id(grig, odo):
    # a, a a = 1, a a a = a: length 3 brings no new id, and nothing after it can
    made = []
    products = decide._InternTable.products

    def counted(table, ps, qs):
        made.append(len(ps) * len(qs))
        return products(table, ps, qs)

    gens = GenSet.from_elements([grig.generator("a")])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decide._InternTable, "products", counted)
        res = free_semigroup_check(gens, 10 ** 9)
    assert (res.total_words, res.distinct, [str(w) for w in res.collision]) == (10 ** 9, 2, ["a", "a a a"])
    assert made == [1, 1, 1]
    # a word found by its position alone: the odometer's powers never collide
    res = free_semigroup_check(GenSet.from_elements([odo.generator("a")]), 3000)
    assert (res.total_words, res.distinct, res.collision) == (3000, 3000, None)


@pytest.mark.parametrize("k", [1, 2, 3, 10, 1000])
def test_free_semigroup_totals_have_at_most_max_digits(grig, k):
    # the largest maxlen whose count of positive words has MAX_DIGITS digits, and one more
    gens = GenSet.from_elements([grig.generator("a")] * k)
    if k == 1:
        maxlen = 10 ** MAX_DIGITS - 1
    else:
        maxlen = int((MAX_DIGITS - 1) / math.log10(k)) - 2
        while len(str(sum(k ** i for i in range(1, maxlen + 2)))) <= MAX_DIGITS:
            maxlen += 1
    assert len(str(free_semigroup_check(gens, maxlen).total_words)) == MAX_DIGITS
    over = f"^the count of positive words up to length .* has over {MAX_DIGITS} digits$"
    with pytest.raises(BoundExceeded, match=over):
        free_semigroup_check(gens, maxlen + 1)
    with pytest.raises(BoundExceeded, match=f"has over {MAX_DIGITS} digits$"):
        free_semigroup_check(gens, 10 ** 700)  # refused before any power of k is built


def test_report_payload_shape(grig):
    report = run_suite(corpus.load_certificate("grigorchuk_nea"), grig)
    payload = report.to_payload()
    assert payload["passed"] is True
    assert payload["suite"] == "grigorchuk_nea"
    assert len(payload["assertions"]) == len(report.results)
    kinds = {a["kind"] for a in payload["assertions"]}
    assert {
        "trivial",
        "equal",
        "coords",
        "in_level_stab",
        "transitive",
        "supported_only_at",
        "member_by_expression",
        "projection_witness",
    } <= kinds


def test_product_loops_log_their_table(grig, caplog):
    gens = GenSet.from_group(grig)
    with caplog.at_level(logging.DEBUG, logger="agroups"):
        ball_sizes(gens, 3)
        free_semigroup_check(gens, 2)
        decide.order(grig.generator("a"), 4)
        rist_elements(gens, "2", 2)
        stabilizer_gens(gens, 2)
    jobs = [r.getMessage().split(":")[0] for r in caplog.records]
    assert jobs == ["ball_sizes", "free_semigroup_check", "order", "rist_elements", "schreier"]
    assert all("states" in r.getMessage() and "slow paths" in r.getMessage() for r in caplog.records)


def _schreier_trip(gens, monkeypatch):
    monkeypatch.setattr(decide, "BALL_CAP", 32)  # as in test_schreier_pairs_are_bounded
    stabilizer_gens(GenSet.from_elements(gens.elements * 2), 2)


TRIPS = {
    "ball_sizes": lambda gens, monkeypatch: ball_sizes(gens, 20, max_elements=100),
    "schreier": _schreier_trip,
}


@pytest.mark.parametrize("job, trip", TRIPS.items(), ids=TRIPS)
def test_tripped_cap_still_logs_its_table(grig, caplog, monkeypatch, job, trip):
    with caplog.at_level(logging.DEBUG, logger="agroups"), pytest.raises(BoundExceeded):
        trip(GenSet.from_group(grig), monkeypatch)
    assert [(r.levelno, r.getMessage().split(":")[0]) for r in caplog.records] == [
        (logging.DEBUG, job)
    ]


def test_ball_log_counts_walks(grig, caplog):
    # 40 states, as the ball holds 40 elements; only 3 products needed the walk, and the
    # letters entered by one slow path, for the cycle b -> c -> d -> b of their closure
    with caplog.at_level(logging.DEBUG, logger="agroups"):
        assert ball_sizes(GenSet.from_group(grig), 4) == (1, 5, 11, 23, 40)
    assert [r.getMessage() for r in caplog.records] == [
        "ball_sizes: 40 states, 88 memoized products, 3 walks, 4 slow paths"
    ]
