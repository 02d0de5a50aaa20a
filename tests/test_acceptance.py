"""Acceptance gate: the seven headline requirements, one test each.

Each test states its tolerance inline; everything not marked approximately
is compared exactly.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from kinarow.board import (
    BLACK,
    BoardSpec,
    Position,
    apply_move,
    empty_position,
    live_black_groups,
    parse_position,
    winner,
)
from kinarow.certio import certificate_from_json
from kinarow.configs import (
    ConfigTemplate,
    catalog,
    check_certificate,
    cycle_line_template,
    cycle_template,
    prove_draw,
    template_by_name,
)
from kinarow.pairing import verify_pairing
from kinarow.setmatch import exhaustive_marker_adversary, verify_matching_set
from kinarow.solver import PRUNING_MODES, Verdict, solve
from tests.test_board import load_fixture

EXAMPLE_FIXTURES = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig7",
    "fig8", "fig9a", "fig9b", "fig9c", "fig10", "fig11",
)


def random_legal_position(rng: random.Random, spec: BoardSpec, plies: int) -> Position:
    pos = empty_position(spec)
    for _ in range(plies):
        empties = pos.empties()
        if not empties or winner(pos) is not None:
            break
        pos = apply_move(pos, rng.choice(empties))
    return pos


def with_cycles(*sizes: int) -> list[ConfigTemplate]:
    """The catalog, then CycleN(n) and CycleNLine(n) for each given size."""
    return [*catalog(), *(make(n) for n in sizes for make in (cycle_template, cycle_line_template))]


def test_1_headline_4x4_proof():
    """Empty 4x4: two independent 8-marker embeddings, then a 1-node solve.

    The 1.0 s budget covers one full prove_draw run, check_certificate and
    the 1-node solve, whose root probe is a mask-level covering, not a
    second prove_draw run.
    """
    start = time.perf_counter()
    pos = empty_position(BoardSpec(4, 4, 4))
    cert = prove_draw(pos)
    assert cert is not None
    assert check_certificate(cert).valid
    assert [e.template_name for e in cert.entries] == ["BiTriangle", "BiTriangle"]
    groups = set()
    markers = set()
    for entry in cert.entries:
        assert not markers & entry.matching.markers  # independence
        markers |= entry.matching.markers
        groups |= set(entry.matching.groups)
    assert len(groups) == 10
    assert markers == set(pos.empties())  # all 16 empty cells
    assert cert.residual.assignments == ()

    verdict, stats = solve(pos, pruning="setmatch")
    assert verdict == Verdict.DRAW
    assert stats.nodes_examined == 1
    assert time.perf_counter() - start < 1.0


def test_2_catalog_metadata_table():
    """All fixed rows and both cycle-family formulas, exact rationals."""
    expected = {
        "Triangle": (5, 3, 1, Fraction(5, 3)),
        "Square": (7, 4, 1, Fraction(7, 4)),
        "Triangle/Line": (6, 4, 2, Fraction(6, 4)),
        "Square/Line": (8, 5, 2, Fraction(8, 5)),
        "BiTriangle": (8, 5, 2, Fraction(8, 5)),
        "BiTriangleX": (7, 5, 3, Fraction(7, 5)),
        "FlatStar": (8, 6, 4, Fraction(8, 6)),
        "BiTriangle/Line": (9, 6, 3, Fraction(9, 6)),
        "BiTriangle/BiLine": (10, 7, 4, Fraction(10, 7)),
        "BiTriangleX/Line": (8, 6, 4, Fraction(8, 6)),
        "FlatStar/Line": (8, 7, 6, Fraction(8, 7)),
        "TriTriangleX": (10, 7, 4, Fraction(10, 7)),
    }
    seen = {}
    for t in catalog():
        seen[t.name] = (t.num_markers, t.num_groups, t.reduction, t.ratio)
    assert seen == expected
    for n in range(3, 9):
        c = cycle_template(n)
        assert (c.num_markers, c.num_groups, c.reduction) == (2 * n - 1, n, 1)
        assert c.ratio == Fraction(2 * n - 1, n)
        cl = cycle_line_template(n)
        assert (cl.num_markers, cl.num_groups, cl.reduction) == (2 * n, n + 1, 2)
        assert cl.ratio == Fraction(2 * n, n + 1)


def test_3_example_fixtures_parse_verify_and_are_not_black_wins():
    """Every bundled example position: parse, Valid certificate, oracle check.

    Budget: five minutes wall time for the full sweep.
    """
    start = time.perf_counter()
    for name in EXAMPLE_FIXTURES:
        pos = parse_position(load_fixture(f"{name}.board"))
        cert = certificate_from_json(load_fixture(f"{name}.cert"))
        assert cert.position == pos, name
        assert check_certificate(cert).valid, name
        verdict, _ = solve(pos, pruning="none")
        assert verdict != Verdict.BLACK_WIN, name
    assert time.perf_counter() - start < 300


def test_4_pairing_failure_witness_with_valid_certificate():
    """The first example: no plain pairing exists, yet the certificate holds."""
    pos = parse_position(load_fixture("fig1.board"))
    live = live_black_groups(pos)
    assert len(live) == 3
    assert prove_draw(pos, templates=[]) is None
    cert = certificate_from_json(load_fixture("fig1.cert"))
    [entry] = cert.entries
    assert entry.template_name == "Triangle"
    assert verify_matching_set(pos, entry.matching).valid


def test_5_soundness_suite():
    """Zero tolerance: adversarial execution and randomized cross-checking."""
    for template in with_cycles(3, 4, 5):
        if template.num_markers <= 10:
            failures = exhaustive_marker_adversary(template.matching)
            assert failures == [], (template.name, failures[:3])

    rng = random.Random(20260826)
    specs = [
        BoardSpec(3, 3, 3),
        BoardSpec(4, 3, 3),
        BoardSpec(4, 4, 4),
        BoardSpec(5, 4, 4),
    ]
    proved = 0
    for _ in range(1000):
        spec = rng.choice(specs)
        floor = max(spec.m * spec.n - 14, 0)
        pos = random_legal_position(rng, spec, rng.randint(floor, spec.m * spec.n))
        if pos.to_move != BLACK or winner(pos) is not None:
            continue
        cert = prove_draw(pos)
        if cert is None:
            continue
        proved += 1
        assert check_certificate(cert).valid
        verdict, _ = solve(pos, pruning="none")
        assert verdict != Verdict.BLACK_WIN, pos
    assert proved > 50  # the sample actually exercises the prover


def test_6_pruning_consistency():
    """Verdict equality and node-count monotonicity across pruning modes."""
    cases = [parse_position(load_fixture(f"{n}.board")) for n in EXAMPLE_FIXTURES]
    rng = random.Random(4517)
    specs = [BoardSpec(3, 3, 3), BoardSpec(4, 4, 4), BoardSpec(4, 5, 4)]
    while len(cases) < 12 + 200:
        spec = rng.choice(specs)
        floor = max(spec.m * spec.n - 13, 2)
        pos = random_legal_position(rng, spec, rng.randint(floor, spec.m * spec.n))
        if winner(pos) is None:
            cases.append(pos)
    for pos in cases:
        results = {m: solve(pos, pruning=m) for m in PRUNING_MODES}
        verdicts = {v for v, _ in results.values()}
        assert len(verdicts) == 1, pos
        n_none = results["none"][1].nodes_examined
        n_hj = results["hj"][1].nodes_examined
        n_sm = results["setmatch"][1].nodes_examined
        assert n_sm <= n_hj <= n_none, (pos, n_none, n_hj, n_sm)


def test_7_pairing_exactness_corpus():
    """The HJ pairing, prove_draw with no templates, agrees with exhaustive
    assignment search, 500 Black-to-move cases."""

    def exhaustive(group_cells):
        def assign(i, used):
            if i == len(group_cells):
                return True
            for a, b in itertools.combinations(sorted(group_cells[i] - used), 2):
                if assign(i + 1, used | {a, b}):
                    return True
            return False

        return assign(0, frozenset())

    rng = random.Random(99)
    specs = [BoardSpec(4, 4, 4), BoardSpec(5, 4, 4), BoardSpec(5, 5, 4), BoardSpec(5, 5, 5)]
    checked = 0
    agreements_found = 0
    while checked < 500:
        spec = rng.choice(specs)
        pos = random_legal_position(rng, spec, rng.randint(4, spec.m * spec.n))
        if winner(pos) is not None or pos.to_move != BLACK:
            continue
        live = live_black_groups(pos)
        if len(live) > 6:
            continue
        checked += 1
        got = prove_draw(pos, templates=[])
        want = exhaustive([frozenset(g.cells) & frozenset(pos.empties()) for g in live])
        assert (got is not None) == want, pos
        if got is not None:
            assert got.entries == () and verify_pairing(pos, got.residual) == []
            assert [g for g, _ in got.residual.assignments] == live
            agreements_found += 1
    assert checked == 500
    assert agreements_found > 20
