"""Matching sets: verification, symmetry expansion, adversarial execution."""

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from kinarow.board import BLACK, apply_move, live_black_groups, parse_position
from kinarow.configs import catalog, template_by_name
from kinarow.setmatch import (
    Covering,
    MatchingSet,
    MatchResponder,
    exhaustive_marker_adversary,
    expand_coverings,
    symmetry_closure,
    verify_abstract,
    verify_matching_set,
)
from tests.test_acceptance import with_cycles
from tests.test_board import load_fixture


def triangle_set() -> MatchingSet:
    """Two lines crossing at c, with markers a, b on one and d, e around c."""
    return MatchingSet(
        markers=frozenset("abcde"),
        groups=(frozenset("ab"), frozenset("acd"), frozenset("bec")),
        coverings=(
            Covering("a", "b", (("c", "d"),)),
            Covering("c", "a", (("b", "e"),)),
            Covering("d", "a", (("b", "c"),)),
        ),
        symmetry=({"a": "b", "b": "a", "d": "e", "e": "d"},),
    )


class TestVerifyAbstract:
    def test_triangle_is_valid(self):
        assert verify_abstract(triangle_set()).valid

    def test_missing_covering_reported(self):
        m = triangle_set()
        broken = MatchingSet(m.markers, m.groups, m.coverings[:1], ())
        result = verify_abstract(broken)
        assert not result.valid
        assert any("no covering" in reason for _, reason in result.violations)

    def test_wrong_remainder_reported(self):
        m = triangle_set()
        bad = MatchingSet(
            m.markers,
            m.groups,
            (Covering("a", "b", (("c", "c"),)), m.coverings[1]),
            m.symmetry,
        )
        assert not verify_abstract(bad).valid

    def test_non_marker_first_move_reported(self):
        m = triangle_set()
        bad = MatchingSet(
            m.markers,
            m.groups,
            (Covering("z", "b", (("c", "d"),)),) + m.coverings[1:],
            m.symmetry,
        )
        assert not verify_abstract(bad).valid

    @pytest.mark.parametrize(
        "covering,expected",
        [
            (
                Covering("a", "a", (("c", "d"),)),
                [("a", "response equals the first move"),
                 ("b", "response equals the first move")],
            ),
            (
                Covering("a", "b", (("b", "c"),)),
                [("a", "pair marker b reused"), ("b", "pair marker a reused")],
            ),
            (
                Covering("a", "b", (("c", "d"), ("d", "e"))),
                [("a", "pair marker d reused"), ("b", "pair marker e reused")],
            ),
            (
                Covering("a", "b", (("c", "c"),)),
                [("a", "degenerate pair"), ("b", "degenerate pair")],
            ),
        ],
        ids=["response-is-first-move", "pair-reuses-response", "pairs-share-a-marker",
             "degenerate-pair"],
    )
    def test_bad_covering_reason(self, covering, expected):
        # The bad covering replaces the one for a; b has no covering of its
        # own, so its covering is the symmetric image and has the same fault.
        m = triangle_set()
        bad = MatchingSet(m.markers, m.groups, (covering,) + m.coverings[1:], m.symmetry)
        assert verify_abstract(bad).violations == tuple(
            (f"matching set/covering {x}", reason) for x, reason in expected
        )

    def test_every_bundled_template_is_valid(self):
        for template in with_cycles(3, 4, 5, 6):
            result = verify_abstract(template.matching)
            assert result.valid, (template.name, result.violations)


class TestSymmetry:
    def test_closure_contains_identity(self):
        nodes = frozenset("ab")
        perms = symmetry_closure(nodes, [])
        assert perms == [{"a": "a", "b": "b"}]

    def test_closure_of_swap_has_order_two(self):
        nodes = frozenset("abcd")
        perms = symmetry_closure(nodes, [{"a": "b", "b": "a"}])
        assert len(perms) == 2

    def test_two_generators_compose(self):
        nodes = frozenset("abc")
        perms = symmetry_closure(
            nodes, [{"a": "b", "b": "a"}, {"b": "c", "c": "b"}]
        )
        assert len(perms) == 6  # the full symmetric group on three nodes

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            symmetry_closure(frozenset("ab"), [{"a": "b"}])

    def test_expansion_covers_every_marker(self):
        for template in catalog():
            cover_map, violations = expand_coverings(
                template.matching, name=str
            )
            assert violations == [], template.name
            assert set(cover_map) == set(template.matching.markers), template.name


class TestCoverageRatio:
    def test_triangle_ratio(self):
        assert template_by_name("Triangle").ratio == Fraction(5, 3)

    def test_every_template_beats_plain_pairing(self):
        for template in with_cycles(3, 5, 8):
            assert template.ratio < 2


class TestConcreteVerification:
    def test_fig1_triangle_matching_set_valid(self):
        pos = parse_position(load_fixture("fig1.board"))
        from kinarow.certio import certificate_from_json

        cert = certificate_from_json(load_fixture("fig1.cert"))
        [entry] = cert.entries
        assert entry.template_name == "Triangle"
        assert verify_matching_set(pos, entry.matching).valid

    def test_occupied_marker_invalidates(self):
        pos = parse_position(load_fixture("fig1.board"))
        from kinarow.certio import certificate_from_json

        cert = certificate_from_json(load_fixture("fig1.cert"))
        [entry] = cert.entries
        marker = sorted(entry.matching.markers)[0]
        occupied = apply_move(apply_move(pos, marker), sorted(entry.matching.markers)[1])
        result = verify_matching_set(occupied, entry.matching)
        assert not result.valid

    def test_white_to_move_rejected(self):
        pos = parse_position(load_fixture("fig1.board"))
        from kinarow.certio import certificate_from_json

        cert = certificate_from_json(load_fixture("fig1.cert"))
        [entry] = cert.entries
        flipped = apply_move(pos, sorted(pos.empties())[-1])
        assert flipped.to_move != BLACK
        assert not verify_matching_set(flipped, entry.matching).valid


class TestAdversary:
    @pytest.mark.parametrize(
        "name", ["Triangle", "Square", "BiTriangleX", "FlatStar", "CycleN(4)"]
    )
    def test_exhaustive_black_never_completes_a_group(self, name):
        template = template_by_name(name)
        assert exhaustive_marker_adversary(template.matching) == []

    def test_broken_covering_is_caught(self):
        # Answering a with d (not the partner b) leaves ab open for Black
        m = triangle_set()
        bad = MatchingSet(
            m.markers,
            m.groups,
            (Covering("a", "d", (("c", "e"),)),) + m.coverings[1:],
            m.symmetry,
        )
        assert exhaustive_marker_adversary(bad) != []


class TestMatchResponder:
    """The Triangle's coverings answer a with b, b with a, c and d with a, e with b."""

    def test_non_marker_move_gets_lowest_empty_non_marker(self):
        resp = MatchResponder(template_by_name("Triangle").matching)
        assert resp.respond("z", set("abcdefg")) == "f"

    def test_only_markers_left_gets_lowest_covering_response(self):
        # The reversed key puts e lowest among the markers and b lowest
        # among the responses; with neither response empty, the lowest empty
        # cell, e, is played.
        matching = template_by_name("Triangle").matching
        reversed_key = lambda n: -ord(n)
        assert MatchResponder(matching, key=reversed_key).respond("z", set("abcde")) == "b"
        assert MatchResponder(matching, key=reversed_key).respond("z", set("cde")) == "e"

    def test_taken_response_falls_back_to_the_pair_responder(self):
        # a's covering answers with b and pairs c with d.  With b taken, the
        # pair responder plays e, the empty cell outside the pair, and then
        # answers c with d.
        resp = MatchResponder(template_by_name("Triangle").matching)
        assert resp.respond("a", set("cde")) == "e"
        assert resp.respond("c", set("d")) == "d"
