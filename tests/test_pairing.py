"""Hales-Jewett pairings: exact feasibility, verification, strategy soundness."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from kinarow.board import (
    BLACK,
    cell_key,
    BoardSpec,
    Group,
    MoveError,
    apply_move,
    empty_position,
    live_black_groups,
    parse_position,
)
from kinarow.pairing import (
    DeadGroupError,
    Pairing,
    PairResponder,
    find_hj_pairing,
    smallest_pairing,
    verify_pairing,
)
from tests.test_board import load_fixture


def first_exhaustive_pairing(rooms: list[int]) -> list[tuple[int, int]] | None:
    """Independent oracle: try every assignment of 2 distinct bits per room,
    rooms in order and each room's pairs in lexicographic order, and return
    the first that works."""

    def assign(i: int, used: int) -> list[tuple[int, int]] | None:
        if i == len(rooms):
            return []
        free = [b for b in range(rooms[i].bit_length()) if (rooms[i] & ~used) >> b & 1]
        for a, b in itertools.combinations(free, 2):
            rest = assign(i + 1, used | 1 << a | 1 << b)
            if rest is not None:
                return [(a, b)] + rest
        return None

    return assign(0, 0)


class TestFindPairing:
    def test_fig1_has_no_pairing(self):
        pos = parse_position(load_fixture("fig1.board"))
        live = live_black_groups(pos)
        assert len(live) == 3
        # 3 groups demand 6 distinct markers but only 5 empty cells serve them
        assert find_hj_pairing(pos, live) is None

    def test_single_group_gets_lowest_pair(self):
        pos = empty_position(BoardSpec(4, 1, 4))
        [group] = live_black_groups(pos)
        pairing = find_hj_pairing(pos, [group])
        assert pairing.pair_for(group) == ((0, 0), (1, 0))

    def test_empty_4x4_full_board_pairing_fails(self):
        # 10 groups demand 20 markers; only 16 cells exist
        pos = empty_position(BoardSpec(4, 4, 4))
        assert find_hj_pairing(pos, live_black_groups(pos)) is None

    def test_dead_group_rejected(self):
        pos = parse_position("3 3 3 B\n...\n...\nXO.\n")
        dead = next(g for g in __import__("kinarow").enumerate_groups(pos.spec)
                    if (1, 0) in g)
        with pytest.raises(DeadGroupError):
            find_hj_pairing(pos, [dead])

    def test_off_board_group_rejected(self):
        # (4, 0) lies off the 4-wide board, and its bit 0*4+4 would be a2's.
        pos = empty_position(BoardSpec(4, 2, 4))
        with pytest.raises(MoveError):
            find_hj_pairing(pos, [Group(tuple((c, 0) for c in range(1, 5)))])


class TestVerifyPairing:
    def test_valid_pairing_has_no_violations(self):
        pos = empty_position(BoardSpec(4, 2, 4))
        live = live_black_groups(pos)
        pairing = find_hj_pairing(pos, live)
        assert pairing is not None
        assert verify_pairing(pos, pairing, live) == []

    def test_occupied_marker_reported(self):
        pos = empty_position(BoardSpec(4, 1, 4))
        [group] = live_black_groups(pos)
        pairing = find_hj_pairing(pos, [group])
        occupied = apply_move(pos, (0, 0))
        assert any("not empty" in v for v in verify_pairing(occupied, pairing, [group]))

    def test_marker_outside_group_reported(self):
        pos = empty_position(BoardSpec(5, 2, 4))
        groups = live_black_groups(pos)
        row0 = next(g for g in groups if all(r == 0 for _, r in g))
        pairing = find_hj_pairing(pos, [row0])
        # borrow the pairing but verify it against a different group
        row1 = next(g for g in groups if all(r == 1 for _, r in g))
        from kinarow.pairing import Pairing

        wrong = Pairing(((row1, pairing.pair_for(row0)),))
        assert any("outside" in v for v in verify_pairing(pos, wrong, [row1]))

    @pytest.mark.parametrize(
        "pair", [((0, 0),), ((0, 0), (1, 0), (2, 0))], ids=["1-cell", "3-cells"]
    )
    def test_pair_of_wrong_size_reported(self, pair):
        pos = empty_position(BoardSpec(4, 1, 4))
        [group] = live_black_groups(pos)
        violations = verify_pairing(pos, Pairing(((group, pair),)), [group])
        assert f"group {group}: pair holds {len(pair)} cells, not 2" in violations


class TestHallCondition:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matcher_agrees_with_exhaustive_search(self, data):
        n_groups = data.draw(st.integers(1, 5))
        rooms = [
            sum(1 << b for b in data.draw(st.sets(st.integers(0, 7), min_size=2, max_size=5)))
            for _ in range(n_groups)
        ]
        got = smallest_pairing(rooms)
        # Bundled certificates and derived coverings depend on this order.
        assert got == first_exhaustive_pairing(rooms)
        if got is not None:
            used = [b for pair in got for b in pair]
            assert len(used) == len(set(used)) == 2 * n_groups
            for room, (a, b) in zip(rooms, got):
                assert a < b and room >> a & 1 and room >> b & 1


class TestStrategySoundness:
    def pairing_instance(self):
        # Four staggered windows, each already holding two Black stones, so
        # the two markers per group are exactly what Black still needs.
        pos = parse_position("6 4 4 B\nOO.XX.\nOOXX..\nOXX..O\nXX..OO\n")
        groups = [
            Group(tuple((c + off, r) for c in range(4)))
            for r, off in ((0, 0), (1, 1), (2, 2), (3, 2))
        ]
        pairing = find_hj_pairing(pos, groups)
        assert pairing is not None
        assert len(pairing.marker_cells()) == 8
        return pos, groups, pairing

    def test_all_black_marker_orders_never_complete_a_group(self):
        import copy

        pos, groups, pairing = self.pairing_instance()
        markers = pairing.marker_cells()
        failures: list = []

        def black_turn(cur, responder):
            options = [c for c in cur.empties() if c in markers]
            if not options:
                return
            for move in options:
                nxt = apply_move(cur, move)
                if any(all(nxt.at(c) == BLACK for c in g) for g in groups):
                    failures.append(move)
                    continue
                empties = nxt.empties()
                if not empties:
                    continue
                mirror = copy.deepcopy(responder)
                nxt = apply_move(nxt, mirror.respond(move, empties))
                black_turn(nxt, mirror)

        black_turn(pos, PairResponder(pairing.pairs(), key=cell_key))
        assert failures == []

    def test_responder_always_answers_within_board(self):
        pos, groups, pairing = self.pairing_instance()
        first = sorted(pairing.marker_cells())[0]
        cur = apply_move(pos, first)
        responder = PairResponder(pairing.pairs(), key=cell_key)
        reply = responder.respond(first, cur.empties())
        assert reply in cur.empties()


def test_pairing_strategy_on_drawable_board():
    # 5x5 k=4 leaves enough room: 10 of the 28 groups paired is impossible,
    # but a live subset away from White stones pairs fine.
    pos = parse_position("5 5 4 B\nOOOXX\nXXOOO\nOOXXX\nXXOO.\n.XX.O\n")
    live = live_black_groups(pos)
    pairing = find_hj_pairing(pos, live)
    if pairing is not None:
        assert verify_pairing(pos, pairing, live) == []
