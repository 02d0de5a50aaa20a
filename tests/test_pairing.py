"""Hales-Jewett pairings: exact feasibility, verification, strategy soundness."""

import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from kinarow import solver
from kinarow.board import (
    BLACK,
    cell_key,
    BoardSpec,
    Group,
    Position,
    apply_move,
    empty_position,
    group_masks,
    live_black_groups,
    parse_position,
)
from kinarow.configs import prove_draw
from kinarow.pairing import (
    Pairing,
    PairResponder,
    _match,
    pairing_exists,
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


def pairing_of(pos: Position, groups: list[Group]) -> Pairing | None:
    """smallest_pairing of the given groups' empty cells, as a Pairing."""
    m = pos.spec.m
    rooms = [sum(1 << (r * m + c) for c, r in g) & pos.empty for g in groups]
    pairs = smallest_pairing(rooms)
    if pairs is None:
        return None
    cell = lambda bit: (bit % m, bit // m)
    return Pairing(tuple((g, (cell(a), cell(b))) for g, (a, b) in zip(groups, pairs)))


def hj_pairing(pos: Position) -> Pairing | None:
    """The position's HJ pairing: prove_draw with no templates, or None."""
    cert = prove_draw(pos, templates=[])
    return None if cert is None else cert.residual


class TestFindPairing:
    def test_fig1_has_no_pairing(self):
        pos = parse_position(load_fixture("fig1.board"))
        live = live_black_groups(pos)
        assert len(live) == 3
        # 3 groups demand 6 distinct markers but only 5 empty cells serve them
        assert hj_pairing(pos) is None

    def test_single_group_gets_lowest_pair(self):
        pos = empty_position(BoardSpec(4, 1, 4))
        [group] = live_black_groups(pos)
        cert = prove_draw(pos, templates=[])
        assert cert.entries == ()
        assert cert.residual.assignments == ((group, ((0, 0), (1, 0))),)

    def test_empty_4x4_full_board_pairing_fails(self):
        # 10 groups demand 20 markers; only 16 cells exist
        pos = empty_position(BoardSpec(4, 4, 4))
        assert hj_pairing(pos) is None


class TestVerifyPairing:
    def test_valid_pairing_has_no_violations(self):
        pos = empty_position(BoardSpec(4, 2, 4))
        live = live_black_groups(pos)
        pairing = hj_pairing(pos)
        assert pairing is not None
        assert verify_pairing(pos, pairing) == []
        assert {g for g, _ in pairing.assignments} == set(live)

    def test_occupied_marker_reported(self):
        pos = empty_position(BoardSpec(4, 1, 4))
        pairing = hj_pairing(pos)
        occupied = apply_move(pos, (0, 0))
        assert any("not empty" in v for v in verify_pairing(occupied, pairing))

    def test_marker_outside_group_reported(self):
        pos = empty_position(BoardSpec(5, 2, 4))
        groups = live_black_groups(pos)
        row0 = next(g for g in groups if all(r == 0 for _, r in g))
        [(_, pair)] = pairing_of(pos, [row0]).assignments
        # borrow the pairing but verify it against a different group
        row1 = next(g for g in groups if all(r == 1 for _, r in g))
        wrong = Pairing(((row1, pair),))
        assert any("outside" in v for v in verify_pairing(pos, wrong))

    @pytest.mark.parametrize(
        "pair", [((0, 0),), ((0, 0), (1, 0), (2, 0))], ids=["1-cell", "3-cells"]
    )
    def test_pair_of_wrong_size_reported(self, pair):
        pos = empty_position(BoardSpec(4, 1, 4))
        [group] = live_black_groups(pos)
        violations = verify_pairing(pos, Pairing(((group, pair),)))
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


def greedy_pairs(rooms: list[int]) -> bool:
    """Whether rooms from the smallest, each taking its two lowest unused cells, all pair."""
    used = 0
    for room in sorted(rooms, key=int.bit_count):
        cells = [1 << b for b in range(room.bit_length()) if (room & ~used) >> b & 1]
        if len(cells) < 2:
            return False
        used |= cells[0] | cells[1]
    return True


class TestMatcher:
    # The first example beats the greedy pass: both rooms have three cells,
    # the first takes bits 0 and 1, and the second is left with bit 3 alone,
    # yet {1, 2} and {0, 3} pair them.
    @given(
        st.integers(1, 10).flatmap(
            lambda cells: st.lists(st.integers(0, (1 << cells) - 1), max_size=6)
        )
    )
    @example([0b0111, 0b1011])
    @example([])
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_exhaustive_search(self, rooms):
        expected = first_exhaustive_pairing(rooms) is not None
        paired, cells = _match(rooms)
        assert paired == pairing_exists(rooms) == expected
        if paired:
            # No cell twice, and two of them in every room.
            assert cells.bit_count() == 2 * len(rooms)
            assert first_exhaustive_pairing([r & cells for r in rooms]) is not None
        else:
            # A Hall set: the rooms inside it demand more cells than it has.
            assert 2 * sum(not r & ~cells for r in rooms) > cells.bit_count()

    def test_augmenting_search_finds_what_greedy_misses(self):
        # Seeded room lists over at most 10 cells: the matcher must find the
        # pairings that the greedy pass misses.
        rng = random.Random(26)
        missed = 0
        for _ in range(2000):
            cells = rng.randint(2, 10)
            rooms = [
                sum(1 << b for b in rng.sample(range(cells), rng.randint(2, min(5, cells))))
                for _ in range(rng.randint(1, 6))
            ]
            expected = first_exhaustive_pairing(rooms) is not None
            assert pairing_exists(rooms) == expected, rooms
            missed += expected and not greedy_pairs(rooms)
        assert missed >= 20


def naive_covering(rooms: list[int], free: int) -> bool:
    """Every Black move b has a White reply w after which the rooms missing w pair off b and w."""
    cells = [1 << i for i in range(free.bit_length()) if free >> i & 1]
    return all(
        any(w != b and pairing_exists([r & ~b & ~w for r in rooms if not r & w]) for w in cells)
        for b in cells
    )


def covered_by_probe(rooms: list[int], free: int) -> bool:
    """The setmatch probe of the solver, on every room and with no stored pairing."""
    return solver._probe(rooms, (1 << len(rooms)) - 1, free, True, {})


class TestCovering:
    SPECS = [
        BoardSpec(4, 4, 3),
        BoardSpec(4, 4, 4),
        BoardSpec(5, 4, 4),
        BoardSpec(4, 5, 4),
        BoardSpec(5, 5, 4),
        BoardSpec(6, 5, 5),
    ]

    def test_agrees_with_every_move_and_reply(self):
        # Black-to-move stone fills whose live groups all keep two empty
        # cells but have no pairing: the Hall-set and room-count filters and
        # the reuse of one pairing across Black moves must lose no covering.
        rng = random.Random(2111)
        checked = covered = 0
        for i in itertools.count():
            spec = self.SPECS[i % len(self.SPECS)]
            cells = spec.m * spec.n
            stones = rng.sample(range(cells), 2 * rng.randrange(cells // 2))
            black, white = (sum(1 << c for c in side) for side in (stones[::2], stones[1::2]))
            free = (1 << cells) - 1 & ~(black | white)
            rooms = [g & free for g in group_masks(spec) if not g & white]
            if any(r.bit_count() < 2 for r in rooms) or pairing_exists(rooms):
                continue
            expected = naive_covering(rooms, free)
            assert covered_by_probe(rooms, free) == expected, (spec, black, white)
            checked += 1
            covered += expected
            if checked == 1000:
                break
        assert 100 <= covered <= checked - 100

    def test_pairing_is_a_covering(self):
        assert covered_by_probe([0b0011, 0b1100], 0b1111)

    def test_group_one_cell_from_done_is_not_covered(self):
        # Black completes the room {bit 0} at once; no reply can follow.
        assert not covered_by_probe([0b0001, 0b0110], 0b0111)


class TestStrategySoundness:
    def pairing_instance(self):
        # Four staggered windows, each already holding two Black stones, so
        # the two markers per group are exactly what Black still needs.
        pos = parse_position("6 4 4 B\nOO.XX.\nOOXX..\nOXX..O\nXX..OO\n")
        groups = [
            Group(tuple((c + off, r) for c in range(4)))
            for r, off in ((0, 0), (1, 1), (2, 2), (3, 2))
        ]
        pairing = pairing_of(pos, groups)
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

        black_turn(pos, PairResponder([pair for _, pair in pairing.assignments], key=cell_key))
        assert failures == []

    def test_responder_always_answers_within_board(self):
        pos, groups, pairing = self.pairing_instance()
        first = sorted(pairing.marker_cells())[0]
        cur = apply_move(pos, first)
        responder = PairResponder([pair for _, pair in pairing.assignments], key=cell_key)
        reply = responder.respond(first, cur.empties())
        assert reply in cur.empties()


def test_pairing_strategy_on_drawable_board():
    # 5x5 k=4 leaves enough room: 10 of the 28 groups paired is impossible,
    # but a live subset away from White stones pairs fine.
    pos = parse_position("5 5 4 B\nOOOXX\nXXOOO\nOOXXX\nXXOO.\n.XX.O\n")
    live = live_black_groups(pos)
    pairing = hj_pairing(pos)
    if pairing is not None:
        assert verify_pairing(pos, pairing) == []
        assert {g for g, _ in pairing.assignments} == set(live)
