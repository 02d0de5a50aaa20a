"""Board model: groups, parsing, legality, moves."""

import pytest
from hypothesis import given, strategies as st

from kinarow.board import (
    BLACK,
    EMPTY,
    WHITE,
    BoardFormatError,
    BoardSpec,
    Group,
    IllegalPositionError,
    MoveError,
    Position,
    apply_move,
    cell_name,
    empty_position,
    enumerate_groups,
    live_black_groups,
    parse_cell,
    parse_position,
    render_position,
    winner,
)


def load_fixture(name: str) -> str:
    from importlib import resources

    return (resources.files("kinarow") / "fixtures" / name).read_text()


class TestGroups:
    def test_4x4_k4_has_10_groups(self):
        assert len(enumerate_groups(BoardSpec(4, 4, 4))) == 10

    def test_5x4_k4_has_17_groups(self):
        # 4 rows * 2 windows + 5 columns + 2 diagonal directions * 2 each
        assert len(enumerate_groups(BoardSpec(5, 4, 4))) == 17

    def test_3x3_k3_has_8_groups(self):
        assert len(enumerate_groups(BoardSpec(3, 3, 3))) == 8

    def test_k_larger_than_board_has_no_groups(self):
        assert enumerate_groups(BoardSpec(3, 3, 5)) == ()

    def test_groups_are_k_consecutive_collinear_cells(self):
        for g in enumerate_groups(BoardSpec(5, 4, 4)):
            assert len(g) == 4
            (c0, r0), (c1, r1) = g.cells[0], g.cells[1]
            dc, dr = c1 - c0, r1 - r0
            for i, (c, r) in enumerate(g.cells):
                assert (c, r) == (c0 + i * dc, r0 + i * dr)

    def test_non_collinear_group_rejected(self):
        with pytest.raises(ValueError):
            Group(((0, 0), (1, 0), (2, 1)))


class TestParsing:
    def test_empty_4x4_round_trip(self):
        text = "4 4 4 B\n....\n....\n....\n....\n"
        pos = parse_position(text)
        assert pos.spec == BoardSpec(4, 4, 4)
        assert pos.to_move == BLACK
        assert pos.count(EMPTY) == 16
        assert render_position(pos) == text

    def test_fig1_fixture_contents(self):
        pos = parse_position(load_fixture("fig1.board"))
        assert pos.count(BLACK) == pos.count(WHITE) == 7
        for name in ("a1", "a4", "c1", "c2", "d1"):
            assert pos.is_empty(parse_cell(name)), name

    def test_imbalanced_counts_rejected(self):
        with pytest.raises(IllegalPositionError):
            parse_position("4 4 4 B\n....\n....\n.O..\nXX..\n")

    def test_bad_header_rejected(self):
        with pytest.raises(BoardFormatError):
            parse_position("four 4 4 B\n....\n....\n....\n....\n")

    def test_bad_cell_char_rejected(self):
        with pytest.raises(BoardFormatError):
            parse_position("3 3 3 B\n...\n.?.\n...\n")

    def test_boards_wider_than_26_columns_rejected(self):
        # Cell names run from column a to z.
        assert BoardSpec(26, 1, 2).m == 26
        with pytest.raises(ValueError):
            BoardSpec(27, 1, 2)
        with pytest.raises(BoardFormatError):
            parse_position("27 1 2 B\n" + "." * 27 + "\n")

    def test_top_row_first(self):
        pos = parse_position("3 3 3 W\nX..\n...\n...\n")
        assert pos.at((0, 2)) == BLACK

    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_render_parse_round_trip(self, m, n, data):
        spec = BoardSpec(m, n, 2)
        pos = empty_position(spec)
        plies = data.draw(st.integers(0, m * n))
        for _ in range(plies):
            empties = pos.empties()
            if not empties or winner(pos):
                break
            pos = apply_move(pos, data.draw(st.sampled_from(empties)))
        assert parse_position(render_position(pos)) == pos


class TestCells:
    def test_cell_name_examples(self):
        assert cell_name((0, 0)) == "a1"
        assert cell_name((2, 1)) == "c2"

    @given(st.tuples(st.integers(0, 25), st.integers(0, 98)))
    def test_cell_name_round_trip(self, cell):
        assert parse_cell(cell_name(cell)) == cell

    @pytest.mark.parametrize("name", ["é1", "b\uff19"], ids=["latin-e-acute", "fullwidth-nine"])
    def test_non_ascii_cell_name_rejected(self, name):
        # Only ASCII letters and digits name a cell.
        with pytest.raises(ValueError, match="bad cell name"):
            parse_cell(name)


class TestMoves:
    def test_apply_move_alternates(self):
        pos = empty_position(BoardSpec(4, 4, 4))
        nxt = apply_move(pos, (0, 0))
        assert nxt.at((0, 0)) == BLACK
        assert nxt.count(BLACK) == 1 and nxt.to_move == WHITE
        assert pos.is_empty((0, 0))  # original untouched

    def test_occupied_cell_rejected(self):
        pos = apply_move(empty_position(BoardSpec(3, 3, 3)), (1, 1))
        with pytest.raises(MoveError):
            apply_move(pos, (1, 1))

    def test_winner_detection(self):
        pos = parse_position("3 3 3 W\n.O.\n.O.\nXXX\n")
        assert winner(pos) == BLACK


class TestLiveGroups:
    def test_empty_board_all_groups_live(self):
        pos = empty_position(BoardSpec(4, 4, 4))
        assert len(live_black_groups(pos)) == 10

    def test_white_everywhere_kills_all_groups(self):
        # White holds all of row 2 plus the rest of column a: every line hit
        pos = parse_position("4 4 4 B\nOX..\nOXXX\nOOOO\nOXXX\n")
        assert live_black_groups(pos) == []

    def test_black_stones_do_not_kill_groups(self):
        pos = parse_position("3 3 3 W\n...\n.X.\n...\n")
        assert len(live_black_groups(pos)) == 8


def grid_of(text: str) -> dict[tuple[int, int], str]:
    """The cells of render_position's text, read as characters: (col, row) -> state."""
    _, *lines = text.splitlines()
    grid = {}
    for r, line in enumerate(reversed(lines)):
        for c, ch in enumerate(line):
            grid[(c, r)] = ch
    return grid


class TestMaskPosition:
    @pytest.mark.parametrize(
        "black,white,to_move,message",
        [
            (-1, 0, WHITE, "negative"),
            (1, -2, BLACK, "negative"),
            (1 << 9, 0, WHITE, "beyond the board"),
            (1, 1 << 12, BLACK, "beyond the board"),
            (1, 1, BLACK, "both"),
        ],
        ids=["negative-black", "negative-white", "black-off-board", "white-off-board", "overlap"],
    )
    def test_bad_masks_rejected(self, black, white, to_move, message):
        with pytest.raises(BoardFormatError, match=message):
            Position(BoardSpec(3, 3, 3), black, white, to_move)

    def test_masks_of_a_parsed_board(self):
        pos = parse_position("3 2 3 W\nX..\n.OX\n")
        assert (pos.black, pos.white, pos.empty) == (0b001100, 0b000010, 0b110001)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(2, 4), st.data())
    def test_board_api_agrees_with_a_character_grid(self, m, n, k, data):
        # Play goes on past a completed group, so winner's order is tested too.
        spec = BoardSpec(m, n, k)
        pos = empty_position(spec)
        for _ in range(data.draw(st.integers(0, m * n))):
            pos = apply_move(pos, data.draw(st.sampled_from(pos.empties())))
        grid = grid_of(render_position(pos))
        cells = [(c, r) for r in range(n) for c in range(m)]
        assert [pos.at(cell) for cell in cells] == [grid[cell] for cell in cells]
        for state in (EMPTY, BLACK, WHITE):
            assert pos.count(state) == list(grid.values()).count(state)
        assert pos.empties() == [cell for cell in cells if grid[cell] == EMPTY]
        groups = enumerate_groups(spec)
        live = [g for g in groups if all(grid[cell] != WHITE for cell in g)]
        assert live_black_groups(pos) == live
        done = [grid[g.cells[0]] for g in groups if len({grid[cell] for cell in g}) == 1]
        expected = next((s for s in done if s != EMPTY), None)
        assert winner(pos) == expected


def test_position_is_immutable():
    pos = empty_position(BoardSpec(3, 3, 3))
    with pytest.raises(AttributeError):
        pos.to_move = WHITE  # type: ignore[misc]
