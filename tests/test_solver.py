"""Solver: exact values, pruning consistency, transposition table, stats."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

import kinarow.configs
from kinarow.board import (
    BLACK,
    WHITE,
    BoardSpec,
    IllegalPositionError,
    Position,
    apply_move,
    empty_position,
    group_masks,
    live_groups,
    parse_position,
    winner,
)
from kinarow.pairing import pairing_exists
from kinarow.solver import (
    GUARD,
    PRUNING_MODES,
    SearchGuardError,
    Verdict,
    _probe,
    format_report,
    move_order,
    solve,
    verify_draw_claims,
)
from tests.test_board import load_fixture


# Per fixture, one (verdict, nodes_examined, table_hits, prune_events) entry
# per pruning mode, in PRUNING_MODES order ("none", "hj", "setmatch").
PINNED_COUNTERS = {
    "empty4x4": [
        ("Draw", 24556, 6540, {}),
        ("Draw", 108, 0, {"hj": 4, "opponent_pairing": 78}),
        ("Draw", 1, 0, {"setmatch": 1}),
    ],
    "fig1": [
        ("Draw", 13, 0, {}),
        ("Draw", 6, 0, {"hj": 2, "opponent_pairing": 1}),
        ("Draw", 1, 0, {"setmatch": 1}),
    ],
    "fig2": [
        ("Draw", 70, 8, {}),
        ("Draw", 18, 0, {"hj": 2, "opponent_pairing": 8}),
        ("Draw", 18, 0, {"setmatch": 2, "opponent_pairing": 8}),
    ],
    "fig3": [
        ("Draw", 29, 2, {}),
        ("Draw", 8, 0, {"hj": 2, "opponent_pairing": 3}),
        ("Draw", 1, 0, {"setmatch": 1}),
    ],
    "fig4": [
        ("Draw", 105, 6, {}),
        ("Draw", 28, 0, {"hj": 3, "opponent_pairing": 11}),
        ("Draw", 28, 0, {"setmatch": 3, "opponent_pairing": 11}),
    ],
    "fig5": [
        ("Draw", 75, 6, {}),
        ("Draw", 24, 0, {"hj": 1, "opponent_pairing": 14}),
        ("Draw", 24, 0, {"setmatch": 1, "opponent_pairing": 14}),
    ],
    "fig7": [
        ("Draw", 93, 11, {}),
        ("Draw", 25, 0, {"hj": 4, "opponent_pairing": 7}),
        ("Draw", 25, 0, {"setmatch": 4, "opponent_pairing": 7}),
    ],
    "fig8": [
        ("Draw", 128, 11, {}),
        ("Draw", 29, 0, {"hj": 4, "opponent_pairing": 12}),
        ("Draw", 29, 0, {"setmatch": 4, "opponent_pairing": 12}),
    ],
    "fig9a": [
        ("Draw", 136, 10, {}),
        ("Draw", 25, 0, {"hj": 3, "opponent_pairing": 13}),
        ("Draw", 25, 0, {"setmatch": 3, "opponent_pairing": 13}),
    ],
    "fig9b": [
        ("Draw", 804, 102, {}),
        ("Draw", 31, 0, {"hj": 5, "opponent_pairing": 15}),
        ("Draw", 31, 0, {"setmatch": 5, "opponent_pairing": 15}),
    ],
    "fig9c": [
        ("Draw", 111, 17, {}),
        ("Draw", 24, 0, {"hj": 3, "opponent_pairing": 8}),
        ("Draw", 24, 0, {"setmatch": 3, "opponent_pairing": 8}),
    ],
    "fig10": [
        ("Draw", 118, 11, {}),
        ("Draw", 21, 0, {"hj": 5, "opponent_pairing": 6}),
        ("Draw", 21, 0, {"setmatch": 5, "opponent_pairing": 6}),
    ],
    "fig11": [
        ("WhiteWin", 612, 153, {}),
        ("WhiteWin", 522, 115, {"opponent_pairing": 29}),
        ("WhiteWin", 522, 115, {"opponent_pairing": 29}),
    ],
}


# Larger and White-to-move trees: (verdict, nodes_examined, table_hits,
# prune_events, cert_calls) per board and pruning mode.  A table key that
# confused the sides at a White-to-move root would move these.
WHITE_4X4 = "4 4 4 W\n....\n..X.\nX...\n.O..\n"
# White's first move makes a double threat at WHITE_5X4 and, since the root
# order weighs the stones in each live group, at WHITE_WIN_5X4 too: their trees
# stop before the table.  This White-to-move win reaches it in every mode.
WHITE_5X4 = "5 4 4 W\n.....\n..X..\nXXXO.\n.OO..\n"
WHITE_WIN_5X4 = "5 4 4 W\n...X.\n.O.O.\n.X...\n....X\n"
WHITE_TABLE_5X4 = "5 4 4 W\n.XO..\n...O.\nXX..X\nX.O.O\n"
EMPTY_5X4 = "5 4 4 B\n.....\n.....\n.....\n.....\n"
PINNED_TREES = {
    "white4x4-none": (WHITE_4X4, "none", ("Draw", 1928, 313, {}, 0)),
    "white4x4-hj": (WHITE_4X4, "hj", ("Draw", 62, 0, {"hj": 2, "opponent_pairing": 48}, 50)),
    "white4x4-setmatch": (
        WHITE_4X4, "setmatch", ("Draw", 62, 0, {"setmatch": 2, "opponent_pairing": 48}, 50)
    ),
    "white5x4-none": (WHITE_5X4, "none", ("WhiteWin", 2, 0, {}, 0)),
    "white5x4-hj": (WHITE_5X4, "hj", ("WhiteWin", 2, 0, {}, 0)),
    "white5x4-setmatch": (WHITE_5X4, "setmatch", ("WhiteWin", 2, 0, {}, 0)),
    "whitewin5x4-none": (WHITE_WIN_5X4, "none", ("WhiteWin", 2, 0, {}, 0)),
    "whitewin5x4-hj": (WHITE_WIN_5X4, "hj", ("WhiteWin", 2, 0, {}, 0)),
    "whitewin5x4-setmatch": (WHITE_WIN_5X4, "setmatch", ("WhiteWin", 2, 0, {}, 0)),
    "whitetable5x4-none": (WHITE_TABLE_5X4, "none", ("WhiteWin", 63, 2, {}, 0)),
    "whitetable5x4-hj": (
        WHITE_TABLE_5X4, "hj", ("WhiteWin", 47, 2, {"hj": 1, "opponent_pairing": 10}, 23)
    ),
    "whitetable5x4-setmatch": (
        WHITE_TABLE_5X4, "setmatch",
        ("WhiteWin", 47, 2, {"setmatch": 1, "opponent_pairing": 10}, 23),
    ),
    "empty4x4-hj": (
        "4 4 4 B\n....\n....\n....\n....\n", "hj",
        ("Draw", 108, 0, {"hj": 4, "opponent_pairing": 78}, 76),
    ),
    # The largest pruned solves here, about 0.1 s each; the plain one takes
    # 276,974 nodes.
    "empty5x4-hj": (
        EMPTY_5X4, "hj", ("Draw", 7085, 664, {"hj": 278, "opponent_pairing": 1965}, 10089)
    ),
    "empty5x4-setmatch": (
        EMPTY_5X4, "setmatch",
        ("Draw", 6342, 636, {"setmatch": 313, "opponent_pairing": 1370}, 8642),
    ),
}


# Certificate probes per fixture, in PRUNING_MODES order: how often solve asks
# for a certificate, whatever the answer.
PINNED_CERT_CALLS = {
    "empty4x4": [0, 76, 1],
    "fig1": [0, 4, 1],
    "fig2": [0, 10, 10],
    "fig3": [0, 6, 1],
    "fig4": [0, 16, 16],
    "fig5": [0, 14, 14],
    "fig7": [0, 10, 10],
    "fig8": [0, 15, 15],
    "fig9a": [0, 16, 16],
    "fig9b": [0, 20, 20],
    "fig9c": [0, 9, 9],
    "fig10": [0, 11, 11],
    "fig11": [0, 69, 69],
}


def black_can_complete(groups: tuple[int, ...], black: int, white: int, board: int) -> bool:
    """Independent oracle: whether Black, to move, can force a complete group
    of `groups` (cell masks) while White only blocks (memoised per search)."""
    memo: dict[tuple[int, int], bool] = {}

    def cells(mask: int):
        return [1 << i for i in range(mask.bit_length()) if mask >> i & 1]

    def wins(black: int, white: int, live: list[int]) -> bool:
        if not live:
            return False
        if (black, white) not in memo:
            free = board & ~(black | white)
            memo[black, white] = any(
                any(g & ~black == b for g in live)
                or bool(free & ~b) and all(
                    wins(black | b, white | w, [g for g in live if not g & w])
                    for w in cells(free & ~b)
                )
                for b in cells(free)
            )
        return memo[black, white]

    return wins(black, white, [g for g in groups if not g & white])


def black_probe(pos: Position, mode: str) -> bool:
    """The solver's probe of pos with Black to move in pruning mode `mode`."""
    spec = pos.spec
    return _probe(
        group_masks(spec), live_groups(spec, pos.white), pos.empty, mode == "setmatch", {}
    )


@functools.lru_cache(maxsize=1 << 16)
def plain_minimax(pos: Position) -> int:
    """Independent oracle: unpruned minimax, +1 = side to move wins (memoised)."""
    w = winner(pos)
    if w is not None:
        return -1  # previous mover already won
    empties = pos.empties()
    if not empties:
        return 0
    return max(-plain_minimax(apply_move(pos, c)) for c in empties)


def verdict_of(pos: Position, score: int) -> Verdict:
    if score == 0:
        return Verdict.DRAW
    if (score > 0) == (pos.to_move == BLACK):
        return Verdict.BLACK_WIN
    return Verdict.WHITE_WIN


def random_position(rng: random.Random, spec: BoardSpec, plies: int) -> Position:
    pos = empty_position(spec)
    for _ in range(plies):
        empties = pos.empties()
        if not empties or winner(pos) is not None:
            break
        pos = apply_move(pos, rng.choice(empties))
    return pos


def random_fill(rng: random.Random, spec: BoardSpec, empties: int) -> Position:
    """Stones on random cells, Black's and White's alternately, leaving empties empty."""
    cells = list(spec.cells())
    stones = rng.sample(cells, len(cells) - empties)
    black, white = (
        sum(1 << r * spec.m + c for c, r in side) for side in (stones[::2], stones[1::2])
    )
    return Position(spec, black, white, BLACK if len(stones) % 2 == 0 else WHITE)


class TestExactValues:
    def test_empty_3x3_is_a_draw(self):
        verdict, stats = solve(empty_position(BoardSpec(3, 3, 3)))
        assert verdict == Verdict.DRAW
        assert stats.nodes_examined >= 1

    def test_immediate_win_in_one(self):
        pos = parse_position("3 3 3 B\nOO.\n...\nXX.\n")
        verdict, _ = solve(pos)
        assert verdict == Verdict.BLACK_WIN

    def test_white_win_detected(self):
        pos = parse_position("3 3 3 W\nX..\nOO.\nX.X\n")
        verdict, _ = solve(pos)
        assert verdict == Verdict.WHITE_WIN

    def test_1xk_board_black_wins(self):
        # Black alone on a 1-wide board races to k unopposed? No: White
        # answers inside the single group, so a 5-cell line with k=4 is drawn.
        verdict, _ = solve(empty_position(BoardSpec(5, 1, 4)))
        assert verdict == Verdict.DRAW

    def test_guard_rejects_huge_boards(self):
        with pytest.raises(SearchGuardError):
            solve(empty_position(BoardSpec(6, 5, 4)))

    def test_guard_is_26_empty_cells(self):
        # Both checks end before any search: 27 empty cells raise at once, and
        # at 26 Black's open row 1 wins at the root.
        one_stone = parse_position("7 4 3 W\n.......\n.......\n.......\nX......\n")
        with pytest.raises(SearchGuardError, match="^27 empty cells exceeds guard of 26$"):
            solve(one_stone)
        at_guard = parse_position("6 5 3 B\nOO....\n......\n......\n......\nXX....\n")
        assert at_guard.empty.bit_count() == GUARD == 26
        verdict, stats = solve(at_guard)
        assert (verdict, stats.nodes_examined) == (Verdict.BLACK_WIN, 1)


class TestAgainstPlainMinimax:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_alpha_beta_matches_minimax_on_3x4(self, data):
        # Every pruning mode on a random position and on one random move
        # later, so that both sides are to move.
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        spec = data.draw(
            st.sampled_from([BoardSpec(3, 3, 3), BoardSpec(3, 4, 3), BoardSpec(4, 3, 3)])
        )
        # keep the unpruned oracle tractable: at most 8 empty cells
        min_plies = spec.m * spec.n - 8
        pos = random_position(rng, spec, data.draw(st.integers(max(min_plies, 1), 8)))
        if winner(pos) is not None:
            return
        line = [pos]
        if pos.empties():
            line.append(apply_move(pos, rng.choice(pos.empties())))
        for p in line:
            if winner(p) is not None:
                continue
            expected = verdict_of(p, plain_minimax(p))
            for mode in PRUNING_MODES:
                verdict, _ = solve(p, pruning=mode)
                assert verdict == expected, (mode, p)

    @pytest.mark.parametrize("spec", [BoardSpec(4, 4, 4), BoardSpec(5, 4, 4)], ids=["4x4", "5x4"])
    def test_alpha_beta_matches_minimax_on_k4(self, spec):
        # Seeded positions with 4 to 7 empty cells in which the mover cannot
        # complete a group at once, so the search decides them, not the root:
        # one for each side to move, each pair (the mover has a live group,
        # its opponent has one) and each value that pair allows, since a side
        # without a live group cannot win.  Where a side has none, solve's
        # live-group bounds fire at the root; elsewhere they fire below it.
        todo = {
            (side, own_live, opp_live, value)
            for side in (BLACK, WHITE)
            for own_live in (False, True)
            for opp_live in (False, True)
            for value in (-1, 0, 1)
            if (own_live or value < 1) and (opp_live or value > -1)
        }
        rng = random.Random(12)
        groups = group_masks(spec)
        found = []
        while todo:
            pos = random_fill(rng, spec, rng.randint(4, 7))
            if winner(pos) is not None:
                continue
            own, opp = (pos.black, pos.white) if pos.to_move == BLACK else (pos.white, pos.black)
            free = ~(own | opp)
            if any(not g & opp and (g & free).bit_count() == 1 for g in groups):
                continue
            key = (
                pos.to_move,
                any(not g & opp for g in groups),
                any(not g & own for g in groups),
            )
            if all(key + (value,) not in todo for value in (-1, 0, 1)):
                continue
            key += (plain_minimax(pos),)
            if key in todo:
                todo.remove(key)
                found.append(pos)
        for pos in found:
            expected = verdict_of(pos, plain_minimax(pos))
            for mode in PRUNING_MODES:
                verdict, _ = solve(pos, pruning=mode)
                assert verdict == expected, (mode, pos)


def dominated_cells(pos: Position) -> tuple[set[int], set[int]]:
    """The empty cells (as bits) that negamax's move rule skips at pos, read
    straight off the group masks: those in no live group, and those whose
    only live group g has another empty cell in a further live group or,
    sharing g as its only live group, at a lower bit."""
    live = [g for g in group_masks(pos.spec) if not g & pos.black or not g & pos.white]
    empties = [1 << i for i in range(pos.spec.m * pos.spec.n) if pos.empty >> i & 1]

    def through(cell: int) -> list[int]:
        return [g for g in live if g & cell]

    passes = {c for c in empties if not through(c)}
    one_group = {
        c for c in empties if len(through(c)) == 1 and any(
            d != c and d & through(c)[0] and (len(through(d)) > 1 or d < c) for d in empties
        )
    }
    return passes, one_group


class TestDominatedMoves:
    # Boards whose rows are longer than k, so that a group's end cell can lie
    # in that group alone and the one-live-group rule has cells to skip.
    SPECS = [BoardSpec(5, 4, 4), BoardSpec(6, 4, 4), BoardSpec(4, 4, 3), BoardSpec(5, 3, 3)]

    @pytest.mark.parametrize("spec", SPECS, ids=["5x4k4", "6x4k4", "4x4k3", "5x3k3"])
    def test_skipping_keeps_the_minimax_verdict(self, spec):
        # Seeded positions with 5 to 10 empty cells, either side to move, in
        # which the one-live-group rule skips a cell at the root already;
        # each is solved in every mode.
        rng = random.Random(23)
        checked = 0
        while checked < 16:
            pos = random_fill(rng, spec, rng.randint(5, 10))
            if winner(pos) is not None or not dominated_cells(pos)[1]:
                continue
            checked += 1
            expected = verdict_of(pos, plain_minimax(pos))
            for mode in PRUNING_MODES:
                verdict, _ = solve(pos, pruning=mode)
                assert verdict == expected, (mode, pos)

    @pytest.mark.parametrize("mode", PRUNING_MODES)
    def test_one_live_group_keeps_its_lowest_cell(self, mode):
        # The only live group is column e, White's, and it holds all three
        # empty cells: each lies in that group alone, so only e1, the lowest
        # bit, is searched at the root, then only e2, after which nothing is
        # live.  The plain search is one line of three nodes.  With pruning,
        # Black after e1 has no live group and only has to avoid losing, and
        # White's group pairs on e2 and e4, so that node is cut: two nodes.
        pos = parse_position("5 4 4 W\nOOOX.\nXXXOO\nOOXX.\nXOXX.\n")
        assert dominated_cells(pos) == (set(), {1 << 9, 1 << 19})
        assert verdict_of(pos, plain_minimax(pos)) == Verdict.DRAW
        verdict, stats = solve(pos, pruning=mode)
        assert (verdict, stats.nodes_examined) == (Verdict.DRAW, 3 if mode == "none" else 2)


# (verdict, nodes_examined) of TestThreats' single-threat position per pruning mode.
PINNED_BLOCK = {
    "none": ("Draw", 49),
    "hj": ("Draw", 14),
    "setmatch": ("Draw", 14),
}


class TestThreats:
    @pytest.mark.parametrize("mode", PRUNING_MODES)
    def test_win_in_last_move_order_cell_takes_one_node(self, mode):
        # d4 is a corner, last by centre distance and second in the live-first
        # order (after c3); the root takes the win before searching either.
        pos = parse_position("4 4 4 B\nXXX.\nOO..\n....\n.O..\n")
        verdict, stats = solve(pos, pruning=mode)
        assert verdict == Verdict.BLACK_WIN
        assert (stats.nodes_examined, stats.cert_calls) == (1, 0)

    @pytest.mark.parametrize("mode", PRUNING_MODES)
    def test_double_threat_loses_at_one_node(self, mode):
        # White threatens a4 and d3; Black has no group one move from done.
        pos = parse_position("4 4 4 B\n.X.X\nOOO.\nOX..\nOX.X\n")
        verdict, stats = solve(pos, pruning=mode)
        assert verdict == Verdict.WHITE_WIN
        assert (stats.nodes_examined, stats.cert_calls) == (1, 0)

    @pytest.mark.parametrize("mode", PRUNING_MODES)
    def test_single_threat_forces_the_block(self, mode):
        # White threatens d1, so the root searches the block alone: its
        # subtree is the whole search of the position after the block.
        pos = parse_position("4 4 4 B\n..X.\n....\nXX..\nOOO.\n")
        blocked = apply_move(pos, (3, 0))
        verdict, stats = solve(pos, pruning=mode)
        child_verdict, child = solve(blocked, pruning=mode)
        assert verdict == child_verdict
        assert stats.nodes_examined == 1 + child.nodes_examined
        assert (stats.table_hits, stats.cert_calls) == (child.table_hits, child.cert_calls)
        assert (str(verdict), stats.nodes_examined) == PINNED_BLOCK[mode]


class TestLiveBounds:
    @pytest.mark.parametrize("mode", PRUNING_MODES)
    def test_no_live_group_is_a_draw_at_one_node(self, mode):
        # Every group holds stones of both sides, so neither can win.
        pos = parse_position("4 4 4 B\n..XO\n.OXO\nX.O.\nOX.X\n")
        verdict, stats = solve(pos, pruning=mode)
        assert verdict == Verdict.DRAW
        assert (stats.nodes_examined, stats.cert_calls) == (1, 0)


class TestFinishedGame:
    @pytest.mark.parametrize("mode", PRUNING_MODES)
    @pytest.mark.parametrize(
        "board,verdict",
        [
            ("4 4 4 W\nXXXX\nOOO.\n....\n....\n", Verdict.BLACK_WIN),
            ("4 4 4 B\nOOOO\nXXX.\nX...\n....\n", Verdict.WHITE_WIN),
        ],
    )
    def test_completed_group_decides_without_search(self, board, verdict, mode):
        got, stats = solve(parse_position(board), pruning=mode)
        assert got == verdict
        assert stats.nodes_examined == 1
        assert stats.cert_calls == 0
        assert not stats.prune_events

    def test_both_sides_completed_is_illegal(self):
        pos = parse_position("4 4 4 B\nXXXX\nOOOO\n....\n....\n")
        with pytest.raises(IllegalPositionError):
            solve(pos)


class TestProbe:
    SPECS = [
        BoardSpec(4, 4, 4),
        BoardSpec(4, 4, 3),
        BoardSpec(5, 4, 4),
        BoardSpec(5, 5, 4),
        BoardSpec(6, 5, 4),
        BoardSpec(6, 6, 5),
    ]

    def test_hj_probe_matches_prove_draw_without_templates(self):
        # The mask probe must agree with the position's HJ pairing, prove_draw
        # with no templates, on seeded random Black-to-move positions of
        # every stone count.
        rng = random.Random(6)
        outcomes = []
        for i in range(1200):
            spec = self.SPECS[i % len(self.SPECS)]
            pos = random_position(rng, spec, 2 * rng.randrange(spec.m * spec.n // 2))
            if pos.to_move != BLACK:
                continue
            expected = kinarow.configs.prove_draw(pos, templates=[]) is not None
            assert black_probe(pos, "hj") == expected, pos
            outcomes.append(expected)
        assert len(outcomes) >= 1000
        assert 100 <= sum(outcomes) <= len(outcomes) - 100

    @pytest.fixture
    def no_prove_draw(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("prove_draw called")

        # The code object, not the module attribute: this reaches every name
        # bound to prove_draw, wherever it was imported.
        monkeypatch.setattr(kinarow.configs.prove_draw, "__code__", fail.__code__)

    def test_group_one_move_from_done_skips_prove_draw(self, no_prove_draw):
        # Black threatens d1: no certificate can exist, and none is sought.
        pos = parse_position("4 4 4 B\n....\nO...\nOO..\nXXX.\n")
        assert not black_probe(pos, "setmatch")

    def test_setmatch_probe_holds_on_empty_4x4_without_prove_draw(self, no_prove_draw):
        # The empty 4x4 board has no pairing (10 groups, 16 cells), but after
        # every Black move some White reply leaves the rest a pairing.
        pos = empty_position(BoardSpec(4, 4, 4))
        assert not black_probe(pos, "hj")
        assert black_probe(pos, "setmatch")

    @pytest.mark.parametrize("fixture", PINNED_CERT_CALLS)
    def test_solve_never_calls_prove_draw(self, no_prove_draw, fixture):
        pos = parse_position(load_fixture(f"{fixture}.board"))
        for mode in PRUNING_MODES:
            solve(pos, pruning=mode)

    def test_covered_positions_are_draws_for_black(self):
        # Every seeded position of at most 10 empties that the setmatch probe
        # accepts is checked by a plain maker-breaker search.
        rng = random.Random(2112)
        specs = [
            BoardSpec(4, 4, 4),
            BoardSpec(5, 4, 4),
            BoardSpec(4, 5, 4),
            BoardSpec(5, 5, 4),
            BoardSpec(6, 5, 5),
        ]
        checked = covered = 0
        for i in range(1000):
            spec = specs[i % len(specs)]
            cells = spec.m * spec.n
            empties = rng.choice([e for e in range(4, 11) if (cells - e) % 2 == 0])
            pos = random_fill(rng, spec, empties)
            groups = group_masks(spec)
            if winner(pos) is not None:
                continue
            if not black_probe(pos, "setmatch"):
                continue
            assert not black_can_complete(groups, pos.black, pos.white, (1 << cells) - 1), pos
            checked += 1
            covered += not black_probe(pos, "hj")
        assert checked >= 300 and covered >= 20, (checked, covered)

    def test_every_hit_holds_where_it_fires(self, monkeypatch):
        # Each probe that holds claims that the holder of the probed groups,
        # moving first on the free cells, completes none of them: Black at a
        # Black probe, the opponent after the mover's move at an
        # opponent-pairing lookahead.  The holder's stones are the
        # groups' cells outside free, since no probed group holds a stone of
        # the other side.  The maker-breaker oracle checks each claim at the
        # node where it fires, which a verdict sweep cannot: a cut there may
        # not decide the root.
        probe = kinarow.solver._probe
        hits = {False: 0, True: 0}

        def checked(groups, live, free, cover, pairings):
            held = probe(groups, live, free, cover, pairings)
            if held:
                probed = [g for i, g in enumerate(groups) if live >> i & 1]
                holder = functools.reduce(int.__or__, probed) & ~free
                assert not black_can_complete(probed, holder, 0, holder | free), (live, free)
                hits[cover] += 1
            return held

        monkeypatch.setattr(kinarow.solver, "_probe", checked)
        specs = [
            BoardSpec(3, 3, 3), BoardSpec(4, 3, 3), BoardSpec(5, 3, 3),
            BoardSpec(4, 4, 3), BoardSpec(4, 4, 4), BoardSpec(5, 4, 4),
        ]
        rng = random.Random(28)
        for spec in specs:
            checked_positions = 0
            while checked_positions < 20:
                pos = random_fill(rng, spec, rng.randint(2, min(10, spec.m * spec.n)))
                if winner(pos) is not None:
                    continue
                checked_positions += 1
                for mode in ("hj", "setmatch"):
                    solve(pos, pruning=mode)
        # (pairing hits, covering hits), so the check is seen to run.
        assert (hits[False], hits[True]) == (413, 65)

    def test_reuse_never_changes_an_answer(self, monkeypatch):
        # Each probe of seeded solves in every mode is asked again with an
        # empty pairings dict, which reuses nothing, and must get the same
        # answer.  The pinned counts show that stored pairings answer some.
        probe = kinarow.solver._probe
        probes = reused = 0

        def checked(groups, live, free, cover, pairings):
            nonlocal probes, reused
            stored = pairings.get(live)
            reused += stored is not None and not stored & ~free
            held = probe(groups, live, free, cover, pairings)
            assert held == probe(groups, live, free, cover, {}), (live, free, cover)
            probes += 1
            return held

        monkeypatch.setattr(kinarow.solver, "_probe", checked)
        specs = [BoardSpec(3, 3, 3), BoardSpec(4, 3, 3), BoardSpec(4, 4, 4), BoardSpec(5, 4, 4)]
        rng = random.Random(30)
        for spec in specs:
            checked_positions = 0
            while checked_positions < 25:
                pos = random_fill(rng, spec, rng.randint(2, min(14, spec.m * spec.n)))
                if winner(pos) is not None:
                    continue
                checked_positions += 1
                for mode in PRUNING_MODES:
                    solve(pos, pruning=mode)
        assert (probes, reused) == (2163, 437)

    def test_taken_reserved_cell_sends_the_probe_to_the_matcher(self, monkeypatch):
        # Two groups on a row of five cells a-e: abc and cde.  The first probe
        # stores the greedy pairing {a, b}, {c, d}, and asking again reuses it.
        # With b taken, the matcher finds {a, c}, {d, e} and stores that.
        # With d taken too, the stored pairing is stale, and the matcher (then
        # the one-ply covering: Black's c makes two threats) says no.
        match = kinarow.solver._match
        matched = []

        def counted(rooms):
            matched.append(rooms)
            return match(rooms)

        monkeypatch.setattr(kinarow.solver, "_match", counted)
        groups, live, pairings = (0b00111, 0b11100), 0b11, {}
        assert _probe(groups, live, 0b11111, False, pairings)
        assert _probe(groups, live, 0b11111, True, pairings)
        assert (pairings, len(matched)) == ({live: 0b01111}, 1)
        assert _probe(groups, live, 0b11101, False, pairings)
        assert (pairings, len(matched)) == ({live: 0b11101}, 2)
        assert not _probe(groups, live, 0b10101, True, pairings)
        assert (pairings, matched[2:]) == ({live: 0b11101}, [[0b00101, 0b10100]])

    @pytest.mark.parametrize("board,expected", [
        ("4 4 4 B\n....\nO...\nOO..\nXXX.\n", True),  # d1 completes the row
        ("3 3 3 B\n...\n...\n...\n", True),  # Maker wins 3x3 Maker-Breaker
        ("3 3 3 B\nXOX\nXOO\nOX.\n", False),  # the last cell completes nothing
    ])
    def test_maker_breaker_oracle(self, board, expected):
        pos = parse_position(board)
        groups, board_mask = group_masks(pos.spec), (1 << pos.spec.m * pos.spec.n) - 1
        assert black_can_complete(groups, pos.black, pos.white, board_mask) == expected


# Nodes over seeded_midgames(spec) per mode, in PRUNING_MODES order.  With
# the live count alone as the root order's first key they were (43,534,
# 2,852, 2,852) on 4x4 and (20,424, 8,213, 7,783) on 5x4: weighing the stones
# raised the 4x4 pruned totals and lowered the rest.  With the opponent's
# pairing asked for before the mover's move only, the pruned totals were
# (3,130, 2,930) on 4x4 and (6,331, 6,097) on 5x4.
PINNED_MIDGAME_NODES = {"4x4": [39110, 2295, 2295], "5x4": [13800, 2395, 2309]}


def seeded_midgames(spec: BoardSpec) -> list[Position]:
    """60 unfinished random fills of spec with 10 to 13 empty cells, seed 777."""
    rng = random.Random(777)
    found = []
    while len(found) < 60:
        pos = random_fill(rng, spec, rng.randint(10, 13))
        if winner(pos) is None:
            found.append(pos)
    return found


class TestMoveOrder:
    def test_stones_outweigh_the_centre(self):
        # Black a1, White d1.  The corners a4 and d4 and the four centre
        # cells each lie in three live groups, so the live count alone put
        # b2 first, nearest the centre and lowest.  a4's column holds
        # Black's stone and its diagonal White's, so a4 weighs 2 + 1 + 2 = 5
        # against b2's 1 + 1 + 2 = 4, and a4 leads, then d4, then b2.
        pos = parse_position("4 4 4 B\n....\n....\n....\nX..O\n")
        assert move_order(pos)[:3] == [12, 15, 5]

    @pytest.mark.parametrize("spec", [BoardSpec(4, 4, 4), BoardSpec(5, 4, 4)], ids=["4x4", "5x4"])
    def test_pinned_node_totals(self, spec):
        # seeded_midgames shares no position with perfbench/reference.json.
        totals = [
            sum(solve(pos, pruning=mode)[1].nodes_examined for pos in seeded_midgames(spec))
            for mode in PRUNING_MODES
        ]
        assert totals == PINNED_MIDGAME_NODES[f"{spec.m}x{spec.n}"]


class TestPruningConsistency:
    @pytest.mark.parametrize("mode", PRUNING_MODES)
    def test_modes_agree_on_fig1(self, mode):
        pos = parse_position(load_fixture("fig1.board"))
        verdict, _ = solve(pos, pruning=mode)
        assert verdict == Verdict.DRAW

    def test_empty_4x4_setmatch_single_node(self):
        verdict, stats = solve(empty_position(BoardSpec(4, 4, 4)), pruning="setmatch")
        assert verdict == Verdict.DRAW
        assert stats.nodes_examined == 1
        assert stats.prune_events["setmatch"] == 1
        assert 0 < stats.cert_seconds <= stats.seconds

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            solve(empty_position(BoardSpec(3, 3, 3)), pruning="psychic")


class TestOpponentPairing:
    def test_cutoff_keeps_the_plain_verdict(self):
        # Seeded positions with at most 14 empty cells, either side to move,
        # on k=3 and k=4 boards: hj and setmatch must give the plain
        # solver's verdict.  The pinned count of solves in which the
        # opponent-pairing lookahead fired shows that the check exercises it.
        specs = [
            BoardSpec(3, 3, 3), BoardSpec(4, 3, 3), BoardSpec(5, 3, 3),
            BoardSpec(4, 4, 3), BoardSpec(4, 4, 4), BoardSpec(5, 4, 4),
        ]
        rng = random.Random(26)
        solves = fired = 0
        for spec in specs:
            checked = 0
            while checked < 150:
                pos = random_fill(rng, spec, rng.randint(2, min(14, spec.m * spec.n)))
                if winner(pos) is not None:
                    continue
                checked += 1
                expected, _ = solve(pos)
                for mode in ("hj", "setmatch"):
                    verdict, stats = solve(pos, pruning=mode)
                    assert verdict == expected, (mode, pos)
                    solves += 1
                    fired += stats.prune_events["opponent_pairing"] > 0
        assert (solves, fired) == (1800, 554)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("5 4 4 B\nXX..O\nO....\n.....\n..O.X\n", "BlackWin"),
            ("5 4 4 B\n.X...\nX.XOO\n.O...\nO..X.\n", "BlackWin"),
            ("5 4 4 W\n...X.\nX....\n..O.X\n.O.OX\n", "WhiteWin"),
            ("5 4 4 W\n...OO\n.X.X.\n.X...\nO..X.\n", "BlackWin"),
        ],
        ids=["blackwin-a", "blackwin-b", "whitewin", "blackwin-c"],
    )
    def test_lookahead_moves_only_on_empty_cells(self, text, expected):
        # Decided positions on which a lookahead that also tried occupied
        # cells answers Draw: "moving" on an opponent stone drops the
        # opponent's groups through it, and the rest pair.  The seeded sweep
        # above meets no such position.
        pos = parse_position(text)
        for mode in PRUNING_MODES:
            assert solve(pos, pruning=mode)[0].value == expected, mode

    def test_paired_opponent_never_wins(self):
        # The lookahead's claim, checked by unpruned minimax: where some move
        # m leaves the groups free of the mover's stones, less those through
        # m, a pairing on the empty cells less m, the mover does not lose.
        # A pairing before any move is the case in which every m works; the
        # pinned counts show that positions pairing only after a move occur.
        rng = random.Random(2026)
        specs = [BoardSpec(3, 3, 3), BoardSpec(4, 3, 3), BoardSpec(4, 4, 4)]
        paired = only_after = 0
        for i in range(900):
            spec = specs[i % len(specs)]
            pos = random_fill(rng, spec, rng.randint(2, min(8, spec.m * spec.n)))
            if winner(pos) is not None:
                continue
            own = pos.black if pos.to_move == BLACK else pos.white
            live = [g for g in group_masks(spec) if not g & own]
            if not live:
                continue
            cells = [1 << c for c in range(spec.m * spec.n) if pos.empty >> c & 1]
            before = pairing_exists([g & pos.empty for g in live])
            works = [pairing_exists([g & pos.empty for g in live if not g & m]) for m in cells]
            assert all(works) or not before, pos
            if any(works):
                paired += 1
                only_after += not before
                assert plain_minimax(pos) >= 0, pos
        assert (paired, only_after) == (397, 273)


class TestDeterminism:
    def test_stats_reproducible(self):
        pos = parse_position(load_fixture("fig4.board"))
        runs = [solve(pos, pruning=m) for m in PRUNING_MODES for _ in range(2)]
        for (v1, s1), (v2, s2) in zip(runs[::2], runs[1::2]):
            assert v1 == v2
            assert s1.nodes_examined == s2.nodes_examined
            assert s1.table_hits == s2.table_hits

    def test_pinned_node_counts(self):
        # Frozen from the first deterministic run; changes to move ordering
        # or pruning are visible here before anywhere else.
        pos = parse_position(load_fixture("fig1.board"))
        counts = [solve(pos, pruning=m)[1].nodes_examined for m in PRUNING_MODES]
        assert counts == [13, 6, 1]

    @pytest.mark.parametrize(
        "fixture,mode,expected",
        [
            pytest.param(fixture, mode, pins, id=f"{fixture}-{mode}")
            for fixture, by_mode in PINNED_COUNTERS.items()
            for mode, pins in zip(PRUNING_MODES, by_mode)
        ],
    )
    def test_pinned_counters(self, fixture, mode, expected):
        # (verdict, nodes_examined, table_hits, prune_events) per fixture and
        # pruning mode; any change to the board representation, move order
        # or table policy of the search shows here.
        pos = parse_position(load_fixture(f"{fixture}.board"))
        verdict, stats = solve(pos, pruning=mode)
        got = (str(verdict), stats.nodes_examined, stats.table_hits, dict(stats.prune_events))
        assert got == expected

    @pytest.mark.parametrize(
        "board,mode,expected",
        [pytest.param(*pin, id=name) for name, pin in PINNED_TREES.items()],
    )
    def test_pinned_trees(self, board, mode, expected):
        verdict, stats = solve(parse_position(board), pruning=mode)
        got = (str(verdict), stats.nodes_examined, stats.table_hits,
               dict(stats.prune_events), stats.cert_calls)
        assert got == expected

    def test_pinned_empty_3x3_count(self):
        _, stats = solve(empty_position(BoardSpec(3, 3, 3)))
        assert stats.nodes_examined == 320


class TestCertCalls:
    @pytest.mark.parametrize("fixture", PINNED_CERT_CALLS)
    def test_pinned_cert_calls(self, fixture):
        # Every probe counts, whatever it returns, so the set of probed nodes
        # shows here even where the prunes stay the same.
        pos = parse_position(load_fixture(f"{fixture}.board"))
        got = [solve(pos, pruning=m)[1].cert_calls for m in PRUNING_MODES]
        assert got == PINNED_CERT_CALLS[fixture]


class TestTimings:
    @pytest.mark.parametrize("mode", PRUNING_MODES)
    @pytest.mark.parametrize("fixture", ["fig5", "fig9b"])
    def test_cert_seconds_within_seconds(self, fixture, mode):
        _, stats = solve(parse_position(load_fixture(f"{fixture}.board")), pruning=mode)
        assert 0 <= stats.cert_seconds <= stats.seconds
        if mode == "none":
            assert stats.cert_seconds == 0


class TestReport:
    def test_fixture_report_shape(self):
        fixtures = [
            ("fig1", load_fixture("fig1.board"), load_fixture("fig1.cert")),
            ("fig3", load_fixture("fig3.board"), None),
        ]
        reports = verify_draw_claims(fixtures)
        assert [r["fixture"] for r in reports] == ["fig1", "fig3"]
        assert reports[0]["certificate_status"] == "Valid"
        assert reports[1]["certificate_status"] == "missing"
        for r in reports:
            assert r["nodes_setmatch"] <= r["nodes_hj"] <= r["nodes_none"]
        text = format_report(reports)
        assert "fig1" in text and "nodes_none" in text

    def test_black_win_fixture_raises(self):
        board = "3 3 3 B\nOO.\n...\nXX.\n"
        with pytest.raises(AssertionError):
            verify_draw_claims([("loss", board, None)])
