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
    live_black_groups,
    parse_position,
    winner,
)
from kinarow.pairing import find_hj_pairing
from kinarow.solver import (
    PRUNING_MODES,
    SearchGuardError,
    Verdict,
    _probe,
    format_report,
    solve,
    verify_draw_claims,
)
from tests.test_board import load_fixture


# Per fixture, one (verdict, nodes_examined, table_hits, prune_events) entry
# per pruning mode, in PRUNING_MODES order ("none", "hj", "setmatch").
PINNED_COUNTERS = {
    "empty4x4": [
        ("Draw", 24556, 6540, {}),
        ("Draw", 6899, 1785, {"hj": 40}),
        ("Draw", 1, 0, {"setmatch": 1}),
    ],
    "fig1": [
        ("Draw", 13, 0, {}),
        ("Draw", 7, 0, {"hj": 3}),
        ("Draw", 1, 0, {"setmatch": 1}),
    ],
    "fig2": [
        ("Draw", 103, 7, {}),
        ("Draw", 48, 0, {"hj": 8}),
        ("Draw", 48, 0, {"setmatch": 8}),
    ],
    "fig3": [
        ("Draw", 41, 3, {}),
        ("Draw", 19, 0, {"hj": 5}),
        ("Draw", 1, 0, {"setmatch": 1}),
    ],
    "fig4": [
        ("Draw", 120, 4, {}),
        ("Draw", 55, 0, {"hj": 6}),
        ("Draw", 55, 0, {"setmatch": 6}),
    ],
    "fig5": [
        ("Draw", 75, 6, {}),
        ("Draw", 46, 1, {"hj": 11}),
        ("Draw", 46, 1, {"setmatch": 11}),
    ],
    "fig7": [
        ("Draw", 99, 11, {}),
        ("Draw", 32, 0, {"hj": 10}),
        ("Draw", 32, 0, {"setmatch": 10}),
    ],
    "fig8": [
        ("Draw", 128, 11, {}),
        ("Draw", 69, 4, {"hj": 11}),
        ("Draw", 69, 4, {"setmatch": 11}),
    ],
    "fig9a": [
        ("Draw", 128, 10, {}),
        ("Draw", 38, 0, {"hj": 14}),
        ("Draw", 38, 0, {"setmatch": 14}),
    ],
    "fig9b": [
        ("Draw", 801, 109, {}),
        ("Draw", 48, 0, {"hj": 18}),
        ("Draw", 48, 0, {"setmatch": 18}),
    ],
    "fig9c": [
        ("Draw", 111, 17, {}),
        ("Draw", 32, 0, {"hj": 9}),
        ("Draw", 32, 0, {"setmatch": 9}),
    ],
    "fig10": [
        ("Draw", 118, 11, {}),
        ("Draw", 27, 0, {"hj": 11}),
        ("Draw", 27, 0, {"setmatch": 11}),
    ],
    "fig11": [
        ("WhiteWin", 746, 164, {}),
        ("WhiteWin", 746, 164, {}),
        ("WhiteWin", 746, 164, {}),
    ],
}


# Larger and White-to-move trees: (verdict, nodes_examined, table_hits,
# prune_events, cert_calls) per board and pruning mode.  A table key that
# confused the sides at a White-to-move root would move these.
WHITE_4X4 = "4 4 4 W\n....\n..X.\nX...\n.O..\n"
WHITE_5X4 = "5 4 4 W\n.....\n..X..\nXXXO.\n.OO..\n"
# White's first move makes a double threat at WHITE_5X4, whose trees stop
# before the table; this White-to-move win reaches it in every mode.
WHITE_WIN_5X4 = "5 4 4 W\n...X.\n.O.O.\n.X...\n....X\n"
PINNED_TREES = {
    "white4x4-none": (WHITE_4X4, "none", ("Draw", 1850, 281, {}, 0)),
    "white4x4-hj": (WHITE_4X4, "hj", ("Draw", 1389, 223, {"hj": 13}, 14)),
    "white4x4-setmatch": (WHITE_4X4, "setmatch", ("Draw", 1389, 223, {"setmatch": 13}, 14)),
    "white5x4-none": (WHITE_5X4, "none", ("WhiteWin", 2, 0, {}, 0)),
    "white5x4-hj": (WHITE_5X4, "hj", ("WhiteWin", 2, 0, {}, 0)),
    "white5x4-setmatch": (WHITE_5X4, "setmatch", ("WhiteWin", 2, 0, {}, 0)),
    "whitewin5x4-none": (WHITE_WIN_5X4, "none", ("WhiteWin", 258, 14, {}, 0)),
    "whitewin5x4-hj": (WHITE_WIN_5X4, "hj", ("WhiteWin", 88, 1, {"hj": 13}, 16)),
    "whitewin5x4-setmatch": (
        WHITE_WIN_5X4, "setmatch", ("WhiteWin", 88, 1, {"setmatch": 13}, 16)
    ),
    "empty4x4-hj": (
        "4 4 4 B\n....\n....\n....\n....\n", "hj", ("Draw", 6899, 1785, {"hj": 40}, 41)
    ),
}


# Certificate probes per fixture, in PRUNING_MODES order: how often solve asks
# for a certificate, whatever the answer.
PINNED_CERT_CALLS = {
    "empty4x4": [0, 41, 1],
    "fig1": [0, 4, 1],
    "fig2": [0, 14, 14],
    "fig3": [0, 10, 1],
    "fig4": [0, 18, 18],
    "fig5": [0, 11, 11],
    "fig7": [0, 10, 10],
    "fig8": [0, 11, 11],
    "fig9a": [0, 14, 14],
    "fig9b": [0, 19, 19],
    "fig9c": [0, 9, 9],
    "fig10": [0, 11, 11],
    "fig11": [0, 0, 0],
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

    def test_guard_is_configurable(self):
        verdict, _ = solve(empty_position(BoardSpec(3, 3, 3)), guard=9)
        assert verdict == Verdict.DRAW
        with pytest.raises(SearchGuardError):
            solve(empty_position(BoardSpec(3, 3, 3)), guard=8)


class TestAgainstPlainMinimax:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_alpha_beta_matches_minimax_on_3x4(self, data):
        # Every pruning mode, with and without the table, on a random position
        # and on one random move later, so that both sides are to move.
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
                for use_table in (True, False):
                    verdict, _ = solve(p, pruning=mode, use_table=use_table)
                    assert verdict == expected, (mode, use_table, p)

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
                for use_table in (True, False):
                    verdict, _ = solve(pos, pruning=mode, use_table=use_table)
                    assert verdict == expected, (mode, use_table, pos)


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
        # each is solved in every mode with and without the table.
        rng = random.Random(23)
        checked = 0
        while checked < 16:
            pos = random_fill(rng, spec, rng.randint(5, 10))
            if winner(pos) is not None or not dominated_cells(pos)[1]:
                continue
            checked += 1
            expected = verdict_of(pos, plain_minimax(pos))
            for mode in PRUNING_MODES:
                for use_table in (True, False):
                    verdict, _ = solve(pos, pruning=mode, use_table=use_table)
                    assert verdict == expected, (mode, use_table, pos)

    @pytest.mark.parametrize("use_table", [True, False])
    @pytest.mark.parametrize("mode", PRUNING_MODES)
    def test_one_live_group_keeps_its_lowest_cell(self, mode, use_table):
        # The only live group is column e, White's, and it holds all three
        # empty cells: each lies in that group alone, so only e1, the lowest
        # bit, is searched at the root, then only e2, after which nothing is
        # live.  The search is one line of three nodes.
        pos = parse_position("5 4 4 W\nOOOX.\nXXXOO\nOOXX.\nXOXX.\n")
        assert dominated_cells(pos) == (set(), {1 << 9, 1 << 19})
        assert verdict_of(pos, plain_minimax(pos)) == Verdict.DRAW
        verdict, stats = solve(pos, pruning=mode, use_table=use_table)
        assert (verdict, stats.nodes_examined) == (Verdict.DRAW, 3)


# (verdict, nodes_examined) of TestThreats' single-threat position per
# (pruning mode, use_table).
PINNED_BLOCK = {
    ("none", True): ("Draw", 31),
    ("none", False): ("Draw", 31),
    ("hj", True): ("Draw", 25),
    ("hj", False): ("Draw", 25),
    ("setmatch", True): ("Draw", 25),
    ("setmatch", False): ("Draw", 25),
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

    @pytest.mark.parametrize("use_table", [True, False])
    @pytest.mark.parametrize("mode", PRUNING_MODES)
    def test_single_threat_forces_the_block(self, mode, use_table):
        # White threatens d1, so the root searches the block alone: its
        # subtree is the whole search of the position after the block.
        pos = parse_position("4 4 4 B\n..X.\n....\nXX..\nOOO.\n")
        blocked = apply_move(pos, (3, 0))
        verdict, stats = solve(pos, pruning=mode, use_table=use_table)
        child_verdict, child = solve(blocked, pruning=mode, use_table=use_table)
        assert verdict == child_verdict
        assert stats.nodes_examined == 1 + child.nodes_examined
        assert (stats.table_hits, stats.cert_calls) == (child.table_hits, child.cert_calls)
        assert (str(verdict), stats.nodes_examined) == PINNED_BLOCK[mode, use_table]


class TestLiveBounds:
    @pytest.mark.parametrize("use_table", [True, False])
    @pytest.mark.parametrize("mode", PRUNING_MODES)
    def test_no_live_group_is_a_draw_at_one_node(self, mode, use_table):
        # Every group holds stones of both sides, so neither can win.
        pos = parse_position("4 4 4 B\n..XO\n.OXO\nX.O.\nOX.X\n")
        verdict, stats = solve(pos, pruning=mode, use_table=use_table)
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

    def test_hj_probe_matches_find_hj_pairing(self):
        # The mask probe must agree with the Position-level matcher on seeded
        # random Black-to-move positions of every stone count.
        rng = random.Random(6)
        outcomes = []
        for i in range(1200):
            spec = self.SPECS[i % len(self.SPECS)]
            pos = random_position(rng, spec, 2 * rng.randrange(spec.m * spec.n // 2))
            if pos.to_move != BLACK:
                continue
            expected = find_hj_pairing(pos, live_black_groups(pos)) is not None
            assert _probe(spec, group_masks(spec), pos.black, pos.white, "hj") == expected, pos
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
        assert not _probe(pos.spec, group_masks(pos.spec), pos.black, pos.white, "setmatch")

    def test_setmatch_probe_holds_on_empty_4x4_without_prove_draw(self, no_prove_draw):
        # The empty 4x4 board has no pairing (10 groups, 16 cells), but after
        # every Black move some White reply leaves the rest a pairing.
        spec = BoardSpec(4, 4, 4)
        assert not _probe(spec, group_masks(spec), 0, 0, "hj")
        assert _probe(spec, group_masks(spec), 0, 0, "setmatch")

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
            if not _probe(spec, groups, pos.black, pos.white, "setmatch"):
                continue
            assert not black_can_complete(groups, pos.black, pos.white, (1 << cells) - 1), pos
            checked += 1
            covered += not _probe(spec, groups, pos.black, pos.white, "hj")
        assert checked >= 300 and covered >= 20, (checked, covered)

    @pytest.mark.parametrize("board,expected", [
        ("4 4 4 B\n....\nO...\nOO..\nXXX.\n", True),  # d1 completes the row
        ("3 3 3 B\n...\n...\n...\n", True),  # Maker wins 3x3 Maker-Breaker
        ("3 3 3 B\nXOX\nXOO\nOX.\n", False),  # the last cell completes nothing
    ])
    def test_maker_breaker_oracle(self, board, expected):
        pos = parse_position(board)
        groups, board_mask = group_masks(pos.spec), (1 << pos.spec.m * pos.spec.n) - 1
        assert black_can_complete(groups, pos.black, pos.white, board_mask) == expected


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

    def test_table_off_same_verdict(self):
        pos = parse_position(load_fixture("fig3.board"))
        with_table, _ = solve(pos, pruning="hj")
        without, _ = solve(pos, pruning="hj", use_table=False)
        assert with_table == without


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
        assert counts == [13, 7, 1]

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
        assert [r.name for r in reports] == ["fig1", "fig3"]
        assert reports[0].certificate_status == "Valid"
        assert reports[1].certificate_status == "missing"
        for r in reports:
            assert r.nodes_setmatch <= r.nodes_hj <= r.nodes_none
        text = format_report(reports)
        assert "fig1" in text and "nodes_none" in text

    def test_black_win_fixture_raises(self):
        board = "3 3 3 B\nOO.\n...\nXX.\n"
        with pytest.raises(AssertionError):
            verify_draw_claims([("loss", board, None)])
