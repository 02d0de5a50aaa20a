"""Solver: exact values, pruning consistency, transposition table, stats."""

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
    other,
    parse_position,
    state_mask,
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
        ("Draw", 131735, 57816, {}),
        ("Draw", 24910, 10230, {"hj": 60}),
        ("Draw", 1, 0, {"setmatch": 1}),
    ],
    "fig1": [
        ("Draw", 203, 36, {}),
        ("Draw", 102, 12, {"hj": 17}),
        ("Draw", 102, 12, {"setmatch": 17}),
    ],
    "fig2": [
        ("Draw", 620, 133, {}),
        ("Draw", 353, 57, {"hj": 46}),
        ("Draw", 353, 57, {"setmatch": 46}),
    ],
    "fig3": [
        ("Draw", 191, 33, {}),
        ("Draw", 90, 9, {"hj": 17}),
        ("Draw", 90, 9, {"setmatch": 17}),
    ],
    "fig4": [
        ("Draw", 532, 107, {}),
        ("Draw", 250, 31, {"hj": 42}),
        ("Draw", 250, 31, {"setmatch": 42}),
    ],
    "fig5": [
        ("Draw", 1409, 439, {}),
        ("Draw", 706, 222, {"hj": 21}),
        ("Draw", 706, 222, {"setmatch": 21}),
    ],
    "fig7": [
        ("Draw", 548, 167, {}),
        ("Draw", 197, 30, {"hj": 28}),
        ("Draw", 197, 30, {"setmatch": 28}),
    ],
    "fig8": [
        ("Draw", 243, 28, {}),
        ("Draw", 107, 9, {"hj": 14}),
        ("Draw", 101, 9, {"setmatch": 15}),
    ],
    "fig9a": [
        ("Draw", 3227, 1127, {}),
        ("Draw", 922, 249, {"hj": 48}),
        ("Draw", 922, 249, {"setmatch": 48}),
    ],
    "fig9b": [
        ("Draw", 5019, 2029, {}),
        ("Draw", 671, 150, {"hj": 45}),
        ("Draw", 671, 150, {"setmatch": 45}),
    ],
    "fig9c": [
        ("Draw", 558, 172, {}),
        ("Draw", 224, 28, {"hj": 38}),
        ("Draw", 224, 28, {"setmatch": 38}),
    ],
    "fig10": [
        ("Draw", 308, 54, {}),
        ("Draw", 75, 1, {"hj": 15}),
        ("Draw", 75, 1, {"setmatch": 15}),
    ],
    "fig11": [
        ("WhiteWin", 1956, 620, {}),
        ("WhiteWin", 1904, 584, {"hj": 28}),
        ("WhiteWin", 1904, 584, {"setmatch": 28}),
    ],
}


# Larger and White-to-move trees: (verdict, nodes_examined, table_hits,
# prune_events, cert_calls) per board and pruning mode.  A table key that
# confused the sides at a White-to-move root would move these.
WHITE_4X4 = "4 4 4 W\n....\n..X.\nX...\n.O..\n"
WHITE_5X4 = "5 4 4 W\n.....\n..X..\nXXXO.\n.OO..\n"
PINNED_TREES = {
    "white4x4-none": (WHITE_4X4, "none", ("Draw", 10041, 3565, {}, 0)),
    "white4x4-hj": (WHITE_4X4, "hj", ("Draw", 6257, 2174, {"hj": 26}, 26)),
    "white4x4-setmatch": (WHITE_4X4, "setmatch", ("Draw", 6257, 2174, {"setmatch": 26}, 26)),
    "white5x4-none": (WHITE_5X4, "none", ("WhiteWin", 5519, 2011, {}, 0)),
    "white5x4-hj": (WHITE_5X4, "hj", ("WhiteWin", 3448, 1142, {"hj": 127}, 164)),
    "white5x4-setmatch": (
        WHITE_5X4, "setmatch", ("WhiteWin", 3363, 1123, {"setmatch": 111}, 141)
    ),
    "empty4x4-hj": (
        "4 4 4 B\n....\n....\n....\n....\n", "hj", ("Draw", 24910, 10230, {"hj": 60}, 61)
    ),
}


# Certificate probes per fixture, in PRUNING_MODES order: how often solve asks
# for a certificate, whatever the answer.
PINNED_CERT_CALLS = {
    "empty4x4": [0, 61, 1],
    "fig1": [0, 22, 22],
    "fig2": [0, 82, 82],
    "fig3": [0, 22, 22],
    "fig4": [0, 67, 67],
    "fig5": [0, 21, 21],
    "fig7": [0, 40, 40],
    "fig8": [0, 25, 23],
    "fig9a": [0, 53, 53],
    "fig9b": [0, 46, 46],
    "fig9c": [0, 53, 53],
    "fig10": [0, 23, 23],
    "fig11": [0, 28, 28],
}


def plain_minimax(pos: Position) -> int:
    """Independent oracle: unpruned minimax, +1 = side to move wins."""
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


# (verdict, nodes_examined) of TestThreats' single-threat position per
# (pruning mode, use_table).
PINNED_BLOCK = {
    ("none", True): ("Draw", 762),
    ("none", False): ("Draw", 2231),
    ("hj", True): ("Draw", 331),
    ("hj", False): ("Draw", 767),
    ("setmatch", True): ("Draw", 331),
    ("setmatch", False): ("Draw", 767),
}


class TestThreats:
    @pytest.mark.parametrize("mode", PRUNING_MODES)
    def test_win_in_last_move_order_cell_takes_one_node(self, mode):
        # d4 is a corner, so the centre-first order tries it last.
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
            black, white = state_mask(pos, BLACK), state_mask(pos, WHITE)
            expected = find_hj_pairing(pos, live_black_groups(pos)) is not None
            assert _probe(spec, group_masks(spec), black, white, "hj") == expected, pos
            outcomes.append(expected)
        assert len(outcomes) >= 1000
        assert 100 <= sum(outcomes) <= len(outcomes) - 100

    @pytest.fixture
    def no_prove_draw(self, monkeypatch):
        def fail(pos, *args, **kwargs):
            raise AssertionError("prove_draw called")

        monkeypatch.setattr(kinarow.configs, "prove_draw", fail)

    def test_group_one_move_from_done_skips_prove_draw(self, no_prove_draw):
        # Black threatens d1: no certificate can exist, and none is sought.
        pos = parse_position("4 4 4 B\n....\nO...\nOO..\nXXX.\n")
        black, white = state_mask(pos, BLACK), state_mask(pos, WHITE)
        assert not _probe(pos.spec, group_masks(pos.spec), black, white, "setmatch")

    def test_failed_pairing_falls_back_to_prove_draw(self, no_prove_draw):
        # The empty 4x4 board has no pairing (10 groups, 16 cells), and every
        # group keeps 4 empty cells, so setmatch must ask prove_draw.
        spec = BoardSpec(4, 4, 4)
        assert not _probe(spec, group_masks(spec), 0, 0, "hj")
        with pytest.raises(AssertionError, match="prove_draw called"):
            _probe(spec, group_masks(spec), 0, 0, "setmatch")


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
        assert counts == [203, 102, 102]

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
        assert stats.nodes_examined == 508


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
