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
        ("Draw", 1001936, 602384, {}),
        ("Draw", 176073, 98671, {"hj": 285}),
        ("Draw", 1, 0, {"setmatch": 1}),
    ],
    "fig1": [
        ("Draw", 337, 109, {}),
        ("Draw", 235, 56, {"hj": 26}),
        ("Draw", 235, 56, {"setmatch": 26}),
    ],
    "fig2": [
        ("Draw", 1839, 749, {}),
        ("Draw", 1289, 423, {"hj": 87}),
        ("Draw", 1289, 423, {"setmatch": 87}),
    ],
    "fig3": [
        ("Draw", 328, 106, {}),
        ("Draw", 223, 54, {"hj": 25}),
        ("Draw", 223, 54, {"setmatch": 25}),
    ],
    "fig4": [
        ("Draw", 1317, 477, {}),
        ("Draw", 844, 224, {"hj": 79}),
        ("Draw", 844, 224, {"setmatch": 79}),
    ],
    "fig5": [
        ("Draw", 19675, 10332, {}),
        ("Draw", 10569, 5453, {"hj": 145}),
        ("Draw", 10569, 5453, {"setmatch": 145}),
    ],
    "fig7": [
        ("Draw", 993, 325, {}),
        ("Draw", 518, 113, {"hj": 48}),
        ("Draw", 518, 113, {"setmatch": 48}),
    ],
    "fig8": [
        ("Draw", 684, 212, {}),
        ("Draw", 368, 88, {"hj": 25}),
        ("Draw", 339, 81, {"setmatch": 21}),
    ],
    "fig9a": [
        ("Draw", 25371, 13414, {}),
        ("Draw", 18499, 9594, {"hj": 365}),
        ("Draw", 18499, 9594, {"setmatch": 365}),
    ],
    "fig9b": [
        ("Draw", 21598, 10827, {}),
        ("Draw", 8272, 3986, {"hj": 243}),
        ("Draw", 8272, 3986, {"setmatch": 243}),
    ],
    "fig9c": [
        ("Draw", 1359, 500, {}),
        ("Draw", 867, 244, {"hj": 76}),
        ("Draw", 867, 244, {"setmatch": 76}),
    ],
    "fig10": [
        ("Draw", 659, 204, {}),
        ("Draw", 249, 43, {"hj": 27}),
        ("Draw", 249, 43, {"setmatch": 27}),
    ],
    "fig11": [
        ("WhiteWin", 6806, 2995, {}),
        ("WhiteWin", 6606, 2835, {"hj": 83}),
        ("WhiteWin", 6606, 2835, {"setmatch": 83}),
    ],
}


# Larger and White-to-move trees: (verdict, nodes_examined, table_hits,
# prune_events, cert_calls) per board and pruning mode.  A table key that
# confused the sides at a White-to-move root would move these.
WHITE_4X4 = "4 4 4 W\n....\n..X.\nX...\n.O..\n"
WHITE_5X4 = "5 4 4 W\n.....\n..X..\nXXXO.\n.OO..\n"
PINNED_TREES = {
    "white4x4-none": (WHITE_4X4, "none", ("Draw", 41277, 20042, {}, 0)),
    "white4x4-hj": (WHITE_4X4, "hj", ("Draw", 29949, 14587, {"hj": 93}, 125)),
    "white4x4-setmatch": (WHITE_4X4, "setmatch", ("Draw", 29949, 14587, {"setmatch": 93}, 125)),
    "white5x4-none": (WHITE_5X4, "none", ("WhiteWin", 38635, 18894, {}, 0)),
    "white5x4-hj": (WHITE_5X4, "hj", ("WhiteWin", 27656, 12428, {"hj": 1417}, 4131)),
    "white5x4-setmatch": (
        WHITE_5X4, "setmatch", ("WhiteWin", 26499, 11965, {"setmatch": 1244}, 3686)
    ),
    "empty4x4-hj": (
        "4 4 4 B\n....\n....\n....\n....\n", "hj", ("Draw", 176073, 98671, {"hj": 285}, 370)
    ),
}


# Certificate probes per fixture, in PRUNING_MODES order: how often solve asks
# for a certificate, whatever the answer.
PINNED_CERT_CALLS = {
    "empty4x4": [0, 370, 1],
    "fig1": [0, 74, 74],
    "fig2": [0, 334, 334],
    "fig3": [0, 73, 73],
    "fig4": [0, 264, 264],
    "fig5": [0, 243, 243],
    "fig7": [0, 153, 153],
    "fig8": [0, 90, 80],
    "fig9a": [0, 1189, 1189],
    "fig9b": [0, 812, 812],
    "fig9c": [0, 229, 229],
    "fig10": [0, 71, 71],
    "fig11": [0, 91, 91],
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
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        spec = data.draw(st.sampled_from([BoardSpec(3, 3, 3), BoardSpec(3, 4, 3)]))
        # keep the unpruned oracle tractable: at most 8 empty cells
        min_plies = spec.m * spec.n - 8
        pos = random_position(rng, spec, data.draw(st.integers(max(min_plies, 1), 8)))
        if winner(pos) is not None:
            return
        expected = verdict_of(pos, plain_minimax(pos))
        verdict, _ = solve(pos)
        assert verdict == expected


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
        assert counts == [337, 235, 235]

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
        assert stats.nodes_examined == 1959


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
