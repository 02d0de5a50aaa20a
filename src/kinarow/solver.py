"""Brute-force game solver with optional draw-certificate pruning.

Depth-unbounded negamax with alpha-beta and a per-call transposition table.
The search state is two ints, the stone masks (`Position.black` and
`Position.white`) of the side to move and of its opponent, and the table key
is one int, `own << m*n | opp`: each move adds one stone, so within one search
the stone count fixes the side to move and the key names the same position as
the (Black, White) pair.  Scores are from the side to move: +1 win, 0 draw, -1
loss.  With pruning enabled, a Black-to-move node whose window admits a draw
(alpha at least 0) is probed; a draw certificate there proves Black cannot win
(value at most 0) and is a sound fail-low cutoff, so verdicts are identical
across pruning modes.

The search follows the threat rules of k-in-a-row solvers.  A side's threats
are the empty cells that would complete a group holding no stone of the other
side.  `solve` computes both sides' threats once at the root: if the side to
move has one it wins there (+1).  Below the root the side to move never has a
threat, so a node carries only its opponent's threats and, in this order:

- with no empty cell left it is a draw (0);
- facing two or more threats it loses (-1): one block leaves another
  completion, and the mover cannot win first;
- it applies the live-group bounds below;
- after the table lookup and the probe, facing one threat it searches only
  the block, since any other move lets the opponent complete a group;
- otherwise it searches every empty cell in the root's move order.

The mover had no threat, so its threats after a move come only from the
groups through that cell; the opponent's threats lose at most that cell,
and after the block or with no threat they are empty.  So each child's mover
has no threat, which is why no node ever needs a win test: a completing move
is always a threat, and no line of play reaches a finished game.

A node also carries both sides' live groups as bitsets over the indices of
`group_masks(spec)`: bit j stays set while group j holds no stone of the
other side.  A move clears the groups through its cell from the other side's
set, one AND with a per-cell mask.  The sets follow from the stone masks, so
the table key need not hold them.  A side without a live group can never
complete one, so it cannot win:

- with neither side live the node is a draw (0);
- with the mover not live its value is at most 0: at alpha 0 or more it
  returns 0, a sound fail-low; otherwise it searches with beta 0, and a
  result of 0 or more there is exactly 0;
- with the opponent not live its value is at least 0: at beta 0 or less it
  returns 0, a sound fail-high; otherwise it searches with alpha 0, and a
  result of 0 or less there is exactly 0.

The table flag comes from the narrowed window, which still holds the value.
The root sorts the empty cells once: most groups through the cell that are
live for either side first, so cells in no such group go last, then nearest
the centre, then by (row, col).

A probe works on the masks.  A live Black group (no White stone) with at most
one empty cell means Black completes it next move, so no certificate exists.
Otherwise a probe holds when a pairing reserves two empty cells of every live
group (`pairing.pairing_exists`).  In `setmatch` mode it also holds on a
whole-board matching set one ply deep (`pairing.covering_exists`): every
empty cell is a marker, and each Black move has a White reply after which a
pairing covers every live group the reply does not kill.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from time import perf_counter
from typing import Sequence

from .board import BLACK, BoardSpec, IllegalPositionError, Position, group_masks, live_groups
from .pairing import covering_exists, pairing_exists


class SearchGuardError(RuntimeError):
    """Raised when a position has more empty cells than the solver guard allows."""


class Verdict(Enum):
    BLACK_WIN = "BlackWin"
    DRAW = "Draw"
    WHITE_WIN = "WhiteWin"

    def __str__(self) -> str:
        return self.value


PRUNING_MODES = ("none", "hj", "setmatch")

_EXACT, _LOWER, _UPPER = 0, 1, 2


@dataclass
class SearchStats:
    nodes_examined: int = 0
    table_hits: int = 0
    prune_events: Counter = field(default_factory=Counter)
    cert_calls: int = 0
    seconds: float = 0.0  # the whole solve
    cert_seconds: float = 0.0  # inside certificate probes


def _probe(spec: BoardSpec, groups: Sequence[int], black: int, white: int, pruning: str) -> bool:
    """Whether a certificate proves that Black, to move, cannot complete any of the group masks."""
    free = (1 << spec.m * spec.n) - 1 & ~(black | white)
    rooms = [g & free for g in groups if not g & white]
    if any(room.bit_count() < 2 for room in rooms):
        return False
    if pruning == "setmatch":
        return covering_exists(rooms, free)
    return pairing_exists(rooms)


def solve(
    pos: Position,
    pruning: str = "none",
    guard: int = 26,
    use_table: bool = True,
) -> tuple[Verdict, SearchStats]:
    """Exact game value of pos with perfect play, plus search statistics."""
    started = perf_counter()
    if pruning not in PRUNING_MODES:
        raise ValueError(f"unknown pruning mode {pruning!r}")
    spec = pos.spec
    groups = group_masks(spec)
    stats = SearchStats()
    black, white = pos.black, pos.white
    # A finished game needs no search.
    done = [v for v, mask in ((Verdict.BLACK_WIN, black), (Verdict.WHITE_WIN, white))
            if any(g & mask == g for g in groups)]
    if len(done) == 2:
        raise IllegalPositionError("both sides have completed a group")
    if done:
        stats.nodes_examined = 1
        stats.seconds = perf_counter() - started
        return done[0], stats
    empty = pos.empty
    n_empty = empty.bit_count()
    if n_empty > guard:
        raise SearchGuardError(
            f"{n_empty} empty cells exceeds guard of {guard}"
        )

    m, n = spec.m, spec.n
    # Per cell index, the group masks through it, and those groups as one
    # bitset over their indices in `groups`.
    lines = [[g for g in groups if g >> i & 1] for i in range(m * n)]
    line_bits = [sum(1 << j for j, g in enumerate(groups) if g >> i & 1) for i in range(m * n)]
    # Live groups, as bitsets: those holding no stone of the other side.
    black_live, white_live = live_groups(spec, white), live_groups(spec, black)
    live = black_live | white_live
    center = ((m - 1) / 2, (n - 1) / 2)
    ordered = sorted(
        (i for i in range(m * n) if empty >> i & 1),
        key=lambda i: (
            -(line_bits[i] & live).bit_count(),
            (i % m - center[0]) ** 2 + (i // m - center[1]) ** 2,
            (i // m, i % m),
        ),
    )
    # Per cell index, the move there: its bit, the group masks through it and
    # the mask that clears those groups from the other side's live set.
    cell_moves = [(1 << i, lines[i], ~line_bits[i]) for i in range(m * n)]
    moves = [cell_moves[i] for i in ordered]
    shift = m * n
    probing = pruning != "none"
    # Black is to move at the nodes whose empty count has this parity.
    black_parity = n_empty & 1 ^ (pos.to_move != BLACK)
    table: dict[int, tuple[int, int]] = {}
    lookup = table.get
    nodes = hits = probes = prunes = 0
    cert_seconds = 0.0

    def certified(black: int, white: int) -> bool:
        """One counted and timed probe of a Black-to-move node."""
        nonlocal probes, prunes, cert_seconds
        probes += 1
        probed = perf_counter()
        held = _probe(spec, groups, black, white, pruning)
        cert_seconds += perf_counter() - probed
        prunes += held
        return held

    def threat_cells(through: list[int], own: int, opp: int) -> int:
        """The empty cells that complete one of the groups through for own's holder."""
        cells = 0
        for g in through:
            if not g & opp:
                room = g & ~own
                if not room & (room - 1):
                    cells |= room
        return cells

    def negamax(
        own: int, opp: int, own_live: int, opp_live: int, threats: int,
        alpha: int, beta: int, empties_left: int,
    ) -> int:
        """Value for the side to move, holding own against opp with threat cells threats."""
        nonlocal nodes, hits
        nodes += 1
        if empties_left == 0:
            return 0
        if threats & (threats - 1):
            return -1
        if not own_live:
            if not opp_live or alpha >= 0:
                return 0
            beta = 0
        elif not opp_live:
            if beta <= 0:
                return 0
            alpha = 0
        key = own << shift | opp
        if use_table:
            entry = lookup(key)
            if entry is not None:
                value, flag = entry
                if (
                    flag == _EXACT
                    or (flag == _LOWER and value >= beta)
                    or (flag == _UPPER and value <= alpha)
                ):
                    hits += 1
                    return value
        if probing and alpha >= 0 and empties_left & 1 == black_parity and certified(own, opp):
            return 0
        orig_alpha = alpha
        best = -2
        taken = own | opp
        for bit, through, keep in (cell_moves[threats.bit_length() - 1],) if threats else moves:
            if taken & bit:
                continue
            mine = own | bit
            made = threat_cells(through, mine, opp)
            value = -negamax(
                opp, mine, opp_live & keep, own_live, made, -beta, -alpha, empties_left - 1
            )
            if value > best:
                best = value
            if best > alpha:
                alpha = best
            if alpha >= beta or best == 1:
                break
        if use_table:
            flag = _EXACT
            if best <= orig_alpha:
                flag = _UPPER
            elif best >= beta:
                flag = _LOWER
            table[key] = (best, flag)
        return best

    own, opp, own_live, opp_live = (
        (black, white, black_live, white_live) if pos.to_move == BLACK
        else (white, black, white_live, black_live)
    )
    if threat_cells(groups, own, opp):
        nodes, score = 1, 1
    # Headline shortcut: on the fully empty board the first player's value is
    # at least a draw (strategy stealing), so a certificate decides it outright.
    elif probing and pos.to_move == BLACK and not (black | white) and certified(black, white):
        nodes, score = 1, 0
    else:
        score = negamax(
            own, opp, own_live, opp_live, threat_cells(groups, opp, own), -1, 1, n_empty
        )
    if pos.to_move != BLACK:
        score = -score
    stats.nodes_examined, stats.table_hits, stats.cert_calls = nodes, hits, probes
    if prunes:
        stats.prune_events[pruning] = prunes
    stats.cert_seconds = cert_seconds
    stats.seconds = perf_counter() - started
    return (Verdict.BLACK_WIN, Verdict.DRAW, Verdict.WHITE_WIN)[1 - score], stats


@dataclass
class FixtureReport:
    name: str
    verdict: Verdict
    nodes_none: int
    nodes_hj: int
    nodes_setmatch: int
    certificate_status: str


REPORT_HEADER = (
    "# node counts include every solver invocation, the root included\n"
    f"{'fixture':12s} {'verdict':9s} {'nodes_none':>10s} {'nodes_hj':>10s} "
    f"{'nodes_setmatch':>14s} {'certificate':>12s}"
)


def verify_draw_claims(fixtures: Sequence[tuple[str, str, str | None]]) -> list[FixtureReport]:
    """Solve each fixture in all pruning modes and validate its bundled certificate.

    Each fixture is (name, board_text, certificate_text_or_None).  A BlackWin
    verdict on any fixture is a loud failure: it would falsify the claimed
    draw proof.
    """
    from .board import parse_position
    from .certio import certificate_from_json
    from .configs import check_certificate

    reports = []
    for name, board_text, cert_text in fixtures:
        pos = parse_position(board_text)
        verdict, s_none = solve(pos, pruning="none")
        _, s_hj = solve(pos, pruning="hj")
        _, s_sm = solve(pos, pruning="setmatch")
        if cert_text is None:
            status = "missing"
        else:
            cert = certificate_from_json(cert_text)
            status = "Valid" if check_certificate(cert).valid else "Invalid"
        if verdict == Verdict.BLACK_WIN:
            raise AssertionError(
                f"fixture {name}: oracle verdict is BlackWin, draw claim falsified"
            )
        reports.append(
            FixtureReport(
                name,
                verdict,
                s_none.nodes_examined,
                s_hj.nodes_examined,
                s_sm.nodes_examined,
                status,
            )
        )
    return reports


def format_report(reports: Sequence[FixtureReport]) -> str:
    lines = [REPORT_HEADER]
    for r in reports:
        lines.append(
            f"{r.name:12s} {str(r.verdict):9s} {r.nodes_none:10d} "
            f"{r.nodes_hj:10d} {r.nodes_setmatch:14d} {r.certificate_status:>12s}"
        )
    return "\n".join(lines)


def report_as_dicts(reports: Sequence[FixtureReport]) -> list[dict]:
    return [
        {
            "fixture": r.name,
            "verdict": str(r.verdict),
            "nodes_none": r.nodes_none,
            "nodes_hj": r.nodes_hj,
            "nodes_setmatch": r.nodes_setmatch,
            "certificate_status": r.certificate_status,
        }
        for r in reports
    ]
