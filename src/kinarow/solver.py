"""Brute-force game solver with optional draw-certificate pruning.

Depth-unbounded negamax with alpha-beta and a per-call transposition table.
The search state is two ints, the stone masks (`Position.black` and
`Position.white`) of the side to move and of its opponent, and the table key
is one int, `own << m*n | opp`: each move adds one stone, so within one search
the stone count fixes the side to move and the key names the same position as
the (Black, White) pair.  Scores are from the side to move: +1 win, 0 draw, -1
loss.  With pruning enabled, two probes cut nodes off, and verdicts are
identical across pruning modes:

- a Black-to-move node whose window admits a draw (alpha at least 0) asks
  for a draw certificate, which proves Black cannot win (value at most 0):
  a sound fail-low;
- a node of either side whose window asks only for a non-loss (beta at most
  0) looks one move ahead: it asks whether some move leaves the opponent's
  live groups a pairing on the empty cells, which proves the mover cannot
  lose (value at least 0): a sound fail-high.

Neither probe's result is written to the table.

The search follows the threat rules of k-in-a-row solvers.  A side's threats
are the empty cells that would complete a group holding no stone of the other
side.  `solve` computes both sides' threats once at the root: if the side to
move has one it wins there (+1).  Below the root the side to move never has a
threat, so a node carries only its opponent's threats and, in this order:

- with no empty cell left it is a draw (0);
- facing two or more threats it loses (-1): one block leaves another
  completion, and the mover cannot win first;
- it applies the live-group bounds below;
- after the table lookup and the probes, facing one threat it searches only
  the block, since any other move lets the opponent complete a group;
- otherwise it searches every empty cell in the root's move order, less
  the dominated ones below.

The mover had no threat, so its threats after a move come only from the
groups through that cell; the opponent's threats lose at most that cell,
and after the block or with no threat they are empty.  So each child's mover
has no threat, which is why no node ever needs a win test: a completing move
is always a threat, and no line of play reaches a finished game.

With no threat to answer, a node skips dominated cells.  A group is live
while it holds no stone of one side; at the node, an empty cell c is skipped
when

- c lies in no live group: playing there is a pass; or
- c's live groups are exactly one group g, and g has another empty cell d
  that lies in a further live group, or that also has g as its only live
  group and a lower bit index.

Both rest on one swap.  If every live group through c holds d, exchanging c
and d maps any line of play from the node with the mover on c onto one with
the mover on d.  Every other group through c holds both colours, so nobody
completes it; a group through both cells is the same in both games; and a
group through d alone already holds the mover's stone in the second.  So the
mover completes a group there no later, and the opponent completes one no
earlier: the value of c is at most the value of d.  Of the cells whose only
live group is g, the one with the lowest bit is never skipped, nor is a cell
of g in two live groups, so each skipped cell is dominated by a searched
one.  A node that searches has a live group (the bounds below), and that
group has an empty cell, or its holder would have completed it; so some
move always survives.  The block of a lone threat is never skipped.

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
The root sorts the empty cells once (`move_order`), heaviest first.  Each
group through the cell that is live for either side adds 1 plus the stones it
holds, so cells in no such group go last; ties go nearest the centre, then
by (row, col).  On an empty board a cell weighs the number of groups through
it.

Every probe is one call of `_probe(groups, live, free, cover, pairings)`,
whose rooms are the groups of a live set cut to the empty cells: Black's for
the Black probe, the opponent's for the lookahead below.  It holds when a
pairing reserves two empty cells of every room (`pairing._match`, after a
union count), or with cover, in the `setmatch` Black probe, on a whole-board
matching set one ply deep (`pairing.replies_cover`): every empty cell is a
marker, and each Black move has a White reply after which a pairing covers
every live group the reply does not kill.  A room of fewer than two cells is
a finished game or a threat of its holder, and no probe meets one: the root
takes the mover's threat as a win, no node below has one, and the lookahead
runs only with no opponent threat (both matchers would answer False).
`solve` reads `_probe` as a module global at each call, so a test can wrap
it and check each claim where it fires.

Each solve keeps, in `pairings`, the cells of the last pairing found for
each live set, and a probe of that set whose stored cells all lie in free
holds without matching.  The live set names the same groups, and each
group's two reserved cells are still empty and still inside the group, so
they are still in its room; the pairs stay disjoint.  So the old pairing is
a pairing of the new rooms, and a pairing is also a covering.  A stored cell
that was taken sends the probe to the matcher, whose new pairing replaces
the stored one.

The opponent-pairing lookahead is the same pairing with the roles turned:
the mover defends, one move ahead.  It tries the mover's moves in the root
order, and returns 0 at the first move m after which the opponent's live
groups (those free of the mover's stones), less those through m, pair on
the empty cells less m.  The mover plays m, which kills every opponent group
through m, then answers each opponent move on a reserved cell with its
partner, and any other opponent move anywhere.  Every remaining group keeps
a reserved cell out of the opponent's hands, so the opponent never completes
one, and the mover's value is at least 0.  The mover's extra stones never
hurt: one on a reserved cell kills the group that cell was reserved for, so
that pair needs no answer any more, and one elsewhere touches no pair.  So
a pairing before any move holds after every move: the lookahead's first
try finds it, and it needs no probe of its own.  Three checks skip a probe:

- moves that kill the same opponent groups leave the same rooms, since no
  remaining group holds m, so each remaining set is tried once per node;
- a move that leaves the opponent no live group needs no pairing, and
  returns 0 at once, as the "opponent not live" bound above does;
- fewer than two empty cells per remaining group rule a pairing out.

The lookahead runs only when the mover faces no threat.  Facing a lone
threat, every move but the block leaves that group one cell and no pair, and
the node searches the block alone anyway.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from time import perf_counter
from typing import Sequence

from .board import BLACK, BoardSpec, IllegalPositionError, Position, group_masks, live_groups
from .pairing import _match, replies_cover


class SearchGuardError(RuntimeError):
    """Raised when a position has more empty cells than the solver guard allows."""


class Verdict(Enum):
    BLACK_WIN = "BlackWin"
    DRAW = "Draw"
    WHITE_WIN = "WhiteWin"

    def __str__(self) -> str:
        return self.value


PRUNING_MODES = ("none", "hj", "setmatch")
GUARD = 26  # the most empty cells solve searches

_EXACT, _LOWER, _UPPER = 0, 1, 2


@dataclass
class SearchStats:
    nodes_examined: int = 0
    table_hits: int = 0
    prune_events: Counter = field(default_factory=Counter)
    cert_calls: int = 0
    seconds: float = 0.0  # the whole solve
    cert_seconds: float = 0.0  # inside certificate probes


def _probe(
    groups: Sequence[int], live: int, free: int, cover: bool, pairings: dict[int, int]
) -> bool:
    """Whether the groups named by the bits of live, each cut to its cells in
    free, pair on free, or with cover have a one-ply covering on free.

    pairings maps a live set to the cells reserved by the last pairing found
    for it: one whose cells all lie in free answers at once, and each new
    pairing replaces it."""
    reserved = pairings.get(live)
    if reserved is not None and not reserved & ~free:
        return True
    rooms = []
    union = 0
    bits = live
    while bits:
        low = bits & -bits
        bits ^= low
        room = groups[low.bit_length() - 1] & free
        rooms.append(room)
        union |= room
    if not cover and union.bit_count() < 2 * len(rooms):
        return False
    paired, cells = _match(rooms)
    if paired:
        pairings[live] = cells
        return True
    return cover and replies_cover(rooms, free, cells)


@lru_cache(maxsize=None)
def _cell_tables(
    spec: BoardSpec,
) -> tuple[tuple[int, ...], tuple[tuple[int, tuple, int], ...], tuple[int, ...]]:
    """Per cell index, the groups through it as one bitset over their indices
    in `group_masks(spec)`, and the move there: its bit, the group masks
    through it and the mask that clears those groups from a live set.  Then
    the cell indices nearest the centre first, ties in index order, which is
    (row, col) order."""
    groups, cells = group_masks(spec), range(spec.m * spec.n)
    line_bits = tuple(sum(1 << j for j, g in enumerate(groups) if g >> i & 1) for i in cells)
    cell_moves = tuple(
        (1 << i, tuple(g for g in groups if g >> i & 1), ~line_bits[i]) for i in cells
    )
    m, n = spec.m, spec.n
    by_centre = tuple(
        sorted(cells, key=lambda i: (i % m - (m - 1) / 2) ** 2 + (i // m - (n - 1) / 2) ** 2)
    )
    return line_bits, cell_moves, by_centre


def move_order(pos: Position) -> list[int]:
    """The empty cells of pos as bit indices, in the order `solve` tries them:
    heaviest first (module docstring), then nearest the centre, then by (row, col)."""
    black, white = pos.black, pos.white
    stones = black | white
    weight = {
        g: 0 if g & black and g & white else 1 + (g & stones).bit_count()
        for g in group_masks(pos.spec)
    }
    _, cell_moves, by_centre = _cell_tables(pos.spec)
    empty = pos.empty
    return sorted(
        (i for i in by_centre if empty >> i & 1),
        key=lambda i: -sum(map(weight.__getitem__, cell_moves[i][1])),
    )


def solve(pos: Position, pruning: str = "none") -> tuple[Verdict, SearchStats]:
    """Exact game value of pos with perfect play, plus search statistics.

    Raises SearchGuardError past GUARD empty cells: the transposition table
    is unbounded, so a larger search could exhaust memory.
    """
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
    if n_empty > GUARD:
        raise SearchGuardError(f"{n_empty} empty cells exceeds guard of {GUARD}")

    line_bits, cell_moves, _ = _cell_tables(spec)
    # Live groups, as bitsets: those holding no stone of the other side.
    black_live, white_live = live_groups(spec, white), live_groups(spec, black)
    moves = [cell_moves[i] for i in move_order(pos)]
    shift = spec.m * spec.n
    probing = pruning != "none"
    # Black is to move at the nodes whose empty count has this parity.
    black_parity = n_empty & 1 ^ (pos.to_move != BLACK)
    table: dict[int, tuple[int, int]] = {}
    lookup = table.get
    full = (1 << shift) - 1
    setmatch = pruning == "setmatch"
    events = stats.prune_events
    nodes = hits = probes = 0
    cert_seconds = 0.0
    pairings: dict[int, int] = {}

    def probe(live: int, free: int, cover: bool, event: str) -> bool:
        """One counted and timed `_probe`; a hit counts under prune_events[event]."""
        nonlocal probes, cert_seconds
        probes += 1
        probed = perf_counter()
        held = _probe(groups, live, free, cover, pairings)
        cert_seconds += perf_counter() - probed
        if held:
            events[event] += 1
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
        taken = own | opp
        if probing:
            if alpha >= 0:
                if empties_left & 1 == black_parity and probe(own_live, full ^ taken, setmatch, pruning):
                    return 0
            elif beta <= 0 and not threats:
                # One ply ahead: a move after which the opponent's live groups
                # pair.  Moves that kill the same groups leave the same rooms.
                tried = set()
                for bit, _, keep in moves:
                    after = opp_live & keep
                    if taken & bit or after in tried:
                        continue
                    tried.add(after)
                    if not after:
                        events["opponent_pairing"] += 1
                        return 0
                    if 2 * after.bit_count() < empties_left and probe(
                        after, full ^ taken ^ bit, False, "opponent_pairing"
                    ):
                        return 0
        orig_alpha = alpha
        best = -2
        live = own_live | opp_live
        for bit, through, keep in (cell_moves[threats.bit_length() - 1],) if threats else moves:
            if taken & bit:
                continue
            if not threats:
                # Skip a dominated cell: one in no live group, or one whose
                # only live group has an empty cell at a lower bit or in a
                # further live group.
                held = live & ~keep
                if not held & (held - 1):
                    if not held:
                        continue
                    room = groups[held.bit_length() - 1] & ~(taken | bit)
                    while room and not room & (bit - 1):
                        low = room & -room
                        if live & line_bits[low.bit_length() - 1] != held:
                            break
                        room ^= low
                    if room:
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
    elif probing and not (black | white) and probe(own_live, empty, setmatch, pruning):
        nodes, score = 1, 0
    else:
        score = negamax(
            own, opp, own_live, opp_live, threat_cells(groups, opp, own), -1, 1, n_empty
        )
    if pos.to_move != BLACK:
        score = -score
    stats.nodes_examined, stats.table_hits, stats.cert_calls = nodes, hits, probes
    stats.cert_seconds = cert_seconds
    stats.seconds = perf_counter() - started
    return (Verdict.BLACK_WIN, Verdict.DRAW, Verdict.WHITE_WIN)[1 - score], stats


REPORT_HEADER = (
    "# node counts include every solver invocation, the root included\n"
    f"{'fixture':12s} {'verdict':9s} {'nodes_none':>10s} {'nodes_hj':>10s} "
    f"{'nodes_setmatch':>14s} {'certificate':>12s}"
)


def verify_draw_claims(fixtures: Sequence[tuple[str, str, str | None]]) -> list[dict]:
    """Solve each fixture in all pruning modes and validate its bundled certificate.

    Each fixture is (name, board_text, certificate_text_or_None).  Each report
    holds the fixture name, the plain solve's verdict, the node count of each
    pruning mode and the certificate status.  A BlackWin verdict on any
    fixture is a loud failure: it would falsify the claimed draw proof.
    """
    from .board import parse_position
    from .certio import certificate_from_json
    from .configs import check_certificate

    reports = []
    for name, board_text, cert_text in fixtures:
        pos = parse_position(board_text)
        solved = {mode: solve(pos, pruning=mode) for mode in PRUNING_MODES}
        verdict = solved["none"][0]
        if cert_text is None:
            status = "missing"
        else:
            cert = certificate_from_json(cert_text)
            status = "Valid" if check_certificate(cert).valid else "Invalid"
        if verdict == Verdict.BLACK_WIN:
            raise AssertionError(
                f"fixture {name}: oracle verdict is BlackWin, draw claim falsified"
            )
        reports.append({
            "fixture": name,
            "verdict": str(verdict),
            **{f"nodes_{mode}": stats.nodes_examined for mode, (_, stats) in solved.items()},
            "certificate_status": status,
        })
    return reports


def format_report(reports: Sequence[dict]) -> str:
    lines = [REPORT_HEADER]
    for r in reports:
        lines.append(
            f"{r['fixture']:12s} {r['verdict']:9s} {r['nodes_none']:10d} "
            f"{r['nodes_hj']:10d} {r['nodes_setmatch']:14d} {r['certificate_status']:>12s}"
        )
    return "\n".join(lines)
