"""Hales-Jewett pairings: exact search, verification, and White's reply rules.

A pairing reserves two distinct empty cells (markers) per group, all cells
distinct across groups.  One matcher decides it, on rooms: a room is the
bitmask of the cells a group may use, and on a board bit r*m+c stands for
the cell (c, r).  Feasibility is an exact bipartite matching in which every
room demands two units and every usable cell supplies one, so a None result
means no pairing exists at all.  The same matcher decides a one-ply
covering: a pairing after every Black move and some White reply to it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence, TypeVar

from .board import Cell, Group, Position, EMPTY, cell_name

T = TypeVar("T")


def _match(rooms: Sequence[int]) -> tuple[bool, int]:
    """Reserve two cells of each room (a bitmask of usable cells), none twice.

    Rooms go from the smallest, so failures surface early.  A greedy pass
    comes first, each room taking its two lowest unused cells.  Where it
    fails, augmenting paths decide, where slot s takes a cell of room s // 2
    in that order, starting from the cells the greedy pass gave the rooms
    before the one it failed on.  Returns (True, the reserved cells, which
    may come from the greedy pass alone), or (False, the cells seen by the
    failed augmenting search): the rooms it visited lie inside them and
    their slots outnumber them, so taking cells away never yields a pairing
    unless a room through one of those cells leaves play.
    """
    rooms = sorted(rooms, key=int.bit_count)
    greedy = []  # the greedy pass's cells, slot by slot
    used = 0
    for room in rooms:
        free = room & ~used
        low = free & -free
        free ^= low
        if not free:
            break
        high = free & -free
        greedy += (low, high)
        used |= low | high
    else:
        return True, used
    owner = {bit: slot for slot, bit in enumerate(greedy)}  # cell bit -> its slot
    seen = 0  # cells visited by the current augmenting search

    def augment(slot: int) -> bool:
        nonlocal seen
        while free := rooms[slot >> 1] & ~seen:
            bit = free & -free
            seen |= bit
            if bit not in owner or augment(owner[bit]):
                owner[bit] = slot
                return True
        return False

    for slot in range(len(greedy), 2 * len(rooms)):
        seen = 0
        if not augment(slot):
            return False, seen
    return True, sum(owner)


def pairing_exists(rooms: Sequence[int]) -> bool:
    """Whether two cells of each room (a bitmask of usable cells) can be reserved, none twice."""
    return _match(rooms)[0]


def replies_cover(rooms: Sequence[int], free: int, hall: int) -> bool:
    """Whether after every Black move b on free some White reply w leaves the
    rooms that miss w a pairing on free minus b and w.

    hall holds the cells that a failed `_match(rooms)` saw.  Only such a cell
    can be a useful w, and only when the rooms that miss it fit in the cells
    left.  One pairing for (b, w) also covers every other b off its reserved
    cells.
    """
    cells_left = free.bit_count() - 2
    replies = []
    while hall:
        w = hall & -hall
        hall ^= w
        rest = [r & ~w for r in rooms if not r & w]
        if 2 * len(rest) <= cells_left:
            replies.append((w, rest))
    replies.sort(key=lambda reply: len(reply[1]))  # replies that kill most rooms first
    uncovered = free
    while uncovered:
        b = uncovered & -uncovered
        for w, rest in replies:
            if w != b:
                paired, cells = _match([r & ~b for r in rest])
                if paired:
                    uncovered &= cells | w
                    break
        else:
            return False
    return True


def smallest_pairing(rooms: Sequence[int]) -> list[tuple[int, int]] | None:
    """One disjoint pair of bit indices (low first) inside each room, or None.

    Room by room, the first free pair that leaves the later rooms a pairing.
    """
    if not pairing_exists(rooms):
        return None
    pairs: list[tuple[int, int]] = []
    used = 0
    for i, room in enumerate(rooms):
        free = room & ~used
        bits = [b for b in range(free.bit_length()) if free >> b & 1]
        for a, b in itertools.combinations(bits, 2):
            taken = used | 1 << a | 1 << b
            if pairing_exists([r & ~taken for r in rooms[i + 1 :]]):
                pairs.append((a, b))
                used = taken
                break
    return pairs


@dataclass(frozen=True)
class Pairing:
    """Marker pairs per group; all marker cells pairwise distinct."""

    assignments: tuple[tuple[Group, tuple[Cell, Cell]], ...]

    def marker_cells(self) -> set[Cell]:
        return {c for _, pair in self.assignments for c in pair}


def verify_pairing(pos: Position, pairing: Pairing) -> list[str]:
    """All violations of the pairing invariants against pos (empty list = valid)."""
    violations = []
    seen: dict[Cell, Group] = {}
    for g, pair in pairing.assignments:
        if len(pair) != 2:
            violations.append(f"group {g}: pair holds {len(pair)} cells, not 2")
        elif pair[0] == pair[1]:
            violations.append(f"group {g}: pair uses a single marker")
        for c in pair:
            if c not in g:
                violations.append(f"group {g}: marker {cell_name_safe(c)} outside group")
            elif not pos.spec.in_bounds(c):
                violations.append(f"group {g}: marker {cell_name_safe(c)} off the board")
            elif pos.at(c) != EMPTY:
                violations.append(f"group {g}: marker {cell_name_safe(c)} not empty")
            if c in seen and seen[c] != g:
                violations.append(f"marker reuse: {cell_name_safe(c)}")
            seen[c] = g
    return violations


def cell_name_safe(cell: Cell) -> str:
    try:
        return cell_name(cell)
    except ValueError:
        return str(cell)


class PairResponder:
    """White's reply rule for an active set of marker pairs.

    Respond to a played marker with its partner.  Otherwise play the lowest
    empty non-marker; if only markers remain, the lowest marker whose partner
    is still empty; failing that, the lowest empty cell.  A pair is retired
    as soon as White owns one of its markers (its group is covered).
    """

    def __init__(self, pairs: Sequence[tuple[T, T]], key=lambda n: n) -> None:
        self.key = key
        self.active: list[tuple[T, T]] = list(pairs)

    def _partner(self, node: T) -> T | None:
        for u, v in self.active:
            if node == u:
                return v
            if node == v:
                return u
        return None

    def _retire(self, node: T) -> None:
        self.active = [p for p in self.active if node not in p]

    def respond(self, black_node: T | None, empties: set[T]) -> T | None:
        """White's move given Black's last move and the currently empty nodes."""
        reply = self._partner(black_node) if black_node is not None else None
        if reply is not None and reply in empties:
            self._retire(reply)
            return reply
        if black_node is not None and self._partner(black_node) is not None:
            # Partner already gone: the pair can no longer be honored; drop it.
            self._retire(black_node)
        marker_nodes = {n for p in self.active for n in p}
        free_plain = sorted(empties - marker_nodes, key=self.key)
        if free_plain:
            return free_plain[0]
        for u, v in sorted(self.active, key=lambda p: self.key(p[0])):
            for mine, partner in ((u, v), (v, u)):
                if mine in empties and partner in empties:
                    self._retire(mine)
                    return mine
        rest = sorted(empties, key=self.key)
        return rest[0] if rest else None
