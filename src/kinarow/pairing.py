"""Hales-Jewett pairings: exact search, verification, and White's reply rules.

A pairing reserves two distinct empty cells (markers) per group, all cells
distinct across groups.  Feasibility is decided exactly by a bipartite
matching in which every group demands two units and every usable cell
supplies one, so a None result means no pairing exists at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence, TypeVar

from .board import Cell, Group, Position, cell_key, EMPTY, WHITE

T = TypeVar("T", bound=Hashable)


class DeadGroupError(ValueError):
    """Raised when a pairing is requested for a group already containing White."""


def _max_matching(
    slots: int, candidates: Callable[[int], Sequence[T]]
) -> dict[T, int] | None:
    """Match every slot to a distinct node via augmenting paths, or None."""
    owner: dict[T, int] = {}

    def augment(slot: int, seen: set[T]) -> bool:
        for node in candidates(slot):
            if node in seen:
                continue
            seen.add(node)
            if node not in owner or augment(owner[node], seen):
                owner[node] = slot
                return True
        return False

    for slot in range(slots):
        if not augment(slot, set()):
            return None
    return owner


def pairing_exists(rooms: Sequence[int]) -> bool:
    """Whether two cells of each room (a bitmask of usable cells) can be reserved, none twice."""
    cells = [[1 << i for i in range(room.bit_length()) if room >> i & 1] for room in rooms]
    return _max_matching(2 * len(cells), lambda slot: cells[slot // 2]) is not None


def match_pairs(
    group_nodes: Sequence[frozenset[T]],
    available: frozenset[T],
    key: Callable[[T], object] = lambda n: n,
) -> list[tuple[T, T]] | None:
    """Assign a disjoint pair of available nodes inside each node set.

    Returns one pair per entry of group_nodes (lexicographically smallest
    assignment under `key`), or None when infeasible.  Groups and cells are
    abstract here so the same routine serves board pairings and the
    marker-label pairings inside matching-set coverings.
    """

    def feasible(sets: Sequence[frozenset[T]], avail: frozenset[T]) -> bool:
        ordered = {i: sorted(s & avail, key=key) for i, s in enumerate(sets)}
        return (
            _max_matching(2 * len(sets), lambda slot: ordered[slot // 2]) is not None
        )

    if not feasible(group_nodes, available):
        return None
    pairs: list[tuple[T, T]] = []
    avail = available
    for i, nodes in enumerate(group_nodes):
        own = sorted(nodes & avail, key=key)
        rest = group_nodes[i + 1 :]
        for a_idx in range(len(own)):
            for b_idx in range(a_idx + 1, len(own)):
                u, v = own[a_idx], own[b_idx]
                if feasible(rest, avail - {u, v}):
                    pairs.append((u, v))
                    avail = avail - {u, v}
                    break
            else:
                continue
            break
        else:  # pragma: no cover - guarded by the feasibility pre-check
            return None
    return pairs


@dataclass(frozen=True)
class Pairing:
    """Marker pairs per group; all marker cells pairwise distinct."""

    assignments: tuple[tuple[Group, tuple[Cell, Cell]], ...]

    def pair_for(self, group: Group) -> tuple[Cell, Cell] | None:
        for g, pair in self.assignments:
            if g == group:
                return pair
        return None

    def marker_cells(self) -> set[Cell]:
        return {c for _, pair in self.assignments for c in pair}

    def groups(self) -> list[Group]:
        return [g for g, _ in self.assignments]

    def pairs(self) -> list[tuple[Cell, Cell]]:
        return [pair for _, pair in self.assignments]


def find_hj_pairing(
    pos: Position,
    groups: Sequence[Group],
    excluded: frozenset[Cell] = frozenset(),
) -> Pairing | None:
    """An exact HJ-pairing for the given live groups, or None if none exists.

    Cells in `excluded` are off-limits as markers (already reserved elsewhere).
    """
    for g in groups:
        if any(pos.at(c) == WHITE for c in g):
            raise DeadGroupError(f"group {g} already contains a White stone")
    empty_sets = [
        frozenset(c for c in g if pos.is_empty(c) and c not in excluded)
        for g in groups
    ]
    available = frozenset(c for s in empty_sets for c in s)
    pairs = match_pairs(empty_sets, available, key=cell_key)
    if pairs is None:
        return None
    assignments = tuple(
        (g, (min(p, key=cell_key), max(p, key=cell_key)))
        for g, p in zip(groups, pairs)
    )
    return Pairing(assignments)


def verify_pairing(
    pos: Position,
    pairing: Pairing,
    groups: Sequence[Group] | None = None,
) -> list[str]:
    """All violations of the pairing invariants against pos (empty list = valid).

    When `groups` is given, every one of them must be covered by a pair.
    """
    violations = []
    seen: dict[Cell, Group] = {}
    for g, pair in pairing.assignments:
        if pair[0] == pair[1]:
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
    if groups is not None:
        covered = set(pairing.groups())
        for g in groups:
            if g not in covered:
                violations.append(f"uncovered group: {g}")
    return violations


def cell_name_safe(cell: Cell) -> str:
    from .board import cell_name

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
