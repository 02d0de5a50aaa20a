"""Board geometry, position state, and winning-line enumeration for mnk-games.

Coordinates are (col, row), both 0-based, with row 0 at the bottom.  Cells
print in algebraic form: columns a, b, c, ... left to right and rows 1..n
bottom to top, so "a1" is the bottom-left corner.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

EMPTY = "."
BLACK = "X"
WHITE = "O"

Cell = tuple[int, int]

# E, N, NE, SE -- the four canonical line directions.  Reverse directions
# produce the same cell sets and are eliminated by canonical ordering.
DIRECTIONS: tuple[Cell, ...] = ((1, 0), (0, 1), (1, 1), (1, -1))


class BoardFormatError(ValueError):
    """Raised for malformed board text (bad header, bad char, ragged rows)."""


class IllegalPositionError(ValueError):
    """Raised when stone counts are inconsistent with the side to move."""


class MoveError(ValueError):
    """Raised for moves to occupied or out-of-bounds cells."""


def cell_key(cell: Cell) -> tuple[int, int]:
    """Total row-major ordering used for all canonicalization."""
    return (cell[1], cell[0])


def cell_name(cell: Cell) -> str:
    col, row = cell
    if col >= 26:
        raise ValueError(f"column index {col} has no algebraic name")
    return f"{chr(ord('a') + col)}{row + 1}"


def parse_cell(name: str) -> Cell:
    name = name.strip()
    if len(name) < 2 or not name[0].isalpha() or not name[1:].isdigit():
        raise ValueError(f"bad cell name {name!r}")
    return (ord(name[0].lower()) - ord("a"), int(name[1:]) - 1)


@dataclass(frozen=True)
class BoardSpec:
    """An m-columns by n-rows board where k in a row wins."""

    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"board dimensions must be positive: {self.m}x{self.n}")
        if self.m > 26:
            raise ValueError(f"board has {self.m} columns; cell names reach only 26 (a-z)")
        if self.k < 2:
            raise ValueError(f"k must be at least 2, got {self.k}")

    def in_bounds(self, cell: Cell) -> bool:
        return 0 <= cell[0] < self.m and 0 <= cell[1] < self.n

    def cells(self) -> Iterator[Cell]:
        for row in range(self.n):
            for col in range(self.m):
                yield (col, row)


@dataclass(frozen=True)
class Group:
    """A possible winning line: k collinear consecutive cells, canonically ordered."""

    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        cells = tuple(sorted(self.cells, key=cell_key))
        if len(cells) < 2 or len(set(cells)) != len(cells):
            raise ValueError(f"group needs distinct cells: {self.cells}")
        d = (cells[1][0] - cells[0][0], cells[1][1] - cells[0][1])
        if d not in DIRECTIONS and (-d[0], -d[1]) not in DIRECTIONS:
            raise ValueError(f"cells not along a line direction: {self.cells}")
        for a, b in zip(cells, cells[1:]):
            if (b[0] - a[0], b[1] - a[1]) != d:
                raise ValueError(f"cells not consecutive: {self.cells}")
        object.__setattr__(self, "cells", cells)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self.cells

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def cell_set(self) -> frozenset[Cell]:
        return frozenset(self.cells)

    def __str__(self) -> str:
        return "-".join(cell_name(c) for c in self.cells)


@functools.lru_cache(maxsize=None)
def enumerate_groups(spec: BoardSpec) -> tuple[Group, ...]:
    """All length-k windows on the board, each exactly once, canonically ordered."""
    groups = []
    for start in spec.cells():
        for d in DIRECTIONS:
            end = (start[0] + (spec.k - 1) * d[0], start[1] + (spec.k - 1) * d[1])
            if not spec.in_bounds(end):
                continue
            cells = tuple(
                (start[0] + i * d[0], start[1] + i * d[1]) for i in range(spec.k)
            )
            groups.append(Group(cells))
    groups = sorted(set(groups), key=lambda g: tuple(cell_key(c) for c in g.cells))
    return tuple(groups)


@dataclass(frozen=True)
class Position:
    """An immutable board position.  rows[r][c] holds the state of cell (c, r)."""

    spec: BoardSpec
    rows: tuple[str, ...]
    to_move: str

    def __post_init__(self) -> None:
        if len(self.rows) != self.spec.n or any(len(r) != self.spec.m for r in self.rows):
            raise BoardFormatError("row grid does not match board dimensions")
        bad = set("".join(self.rows)) - {EMPTY, BLACK, WHITE}
        if bad:
            raise BoardFormatError(f"bad cell characters: {sorted(bad)}")
        if self.to_move not in (BLACK, WHITE):
            raise BoardFormatError(f"bad side to move: {self.to_move!r}")
        blacks = self.count(BLACK)
        whites = self.count(WHITE)
        expected = blacks - (1 if self.to_move == WHITE else 0)
        if whites != expected:
            raise IllegalPositionError(
                f"illegal stone counts for {self.to_move} to move: "
                f"{blacks} black vs {whites} white"
            )

    def at(self, cell: Cell) -> str:
        if not self.spec.in_bounds(cell):
            raise MoveError(f"cell {cell} out of bounds")
        return self.rows[cell[1]][cell[0]]

    def is_empty(self, cell: Cell) -> bool:
        return self.at(cell) == EMPTY

    def count(self, state: str) -> int:
        return sum(r.count(state) for r in self.rows)

    def empties(self) -> list[Cell]:
        return [c for c in self.spec.cells() if self.is_empty(c)]


def other(side: str) -> str:
    return WHITE if side == BLACK else BLACK


def empty_position(spec: BoardSpec, to_move: str = BLACK) -> Position:
    return Position(spec, (EMPTY * spec.m,) * spec.n, to_move)


def apply_move(pos: Position, cell: Cell) -> Position:
    """Place a stone of the side to move and flip the turn."""
    if not pos.spec.in_bounds(cell):
        raise MoveError(f"cell {cell} out of bounds")
    if not pos.is_empty(cell):
        raise MoveError(f"cell {cell_name(cell)} is occupied")
    col, row = cell
    rows = list(pos.rows)
    rows[row] = rows[row][:col] + pos.to_move + rows[row][col + 1 :]
    return Position(pos.spec, tuple(rows), other(pos.to_move))


def state_mask(pos: Position, state: str) -> int:
    """The cells of pos holding state as a bitmask: bit r*m+c for the cell (c, r)."""
    digits = {ord(s): "1" if s == state else "0" for s in (EMPTY, BLACK, WHITE)}
    return int("".join(pos.rows)[::-1].translate(digits), 2)


@functools.lru_cache(maxsize=None)
def group_masks(spec: BoardSpec) -> tuple[int, ...]:
    """The cells of each enumerate_groups(spec) entry as a state_mask bitmask."""
    return tuple(
        sum(1 << (r * spec.m + c) for c, r in g.cells) for g in enumerate_groups(spec)
    )


def live_black_groups(pos: Position) -> list[Group]:
    """Groups containing no White stone: the only lines Black could complete."""
    white = state_mask(pos, WHITE)
    return [
        g
        for g, mask in zip(enumerate_groups(pos.spec), group_masks(pos.spec))
        if not mask & white
    ]


def winner(pos: Position) -> str | None:
    """BLACK or WHITE if a completed group exists, else None."""
    for g in enumerate_groups(pos.spec):
        states = {pos.at(c) for c in g}
        if states == {BLACK}:
            return BLACK
        if states == {WHITE}:
            return WHITE
    return None


def parse_position(text: str) -> Position:
    """Parse the board file format.

    Line 1 is "m n k side" with side B or W; then n lines of m characters
    from {., X, O}, top row first.
    """
    lines = text.splitlines()
    if not lines:
        raise BoardFormatError("empty board text")
    header = lines[0].split()
    if len(header) != 4:
        raise BoardFormatError(f"bad header line: {lines[0]!r}")
    try:
        m, n, k = (int(x) for x in header[:3])
        spec = BoardSpec(m, n, k)
    except ValueError as exc:
        raise BoardFormatError(f"bad header line: {lines[0]!r} ({exc})") from exc
    if header[3] not in ("B", "W"):
        raise BoardFormatError(f"bad side to move: {header[3]!r}")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != n:
        raise BoardFormatError(f"expected {n} board rows, got {len(body)}")
    for ln in body:
        if len(ln) != m:
            raise BoardFormatError(f"row {ln!r} is not {m} characters wide")
    rows = tuple(reversed(body))
    return Position(spec, rows, BLACK if header[3] == "B" else WHITE)


def render_position(pos: Position) -> str:
    """Inverse of parse_position."""
    side = "B" if pos.to_move == BLACK else "W"
    header = f"{pos.spec.m} {pos.spec.n} {pos.spec.k} {side}"
    return "\n".join([header, *reversed(pos.rows)]) + "\n"
