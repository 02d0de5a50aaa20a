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


@functools.lru_cache(maxsize=1024)
def cell_name(cell: Cell) -> str:
    col, row = cell
    if col >= 26:
        raise ValueError(f"column index {col} has no algebraic name")
    return f"{chr(ord('a') + col)}{row + 1}"


@functools.lru_cache(maxsize=1024)
def parse_cell(name: str) -> Cell:
    name = name.strip()
    if len(name) < 2 or not name.isascii() or not name[0].isalpha() or not name[1:].isdigit():
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
    """An immutable board position: the cells each side holds as a bitmask,
    bit r*m+c for the cell (c, r)."""

    spec: BoardSpec
    black: int
    white: int
    to_move: str

    def __post_init__(self) -> None:
        if self.black < 0 or self.white < 0:
            raise BoardFormatError("stone masks must not be negative")
        if (self.black | self.white) >> self.spec.m * self.spec.n:
            raise BoardFormatError("stone mask has a bit beyond the board")
        if self.black & self.white:
            raise BoardFormatError("a cell holds both a black and a white stone")
        if self.to_move not in (BLACK, WHITE):
            raise BoardFormatError(f"bad side to move: {self.to_move!r}")
        blacks = self.black.bit_count()
        whites = self.white.bit_count()
        expected = blacks - (1 if self.to_move == WHITE else 0)
        if whites != expected:
            raise IllegalPositionError(
                f"illegal stone counts for {self.to_move} to move: "
                f"{blacks} black vs {whites} white"
            )

    @property
    def empty(self) -> int:
        """The empty cells as a bitmask."""
        return (1 << self.spec.m * self.spec.n) - 1 & ~(self.black | self.white)

    def at(self, cell: Cell) -> str:
        if not self.spec.in_bounds(cell):
            raise MoveError(f"cell {cell} out of bounds")
        bit = 1 << cell[1] * self.spec.m + cell[0]
        return BLACK if self.black & bit else WHITE if self.white & bit else EMPTY

    def is_empty(self, cell: Cell) -> bool:
        return self.at(cell) == EMPTY

    def count(self, state: str) -> int:
        return {BLACK: self.black, WHITE: self.white, EMPTY: self.empty}[state].bit_count()

    def empties(self) -> list[Cell]:
        m, empty = self.spec.m, self.empty
        return [(i % m, i // m) for i in range(empty.bit_length()) if empty >> i & 1]


def empty_position(spec: BoardSpec, to_move: str = BLACK) -> Position:
    return Position(spec, 0, 0, to_move)


def apply_move(pos: Position, cell: Cell) -> Position:
    """Place a stone of the side to move and flip the turn."""
    if not pos.is_empty(cell):
        raise MoveError(f"cell {cell_name(cell)} is occupied")
    bit = 1 << cell[1] * pos.spec.m + cell[0]
    if pos.to_move == BLACK:
        return Position(pos.spec, pos.black | bit, pos.white, WHITE)
    return Position(pos.spec, pos.black, pos.white | bit, BLACK)


@functools.lru_cache(maxsize=None)
def group_masks(spec: BoardSpec) -> tuple[int, ...]:
    """The cells of each enumerate_groups(spec) entry as a bitmask like Position.black."""
    return tuple(
        sum(1 << (r * spec.m + c) for c, r in g.cells) for g in enumerate_groups(spec)
    )


def live_groups(spec: BoardSpec, stones: int) -> int:
    """The groups holding none of stones (a cell bitmask) as a bitset over
    enumerate_groups(spec): the groups the other side can still complete."""
    return sum(1 << i for i, g in enumerate(group_masks(spec)) if not g & stones)


def live_black_groups(pos: Position) -> list[Group]:
    """Groups containing no White stone: the only lines Black could complete."""
    return [
        g
        for g, mask in zip(enumerate_groups(pos.spec), group_masks(pos.spec))
        if not mask & pos.white
    ]


def winner(pos: Position) -> str | None:
    """BLACK or WHITE for the first completed group in enumerate_groups order, else None."""
    for mask in group_masks(pos.spec):
        if mask & pos.black == mask:
            return BLACK
        if mask & pos.white == mask:
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
    bad = set("".join(body)) - {EMPTY, BLACK, WHITE}
    if bad:
        raise BoardFormatError(f"bad cell characters: {sorted(bad)}")
    # Top row first, each right to left: the cells from the highest bit down.
    digits = "".join(ln[::-1] for ln in body)
    black, white = (
        int("".join("1" if s == state else "0" for s in digits), 2) for state in (BLACK, WHITE)
    )
    return Position(spec, black, white, BLACK if header[3] == "B" else WHITE)


def render_position(pos: Position) -> str:
    """Inverse of parse_position."""
    side = "B" if pos.to_move == BLACK else "W"
    header = f"{pos.spec.m} {pos.spec.n} {pos.spec.k} {side}"
    rows = (
        "".join(pos.at((c, r)) for c in range(pos.spec.m)) for r in reversed(range(pos.spec.n))
    )
    return "\n".join([header, *rows]) + "\n"
