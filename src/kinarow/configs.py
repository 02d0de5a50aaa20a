"""Catalog of drawing configurations, embedding detection, and draw proving.

Templates describe configurations abstractly: labeled markers, groups given
by their marker labels, and a main pair of markers; a template's matching set
(its symmetries and coverings) is derived from these.  Detection embeds
templates into concrete positions; prove_draw combines independent
embeddings with a residual pairing to cover every live Black group.
"""

from __future__ import annotations

import functools
import re
import string
import struct
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, compress, product, repeat
from operator import add, eq, itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .board import (
    BLACK,
    BoardSpec,
    Cell,
    Group,
    Position,
    cell_key,
    enumerate_groups,
    group_masks,
    live_black_groups,
    live_groups,
)
from .pairing import Pairing, pairing_exists, smallest_pairing, verify_pairing
from .setmatch import (
    Covering,
    MatchingSet,
    ProofResult,
    symmetry_closure,
    verify_matching_set,
)

Label = str
AbstractGroup = frozenset


@dataclass(frozen=True)
class ConfigTemplate:
    """A configuration: its groups over marker labels, and the main pair of
    markers that answer each other.  Its markers, symmetries and coverings
    follow from these and are derived on first use (matching)."""

    name: str
    groups: tuple[AbstractGroup, ...]
    main_markers: tuple[Label, Label]

    @functools.cached_property
    def markers(self) -> frozenset:
        """Every label of a group: each marker lies in a group."""
        return frozenset().union(*self.groups)

    @functools.cached_property
    def labels(self) -> tuple[Label, ...]:
        """The marker labels in sorted order: label i is bit or entry i."""
        return tuple(sorted(self.markers))

    @functools.cached_property
    def num_markers(self) -> int:
        return len(self.markers)

    @functools.cached_property
    def num_groups(self) -> int:
        return len(self.groups)

    @functools.cached_property
    def reduction(self) -> int:
        """Markers saved versus a plain two-per-group pairing."""
        return 2 * self.num_groups - self.num_markers

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.num_markers, self.num_groups)

    @functools.cached_property
    def tables(self) -> dict[BoardSpec, PlacementTable]:
        """The placement table of each board this template was detected on.

        Built by _kept_rows on first use, and dropped with the template.
        """
        return {}

    @functools.cached_property
    def automorphisms(self) -> list[dict[Label, Label]]:
        """Every label permutation that maps the groups onto the groups and
        the main pair onto itself, sorted by its images in label order.

        A backtracking search maps the labels group by group in
        _assignment_order, each to a free label of the same group count and
        main-pair membership, tried in label order, and drops a partial map
        as soon as a group whose labels are all mapped lands off the groups.
        On a cycle a group closes every step or two, where label order would
        map all the corners before any group closes.
        """
        labels, groups, main = self.labels, set(self.groups), set(self.main_markers)
        degree = {x: sum(x in g for g in groups) for x in labels}
        order: list[Label] = []
        for i in _assignment_order(self.groups):
            order += sorted(self.groups[i].difference(order))
        order += sorted(set(labels).difference(order))
        step = {x: i for i, x in enumerate(order)}
        # closing[i]: the groups whose last label in that order is order[i].
        closing = [[g for g in groups if max(map(step.__getitem__, g)) == i] for i in range(len(order))]
        image: dict[Label, Label] = {}
        found = []

        def extend(i: int) -> None:
            if i == len(order):
                found.append({x: image[x] for x in labels})
                return
            x = order[i]
            for y in labels:
                if y in image.values() or degree[y] != degree[x] or (y in main) != (x in main):
                    continue
                image[x] = y
                if all(frozenset(map(image.__getitem__, g)) in groups for g in closing[i]):
                    extend(i + 1)
                del image[x]

        extend(0)
        found.sort(key=lambda perm: tuple(perm.values()))
        return found

    @functools.cached_property
    def matching(self) -> MatchingSet:
        """The template's matching set.  Its symmetry lists, in the order of
        automorphisms, each map the maps before it do not generate, by the
        labels it moves.  Its coverings answer the first label of each orbit
        of the markers under the automorphisms (derive_coverings)."""
        labels = self.labels
        symmetry: list[dict[Label, Label]] = []
        generated = {labels}
        for perm in self.automorphisms:
            if tuple(map(perm.__getitem__, labels)) not in generated:
                symmetry.append({x: y for x, y in perm.items() if x != y})
                generated = {
                    tuple(map(q.__getitem__, labels))
                    for q in symmetry_closure(self.markers, symmetry)
                }
        firsts = [x for x in labels if all(perm[x] >= x for perm in self.automorphisms)]
        coverings = derive_coverings(self.markers, self.groups, self.main_markers, firsts)
        return MatchingSet(self.markers, self.groups, coverings, tuple(symmetry))


def derive_coverings(
    markers: frozenset,
    groups: Sequence[AbstractGroup],
    main: tuple[Label, Label],
    moves: Iterable[Label],
) -> tuple[Covering, ...]:
    """A covering for each of the given first moves.  A main marker is
    answered by the other; any other marker by the first reply, trying the
    main markers and then the other markers in label order, that leaves the
    groups it misses a pairing of the markers other than the move
    (smallest_pairing).
    Each covering's pairs come in sorted order."""
    a, b = main
    labels = sorted(markers)  # label i is bit i, so pairs come in label order
    bit = {lbl: 1 << i for i, lbl in enumerate(labels)}
    coverings = []
    for x in moves:
        if x == a:
            replies: list[Label] = [b]
        elif x == b:
            replies = [a]
        else:
            replies = [a, b] + sorted(markers - {a, b, x})
        for y in replies:
            rooms = [sum(bit[lbl] for lbl in g - {x}) for g in groups if y not in g]
            pairs = smallest_pairing(rooms)
            if pairs is not None:
                coverings.append(Covering(x, y, tuple(sorted((labels[i], labels[j]) for i, j in pairs))))
                break
        else:
            raise ValueError(f"no covering derivable for first move {x}")
    return tuple(coverings)


@functools.cache
def cycle_template(n: int) -> ConfigTemplate:
    """Cycle of n groups: all corners marked, all sides but one carry an extra marker."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 groups")
    if 2 * n - 1 > 26:
        raise ValueError("cycle too large for letter labels")
    letters = string.ascii_lowercase
    corners = list(letters[:n])  # a, b main; c.. around the cycle
    edges = list(letters[n : 2 * n - 1])
    a, b = corners[0], corners[1]
    if n == 3:
        sides = [(a, corners[2]), (b, corners[2])]
    else:
        sides = [(a, corners[-1]), (b, corners[2])]
        sides += [(corners[i], corners[i + 1]) for i in range(2, n - 1)]
    groups = [frozenset((a, b))]
    groups += [frozenset((u, e, v)) for (u, v), e in zip(sides, edges)]
    return ConfigTemplate(f"CycleN({n})", tuple(groups), (a, b))


@functools.cache
def cycle_line_template(n: int) -> ConfigTemplate:
    """Cycle of n groups plus a line through the two edge markers nearest the main side."""
    base = cycle_template(n)
    letters = string.ascii_lowercase
    e1 = letters[n]  # edge marker on the side at a
    e2 = letters[n + 1]  # edge marker on the side at b
    extra = letters[2 * n - 1]
    groups = base.groups + (frozenset((e1, extra, e2)),)
    return ConfigTemplate(f"CycleNLine({n})", groups, base.main_markers)


# The catalog, one template a row: name, groups, main pair.
_TEMPLATE_ROWS = (
    ("Triangle", "ab adc bec", "ab"),
    ("Square", "ab aed bfc cgd", "ab"),
    ("Triangle/Line", "ab adc bec dfe", "ab"),
    ("Square/Line", "ab aed bfc cgd ehf", "ab"),
    ("BiTriangle", "ab adc agf bec bhf", "ab"),
    ("BiTriangleX", "ab adc aef bec bgf", "ab"),
    ("FlatStar", "abc adg bdf beh ceg fgh", "bg"),
    ("BiTriangle/Line", "ab adc agf bec bhf die", "ab"),
    ("BiTriangle/BiLine", "ab adc agf bec bhf die gjh", "ab"),
    ("BiTriangleX/Line", "ab adc aef bec bgf dhg", "ab"),
    ("FlatStar/Line", "abc adg bdf beh bg ceg fgh", "bg"),
    ("TriTriangleX", "ab adc aef aih bec bgf bjh", "ab"),
)


def _fixed_templates() -> list[ConfigTemplate]:
    return [
        ConfigTemplate(name, tuple(map(frozenset, groups.split())), tuple(main))
        for name, groups, main in _TEMPLATE_ROWS
    ]


@functools.cache
def _catalog() -> tuple[ConfigTemplate, ...]:
    return tuple(_fixed_templates())


def catalog() -> list[ConfigTemplate]:
    """The twelve named templates, the same objects on every call."""
    return list(_catalog())


def template_by_name(name: str) -> ConfigTemplate:
    """A catalog template, or CycleN(n) / CycleNLine(n), by name in any case."""
    for t in catalog():
        if t.name.lower() == name.lower():
            return t
    cycle = re.fullmatch(r"cyclen(line)?\(([0-9]+)\)", name, re.IGNORECASE)
    if cycle is None:
        raise KeyError(f"unknown configuration {name!r}")
    return (cycle_line_template if cycle[1] else cycle_template)(int(cycle[2]))


@dataclass(slots=True)
class Embedding:
    """A template placed on a board.

    cells holds the marker cells in sorted label order and groups the board
    groups in template.groups order.
    """

    template: ConfigTemplate
    cells: tuple[Cell, ...]
    groups: tuple[Group, ...]

    @property
    def binding(self) -> dict[Label, Cell]:
        return dict(zip(self.template.labels, self.cells))

    def to_matching_set(self) -> MatchingSet:
        b = self.binding
        coverings = tuple(
            Covering(
                b[c.black_move],
                b[c.white_response],
                tuple(
                    tuple(sorted((b[u], b[v]), key=cell_key)) for u, v in c.pairs
                ),
            )
            for c in self.template.matching.coverings
        )
        symmetry = tuple(
            {b[k]: b[v] for k, v in perm.items() if k in b}
            for perm in self.template.matching.symmetry
        )
        return MatchingSet(
            markers=frozenset(b.values()),
            groups=self.groups,
            coverings=coverings,
            symmetry=symmetry,
        )


def _assignment_order(groups: Sequence[AbstractGroup]) -> list[int]:
    """Order abstract groups so each new one shares as many labels as possible."""
    remaining = set(range(len(groups)))
    order: list[int] = []
    placed: set[Label] = set()
    while remaining:
        best = max(
            remaining,
            key=lambda i: (len(groups[i] & placed), len(groups[i]), -i),
        )
        order.append(best)
        placed |= groups[best]
        remaining.remove(best)
    return order


# Per bit i, the byte map that reads a byte as the ASCII digit of its bit i.
_BIT_DIGITS = tuple((b"0" * (1 << i) + b"1" * (1 << i)) * (128 >> i) for i in range(8))


def _columns(packed: bytes, width: int) -> list[int]:
    """Bitsets over keys packed side by side in (width + 7) // 8 little-endian
    bytes each: bit j of columns[b] is bit b of key j."""
    size = (width + 7) // 8
    columns = []
    # Byte b // 8 of every key, last key first, maps to binary text whose
    # digits are bit b of each key: one pass per column over all keys.
    for b in range(width):
        if b % 8 == 0:
            plane = packed[b // 8 :: size][::-1]
        columns.append(int(plane.translate(_BIT_DIGITS[b % 8]) or b"0", 2))
    return columns


def _ones(mask: int) -> list[int]:
    """The indices of mask's 1 bits, ascending, from the runs of 0s between them."""
    runs = format(mask, "b")[::-1].split("1")
    return list(accumulate(map(add, map(len, runs), repeat(1)), initial=-1))[1:-1]


def _entries(data: array, width: int, picks: Sequence[int]) -> array:
    """The records of width entries each in data, each cut down to its
    entries at picks, in that order."""
    out = array(data.typecode, bytes(len(data) // width * len(picks) * data.itemsize))
    for to, at in enumerate(picks):
        out[to :: len(picks)] = data[at::width]
    return out


class PlacementTable(NamedTuple):
    """Every placement of one template on a region of one board.

    The region is a set of groups (bit i for enumerate_groups(spec)[i]) and
    a set of empty cells (a cell bitmask like Position.empty); a placement
    on it puts the template's markers on region cells and its groups on
    region groups.  Rows come in _placement_table order.  rows holds each
    row's marker cells by label (as bit indices), then its groups by
    template.groups order; keys holds each row's marker_mask << shift |
    group_mask, where shift is the spec's group count, in _columns packing.
    columns[i] is the bitset of rows holding group i, and columns[shift + b]
    that of rows with a marker on cell b.  No row is an image of another,
    cells and groups, under the template's symmetries (_placement_table), so
    each row is one placement per symmetry class.  rank[j] is row j's place
    when the rows are sorted by their marker cells as Embedding.cells (a
    stable sort), so prove_draw orders rows by cells without building them.
    """

    groups: int
    empty: int
    rows: array
    keys: bytes
    columns: list[int]
    rank: array


def _placement_table(
    spec: BoardSpec, template: ConfigTemplate, live: int, empty: int
) -> PlacementTable:
    """Every placement of template on the live groups and empty cells.

    live is a bitset over enumerate_groups(spec) and empty a cell bitmask
    like Position.empty.  Abstract groups take live groups in
    _assignment_order, each in enumerate_groups order.  A label shared by two
    placed groups is bound to their one common empty cell; a label held by a
    single group (an edge label) then takes each free empty cell of that
    group in turn.

    An assignment of groups that a symmetry of the template maps to an
    earlier one is skipped: each of its placements is an image of a
    placement of that earlier assignment on the same groups and cells.
    Earlier means smaller when both are read in step order (the lex-leader
    test), so of each class of assignments under the symmetries only the
    least is walked.  No symmetry of a catalog or cycle template but the
    identity maps every group to itself, so two rows that are images of
    each other would hold one assignment and be the same row: the table
    holds one placement per symmetry class of its cells and groups.

    A symmetry that moves the groups (a mirror) reads, at each step, the
    live group of the abstract group it maps that step's group to.  This
    reading first differs from the assignment's own at a step d fixed by the
    mirror, where it reads the live group of a later step p, and two
    abstract groups never take the same live group; so the image is earlier
    exactly when step p's live group comes before step d's.  Step p
    therefore tries only the live groups after those of its steps d (its
    floor): each mirror is tested on the first prefix that decides it, which
    skips exactly the assignments that testing every whole assignment would.
    """
    abstract = template.groups
    labels = template.labels
    index = {label: i for i, label in enumerate(labels)}
    order = _assignment_order(abstract)
    perms = template.automorphisms
    group_at = {g: i for i, g in enumerate(abstract)}
    # floors[p]: the abstract groups of the steps d whose live groups step
    # p's must follow, one for each mirror that first reads another group
    # than order at step d, and reads step p's group there.
    floors: list[set[int]] = [set() for _ in order]
    for perm in perms:
        mirror = [group_at[frozenset(perm[label] for label in abstract[i])] for i in order]
        d = next((s for s, i in enumerate(order) if mirror[s] != i), None)
        if d is not None:
            floors[order.index(mirror[d])].add(order[d])
    # One (group, size, checks, binds, floor) step per abstract group in
    # order: checks are its labels bound at earlier steps, whose cell must lie
    # in the new group; binds pair each label it shares with exactly one
    # earlier group with that group, and the label is bound to the cell where
    # the two meet.  edges pairs each label held by a single group with that
    # group.
    steps = []
    for step, i in enumerate(order):
        checks, binds = [], []
        for label in sorted(abstract[i]):
            earlier = [j for j in order[:step] if label in abstract[j]]
            if len(earlier) >= 2:
                checks.append(index[label])
            elif earlier:
                binds.append((index[label], earlier[0]))
        steps.append((i, len(abstract[i]), checks, binds, sorted(floors[step])))
    holders = [[j for j, g in enumerate(abstract) if label in g] for label in labels]
    edges = [(i, held[0]) for i, held in enumerate(holders) if len(held) == 1]
    # A row is its cells by label, then its groups in template.groups order.
    # It is found as a raw row: the labels' cells (an edge label's entry
    # unused), the groups, then the edge labels' cells.  slot[x] is the entry
    # of label x's cell in a raw row, laid lists the raw entries that read out
    # a row.
    nm, ng = len(labels), len(abstract)
    slot = list(range(nm))
    for e, (label, _) in enumerate(edges):
        slot[label] = nm + ng + e
    raw_width = nm + ng + len(edges)
    laid = slot + list(range(nm, nm + ng))

    masks = group_masks(spec)
    shift = len(masks)
    live_index = _ones(live)
    cell_masks = [masks[i] for i in live_index]
    opens = [cm & empty for cm in cell_masks]  # empty cells of each live group
    # clash[a]: live groups sharing two or more cells with a.  meet[a][b]: the
    # one cell a and b share when that cell is empty, else -1; meets[a]: the
    # live groups b with such a cell.  through[c]: the live groups holding c.
    n_live = len(live_index)
    clash = [0] * n_live
    meet = [[-1] * n_live for _ in range(n_live)]
    meets = [0] * n_live
    for a in range(n_live):
        for b in range(a + 1, n_live):
            common = cell_masks[a] & cell_masks[b]
            if common & (common - 1):
                clash[a] |= 1 << b
                clash[b] |= 1 << a
            elif common & empty:
                meet[a][b] = meet[b][a] = common.bit_length() - 1
                meets[a] |= 1 << b
                meets[b] |= 1 << a
    through = [0] * (spec.m * spec.n)
    for gi, cm in enumerate(cell_masks):
        for b in _ones(cm):
            through[b] |= 1 << gi
    # roomy[size]: the live groups with at least size empty cells.
    roomy = {
        size: sum(1 << gi for gi in range(n_live) if opens[gi].bit_count() >= size)
        for _, size, _, _, _ in steps
    }

    width = shift + spec.m * spec.n
    key_bytes = (width + 7) // 8
    code = "B" if max(shift, spec.m * spec.n) <= 256 else "H"
    pack_bound = struct.Struct(f"={nm + ng}{code}").pack
    pack_cell = struct.Struct(f"={code}").pack
    hosts = [host for _, host in edges]
    rows = array(code)
    keys = bytearray()
    assigned = [0] * len(steps)  # abstract group -> live group index
    cells = [0] * nm  # label index -> cell bit index
    # The raw rows found since the last flush, packed, and their keys: a few
    # hundred at a time, as the batch adds to the build's peak memory.
    pending: list[bytes] = []
    pending_keys: list[int] = []

    @functools.cache
    def spread(mask: int) -> tuple[list[bytes], list[int]]:
        """The cells of a cell mask, ascending, as raw row entries and as
        bits in a key."""
        ones = _ones(mask)
        return list(map(pack_cell, ones)), [1 << shift + b for b in ones]

    def flush() -> None:
        """Append the pending rows to rows and keys."""
        rows.extend(_entries(array(code, b"".join(pending)), raw_width, laid))
        keys.extend(b"".join(map(int.to_bytes, pending_keys, repeat(key_bytes), repeat("little"))))
        pending.clear()
        pending_keys.clear()

    def assign(step: int, blocked: int, used: int, gmask: int) -> None:
        if step == len(steps):
            # The edge labels take free cells of their groups, in edge order;
            # two given the same cell carry in the key's sum, leaving it
            # fewer 1 bits.
            key = used << shift | gmask
            raw = pack_bound(*cells, *map(live_index.__getitem__, assigned))
            if hosts:
                picks, bits = zip(*[spread(opens[assigned[h]] & ~used) for h in hosts])
                sums = list(map(sum, product(*bits), repeat(key)))
                whole = list(map(eq, map(int.bit_count, sums), repeat(key.bit_count() + len(hosts))))
                pending_keys.extend(compress(sums, whole))
                pending.extend(compress(map(add, repeat(raw), map(b"".join, product(*picks))), whole))
            else:
                pending_keys.append(key)
                pending.append(raw)
            if len(pending) >= 256:
                flush()
            return
        i, size, checks, binds, floor = steps[step]
        free = roomy[size] & ~blocked
        for j in floor:
            free &= -2 << assigned[j]
        for label in checks:
            free &= through[cells[label]]
        for _, j in binds:
            free &= meets[assigned[j]]
        while free:
            low = free & -free
            free ^= low
            gi = low.bit_length() - 1
            row = meet[gi]
            now = used
            for label, j in binds:
                cell = row[assigned[j]]
                if now >> cell & 1:
                    break
                cells[label] = cell
                now |= 1 << cell
            else:
                assigned[i] = gi
                gbit = 1 << live_index[gi]
                assign(step + 1, blocked | clash[gi] | low, now, gmask | gbit)

    assign(0, 0, 0, 0)
    flush()
    # assign refers to itself: dropping it lets what its closure holds go now
    # rather than at a later garbage collection.
    del assign
    keys = bytes(keys)
    # Cell b = r*m+c is the place[b]-th cell in Cell (column, row) order, so
    # a row's marker cells read as places, big-endian, compare as bytes in
    # that order.  One-byte rows translate in one call; two-byte rows (past
    # 256 cells or groups) map entry by entry.  by_cells reads only each
    # row's marker entries.
    place = [b % spec.m * spec.n + b // spec.m for b in range(spec.m * spec.n)] + [0] * shift
    if code == "B":
        placed = rows.tobytes().translate(bytes(place[:256]).ljust(256, b"\0"))
    else:
        wide = array(code, map(place.__getitem__, rows))
        if sys.byteorder == "little":
            wide.byteswap()
        placed = wide.tobytes()
    span = nm * rows.itemsize
    step = (nm + len(steps)) * rows.itemsize
    by_cells = list(map(itemgetter(0), struct.Struct(f"{span}s{step - span}x").iter_unpack(placed)))
    rank = array("i", [0]) * len(by_cells)
    for i, j in enumerate(sorted(range(len(by_cells)), key=by_cells.__getitem__)):
        rank[j] = i
    return PlacementTable(live, empty, rows, keys, _columns(keys, width), rank)


def _kept_rows(
    spec: BoardSpec, template: ConfigTemplate, live: int, empty: int
) -> tuple[PlacementTable, list[int]]:
    """The template's placement table for spec and, in table order, its rows
    that place the template on the live groups and empty cells: one
    placement per symmetry class of its cells and groups (_placement_table).

    live is a bitset over enumerate_groups(spec) and empty a cell bitmask
    like Position.empty.  The table's region grows to the union of every
    live set and empty set seen so far: a placement lies on this position
    exactly when it lies on the region, its groups are live and its markers
    empty, and the region's rows hold this position's placements in the same
    order, because both walk the groups in enumerate_groups order.  So the
    rows holding a dead group or a non-empty cell are cleared, and the rest
    are kept.  No Python step runs per row.
    """
    table = template.tables.get(spec)
    if table is None:
        table = template.tables[spec] = _placement_table(spec, template, live, empty)
    elif live & ~table.groups or empty & ~table.empty:
        table = template.tables[spec] = _placement_table(
            spec, template, live | table.groups, empty | table.empty
        )
    shift = len(group_masks(spec))
    columns = table.columns
    dead = 0
    for i in _ones(table.groups & ~live):
        dead |= columns[i]
    for b in _ones(table.empty & ~empty):
        dead |= columns[shift + b]
    return table, _ones((1 << len(table.rank)) - 1 & ~dead)


def _embeddings(
    spec: BoardSpec, template: ConfigTemplate, table: PlacementTable, rows: Iterable[int]
) -> list[Embedding]:
    """An Embedding for each of the given rows of the template's placement table."""
    cell_of = list(spec.cells())  # bit index r*m+c -> cell (c, r)
    group_of = enumerate_groups(spec)
    nm = template.num_markers
    width = nm + template.num_groups
    data = table.rows
    found = []
    for j in rows:
        o = j * width
        found.append(
            Embedding(
                template,
                tuple(map(cell_of.__getitem__, data[o : o + nm])),
                tuple(map(group_of.__getitem__, data[o + nm : o + width])),
            )
        )
    return found


def detect(
    pos: Position, templates: Sequence[ConfigTemplate] | None = None
) -> list[Embedding]:
    """All template embeddings in pos, one per symmetry class of each
    template's placement, cells and groups (_kept_rows)."""
    if templates is None:
        templates = catalog()
    live = live_groups(pos.spec, pos.white)
    out: list[Embedding] = []
    for t in templates:
        if len(t.groups) <= live.bit_count():
            out.extend(_embeddings(pos.spec, t, *_kept_rows(pos.spec, t, live, pos.empty)))
    return out


@dataclass
class CertEntry:
    template_name: str
    matching: MatchingSet


@dataclass
class DrawCertificate:
    """A complete machine-checkable draw proof for one position."""

    position: Position
    entries: tuple[CertEntry, ...]
    residual: Pairing


@functools.lru_cache(maxsize=256)
def _reductions(groups: int, markers: int, sizes: tuple[tuple[int, int], ...]) -> tuple[tuple[int, ...], ...]:
    """table[g][m]: the most cells saved by templates of the given (groups,
    markers) sizes, any number of each, holding at most g groups and m
    markers in all, for every g <= groups and m <= markers: a 2-D unbounded
    knapsack with value 2*groups - markers per item."""
    best = [[0] * (markers + 1) for _ in range(groups + 1)]
    for g in range(groups + 1):
        row = best[g]
        for m in range(markers + 1):
            for tg, tm in sizes:
                if tg <= g and tm <= m:
                    row[m] = max(row[m], best[g - tg][m - tm] + 2 * tg - tm)
    return tuple(map(tuple, best))


def _sizes(templates: Iterable[ConfigTemplate]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted({(t.num_groups, t.num_markers) for t in templates}))


def _saves_too_little(live: int, cells: int, saved: tuple[tuple[int, ...], ...]) -> bool:
    """Whether no certificate covers `live` live groups from `cells` cells.

    A certificate's embeddings hold distinct live groups and distinct marker
    cells, and its residual pairing takes two further cells per live group
    left over.  Every such cell is empty and lies in one of the groups (each
    template marker lies in a template group), so its templates must save
    (by reduction) at least 2*live - cells of the empty cells in those
    groups.  saved is a _reductions table reaching (live, cells).
    """
    need = 2 * live - cells
    return need > 0 and need > saved[live][cells]


def prove_draw(
    pos: Position,
    templates: Sequence[ConfigTemplate] | None = None,
    max_attempts: int = 5000,
) -> DrawCertificate | None:
    """Cover all live Black groups by independent embeddings plus a residual pairing.

    Sound but deliberately incomplete: None proves nothing.  Positions whose
    templates cannot save enough of the empty cells in live groups
    (_saves_too_little) are refuted before any search, and again over the
    templates that embedded.

    Both passes search the rows that the templates' placement tables keep
    for pos (_kept_rows), each held as its key int, and only the rows of the
    returned certificate become Embeddings.  The residual pass's candidates
    are the rows of what detect lists for the templates in (reduction, group
    count) order, and the cover pass's are those rows in (template name,
    cells) order, one per key.

    Every certificate comes from complete, which adds a residual pairing
    of the groups left over (smallest_pairing) to the chosen rows.  A plain
    pairing of every live group is returned first, so templates=[] gives
    the position's HJ pairing (a certificate with no entries) or None.
    Otherwise the cover pass (exact_cover) seeks covers by embeddings alone
    and keeps the least by (uncovered empty cells, sorted template names,
    sorted bindings), so a full tiling of the empty cells wins whenever it
    finds one.  Failing that, the residual pass (search) returns the first
    set of embeddings whose leftover groups a residual pairing completes.
    max_attempts caps the nodes each of the two passes searches; there is no
    floor.  Both passes skip a child whose subtree cannot hold a better
    result (a cover that beats the best held, or any certificate), and a
    skipped subtree costs no node, so a pass that finishes within budget
    returns what the full search would.
    """
    if pos.to_move != BLACK:
        return None
    if templates is None:
        templates = catalog()
    spec = pos.spec
    all_mask = live_groups(spec, pos.white)
    n_live = all_mask.bit_count()
    empty_mask = pos.empty
    total_empty = empty_mask.bit_count()
    masks = group_masks(spec)
    group_cells = [cells & empty_mask for cells in masks]

    @functools.lru_cache(maxsize=None)
    def open_cells(groups: int) -> int:
        """The empty cells of the groups in a bitset over enumerate_groups."""
        out = 0
        while groups:
            out |= group_cells[(groups & -groups).bit_length() - 1]
            groups &= groups - 1
        return out

    live_cells = open_cells(all_mask)
    cells = live_cells.bit_count()
    if _saves_too_little(n_live, cells, _reductions(n_live, cells, _sizes(templates))):
        return None

    # Candidates are the rows each template's placement table keeps for pos,
    # held as their keys (marker_mask << shift | group_mask): keys lists them
    # in found order, the rows of found[f] from starts[f] on, and chunks
    # their key bytes as the table packs them.  Only a certificate's rows
    # become Embeddings.
    found: list[tuple[ConfigTemplate, PlacementTable, list[int]]] = []
    starts: list[int] = []
    chunks: list[bytes] = []
    cell_of = list(spec.cells())  # cell bit -> cell

    def row_of(i: int) -> tuple[ConfigTemplate, PlacementTable, int]:
        f = bisect_right(starts, i) - 1
        t, table, rows = found[f]
        return t, table, rows[i - starts[f]]

    def complete(chosen: list[int], covered: int, markers: int) -> DrawCertificate | None:
        """The certificate of the chosen candidates and a residual pairing
        of the live groups outside covered on their empty cells off markers,
        or None when no such pairing exists."""
        left, rooms, rest = [], [], all_mask & ~covered
        if 2 * rest.bit_count() > (open_cells(rest) & ~markers).bit_count():  # too few cells for pairs
            return None
        while rest:
            left.append((rest & -rest).bit_length() - 1)
            rest &= rest - 1
            rooms.append(group_cells[left[-1]] & ~markers)
            if rooms[-1].bit_count() < 2:  # no pair fits
                return None
        pairs = smallest_pairing(rooms)
        if pairs is None:
            return None
        entries = []
        for i in chosen:
            t, table, j = row_of(i)
            entries.append(CertEntry(t.name, _embeddings(spec, t, table, [j])[0].to_matching_set()))
        groups = enumerate_groups(spec)
        residual = [(groups[i], (cell_of[a], cell_of[b])) for i, (a, b) in zip(left, pairs)]
        return DrawCertificate(pos, tuple(entries), Pairing(tuple(residual)))

    proof = complete([], 0, 0)
    if proof is not None:
        return proof
    # The templates by (reduction, group count), the residual pass's order;
    # the sort is stable, so tied templates keep the caller's order.
    for t in sorted(templates, key=lambda t: (-t.reduction, -t.num_groups)):
        if t.num_groups <= n_live:
            table, rows = _kept_rows(spec, t, all_mask, empty_mask)
            if rows:
                found.append((t, table, rows))
    if not found:
        return None
    saved = _reductions(n_live, cells, _sizes(t for t, _, _ in found))
    if _saves_too_little(n_live, cells, saved):
        return None

    shift = len(masks)
    low = (1 << shift) - 1
    width = shift + spec.m * spec.n
    size = (width + 7) // 8
    name_of: list[str] = []  # each candidate's template name
    for t, table, rows in found:
        starts.append(len(chunks))
        packed = table.keys
        chunks += [packed[j * size : j * size + size] for j in rows]
        name_of += [t.name] * len(rows)
    keys = list(map(int.from_bytes, chunks, repeat("little")))

    def binding(i: int) -> list[tuple[Label, Cell]]:
        """Embedding.binding of candidate i, as sorted items."""
        t, table, j = row_of(i)
        o = j * (t.num_markers + t.num_groups)
        return list(zip(t.labels, map(cell_of.__getitem__, table.rows[o : o + t.num_markers])))

    def bitsets(keys: list[int], packed: bytes) -> tuple[list[int], Callable[[int], int]]:
        """Bitsets over keys, which packed holds side by side: bit j stands for
        keys[j].  columns[b] holds the keys with bit b, so columns[i] holds
        group i's holders; clash(j) ORs the columns of keys[j]: the candidates
        sharing a group or a marker cell with it, itself included."""
        columns = _columns(packed, width)

        def clash(j: int) -> int:
            out = 0
            key = keys[j]
            while key:
                out |= columns[(key & -key).bit_length() - 1]
                key &= key - 1
            return out

        return columns, clash

    # Candidates of the cover pass.  Interchangeable label assignments
    # collapse to one candidate per key, the first in (template name, cells)
    # order: templates by name (a stable sort), the rows of each by the
    # table's rank.  The cover pass branches over candidates in that order;
    # cover[j] is candidate j's index into keys, and names[j] its template's.
    order: list[int] = []
    for f in sorted(range(len(found)), key=lambda f: found[f][0].name):
        rows, rank = found[f][2], found[f][1].rank
        by_rank = sorted(range(len(rows)), key=[rank[j] for j in rows].__getitem__)
        order += map(add, by_rank, repeat(starts[f]))
    # fromkeys orders the keys as they first come; the update, from the back, maps each to that one.
    ordered_keys = list(map(keys.__getitem__, order))
    first = dict.fromkeys(ordered_keys)
    first.update(zip(reversed(ordered_keys), reversed(order)))
    cover_keys = list(first)
    cover = list(first.values())
    names = list(map(name_of.__getitem__, cover))
    del order, ordered_keys, first  # one int and one dict entry per kept row

    # Cover pass: cover every live group with matching sets alone (empty
    # residual), branching on the least-flexible uncovered group: the one
    # held by the fewest candidates, the lowest group index on ties.  A
    # node's pool is the bitset of candidates compatible with its choices;
    # it branches on the pool's holders of that group, and a child's pool
    # drops the clash set of the candidate taken.
    # Among full covers, keep the one pinning down the most cells (a tiling
    # of every empty cell first), so the resulting strategy prescribes a
    # reply to as many moves as possible; ties fall to the lexicographically
    # smallest template-name combination for reproducible output.
    columns, clash = bitsets(cover_keys, b"".join(map(chunks.__getitem__, cover)))
    cell_columns = [(1 << b, columns[shift + b]) for b in _ones(live_cells)]
    branch_order = sorted(_ones(all_mask), key=lambda i: (columns[i].bit_count(), i))
    cover_budget = [max_attempts]

    def marked_by(pool: int, marked: int) -> int:
        """marked with every live cell that some candidate of pool marks."""
        for bit, column in cell_columns:
            if not marked & bit and pool & column:
                marked |= bit
        return marked

    best_cover: list[tuple[tuple, list[int]]] = []

    def exact_cover(pool: int, chosen: list[int], covered: int, markers: int) -> None:
        if cover_budget[0] <= 0:
            return
        cover_budget[0] -= 1
        if covered == all_mask:
            key = (
                total_empty - markers.bit_count(),
                tuple(sorted(names[j] for j in chosen)),
                tuple(sorted(binding(cover[j]) for j in chosen)),
            )
            if not best_cover or key < best_cover[0][0]:
                best_cover[:] = [(key, list(chosen))]
            return
        i = next(i for i in branch_order if not covered >> i & 1)
        # Once a cover is held, skip a child when no cover below it can beat
        # the best.  A child's pool drops every other holder of group i, so
        # each candidate taken below it comes from rest, and a cell left
        # unmarked by the choices, the child and every candidate of rest
        # stays uncovered.  Each of the fewer than k candidates taken below
        # has a name no less than least, so no names below sort before the
        # child's names with k copies of least added, or with none when
        # none of those names is above least.  That bound grows with the
        # child's name, and the children come in name order: when the best
        # leaves no cell uncovered, no later child can beat it either, so
        # the loop stops.  A child that passes is checked once more on the
        # cells its own pool can mark.
        reach = -1
        holders = pool & columns[i]
        while holders:  # XOR clears the low bit of a wide bitset in fewer passes
            j = (bit := holders & -holders).bit_length() - 1
            holders ^= bit
            mark = cover_keys[j] >> shift
            marked = markers | mark
            if best_cover:
                if reach < 0:
                    rest = pool & ~columns[i]
                    reach = marked_by(rest, markers)
                    least = names[(rest & -rest).bit_length() - 1] if rest else ""
                    k = (all_mask & ~covered).bit_count()
                (best_uncovered, best_names, _), _ = best_cover[0]
                uncovered = total_empty - (reach | mark).bit_count()
                if uncovered > best_uncovered:
                    continue
                if uncovered == best_uncovered:
                    below = sorted([names[c] for c in chosen] + [names[j]])
                    if rest and below[-1] > least:
                        below = sorted(below + [least] * k)
                    if tuple(below) > best_names:
                        if best_uncovered:
                            continue
                        break
            child = pool & ~clash(j)
            if best_cover and total_empty - marked_by(child, marked).bit_count() > best_uncovered:
                continue
            chosen.append(j)
            exact_cover(child, chosen, covered | cover_keys[j] & low, marked)
            chosen.pop()
            if cover_budget[0] <= 0:
                return

    exact_cover((1 << len(cover)) - 1, [], 0, 0)
    if best_cover:
        return complete([cover[j] for j in best_cover[0][1]], all_mask, 0)
    del cover_keys, cover, names, columns, cell_columns  # before the residual pass builds its own

    # Residual pass: independent candidates in keys order, each combination
    # completed by a residual pairing of the groups left over.  A node's pool
    # is the bitset of later candidates compatible with its choices.  A
    # child is skipped when the templates that embedded cannot save enough
    # of the unmarked empty cells in its uncovered groups
    # (_saves_too_little): no certificate then extends its choices.
    clash = bitsets(keys, b"".join(chunks))[1]
    budget = [max_attempts]

    def search(pool: int, chosen: list[int], covered: int, markers: int) -> DrawCertificate | None:
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        if chosen:
            proof = complete(chosen, covered, markers)
            if proof is not None:
                return proof
        while pool:
            j = (bit := pool & -pool).bit_length() - 1
            pool ^= bit
            group_mask, marker_mask = keys[j] & low, keys[j] >> shift
            uncovered = all_mask & ~(covered | group_mask)
            free = open_cells(uncovered) & ~(markers | marker_mask)
            if _saves_too_little(uncovered.bit_count(), free.bit_count(), saved):
                continue
            chosen.append(j)
            proof = search(pool & ~clash(j), chosen, covered | group_mask, markers | marker_mask)
            chosen.pop()
            if proof is not None or budget[0] <= 0:
                return proof
        return None

    return search((1 << len(keys)) - 1, [], 0, 0)


def _places(template: ConfigTemplate, ms: MatchingSet) -> bool:
    """Whether a one-to-one map of the template's labels onto ms's markers
    puts the labels of each template group inside the group at the same
    place in ms.groups (a board group may hold more markers than its labels:
    an edge marker can lie on a group the template does not give it)."""
    if (len(ms.markers), len(ms.groups)) != (template.num_markers, template.num_groups):
        return False
    options = []
    for x in template.labels:
        cells = set(ms.markers)
        for abstract, g in zip(template.groups, ms.groups):
            if x in abstract:
                cells &= set(g)
        options.append(cells)
    # Each label's room holds its cells and a spare cell no other room has,
    # so the rooms pair exactly when the labels can take distinct cells.
    bit = {c: 1 << i for i, c in enumerate(ms.markers)}
    spare = 1 << len(bit)
    return pairing_exists([sum(map(bit.get, cells)) | spare << i for i, cells in enumerate(options)])


def check_certificate(cert: DrawCertificate) -> ProofResult:
    """Re-validate every certificate invariant, independent of how it was found."""
    v: list[tuple[str, str]] = []
    pos = cert.position
    live = set(live_black_groups(pos))
    seen_markers: set[Cell] = set()
    seen_groups: set[Group] = set()
    for i, entry in enumerate(cert.entries):
        loc = f"embedding {i} ({entry.template_name})"
        ms = entry.matching
        try:
            named = template_by_name(entry.template_name)
        except (KeyError, ValueError):
            v.append((loc, "not a catalog template name"))
            named = None
        else:
            if not _places(named, ms):
                v.append((loc, "markers and groups are no placement of the template"))
        if ms.markers & seen_markers:
            v.append((loc, "independence violated: shared marker cells"))
        seen_markers |= ms.markers
        for g in ms.groups:
            if not isinstance(g, Group):  # verify_matching_set reports it
                continue
            if g in seen_groups:
                v.append((loc, f"independence violated: group {g} reused"))
            if g not in live:
                v.append((loc, f"group {g} is not a live Black group"))
            seen_groups.add(g)
        if named is not None:  # its automorphisms bound what the symmetry maps generate
            result = verify_matching_set(pos, ms, len(named.automorphisms))
            v.extend((f"{loc}/{w}", r) for w, r in result.violations)
    pair_cells = cert.residual.marker_cells()
    if pair_cells & seen_markers:
        v.append(("residual", "pair cells collide with embedding markers"))
    for msg in verify_pairing(pos, cert.residual):
        v.append(("residual", msg))
    for g, _ in cert.residual.assignments:
        if g in seen_groups:
            v.append(("residual", f"group {g} covered twice"))
        if g not in live:
            v.append(("residual", f"group {g} is not a live Black group"))
        seen_groups.add(g)
    for g in sorted(live, key=lambda g: g.cells):
        if g not in seen_groups:
            v.append(("coverage", f"live group {g} is not covered"))
    return ProofResult(tuple(v))
