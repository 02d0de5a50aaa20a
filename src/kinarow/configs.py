"""Catalog of drawing configurations, embedding detection, and draw proving.

Templates describe configurations abstractly: labeled markers, groups given
by their marker labels, and a matching set over those labels.  Detection
embeds templates into concrete positions; prove_draw combines independent
embeddings with a residual pairing to cover every live Black group.
"""

from __future__ import annotations

import functools
import string
import struct
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .board import (
    BLACK,
    EMPTY,
    BoardSpec,
    Cell,
    Group,
    Position,
    WHITE,
    cell_key,
    enumerate_groups,
    group_masks,
    live_black_groups,
    state_mask,
)
from .pairing import Pairing, find_hj_pairing, smallest_pairing, verify_pairing
from .setmatch import (
    Covering,
    MatchingSet,
    ProofResult,
    symmetry_closure,
    verify_abstract,
    verify_matching_set,
)

Label = str
AbstractGroup = frozenset


@dataclass(frozen=True)
class ConfigTemplate:
    name: str
    matching: MatchingSet
    main_markers: tuple[Label, Label]

    @property
    def markers(self) -> frozenset:
        return self.matching.markers

    @property
    def groups(self) -> tuple[AbstractGroup, ...]:
        return self.matching.groups

    @property
    def num_markers(self) -> int:
        return len(self.matching.markers)

    @property
    def num_groups(self) -> int:
        return len(self.matching.groups)

    @property
    def reduction(self) -> int:
        """Markers saved versus a plain two-per-group pairing."""
        return 2 * self.num_groups - self.num_markers

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.num_markers, self.num_groups)

    @functools.cached_property
    def embed_plan(self) -> EmbedPlan:
        """How _embed_template walks this template, worked out on first use.

        It depends on the template alone, so it holds nothing about any board.
        """
        return _embed_plan(self)

    @functools.cached_property
    def tables(self) -> dict[BoardSpec, PlacementTable]:
        """The placement table of each board this template was detected on.

        Built by _embed_template on first use, and dropped with the template.
        """
        return {}


def _groups(*words: str) -> tuple[AbstractGroup, ...]:
    return tuple(frozenset(w) for w in words)


def _pairs(*ps: str) -> tuple[tuple[Label, Label], ...]:
    return tuple(tuple(sorted(p)) for p in ps)


def derive_coverings(
    markers: frozenset,
    groups: Sequence[AbstractGroup],
    main: tuple[Label, Label],
) -> tuple[Covering, ...]:
    """Build a complete covering set: main-marker responses, pairings by exact matching."""
    a, b = main
    labels = sorted(markers)  # label i is bit i, so pairs come in label order
    bit = {lbl: 1 << i for i, lbl in enumerate(labels)}
    coverings = []
    for x in labels:
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
                coverings.append(Covering(x, y, tuple((labels[i], labels[j]) for i, j in pairs)))
                break
        else:
            raise ValueError(f"no covering derivable for first move {x}")
    return tuple(coverings)


def _template(
    name: str,
    markers: str,
    groups: tuple[AbstractGroup, ...],
    coverings: tuple[Covering, ...] | None,
    symmetry: tuple[dict, ...],
    main: tuple[Label, Label],
) -> ConfigTemplate:
    marker_set = frozenset(markers)
    if coverings is None:
        coverings = derive_coverings(marker_set, groups, main)
        symmetry = ()
    m = MatchingSet(marker_set, groups, coverings, symmetry)
    return ConfigTemplate(name, m, main)


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
    return _template(
        f"CycleN({n})", letters[: 2 * n - 1], tuple(groups), None, (), (a, b)
    )


def cycle_line_template(n: int) -> ConfigTemplate:
    """Cycle of n groups plus a line through the two edge markers nearest the main side."""
    base = cycle_template(n)
    letters = string.ascii_lowercase
    e1 = letters[n]  # edge marker on the side at a
    e2 = letters[n + 1]  # edge marker on the side at b
    extra = letters[2 * n - 1]
    groups = base.groups + (frozenset((e1, extra, e2)),)
    return _template(
        f"CycleNLine({n})",
        letters[: 2 * n],
        groups,
        None,
        (),
        base.main_markers,
    )


def _fixed_templates() -> list[ConfigTemplate]:
    ts = []
    ts.append(
        _template(
            "Triangle",
            "abcde",
            _groups("ab", "adc", "bec"),
            (
                Covering("a", "b", _pairs("cd")),
                Covering("c", "a", _pairs("be")),
                Covering("d", "a", _pairs("bc")),
            ),
            ({"a": "b", "b": "a", "d": "e", "e": "d"},),
            ("a", "b"),
        )
    )
    ts.append(
        _template(
            "Square",
            "abcdefg",
            _groups("ab", "aed", "bfc", "cgd"),
            (
                Covering("a", "b", _pairs("cg", "de")),
                Covering("c", "a", _pairs("bf", "dg")),
                Covering("e", "a", _pairs("bc", "dg")),
                Covering("g", "a", _pairs("bf", "cd")),
            ),
            ({"a": "b", "b": "a", "c": "d", "d": "c", "e": "f", "f": "e"},),
            ("a", "b"),
        )
    )
    ts.append(
        _template(
            "Triangle/Line",
            "abcdef",
            _groups("ab", "adc", "bec", "dfe"),
            (
                Covering("a", "b", _pairs("cd", "ef")),
                Covering("c", "a", _pairs("be", "df")),
                Covering("d", "a", _pairs("bc", "ef")),
                Covering("f", "a", _pairs("bc", "de")),
            ),
            ({"a": "b", "b": "a", "d": "e", "e": "d"},),
            ("a", "b"),
        )
    )
    ts.append(
        _template(
            "Square/Line",
            "abcdefgh",
            _groups("ab", "aed", "bfc", "cgd", "ehf"),
            (
                Covering("a", "b", _pairs("cg", "de", "fh")),
                Covering("c", "a", _pairs("bf", "dg", "eh")),
                Covering("e", "a", _pairs("bc", "dg", "fh")),
                Covering("g", "a", _pairs("bf", "cd", "eh")),
                Covering("h", "a", _pairs("bc", "dg", "ef")),
            ),
            ({"a": "b", "b": "a", "c": "d", "d": "c", "e": "f", "f": "e"},),
            ("a", "b"),
        )
    )
    ts.append(
        _template(
            "BiTriangle",
            "abcdefgh",
            _groups("ab", "adc", "agf", "bec", "bhf"),
            (
                Covering("a", "b", _pairs("cd", "fg")),
                Covering("c", "a", _pairs("be", "fh")),
                Covering("d", "a", _pairs("bc", "fh")),
            ),
            (
                {"c": "f", "f": "c", "d": "g", "g": "d", "e": "h", "h": "e"},
                {"a": "b", "b": "a", "d": "e", "e": "d", "g": "h", "h": "g"},
            ),
            ("a", "b"),
        )
    )
    ts.append(
        _template(
            "BiTriangleX",
            "abcdefg",
            _groups("ab", "adc", "aef", "bec", "bgf"),
            (
                Covering("a", "b", _pairs("cd", "ef")),
                Covering("c", "a", _pairs("be", "fg")),
                Covering("d", "a", _pairs("bf", "ce")),
                Covering("e", "a", _pairs("bc", "fg")),
            ),
            ({"a": "b", "b": "a", "c": "f", "f": "c", "d": "g", "g": "d"},),
            ("a", "b"),
        )
    )
    flatstar_cov = (
        Covering("a", "b", _pairs("ce", "dg", "fh")),
        Covering("b", "g", _pairs("ac", "df", "eh")),
        Covering("d", "b", _pairs("ag", "ce", "fh")),
    )
    flatstar_sym = (
        {"a": "c", "c": "a", "d": "e", "e": "d", "f": "h", "h": "f"},
        {"a": "h", "h": "a", "c": "f", "f": "c", "b": "g", "g": "b", "d": "e", "e": "d"},
    )
    ts.append(
        _template(
            "FlatStar",
            "abcdefgh",
            _groups("abc", "adg", "bdf", "beh", "ceg", "fgh"),
            flatstar_cov,
            flatstar_sym,
            ("b", "g"),
        )
    )
    ts.append(
        _template(
            "BiTriangle/Line",
            "abcdefghi",
            _groups("ab", "adc", "agf", "bec", "bhf", "die"),
            None,
            (),
            ("a", "b"),
        )
    )
    ts.append(
        _template(
            "BiTriangle/BiLine",
            "abcdefghij",
            _groups("ab", "adc", "agf", "bec", "bhf", "die", "gjh"),
            None,
            (),
            ("a", "b"),
        )
    )
    ts.append(
        _template(
            "BiTriangleX/Line",
            "abcdefgh",
            _groups("ab", "adc", "aef", "bec", "bgf", "dhg"),
            None,
            (),
            ("a", "b"),
        )
    )
    ts.append(
        _template(
            "FlatStar/Line",
            "abcdefgh",
            _groups("abc", "adg", "bdf", "beh", "bg", "ceg", "fgh"),
            flatstar_cov,
            flatstar_sym,
            ("b", "g"),
        )
    )
    ts.append(
        _template(
            "TriTriangleX",
            "abcdefghij",
            _groups("ab", "adc", "aef", "aih", "bec", "bgf", "bjh"),
            (
                Covering("a", "b", _pairs("cd", "ef", "hi")),
                Covering("c", "a", _pairs("be", "fg", "hj")),
                Covering("d", "a", _pairs("bf", "ce", "hj")),
                Covering("e", "a", _pairs("bc", "fg", "hj")),
                Covering("h", "a", _pairs("bj", "ce", "fg")),
                Covering("i", "a", _pairs("bc", "fg", "hj")),
            ),
            (
                {"a": "b", "b": "a", "c": "f", "f": "c", "d": "g", "g": "d",
                 "i": "j", "j": "i"},
            ),
            ("a", "b"),
        )
    )
    return ts


_CATALOG: list[ConfigTemplate] | None = None


def catalog(cycle_sizes: Iterable[int] = ()) -> list[ConfigTemplate]:
    """All named templates; cycle generators instantiated for the given sizes."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _fixed_templates()
    out = list(_CATALOG)
    for n in cycle_sizes:
        out.append(cycle_template(n))
        out.append(cycle_line_template(n))
    return out


def template_by_name(name: str) -> ConfigTemplate:
    for t in catalog():
        if t.name.lower() == name.lower():
            return t
    if name.lower().startswith("cyclenline("):
        return cycle_line_template(int(name[len("cyclenline(") : -1]))
    if name.lower().startswith("cyclen("):
        return cycle_template(int(name[len("cyclen(") : -1]))
    raise KeyError(f"unknown configuration {name!r}")


@dataclass(slots=True)
class Embedding:
    """A template placed on a board.

    cells holds the marker cells in sorted label order and groups the board
    groups in template.groups order.  marker_mask and group_mask hold the
    same placement as bitmasks: bit r*m+c for the cell (c, r), and bit i for
    enumerate_groups(spec)[i].
    """

    template: ConfigTemplate
    cells: tuple[Cell, ...]
    groups: tuple[Group, ...]
    marker_mask: int
    group_mask: int

    @property
    def binding(self) -> dict[Label, Cell]:
        return dict(zip(sorted(self.template.markers), self.cells))

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


@functools.lru_cache(maxsize=None)
def _group_index(spec: BoardSpec) -> dict[Group, int]:
    """The position of every group in enumerate_groups(spec)."""
    return {g: i for i, g in enumerate(enumerate_groups(spec))}


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


class EmbedPlan(NamedTuple):
    """The board-independent part of embedding one template.

    Labels are numbered by their place in sorted(template.markers).  steps
    places the abstract groups in _assignment_order, one (group, size,
    checks, binds) tuple each: checks are its labels bound at earlier steps,
    whose cell must lie in the new group; binds pair each label it shares
    with exactly one earlier group with that group, and the label is bound
    to the cell where the two meet.  edges pairs each label held by a single
    group with that group.  images map a binding, as a tuple of cells by
    label, to each of its symmetric images.  ranked reads an assignment
    (the board group of each abstract group) in step order, and mirrors
    read it the same way after each symmetry that moves the groups.
    """

    steps: tuple[tuple[int, int, tuple[int, ...], tuple[tuple[int, int], ...]], ...]
    edges: tuple[tuple[int, int], ...]
    images: tuple[itemgetter, ...]
    ranked: itemgetter
    mirrors: tuple[itemgetter, ...]


def _embed_plan(template: ConfigTemplate) -> EmbedPlan:
    groups = template.groups
    labels = sorted(template.markers)
    index = {label: i for i, label in enumerate(labels)}
    order = _assignment_order(groups)
    steps = []
    for step, i in enumerate(order):
        checks, binds = [], []
        for label in sorted(groups[i]):
            earlier = [j for j in order[:step] if label in groups[j]]
            if len(earlier) >= 2:
                checks.append(index[label])
            elif earlier:
                binds.append((index[label], earlier[0]))
        steps.append((i, len(groups[i]), tuple(checks), tuple(binds)))
    edges = []
    for label in labels:
        holders = [j for j, g in enumerate(groups) if label in g]
        if len(holders) == 1:
            edges.append((index[label], holders[0]))
    perms = symmetry_closure(template.markers, template.matching.symmetry)
    images = tuple(itemgetter(*(index[perm[label]] for label in labels)) for perm in perms)
    group_at = {g: i for i, g in enumerate(groups)}
    moved = {
        tuple(group_at[frozenset(perm[label] for label in groups[i])] for i in order)
        for perm in perms
    } - {tuple(order)}
    mirrors = tuple(itemgetter(*m) for m in sorted(moved))
    return EmbedPlan(tuple(steps), tuple(edges), images, itemgetter(*order), mirrors)


def _columns(packed: bytes, width: int) -> list[int]:
    """Bitsets over keys packed side by side in (width + 7) // 8 little-endian
    bytes each: bit j of columns[b] is bit b of key j."""
    size = (width + 7) // 8
    columns = [0] * width
    # A block of 1024 keys is read out as binary text, where a column's share
    # is a strided slice.
    for start in range(0, len(packed), 1024 * size):
        block = packed[start : start + 1024 * size]
        text = format(int.from_bytes(block, "little"), "b").zfill(8 * len(block))
        for b in range(width):
            columns[b] |= int(text[8 * size - 1 - b :: 8 * size], 2) << start // size
    return columns


_DIGITS = bytes.maketrans(b"01", b"\0\1")


class PlacementTable(NamedTuple):
    """Every placement of one template on a region of one board.

    The region is a set of groups (bit i for enumerate_groups(spec)[i]) and
    a set of empty cells (a state_mask); a placement on it puts the
    template's markers on region cells and its groups on region groups.
    Rows come in _placement_table order.  rows holds each row's marker
    cells by label (as bit indices), then its groups by template.groups
    order; keys holds each row's marker_mask << shift | group_mask, where
    shift is the spec's group count, in _columns packing.  columns[i] is
    the bitset of rows holding group i, and columns[shift + b] that of rows
    with a marker on cell b.  orbit[j] is the first row whose marker cells
    are an image of row j's under the template's symmetries, or -1 when no
    other row's are.
    """

    groups: int
    empty: int
    rows: array
    keys: bytes
    columns: list[int]
    orbit: array


def _placement_table(
    spec: BoardSpec, template: ConfigTemplate, live: int, empty: int
) -> PlacementTable:
    """Every placement of template on the live groups and empty cells.

    live is a bitset over enumerate_groups(spec) and empty a state_mask.
    Abstract groups take live groups in _assignment_order, each in
    enumerate_groups order.  A label shared by two placed groups is bound to
    their one common empty cell; a label held by a single group (an edge
    label) then takes each free empty cell of that group in turn.  An
    assignment of groups that a symmetry of the template maps to an earlier
    one is skipped: each of its placements is an image of a placement of
    that earlier assignment on the same groups and cells, which comes first
    wherever both lie, so _embed_template would drop it.
    """
    steps, edges, images, ranked, mirrors = template.embed_plan
    masks = group_masks(spec)
    shift = len(masks)
    live_index = list(_bits_idx(live))
    cell_masks = [masks[i] for i in live_index]
    # Empty cells of each live group as bit indices, in canonical cell order.
    empties = [list(_bits_idx(cm & empty)) for cm in cell_masks]
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
        for b in _bits_idx(cm):
            through[b] |= 1 << gi
    # roomy[size]: the live groups with at least size empty cells.
    roomy = {
        size: sum(1 << gi for gi in range(n_live) if len(empties[gi]) >= size)
        for _, size, _, _ in steps
    }

    width = shift + spec.m * spec.n
    key_bytes = (width + 7) // 8
    code = "B" if max(shift, spec.m * spec.n) <= 256 else "H"
    pack = struct.Struct(f"={len(template.markers) + len(steps)}{code}").pack
    pack_cells = struct.Struct(f"={len(template.markers)}{code}").pack
    rows = bytearray()
    keys = bytearray()
    orbit = array("i")
    first: dict[bytes, int] = {}  # least image of a row's cells, packed -> first such row
    assigned = [0] * len(steps)  # abstract group -> live group index
    cells = [0] * len(template.markers)  # label index -> cell bit index

    def fill(e: int, used: int, groups: tuple[int, ...], gmask: int) -> None:
        if e < len(edges):
            label, host = edges[e]
            for b in empties[assigned[host]]:
                if not used >> b & 1:
                    cells[label] = b
                    fill(e + 1, used | 1 << b, groups, gmask)
            return
        n = len(orbit)
        rows.extend(pack(*cells, *groups))
        keys.extend((used << shift | gmask).to_bytes(key_bytes, "little"))
        j = first.setdefault(pack_cells(*min([image(cells) for image in images])), n)
        orbit.append(-1 if j == n else j)
        if j != n:
            orbit[j] = j

    def assign(step: int, blocked: int, used: int, gmask: int) -> None:
        if step == len(steps):
            here = ranked(assigned)
            if not any(mirror(assigned) < here for mirror in mirrors):
                fill(0, used, tuple([live_index[gi] for gi in assigned]), gmask)
            return
        i, size, checks, binds = steps[step]
        free = roomy[size] & ~blocked
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
    keys = bytes(keys)
    return PlacementTable(live, empty, array(code, rows), keys, _columns(keys, width), orbit)


def _embed_template(
    spec: BoardSpec, template: ConfigTemplate, live: int, empty: int
) -> list[Embedding]:
    """The placements of template on the live groups and empty cells, one per
    orbit of their marker cells (as a label-to-cell tuple) under the
    template's symmetries, the first in _placement_table order.

    live is a bitset over enumerate_groups(spec) and empty a state_mask.
    The rows come from the template's placement table for spec, whose region
    grows to the union of every live set and empty set seen so far: a
    placement lies on this position exactly when it lies on the region, its
    groups are live and its markers empty, and the region's rows hold this
    position's placements in the same order, because both walk the groups in
    enumerate_groups order.  So the rows holding a dead group or a non-empty
    cell are cleared, and only the rows left become Embeddings.
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
    for i in _bits_idx(table.groups & ~live):
        dead |= columns[i]
    for b in _bits_idx(table.empty & ~empty):
        dead |= columns[shift + b]
    # alive[j] is 1 when row j is left, as a byte.
    alive = format((1 << len(table.orbit)) - 1 & ~dead, "b")[::-1].encode().translate(_DIGITS)
    rows, keys, orbit = table.rows, table.keys, table.orbit
    cell_of = list(spec.cells())  # bit index r*m+c -> cell (c, r)
    group_of = enumerate_groups(spec)
    nm = template.num_markers
    width = nm + template.num_groups
    size = (shift + spec.m * spec.n + 7) // 8
    low = (1 << shift) - 1
    seen: set[int] = set()
    found = []
    for j in compress(range(len(orbit)), alive):
        first = orbit[j]
        if first >= 0:
            if first in seen:
                continue
            seen.add(first)
        o = j * width
        key = int.from_bytes(keys[j * size : j * size + size], "little")
        found.append(
            Embedding(
                template,
                tuple(map(cell_of.__getitem__, rows[o : o + nm])),
                tuple(map(group_of.__getitem__, rows[o + nm : o + width])),
                key >> shift,
                key & low,
            )
        )
    return found


def detect(
    pos: Position, templates: Sequence[ConfigTemplate] | None = None
) -> list[Embedding]:
    """All template embeddings in pos, one per orbit of each template's
    label-to-cell tuple under its symmetries (_embed_template)."""
    if templates is None:
        templates = catalog()
    group_index = _group_index(pos.spec)
    live = live_black_groups(pos)
    live_mask = sum(1 << group_index[g] for g in live)
    empty = state_mask(pos, EMPTY)
    out: list[Embedding] = []
    for t in templates:
        if len(t.groups) <= len(live):
            out.extend(_embed_template(pos.spec, t, live_mask, empty))
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


def _bits_idx(mask: int) -> Iterator[int]:
    while mask:
        bit = mask & -mask
        yield bit.bit_length() - 1
        mask ^= bit


def _bitsets(items: Sequence[Embedding], spec: BoardSpec) -> tuple[list[int], Callable[[int], int]]:
    """Bitsets over items: bit j stands for items[j].

    columns[b] holds the items whose key (marker_mask over group_mask) has
    bit b, so columns[i] holds group i's holders.  clash(j) ORs the columns
    of items[j]'s key: the items sharing a group or a marker cell with it,
    itself included.
    """
    shift = len(group_masks(spec))
    width = shift + spec.m * spec.n
    size = (width + 7) // 8
    columns = _columns(
        b"".join([(e.marker_mask << shift | e.group_mask).to_bytes(size, "little") for e in items]),
        width,
    )

    # Each clash set is as long as the item list, so only recent ones are kept.
    @functools.lru_cache(maxsize=64)
    def clash(j: int) -> int:
        out = 0
        for b in _bits_idx(items[j].marker_mask << shift | items[j].group_mask):
            out |= columns[b]
        return out

    return columns, clash


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

    A plain pairing of every live group is returned first.  Otherwise the
    cover pass (exact_cover) seeks covers by embeddings alone and keeps the
    least by (uncovered empty cells, sorted template names, sorted
    bindings), so a full tiling of the empty cells wins whenever it finds
    one.  Failing that, the residual pass (search) returns the first set of
    embeddings whose leftover groups a residual pairing completes.
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
    live = live_black_groups(pos)
    group_index = _group_index(pos.spec)
    live_bits = [1 << group_index[g] for g in live]
    all_mask = sum(live_bits)
    empty_mask = state_mask(pos, EMPTY)
    total_empty = empty_mask.bit_count()
    masks = group_masks(pos.spec)
    group_cells = [cells & empty_mask for cells in masks]

    @functools.lru_cache(maxsize=None)
    def open_cells(groups: int) -> int:
        """The empty cells of the groups in a bitset over enumerate_groups."""
        out = 0
        for i in _bits_idx(groups):
            out |= group_cells[i]
        return out

    live_cells = open_cells(all_mask)
    cells = live_cells.bit_count()
    if _saves_too_little(len(live), cells, _reductions(len(live), cells, _sizes(templates))):
        return None
    residual = find_hj_pairing(pos, live)
    if residual is not None:
        return DrawCertificate(pos, (), residual)
    embeddings = detect(pos, templates)
    if not embeddings:
        return None
    embedded = {id(e.template): e.template for e in embeddings}
    saved = _reductions(len(live), cells, _sizes(embedded.values()))
    if _saves_too_little(len(live), cells, saved):
        return None

    rank = {t.name: (-t.reduction, -t.num_groups) for t in templates}
    embeddings.sort(key=lambda e: rank[e.template.name])

    def certificate(chosen: list[Embedding], residual: Pairing) -> DrawCertificate:
        entries = tuple(CertEntry(e.template.name, e.to_matching_set()) for e in chosen)
        return DrawCertificate(pos, entries, residual)

    # Candidates of the cover pass.  Interchangeable label assignments
    # collapse to one candidate per (marker cells, bound groups) signature,
    # the first in (template name, sorted binding) order; the cover pass
    # branches over candidates in that order.
    best_of: dict[tuple[int, int], tuple[tuple, Embedding]] = {}
    for e in embeddings:
        key = (e.template.name, e.cells)
        sig = (e.group_mask, e.marker_mask)
        prev = best_of.get(sig)
        if prev is None or key < prev[0]:
            best_of[sig] = (key, e)
    cands = [e for key, e in sorted(best_of.values(), key=lambda ke: ke[0])]

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
    columns, clash = _bitsets(cands, pos.spec)
    shift = len(masks)
    cell_columns = [(1 << b, columns[shift + b]) for b in _bits_idx(live_cells)]
    branch_order = sorted(_bits_idx(all_mask), key=lambda i: (columns[i].bit_count(), i))
    cover_budget = [max_attempts]

    def marked_by(pool: int, marked: int) -> int:
        """marked with every live cell that some candidate of pool marks."""
        for bit, column in cell_columns:
            if pool & column:
                marked |= bit
        return marked

    best_cover: list[tuple[tuple, list[Embedding]]] = []

    def exact_cover(pool: int, chosen: list[Embedding], covered: int, markers: int) -> None:
        if cover_budget[0] <= 0:
            return
        cover_budget[0] -= 1
        if covered == all_mask:
            key = (
                total_empty - markers.bit_count(),
                tuple(sorted(e.template.name for e in chosen)),
                tuple(sorted(sorted(e.binding.items()) for e in chosen)),
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
        for j in _bits_idx(pool & columns[i]):
            e = cands[j]
            marked = markers | e.marker_mask
            if best_cover:
                if reach < 0:
                    rest = pool & ~columns[i]
                    reach = marked_by(rest, markers)
                    least = cands[(rest & -rest).bit_length() - 1].template.name if rest else ""
                    k = (all_mask & ~covered).bit_count()
                (best_uncovered, best_names, _), _ = best_cover[0]
                uncovered = total_empty - (reach | e.marker_mask).bit_count()
                if uncovered > best_uncovered:
                    continue
                if uncovered == best_uncovered:
                    below = sorted([c.template.name for c in chosen] + [e.template.name])
                    if rest and below[-1] > least:
                        below = sorted(below + [least] * k)
                    if tuple(below) > best_names:
                        if best_uncovered:
                            continue
                        break
            child = pool & ~clash(j)
            if best_cover and total_empty - marked_by(child, marked).bit_count() > best_uncovered:
                continue
            chosen.append(e)
            exact_cover(child, chosen, covered | e.group_mask, marked)
            chosen.pop()
            if cover_budget[0] <= 0:
                return

    exact_cover((1 << len(cands)) - 1, [], 0, 0)
    if best_cover:
        return certificate(best_cover[0][1], Pairing(()))

    # Residual pass: independent embeddings in (reduction, group count)
    # order, each combination completed by a residual pairing of the groups
    # left over.  A node's pool is the bitset of later embeddings compatible
    # with its choices.  The pairing is only sought when every uncovered
    # group keeps two empty cells off the chosen markers; otherwise none
    # exists.  A child is skipped when the templates that embedded cannot
    # save enough of the unmarked empty cells in its uncovered groups
    # (_saves_too_little): no certificate then extends its choices.
    cell_of = list(pos.spec.cells())  # marker_mask bit -> cell
    room = [(bit, group_cells[bit.bit_length() - 1]) for bit in live_bits]
    clash = _bitsets(embeddings, pos.spec)[1]
    budget = [max_attempts]

    def search(pool: int, chosen: list[Embedding], covered: int, markers: int) -> DrawCertificate | None:
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        if chosen and all(
            (cells & ~markers).bit_count() >= 2 for bit, cells in room if not covered & bit
        ):
            left = [g for g, bit in zip(live, live_bits) if not covered & bit]
            excluded = frozenset(cell_of[b] for b in _bits_idx(markers))
            residual = find_hj_pairing(pos, left, excluded=excluded)
            if residual is not None:
                return certificate(chosen, residual)
        while pool:
            low = pool & -pool
            pool ^= low
            j = low.bit_length() - 1
            e = embeddings[j]
            uncovered = all_mask & ~(covered | e.group_mask)
            free = open_cells(uncovered) & ~(markers | e.marker_mask)
            if _saves_too_little(uncovered.bit_count(), free.bit_count(), saved):
                continue
            chosen.append(e)
            found = search(pool & ~clash(j), chosen, covered | e.group_mask, markers | e.marker_mask)
            chosen.pop()
            if found is not None or budget[0] <= 0:
                return found
        return None

    return search((1 << len(embeddings)) - 1, [], 0, 0)


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
        # The catalog's templates differ in (markers, groups, coverings), so
        # these counts tie the matching set to the template it is named for.
        try:
            named = template_by_name(entry.template_name).matching
        except (KeyError, ValueError):
            v.append((loc, "not a catalog template name"))
        else:
            shape = (len(ms.markers), len(ms.groups), len(ms.coverings))
            expected = (len(named.markers), len(named.groups), len(named.coverings))
            if shape != expected:
                v.append((
                    loc,
                    f"(markers, groups, coverings) {shape} are not the template's {expected}",
                ))
        if ms.markers & seen_markers:
            v.append((loc, "independence violated: shared marker cells"))
        seen_markers |= ms.markers
        for g in ms.groups:
            if not isinstance(g, Group):
                v.append((loc, f"group {g!r} is not a board group"))
                continue
            if g in seen_groups:
                v.append((loc, f"independence violated: group {g} reused"))
            if g not in live:
                v.append((loc, f"group {g} is not a live Black group"))
            seen_groups.add(g)
        result = verify_matching_set(pos, ms)
        v.extend((f"{loc}/{w}", r) for w, r in result.violations)
    pair_cells = cert.residual.marker_cells()
    if pair_cells & seen_markers:
        v.append(("residual", "pair cells collide with embedding markers"))
    for msg in verify_pairing(pos, cert.residual):
        v.append(("residual", msg))
    for g in cert.residual.groups():
        if g in seen_groups:
            v.append(("residual", f"group {g} covered twice"))
        if g not in live:
            v.append(("residual", f"group {g} is not a live Black group"))
        seen_groups.add(g)
    for g in sorted(live, key=lambda g: g.cells):
        if g not in seen_groups:
            v.append(("coverage", f"live group {g} is not covered"))
    return ProofResult(tuple(v))


def validate_catalog() -> dict[str, ProofResult]:
    """Abstract verification of every bundled template's matching set."""
    return {t.name: verify_abstract(t.matching) for t in catalog()}
