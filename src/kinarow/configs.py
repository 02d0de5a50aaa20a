"""Catalog of drawing configurations, embedding detection, and draw proving.

Templates describe configurations abstractly: labeled markers, groups given
by their marker labels, and a matching set over those labels.  Detection
embeds templates into concrete positions; prove_draw combines independent
embeddings with a residual pairing to cover every live Black group.
"""

from __future__ import annotations

import functools
import string
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

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
from .pairing import Pairing, find_hj_pairing, match_pairs
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
    coverings = []
    for x in sorted(markers):
        if x == a:
            replies: list[Label] = [b]
        elif x == b:
            replies = [a]
        else:
            replies = [a, b] + sorted(markers - {a, b, x})
        for y in replies:
            remaining = [g - {x, y} for g in groups if y not in g]
            pairs = match_pairs(remaining, frozenset(markers - {x, y}), key=str)
            if pairs is not None:
                coverings.append(Covering(x, y, tuple(tuple(p) for p in pairs)))
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

    @property
    def bound_groups(self) -> dict[AbstractGroup, Group]:
        return dict(zip(self.template.groups, self.groups))

    def marker_cells(self) -> frozenset[Cell]:
        return frozenset(self.cells)

    def concrete_groups(self) -> list[Group]:
        return list(self.groups)

    def to_matching_set(self) -> MatchingSet:
        b = self.binding
        coverings = tuple(
            Covering(
                b[c.black_move],
                b[c.white_response],
                tuple(
                    tuple(sorted((b[u], b[v]), key=cell_key)) for u, v in c.pairs
                ),
                None,
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
    label, to each of its symmetric images.
    """

    steps: tuple[tuple[int, int, tuple[int, ...], tuple[tuple[int, int], ...]], ...]
    edges: tuple[tuple[int, int], ...]
    images: tuple[itemgetter, ...]


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
    images = tuple(
        itemgetter(*(index[perm[label]] for label in labels))
        for perm in symmetry_closure(template.markers, template.matching.symmetry)
    )
    return EmbedPlan(tuple(steps), tuple(edges), images)


def _embed_template(
    pos: Position, template: ConfigTemplate, live: Sequence[Group]
) -> list[Embedding]:
    """Every placement of template on the live groups, one per symmetry orbit.

    Abstract groups take live groups in _assignment_order, in live order.  A
    label shared by two placed groups is bound to their one common empty
    cell; a label held by a single group (an edge label) then takes each free
    empty cell of that group in turn.  Cells and live groups are bit indices
    throughout, and a placement whose label-to-cell binding is a symmetric
    image of an earlier one is dropped before any Embedding is built.
    """
    steps, edges, images = template.embed_plan
    spec = pos.spec
    cell_of = list(spec.cells())  # bit index r*m+c -> cell (c, r)
    board_empty = state_mask(pos, EMPTY)
    group_index = _group_index(spec)
    live_index = [group_index[g] for g in live]
    masks = group_masks(spec)
    cell_masks = [masks[i] for i in live_index]
    # Empty cells of each live group as bit indices, in canonical cell order.
    empties = [
        [b for b in (r * spec.m + c for c, r in g.cells) if board_empty >> b & 1]
        for g in live
    ]
    # clash[a]: live groups sharing two or more cells with a.  meet[a][b]: the
    # one cell a and b share when that cell is empty, else -1; meets[a]: the
    # live groups b with such a cell.  through[c]: the live groups holding c.
    n_live = len(live)
    clash = [0] * n_live
    meet = [[-1] * n_live for _ in range(n_live)]
    meets = [0] * n_live
    for a in range(n_live):
        for b in range(a + 1, n_live):
            common = cell_masks[a] & cell_masks[b]
            if common & (common - 1):
                clash[a] |= 1 << b
                clash[b] |= 1 << a
            elif common & board_empty:
                meet[a][b] = meet[b][a] = common.bit_length() - 1
                meets[a] |= 1 << b
                meets[b] |= 1 << a
    through = [0] * len(cell_of)
    for gi, g in enumerate(live):
        for c, r in g.cells:
            through[r * spec.m + c] |= 1 << gi
    # roomy[size]: the live groups with at least size empty cells.
    roomy = {
        size: sum(1 << gi for gi in range(n_live) if len(empties[gi]) >= size)
        for _, size, _, _ in steps
    }

    assigned = [0] * len(steps)  # abstract group -> live group index
    cells = [0] * len(template.markers)  # label index -> cell bit index
    seen: set[tuple[int, ...]] = set()
    found: list[Embedding] = []

    def fill(e: int, used: int, gmask: int) -> None:
        if e < len(edges):
            label, host = edges[e]
            for b in empties[assigned[host]]:
                if not used >> b & 1:
                    cells[label] = b
                    fill(e + 1, used | 1 << b, gmask)
            return
        key = tuple(cells)
        if key in seen:
            return
        seen.update([image(key) for image in images])
        found.append(
            Embedding(
                template,
                tuple([cell_of[b] for b in key]),
                tuple([live[gi] for gi in assigned]),
                used,
                gmask,
            )
        )

    def assign(step: int, blocked: int, used: int, gmask: int) -> None:
        if step == len(steps):
            fill(0, used, gmask)
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
    return found


def detect(
    pos: Position, templates: Sequence[ConfigTemplate] | None = None
) -> list[Embedding]:
    """All template embeddings in pos, one representative per symmetry orbit."""
    if templates is None:
        templates = catalog()
    live = live_black_groups(pos)
    out: list[Embedding] = []
    for t in templates:
        if len(t.groups) <= len(live):
            out.extend(_embed_template(pos, t, live))
    return out


@dataclass
class CertEntry:
    template_name: str
    matching: MatchingSet
    binding: dict[Label, Cell] | None = None


@dataclass
class DrawCertificate:
    """A complete machine-checkable draw proof for one position."""

    position: Position
    entries: tuple[CertEntry, ...]
    residual: Pairing


def _bits(mask: int) -> Iterator[int]:
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit


def _bits_idx(mask: int) -> Iterator[int]:
    return (bit.bit_length() - 1 for bit in _bits(mask))


def prove_draw(
    pos: Position,
    templates: Sequence[ConfigTemplate] | None = None,
    max_attempts: int = 5000,
) -> DrawCertificate | None:
    """Cover all live Black groups by independent embeddings plus a residual pairing.

    Sound but deliberately incomplete: None proves nothing.
    """
    if pos.to_move != BLACK:
        return None
    live = live_black_groups(pos)
    residual = find_hj_pairing(pos, live)
    if residual is not None:
        return DrawCertificate(pos, (), residual)
    embeddings = detect(pos, templates)
    if not embeddings:
        return None

    rank = {t.name: (-t.reduction, -t.num_groups) for t in templates or catalog()}
    embeddings.sort(key=lambda e: rank[e.template.name])
    group_index = _group_index(pos.spec)
    live_bits = [1 << group_index[g] for g in live]
    all_mask = sum(live_bits)
    empty_mask = state_mask(pos, EMPTY)
    total_empty = empty_mask.bit_count()

    def certificate(chosen: list[Embedding], residual: Pairing) -> DrawCertificate:
        entries = tuple(
            CertEntry(e.template.name, e.to_matching_set(), dict(e.binding))
            for e in chosen
        )
        return DrawCertificate(pos, entries, residual)

    # First preference: cover every live group with matching sets alone
    # (empty residual).  Interchangeable label assignments collapse to one
    # candidate per (marker cells, bound groups) signature, the first in
    # (template name, sorted binding) order; candidates keep that order.
    best_of: dict[tuple[int, int], tuple[tuple, Embedding]] = {}
    for e in embeddings:
        key = (e.template.name, e.cells)
        sig = (e.group_mask, e.marker_mask)
        prev = best_of.get(sig)
        if prev is None or key < prev[0]:
            best_of[sig] = (key, e)
    cands = [e for key, e in sorted(best_of.values(), key=lambda ke: ke[0])]

    # Pass 1: embeddings that exactly tile the empty cells while covering
    # every live group.  Such a certificate prescribes a reply to every
    # possible move, so it is preferred.  Candidate template-name multisets
    # are fixed by the marker/group totals, so each is tried in name order
    # with the search restricted to that multiset; the first hit wins.
    by_name: dict[str, list[int]] = {}
    for j, e in enumerate(cands):
        by_name.setdefault(e.template.name, []).append(j)
    sizes = {
        name: (cands[js[0]].template.num_markers, cands[js[0]].template.num_groups)
        for name, js in by_name.items()
    }
    names = sorted(by_name)
    multisets: list[tuple[str, ...]] = []

    def pick(i: int, chosen: list[str], nm: int, ng: int) -> None:
        if nm == total_empty and ng == len(live):
            multisets.append(tuple(chosen))
            return
        if i >= len(names) or nm > total_empty or ng > len(live):
            return
        markers_i, groups_i = sizes[names[i]]
        pick(i + 1, chosen, nm, ng)
        chosen.append(names[i])
        pick(i, chosen, nm + markers_i, ng + groups_i)
        chosen.pop()

    pick(0, [], 0, 0)
    multisets.sort()
    tile_budget = [max(max_attempts, 100_000)]

    def tile(pool: list[int], chosen: list[Embedding], remaining: Counter, covered: int, markers: int) -> bool:
        if tile_budget[0] <= 0:
            return False
        tile_budget[0] -= 1
        if markers == empty_mask:
            return covered == all_mask
        open_bit = (empty_mask & ~markers) & -(empty_mask & ~markers)
        for j in pool:
            e = cands[j]
            if (
                not e.marker_mask & open_bit
                or not remaining[e.template.name]
                or e.group_mask & covered
                or e.marker_mask & markers
            ):
                continue
            chosen.append(e)
            remaining[e.template.name] -= 1
            if tile(pool, chosen, remaining, covered | e.group_mask, markers | e.marker_mask):
                return True
            remaining[e.template.name] += 1
            chosen.pop()
            if tile_budget[0] <= 0:
                return False
        return False

    for combo in multisets:
        want = Counter(combo)
        pool = sorted(j for name in want for j in by_name[name])
        chosen: list[Embedding] = []
        if tile(pool, chosen, want, 0, 0):
            return certificate(chosen, Pairing(()))
        if tile_budget[0] <= 0:
            break

    # Pass 2: cover every live group with matching sets alone (empty
    # residual), branching on the least-flexible uncovered group: the one
    # held by the fewest candidates, the lowest group index on ties.  Each
    # node gets the pool of candidates still compatible with its choices, in
    # candidate order, and branches on the pool entries holding that group.
    # Among full covers, keep the one pinning down the most cells, so the
    # resulting strategy prescribes a reply to as many moves as possible;
    # ties fall to the lexicographically smallest template-name combination
    # for reproducible output.
    holders = Counter(i for e in cands for i in _bits_idx(e.group_mask))
    branch_order = sorted(_bits_idx(all_mask), key=lambda i: (holders[i], i))
    cover_budget = [max_attempts]
    best_cover: list[tuple[tuple, list[Embedding]]] = []

    def exact_cover(pool: list[Embedding], chosen: list[Embedding], covered: int, markers: int) -> None:
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
        bit = next(1 << i for i in branch_order if not covered >> i & 1)
        for e in pool:
            if not e.group_mask & bit:
                continue
            gm, mm = e.group_mask, e.marker_mask
            chosen.append(e)
            exact_cover(
                [f for f in pool if not (f.group_mask & gm or f.marker_mask & mm)],
                chosen, covered | gm, markers | mm,
            )
            chosen.pop()
            if cover_budget[0] <= 0:
                return

    exact_cover(cands, [], 0, 0)
    if best_cover:
        return certificate(best_cover[0][1], Pairing(()))

    # Pass 3: independent embeddings in (reduction, group count) order, each
    # combination completed by a residual pairing of the groups left over.
    # A node's pool holds the later embeddings still compatible with its
    # choices.  The pairing is only sought when every uncovered group keeps
    # two empty cells off the chosen markers; otherwise none exists.
    cell_of = list(pos.spec.cells())  # marker_mask bit -> cell
    masks = group_masks(pos.spec)
    room = [(1 << i, masks[i] & empty_mask) for i in (group_index[g] for g in live)]
    budget = [max_attempts]

    def search(pool: list[Embedding], chosen: list[Embedding], covered: int, markers: int) -> DrawCertificate | None:
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
        for k, e in enumerate(pool):
            gm, mm = e.group_mask, e.marker_mask
            chosen.append(e)
            found = search(
                [f for f in pool[k + 1 :] if not (f.group_mask & gm or f.marker_mask & mm)],
                chosen, covered | gm, markers | mm,
            )
            chosen.pop()
            if found is not None or budget[0] <= 0:
                return found
        return None

    return search(embeddings, [], 0, 0)


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
    from .pairing import verify_pairing

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
