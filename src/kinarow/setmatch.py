"""Matching sets: marker sets with coverings that block every Black first move.

A matching set bundles markers N, groups G, and coverings C.  Each covering
names Black's first marker move, White's response, and the marker pairs that
cover the groups missed by that response (a plain pairing of what is left).
Verification expands coverings omitted as symmetric in the source notation,
then demands literal completeness: every marker must be answerable.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Sequence

from .board import BLACK, WHITE, Group, Position, cell_name
from .pairing import PairResponder

Node = Hashable
SymmetryMap = dict


@dataclass(frozen=True)
class Covering:
    """Black first move -> White response, plus the pairs covering the rest."""

    black_move: Node
    white_response: Node
    pairs: tuple[tuple[Node, Node], ...] = ()


@dataclass
class MatchingSet:
    markers: frozenset
    groups: tuple
    coverings: tuple[Covering, ...]
    symmetry: tuple[SymmetryMap, ...] = ()

    def group_markers(self, g) -> frozenset:
        return frozenset(g) & self.markers


@dataclass(frozen=True)
class ProofResult:
    violations: tuple[tuple[str, str], ...]

    @property
    def valid(self) -> bool:
        return not self.violations


def coverage_ratio(m: MatchingSet) -> Fraction:
    """Markers per group, as an exact rational (2 for a plain HJ-pairing)."""
    if not m.groups:
        raise ZeroDivisionError("matching set has no groups")
    return Fraction(len(m.markers), len(m.groups))


def _complete_perm(perm: SymmetryMap, nodes: frozenset) -> SymmetryMap | None:
    """Extend a partially written permutation with fixed points; None if invalid."""
    full = {n: perm.get(n, n) for n in nodes}
    if set(perm) - set(nodes) or set(full.values()) != set(nodes):
        return None
    return full


def symmetry_closure(nodes: frozenset, gens: Sequence[SymmetryMap]) -> list[SymmetryMap]:
    """The permutation group generated by the given maps (identity included)."""
    completed = []
    for g in gens:
        full = _complete_perm(g, nodes)
        if full is None:
            raise ValueError(f"symmetry map is not a permutation of the markers: {g}")
        completed.append(full)
    ident = {n: n for n in nodes}
    seen = {tuple(sorted(ident.items(), key=repr)): ident}
    frontier = [ident]
    while frontier:
        p = frontier.pop()
        for g in completed:
            q = {n: g[p[n]] for n in nodes}
            key = tuple(sorted(q.items(), key=repr))
            if key not in seen:
                seen[key] = q
                frontier.append(q)
    return list(seen.values())


def _apply_perm_covering(cov: Covering, perm: SymmetryMap) -> Covering:
    pairs = tuple(
        tuple(sorted((perm[u], perm[v]), key=repr)) for u, v in cov.pairs
    )
    return Covering(perm[cov.black_move], perm[cov.white_response], pairs)


def expand_coverings(m: MatchingSet, name: Callable[[Node], str]) -> tuple[dict, list]:
    """One covering per marker after symmetry expansion; also any expansion errors.

    Explicitly listed coverings win over expanded ones; among expanded
    candidates for the same first move the lexicographically-smallest is kept.
    """
    violations: list[tuple[str, str]] = []
    try:
        perms = symmetry_closure(m.markers, m.symmetry)
    except ValueError as exc:
        return {}, [("symmetry", str(exc))]
    usable = []
    for cov in m.coverings:
        touched = {cov.black_move, cov.white_response} | {
            n for pair in cov.pairs for n in pair
        }
        if touched <= m.markers:
            usable.append(cov)
        else:
            bad = ", ".join(name(n) for n in sorted(touched - m.markers, key=repr))
            violations.append(
                ("coverings", f"covering for {name(cov.black_move)} uses non-markers: {bad}")
            )
    explicit = {c.black_move: c for c in usable}
    chosen: dict[Node, Covering] = dict(explicit)
    candidates: dict[Node, list[Covering]] = {}
    for cov in usable:
        for perm in perms:
            image = _apply_perm_covering(cov, perm)
            candidates.setdefault(image.black_move, []).append(image)
    for x, cands in candidates.items():
        if x not in chosen:
            chosen[x] = min(
                cands, key=lambda c: (repr(c.white_response), repr(c.pairs))
            )
    for marker in m.markers:
        if marker not in chosen:
            violations.append(
                ("coverings", f"no covering for first move {name(marker)}")
            )
    return chosen, violations


def _verify(
    m: MatchingSet,
    is_empty: Callable[[Node], bool],
    group_has_white: Callable[[object], bool],
    name: Callable[[Node], str],
) -> list[tuple[str, str]]:
    where = "matching set"
    v: list[tuple[str, str]] = []
    gname = lambda g: str(g) if isinstance(g, Group) else "".join(sorted(map(str, g)))
    for marker in sorted(m.markers, key=repr):
        if not is_empty(marker):
            v.append((where, f"marker {name(marker)} is not empty"))
    node_sets = [frozenset(g) for g in m.groups]
    if len(set(node_sets)) != len(node_sets):
        v.append((where, "duplicate groups"))
    for i, a in enumerate(node_sets):
        for j in range(i + 1, len(node_sets)):
            if len(a & node_sets[j]) >= 2:
                v.append(
                    (where, f"groups {gname(m.groups[i])} and "
                            f"{gname(m.groups[j])} overlap")
                )
    for g in m.groups:
        if not m.group_markers(g):
            v.append((where, f"group {gname(g)} contains no marker"))
        if group_has_white(g):
            v.append((where, f"group {gname(g)} contains a White stone"))
    if v:
        return v

    # expand_coverings keeps only coverings within the markers, and its
    # symmetry images permute markers, so every node below is a marker.
    chosen, expansion_errors = expand_coverings(m, name)
    v.extend((where + "/" + loc, reason) for loc, reason in expansion_errors)

    for x, cov in sorted(chosen.items(), key=lambda kv: repr(kv[0])):
        loc = f"{where}/covering {name(x)}"
        y = cov.white_response
        if x == y:
            v.append((loc, "response equals the first move"))
            continue
        used = {x, y}
        bad_pairs = False
        for u, w in cov.pairs:
            for node in (u, w):
                if node in used:
                    v.append((loc, f"pair marker {name(node)} reused"))
                    bad_pairs = True
                used.add(node)
            if u == w:
                v.append((loc, "degenerate pair"))
                bad_pairs = True
        if bad_pairs:
            continue
        for g, nodes in zip(m.groups, node_sets):
            if y not in nodes and not any(
                u in nodes and w in nodes for u, w in cov.pairs
            ):
                v.append(
                    (loc, f"group {gname(g)} uncovered after "
                          f"{name(x)}->{name(y)}")
                )
    return v


def verify_matching_set(pos: Position, m: MatchingSet) -> ProofResult:
    """Check a concrete matching set against a position; Black must be to move."""
    v: list[tuple[str, str]] = []
    if pos.to_move != BLACK:
        v.append(("position", "side to move is not Black"))
    for g in m.groups:
        if not isinstance(g, Group):
            v.append(("matching set", f"group {g!r} is not a board group"))
        elif not all(pos.spec.in_bounds(c) for c in g):
            v.append(("matching set", f"group {g} is off the board"))
    if v:
        return ProofResult(tuple(v))
    v = _verify(
        m,
        is_empty=lambda c: pos.spec.in_bounds(c) and pos.is_empty(c),
        group_has_white=lambda g: any(pos.at(c) == WHITE for c in g),
        name=cell_name,
    )
    return ProofResult(tuple(v))


def verify_abstract(m: MatchingSet) -> ProofResult:
    """Check a matching set over abstract labels (all markers taken as empty)."""
    return ProofResult(
        tuple(
            _verify(
                m,
                is_empty=lambda n: True,
                group_has_white=lambda g: False,
                name=str,
            )
        )
    )


class MatchResponder:
    """White's reply engine for a verified matching set.

    Waits for Black's first marker move, answers with the covering's
    response, then answers each later marker move with its pair partner.
    Non-marker Black moves get the default rule: lowest empty non-marker,
    else the forced-marker rule.  Any marker White takes permanently covers
    every group through it, so forced marker moves are always safe.
    """

    def __init__(self, m: MatchingSet, key=repr) -> None:
        self.m = m
        self.key = key
        chosen, errors = expand_coverings(m, name=str)
        if errors:
            raise ValueError(f"cannot execute an invalid matching set: {errors}")
        self.cover_map = chosen
        self.delegate: PairResponder | None = None
        self.white_owned: set[Node] = set()

    def respond(self, black: Node | None, empties: set[Node]) -> Node | None:
        if self.delegate is not None:
            move = self.delegate.respond(black, empties)
        elif black in self.cover_map:
            cov = self.cover_map[black]
            live = [
                p for p in cov.pairs if not any(n in self.white_owned for n in p)
            ]
            self.delegate = PairResponder(live, key=self.key)
            if cov.white_response in empties:
                move = cov.white_response
            else:
                move = self.delegate.respond(None, empties)
        else:
            move = self._default(empties)
        if move is not None:
            self.white_owned.add(move)
        return move

    def _default(self, empties: set[Node]) -> Node | None:
        plain = sorted(empties - self.m.markers, key=self.key)
        if plain:
            return plain[0]
        responses = sorted(
            {c.white_response for c in self.cover_map.values()} & empties,
            key=self.key,
        )
        if responses:
            return responses[0]
        rest = sorted(empties, key=self.key)
        return rest[0] if rest else None


def exhaustive_marker_adversary(m: MatchingSet) -> list[list[Node]]:
    """All Black marker orders that complete a group's markers; [] means sound.

    Runs on the abstract marker arena: Black plays only markers, White
    replies per the responder, and a group counts as completed for Black as
    soon as all of its marker labels are Black (the worst case, since
    non-marker cells may already be black).
    """
    failures: list[list[Node]] = []
    group_markers = [m.group_markers(g) for g in m.groups]

    def completed(black: frozenset, white: frozenset) -> bool:
        return any(gm <= black and not (gm & white) for gm in group_markers)

    def step(
        resp: MatchResponder,
        black: frozenset,
        white: frozenset,
        order: list[Node],
    ) -> None:
        empties = m.markers - black - white
        if not empties:
            return
        for x in sorted(empties, key=repr):
            b2 = black | {x}
            if completed(b2, white):
                failures.append(order + [x])
                continue
            r2 = copy.deepcopy(resp)
            y = r2.respond(x, m.markers - b2 - white)
            w2 = white | ({y} if y is not None else set())
            step(r2, b2, w2, order + [x])

    step(MatchResponder(m), frozenset(), frozenset(), [])
    return failures
