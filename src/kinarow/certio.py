"""JSON (de)serialization of draw certificates.

The on-disk format holds the board file text, one object per matching set
(markers, groups, coverings with their remainder pairs, symmetry permutations),
and the residual pairing.  All cells are written in algebraic form ("c2").
"""

from __future__ import annotations

import json
from typing import Any

from .board import BoardFormatError, Group, IllegalPositionError, cell_key, cell_name
from .board import parse_cell, parse_position, render_position
from .configs import CertEntry, DrawCertificate, template_by_name
from .pairing import Pairing
from .setmatch import Covering, MatchingSet


class CertificateFormatError(ValueError):
    pass


# What decoding a JSON value of the wrong type or shape raises, e.g. a cell
# given as a number or a matching set given as a string.
_WRONG_SHAPE = (AttributeError, KeyError, TypeError, ValueError)


def _cells(names: Any) -> tuple:
    return tuple(parse_cell(s) for s in names)


def _pair(names: Any) -> tuple:
    """A covering's remainder pair or a residual pair: exactly two cells."""
    pair = _cells(names)
    if len(pair) != 2:
        raise CertificateFormatError("a pair must hold exactly two cells")
    return pair


def _matching_to_obj(ms: MatchingSet) -> dict:
    return {
        "markers": sorted((cell_name(c) for c in ms.markers)),
        "groups": [[cell_name(c) for c in g] for g in ms.groups],
        "coverings": [_covering_to_obj(c) for c in ms.coverings],
        "symmetry": [
            {cell_name(a): cell_name(b) for a, b in sorted(p.items(), key=lambda kv: cell_key(kv[0]))}
            for p in ms.symmetry
        ],
    }


def _covering_to_obj(c: Covering) -> dict:
    return {
        "black": cell_name(c.black_move),
        "white": cell_name(c.white_response),
        "remainder": {"pairs": [[cell_name(a), cell_name(b)] for a, b in c.pairs]},
    }


def _matching_from_obj(obj: dict) -> MatchingSet:
    try:
        markers = frozenset(_cells(obj["markers"]))
        groups = tuple(Group(_cells(g)) for g in obj["groups"])
        coverings = tuple(_covering_from_obj(c) for c in obj["coverings"])
        symmetry = tuple(
            {parse_cell(a): parse_cell(b) for a, b in p.items()}
            for p in obj.get("symmetry", [])
        )
    except _WRONG_SHAPE as exc:
        raise CertificateFormatError(f"bad matching set object: {exc}") from exc
    return MatchingSet(markers, groups, coverings, symmetry)


def _covering_from_obj(obj: dict) -> Covering:
    pairs = obj.get("remainder", {}).get("pairs", [])
    return Covering(
        parse_cell(obj["black"]),
        parse_cell(obj["white"]),
        tuple(_pair(p) for p in pairs),
    )


def certificate_to_json(cert: DrawCertificate) -> str:
    obj = {
        "board": render_position(cert.position),
        "matching_sets": [
            {"template_name": e.template_name, **_matching_to_obj(e.matching)}
            for e in cert.entries
        ],
        "residual_pairing": [
            {
                "group": [cell_name(c) for c in g],
                "pair": [cell_name(a), cell_name(b)],
            }
            for g, (a, b) in cert.residual.assignments
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


def certificate_from_json(text: str) -> DrawCertificate:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("board"), str):
        raise CertificateFormatError("certificate object must contain a board text")
    try:
        pos = parse_position(obj["board"])
    except (BoardFormatError, IllegalPositionError) as exc:
        raise CertificateFormatError(f"bad board: {exc}") from exc
    sets = obj.get("matching_sets", [])
    if not isinstance(sets, list) or not all(isinstance(mo, dict) for mo in sets):
        raise CertificateFormatError("matching_sets must be a list of objects")
    entries = []
    for mo in sets:
        try:  # a name the catalog does not know, or none
            name = template_by_name(mo["template_name"]).name
        except _WRONG_SHAPE as exc:
            raise CertificateFormatError(f"bad template_name: {exc}") from exc
        entries.append(CertEntry(name, _matching_from_obj(mo)))
    try:
        residual = Pairing(
            tuple(
                (Group(_cells(r["group"])), _pair(r["pair"]))
                for r in obj.get("residual_pairing", [])
            )
        )
    except _WRONG_SHAPE as exc:
        raise CertificateFormatError(f"bad residual pairing: {exc}") from exc
    return DrawCertificate(pos, tuple(entries), residual)
