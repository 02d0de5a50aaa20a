"""Draw proofs for k-in-a-Row games: pairings, matching-set certificates,
configuration detection, and a brute-force solver to cross-check them."""

from .board import (
    BLACK,
    EMPTY,
    WHITE,
    BoardFormatError,
    BoardSpec,
    Group,
    IllegalPositionError,
    MoveError,
    Position,
    apply_move,
    cell_name,
    empty_position,
    enumerate_groups,
    live_black_groups,
    parse_cell,
    parse_position,
    render_position,
    winner,
)
from .certio import CertificateFormatError, certificate_from_json, certificate_to_json
from .configs import (
    ConfigTemplate,
    DrawCertificate,
    Embedding,
    catalog,
    check_certificate,
    detect,
    prove_draw,
    template_by_name,
)
from .pairing import Pairing, verify_pairing
from .setmatch import (
    Covering,
    MatchingSet,
    ProofResult,
    verify_abstract,
    verify_matching_set,
)
from .solver import SearchGuardError, SearchStats, Verdict, solve, verify_draw_claims

__all__ = [name for name in dir() if not name.startswith("_")]
