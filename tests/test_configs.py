"""Template catalog, embedding detection, and draw certificates."""

import hashlib
from fractions import Fraction

import pytest

from kinarow.board import (
    BoardSpec,
    apply_move,
    empty_position,
    live_black_groups,
    parse_cell,
    parse_position,
)
from kinarow.certio import certificate_from_json, certificate_to_json
from kinarow.configs import (
    DrawCertificate,
    catalog,
    check_certificate,
    cycle_line_template,
    cycle_template,
    detect,
    prove_draw,
    template_by_name,
    validate_catalog,
)
from tests.test_board import load_fixture

# name -> (markers, groups, reduction, ratio)
CATALOG_METADATA = {
    "Triangle": (5, 3, 1, Fraction(5, 3)),
    "Square": (7, 4, 1, Fraction(7, 4)),
    "Triangle/Line": (6, 4, 2, Fraction(3, 2)),
    "Square/Line": (8, 5, 2, Fraction(8, 5)),
    "BiTriangle": (8, 5, 2, Fraction(8, 5)),
    "BiTriangleX": (7, 5, 3, Fraction(7, 5)),
    "FlatStar": (8, 6, 4, Fraction(4, 3)),
    "BiTriangle/Line": (9, 6, 3, Fraction(3, 2)),
    "BiTriangle/BiLine": (10, 7, 4, Fraction(10, 7)),
    "BiTriangleX/Line": (8, 6, 4, Fraction(4, 3)),
    "FlatStar/Line": (8, 7, 6, Fraction(8, 7)),
    "TriTriangleX": (10, 7, 4, Fraction(10, 7)),
}

FIXTURE_TEMPLATES = {
    "fig1": "Triangle",
    "fig2": "Square",
    "fig3": "Triangle/Line",
    "fig4": "Square/Line",
    "fig5": "BiTriangle",
    "fig7": "BiTriangleX",
    "fig8": "FlatStar",
    "fig9a": "BiTriangle/Line",
    "fig9b": "BiTriangle/BiLine",
    "fig9c": "BiTriangleX/Line",
    "fig10": "FlatStar/Line",
    "fig11": "TriTriangleX",
}

# detect(empty 4x4) per template, one embedding per symmetry orbit
EMPTY_4X4_EMBEDDINGS = {
    "Triangle": 288,
    "Square": 3104,
    "Triangle/Line": 224,
    "Square/Line": 2528,
    "BiTriangle": 320,
    "BiTriangleX": 0,
    "FlatStar": 24,
    "BiTriangle/Line": 384,
    "BiTriangle/BiLine": 256,
    "BiTriangleX/Line": 0,
    "FlatStar/Line": 0,
    "TriTriangleX": 0,
}

# A 5x4 position (Black to move) that only the residual search proves:
# Square + Triangle, completed by a pairing of the two groups left over.
RESIDUAL_5X4 = "5 4 4 B\n.OX..\nX....\n.....\n...O.\n"
# A 4x4 position whose certificate at budget 100 depends on how the exact
# cover search breaks ties between equally constrained groups.
TIES_4X4 = "4 4 4 B\n..O.\n..X.\nX...\n.O..\n"

# prove_draw(pos, max_attempts=b) for b = 1, 3, 10, 100: the first 16 hex
# digits of the SHA-256 of the certificate JSON, or None for NotFound.
BUDGET_RESULTS = {
    "empty4x4": ["364233186cb61d57"] * 4,
    "fig1": [None] + ["fbf21a4b3d33d0f5"] * 3,
    "fig2": [None] + ["4a0e29857ae83d63"] * 3,
    "fig3": ["8e359bd1b90d8f0d"] * 4,
    "fig4": ["d248fb7eec711172"] * 4,
    "fig5": [None] + ["ad9a0746d8197085"] * 3,
    "fig7": [None] + ["7b82b54c803a070d"] * 3,
    "fig8": ["933fd9a4e0597fb7"] * 4,
    "fig9a": [None] + ["eb6845454073812a"] * 3,
    "fig9b": [None] + ["6ccc4e0091ecb91b"] * 3,
    "fig9c": ["aa81b72f27f0b5a9"] * 4,
    "fig10": ["272f01a037e1a3c8"] * 4,
    "fig11": [None] + ["50473701eab88cc2"] * 3,
    "residual5x4": [None] * 4,
    "ties4x4": [None, "447dc3ff2765a4c5", "447dc3ff2765a4c5", "744414a14b6107f8"],
}


def cert_digest(cert: DrawCertificate | None) -> str | None:
    if cert is None:
        return None
    return hashlib.sha256(certificate_to_json(cert).encode()).hexdigest()[:16]


class TestCatalog:
    def test_twelve_fixed_templates(self):
        assert {t.name for t in catalog()} == set(CATALOG_METADATA)

    @pytest.mark.parametrize("name", sorted(CATALOG_METADATA))
    def test_metadata(self, name):
        t = template_by_name(name)
        assert (t.num_markers, t.num_groups, t.reduction, t.ratio) == CATALOG_METADATA[name]

    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycle_formulas(self, n):
        c = cycle_template(n)
        assert (c.num_markers, c.num_groups, c.reduction) == (2 * n - 1, n, 1)
        assert c.ratio == Fraction(2 * n - 1, n)
        cl = cycle_line_template(n)
        assert (cl.num_markers, cl.num_groups, cl.reduction) == (2 * n, n + 1, 2)
        assert cl.ratio == Fraction(2 * n, n + 1)

    def test_catalog_validates(self):
        results = validate_catalog()
        assert all(r.valid for r in results.values()), {
            name: r.violations for name, r in results.items() if not r.valid
        }

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            template_by_name("Pentagon")


class TestDetect:
    def test_empty_4x4_contains_the_two_crossing_bitriangles(self):
        pos = empty_position(BoardSpec(4, 4, 4))
        bi = [template_by_name("BiTriangle")]
        marker_sets = {e.marker_cells() for e in detect(pos, bi)}
        diag = frozenset(parse_cell(c) for c in ("a1", "a3", "a4", "b1", "c4", "d1", "d2", "d4"))
        anti = frozenset(parse_cell(c) for c in ("a2", "b2", "b3", "b4", "c1", "c2", "c3", "d3"))
        assert diag in marker_sets
        assert anti in marker_sets

    def test_full_board_has_no_embeddings(self):
        pos = parse_position("4 4 4 B\nXOXO\nOXOX\nXOXO\nOXOX\n")
        assert detect(pos) == []

    def test_empty_4x4_embedding_counts_per_template(self):
        # One embedding per symmetry orbit of each template, in catalog order.
        pos = empty_position(BoardSpec(4, 4, 4))
        found = detect(pos)
        counts = {t.name: sum(e.template.name == t.name for e in found) for t in catalog()}
        assert counts == EMPTY_4X4_EMBEDDINGS
        assert len(found) == 7128
        assert [e.template.name for e in found] == [
            t.name for t in catalog() for _ in range(EMPTY_4X4_EMBEDDINGS[t.name])
        ]

    @pytest.mark.parametrize("fig,name", sorted(FIXTURE_TEMPLATES.items()))
    def test_each_fixture_embeds_its_template(self, fig, name):
        pos = parse_position(load_fixture(f"{fig}.board"))
        found = detect(pos, [template_by_name(name)])
        assert found, f"{name} not detected on {fig}"
        live = set(live_black_groups(pos))
        for e in found:
            assert set(e.concrete_groups()) <= live
            assert all(pos.is_empty(c) for c in e.marker_cells())


class TestProveDraw:
    def test_trivial_residual_only_certificate(self):
        # Two disjoint far-apart rows: a plain pairing suffices, no embeddings
        pos = empty_position(BoardSpec(4, 3, 4))
        cert = prove_draw(pos)
        assert cert is not None and cert.entries == ()
        assert check_certificate(cert).valid

    def test_fig1_produces_one_triangle(self):
        pos = parse_position(load_fixture("fig1.board"))
        cert = prove_draw(pos)
        assert [e.template_name for e in cert.entries] == ["Triangle"]
        assert cert.residual.assignments == ()
        assert check_certificate(cert).valid

    def test_white_to_move_is_not_proved(self):
        pos = parse_position(load_fixture("fig1.board"))
        flipped = apply_move(pos, sorted(pos.empties())[0])
        assert prove_draw(flipped) is None

    @pytest.mark.parametrize("fig", ["empty4x4", *sorted(FIXTURE_TEMPLATES)])
    def test_prover_reproduces_bundled_certificate(self, fig):
        # The bundled certificates are the prover's own output, byte for byte.
        pos = parse_position(load_fixture(f"{fig}.board"))
        assert certificate_to_json(prove_draw(pos)) == load_fixture(f"{fig}.cert")

    @pytest.mark.parametrize("name", sorted(BUDGET_RESULTS))
    def test_budget_limited_results(self, name):
        extra = {"residual5x4": RESIDUAL_5X4, "ties4x4": TIES_4X4}
        pos = parse_position(extra.get(name) or load_fixture(f"{name}.board"))
        got = [cert_digest(prove_draw(pos, max_attempts=b)) for b in (1, 3, 10, 100)]
        assert got == BUDGET_RESULTS[name]

    def test_residual_search_proof(self):
        cert = prove_draw(parse_position(RESIDUAL_5X4))
        assert [e.template_name for e in cert.entries] == ["Square", "Triangle"]
        assert len(cert.residual.assignments) == 2
        assert cert_digest(cert) == "b4dfe08ce75c3285"
        assert check_certificate(cert).valid

    def test_empty_5x4_is_not_proved(self):
        assert prove_draw(empty_position(BoardSpec(5, 4, 4))) is None

    def test_prove_is_deterministic(self):
        pos = parse_position(load_fixture("fig9b.board"))
        a, b = prove_draw(pos), prove_draw(pos)
        assert certificate_to_json(a) == certificate_to_json(b)


class TestCheckCertificate:
    def test_round_trip_of_prover_output(self):
        pos = parse_position(load_fixture("fig5.board"))
        cert = prove_draw(pos)
        back = certificate_from_json(certificate_to_json(cert))
        assert check_certificate(back).valid

    def test_shared_marker_cells_rejected(self):
        cert = certificate_from_json(load_fixture("empty4x4.cert"))
        doubled = DrawCertificate(
            cert.position, (cert.entries[0], cert.entries[0]), cert.residual
        )
        result = check_certificate(doubled)
        assert any("independence" in reason for _, reason in result.violations)

    def test_dead_group_in_certificate_rejected(self):
        cert = certificate_from_json(load_fixture("fig1.cert"))
        occupied = apply_move(
            apply_move(cert.position, sorted(cert.position.empties())[-1]),
            sorted(cert.entries[0].matching.markers)[0],
        )
        bad = DrawCertificate(occupied, cert.entries, cert.residual)
        assert not check_certificate(bad).valid

    @pytest.mark.parametrize("fig", sorted(FIXTURE_TEMPLATES))
    def test_bundled_fixture_certificates_valid(self, fig):
        cert = certificate_from_json(load_fixture(f"{fig}.cert"))
        assert check_certificate(cert).valid


def test_cycle_templates_prove_on_longer_boards():
    # CycleN(5) only fits with k >= 4 on wider boards; validate abstractly here
    from kinarow.setmatch import exhaustive_marker_adversary, verify_abstract

    for n in (3, 4, 5):
        assert verify_abstract(cycle_template(n).matching).valid
        assert exhaustive_marker_adversary(cycle_template(n).matching) == []
