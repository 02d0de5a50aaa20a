"""Template catalog, embedding detection, and draw certificates."""

import gc
import hashlib
import json
import random
import weakref
from fractions import Fraction

import pytest

from kinarow.board import (
    BoardSpec,
    apply_move,
    empty_position,
    live_black_groups,
    parse_cell,
    parse_position,
    winner,
)
from kinarow import configs
from kinarow.certio import certificate_from_json, certificate_to_json
from kinarow.configs import (
    CertEntry,
    DrawCertificate,
    _reductions,
    catalog,
    check_certificate,
    cycle_line_template,
    cycle_template,
    detect,
    prove_draw,
    template_by_name,
    validate_catalog,
)
from tests.test_acceptance import random_legal_position
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

# detect(pos) in full: the first 16 hex digits of the SHA-256 of one line per
# embedding (template name, cells, groups, marker_mask, group_mask), and the
# embedding count.  On the three 5x4 positions some marker cells are held by
# placements on different groups, and only the first of those is kept.
DETECT_DIGESTS = {
    "empty4x4": ("c0af2b3046912f06", 7128),
    "fig1": ("0bc85215a193954e", 1),
    "fig2": ("4ff19be9bc23bf2a", 1),
    "fig3": ("41b5f3231f92e213", 5),
    "fig4": ("bda95163917911c9", 8),
    "fig5": ("e9bd010daa8c8693", 7),
    "fig7": ("9502bdf59cb31b01", 14),
    "fig8": ("28353437bee2f2ec", 57),
    "fig9a": ("7e0f8332b9fc482d", 13),
    "fig9b": ("6feae2e6f1675957", 23),
    "fig9c": ("08ed670eaf380777", 60),
    "fig10": ("da125e963cea7fff", 75),
    "fig11": ("25b930bbd5004e88", 31),
    "5 4 4 B\nX..O.\nO....\n...X.\n.....\n": ("a09199c117f10911", 1984),
    "5 4 4 B\n....X\n..X..\n.O...\nO....\n": ("18b4de46089e29c4", 431),
    "5 4 4 B\nX.O..\nO....\nOXOX.\nX.O.X\n": ("bba923c8cb0de058", 4),
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
    "empty4x4": [None, None, None, "364233186cb61d57"],
    "fig1": [None] + ["fbf21a4b3d33d0f5"] * 3,
    "fig2": [None] + ["4a0e29857ae83d63"] * 3,
    "fig3": [None] + ["8e359bd1b90d8f0d"] * 3,
    "fig4": [None] + ["d248fb7eec711172"] * 3,
    "fig5": [None] + ["ad9a0746d8197085"] * 3,
    "fig7": [None] + ["7b82b54c803a070d"] * 3,
    "fig8": [None] + ["933fd9a4e0597fb7"] * 3,
    "fig9a": [None] + ["eb6845454073812a"] * 3,
    "fig9b": [None] + ["6ccc4e0091ecb91b"] * 3,
    "fig9c": [None] + ["aa81b72f27f0b5a9"] * 3,
    "fig10": [None, "43e3bb845accc42e", "43e3bb845accc42e", "272f01a037e1a3c8"],
    "fig11": [None] + ["50473701eab88cc2"] * 3,
    "residual5x4": [None] * 4,
    "ties4x4": [None, "447dc3ff2765a4c5", "447dc3ff2765a4c5", "744414a14b6107f8"],
}

# prove_draw(pos, max_attempts=b) for b = 100, 300, 1000, 5000 on
# positions whose searches can run past the 100 nodes where BUDGET_RESULTS
# stops.
# The 4x4 opening has several Square + Square tilings: the cover search
# lists a tiling's entries in branch order and, given the nodes, keeps the
# least by sorted bindings.
DEEP_BUDGET_RESULTS = {
    "4 4 4 B\n....\n....\n....\n.O.X\n": ["35f066ed7d5a1f1c"] * 4,
    "5 4 4 B\n.O...\n.....\n.....\n..XOX\n": ["d8d5f194f2236255"] * 4,
    "5 4 4 B\n....X\nXO...\n...O.\n.....\n": [None] + ["496d93e75d8b0e74"] * 3,
    "5 4 4 B\nO.X..\n..O..\n.....\nX....\n": [None] + ["a8c7dbf9d4052cac"] * 3,
}

# Residual-pass proofs, keyed by board: budget -> digest.  Each proof lies
# one node past the first budget, so these pin the node order of that
# search.  A child pool that keeps the earlier siblings needs 2 more nodes
# for the first proof.  One that also drops the next candidate loses the
# second proof, which takes an embedding and the next one in its pool.
PASS3_ORDER_RESULTS = {
    "5 4 4 B\n.X...\nXO...\n...O.\n.....\n": {208: None, 209: "4908b3ad21ea8e0a"},
    "5 4 4 B\n.....\n..XOX\n.O...\nO..X.\n": {11: None, 12: "706a9b3c6ad26aa6"},
}

# prove_draw(pos) at the default budget, which the skipped subtrees of both
# passes must leave as they are: the empty 4x4 board, and the two 16-empty
# 5x4 openings of the benchmark that no certificate proves, whose residual
# passes finish within budget only by skipping the subtrees that no
# certificate can extend.
DEFAULT_BUDGET_RESULTS = {
    "empty4x4": "364233186cb61d57",
    "5 4 4 B\nX..O.\nO....\n...X.\n.....\n": None,
    "5 4 4 B\nX...O\nX..O.\n.....\n.....\n": None,
}

# Seeded random positions, as (m, n, plies, count, seed), whose results must
# never lose a certificate as the budget grows.
MONOTONE_BUDGETS = (1, 3, 10, 30, 100, 300, 1000, 5000)
MONOTONE_POSITIONS = ((4, 4, 2, 10, 5), (5, 4, 4, 20, 8), (5, 4, 6, 20, 8), (5, 5, 12, 10, 9))


def board_of(name: str) -> str:
    return name if "\n" in name else load_fixture(f"{name}.board")


def embedding_lines(found) -> list[str]:
    return [
        f"{e.template.name} {e.cells} {[g.cells for g in e.groups]} {e.marker_mask} {e.group_mask}\n"
        for e in found
    ]


def detect_digest(found) -> str:
    return hashlib.sha256("".join(embedding_lines(found)).encode()).hexdigest()[:16]


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
        marker_sets = {frozenset(e.cells) for e in detect(pos, bi)}
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
            assert set(e.groups) <= live
            assert all(pos.is_empty(c) for c in e.cells)


    @pytest.mark.parametrize("name", DETECT_DIGESTS)
    def test_pinned_output(self, name):
        found = detect(parse_position(board_of(name)))
        assert (detect_digest(found), len(found)) == DETECT_DIGESTS[name]


# Positions of one board that grow a placement table's region in steps.
OTHER_5X4 = (
    "5 4 4 B\n.OX..\nX....\n.....\n...O.\n",
    "5 4 4 B\n..X..\n.....\n...O.\n.....\n",
    "5 4 4 B\nO....\n.....\n.....\n....X\n",
)
OTHER_SPECS = ("4 4 4 B\n..O.\n..X.\nX...\n.O..\n", "5 5 4 B\nXO...\n.....\n..X..\n.....\n....O\n")
COLLAPSE_5X4 = [name for name in DETECT_DIGESTS if name.startswith("5 4")]


class TestPlacementTables:
    """detect keeps a placement table per template and board, so its output
    must not depend on what it was asked before."""

    @staticmethod
    def fresh(pos, names=None):
        # New template objects hold no tables.
        templates = [t for t in configs._fixed_templates() if names is None or t.name in names]
        assert all("tables" not in vars(t) for t in templates)
        return embedding_lines(detect(pos, templates))

    @pytest.mark.parametrize("board", COLLAPSE_5X4)
    def test_after_the_region_grew_on_the_same_board(self, board):
        pos = parse_position(board)
        templates = configs._fixed_templates()
        assert embedding_lines(detect(pos, templates)) == self.fresh(pos)
        region = templates[0].tables[pos.spec]
        for other in OTHER_5X4:
            detect(parse_position(other), templates)
        assert templates[0].tables[pos.spec].empty != region.empty
        assert embedding_lines(detect(pos, templates)) == self.fresh(pos)

    @pytest.mark.parametrize("board", COLLAPSE_5X4)
    def test_after_other_boards(self, board):
        pos = parse_position(board)
        templates = configs._fixed_templates()
        for other in OTHER_SPECS:
            detect(parse_position(other), templates)
        assert embedding_lines(detect(pos, templates)) == self.fresh(pos)

    def test_template_subset(self):
        names = {"Triangle", "Square/Line", "BiTriangle"}
        for other in OTHER_5X4:
            detect(parse_position(other))
        for board in COLLAPSE_5X4:
            pos = parse_position(board)
            subset = [t for t in catalog() if t.name in names]
            assert embedding_lines(detect(pos, subset)) == self.fresh(pos, names)

    def test_cycle_template_table_dies_with_it(self):
        pos = parse_position(OTHER_5X4[1])
        cycle = template_by_name("CycleN(5)")
        first = embedding_lines(detect(pos, [cycle]))
        assert first
        for other in OTHER_5X4[::2]:
            detect(parse_position(other), [cycle])
        assert embedding_lines(detect(pos, [cycle])) == first
        assert embedding_lines(detect(pos, [template_by_name("CycleN(5)")])) == first
        assert template_by_name("CycleN(5)") is not cycle
        ref = weakref.ref(cycle)
        del cycle
        gc.collect()
        assert ref() is None


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

    @pytest.mark.parametrize("board", sorted(DEEP_BUDGET_RESULTS))
    def test_deep_budget_results(self, board):
        pos = parse_position(board)
        got = [cert_digest(prove_draw(pos, max_attempts=b)) for b in (100, 300, 1000, 5000)]
        assert got == DEEP_BUDGET_RESULTS[board]

    @pytest.mark.parametrize("board", sorted(PASS3_ORDER_RESULTS))
    def test_residual_search_node_order(self, board):
        pos = parse_position(board)
        expected = PASS3_ORDER_RESULTS[board]
        got = {b: cert_digest(prove_draw(pos, max_attempts=b)) for b in expected}
        assert got == expected

    @pytest.mark.parametrize("name", sorted(DEFAULT_BUDGET_RESULTS))
    def test_default_budget_results(self, name):
        pos = parse_position(board_of(name))
        assert cert_digest(prove_draw(pos)) == DEFAULT_BUDGET_RESULTS[name]

    def test_a_larger_budget_keeps_the_certificate(self):
        # Each pass searches a prefix of the same node order at every budget,
        # so a certificate found within some budget is found within any
        # larger one.  Some positions on each of the first two boards gain a
        # certificate along the way, so the check is not empty there.
        gained = set()
        for m, n, plies, count, seed in MONOTONE_POSITIONS:
            rng = random.Random(seed)
            for _ in range(count):
                pos = random_legal_position(rng, BoardSpec(m, n, 4), plies)
                if winner(pos) is not None:
                    continue
                found = [prove_draw(pos, max_attempts=b) is not None for b in MONOTONE_BUDGETS]
                assert found == sorted(found), pos
                if found[-1] and not found[0]:
                    gained.add((m, n))
        assert gained >= {(4, 4), (5, 4)}

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


def brute_max_reductions(
    sizes: list[tuple[int, int]], max_groups: int, max_empty: int
) -> dict[tuple[int, int], int]:
    """(groups, empty) -> the most cells saved by any multiset of templates of
    the given (groups, markers) sizes that fits, by listing every multiset."""
    totals = set()

    def grow(i: int, groups: int, markers: int) -> None:
        if i == len(sizes):
            totals.add((groups, markers))
            return
        tg, tm = sizes[i]
        while groups <= max_groups and markers <= max_empty:
            grow(i + 1, groups, markers)
            groups, markers = groups + tg, markers + tm

    grow(0, 0, 0)
    return {
        (lg, em): max(2 * g - m for g, m in totals if g <= lg and m <= em)
        for lg in range(max_groups + 1)
        for em in range(max_empty + 1)
    }


def seeded_positions(spec: BoardSpec, count: int, seed: int) -> list:
    rng = random.Random(seed)
    out = [random_legal_position(rng, spec, 2 * rng.randint(1, 4)) for _ in range(count)]
    return [pos for pos in out if winner(pos) is None]


class TestMarkerBudget:
    """prove_draw refutes a position whose templates cannot save 2L - E cells."""

    @pytest.mark.parametrize(
        "templates",
        [
            catalog(),
            [cycle_template(n) for n in range(3, 7)] + [cycle_line_template(n) for n in range(3, 7)],
        ],
        ids=["catalog", "cycles"],
    )
    def test_knapsack_matches_brute_force(self, templates):
        sizes = sorted({(t.num_groups, t.num_markers) for t in templates})
        expected = brute_max_reductions(sizes, 12, 16)
        table = _reductions(12, 16, tuple(sizes))
        got = {(lg, em): table[lg][em] for lg, em in expected}
        assert got == expected

    def test_certificates_fit_the_empty_cells(self):
        figs = ["empty4x4", *FIXTURE_TEMPLATES]
        positions = [parse_position(load_fixture(f"{fig}.board")) for fig in figs]
        positions += seeded_positions(BoardSpec(4, 4, 4), 12, 1)
        positions += seeded_positions(BoardSpec(5, 4, 4), 12, 2)
        positions += seeded_positions(BoardSpec(4, 4, 3), 12, 3)
        proved = 0
        for pos in positions:
            cert = prove_draw(pos)
            if cert is not None:
                proved += 1
                used = sum(len(e.matching.markers) for e in cert.entries)
                assert used + 2 * len(cert.residual.assignments) <= len(pos.empties())
        assert proved >= 20

    @pytest.mark.parametrize("m, n", [(5, 4), (5, 5)])
    def test_empty_board_refuted_before_detect(self, monkeypatch, m, n):
        # 5x4: 17 live groups, 20 empty cells, and 2*17 - 20 = 14 exceeds the
        # 12 cells two FlatStar/Line save; 5x5: 28 groups need 31 of at most 18.
        def fail(*args, **kwargs):
            raise AssertionError("the marker budget should refute this position first")

        monkeypatch.setattr(configs, "detect", fail)
        monkeypatch.setattr(configs, "find_hj_pairing", fail)
        assert prove_draw(empty_position(BoardSpec(m, n, 4))) is None


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

    def test_off_board_groups_are_violations(self):
        obj = json.loads(load_fixture("fig1.cert"))
        obj["matching_sets"][0]["groups"][0] = ["a5", "a6", "a7", "a8"]
        obj["residual_pairing"] = [{"group": ["a5", "a6", "a7", "a8"], "pair": ["a5", "a6"]}]
        result = check_certificate(certificate_from_json(json.dumps(obj)))
        off_board = [loc for loc, reason in result.violations if "off the board" in reason]
        assert off_board == ["embedding 0 (Triangle)/matching set", "residual", "residual"]

    def test_template_name_must_match_the_matching_set(self):
        obj = json.loads(load_fixture("fig1.cert"))
        obj["matching_sets"][0]["template_name"] = "Square"
        result = check_certificate(certificate_from_json(json.dumps(obj)))
        assert not result.valid
        assert result.violations == (
            (
                "embedding 0 (Square)",
                "(markers, groups, coverings) (5, 3, 3) are not the template's (7, 4, 4)",
            ),
        )

    def test_unknown_template_name_is_a_violation(self):
        cert = certificate_from_json(load_fixture("fig1.cert"))
        renamed = CertEntry("Pentagon", cert.entries[0].matching)
        result = check_certificate(DrawCertificate(cert.position, (renamed,), cert.residual))
        assert result.violations == (("embedding 0 (Pentagon)", "not a catalog template name"),)

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
