"""Template catalog, embedding detection, and draw certificates."""

import hashlib
import itertools
import json
import random
import string
import sys
from array import array
from fractions import Fraction

import pytest

from kinarow.board import (
    BoardSpec,
    Group,
    apply_move,
    cell_key,
    cell_name,
    empty_position,
    group_masks,
    live_black_groups,
    live_groups,
    parse_cell,
    parse_position,
    winner,
)
from kinarow import configs, setmatch
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
)
from kinarow.pairing import Pairing
from kinarow.setmatch import MatchingSet, expand_coverings, symmetry_closure, verify_abstract
from tests.test_acceptance import random_legal_position, with_cycles
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
    "Square/Line": 1264,
    "BiTriangle": 320,
    "BiTriangleX": 0,
    "FlatStar": 8,
    "BiTriangle/Line": 192,
    "BiTriangle/BiLine": 64,
    "BiTriangleX/Line": 0,
    "FlatStar/Line": 0,
    "TriTriangleX": 0,
}

# detect(pos) in full: the first 16 hex digits of the SHA-256 of one line per
# embedding (template name, cells, groups), and the embedding count.  On the
# first two 5x4 positions some marker cells are held by placements on
# different groups, each of which is listed.
DETECT_DIGESTS = {
    "empty4x4": ("d1e90eebdfa226dc", 5464),
    "fig1": ("6fe4e69d3d96cf63", 1),
    "fig2": ("1e378d17446172e8", 1),
    "fig3": ("4795e0eb3ee96f61", 5),
    "fig4": ("126d1274bf3f6038", 7),
    "fig5": ("f9e984d46275484d", 7),
    "fig7": ("bb301d2e14230c21", 14),
    "fig8": ("e0fbbcadc301d5b8", 55),
    "fig9a": ("80a319ff0c14f071", 12),
    "fig9b": ("13eba16806a5505d", 18),
    "fig9c": ("b87ea52d7e393ac4", 57),
    "fig10": ("6190c04d1e08adc3", 71),
    "fig11": ("f159304080862b90", 31),
    "5 4 4 B\nX..O.\nO....\n...X.\n.....\n": ("255a6a98ff942219", 1927),
    "5 4 4 B\n....X\n..X..\n.O...\nO....\n": ("40b9382c7ca12623", 489),
    "5 4 4 B\nX.O..\nO....\nOXOX.\nX.O.X\n": ("fa5cbca5d701c45a", 4),
}

# The first embedding of each class of marker cells alone, up to the
# template's symmetries, of detect(pos), in order and digested as in
# DETECT_DIGESTS: on these two boards fewer embeddings, on every other board
# all of them.
CELLS_ONLY_DETECT_DIGESTS = {
    "5 4 4 B\nX..O.\nO....\n...X.\n.....\n": ("d4664bdf00cc8230", 1671),
    "5 4 4 B\n....X\n..X..\n.O...\nO....\n": ("6edcccd94da6e4d6", 407),
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
    "fig4": [None] + ["5432f9c4e235d058"] * 3,
    "fig5": [None] + ["ad9a0746d8197085"] * 3,
    "fig7": [None] + ["5f5dd58f361ea2aa"] * 3,
    "fig8": [None] + ["e0d0b811a9f85a57"] * 3,
    "fig9a": [None] + ["a2e80e5e930ff738"] * 3,
    "fig9b": [None] + ["3b2909ecf3157d2e"] * 3,
    "fig9c": [None] + ["e910f2ff451d4e0d"] * 3,
    "fig10": [None] + ["9bee93c5960c00dc"] * 3,
    "fig11": [None] + ["09d556fdbabadd6f"] * 3,
    "residual5x4": [None] * 4,
    "ties4x4": [None, "2343fdfbebcbf2f0", "2343fdfbebcbf2f0", "744414a14b6107f8"],
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
    "5 4 4 B\n.X...\nXO...\n...O.\n.....\n": {213: None, 214: "4908b3ad21ea8e0a"},
    "5 4 4 B\n.....\n..XOX\n.O...\nO..X.\n": {13: None, 14: "706a9b3c6ad26aa6"},
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

# prove_draw(pos, max_attempts=b) for b = 10, 100, 5000 on positions drawn by
# random_legal_position: 4x4 openings with 2 stones (seed 7042), whose proofs
# come from the cover pass, and 5x4 openings with 4 and 6 stones (seeds 7104
# and 7106), 5x4 midgames with 8 and 10 stones (seeds 7108 and 7110) and one
# 5x4 opening with 4 stones (seed 7054), each of which keeps rows that place
# the same marker cells, up to the template's symmetries, on different groups.
SEEDED_RESULTS = {
    "4 4 4 B\n....\n....\n.X..\n..O.\n": ["575951119bb56033", "cadc7364237afad8", "cadc7364237afad8"],
    "4 4 4 B\n...X\n....\nO...\n....\n": ["77b0d1c59df3ff8a", "29de988c110b897c", "29de988c110b897c"],
    "4 4 4 B\n.O..\n.X..\n....\n....\n": ["ff49d6a1ad9d8d80", "cbc974d67b55934c", "cbc974d67b55934c"],
    "4 4 4 B\n....\n..X.\n...O\n....\n": ["4159c33d3d309c89", "7cf732b45518e74a", "7cf732b45518e74a"],
    "4 4 4 B\n....\n...O\n.X..\n....\n": ["8ca3467263dd15f8", "ce2b9811ffe09fc6", "ce2b9811ffe09fc6"],
    "4 4 4 B\n....\n..X.\n....\n.O..\n": ["dfa8b62c40c1d178", "051124a1c7895247", "051124a1c7895247"],
    "5 4 4 B\n..O..\n.....\n.....\nX.XO.\n": ["8cd3ef4853d0e554"] * 3,
    "5 4 4 B\n...O.\nX.OX.\n.....\n.....\n": ["6d92c52ebc75b395"] * 3,
    "5 4 4 B\n.....\n..O.X\n..XO.\n.....\n": [None, None, "d77f1c518de3cf97"],
    "5 4 4 B\n.....\n..O.X\nX....\n.O...\n": [None, "fffdaef90d602449", "fffdaef90d602449"],
    "5 4 4 B\n...O.\n.....\nXO..X\nOX...\n": ["bb71f20c74a69516"] * 3,
    "5 4 4 B\n..X.O\n.....\n..OOX\n...X.\n": [None, "b60d117077c0574b", "b60d117077c0574b"],
    "5 4 4 B\nXO...\nX.O..\nO.X..\n.....\n": [None, "6133b675f97e4756", "6133b675f97e4756"],
    "5 4 4 B\nOX.X.\nX..OO\n.....\n..O.X\n": ["f3217d23dca0783b"] * 3,
    "5 4 4 B\n.X.O.\n.OX.X\n.....\n.XOO.\n": ["1ecfb0ddd06d6a1f"] * 3,
    "5 4 4 B\nX.OOO\nX..OX\n.....\n.X.OX\n": ["4e7fffddecafabac"] * 3,
    "5 4 4 B\nOX..X\n.....\nX.OOX\n.XO.O\n": ["0aec10149576e198"] * 3,
    "5 4 4 B\n....O\n.....\nX...X\nO....\n": [None] * 3,
}

# Template lists given to prove_draw: the catalog reversed (templates of equal
# rank keep the caller's order), a three-template subset, the catalog with
# cycle templates, and the catalog with two templates repeated.
TEMPLATE_LISTS = {
    "reversed": lambda: catalog()[::-1],
    "subset": lambda: [template_by_name(n) for n in ("Triangle", "Square/Line", "BiTriangle")],
    "cycles": lambda: with_cycles(3, 4, 5),
    "repeats": lambda: [*catalog(), template_by_name("BiTriangle"), template_by_name("Triangle")],
}

# prove_draw(pos, templates, max_attempts=b) for b = 10, 100, 5000 under each
# of TEMPLATE_LISTS, as in BUDGET_RESULTS.  These pin how the candidates of
# the templates merge into the order each pass searches.
TEMPLATE_LIST_RESULTS = {
    "reversed": {
        "empty4x4": [None, "364233186cb61d57", "364233186cb61d57"],
        "fig1": ["fbf21a4b3d33d0f5"] * 3,
        "fig2": ["4a0e29857ae83d63"] * 3,
        "fig3": ["8e359bd1b90d8f0d"] * 3,
        "fig4": ["5432f9c4e235d058"] * 3,
        "fig5": ["ad9a0746d8197085"] * 3,
        "fig7": ["5f5dd58f361ea2aa"] * 3,
        "fig8": ["e0d0b811a9f85a57"] * 3,
        "fig9a": ["a2e80e5e930ff738"] * 3,
        "fig9b": ["3b2909ecf3157d2e"] * 3,
        "fig9c": ["e910f2ff451d4e0d"] * 3,
        "fig10": ["9bee93c5960c00dc"] * 3,
        "fig11": ["09d556fdbabadd6f"] * 3,
        "residual5x4": [None, None, "b4dfe08ce75c3285"],
        "ties4x4": ["2343fdfbebcbf2f0", "744414a14b6107f8", "744414a14b6107f8"],
    },
    "subset": {
        "empty4x4": [None, "364233186cb61d57", "364233186cb61d57"],
        "fig1": ["fbf21a4b3d33d0f5"] * 3,
        "fig2": [None] * 3,
        "fig3": [None] * 3,
        "fig4": ["5432f9c4e235d058"] * 3,
        "fig5": ["ad9a0746d8197085"] * 3,
        "fig7": [None] * 3,
        "fig8": [None] * 3,
        "fig9a": [None] * 3,
        "fig9b": [None] * 3,
        "fig9c": [None] * 3,
        "fig10": [None] * 3,
        "fig11": [None] * 3,
        "residual5x4": [None, "331473e6794539ee", "331473e6794539ee"],
        "ties4x4": ["307ada262ecb53d0"] * 3,
    },
    "cycles": {
        "empty4x4": [None, "364233186cb61d57", "364233186cb61d57"],
        "fig1": ["4c096bed31ad4477"] * 3,
        "fig2": ["8560d607baed28ae"] * 3,
        "fig3": ["9f0050b6cddc8ba2"] * 3,
        "fig4": ["2efa9cf50fd0c367"] * 3,
        "fig5": ["ad9a0746d8197085"] * 3,
        "fig7": ["5f5dd58f361ea2aa"] * 3,
        "fig8": ["e0d0b811a9f85a57"] * 3,
        "fig9a": ["a2e80e5e930ff738"] * 3,
        "fig9b": ["3b2909ecf3157d2e"] * 3,
        "fig9c": ["e910f2ff451d4e0d"] * 3,
        "fig10": ["9bee93c5960c00dc"] * 3,
        "fig11": ["09d556fdbabadd6f"] * 3,
        "residual5x4": [None, None, "8fd447ce30bef763"],
        "ties4x4": ["d817950003e340b0"] * 3,
    },
    "repeats": {
        "empty4x4": [None, "364233186cb61d57", "364233186cb61d57"],
        "fig1": ["fbf21a4b3d33d0f5"] * 3,
        "fig2": ["4a0e29857ae83d63"] * 3,
        "fig3": ["8e359bd1b90d8f0d"] * 3,
        "fig4": ["5432f9c4e235d058"] * 3,
        "fig5": ["ad9a0746d8197085"] * 3,
        "fig7": ["5f5dd58f361ea2aa"] * 3,
        "fig8": ["e0d0b811a9f85a57"] * 3,
        "fig9a": ["a2e80e5e930ff738"] * 3,
        "fig9b": ["3b2909ecf3157d2e"] * 3,
        "fig9c": ["e910f2ff451d4e0d"] * 3,
        "fig10": ["9bee93c5960c00dc"] * 3,
        "fig11": ["09d556fdbabadd6f"] * 3,
        "residual5x4": [None, None, "b4dfe08ce75c3285"],
        "ties4x4": ["2343fdfbebcbf2f0", "744414a14b6107f8", "744414a14b6107f8"],
    },
}

# Seeded random positions, as (m, n, plies, count, seed), whose results must
# never lose a certificate as the budget grows.
MONOTONE_BUDGETS = (1, 3, 10, 30, 100, 300, 1000, 5000)
MONOTONE_POSITIONS = ((4, 4, 2, 10, 5), (5, 4, 4, 20, 8), (5, 4, 6, 20, 8), (5, 5, 12, 10, 9))


def board_of(name: str) -> str:
    return name if "\n" in name else load_fixture(f"{name}.board")


def embedding_lines(found) -> list[str]:
    return [
        f"{e.template.name} {e.cells} {[g.cells for g in e.groups]}\n"
        for e in found
    ]


def detect_digest(found) -> str:
    return hashlib.sha256("".join(embedding_lines(found)).encode()).hexdigest()[:16]


def cert_digest(cert: DrawCertificate | None) -> str | None:
    if cert is None:
        return None
    return hashlib.sha256(certificate_to_json(cert).encode()).hexdigest()[:16]


# The marker labels of each catalog template, written out to check that
# ConfigTemplate.markers, the union of the groups, finds them all.
TEMPLATE_LABELS = {
    "Triangle": "abcde",
    "Square": "abcdefg",
    "Triangle/Line": "abcdef",
    "Square/Line": "abcdefgh",
    "BiTriangle": "abcdefgh",
    "BiTriangleX": "abcdefg",
    "FlatStar": "abcdefgh",
    "BiTriangle/Line": "abcdefghi",
    "BiTriangle/BiLine": "abcdefghij",
    "BiTriangleX/Line": "abcdefgh",
    "FlatStar/Line": "abcdefgh",
    "TriTriangleX": "abcdefghij",
}


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
        results = {t.name: verify_abstract(t.matching) for t in catalog()}
        assert all(r.valid for r in results.values()), {
            name: r.violations for name, r in results.items() if not r.valid
        }

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            template_by_name("Pentagon")

    @pytest.mark.parametrize("name", ["CycleNLine(4x", "CycleN(5]", "cyclen(+5)", "CycleN(5)x", "CycleN()"])
    def test_malformed_cycle_name_raises(self, name):
        with pytest.raises(KeyError) as raised:
            template_by_name(name)
        assert raised.value.args == (f"unknown configuration {name!r}",)

    @pytest.mark.parametrize("name,size", [("cyclen(5)", 5), ("CYCLENLINE(03)", 3)])
    def test_cycle_name_in_any_case(self, name, size):
        make = cycle_line_template if "line" in name.lower() else cycle_template
        assert template_by_name(name) == make(size)

    def test_cycle_templates_are_built_once(self):
        # check_certificate looks a cycle template up per entry; a new one
        # would derive its automorphisms again.
        assert template_by_name("CycleN(7)") is template_by_name("cyclen(7)")
        assert template_by_name("CycleNLine(7)") is cycle_line_template(7)

    @pytest.mark.parametrize(
        "template,labels",
        [
            *((template_by_name(name), labels) for name, labels in TEMPLATE_LABELS.items()),
            *((cycle_template(n), string.ascii_lowercase[: 2 * n - 1]) for n in range(3, 14)),
            *((cycle_line_template(n), string.ascii_lowercase[: 2 * n]) for n in range(3, 14)),
        ],
        ids=lambda v: v.name if isinstance(v, configs.ConfigTemplate) else None,
    )
    def test_markers_are_the_labels_of_the_groups(self, template, labels):
        assert template.markers == set(labels)

    def test_catalog_derives_nothing(self):
        # Symmetries and coverings are derived on first use, not when a
        # template is built.  The cycle builders are cached, and another
        # test may already have used their templates, so build fresh ones.
        fresh = [cycle_template.__wrapped__(3), cycle_line_template.__wrapped__(4)]
        for t in [*configs._fixed_templates(), *fresh]:
            assert "matching" not in vars(t) and "automorphisms" not in vars(t), t.name

    def test_catalog_returns_the_same_templates(self):
        first, second = catalog(), catalog()
        assert first is not second and len(first) == 12
        assert all(a is b for a, b in zip(first, second))

    @staticmethod
    def brute_automorphisms(t) -> list[dict]:
        """Every label permutation keeping the groups and the main pair, in
        the order of their images in label order."""
        groups, main = set(t.groups), set(t.main_markers)
        out = []
        for image in itertools.permutations(t.labels):
            perm = dict(zip(t.labels, image))
            if {perm[x] for x in main} == main and {frozenset(map(perm.get, g)) for g in groups} == groups:
                out.append(perm)
        return out

    @pytest.mark.parametrize(
        "name",
        [*(n for n, (markers, *_) in CATALOG_METADATA.items() if markers <= 8), "CycleN(3)", "CycleN(4)", "CycleNLine(3)"],
    )
    def test_derived_symmetries_and_coverings(self, name):
        t = template_by_name(name)
        assert t.automorphisms == self.brute_automorphisms(t)
        generated = symmetry_closure(t.markers, t.matching.symmetry)
        assert sorted(map(sorted, map(dict.items, generated))) == sorted(map(sorted, map(dict.items, t.automorphisms)))
        # One covering per orbit of the markers, for its first label.
        orbits = {frozenset(perm[x] for perm in t.automorphisms) for x in t.labels}
        assert [c.black_move for c in t.matching.coverings] == sorted(min(o) for o in orbits)

    def test_symmetries_keep_the_main_pair(self):
        # Swapping a and c keeps this path's groups but moves its main pair.
        t = configs.ConfigTemplate("Path", (frozenset("ab"), frozenset("bc")), ("a", "b"))
        assert t.automorphisms == self.brute_automorphisms(t) == [{"a": "a", "b": "b", "c": "c"}]

    @pytest.mark.parametrize(
        "template",
        [make(n) for n in range(3, 14) for make in (cycle_template, cycle_line_template)],
        ids=lambda t: t.name,
    )
    def test_every_cycle_size_derives_its_matching(self, template):
        # The search maps labels group by group, so it finishes on every size
        # cycle_template accepts: the identity and the mirror that swaps the
        # main pair, and for CycleNLine(4), whose line group closes a second
        # 4-cycle through the main group, two more.
        assert len(template.automorphisms) == (4 if template.name == "CycleNLine(4)" else 2)
        assert verify_abstract(template.matching).valid

    def test_generators_of_the_former_hand_lists(self):
        # The symmetry lists these templates spelled out before they were derived.
        triangle = [{"a": "b", "b": "a", "d": "e", "e": "d"}]
        expected = {
            "Triangle": triangle,
            "Triangle/Line": triangle,
            "Square": [{"a": "b", "b": "a", "c": "d", "d": "c", "e": "f", "f": "e"}],
            "BiTriangle": [
                {"c": "f", "f": "c", "d": "g", "g": "d", "e": "h", "h": "e"},
                {"a": "b", "b": "a", "d": "e", "e": "d", "g": "h", "h": "g"},
            ],
        }
        for name, maps in expected.items():
            assert list(template_by_name(name).matching.symmetry) == maps, name


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
        assert len(found) == 5464
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
        seen, first = set(), []
        for e in found:
            t = e.template
            index = {label: i for i, label in enumerate(t.labels)}
            cls = (t.name, min(tuple(e.cells[index[p[x]]] for x in t.labels) for p in t.automorphisms))
            if cls not in seen:
                seen.add(cls)
                first.append(e)
        assert (detect_digest(first), len(first)) == CELLS_ONLY_DETECT_DIGESTS.get(name, DETECT_DIGESTS[name])


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

    @pytest.mark.parametrize("fig", ["fig8", "fig11"])
    def test_tables_cover_only_the_positions_seen(self, fig):
        # Tables over the whole 8x4 and 7x5 boards take seconds to build.
        pos = parse_position(load_fixture(f"{fig}.board"))
        templates = configs._fixed_templates()
        assert prove_draw(pos, templates) is not None
        live = live_groups(pos.spec, pos.white)
        regions = {(t.tables[pos.spec].groups, t.tables[pos.spec].empty) for t in templates if t.tables}
        assert regions == {(live, pos.empty)}

    def test_cycle_template_keeps_its_table(self):
        # A cycle template is built once per size, so its table, like a
        # catalog template's, serves every later call on the board.
        pos = parse_position(OTHER_5X4[1])
        cycle = template_by_name("CycleN(5)")
        first = embedding_lines(detect(pos, [cycle]))
        assert first
        for other in OTHER_5X4[::2]:
            detect(parse_position(other), [cycle])
        assert embedding_lines(detect(pos, [cycle])) == first
        assert template_by_name("CycleN(5)") is cycle
        assert pos.spec in cycle.tables


class TestProveDrawTables:
    """prove_draw searches the rows of the same placement tables, ordered by
    each table's rank, so its certificates must not depend on what was asked
    before either."""

    BOARDS = [*COLLAPSE_5X4, RESIDUAL_5X4]

    @staticmethod
    def results(pos, templates):
        return [cert_digest(prove_draw(pos, templates, max_attempts=b)) for b in (10, 100, 1000, 5000)]

    def fresh(self, pos):
        templates = configs._fixed_templates()
        assert all("tables" not in vars(t) for t in templates)
        return self.results(pos, templates)

    def test_some_board_is_proved(self):
        assert any(self.fresh(parse_position(board))[-1] for board in self.BOARDS)

    @pytest.mark.parametrize("board", BOARDS)
    def test_after_the_region_grew_on_the_same_board(self, board):
        pos = parse_position(board)
        templates = configs._fixed_templates()
        assert self.results(pos, templates) == self.fresh(pos)
        region = templates[0].tables[pos.spec]
        for other in [*OTHER_5X4, *COLLAPSE_5X4]:
            if other != board:
                prove_draw(parse_position(other), templates)
        assert templates[0].tables[pos.spec].empty != region.empty
        assert self.results(pos, templates) == self.fresh(pos)

    @pytest.mark.parametrize("board", BOARDS)
    def test_after_other_boards(self, board):
        pos = parse_position(board)
        templates = configs._fixed_templates()
        for other in OTHER_SPECS:
            prove_draw(parse_position(other), templates)
        assert self.results(pos, templates) == self.fresh(pos)

    @staticmethod
    def rows_by_rank_and_by_cells(spec, t, table):
        # A stable sort of every row of the table by its Embedding.cells.
        cells = [e.cells for e in configs._embeddings(spec, t, table, range(len(table.rank)))]
        by_cells = sorted(range(len(cells)), key=cells.__getitem__)
        return sorted(range(len(cells)), key=table.rank.__getitem__), by_cells

    @pytest.mark.parametrize("board", ["4 4 4 B\n....\n....\n....\n....\n", *OTHER_5X4])
    def test_rank_sorts_rows_by_cells(self, board):
        pos = parse_position(board)
        detect(pos)
        for t in catalog():
            by_rank, by_cells = self.rows_by_rank_and_by_cells(pos.spec, t, t.tables[pos.spec])
            assert by_rank == by_cells, t.name

    def test_rank_of_two_byte_rows(self):
        # A 17x16 board has 272 cells, so its rows hold two bytes per entry;
        # a region of the groups inside a 5x5 corner keeps them small, and
        # the corner's cells lie on both sides of the 256th in Cell order.
        spec = BoardSpec(17, 16, 5)
        corner = sum(1 << r * 17 + c for r in range(5) for c in range(12, 17))
        live = sum(1 << i for i, g in enumerate(group_masks(spec)) if not g & ~corner)
        for name in ("Triangle", "BiTriangle", "BiTriangle/Line"):
            t = template_by_name(name)
            table = configs._placement_table(spec, t, live, corner)
            assert table.rows.typecode == "H"
            by_rank, by_cells = self.rows_by_rank_and_by_cells(spec, t, table)
            assert by_rank == by_cells, name
            assert len(by_rank) > 1000

    def test_embeddings_only_for_the_certificate(self, monkeypatch):
        built = []

        def counted(template, *args):
            built.append(template.name)
            return embedding(template, *args)

        embedding = configs.Embedding
        monkeypatch.setattr(configs, "Embedding", counted)
        assert prove_draw(parse_position(COLLAPSE_5X4[0])) is None
        assert built == []
        for board, residual in (("4 4 4 B\n....\n....\n....\n....\n", False), (RESIDUAL_5X4, True)):
            cert = prove_draw(parse_position(board))
            assert bool(cert.residual.assignments) == residual
            assert built == [e.template_name for e in cert.entries]
            built.clear()


class TestKeptRows:
    """_kept_rows keeps, in table order, each row whose groups are live and
    whose markers are empty."""

    @staticmethod
    def reference(t, table, live, empty):
        """The kept rows, and how many of them place marker cells that are an
        image of an earlier kept row's under the template's symmetries (on
        other groups, as no two rows are images of each other)."""
        labels = sorted(t.markers)
        index = {label: i for i, label in enumerate(labels)}
        perms = symmetry_closure(t.markers, t.matching.symmetry)
        nm, width = len(labels), len(labels) + len(t.groups)
        seen, kept, repeats = set(), [], 0
        for o in range(0, len(table.rows), width):
            cells, groups = table.rows[o : o + nm], table.rows[o + nm : o + width]
            if all(live >> g & 1 for g in groups) and all(empty >> b & 1 for b in cells):
                kept.append(o // width)
                orbit = min(tuple(cells[index[p[label]]] for label in labels) for p in perms)
                repeats += orbit in seen
                seen.add(orbit)
        return kept, repeats

    @classmethod
    def check(cls, pos, templates):
        """Compare every template's kept rows with the reference; return the
        tables' row counts and the kept rows whose marker cells repeat."""
        live = live_groups(pos.spec, pos.white)
        counts, repeated = [], 0
        for t in templates:
            table, kept = configs._kept_rows(pos.spec, t, live, pos.empty)
            expected, repeats = cls.reference(t, table, live, pos.empty)
            assert list(kept) == expected, t.name
            counts.append(len(table.rows) // (len(t.markers) + len(t.groups)))
            repeated += repeats
        return counts, repeated

    @pytest.mark.parametrize(
        "board",
        ["4 4 4 B\n....\n....\n....\n....\n", *SEEDED_RESULTS, *OTHER_5X4],
    )
    def test_matches_reference(self, board):
        _, repeated = self.check(parse_position(board), configs._fixed_templates())
        if board in SEEDED_RESULTS and board.startswith("5"):
            assert repeated

    @pytest.mark.parametrize("fig", ["fig8", "fig11"])
    def test_keys_past_64_bits(self, fig):
        pos = parse_position(load_fixture(f"{fig}.board"))
        assert len(group_masks(pos.spec)) + pos.spec.m * pos.spec.n > 64
        self.check(pos, configs._fixed_templates())

    def test_region_grown_by_earlier_positions(self):
        templates = configs._fixed_templates()
        for other in OTHER_5X4:
            self.check(parse_position(other), templates)
        pos = parse_position(RESIDUAL_5X4)
        assert templates[0].tables[pos.spec].empty != pos.empty
        counts, _ = self.check(pos, templates)
        # Some table's rows do not fill the last byte of its alive bitset.
        assert any(n % 8 for n in counts)


# _placement_table(spec, template, live, empty) on each region below, for
# every catalog template and the two size-5 cycle templates: the first 16 hex
# digits of the SHA-256 over the SHA-256s of rows, keys, rank and columns
# (table_digest), and the row count.
TABLE_DIGESTS = {
    'empty4x4': {
        'Triangle': ('7090dba1d5e87b6f', 288),
        'Square': ('fb3ef25a606d73b3', 3104),
        'Triangle/Line': ('4e482ae8136dd965', 224),
        'Square/Line': ('179694c681d5c1da', 1264),
        'BiTriangle': ('6e0700a914cd40e8', 320),
        'BiTriangleX': ('826cb9efb1703142', 0),
        'FlatStar': ('2ad343ae0a1a3e47', 8),
        'BiTriangle/Line': ('876ee912cba3b082', 192),
        'BiTriangle/BiLine': ('3acdd50633718582', 64),
        'BiTriangleX/Line': ('826cb9efb1703142', 0),
        'FlatStar/Line': ('826cb9efb1703142', 0),
        'TriTriangleX': ('826cb9efb1703142', 0),
        'CycleN(5)': ('4a5c6fd5cfce72b6', 6880),
        'CycleNLine(5)': ('86453bc5d9e11256', 2496),
    },
    'empty5x4': {
        'Triangle': ('0a6e4ab59d4e316c', 1008),
        'Square': ('0e79389ab001acd4', 13032),
        'Triangle/Line': ('7746fcea5f52a650', 920),
        'Square/Line': ('adfca7d44ef76c82', 6272),
        'BiTriangle': ('d0fd4fc492c53654', 2720),
        'BiTriangleX': ('20e58d542098b829', 288),
        'FlatStar': ('e4b54b4b678de49d', 42),
        'BiTriangle/Line': ('2dd7f144517810e6', 2544),
        'BiTriangle/BiLine': ('e9145d0a902d6f9a', 860),
        'BiTriangleX/Line': ('1715e8720aa3e13a', 320),
        'FlatStar/Line': ('f751ac5192fa01bd', 0),
        'TriTriangleX': ('f751ac5192fa01bd', 0),
        'CycleN(5)': ('b7eab89921d3f9cf', 61344),
        'CycleNLine(5)': ('19d7d866b6051bb0', 29632),
    },
    'other5x4_0': {
        'Triangle': ('8faf129238f24ba2', 61),
        'Square': ('f7b0db029bab9117', 211),
        'Triangle/Line': ('b5d237f1d1419ae9', 9),
        'Square/Line': ('469a94c501389017', 11),
        'BiTriangle': ('9e17cfb73748613a', 48),
        'BiTriangleX': ('f751ac5192fa01bd', 0),
        'FlatStar': ('f751ac5192fa01bd', 0),
        'BiTriangle/Line': ('20c805f531687390', 20),
        'BiTriangle/BiLine': ('90e7913ebc7d8e01', 2),
        'BiTriangleX/Line': ('f751ac5192fa01bd', 0),
        'FlatStar/Line': ('f751ac5192fa01bd', 0),
        'TriTriangleX': ('f751ac5192fa01bd', 0),
        'CycleN(5)': ('4f7e89bc4e004c37', 352),
        'CycleNLine(5)': ('f751ac5192fa01bd', 0),
    },
    'other5x4_1': {
        'Triangle': ('434f1559d16ffd67', 316),
        'Square': ('58b5047a6de9fd9a', 1878),
        'Triangle/Line': ('1b4a541c16d7b842', 194),
        'Square/Line': ('94ae8548f9219e90', 366),
        'BiTriangle': ('2d1cf1258177ba1a', 120),
        'BiTriangleX': ('202fe77460ad9de5', 24),
        'FlatStar': ('8dff9e53d1aca3b5', 3),
        'BiTriangle/Line': ('31ef3dd5c2fc3086', 112),
        'BiTriangle/BiLine': ('5df343b5211fe9d1', 35),
        'BiTriangleX/Line': ('5b2226ec10e0cf55', 12),
        'FlatStar/Line': ('f751ac5192fa01bd', 0),
        'TriTriangleX': ('f751ac5192fa01bd', 0),
        'CycleN(5)': ('9498e24da04f79e6', 5756),
        'CycleNLine(5)': ('a58a7b190cee94ac', 1534),
    },
    'other5x4_2': {
        'Triangle': ('11cbe0b197f998ed', 464),
        'Square': ('8298de1beab80d1a', 4986),
        'Triangle/Line': ('e03e5e6f0944faa9', 366),
        'Square/Line': ('6e9d79c5f1d98a51', 2157),
        'BiTriangle': ('73907c06c726d833', 892),
        'BiTriangleX': ('4ca6782a8ad2af44', 100),
        'FlatStar': ('bbbe4299aaa29913', 13),
        'BiTriangle/Line': ('8774a738c1ce5303', 481),
        'BiTriangle/BiLine': ('6075d93e584e6b19', 113),
        'BiTriangleX/Line': ('7a4ce13fb0954491', 73),
        'FlatStar/Line': ('f751ac5192fa01bd', 0),
        'TriTriangleX': ('f751ac5192fa01bd', 0),
        'CycleN(5)': ('49107625cdd470d5', 12514),
        'CycleNLine(5)': ('8bee2b436b09e051', 4195),
    },
    'fig8': {
        'Triangle': ('490ca82506734299', 18),
        'Square': ('3c0d2a5e87202ce7', 24),
        'Triangle/Line': ('ab35d72b231b7816', 12),
        'Square/Line': ('075aa693cacf3717', 0),
        'BiTriangle': ('075aa693cacf3717', 0),
        'BiTriangleX': ('075aa693cacf3717', 0),
        'FlatStar': ('2a28bb6662734224', 1),
        'BiTriangle/Line': ('075aa693cacf3717', 0),
        'BiTriangle/BiLine': ('075aa693cacf3717', 0),
        'BiTriangleX/Line': ('075aa693cacf3717', 0),
        'FlatStar/Line': ('075aa693cacf3717', 0),
        'TriTriangleX': ('075aa693cacf3717', 0),
        'CycleN(5)': ('075aa693cacf3717', 0),
        'CycleNLine(5)': ('075aa693cacf3717', 0),
    },
    'fig11': {
        'Triangle': ('4cbfa604a02df28c', 10),
        'Square': ('1d1dbec5d201f970', 14),
        'Triangle/Line': ('e12f85b532cd131f', 2),
        'Square/Line': ('639b1e0facb91ba3', 0),
        'BiTriangle': ('036c9a78f641bf57', 3),
        'BiTriangleX': ('8e0ad5f25dd18758', 1),
        'FlatStar': ('639b1e0facb91ba3', 0),
        'BiTriangle/Line': ('639b1e0facb91ba3', 0),
        'BiTriangle/BiLine': ('639b1e0facb91ba3', 0),
        'BiTriangleX/Line': ('639b1e0facb91ba3', 0),
        'FlatStar/Line': ('639b1e0facb91ba3', 0),
        'TriTriangleX': ('1d6076a03ddc5c75', 1),
        'CycleN(5)': ('639b1e0facb91ba3', 0),
        'CycleNLine(5)': ('639b1e0facb91ba3', 0),
    },
    'corner17x16': {
        'Triangle': ('a89f2eefa5dcc3ff', 1296),
        'Square': ('f87b75ee091d6088', 26568),
        'Triangle/Line': ('b2328bdaf1982aa5', 1080),
        'Square/Line': ('e5431ace897c0fdb', 11856),
        'BiTriangle': ('74a34ba6058006d5', 3348),
        'BiTriangleX': ('e697857b91e1b6b4', 216),
        'FlatStar': ('d71c1d5ab120f6f0', 8),
        'BiTriangle/Line': ('8aff7a41795fc8c8', 2032),
        'BiTriangle/BiLine': ('edfc76f22f8794eb', 432),
        'BiTriangleX/Line': ('d2a6a53e94415971', 160),
        'FlatStar/Line': ('3adf90119522a86c', 0),
        'TriTriangleX': ('3adf90119522a86c', 0),
        'CycleN(5)': ('119015e21fe03320', 173856),
        'CycleNLine(5)': ('145390596b32c61f', 92976),
    },
}


def table_regions():
    """Each TABLE_DIGESTS region as (spec, live, empty): the whole 4x4 and 5x4
    boards, the OTHER_5X4 positions, fig8 (8x4), fig11 (7x5) and the 17x16
    corner of TestProveDrawTables.test_rank_of_two_byte_rows."""

    def of(pos):
        return pos.spec, live_groups(pos.spec, pos.white), pos.empty

    spec = BoardSpec(17, 16, 5)
    corner = sum(1 << r * 17 + c for r in range(5) for c in range(12, 17))
    live = sum(1 << i for i, g in enumerate(group_masks(spec)) if not g & ~corner)
    return {
        "empty4x4": of(empty_position(BoardSpec(4, 4, 4))),
        "empty5x4": of(empty_position(BoardSpec(5, 4, 4))),
        **{f"other5x4_{i}": of(parse_position(board)) for i, board in enumerate(OTHER_5X4)},
        "fig8": of(parse_position(load_fixture("fig8.board"))),
        "fig11": of(parse_position(load_fixture("fig11.board"))),
        "corner17x16": (spec, live, corner),
    }


def table_digest(table):
    def data(field):
        if isinstance(field, array):
            copy = array(field.typecode, field)
            if sys.byteorder == "big":
                copy.byteswap()
            return field.typecode.encode() + copy.tobytes()
        if isinstance(field, bytes):
            return field
        return b",".join(format(c, "x").encode() for c in field)

    h = hashlib.sha256()
    for field in (table.rows, table.keys, table.rank, table.columns):
        h.update(hashlib.sha256(data(field)).digest())
    return h.hexdigest()[:16]


class TestPlacementTableDigests:
    """Every field of every placement table is pinned, so a walk that drops
    or reorders a placement fails here even where _kept_rows would agree
    with a reference built from the table's own rows."""

    @pytest.mark.parametrize("region", TABLE_DIGESTS)
    def test_pinned_tables(self, region):
        spec, live, empty = table_regions()[region]
        for name, pinned in TABLE_DIGESTS[region].items():
            table = configs._placement_table(spec, template_by_name(name), live, empty)
            assert (table_digest(table), len(table.rank)) == pinned, name

    @pytest.mark.parametrize("region", TABLE_DIGESTS)
    def test_no_row_is_an_image_of_another(self, region):
        # Each row is one placement per symmetry class of its cells and
        # groups: no two rows have the same least image under the template's
        # automorphisms, a row's image reading its cells and groups through
        # the permuted labels.
        spec, live, empty = table_regions()[region]
        for name in TABLE_DIGESTS[region]:
            t = template_by_name(name)
            table = configs._placement_table(spec, t, live, empty)
            index = {x: i for i, x in enumerate(t.labels)}
            group_at = {g: i for i, g in enumerate(t.groups)}
            nm, width = t.num_markers, t.num_markers + t.num_groups
            images = []
            for p in t.automorphisms:
                picks = [index[p[x]] for x in t.labels]
                picks += [nm + group_at[frozenset(p[x] for x in g)] for g in t.groups]
                images.append(list(zip(*[table.rows[k::width] for k in picks])))
            assert len(set(map(min, *images))) == len(table.rank), name

    @pytest.mark.parametrize(
        "template",
        [*catalog(), *(make(n) for n in range(3, 14) for make in (cycle_template, cycle_line_template))],
        ids=lambda t: t.name,
    )
    def test_only_the_identity_fixes_every_group(self, template):
        # So a symmetry that maps a row onto another moves some group, and
        # the walk's skip of all but the least assignment of each class
        # leaves no two rows images of each other.  A label permutation maps
        # every group to itself exactly when it keeps each label's set of
        # groups, so only the identity does when no two labels share that
        # set.  This reads the groups, so it does not rest on the
        # automorphism search.
        holding = [frozenset(g for g in template.groups if x in g) for x in template.labels]
        assert len(set(holding)) == len(holding)


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

    @pytest.mark.parametrize("templates", sorted(TEMPLATE_LISTS))
    def test_template_list_results(self, templates):
        extra = {"residual5x4": RESIDUAL_5X4, "ties4x4": TIES_4X4}
        got = {}
        for name in TEMPLATE_LIST_RESULTS[templates]:
            pos = parse_position(extra.get(name) or board_of(name))
            got[name] = [
                cert_digest(prove_draw(pos, TEMPLATE_LISTS[templates](), max_attempts=b))
                for b in (10, 100, 5000)
            ]
        assert got == TEMPLATE_LIST_RESULTS[templates]

    @pytest.mark.parametrize("board", sorted(DEEP_BUDGET_RESULTS))
    def test_deep_budget_results(self, board):
        pos = parse_position(board)
        got = [cert_digest(prove_draw(pos, max_attempts=b)) for b in (100, 300, 1000, 5000)]
        assert got == DEEP_BUDGET_RESULTS[board]

    @pytest.mark.parametrize("board", sorted(SEEDED_RESULTS))
    def test_seeded_results(self, board):
        pos = parse_position(board)
        got = [cert_digest(prove_draw(pos, max_attempts=b)) for b in (10, 100, 5000)]
        assert got == SEEDED_RESULTS[board]

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
        # The bound must come before the root pairing and the placement rows.
        def fail(*args, **kwargs):
            raise AssertionError("the marker budget should refute this position first")

        monkeypatch.setattr(configs, "_kept_rows", fail)
        monkeypatch.setattr(configs, "smallest_pairing", fail)
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
            ("embedding 0 (Square)", "markers and groups are no placement of the template"),
        )

    @pytest.mark.parametrize("fig", ["empty4x4", *sorted(FIXTURE_TEMPLATES)])
    def test_misnamed_bundled_certificates_rejected(self, fig):
        cert = certificate_from_json(load_fixture(f"{fig}.cert"))
        for i, entry in enumerate(cert.entries):
            for name in CATALOG_METADATA:
                if name != entry.template_name:
                    entries = list(cert.entries)
                    entries[i] = CertEntry(name, entry.matching)
                    result = check_certificate(DrawCertificate(cert.position, tuple(entries), cert.residual))
                    loc = f"embedding {i} ({name})"
                    expected = [(loc, "markers and groups are no placement of the template")]
                    # The named template's automorphisms also bound what the symmetry maps generate.
                    bound = len(template_by_name(name).automorphisms)
                    if len(symmetry_closure(entry.matching.markers, entry.matching.symmetry)) > bound:
                        expected.append((f"{loc}/matching set/symmetry", f"symmetry maps generate more than {bound} permutations"))
                    assert result.violations == tuple(expected)

    @pytest.mark.parametrize("fig", ["empty4x4", *sorted(FIXTURE_TEMPLATES)])
    def test_entry_listing_every_covering_is_valid(self, fig):
        # Entries that list a covering for every marker, as entries did before
        # the templates' coverings were derived, still check.
        cert = certificate_from_json(load_fixture(f"{fig}.cert"))
        entries = []
        for entry in cert.entries:
            ms = entry.matching
            chosen, errors = expand_coverings(ms, cell_name)
            assert not errors and set(chosen) == ms.markers
            coverings = tuple(chosen[c] for c in sorted(chosen, key=cell_key))
            entries.append(CertEntry(entry.template_name, MatchingSet(ms.markers, ms.groups, coverings, ms.symmetry)))
        longer = certificate_to_json(DrawCertificate(cert.position, tuple(entries), cert.residual))
        assert check_certificate(certificate_from_json(longer)).valid

    def test_non_board_group_reported_once(self):
        cert = certificate_from_json(load_fixture("fig1.cert"))
        ms = cert.entries[0].matching
        bad = MatchingSet(ms.markers, (("a",),) + ms.groups[1:], ms.coverings, ms.symmetry)
        result = check_certificate(
            DrawCertificate(cert.position, (CertEntry("Triangle", bad),), cert.residual)
        )
        assert [v for v in result.violations if "not a board group" in v[1]] == [
            ("embedding 0 (Triangle)/matching set", "group ('a',) is not a board group")
        ]

    def test_unknown_template_name_is_a_violation(self):
        cert = certificate_from_json(load_fixture("fig1.cert"))
        renamed = CertEntry("Pentagon", cert.entries[0].matching)
        result = check_certificate(DrawCertificate(cert.position, (renamed,), cert.residual))
        assert result.violations == (("embedding 0 (Pentagon)", "not a catalog template name"),)

    @pytest.mark.parametrize("fig", sorted(FIXTURE_TEMPLATES))
    def test_bundled_fixture_certificates_valid(self, fig):
        cert = certificate_from_json(load_fixture(f"{fig}.cert"))
        assert check_certificate(cert).valid

    @pytest.mark.parametrize("fig", ["empty4x4", *sorted(FIXTURE_TEMPLATES)])
    def test_one_closure_per_entry_within_the_automorphisms(self, fig, monkeypatch):
        # The symmetry bound is tight on every bundled entry, and a valid
        # certificate still builds each entry's closure once.
        cert = certificate_from_json(load_fixture(f"{fig}.cert"))
        for entry in cert.entries:
            ms = entry.matching
            closure = symmetry_closure(ms.markers, ms.symmetry)
            assert len(closure) == len(template_by_name(entry.template_name).automorphisms)
        calls = []
        closure = setmatch.symmetry_closure
        monkeypatch.setattr(setmatch, "symmetry_closure", lambda *args: calls.append(1) or closure(*args))
        assert check_certificate(cert).valid
        assert len(calls) == len(cert.entries)

    def test_symmetry_maps_generating_too_much_stop_early(self, monkeypatch):
        # A swap and an 8-cycle of a BiTriangle's 8 markers generate all
        # 40,320 permutations; the check stops past the template's 4
        # automorphisms, having built at most one permutation per map for
        # each of the 4 it expanded.
        cert = certificate_from_json(load_fixture("empty4x4.cert"))
        ms = cert.entries[0].matching
        m = sorted(ms.markers, key=cell_key)
        symmetry = ({m[0]: m[1], m[1]: m[0]}, dict(zip(m, m[1:] + m[:1])))
        crafted = CertEntry("BiTriangle", MatchingSet(ms.markers, ms.groups, ms.coverings, symmetry))
        built = []
        compose = setmatch._compose
        monkeypatch.setattr(setmatch, "_compose", lambda g, p: built.append(1) or compose(g, p))
        result = check_certificate(DrawCertificate(cert.position, (crafted,), cert.residual))
        assert result.violations[0] == (
            "embedding 0 (BiTriangle)/matching set/symmetry",
            "symmetry maps generate more than 4 permutations",
        )
        assert len(built) <= 4 * len(symmetry)

    def test_crafted_cycle_placement_is_refused(self):
        # CycleN(13)'s 25 markers on a2..a26, every group the column a1-a40
        # but the one holding the last two corners, which becomes row 1 and
        # holds no marker.  Trying every map of the first labels takes
        # exponential time; the matching refuses it at once.
        t = cycle_template(13)
        column = Group(tuple((0, r) for r in range(40)))
        row = Group(tuple((c, 0) for c in range(26)))
        groups = tuple(row if {"l", "m"} <= g else column for g in t.groups)
        ms = MatchingSet(frozenset((0, r) for r in range(1, 26)), groups, ())
        assert not configs._places(t, ms)
        pos = empty_position(BoardSpec(26, 40, 40))
        result = check_certificate(DrawCertificate(pos, (CertEntry(t.name, ms),), Pairing(())))
        assert result.violations[0] == ("embedding 0 (CycleN(13))", "markers and groups are no placement of the template")

    def test_places_agrees_with_backtracking(self):
        # Seeded placements of every catalog template on a 6x6 grid, some
        # with a group cut or grown: the matching must answer as the search
        # over every one-to-one map of labels to markers does, also where
        # every label has markers to take but no two labels may share one.
        rng = random.Random(31)
        cells = [(c, r) for r in range(6) for c in range(6)]
        answers = []
        clashes = 0
        for _ in range(600):
            t = rng.choice(catalog())
            image = dict(zip(t.labels, rng.sample(cells, t.num_markers)))
            groups = []
            for abstract in t.groups:
                g = {image[x] for x in abstract} | set(rng.sample(cells, rng.randrange(3)))
                if rng.random() < 0.1:
                    g.discard(image[rng.choice(sorted(abstract))])
                groups.append(tuple(g))
            ms = MatchingSet(frozenset(image.values()), tuple(groups), ())
            answer = configs._places(t, ms)
            assert answer == places_by_backtracking(t, ms), (t.name, ms)
            answers.append(answer)
            clashes += not answer and all(label_options(t, ms))
        assert 100 <= sum(answers) <= len(answers) - 100
        assert clashes >= 20


def label_options(template, ms) -> list[set]:
    """Per label, the markers in every group at the places of its template groups."""
    options = []
    for x in template.labels:
        cells = set(ms.markers)
        for abstract, g in zip(template.groups, ms.groups):
            if x in abstract:
                cells &= set(g)
        options.append(cells)
    return options


def places_by_backtracking(template, ms) -> bool:
    """_places by trying every one-to-one map of labels to markers in label order."""
    if (len(ms.markers), len(ms.groups)) != (template.num_markers, template.num_groups):
        return False
    options = label_options(template, ms)

    def bind(i: int, used: frozenset) -> bool:
        return i == len(options) or any(bind(i + 1, used | {c}) for c in options[i] - used)

    return bind(0, frozenset())


def test_cycle_templates_prove_on_longer_boards():
    # CycleN(5) only fits with k >= 4 on wider boards; validate abstractly here
    from kinarow.setmatch import exhaustive_marker_adversary, verify_abstract

    for n in (3, 4, 5):
        assert verify_abstract(cycle_template(n).matching).valid
        assert exhaustive_marker_adversary(cycle_template(n).matching) == []
