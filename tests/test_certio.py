"""Certificate JSON decoding: malformed input gives a typed error, never a traceback."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from kinarow.certio import CertificateFormatError, certificate_from_json
from kinarow.cli import main
from kinarow.configs import check_certificate
from kinarow.setmatch import ProofResult
from tests.test_board import load_fixture

BUNDLED_CERTS = [
    "empty4x4", "fig1", "fig2", "fig3", "fig4", "fig5", "fig7",
    "fig8", "fig9a", "fig9b", "fig9c", "fig10", "fig11",
]
KEYS = [
    "board", "matching_sets", "template_name", "markers", "groups", "coverings",
    "symmetry", "black", "white", "remainder", "pairs", "nested",
    "residual_pairing", "group", "pair",
]
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 30),
    st.sampled_from(["", "a0", "a1", "b2", "c3", "d4", "e5", "z9", "4 4 4 B"]),
    st.text(max_size=3),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=8,
)


def mutate(obj, data) -> None:
    """Replace or delete one value of obj.

    Walk down from the top, choosing a key or index at each step and then
    whether to stop there, so that shallow fields such as the board are hit
    about as often as the many deep ones.
    """
    node = obj
    while node:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans(), label="descend"):
            node = child
        elif data.draw(st.booleans(), label="delete"):
            del node[key]
            return
        else:
            node[key] = data.draw(VALUES, label="value")
            return


@pytest.mark.parametrize(
    "board",
    ["", "a0", "4 4 4 B\n....\n....\n....\nXX..\n"],
    ids=["empty", "cell-name", "illegal-counts"],
)
def test_bad_board_is_format_error(board):
    obj = json.loads(load_fixture("fig1.cert"))
    obj["board"] = board
    with pytest.raises(CertificateFormatError, match="bad board"):
        certificate_from_json(json.dumps(obj))


def test_nested_remainder_is_ignored(tmp_path):
    """A remainder that names a matching set in place of pairs covers nothing."""
    obj = json.loads(load_fixture("fig1.cert"))
    ms = obj["matching_sets"][0]
    ms["coverings"][0]["remainder"] = {"nested": json.loads(json.dumps(ms))}
    text = json.dumps(obj)
    result = check_certificate(certificate_from_json(text))
    assert result.violations == (
        ("embedding 0 (Triangle)/matching set/covering a1",
         "group a1-b1-c1-d1 uncovered after a1->a4"),
        ("embedding 0 (Triangle)/matching set/covering a4",
         "group d1-c2-b3-a4 uncovered after a4->a1"),
    )
    path = tmp_path / "nested.cert"
    path.write_text(text)
    assert main(["verify-cert", "--cert", str(path)]) == 1


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BUNDLED_CERTS), st.data())
def test_mutated_certificates_decode_to_a_verdict_or_a_format_error(name, data):
    """Replace values, delete keys and delete list items of a bundled certificate."""
    obj = json.loads(load_fixture(f"{name}.cert"))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        mutate(obj, data)
    try:
        cert = certificate_from_json(json.dumps(obj))
    except CertificateFormatError:
        return
    assert isinstance(check_certificate(cert), ProofResult)
