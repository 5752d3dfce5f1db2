"""Mutated JSON documents and random edge-list text: the parsers raise only
the package's own errors."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orichrome import (
    FullTarget,
    graph_from_json,
    graph_to_json,
    parse_edge_list,
    random_oriented_graph,
)
from orichrome.errors import OrichromeError

from conftest import cyclic_k44_target

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=10,
)

VALID = {
    "graph": (graph_from_json, json.loads(graph_to_json(random_oriented_graph(5, 1)))),
    "target": (FullTarget.from_json, json.loads(cyclic_k44_target(2).to_json())),
}


@pytest.mark.parametrize("name", list(VALID))
@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_parser_raises_only_package_errors(name, data):
    parse, valid = VALID[name]
    value = data.draw(json_values, label="value")
    field = data.draw(st.sampled_from([None, *sorted(valid)]), label="field")
    document = value if field is None else {**valid, field: value}
    try:
        parse(json.dumps(document))
    except OrichromeError:
        pass


# edge-list text: lines of integer and garbage tokens, or arbitrary bytes
# read as latin-1; integers stay small so a header never asks for a huge graph
edge_tokens = (
    st.integers(min_value=-3, max_value=40).map(str)
    | st.sampled_from(["#", "-", "+7", "1e3", "0x10", "1_0", "٣", "10000001", "9" * 5000])
    | st.text(max_size=4)
)
edge_lines = st.lists(edge_tokens, max_size=4).map(" ".join)
edge_texts = st.lists(edge_lines, max_size=8).map("\n".join) | st.binary(max_size=200).map(
    lambda raw: raw.decode("latin-1")
)


@settings(deadline=None, max_examples=300)
@given(edge_texts)
def test_edge_list_parser_raises_only_package_errors(text):
    try:
        parse_edge_list(text)
    except OrichromeError:
        pass
