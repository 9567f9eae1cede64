"""The report writer against the standard library's indented writer."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualprec import cli
from dualprec._jsontext import dumps

EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308,
               -1e308, 1e-7, 1e16, 0.1]
EDGE_STRINGS = ['"', "\\", '\\"', "\x00\x1f\x7f", "\n\r\t\b\f", "é",
                " ", "\U0001f600", "%s", "%(x)s %%", "nan", "Infinity",
                "null"]

scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-10 ** 40, max_value=10 ** 40),
    st.floats(), st.sampled_from(EDGE_FLOATS),
    st.text(), st.sampled_from(EDGE_STRINGS))
keys = st.one_of(st.text(), st.sampled_from(EDGE_STRINGS))
# json.dumps turns int, float, bool and None keys into strings
any_keys = st.one_of(keys, st.integers(), st.floats(), st.booleans(),
                     st.none())


@st.composite
def record_lists(draw):
    """Lists of flat dicts, mostly of one key order, sometimes with a
    dict whose keys differ in set or order, or that holds a container."""
    names = draw(st.lists(keys, min_size=1, max_size=6, unique=True))
    rows = [{k: draw(scalars) for k in names}
            for _ in range(draw(st.integers(1, 6)))]
    i = draw(st.integers(0, len(rows) - 1))
    twist = draw(st.sampled_from(["none", "order", "set", "nested",
                                  "empty"]))
    if twist == "order":
        rows[i] = dict(reversed(list(rows[i].items())))
    elif twist == "set":
        rows[i][draw(keys)] = draw(scalars)
    elif twist == "nested":
        rows[i][names[0]] = draw(st.lists(scalars, max_size=3))
    elif twist == "empty":
        rows[i] = {}
    return rows


json_like = st.recursive(
    st.one_of(scalars, record_lists()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(any_keys, inner, max_size=5)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(json_like)
def test_dumps_is_json_dumps_indent_1(obj):
    assert dumps(obj) == json.dumps(obj, indent=1)


@pytest.mark.parametrize("obj", [
    [], {}, [[]], [{}], {"a": {}}, [[], {}], [{"a": 1}], [1, [2]],
    [[1], 2], [{"a": 1}, 3], [3, {"a": 1}], [{"a": 1}, {"a": [1]}],
    [{"x%": 1.5, "y": None}, {"x%": math.nan, "y": "%s"}],
    {1: 2, 1.5: 3, True: 4, None: 5, math.inf: 6, -math.inf: 7,
     math.nan: 8}])
def test_dumps_shapes(obj):
    assert dumps(obj) == json.dumps(obj, indent=1)


@pytest.mark.parametrize("obj", [object(), {(1, 2): 3}, [1, {1j: 2}],
                                 {"a": [set()]}])
def test_dumps_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=1)
    with pytest.raises(TypeError):
        dumps(obj)


@pytest.mark.parametrize("args", [
    ["solve", "{instance}", "--max-iters", "1"],
    ["solve", "{instance}"],
    ["verify", "--trials", "6", "--sigma2", "1e-300", "--seed-base", "233",
     "--dims", "3,2,2,2,2,2"],
    ["verify", "--trials", "4", "--negative-control"],
    ["design", "{instance}", "--path", "both"],
    ["bench", "--trials", "2", "--format", "json"],
], ids=["solve-capped", "solve", "verify", "verify-negative-control",
        "design", "bench"])
def test_dumps_of_each_command_payload(args, monkeypatch, tmp_path):
    # the objects each command hands its writer, before any round trip
    inst = tmp_path / "inst.json"
    assert cli.main(["gen", "--M", "4", "--K", "2", "--N", "4,4", "--L",
                     "2,2", "--seed", "7", "--out", str(inst)]) == 0
    payloads = []
    monkeypatch.setattr(cli, "_emit", lambda p, out: payloads.append(p))
    cli.main([str(inst) if a == "{instance}" else a for a in args])
    payload, = payloads
    assert dumps(payload) == json.dumps(payload, indent=1)
