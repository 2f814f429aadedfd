"""The report writer: canonical text, refusals and an exact float round trip."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bcapprox import Bicomplex, jsonio


def test_keys_sorted_ascii_and_no_spaces():
    obj = {"b": [1, 2.5, None], "a": {"d": False, "c": True}, "é": "x y"}
    assert jsonio.dumps(obj) == '{"a":{"c":true,"d":false},"b":[1,2.5,null],"\\u00e9":"x y"}'


@pytest.mark.parametrize(
    "x, text",
    [(2.0, "2.0"), (-0.0, "-0.0"), (0.1, "0.1"), (1e16, "1e+16"), (5e-324, "5e-324")],
)
def test_float_written_as_repr(x, text):
    assert jsonio.dumps([x, 2]) == f"[{text},2]"


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_float_raises(x):
    with pytest.raises(ValueError):
        jsonio.dumps({"a": [1.0, x]})


def test_dump_path_is_dumps_and_a_newline(tmp_path):
    obj = {"z": [0.5, -0.0], "a": 3}
    jsonio.dump_path(obj, tmp_path / "r.json")
    assert (tmp_path / "r.json").read_text(encoding="ascii") == jsonio.dumps(obj) + "\n"


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 2.0, -1e16]
_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)
_trees = st.recursive(
    _floats,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=24,
)


def _leaf_pairs(a, b):
    """The (written, read back) leaves of two trees of the same shape."""
    if isinstance(a, dict):
        assert isinstance(b, dict) and sorted(a) == sorted(b)
        for key in a:
            yield from _leaf_pairs(a[key], b[key])
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b)
        for x, y in zip(a, b):
            yield from _leaf_pairs(x, y)
    else:
        yield a, b


@given(_trees)
def test_every_float_reads_back_as_the_same_float(tree):
    text = jsonio.dumps(tree)
    assert text.isascii()
    back = json.loads(text)
    for x, y in _leaf_pairs(tree, back):
        assert type(y) is float and y.hex() == x.hex()
    assert jsonio.dumps(back) == text


def test_bicomplex_keeps_the_sign_of_a_zero():
    z = Bicomplex(complex(1, -0.0), 2)
    back = Bicomplex.from_json(json.loads(jsonio.dumps(z.to_json())))
    assert math.copysign(1.0, back.beta1.imag) == -1.0
    assert back.beta1.imag.hex() == z.beta1.imag.hex() and back == z
