import csv
import io
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from inclab.serialize import format_number, to_csv, to_json, to_jsonl


def test_json_deterministic_bytes():
    obj = {"b": 1.0, "a": [True, None, 0.1], "m": np.eye(2)}
    assert to_json(obj) == to_json(obj)


def test_json_preserves_insertion_order():
    text = to_json({"zeta": 1, "alpha": 2})
    assert text.index("zeta") < text.index("alpha")


def test_json_nonfinite_to_null():
    parsed = json.loads(to_json({"v": [float("nan"), float("inf"), -float("inf")]}))
    assert parsed["v"] == [None, None, None]


def test_json_ndarray_nested():
    parsed = json.loads(to_json({"m": np.arange(6, dtype=float).reshape(2, 3)}))
    assert parsed["m"] == [[0, 1, 2], [3, 4, 5]]


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_format_is_lossless(x):
    assert float(format_number(x)) == x


def test_jsonl_one_record_per_line():
    text = to_jsonl([{"x": 1}, {"x": 2, "y": "s"}])
    lines = text.splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0]) == {"x": 1}
    assert json.loads(lines[1]) == {"x": 2, "y": "s"}
    assert text.endswith("\n")


def test_csv_quoting():
    out = to_csv(["a", "b"], [["plain", 'quo"te'], ["with,comma", "line\nbreak"]])
    rows = out.split("\r\n") if "\r\n" in out else out.split("\n")
    assert rows[0] == "a,b"
    assert '"quo""te"' in rows[1]
    assert '"with,comma"' in out
    assert '"line\nbreak"' in out


def test_csv_numbers_use_same_float_format():
    out = to_csv(["x"], [[0.1]])
    assert format_number(0.1) in out


def test_format_number_integers_compact():
    assert format_number(2.0) == "2"
    assert not math.isfinite(float("nan")) and format_number(float("nan")) == "null"


# finite JSON values (a non-finite float prints as null, tested above): text
# with quotes, backslashes and control characters among the keys and
# strings, and nested empty lists and dicts
_text = st.text(st.one_of(st.sampled_from('"\\\n\t\r\x00\x08\x1f\x7f'), st.characters()))
_finite = st.floats(allow_nan=False, allow_infinity=False)
_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _finite | _text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_text, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(_values)
def test_json_round_trip(value):
    assert json.loads(to_json(value)) == value


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(_text, _values, max_size=4), min_size=1, max_size=4))
def test_jsonl_round_trip(records):
    # one line per record: a newline inside a string is escaped, while
    # U+2028 and other line separators that str.splitlines knows stay raw
    lines = to_jsonl(records).split("\n")
    assert lines.pop() == ""
    assert [json.loads(line) for line in lines] == records


def test_json_backspace_and_form_feed_use_their_short_escapes():
    text = "a\x08b\x0cc"
    out = to_json({text: text})
    assert out == '{\n  "a\\bb\\fc": "a\\bb\\fc"\n}'
    assert json.loads(out) == {text: text}


# no NUL: csv.reader refuses it before Python 3.11
_cell_text = st.text(st.one_of(st.sampled_from(',"\n\r'), st.characters(exclude_characters="\x00")))
_cells = st.one_of(_cell_text, st.just(""), st.booleans(), st.integers(), st.floats())


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_cell_text, min_size=1, max_size=4),
    st.lists(st.lists(_cells, min_size=1, max_size=4), max_size=4),
)
def test_csv_reader_reads_back_every_cell(header, rows):
    # numbers come back as format_number renders them; strings unchanged
    want = [header] + [[c if isinstance(c, str) else format_number(c) for c in row]
                       for row in rows]
    assert list(csv.reader(io.StringIO(to_csv(header, rows), newline=""))) == want
