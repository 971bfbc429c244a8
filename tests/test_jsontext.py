import numpy as np
import pytest

from rnnlab.jsontext import FloatRows, write_json

from helpers import write_json_streamed

NAN, INF = float("nan"), float("inf")

DOCS = {
    "non-finite and extreme floats": {
        "floats": [NAN, INF, -INF, -0.0, 0.0, 1e-300, 5e-324, 1.7976931348623157e308, 0.1],
        "rows": [[NAN, -INF], [-0.0, 5e-324]],
        "nan": NAN, "inf": INF, "minus_zero": -0.0,
    },
    "ints, bools and None": {"int": 3, "negative": -7, "big": 10 ** 30, "true": True,
                             "false": False, "none": None, "ints": [1, 2, 3],
                             "bools": [True, False], "mixed": [1, 2.5, None, True]},
    "strings that need escaping": {'quote "q"': 'line\nbreak\ttab \\ é ☃ \x00',
                                   "": "", "list": ["a\"", " "]},
    "empty lists": {"a": [], "b": [[]], "c": [[], []], "d": {}, "e": [{}], "f": ()},
    "empty rows": {"inputs": [[] for _ in range(20000)]},
    "nested lists": [[[1.0, 2.0], [3.0]], [[]], [1.0, [2.0, [3.0, "x"]]], [[1.0], [2]],
                     [[1.0, 2.0], [], [3.0]], (1.5, (2.5, -0.0)), [{"k": [0.5]}]],
    "numpy scalars": {"flat": list(np.array([0.1, -0.0, NAN, 1e-300])),
                      "rows": [list(r) for r in np.arange(6.0).reshape(3, 2) / 7],
                      "scalar": np.float64(2.0 / 3.0)},
    "keys that are not strings": {"outer": {1: [1.0, 2.0], 2.5: "x", None: [[0.5]]}},
    "a bare list of floats": [0.5, 0.25, -1e-7],
    "a bare scalar": 1.25,
}


@pytest.mark.parametrize("doc", DOCS.values(), ids=DOCS)
def test_writer_writes_the_bytes_of_json_dump(doc, tmp_path):
    write_json(tmp_path / "fast.json", doc)
    write_json_streamed(tmp_path / "streamed.json", doc)
    assert (tmp_path / "fast.json").read_bytes() == (tmp_path / "streamed.json").read_bytes()


def test_float_rows_are_written_as_the_rows_they_format(tmp_path):
    table = np.random.default_rng(4).standard_normal((50, 3)) * 10.0 ** np.arange(-3, 3, 2)
    table[7, 1], table[8, 0], table[9, 2] = NAN, -INF, -0.0
    rows = table.tolist()
    doc = {"rows": FloatRows.of(rows), "one": FloatRows.of(rows[:1]),
           "none": FloatRows.of([[] for _ in range(4)]), "empty": FloatRows.of([])}
    write_json(tmp_path / "fast.json", {"nested": doc})
    write_json_streamed(tmp_path / "streamed.json", {"nested": {
        "rows": rows, "one": rows[:1], "none": [[] for _ in range(4)], "empty": []}})
    assert (tmp_path / "fast.json").read_bytes() == (tmp_path / "streamed.json").read_bytes()
    assert FloatRows.of(rows)[7] == ",".join(map(repr, rows[7]))


@pytest.mark.parametrize("value", [np.zeros(2), [np.float32(1.0)], {"a": {1, 2}}])
def test_values_json_cannot_write_are_type_errors(value, tmp_path):
    with pytest.raises(TypeError):
        write_json_streamed(tmp_path / "streamed.json", value)
    with pytest.raises(TypeError):
        write_json(tmp_path / "fast.json", value)
