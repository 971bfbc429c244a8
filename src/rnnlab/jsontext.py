"""Every artefact file the package writes: CSV, JSON and SVG, each in one write.

:func:`write_lines` is the one place a file is opened for writing.  A CSV
artefact (:func:`write_csv`) is its ``# key=value`` lines, a header and one
row per line; a JSON artefact (:func:`write_json`) holds the bytes of
``json.dumps(doc, indent=1)`` and a newline; an SVG plot is its elements,
one per line.  Floats are written as their shortest round-trip repr, and
each is formatted once: a table that goes to both a CSV and a JSON file
is formatted as :class:`FloatRows` and shared, since formatting, not
writing, is what a large artefact costs.

In a JSON document, a list of floats, or of such lists, becomes one
string: the floats' ``float.__repr__`` joined, laid out by
``str.replace`` and spelled as ``json`` spells NaN and the infinities.
All else goes to ``json.dumps``, whose indenting encoder is pure Python.
``float.__repr__``, not ``repr``: under numpy 2, ``repr`` of a numpy
float scalar is ``np.float64(...)``.
"""

import json


class FloatRows(list):
    """Float rows, each formatted once as ``",".join`` of its ``float.__repr__``."""

    @classmethod
    def of(cls, rows):
        return cls(",".join(map(float.__repr__, row)) for row in rows)


def write_lines(path, lines):
    """Write the lines, each ended by a newline, to ``path`` in one write."""
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_csv(path, meta, header, rows):
    """Write ``# k=v`` for each item of ``meta``, the ``header``, then the rows."""
    write_lines(path, [*(f"# {k}={v}" for k, v in (meta or {}).items()), header, *rows])


def write_json(path, doc):
    """Write ``json.dumps(doc, indent=1) + "\\n"`` to ``path`` in one write."""
    write_lines(path, [_encode(doc, "\n")])


def _encode(value, pad):
    """``value`` laid out as ``json.dumps(value, indent=1)`` nests it after ``pad``."""
    inner = pad + " "
    if isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        items = [f"{json.dumps(k)}: {_encode(v, inner)}" for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if not isinstance(value, (list, tuple)) or not value:
        return json.dumps(value, indent=1).replace("\n", pad)
    try:
        if not isinstance(value, FloatRows):
            if not all(isinstance(row, (list, tuple)) for row in value):
                return _floats(",".join(map(float.__repr__, value)), pad)
            value = FloatRows.of(value)
    except TypeError:  # an item that is not a float
        items = [_encode(v, inner) for v in value]
    else:
        if all(value):  # all rows in one pass: ";" is in no float repr
            row_break = f"{inner}],{inner}[{inner} "
            items = [_floats(";".join(value), inner).replace(";", row_break)]
        else:
            items = [_floats(row, inner) for row in value]
    return "[" + inner + ("," + inner).join(items) + pad + "]"


def _floats(joined, pad):
    """The array of the floats whose reprs ``joined`` holds, nested after ``pad``."""
    if not joined:
        return "[]"
    text = "[" + pad + " " + joined.replace(",", "," + pad + " ") + pad + "]"
    # a finite float's repr holds no "n" and no "i"
    return text.replace("nan", "NaN").replace("inf", "Infinity")
