import numpy as np
import pytest

from rnnlab.params import ParameterLayout, ParameterVector


def test_layout_covers_vector_disjointly():
    layout = ParameterLayout([("W", (3, 2)), ("b", (3,)), ("s", ())])
    assert layout.size == 6 + 3 + 1
    seen = np.zeros(layout.size, dtype=int)
    for b in layout.blocks:
        spec = layout.spec(b.name)
        seen[spec.offset : spec.offset + spec.size] += 1
    assert np.all(seen == 1)


def test_block_round_trip():
    layout = ParameterLayout([("W", (2, 2)), ("b", (2,))])
    pv = ParameterVector(layout)
    W = np.array([[1.0, -2.0], [3.5, 0.25]])
    pv2 = pv.with_block("W", W)
    assert np.array_equal(pv2.get("W"), W)
    assert np.array_equal(pv2.get("b"), np.zeros(2))
    # original untouched
    assert np.array_equal(pv.get("W"), np.zeros((2, 2)))


def test_row_major_flattening():
    layout = ParameterLayout([("W", (2, 3))])
    W = np.arange(6, dtype=float).reshape(2, 3)
    pv = ParameterVector(layout).with_block("W", W)
    assert np.array_equal(pv.values, np.arange(6, dtype=float))


def test_wrong_sizes_rejected():
    layout = ParameterLayout([("W", (2, 2))])
    with pytest.raises(ValueError):
        ParameterVector(layout, np.zeros(3))
    pv = ParameterVector(layout)
    with pytest.raises(ValueError):
        pv.with_block("W", np.zeros((3, 2)))


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        ParameterLayout([("W", (2,)), ("W", (3,))])


def test_theta_hash_sensitive_to_values_and_layout():
    layout = ParameterLayout([("a", (2,))])
    p1 = ParameterVector(layout, [1.0, 2.0])
    p2 = ParameterVector(layout, [1.0, 2.0])
    p3 = ParameterVector(layout, [1.0, 2.0 + 1e-16])
    assert p1.theta_hash() == p2.theta_hash()
    assert p1.theta_hash() == p3.theta_hash()  # same float64 bits
    p4 = ParameterVector(layout, [1.0, 2.5])
    assert p1.theta_hash() != p4.theta_hash()
    other = ParameterVector(ParameterLayout([("b", (2,))]), [1.0, 2.0])
    assert p1.theta_hash() != other.theta_hash()


def test_dict_round_trip_exact():
    layout = ParameterLayout([("W", (2, 2)), ("b", (2,))])
    rng = np.random.default_rng(3)
    pv = ParameterVector(layout, rng.standard_normal(6))
    back = ParameterVector.from_dict(layout, pv.to_dict())
    assert np.array_equal(back.values, pv.values)


def test_stacked_values_give_stacked_blocks():
    layout = ParameterLayout([("W", (2, 3)), ("b", (2,))])
    rows = np.arange(3 * layout.size, dtype=float).reshape(3, layout.size)
    pv = ParameterVector(layout, rows)
    for i in range(3):
        one = ParameterVector(layout, rows[i])
        for name in ("W", "b"):
            assert pv.get(name).shape == (3,) + layout.spec(name).shape
            assert np.array_equal(pv.get(name)[i], one.get(name))
    b = np.ones((3, 2))
    assert np.array_equal(pv.with_block("b", b).get("b"), b)
    with pytest.raises(ValueError):
        pv.with_block("b", np.ones(2))
    with pytest.raises(ValueError):
        ParameterVector(layout, np.zeros((3, layout.size + 1)))


def test_stacked_blocks_read_as_their_concatenation():
    layout = ParameterLayout([("A", (2, 3)), ("B", (2, 3)), ("C", (2, 3)),
                              ("v", (2,)), ("w", (2,))])
    rows = np.arange(4 * layout.size, dtype=float).reshape(4, layout.size)
    for values in (rows[1], rows):
        pv = ParameterVector(layout, values)
        for names, axis in ((("A", "B", "C"), -2), (("v", "w"), -1)):
            want = np.concatenate([pv.get(n) for n in names], axis=axis)
            assert np.array_equal(pv.get_stacked(names), want)
    assert layout.stacked(("A", "B", "C")).shape == (6, 3)
    assert layout.stacked(("A", "B", "C")) is layout.stacked(("A", "B", "C"))


def test_stacked_blocks_must_be_contiguous_and_alike():
    layout = ParameterLayout([("A", (2, 3)), ("B", (2, 3)), ("v", (2,)), ("C", (2, 3)),
                              ("D", (3, 2))])
    with pytest.raises(ValueError, match="does not follow"):
        layout.stacked(("A", "C"))
    with pytest.raises(ValueError, match="does not follow"):
        layout.stacked(("B", "A"))
    with pytest.raises(ValueError, match="differ in shape"):
        layout.stacked(("C", "D"))
