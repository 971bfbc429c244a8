import json
import math

import numpy as np
import pytest

from rnnlab.cells import (
    CHAOTIC_REFERENCE_STATE,
    LstmCell,
    OrthogonalRnnCell,
    StableLstmCell,
    VanillaRnnCell,
    cell_from_dict,
    cell_to_dict,
    chaotic_reference_cell,
    load_cell,
    make_cell,
    project_stable,
    realize_orthogonal,
)
from rnnlab.errors import ConfigError
from rnnlab.statespace import simulate

from helpers import cell_jacobians, fd_jacobians, rel_err, save_cell

GOLDEN = "tests/golden/chaotic_lstm_trajectory.csv"


# ---------------------------------------------------------------------------
# step semantics
# ---------------------------------------------------------------------------


def test_lstm_zero_weights_fixes_origin():
    cell = LstmCell(n_hidden=3, n_input=0, bias=False)
    out = cell.step(np.zeros(6), np.zeros(0))
    assert np.array_equal(out, np.zeros(6))


def test_lstm_gate_ranges():
    rng = np.random.default_rng(0)
    cell = make_cell("lstm", 4, n_input=2, bias=True, init_seed=1)
    h = rng.standard_normal(4)
    z = rng.standard_normal(2)
    i, f, a, o = cell._gates(h, z)
    for gate in (i, f, o):
        assert np.all((gate > 0) & (gate < 1))
    assert np.all((a > -1) & (a < 1))


def scalar_oracle_step(h, c):
    """Independent transcription of the gate equations, math module only."""
    W_hi = [[-1.0, 4.0], [-3.0, -2.0]]
    W_hf = [[-2.0, 6.0], [0.0, -6.0]]
    W_hg = [[-1.0, -6.0], [6.0, -9.0]]
    W_ho = [[4.0, 1.0], [-9.0, 7.0]]

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    def mv(W, v):
        return [W[0][0] * v[0] + W[0][1] * v[1], W[1][0] * v[0] + W[1][1] * v[1]]

    i = [sig(v) for v in mv(W_hi, h)]
    f = [sig(v) for v in mv(W_hf, h)]
    g = [math.tanh(v) for v in mv(W_hg, h)]
    o = [sig(v) for v in mv(W_ho, h)]
    c_new = [f[k] * c[k] + i[k] * g[k] for k in range(2)]
    h_new = [o[k] * math.tanh(c_new[k]) for k in range(2)]
    return h_new, c_new


def test_reference_first_step_matches_scalar_oracle():
    cell = chaotic_reference_cell()
    got = cell.step(CHAOTIC_REFERENCE_STATE, np.zeros(0))
    h1, c1 = scalar_oracle_step([0.5, 0.5], [0.5, 0.5])
    assert rel_err(got, np.array(h1 + c1)) < 1e-13


def test_reference_every_golden_transition_matches_oracle():
    rows = [
        line.split(",")
        for line in open(GOLDEN).read().strip().split("\n")[1:]
    ]
    states = np.array([[float(v) for v in r[1:5]] for r in rows])
    for t in range(len(states) - 1):
        h2, c2 = scalar_oracle_step(list(states[t][:2]), list(states[t][2:]))
        assert rel_err(states[t + 1], np.array(h2 + c2)) < 1e-13


def test_reference_trajectory_matches_golden_bitwise(tmp_path):
    cell = chaotic_reference_cell()
    traj = simulate(cell, CHAOTIC_REFERENCE_STATE, np.zeros((200, 0)))
    path = tmp_path / "fresh.csv"
    traj.to_csv(path)
    assert path.read_text() == open(GOLDEN).read()


def test_scaled_weights_reproduce_regimes():
    cell = chaotic_reference_cell()
    theta = cell.params.values
    # small s: single fixed point
    small = cell.with_params(0.1 * theta)
    traj = simulate(small, CHAOTIC_REFERENCE_STATE, np.zeros((200, 0)))
    assert np.linalg.norm(traj.states[-1] - traj.states[-2]) < 1e-9
    # s = 1: many distinct steady-state values
    traj = simulate(cell, CHAOTIC_REFERENCE_STATE, np.zeros((200, 0)))
    tail = np.round(traj.outputs[100:, 0] / 1e-6).astype(np.int64)
    assert len(np.unique(tail)) > 50


@pytest.mark.parametrize("kind", ["vanilla", "lstm", "slstm", "ornn"])
def test_stacked_step_and_output_equal_per_row_calls(kind):
    cell = make_cell(kind, 3, n_input=2, bias=True, readout="linear", n_output=2,
                     init_seed=4)
    rng = np.random.default_rng(9)
    thetas = cell.params.values + 0.2 * rng.standard_normal((5, cell.n_params))
    x = rng.standard_normal((5, cell.state_dim))
    stacked = cell.with_params(thetas)
    for z in (rng.standard_normal(2), rng.standard_normal((5, 2))):
        steps, outputs = stacked.step(x, z), stacked.output(x, z)
        for i in range(5):
            one = cell.with_params(thetas[i])
            z_i = z if z.ndim == 1 else z[i]
            assert np.allclose(steps[i], one.step(x[i], z_i), rtol=1e-13, atol=1e-15)
            assert np.allclose(outputs[i], one.output(x[i], z_i), rtol=1e-13, atol=1e-15)


def test_stacked_reference_cell_steps_bitwise_like_single_rows():
    cell = chaotic_reference_cell()
    scales = np.linspace(0.2, 1.6, 8)[:, None]
    stacked = cell.with_params(scales * cell.params.values)
    singles = [cell.with_params(s * cell.params.values) for s in scales[:, 0]]
    x = np.tile(CHAOTIC_REFERENCE_STATE, (len(singles), 1))
    xs = [CHAOTIC_REFERENCE_STATE] * len(singles)
    for _ in range(300):
        x = stacked.step(x, np.zeros(0))
        xs = [m.step(xi, np.zeros(0)) for m, xi in zip(singles, xs)]
        assert np.array_equal(x, np.array(xs))


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------


def test_vanilla_jacobian_at_origin_is_w():
    w = 0.7
    cell = VanillaRnnCell(n_hidden=3, n_input=0, bias=False)
    cell = cell.with_params(cell.params.with_block("W", w * np.eye(3)).values)
    A, B, C, F = cell_jacobians(cell, np.zeros(3), np.zeros(0))
    assert np.allclose(A, w * np.eye(3), atol=1e-14)


def test_lstm_zero_weight_jacobian_structure():
    cell = LstmCell(n_hidden=2, n_input=0, bias=False)
    A, B, C, F = cell_jacobians(cell, np.zeros(4), np.zeros(0))
    Af, Bf, Cf, Ff = fd_jacobians(cell, np.zeros(4), np.zeros(0))
    assert rel_err(A, Af) < 1e-6
    assert rel_err(B, Bf) < 1e-6
    # sigma(0) = 0.5 -> dc'/dc = 0.5 I; h' path gives 0.25 I
    assert np.allclose(A[2:, 2:], 0.5 * np.eye(2), atol=1e-14)
    assert np.allclose(A[:2, 2:], 0.25 * np.eye(2), atol=1e-14)


def test_orthogonal_state_jacobian_is_gain_times_w():
    cell = OrthogonalRnnCell(n_hidden=4, n_input=0, bias=False, init_seed=5)
    W = cell._W_mat
    h = np.array([0.3, -0.2, 0.1, 0.4])
    A, _, _, _ = cell_jacobians(cell, h, np.zeros(0))
    pre = W @ h
    expected = (1.0 - np.tanh(pre) ** 2)[:, None] * W
    assert np.allclose(A, expected, atol=1e-14)


@pytest.mark.parametrize("kind", ["vanilla", "lstm", "slstm", "ornn"])
def test_jacobians_match_finite_differences(kind):
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(20):
        cell = make_cell(kind, 4, n_input=2, bias=True, readout="linear",
                         n_output=3, init_seed=trial)
        cell = cell.with_params(
            cell.params.values + 0.3 * rng.standard_normal(cell.n_params)
        )
        x = rng.standard_normal(cell.state_dim)
        z = rng.standard_normal(cell.input_dim)
        for got, want in zip(cell_jacobians(cell, x, z), fd_jacobians(cell, x, z)):
            worst = max(worst, rel_err(got, want))
    assert worst < 1e-5


@pytest.mark.parametrize("kind", ["vanilla", "lstm", "ornn"])
def test_jacobians_without_inputs_or_bias(kind):
    rng = np.random.default_rng(2)
    cell = make_cell(kind, 3, n_input=0, bias=False, readout="identity", init_seed=4)
    x, z = rng.standard_normal(cell.state_dim), np.zeros(0)
    for got, want in zip(cell_jacobians(cell, x, z), fd_jacobians(cell, x, z)):
        assert rel_err(got, want) < 1e-6


@pytest.mark.parametrize("kind", ["vanilla", "lstm", "slstm", "ornn"])
@pytest.mark.parametrize("n_input, bias", [(2, True), (0, False)])
def test_step_tangent_is_the_step_and_the_jacobian_times_v(kind, n_input, bias):
    rng = np.random.default_rng(17)
    cell = make_cell(kind, 3, n_input=n_input, bias=bias, readout="identity", init_seed=6)
    thetas = cell.params.values + 0.3 * rng.standard_normal((3, cell.n_params))
    x = rng.standard_normal((3, cell.state_dim))
    z = rng.standard_normal((3, n_input))
    V = rng.standard_normal((3, cell.state_dim, 2))
    stacked_x, stacked_AV = cell.with_params(thetas).step_tangent(x, z, V)
    for i in range(3):
        one = cell.with_params(thetas[i])
        x_next, AV = one.step_tangent(x[i], z[i], V[i])
        assert np.array_equal(x_next, one.step(x[i], z[i]))
        assert rel_err(AV, fd_jacobians(one, x[i], z[i])[0] @ V[i]) < 1e-6
        assert np.allclose(stacked_x[i], x_next, rtol=1e-13, atol=1e-15)
        assert np.allclose(stacked_AV[i], AV, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("kind", ["vanilla", "lstm", "slstm", "ornn"])
@pytest.mark.parametrize("n_input, bias", [(1, True), (0, False)])
def test_step_tangent_of_stacked_states_with_one_shared_v_is_each_row_s(kind, n_input, bias):
    # bit for bit against V repeated per row; against single-row calls to
    # rounding, since the stacked step multiplies all rows in one product
    rng = np.random.default_rng(5)
    cell = make_cell(kind, 2, n_input=n_input, bias=bias, readout="identity", init_seed=3)
    x = rng.standard_normal((5, cell.state_dim))
    z = rng.standard_normal((5, n_input))
    for V in (np.eye(cell.state_dim), rng.standard_normal((cell.state_dim, 3))):
        states, AV = cell.step_tangent(x, z, V)
        assert AV.shape == (5,) + V.shape
        each = cell.step_tangent(x, z, np.broadcast_to(V, AV.shape))
        assert np.array_equal(states, each[0]) and np.array_equal(AV, each[1])
        for i in range(5):
            state, av = cell.step_tangent(x[i], z[i], V)
            assert np.allclose(states[i], state, rtol=1e-13, atol=1e-15)
            assert np.allclose(AV[i], av, rtol=1e-13, atol=1e-15)


# ---------------------------------------------------------------------------
# orthogonal parametrization
# ---------------------------------------------------------------------------


def test_realize_orthogonal_zero_gives_identity():
    assert np.array_equal(realize_orthogonal(np.zeros((3, 3))), np.eye(3))


def test_realize_orthogonal_2x2_rotation():
    theta = 0.41
    s_raw = np.zeros((2, 2))
    s_raw[1, 0] = theta
    W = realize_orthogonal(s_raw)
    expected = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    assert np.allclose(W, expected, atol=1e-14)


def test_realize_orthogonal_random_8x8():
    rng = np.random.default_rng(8)
    s_raw = rng.standard_normal((8, 8))
    W = realize_orthogonal(s_raw)
    assert np.abs(W.T @ W - np.eye(8)).max() < 1e-12
    assert abs(np.linalg.det(W) - 1.0) < 1e-10


@pytest.mark.parametrize("n", [2, 8, 32])
def test_realize_orthogonal_many_seeds(n):
    rng = np.random.default_rng(100 + n)
    worst = 0.0
    for _ in range(1000):
        s_raw = rng.uniform(-np.pi / n, np.pi / n, size=(n, n))
        W = realize_orthogonal(s_raw)
        worst = max(worst, np.abs(W.T @ W - np.eye(n)).max())
    assert worst < 1e-8


def test_orthogonality_preserved_under_any_update():
    cell = OrthogonalRnnCell(n_hidden=6, n_input=1, bias=True,
                             readout="linear", n_output=1, init_seed=0)
    rng = np.random.default_rng(1)
    for _ in range(10):
        cell = cell.with_params(cell.params.values + 0.5 * rng.standard_normal(cell.n_params))
        W = cell._W_mat
        assert np.abs(W.T @ W - np.eye(6)).max() < 1e-8
        eigs = np.linalg.eigvals(W)
        assert np.abs(np.abs(eigs) - 1.0).max() < 1e-8


# ---------------------------------------------------------------------------
# spectral norms and projection
# ---------------------------------------------------------------------------


def test_project_scales_overlarge_block():
    cell = StableLstmCell(n_hidden=2, n_input=0, bias=False, target_norm=0.97)
    cell = cell.with_params(cell.params.with_block("W_hi", 2.0 * np.eye(2)).values)
    out = project_stable(cell)
    assert np.allclose(out.params.get("W_hi"), 0.97 * np.eye(2), atol=1e-12)


def test_project_leaves_small_block_untouched():
    cell = StableLstmCell(n_hidden=2, n_input=0, bias=False, target_norm=0.97)
    W = 0.5 * np.eye(2)
    cell = cell.with_params(cell.params.with_block("W_hf", W).values)
    out = project_stable(cell)
    assert np.array_equal(out.params.get("W_hf"), W)


def test_project_idempotent_and_never_raises_singular_values():
    rng = np.random.default_rng(5)
    for trial in range(10):
        cell = StableLstmCell(n_hidden=5, n_input=2, bias=True,
                              readout="linear", n_output=1,
                              target_norm=0.97, init_seed=trial)
        cell = cell.with_params(cell.params.values * 2.0)
        before = {n: np.linalg.svd(cell.params.get(n), compute_uv=False)
                  for n in cell.projected_blocks}
        once = project_stable(cell)
        twice = project_stable(once)
        assert np.array_equal(once.params.values, twice.params.values)
        for n in cell.projected_blocks:
            after = np.linalg.svd(once.params.get(n), compute_uv=False)
            assert np.all(after <= before[n] + 1e-12)
            assert after[0] <= 0.97 + 1e-9


def test_projected_cell_is_contractive_on_state_box():
    # block norm <= target bounds the state Jacobian only up to gate factors;
    # over the full box [-1,1]^{2H} the margin needs target ~0.6 (at the
    # 0.97 default the corner states push the joint norm to ~1.2 even
    # though trajectories still collapse to one fixed point)
    from rnnlab.statespace import Region, estimate_lipschitz_f, find_fixed_points

    rng = np.random.default_rng(2)
    for trial in range(3):
        cell = StableLstmCell(n_hidden=4, n_input=0, bias=False,
                              target_norm=0.6, init_seed=trial)
        cell = cell.with_params(3.0 * rng.standard_normal(cell.n_params))
        cell = project_stable(cell)
        region = Region(x_low=-np.ones(8), x_high=np.ones(8))
        est = estimate_lipschitz_f(cell, region, np.zeros(0), n_samples=400, rng_seed=0)
        assert est < 1.0
        seeds = [rng.uniform(-1, 1, 8) for _ in range(5)]
        fps = find_fixed_points(cell, np.zeros(0), seeds, tol=1e-11)
        assert len(fps) == 1 and fps[0].stability == "stable"


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["vanilla", "lstm", "slstm", "ornn"])
def test_cell_json_round_trip(kind, tmp_path):
    cell = make_cell(kind, 3, n_input=2, bias=True, readout="linear",
                     n_output=2, init_seed=6)
    path = tmp_path / "cell.json"
    save_cell(cell, path)
    back = load_cell(path)
    assert type(back) is type(cell)
    assert np.array_equal(back.params.values, cell.params.values)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 1


@pytest.mark.parametrize("kind", ["vanilla", "lstm", "slstm", "ornn"])
def test_cell_file_keeps_its_key_order(kind, tmp_path):
    cell = make_cell(kind, 3, n_input=2, bias=True, readout="linear",
                     n_output=2, init_seed=6)
    path = tmp_path / "cell.json"
    save_cell(cell, path)
    keys = list(json.loads(path.read_text()))
    want = ["format_version", "kind", "n_hidden", "n_input", "bias", "readout",
            "n_output", "blocks"]
    if kind == "slstm":
        want += ["target_norm", "projected_blocks"]
    assert keys == want
    assert list(cell_to_dict(cell)) == want
    assert list(json.loads(path.read_text())["blocks"]) == [
        b.name for b in cell.params.layout.blocks]


def test_unknown_format_version_is_rejected():
    doc = cell_to_dict(make_cell("lstm", 2, init_seed=1))
    doc["format_version"] = 99
    with pytest.raises(ConfigError, match="format_version 99"):
        cell_from_dict(doc)


def test_shipped_reference_weights():
    cell = chaotic_reference_cell()
    assert isinstance(cell, LstmCell)
    assert cell.n_hidden == 2 and cell.n_input == 0 and not cell.bias
    assert np.array_equal(cell.params.get("W_hi"), [[-1.0, 4.0], [-3.0, -2.0]])
    assert np.array_equal(cell.params.get("W_hf"), [[-2.0, 6.0], [0.0, -6.0]])
    assert np.array_equal(cell.params.get("W_hg"), [[-1.0, -6.0], [6.0, -9.0]])
    assert np.array_equal(cell.params.get("W_ho"), [[4.0, 1.0], [-9.0, 7.0]])
