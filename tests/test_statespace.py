import warnings

import numpy as np
import pytest

from rnnlab import statespace
from rnnlab.cells import chaotic_reference_cell, make_cell
from rnnlab.errors import NonFiniteState
from rnnlab.statespace import (
    Region,
    Trajectory,
    argmax_onehot_feedback,
    estimate_lipschitz_f,
    find_fixed_points,
    lyapunov_exponent,
    rollout,
    simulate,
)

from helpers import (
    DrivenScalar,
    FeedthroughMap,
    FixedScalarLinear,
    LogisticMap,
    RotationMap,
    ScalarLinear,
    TanhMap,
    jacobian_lyapunov_exponent,
    rollout_by_step,
    trajectory_csv_by_element,
    trajectory_json_streamed,
)

X0_REF = np.array([0.5, 0.5, 0.5, 0.5])


def test_simulate_geometric_decay():
    traj = simulate(ScalarLinear(0.5), np.array([1.0]), np.zeros((3, 0)))
    assert np.allclose(traj.states[:, 0], [1.0, 0.5, 0.25], atol=0, rtol=0)
    assert np.array_equal(traj.outputs, traj.states)


def test_simulate_step_consistency_bitwise():
    cell = chaotic_reference_cell()
    traj = simulate(cell, X0_REF, np.zeros((50, 0)))
    for t in range(len(traj) - 1):
        again = cell.step(traj.states[t], traj.inputs[t])
        assert np.array_equal(again, traj.states[t + 1])


def test_simulate_chaotic_reference_non_repeating():
    cell = chaotic_reference_cell()
    traj = simulate(cell, X0_REF, np.zeros((200, 0)))
    tail = np.round(traj.outputs[100:, 0] / 1e-6).astype(np.int64)
    assert len(np.unique(tail)) > 50


def test_simulate_scaled_weights_reach_fixed_point():
    cell = chaotic_reference_cell()
    small = cell.with_params(0.1 * cell.params.values)
    traj = simulate(small, X0_REF, np.zeros((200, 0)))
    assert np.linalg.norm(traj.states[-1] - traj.states[-2]) < 1e-9


def test_simulate_divergence_raises_with_step():
    diverging = ScalarLinear(10.0)
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteState) as err:
            simulate(diverging, np.array([1e300]), np.zeros((20, 0)))
    assert 0 < err.value.step < 20


def test_closed_loop_identity_holds_state():
    model = FeedthroughMap(dim=2)
    c = np.array([0.3, -0.7])
    run = rollout(model, c, c, horizon=10, feedback=lambda y: y)
    assert np.allclose(run.states, c, atol=0, rtol=0)
    assert np.allclose(run.outputs, c, atol=0, rtol=0)


def test_closed_loop_argmax_feedback_is_one_hot():
    from rnnlab.statespace import argmax_onehot_feedback

    cell = chaotic_reference_cell()

    # wire a 4-input toy: feed the one-hot back into a map that ignores it
    class FourOut(FeedthroughMap):
        pass

    model = FourOut(dim=4)
    fb = argmax_onehot_feedback(4)
    run = rollout(model, np.array([0.1, 0.9, 0.2, 0.0]), np.zeros(4), horizon=6,
                  feedback=fb)
    for t in range(1, len(run.inputs)):
        row = run.inputs[t]
        assert row.sum() == 1.0 and set(np.unique(row)) <= {0.0, 1.0}


def test_rollout_of_one_state_is_simulate():
    cell = chaotic_reference_cell()
    run = rollout(cell, X0_REF, np.zeros((50, 0)))
    traj = simulate(cell, X0_REF, np.zeros((50, 0)))
    assert np.array_equal(run.states, traj.states)
    assert np.array_equal(run.outputs, traj.outputs)
    assert run.diverged_at == -1 and run.error() is None


def test_rollout_records_each_row_and_stops_when_all_diverged():
    model = FixedScalarLinear(np.array([[10.0], [1e3], [0.5]]))
    x0 = np.array([[1e300], [1e300], [1.0]])
    run = rollout(model, x0, np.zeros((40, 0)))
    assert run.diverged_at.tolist() == [9, 3, -1]
    assert run.diverged_what.tolist() == ["state", "state", ""]
    assert str(run.error(1)) == "non-finite state at step 3"
    assert np.array_equal(run.states[:, 2, 0], 0.5 ** np.arange(40))

    both = rollout(FixedScalarLinear(np.array([[10.0], [1e3]])), x0[:2],
                   np.zeros((40, 0)))
    assert both.diverged_at.tolist() == [9, 3]
    assert np.isnan(both.states[9:]).all()   # never written: the loop stopped


def test_rollout_keeps_the_row_axis_of_per_row_inputs_without_input_dims():
    x0 = np.array([[1.0], [2.0], [-1.0]])
    run = rollout(ScalarLinear(0.5), x0, np.zeros((6, 3, 0)))
    assert run.inputs.shape == (6, 3, 0)
    assert run.outputs.shape == (6, 3, 1)
    assert np.array_equal(run.states[:, :, 0], 0.5 ** np.arange(6)[:, None] * x0[:, 0])


def test_rollout_with_per_row_inputs_steps_each_row_on_its_own():
    model = DrivenScalar(0.7, a=0.9)
    inputs = np.random.default_rng(0).standard_normal((8, 2, 1))
    x0 = np.array([[0.3], [-0.2]])
    run = rollout(model, x0, inputs)
    for b in range(2):
        one = simulate(model, x0[b], inputs[:, b])
        assert np.array_equal(run.states[:, b], one.states)
        assert np.array_equal(run.outputs[:, b], one.outputs)


def test_closed_loop_rows_report_a_non_finite_input():
    model = FeedthroughMap(dim=1)
    feedback = lambda y: 1e200 * y   # row 0 overflows at once, row 1 by step 3
    x0 = np.array([[1e110], [1e-210]])
    run = rollout(model, x0, np.zeros(1), horizon=3, feedback=feedback)
    assert run.diverged_at.tolist() == [1, -1]
    assert run.diverged_what.tolist() == ["input", ""]
    err = rollout(model, x0[0], np.zeros(1), 3, feedback).error()
    assert (err.step, err.what) == (1, "input")
    one = rollout(model, x0[1], np.zeros(1), 3, feedback)
    assert np.array_equal(run.outputs[:, 1], one.outputs)
    assert np.array_equal(run.inputs[:, 1], one.inputs)


def _overflowing_readout(b_out):
    """An LSTM whose linear readout 1e308 h_0 + b_out overflows over finite
    states, one row per bias, driven by a sine."""
    cell = make_cell("lstm", 2, n_input=1, readout="linear", n_output=1, init_seed=3)
    params = cell.params.with_block("W_out", np.array([[1e308, 0.0]]))
    rows = [params.with_block("b_out", np.array([b])).values for b in b_out]
    sine = 3.0 * np.sin(np.linspace(0.0, 20.0, 100))[:, None]
    return cell.with_params(np.array(rows)), sine


def _rollout_cases():
    ref = chaotic_reference_cell()
    readout = make_cell("lstm", 2, n_input=1, readout="linear", n_output=3, init_seed=3)
    sine = np.sin(np.linspace(0.0, 30.0, 1000))[:, None]
    # 10 x from 1e300, 1e3 x from 1e300, 10 x from 1e277 and from 1e269: the
    # states overflow at steps 9, 3, 32 and 40, within the first block, on the
    # second block's first step and inside it
    scalar = FixedScalarLinear(np.array([[10.0], [1e3], [10.0], [10.0]]))
    x_scalar = np.array([[1e300], [1e300], [1e277], [1e269]])
    feed = FeedthroughMap(dim=1)
    overflow = lambda y: 1e200 * y
    yield "reference", (ref, X0_REF, np.zeros((1000, 0))), {}
    yield "linear-readout", (readout, np.array([0.5, -0.25, 0.1, 3.0]), sine), {}
    yield "linear-readout-rows", (readout, np.array([[0.5, -0.25, 0.1, 3.0], [0.0] * 4]),
                                  np.stack([sine, -sine], axis=1)), {}
    yield "scalar-rows", (scalar, x_scalar, np.zeros((50, 0))), {}
    yield "scalar-rows-one-finite", (FixedScalarLinear(np.array([[10.0], [0.5]])),
                                     np.array([[1e269], [1.0]]), np.zeros((50, 0))), {}
    yield "scalar-one-row", (FixedScalarLinear(10.0), np.array([1e277]),
                             np.zeros((70, 0))), {}
    model, u = _overflowing_readout([1.79e308, 1.71e308, 1.75e308])
    yield "readout-overflow", (model.with_params(model.params.values[:2]),
                               np.zeros((2, 4)), u), {}
    yield "readout-overflow-one-row", (model.with_params(model.params.values[2]),
                                       np.zeros(4), u), {}
    yield "nan-x0", (ref, np.array([np.nan, 0.5, 0.5, 0.5]), np.zeros((50, 0))), {}
    yield "nan-c0", (ref, np.array([0.5, 0.5, np.nan, 0.5]), np.zeros((50, 0))), {}
    yield "no-states", (scalar, x_scalar, np.zeros((50, 0))), {"keep_states": False}
    yield "no-states-reference", (ref, X0_REF, np.zeros((300, 0))), {"keep_states": False}
    yield "feedback-identity", (feed, np.array([0.3]), np.array([0.3]), 10), {
        "feedback": lambda y: y}
    yield "feedback-overflow", (feed, np.array([[1e110], [1e-210]]), np.zeros(1), 3), {
        "feedback": overflow}
    yield "feedback-overflow-one-row", (feed, np.array([1e110]), np.zeros(1), 3), {
        "feedback": overflow}
    symbols = make_cell("lstm", 3, n_input=2, readout="linear", n_output=2, init_seed=1)
    yield "feedback-argmax", (symbols, np.full((3, 6), 0.5) * [[1], [-1], [2]], np.eye(2)[0],
                              200), {"feedback": argmax_onehot_feedback(2)}


ROLLOUT_CASES = list(_rollout_cases())


@pytest.mark.parametrize("args,kwargs", [c[1:] for c in ROLLOUT_CASES],
                         ids=[c[0] for c in ROLLOUT_CASES])
def test_rollout_is_the_per_step_loop_bit_for_bit(args, kwargs):
    got, want = rollout(*args, **kwargs), rollout_by_step(*args, **kwargs)
    for name in ("states", "outputs", "inputs", "diverged_at"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None
        else:
            assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), name
    assert got.diverged_what.dtype == want.diverged_what.dtype == object
    assert got.diverged_what.tolist() == want.diverged_what.tolist()
    if want.kept is None:
        assert got.kept is None
    else:
        assert len(got.kept) == len(want.kept)
        for a, b in zip(got.kept, want.kept):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()


def test_rollout_cases_cover_each_divergence():
    runs = {name: rollout_by_step(*args, **kwargs) for name, args, kwargs in ROLLOUT_CASES}
    assert runs["scalar-rows"].diverged_at.tolist() == [9, 3, 32, 40]
    assert runs["scalar-rows-one-finite"].diverged_at.tolist() == [40, -1]
    assert runs["readout-overflow"].diverged_what.tolist() == ["output", "output"]
    assert runs["readout-overflow"].diverged_at.tolist() == [3, 6]
    assert runs["readout-overflow-one-row"].error().what == "output"
    assert np.isfinite(runs["readout-overflow-one-row"].states[:5]).all()
    assert (runs["nan-x0"].error().step, runs["nan-x0"].error().what) == (0, "output")
    assert (runs["nan-c0"].error().step, runs["nan-c0"].error().what) == (1, "state")
    assert runs["feedback-overflow"].diverged_what.tolist() == ["input", ""]
    assert runs["reference"].error() is None and runs["linear-readout"].error() is None


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------


def test_fixed_point_of_linear_contraction():
    fps = find_fixed_points(FixedScalarLinear(0.5), np.zeros(0),
                            seeds=[np.array([1.0]), np.array([-2.0])], tol=1e-12)
    assert len(fps) == 1
    fp = fps[0]
    assert abs(fp.x_star[0]) < 1e-10
    assert fp.stability == "stable"
    assert abs(fp.jacobian_spectral_radius - 0.5) < 1e-12


def test_tanh_map_three_fixed_points():
    # bisection oracle for the positive root of x = tanh(3x)
    lo, hi = 0.5, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.tanh(3 * mid) - mid > 0:
            lo = mid
        else:
            hi = mid
    x_star = 0.5 * (lo + hi)
    assert abs(x_star - 0.9949) < 1e-3

    fps = find_fixed_points(TanhMap(3.0), np.zeros(0),
                            seeds=[np.array([-1.0]), np.array([0.0]), np.array([1.0])],
                            tol=1e-12)
    assert len(fps) == 3
    got = sorted(fp.x_star[0] for fp in fps)
    assert abs(got[0] + x_star) < 1e-9
    assert abs(got[1]) < 1e-9
    assert abs(got[2] - x_star) < 1e-9
    by_val = {round(fp.x_star[0], 6): fp for fp in fps}
    assert by_val[0.0].stability == "unstable"
    assert by_val[round(x_star, 6)].stability == "stable"
    assert by_val[round(-x_star, 6)].stability == "stable"


def test_contractive_cell_unique_fixed_point():
    cell = chaotic_reference_cell()
    small = cell.with_params(0.05 * cell.params.values)
    region = Region(x_low=-np.ones(4), x_high=np.ones(4))
    lip = estimate_lipschitz_f(small, region, np.zeros(0), n_samples=200, rng_seed=1)
    assert lip < 1.0
    rng = np.random.default_rng(0)
    seeds = [rng.uniform(-1, 1, 4) for _ in range(8)]
    fps = find_fixed_points(small, np.zeros(0), seeds, tol=1e-11)
    assert len(fps) == 1
    assert fps[0].stability == "stable"


# ---------------------------------------------------------------------------
# Lipschitz estimation
# ---------------------------------------------------------------------------


def test_lipschitz_fixed_linear_is_abs_a():
    model = FixedScalarLinear(-0.8)
    region = Region(x_low=np.array([-3.0]), x_high=np.array([3.0]))
    est = estimate_lipschitz_f(model, region, np.zeros(0), n_samples=50, rng_seed=0)
    assert abs(est - 0.8) < 1e-12


def test_lipschitz_tanh_attained_at_origin():
    # dense-grid oracle over the joint (x, w) Jacobian norm at frozen w = 2
    xs = np.linspace(-2, 2, 20001)
    oracle = np.max(2.0 * (1.0 - np.tanh(2.0 * xs) ** 2))
    assert abs(oracle - 2.0) < 1e-6

    model = TanhMap(2.0)
    region = Region(x_low=np.array([-2.0]), x_high=np.array([2.0]))
    est = estimate_lipschitz_f(model, region, np.zeros(0), n_samples=4000, rng_seed=0)
    assert est <= 2.0 + 1e-12
    assert est > 1.95  # sampled lower bound approaches the supremum


def test_lipschitz_joint_theta_box_included():
    # theta is frozen: the input gain does not enter the state Jacobian
    model = DrivenScalar(1.0, a=0.5)
    region_x = Region(x_low=np.array([-1.0]), x_high=np.array([1.0]))
    u = np.array([1.0])
    only_a = estimate_lipschitz_f(model, region_x, u, n_samples=100, rng_seed=0)
    assert abs(only_a - 0.5) < 1e-12


def test_lipschitz_chaotic_attractor_exceeds_one():
    cell = chaotic_reference_cell()
    traj = simulate(cell, X0_REF, np.zeros((300, 0)))
    region = Region(x_low=traj.states.min(axis=0), x_high=traj.states.max(axis=0))
    est = estimate_lipschitz_f(cell, region, np.zeros(0), n_samples=300, rng_seed=3)
    assert est > 1.0


def test_lipschitz_empty_region_rejected():
    from rnnlab.errors import EmptyRegion

    model = FixedScalarLinear(0.5)
    with pytest.raises(EmptyRegion):
        estimate_lipschitz_f(
            model, Region(x_low=np.array([1.0]), x_high=np.array([-1.0])), np.zeros(0)
        )


# ---------------------------------------------------------------------------
# Lyapunov exponent
# ---------------------------------------------------------------------------


def test_lyapunov_linear_contraction():
    lam = lyapunov_exponent(FixedScalarLinear(0.5), np.array([1.0]), np.zeros(0),
                            burn_in=10, horizon=200)
    assert abs(lam - np.log(0.5)) < 1e-6


def test_lyapunov_rotation_is_zero():
    lam = lyapunov_exponent(RotationMap(0.73), np.array([1.0, 0.0]), np.zeros(0),
                            burn_in=10, horizon=500)
    assert abs(lam) < 1e-6


def test_lyapunov_chaotic_reference_positive():
    cell = chaotic_reference_cell()
    model = cell.with_params(1.15 * cell.params.values)
    lam = lyapunov_exponent(model, X0_REF, np.zeros(0), burn_in=500, horizon=3000)
    assert lam > 0.01


def test_lyapunov_sign_matches_fixed_point_stability():
    # stable fixed point (rho < 1) <-> negative exponent from its basin
    for a in [0.3, 0.9]:
        model = FixedScalarLinear(a)
        fps = find_fixed_points(model, np.zeros(0), [np.array([0.5])], tol=1e-12)
        lam = lyapunov_exponent(model, np.array([0.5]), np.zeros(0),
                                burn_in=0, horizon=200)
        assert fps[0].jacobian_spectral_radius < 1
        assert lam < 0

    cell = chaotic_reference_cell()
    small = cell.with_params(0.2 * cell.params.values)
    fps = find_fixed_points(small, np.zeros(0), [X0_REF], tol=1e-11)
    assert fps[0].stability == "stable"
    lam = lyapunov_exponent(small, X0_REF, np.zeros(0), burn_in=100, horizon=400)
    assert lam < 0


@pytest.mark.parametrize("scale", [1.0, 1.5])
def test_lyapunov_by_tangents_matches_the_jacobian_oracle(scale):
    cell = chaotic_reference_cell()
    model = cell.with_params(scale * cell.params.values)
    lam = lyapunov_exponent(model, X0_REF, np.zeros(0), burn_in=500, horizon=3000)
    want = jacobian_lyapunov_exponent(model, X0_REF, np.zeros(0), burn_in=500, horizon=3000)
    assert abs(lam - want) <= 1e-12 * abs(want)


def test_lyapunov_builds_no_jacobians(monkeypatch):
    """One ``step_tangent`` per 512-step block of the horizon, batched; one per
    step above the batched state size."""
    from rnnlab.cells import LstmCell

    assert not hasattr(LstmCell, "jacobians")
    calls = {"step_tangent": 0}
    step_tangent = LstmCell.step_tangent

    def counted(self, *args):
        calls["step_tangent"] += 1
        return step_tangent(self, *args)

    monkeypatch.setattr(LstmCell, "step_tangent", counted)
    lyapunov_exponent(chaotic_reference_cell(), X0_REF, np.zeros(0), burn_in=10, horizon=1100)
    assert calls == {"step_tangent": 3}
    monkeypatch.setattr(statespace, "BATCHED_JACOBIAN_MAX_DIM", 0)
    calls.update(step_tangent=0)
    lyapunov_exponent(chaotic_reference_cell(), X0_REF, np.zeros(0), burn_in=10, horizon=200)
    assert calls == {"step_tangent": 200}


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "per-step"])
def test_lyapunov_closed_forms_through_the_default_tangent(batched, monkeypatch):
    if not batched:
        monkeypatch.setattr(statespace, "BATCHED_JACOBIAN_MAX_DIM", 0)
    # the period-2 orbit of r = 3.2 stretches by |f'(a) f'(b)| = 4 + 2r - r^2 per period
    lam = lyapunov_exponent(LogisticMap(3.2), np.array([0.3]), np.zeros(0),
                            burn_in=100, horizon=1000)
    assert abs(lam - 0.5 * np.log(0.16)) <= 1e-12
    # r = 4 is conjugate to the doubling map (from 0.3: 0.5 maps to the fixed point 0)
    lam = lyapunov_exponent(LogisticMap(4.0), np.array([0.3]), np.zeros(0),
                            burn_in=100, horizon=5000)
    assert abs(lam - np.log(2.0)) <= 1e-3
    assert lyapunov_exponent(FixedScalarLinear(0.0), np.array([1.0]), np.zeros(0),
                             burn_in=10, horizon=100) == -np.inf


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "per-step"])
@pytest.mark.parametrize("burn_in,horizon", [(0, 400), (400, 100)])
def test_lyapunov_of_a_diverging_orbit_raises_its_step_without_a_float_warning(
        batched, burn_in, horizon, monkeypatch):
    if not batched:
        monkeypatch.setattr(statespace, "BATCHED_JACOBIAN_MAX_DIM", 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteState) as err:   # 10^309 overflows
            lyapunov_exponent(FixedScalarLinear(10.0), np.array([1.0]), np.zeros(0),
                              burn_in=burn_in, horizon=horizon)
    assert (err.value.step, err.value.what) == (309, "state")


@pytest.mark.parametrize("model", [LogisticMap(4.0), TanhMap(2.5)], ids=["logistic", "tanh"])
def test_default_step_tangent_of_stacked_states_is_each_row_s(model):
    x = np.array([[0.1], [0.3], [0.7]])
    V = np.array([[[1.0, -2.0]], [[0.5, 0.0]], [[3.0, 1.0]]])
    states, AV = model.step_tangent(x, np.zeros(0), V)
    for i in range(3):
        state, av = model.step_tangent(x[i], np.zeros(0), V[i])
        assert np.array_equal(states[i], state) and np.array_equal(AV[i], av)
    if isinstance(model, LogisticMap):   # A = r (1 - 2x)
        A = model.step_tangent(x, np.zeros(0), np.eye(1))[1]
        assert np.allclose(A.ravel(), [3.2, 1.6, -1.6], rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_trajectory_csv_header_and_rows(tmp_path):
    cell = chaotic_reference_cell()
    traj = simulate(cell, X0_REF, np.zeros((5, 0)))
    path = tmp_path / "t.csv"
    traj.to_csv(path, meta={"seed": 0})
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "# seed=0"
    assert lines[1] == "t,x0,x1,x2,x3,y0,y1"
    assert len(lines) == 2 + 5
    # shortest-repr floats round-trip exactly
    row = lines[3].split(",")
    assert float(row[1]) == traj.states[1][0]


def test_trajectory_json_envelope(tmp_path):
    import json

    cell = chaotic_reference_cell()
    traj = simulate(cell, X0_REF, np.zeros((4, 0)))
    path = tmp_path / "t.json"
    traj.to_json(path, model_name=cell.name, theta_hash=cell.params.theta_hash(),
                 meta={"seed": 7})
    doc = json.loads(path.read_text())
    assert doc["model"] == "lstm"
    assert doc["seed"] == 7
    assert list(doc)[:5] == ["format_version", "model", "theta_hash", "seed", "t0"]
    assert doc["t0"] == 0
    assert doc["theta_hash"] == cell.params.theta_hash()
    assert np.array_equal(np.array(doc["states"]), traj.states)


def test_trajectory_files_match_the_element_by_element_writers(tmp_path):
    cell = make_cell("lstm", 2, n_input=1, readout="linear", n_output=3, init_seed=3)
    traj = simulate(cell, np.array([0.5, -0.25, 1e-300, 3.0]),
                    np.linspace(-1.0, 1.0, 40)[:, None])
    meta = {"spec_hash": "abc", "seed": 2}
    traj.to_csv(tmp_path / "a.csv", meta=meta)
    trajectory_csv_by_element(traj, tmp_path / "b.csv", meta=meta)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    args = dict(model_name=cell.name, theta_hash=cell.params.theta_hash(),
                meta={"seed": 2, "version": "x"})
    traj.to_json(tmp_path / "a.json", **args)
    trajectory_json_streamed(traj, tmp_path / "b.json", **args)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_trajectory_files_follow_changes_to_the_arrays(tmp_path):
    cell = make_cell("lstm", 2, n_input=1, readout="linear", n_output=1, init_seed=3)
    traj = simulate(cell, np.zeros(4), np.linspace(-1.0, 1.0, 10)[:, None])
    traj.to_csv(tmp_path / "before.csv")
    traj.states[0, 0] = -0.0   # equal to the 0.0 it replaces, but written differently
    traj.outputs = traj.outputs * 2.0
    for write, oracle, name in ((Trajectory.to_csv, trajectory_csv_by_element, "csv"),
                                (Trajectory.to_json, trajectory_json_streamed, "json")):
        write(traj, tmp_path / f"a.{name}")
        oracle(traj, tmp_path / f"b.{name}")
        assert (tmp_path / f"a.{name}").read_bytes() == (tmp_path / f"b.{name}").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "before.csv").read_bytes()
