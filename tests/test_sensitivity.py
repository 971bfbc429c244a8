import warnings

import numpy as np
import pytest

from rnnlab.cells import make_cell
from rnnlab.errors import LengthMismatch, NonFiniteState
from rnnlab.sensitivity import (
    SIGMOID_CROSS_ENTROPY,
    SQUARED_ERROR,
    Sequence,
    cost,
    cost_and_gradient_reverse,
    gradient,
)

from helpers import (
    DrivenScalar,
    FixedScalarLinear,
    ScalarLinear,
    TanhMap,
    fd_gradient,
    forward_gradient,
    propagate_sensitivity,
    rel_err,
)


# ---------------------------------------------------------------------------
# loss functions
# ---------------------------------------------------------------------------


def test_squared_error_values_and_derivative():
    y = np.array([1.0, 0.0])
    yhat = np.array([0.0, 0.0])
    assert SQUARED_ERROR.value(yhat, y) == 1.0
    assert np.array_equal(SQUARED_ERROR.derivative(yhat, y), 2 * yhat - 2 * y)


def test_cross_entropy_matches_naive_form():
    rng = np.random.default_rng(0)
    for _ in range(100):
        yhat = rng.standard_normal(3) * 3
        y = rng.integers(0, 2, 3).astype(float)
        s = 1 / (1 + np.exp(-yhat))
        naive = -(y * np.log(s) + (1 - y) * np.log(1 - s)).sum()
        assert abs(SIGMOID_CROSS_ENTROPY.value(yhat, y) - naive) < 1e-10
        assert np.allclose(SIGMOID_CROSS_ENTROPY.derivative(yhat, y), s - y, atol=1e-12)


def test_cross_entropy_stable_for_large_logits():
    y = np.array([1.0, 0.0])
    yhat = np.array([500.0, -500.0])
    assert SIGMOID_CROSS_ENTROPY.value(yhat, y) < 1e-200
    yhat = np.array([-500.0, 500.0])
    v = SIGMOID_CROSS_ENTROPY.value(yhat, y)
    assert np.isfinite(v) and v > 100


def test_squared_error_local_lipschitz_property():
    # |l(a,y) - l(b,y)| <= (2 ||y|| + 2 max(||a||,||b||)) ||a-b||
    rng = np.random.default_rng(1)
    for _ in range(1000):
        a = rng.standard_normal(3) * 2
        b = rng.standard_normal(3) * 2
        y = rng.standard_normal(3)
        lhs = abs(SQUARED_ERROR.value(a, y) - SQUARED_ERROR.value(b, y))
        rhs = (2 * np.linalg.norm(y)
               + 2 * max(np.linalg.norm(a), np.linalg.norm(b))) * np.linalg.norm(a - b)
        assert lhs <= rhs + 1e-9


def test_cross_entropy_lipschitz_property():
    # the binary-label bound is label-free: |l(a,y) - l(b,y)| <= sqrt(N_y) ||a-b||
    rng = np.random.default_rng(1)
    for _ in range(1000):
        a = rng.standard_normal(3) * 2
        b = rng.standard_normal(3) * 2
        y = rng.integers(0, 2, 3).astype(float)
        lhs = abs(SIGMOID_CROSS_ENTROPY.value(a, y) - SIGMOID_CROSS_ENTROPY.value(b, y))
        assert lhs <= np.sqrt(3) * np.linalg.norm(a - b) + 1e-9


# ---------------------------------------------------------------------------
# sensitivity propagation
# ---------------------------------------------------------------------------


def test_theta_independent_model_has_zero_sensitivities():
    model = FixedScalarLinear(0.5)  # empty theta: B = F = 0
    sens = propagate_sensitivity(model, np.array([1.0]), np.zeros((5, 0)))
    for s in sens:
        assert s.D.shape == (1, 0) and s.J.shape == (1, 0)


def test_scalar_power_closed_form():
    # x' = theta x from x0 = 1: d x_t / d theta = t * theta^(t-1)
    theta = 0.8
    model = ScalarLinear(theta)
    sens = propagate_sensitivity(model, np.array([1.0]), np.zeros((6, 0)))
    for t, s in enumerate(sens):
        assert abs(s.D[0, 0] - t * theta ** (t - 1) if t else s.D[0, 0]) < 1e-12


def test_sensitivity_explosion_reports_step():
    model = ScalarLinear(100.0)
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteState) as err:
            propagate_sensitivity(model, np.array([1e280]), np.zeros((20, 0)))
    assert err.value.step > 0


def test_reference_lstm_output_sensitivity_vs_fd():
    from rnnlab.cells import chaotic_reference_cell
    from rnnlab.statespace import simulate

    cell = chaotic_reference_cell()
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    n = 50
    sens = propagate_sensitivity(cell, x0, np.zeros((n, 0)))
    theta = cell.params.values
    eps = 1e-6
    # spot-check J at a few steps against central differences of the output
    for t in [1, 10, 25, 49]:
        J_fd = np.zeros((2, theta.size))
        for k in range(theta.size):
            tp = theta.copy()
            tp[k] += eps
            tm = theta.copy()
            tm[k] -= eps
            op = simulate(cell.with_params(tp), x0, np.zeros((t + 1, 0))).outputs[t]
            om = simulate(cell.with_params(tm), x0, np.zeros((t + 1, 0))).outputs[t]
            J_fd[:, k] = (op - om) / (2 * eps)
        assert rel_err(sens[t].J, J_fd) < 1e-4


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------


def test_cost_zero_when_outputs_match():
    model = ScalarLinear(0.5)
    seq = Sequence(
        inputs=np.zeros((3, 0)),
        targets=np.array([1.0, 0.5, 0.25]),
        x0=np.array([1.0]),
    )
    assert cost(model, [seq]) == 0.0


def test_cost_simple_arithmetic():
    # N = 2, y = (1, 0), yhat = (0, 0): squared error (1 + 0)/2 = 0.5
    model = ScalarLinear(0.5)
    seq = Sequence(
        inputs=np.zeros((2, 0)), targets=np.array([1.0, 0.0]), x0=np.array([0.0])
    )
    assert cost(model, [seq]) == 0.5


def test_cost_multi_sequence_uniform_average():
    model = ScalarLinear(0.5)
    s1 = Sequence(np.zeros((2, 0)), np.array([1.0, 0.0]), x0=np.array([0.0]))
    s2 = Sequence(np.zeros((2, 0)), np.array([0.0, 0.0]), x0=np.array([0.0]))
    assert cost(model, [s1, s2]) == pytest.approx(0.25)


def test_cost_requires_matching_widths():
    model = ScalarLinear(0.5)
    seq = Sequence(np.zeros((2, 0)), np.zeros((2, 3)), x0=np.array([0.0]))
    with pytest.raises(LengthMismatch):
        cost(model, [seq])
    with pytest.raises(LengthMismatch):
        gradient(model, [seq])


def test_reference_cost_minimum_at_true_scale():
    from rnnlab.cells import chaotic_reference_cell
    from rnnlab.statespace import simulate

    cell = chaotic_reference_cell()
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    inputs = np.zeros((100, 0))
    data = simulate(cell, x0, inputs)
    dataset = [Sequence(inputs=inputs, targets=data.outputs, x0=x0)]
    v_true = cost(cell, dataset)
    assert v_true == 0.0
    for s in [0.3, 0.7, 0.9, 1.1, 1.3]:
        assert cost(cell.with_params(s * cell.params.values), dataset) > 1e-3


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_gradient_zero_for_theta_independent_model():
    model = FixedScalarLinear(0.5)
    seq = Sequence(np.zeros((4, 0)), np.ones(4), x0=np.array([1.0]))
    assert gradient(model, [seq]).shape == (0,)


def test_gradient_descends_toward_true_scalar():
    # data from theta* = 0.5; gradient sign points back to theta*
    data_model = ScalarLinear(0.5)
    seq = Sequence(
        np.zeros((8, 0)),
        np.array([0.5 ** t for t in range(8)]),
        x0=np.array([1.0]),
    )
    g_hi = gradient(ScalarLinear(0.6), [seq])[0]
    g_lo = gradient(ScalarLinear(0.4), [seq])[0]
    assert g_hi > 0 and g_lo < 0
    assert abs(gradient(data_model, [seq])[0]) < 1e-12


@pytest.mark.parametrize("kind", ["vanilla", "lstm", "slstm", "ornn"])
def test_gradient_matches_finite_differences(kind):
    rng = np.random.default_rng(3)
    cell = make_cell(kind, 3, n_input=2, bias=True, readout="linear",
                     n_output=2, init_seed=5)
    seqs = [
        Sequence(
            inputs=0.5 * rng.standard_normal((15, 2)),
            targets=0.5 * rng.standard_normal((15, 2)),
        )
        for _ in range(2)
    ]
    g = gradient(cell, seqs)
    g_fd = fd_gradient(cell, seqs, step=1e-6)
    assert rel_err(g, g_fd) < 1e-5


def test_fd_gradient_on_quadratic_toy():
    # V(theta) = (1/1) * (theta * 1 - 0)^2 at one step: x1 = theta, y = x
    model = ScalarLinear(0.7)
    seq = Sequence(np.zeros((2, 0)), np.array([0.0, 0.0]), x0=np.array([1.0]))
    # V = (x0^2 + theta^2)/2; dV/dtheta = theta
    g = fd_gradient(model, [seq], step=1e-5)
    assert abs(g[0] - 0.7) < 1e-8


def test_fd_gradient_richardson_order():
    model = ScalarLinear(0.7)
    rng = np.random.default_rng(0)
    seq = Sequence(np.zeros((6, 0)), rng.standard_normal(6), x0=np.array([1.0]))
    exact = gradient(model, [seq])
    err_coarse = abs(fd_gradient(model, [seq], step=1e-2)[0] - exact[0])
    err_fine = abs(fd_gradient(model, [seq], step=1e-4)[0] - exact[0])
    # central differences: error ~ step^2 -> 1e4 reduction, allow slack
    assert err_fine < err_coarse / 1e2


def test_gradient_linearity_over_sequences():
    rng = np.random.default_rng(4)
    cell = make_cell("vanilla", 3, n_input=1, bias=True, readout="linear",
                     n_output=1, init_seed=8)
    seqs = [
        Sequence(rng.standard_normal((10, 1)), rng.standard_normal(10))
        for _ in range(4)
    ]
    g_all = gradient(cell, seqs)
    g_each = np.mean([gradient(cell, [s]) for s in seqs], axis=0)
    assert np.allclose(g_all, g_each, atol=1e-14)


# ---------------------------------------------------------------------------
# reverse accumulation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["vanilla", "lstm", "slstm", "ornn"])
def test_reverse_matches_forward(kind):
    rng = np.random.default_rng(9)
    cell = make_cell(kind, 4, n_input=2, bias=True, readout="linear",
                     n_output=2, init_seed=2)
    assert cell.n_params <= 200
    seqs = [
        Sequence(
            inputs=0.5 * rng.standard_normal((20, 2)),
            targets=0.5 * rng.standard_normal((20, 2)),
        )
        for _ in range(3)
    ]
    g_fwd = forward_gradient(cell, seqs)
    v_rev, g_rev = cost_and_gradient_reverse(cell, seqs)
    assert abs(v_rev - cost(cell, seqs)) < 1e-12
    assert rel_err(g_rev, g_fwd) < 1e-8


def test_reverse_masked_cross_entropy_matches_forward():
    rng = np.random.default_rng(10)
    cell = make_cell("lstm", 3, n_input=4, bias=True, readout="linear",
                     n_output=2, init_seed=3)
    seqs = []
    for _ in range(4):
        T = 12
        inputs = np.zeros((T, 4))
        inputs[np.arange(T), rng.integers(0, 4, T)] = 1.0
        targets = np.zeros((T, 2))
        targets[-1] = rng.integers(0, 2, 2)
        mask = np.zeros(T, dtype=bool)
        mask[-1] = True
        seqs.append(Sequence(inputs=inputs, targets=targets, mask=mask))
    g_fwd = forward_gradient(cell, seqs, SIGMOID_CROSS_ENTROPY)
    v_rev, g_rev = cost_and_gradient_reverse(cell, seqs, SIGMOID_CROSS_ENTROPY)
    assert abs(v_rev - cost(cell, seqs, SIGMOID_CROSS_ENTROPY)) < 1e-12
    assert rel_err(g_rev, g_fwd) < 1e-8


def _random_sequences(model, lengths, seed):
    rng = np.random.default_rng(seed)
    return [Sequence(rng.standard_normal((n, model.input_dim)),
                     rng.standard_normal((n, model.output_dim)),
                     x0=0.5 * rng.standard_normal(model.state_dim))
            for n in lengths]


@pytest.mark.parametrize("model", [ScalarLinear(0.8), DrivenScalar(0.7, a=0.9), TanhMap(1.3)])
def test_default_reverse_route_matches_the_forward_oracle(model):
    # the models have no backward pass of their own: the default one from jacobians
    seqs = _random_sequences(model, [12, 12, 12], seed=11)
    v, g = cost_and_gradient_reverse(model, seqs)
    assert abs(v - cost(model, seqs)) < 1e-12
    assert rel_err(g, forward_gradient(model, seqs)) < 1e-12


@pytest.mark.parametrize("model", [DrivenScalar(0.7, a=0.9),
                                   make_cell("lstm", 3, n_input=2, n_output=2, init_seed=4)])
def test_sequences_of_different_lengths_give_the_oracle_gradient(model):
    seqs = _random_sequences(model, [10, 15], seed=12)
    v, g = cost_and_gradient_reverse(model, seqs)
    assert abs(v - cost(model, seqs)) < 1e-12
    assert rel_err(g, forward_gradient(model, seqs)) < 1e-12


def test_gradient_is_one_batched_pass_without_jacobians(monkeypatch):
    from rnnlab import sensitivity
    from rnnlab.cells import LstmCell

    calls = {"rollout": 0, "jacobians": 0}
    rollout, jacobians = sensitivity.rollout, LstmCell.jacobians

    def counted_rollout(*args, **kwargs):
        calls["rollout"] += 1
        return rollout(*args, **kwargs)

    def counted_jacobians(self, *args):
        calls["jacobians"] += 1
        return jacobians(self, *args)

    monkeypatch.setattr(sensitivity, "rollout", counted_rollout)
    monkeypatch.setattr(LstmCell, "jacobians", counted_jacobians)
    rng = np.random.default_rng(13)
    cell = make_cell("lstm", 4, n_input=2, init_seed=1)
    seqs = [Sequence(rng.standard_normal((20, 2)), rng.standard_normal(20))
            for _ in range(3)]
    gradient(cell, seqs)
    assert calls == {"rollout": 1, "jacobians": 0}


def test_gradient_fd_agreement_on_contractive_driven_system():
    model = DrivenScalar(1.0, a=0.9)
    n = 100
    seq = Sequence(np.ones((n, 1)), np.zeros(n), x0=np.array([0.0]))
    g = gradient(model, [seq])
    g_fd = fd_gradient(model, [seq], step=1e-6)
    assert rel_err(g, g_fd) < 1e-5


def test_gradient_fd_agreement_degrades_gracefully_when_expanding():
    # expanding system: agreement asserted only for short horizons
    model = DrivenScalar(1.0, a=1.3)
    n = 20
    seq = Sequence(np.ones((n, 1)), np.zeros(n), x0=np.array([0.0]))
    g = gradient(model, [seq])
    g_fd = fd_gradient(model, [seq], step=1e-6)
    assert rel_err(g, g_fd) < 1e-5


# ---------------------------------------------------------------------------
# the stacked route: P parameter points in one forward and one backward pass
# ---------------------------------------------------------------------------


def _task_sequences(model, task, rng, T=12):
    """Three sequences: a regression on every step (squared error), or a label
    scored at the last step only (cross-entropy)."""
    n_y = model.output_dim
    if task == "sine":
        return [Sequence(rng.standard_normal((T, model.input_dim)),
                         rng.standard_normal((T, n_y)),
                         x0=0.3 * rng.standard_normal(model.state_dim))
                for _ in range(3)], SQUARED_ERROR
    seqs = []
    for _ in range(3):
        targets = np.zeros((T, n_y))
        targets[-1] = rng.integers(0, 2, n_y)
        mask = np.zeros(T, dtype=bool)
        mask[-1] = True
        seqs.append(Sequence(rng.standard_normal((T, model.input_dim)), targets, mask=mask))
    return seqs, SIGMOID_CROSS_ENTROPY


def _assert_rows_match_per_point(model, thetas, seqs, loss):
    values, grads, diverged = cost_and_gradient_reverse(model.with_params(thetas), seqs, loss)
    assert values.shape == (len(thetas),) and grads.shape == thetas.shape
    assert not diverged.any()
    for theta, v, g in zip(thetas, values, grads):
        point = model.with_params(theta)
        assert v == cost(point, seqs, loss)
        assert rel_err(g, gradient(point, seqs, loss)) < 1e-13


@pytest.mark.parametrize("task", ["sine", "symbols"])
@pytest.mark.parametrize("kind", ["vanilla", "lstm", "slstm", "ornn"])
def test_stacked_pass_matches_per_point_gradients(kind, task):
    from rnnlab.cells import _cell_class

    rng = np.random.default_rng(21)
    for n_input in (0, 2):
        for bias in (False, True):
            for readout in ("identity", "linear"):
                cell = _cell_class(kind)(3, n_input=n_input, bias=bias, readout=readout,
                                         n_output=2, init_seed=4)
                seqs, loss = _task_sequences(cell, task, rng)
                thetas = cell.params.values + 0.5 * rng.standard_normal((4, cell.n_params))
                _assert_rows_match_per_point(cell, thetas, seqs, loss)


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("task", ["sine", "symbols"])
@pytest.mark.parametrize("kind", ["vanilla", "lstm", "slstm", "ornn"])
def test_a_stacked_row_gets_the_shared_pass_gradient(kind, task, bias):
    # one reverse loop serves both: a stacked theta sums its weight cotangents
    # row by row, a shared theta in one GEMM over the sequences
    from rnnlab.cells import _cell_class

    rng = np.random.default_rng(24)
    cell = _cell_class(kind)(4, n_input=2, bias=bias, readout="linear", n_output=2,
                             init_seed=5)
    seqs, loss = _task_sequences(cell, task, rng, T=30)
    _, grad = cost_and_gradient_reverse(cell, seqs, loss)
    _, grads, diverged = cost_and_gradient_reverse(
        cell.with_params(cell.params.values[None]), seqs, loss)
    assert grads.shape == (1, cell.n_params) and not diverged.any()
    assert np.abs(grads[0] - grad).max() <= 1e-14 * np.abs(grad).max()


@pytest.mark.parametrize("model", [DrivenScalar(0.7, a=0.9), TanhMap(1.3)])
def test_stacked_pass_of_a_default_model_matches_per_point_gradients(model):
    seqs = _random_sequences(model, [12, 12, 9], seed=22)
    thetas = model.params.values + np.linspace(-0.3, 0.3, 5)[:, None]
    _assert_rows_match_per_point(model, thetas, seqs, SQUARED_ERROR)


@pytest.mark.parametrize("kind", ["vanilla", "lstm", "ornn"])
def test_stacked_pass_reports_a_divergent_row_and_keeps_the_others(kind):
    cell = make_cell(kind, 3, n_input=2, bias=True, readout="linear", init_seed=6)
    rng = np.random.default_rng(23)
    seqs = [Sequence(rng.standard_normal((15, 2)), rng.standard_normal(15)) for _ in range(2)]
    thetas = cell.params.values + 0.2 * rng.standard_normal((4, cell.n_params))
    poisoned = thetas.copy()
    poisoned[1, -1] = np.nan          # the readout bias of the second point
    v0, g0, bad0 = cost_and_gradient_reverse(cell.with_params(thetas), seqs)
    v1, g1, bad1 = cost_and_gradient_reverse(cell.with_params(poisoned), seqs)
    assert not bad0.any() and list(bad1) == [False, True, False, False]
    assert np.isnan(g1[1]).all()
    keep = [0, 2, 3]
    assert np.array_equal(v1[keep], v0[keep]) and np.array_equal(g1[keep], g0[keep])


def test_stacked_pass_gives_no_gradient_for_a_divergent_cost():
    # x_t = t g: at g = 1e157 the cost (~1e318) overflows while the gradient stays finite
    model = DrivenScalar(1.0, a=1.0)
    seqs = [Sequence(np.ones((50, 1)), np.zeros(50), x0=np.array([0.0]))]
    values, grads, diverged = cost_and_gradient_reverse(
        model.with_params(np.array([[0.5], [1e157]])), seqs)
    assert list(diverged) == [False, True] and np.isinf(values[1])
    assert np.isnan(grads[1]).all()
    assert grads[0] == gradient(DrivenScalar(0.5, a=1.0), seqs)


def _overflowing_vanilla():
    """A 3-unit vanilla cell at theta = 1e308 and two sequences of inputs +-1e308.

    Under +1e308 the pre-activation is +inf and h' = 1; the first -1e308 that
    follows gives inf - inf, a NaN state one step later: at step 4 in the
    first sequence and at step 2 in the second.
    """
    cell = make_cell("vanilla", 3, n_input=1, bias=True, readout="identity")
    signs = [[1, 1, 1, -1, 1, -1], [1, -1, 1, -1, 1, -1]]
    seqs = [Sequence(1e308 * np.array(s, dtype=float)[:, None], np.zeros((6, 3)))
            for s in signs]
    return cell, np.full(cell.n_params, 1e308), seqs


def test_shared_pass_reports_the_first_divergence_rollout_recorded():
    from rnnlab.statespace import rollout

    cell, theta, seqs = _overflowing_vanilla()
    model = cell.with_params(theta)
    run = rollout(model, np.zeros((2, 3)), np.stack([s.inputs for s in seqs], axis=1))
    assert run.diverged_at.tolist() == [4, 2]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteState) as err:
            cost_and_gradient_reverse(model, seqs)
    assert (err.value.step, err.value.what) == (2, run.diverged_what[1]) == (2, "state")


def test_stacked_pass_in_which_every_row_diverges_gives_nan_gradients():
    # the rollout stops once every row has diverged, before the gates of the
    # later steps exist: the pass must not run backward over them
    cell, theta, seqs = _overflowing_vanilla()
    values, grads, diverged = cost_and_gradient_reverse(
        cell.with_params(np.stack([theta, theta])), seqs)
    assert diverged.tolist() == [True, True]
    assert grads.shape == (2, cell.n_params) and np.isnan(grads).all()
