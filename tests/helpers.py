"""Small hand-checkable models and the oracles for the tests.

The library never forms a Jacobian matrix: it carries tangents forward
through ``step_tangent`` and cotangents back through ``backward_batch``.
The Jacobian-matrix route lives here, as the oracles the library is checked
against.  The seven test maps derive from :class:`JacobianModel`, which
gives each its tangent step and reverse pass from its full Jacobians
(A, B, C, F); :func:`cell_jacobians` assembles them for a cell from its
tangent and adjoint steps, and :func:`jacobians_of` reads either.  On them
rest the cost one simulation per sequence, forward sensitivity propagation
(RTRL) and central finite differences, of the Jacobians and of the cost,
and the Lyapunov exponent from one full Jacobian per step, which the
library batches over a block of orbit states.  So do the rollout that
reads out and checks every step, which the library does a block of steps
at a time, the empirical Lipschitz estimate one point at a time, which the
library takes from one stacked pass, and the element-by-element CSV
writers (trajectory, landscape, bifurcation diagram and training history),
the point-by-point SVG scatter and the streamed JSON writer, which also
writes the tests' cell files.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from rnnlab.cells import cell_to_dict
from rnnlab.errors import DivergentCost, NonFiniteState
from rnnlab.params import ParameterLayout, ParameterVector
from rnnlab.sensitivity import (
    SQUARED_ERROR,
    _as_dataset,
    cost,
    cost_and_gradient_reverse,
    divergent_costs,
)
from rnnlab.smoothness import PAIR_SCALES, EmpiricalLipschitz
from rnnlab.statespace import DynamicalModel, Rollout, _as_input_array, simulate
from rnnlab.svgplot import _axes_frame, _finite_range


class JacobianModel(DynamicalModel):
    """A test map given by ``step``, ``output`` and its single-point Jacobians
    ``jacobians(x, z) -> (A, B, C, F)``, with A = df/dx, B = df/dtheta,
    C = dg/dx and F = dg/dtheta; its tangent step and reverse pass are
    products with them."""

    def jacobians(self, x, z):
        raise NotImplementedError

    def _advance(self, x, z):
        return self.step(x, z), None

    def step_tangent(self, x, z, V):
        """The step and A V, one stacked state at a time."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self.step(x, z), self.jacobians(x, z)[0] @ V
        rows = x.shape[:-1]
        z = np.broadcast_to(z, rows + np.shape(z)[-1:])
        V = np.broadcast_to(V, rows + np.shape(V)[-2:])
        states, AV = zip(*(self.step_tangent(x[i], z[i], V[i]) for i in np.ndindex(rows)))
        return np.reshape(states, x.shape), np.reshape(AV, rows + AV[0].shape)

    def backward_batch(self, run, dY):
        """With dx = dL/dx[t+1]: dtheta += B^T dx + F^T dy, then
        dx <- A^T dx + C^T dy, in reverse over each sequence; a stack of P
        points, one point at a time on its ``with_params`` model."""
        if self.params.values.ndim == 2:
            inputs = np.broadcast_to(run.inputs, run.states.shape[:-1] + (self.input_dim,))
            return np.array([
                self.with_params(theta).backward_batch(
                    replace(run, states=run.states[:, :, p], inputs=inputs[:, :, p]),
                    dY[:, :, p])
                for p, theta in enumerate(self.params.values)])
        grad = np.zeros(self.n_params)
        for b in range(dY.shape[1]):
            dx = np.zeros(self.state_dim)
            for t in range(len(dY) - 1, -1, -1):
                A, B, C, F = self.jacobians(run.states[t, b], run.inputs[t, b])
                grad += B.T @ dx + F.T @ dY[t, b]
                dx = A.T @ dx + C.T @ dY[t, b]
        return grad


class ScalarLinear(JacobianModel):
    """x' = a * x with a trainable; y = x."""

    name = "scalar_linear"

    def __init__(self, a):
        self.params = ParameterVector(
            ParameterLayout([("a", (1,))]), np.atleast_1d(np.asarray(a, dtype=float))
        )
        self.state_dim = 1
        self.input_dim = 0
        self.output_dim = 1

    def step(self, x, z):
        return self.params.values * x

    def output(self, x, z):
        return np.asarray(x, dtype=float).copy()

    def jacobians(self, x, z):
        a = self.params.values[0]
        return (
            np.array([[a]]),
            np.array([[float(x[0])]]),
            np.array([[1.0]]),
            np.array([[0.0]]),
        )

    def with_params(self, v):
        return ScalarLinear(np.asarray(v, dtype=float))


class FixedScalarLinear(ScalarLinear):
    """x' = a * x with a frozen (empty theta); y = x.

    ``a`` may be a (P, 1) column, one factor per stacked row.
    """

    name = "fixed_scalar_linear"

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)
        self.params = ParameterVector(ParameterLayout([]), np.zeros(0))
        self.state_dim = 1
        self.input_dim = 0
        self.output_dim = 1

    def step(self, x, z):
        return self.a * np.asarray(x, dtype=float)

    def jacobians(self, x, z):
        return (
            np.array([[self.a]]),
            np.zeros((1, 0)),
            np.array([[1.0]]),
            np.zeros((1, 0)),
        )

    def with_params(self, v):
        return FixedScalarLinear(self.a)


class DrivenScalar(JacobianModel):
    """x' = a * x + g * z with fixed contraction a and trainable gain g; y = x."""

    name = "driven_scalar"

    def __init__(self, g, a=0.9):
        self.a = float(a)
        self.params = ParameterVector(
            ParameterLayout([("g", (1,))]), np.atleast_1d(np.asarray(g, dtype=float))
        )
        self.state_dim = 1
        self.input_dim = 1
        self.output_dim = 1

    def step(self, x, z):
        return self.a * np.asarray(x, dtype=float) + self.params.values * z

    def output(self, x, z):
        return np.asarray(x, dtype=float).copy()

    def jacobians(self, x, z):
        return (
            np.array([[self.a]]),
            np.array([[float(z[0])]]),
            np.array([[1.0]]),
            np.array([[0.0]]),
        )

    def with_params(self, v):
        return DrivenScalar(np.asarray(v, dtype=float), self.a)


class TanhMap(JacobianModel):
    """x' = tanh(w * x) scalar map with trainable w; y = x."""

    name = "tanh_map"

    def __init__(self, w):
        self.params = ParameterVector(
            ParameterLayout([("w", (1,))]), np.atleast_1d(np.asarray(w, dtype=float))
        )
        self.state_dim = 1
        self.input_dim = 0
        self.output_dim = 1

    def step(self, x, z):
        return np.tanh(self.params.values * x)

    def output(self, x, z):
        return np.asarray(x, dtype=float).copy()

    def jacobians(self, x, z):
        w = self.params.values[0]
        s = 1.0 - np.tanh(w * x[0]) ** 2
        return (
            np.array([[w * s]]),
            np.array([[float(x[0]) * s]]),
            np.array([[1.0]]),
            np.array([[0.0]]),
        )

    def with_params(self, v):
        return TanhMap(np.asarray(v, dtype=float))


class RotationMap(JacobianModel):
    """2-D rotation by a fixed angle (an isometry; empty theta)."""

    name = "rotation"

    def __init__(self, angle):
        self.angle = float(angle)
        c, s = np.cos(self.angle), np.sin(self.angle)
        self.R = np.array([[c, -s], [s, c]])
        self.params = ParameterVector(ParameterLayout([]), np.zeros(0))
        self.state_dim = 2
        self.input_dim = 0
        self.output_dim = 2

    def step(self, x, z):
        return self.R @ np.asarray(x, dtype=float)

    def output(self, x, z):
        return np.asarray(x, dtype=float).copy()

    def jacobians(self, x, z):
        return self.R.copy(), np.zeros((2, 0)), np.eye(2), np.zeros((2, 0))

    def with_params(self, v):
        return RotationMap(self.angle)


class LogisticMap(JacobianModel):
    """x' = r * x * (1 - x), the textbook period-doubling family.

    ``r`` may be a (P, 1) column, one rate per stacked row.
    """

    name = "logistic"

    def __init__(self, r):
        self.params = ParameterVector(
            ParameterLayout([("r", (1,))]), np.atleast_1d(np.asarray(r, dtype=float))
        )
        self.state_dim = 1
        self.input_dim = 0
        self.output_dim = 1

    def step(self, x, z):
        x = np.asarray(x, dtype=float)
        return self.params.values * x * (1.0 - x)

    def output(self, x, z):
        return np.asarray(x, dtype=float).copy()

    def jacobians(self, x, z):
        r = self.params.values[0]
        return (
            np.array([[r * (1.0 - 2.0 * x[0])]]),
            np.array([[x[0] * (1.0 - x[0])]]),
            np.array([[1.0]]),
            np.array([[0.0]]),
        )

    def with_params(self, v):
        return LogisticMap(np.asarray(v, dtype=float))


class FeedthroughMap(JacobianModel):
    """x' = z, y = x: the closed loop with identity feedback holds any state."""

    name = "feedthrough"

    def __init__(self, dim=1):
        self.params = ParameterVector(ParameterLayout([]), np.zeros(0))
        self.state_dim = dim
        self.input_dim = dim
        self.output_dim = dim

    def step(self, x, z):
        return np.asarray(z, dtype=float).copy()

    def output(self, x, z):
        return np.asarray(x, dtype=float).copy()

    def jacobians(self, x, z):
        n = self.state_dim
        return np.zeros((n, n)), np.zeros((n, 0)), np.eye(n), np.zeros((n, 0))

    def with_params(self, v):
        return FeedthroughMap(self.state_dim)


def cell_jacobians(cell, x, z):
    """(A, B, C, F) of a cell at one point.  A is A I from ``step_tangent``;
    row r of B = dx'/dtheta comes from the step adjoint of the unit cotangent
    e_r, which gives dpre = dx'_r/d pre of the gates, hence the blocks
    dpre h^T (through ``_add_recurrent_gradient``, which maps dW to the
    ornn's S_raw), dpre z^T and dpre."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    H, I = cell.n_hidden, np.eye(cell.state_dim)
    x_new, A = cell.step_tangent(x, z, I)
    dpre = cell._step_adjoint(cell._advance(x, z)[1], x, x_new, I[:, :H], I[:, H:])[0]
    B = np.zeros((cell.state_dim, cell.n_params))
    for r in range(cell.state_dim):
        row = ParameterVector(cell.params.layout, np.zeros(cell.n_params))
        cell._add_recurrent_gradient(row, np.outer(dpre[r], x[:H]))
        if cell.n_input > 0:
            row.get_stacked(cell._U)[...] = np.outer(dpre[r], z)
        if cell.bias:
            row.get_stacked(cell._b)[...] = dpre[r]
        B[r] = row.values
    C = np.zeros((cell.output_dim, cell.state_dim))
    F = ParameterVector(cell.params.layout, np.zeros((cell.output_dim, cell.n_params)))
    if cell.readout == "identity":
        C[:, :H] = np.eye(H)
    else:
        C[:, :H] = cell.params.get("W_out")
        F.get("W_out")[np.diag_indices(cell.output_dim)] = x[:H]  # dy_a/dW_out[a] = h
        F.get("b_out")[...] = np.eye(cell.output_dim)
    return A, B, C, F.values


def jacobians_of(model, x, z):
    """(A, B, C, F) of a test map or a cell at one point."""
    if isinstance(model, JacobianModel):
        return model.jacobians(x, z)
    return cell_jacobians(model, x, z)


def fd_jacobians(model, x, z, eps=1e-6):
    """Central-difference Jacobians (A, B, C, F) of step/output."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    nx, nth, ny = model.state_dim, model.n_params, model.output_dim
    A = np.zeros((nx, nx))
    C = np.zeros((ny, nx))
    for k in range(nx):
        xp = x.copy()
        xp[k] += eps
        xm = x.copy()
        xm[k] -= eps
        A[:, k] = (model.step(xp, z) - model.step(xm, z)) / (2 * eps)
        C[:, k] = (model.output(xp, z) - model.output(xm, z)) / (2 * eps)
    B = np.zeros((nx, nth))
    F = np.zeros((ny, nth))
    theta = model.params.values
    for k in range(nth):
        tp = theta.copy()
        tp[k] += eps
        tm = theta.copy()
        tm[k] -= eps
        mp, mm = model.with_params(tp), model.with_params(tm)
        B[:, k] = (mp.step(x, z) - mm.step(x, z)) / (2 * eps)
        F[:, k] = (mp.output(x, z) - mm.output(x, z)) / (2 * eps)
    return A, B, C, F


def rel_err(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(1.0, float(np.abs(want).max()) if want.size else 1.0)
    return float(np.abs(got - want).max()) / scale


# ---------------------------------------------------------------------------
# cost and gradient oracles
# ---------------------------------------------------------------------------


def reference_cost(model, dataset, loss=SQUARED_ERROR):
    """The cost one sequence at a time: one ``simulate`` per sequence, its
    masked steps selected and their losses summed in time order over their
    number, then the mean over sequences, summed in dataset order."""
    costs = []
    for seq in _as_dataset(dataset):
        outputs = simulate(model, seq.start_state(model), seq.inputs).outputs
        idx = np.flatnonzero(seq.mask)
        per_step = loss.value(outputs[idx], seq.targets[idx])
        costs.append(np.add.accumulate(per_step)[-1] / idx.size)
    return float(np.add.accumulate(costs)[-1] / len(costs))


@dataclass
class SensitivityState:
    D: np.ndarray  # (N_x, N_theta) state sensitivity
    J: np.ndarray  # (N_y, N_theta) output sensitivity


def propagate_sensitivity(model, x0, inputs):
    """Forward-propagate parameter sensitivities along one trajectory.

        D[t+1] = A[t] D[t] + B[t],   D[0] = 0
        J[t]   = C[t] D[t] + F[t]

    Returns one :class:`SensitivityState` per step, aligned with the
    trajectory of :func:`~rnnlab.statespace.simulate`.  Raises
    :class:`NonFiniteState` (with the step) when sensitivities blow up,
    which is exactly what happens in the expanding regime for long
    horizons.
    """
    inputs = _as_input_array(model, inputs)
    traj = simulate(model, x0, inputs)
    n = len(traj)
    D = np.zeros((model.state_dim, model.n_params))
    out = []
    for t in range(n):
        A, B, C, F = jacobians_of(model, traj.states[t], inputs[t])
        J = C @ D + F
        if not np.all(np.isfinite(J)):
            raise NonFiniteState(t, "output sensitivity")
        out.append(SensitivityState(D=D.copy(), J=J))
        if t + 1 < n:
            D = A @ D + B
            if not np.all(np.isfinite(D)):
                raise NonFiniteState(t + 1, "state sensitivity")
    return out


def _sequence_gradient(model, seq, loss):
    x0 = seq.start_state(model)
    traj = simulate(model, x0, seq.inputs)
    sens = propagate_sensitivity(model, x0, seq.inputs)
    idx = np.flatnonzero(seq.mask)
    g = np.zeros(model.n_params)
    for t in idx:
        g += sens[t].J.T @ loss.derivative(traj.outputs[t], seq.targets[t])
    return g / idx.size


def forward_gradient(model, dataset, loss=SQUARED_ERROR):
    """Cost gradient by forward sensitivities: (1/n) sum_t J[t]^T l'(yhat[t], y[t])."""
    dataset = _as_dataset(dataset)
    g = np.zeros(model.n_params)
    for seq in dataset:
        g += _sequence_gradient(model, seq, loss)
    return g / len(dataset)


def fd_gradient(model, dataset, loss=SQUARED_ERROR, step=1e-6):
    """Central finite differences of the cost, one coordinate at a time."""
    if step <= 0:
        raise ValueError("step must be positive")
    dataset = _as_dataset(dataset)
    theta = model.params.values
    g = np.empty(theta.size)
    for k in range(theta.size):
        tp = theta.copy()
        tp[k] += step
        tm = theta.copy()
        tm[k] -= step
        vp = cost(model.with_params(tp), dataset, loss)
        vm = cost(model.with_params(tm), dataset, loss)
        g[k] = (vp - vm) / (2.0 * step)
    return g


# ---------------------------------------------------------------------------
# Lyapunov and trajectory-file oracles
# ---------------------------------------------------------------------------


def jacobian_lyapunov_exponent(model, x0, u_const, burn_in=100, horizon=1000):
    """Largest Lyapunov exponent from the full state Jacobian A_t of
    :func:`jacobians_of` at every step: v <- A_t v / |A_t v|, averaging
    log |A_t v|."""
    u = np.asarray(u_const, dtype=float).reshape(model.input_dim)
    x = np.asarray(x0, dtype=float).copy()
    for t in range(int(burn_in)):
        x = model.step(x, u)
        if not np.all(np.isfinite(x)):
            raise NonFiniteState(t + 1)

    v = np.full(model.state_dim, 1.0 / np.sqrt(model.state_dim))
    log_sum = 0.0
    for t in range(int(horizon)):
        A = jacobians_of(model, x, u)[0]
        v = A @ v
        r = float(np.linalg.norm(v))
        if r == 0.0 or not np.isfinite(r):
            if r == 0.0:
                return -np.inf
            raise NonFiniteState(burn_in + t, "tangent")
        log_sum += np.log(r)
        v /= r
        x = model.step(x, u)
        if not np.all(np.isfinite(x)):
            raise NonFiniteState(burn_in + t + 1)
    return log_sum / horizon


def rollout_by_step(model, x0, inputs, horizon=None, feedback=None, keep_states=True):
    """``rollout`` with a readout and a finiteness check at every step: the
    output of step t, then the state and fed-back input of step t + 1, each
    checked as soon as it is computed, the loop stopping at once when every
    row has diverged."""
    x = np.asarray(x0, dtype=float)
    rows = x.shape[:-1]
    if feedback is None:
        inputs = _as_input_array(model, inputs)
        n = inputs.shape[0]
        z_shape = None
    else:
        n = int(horizon)
        z = np.asarray(inputs, dtype=float)
        z_shape = np.broadcast_shapes(z.shape[:-1], rows) + (model.input_dim,)
        z = np.broadcast_to(z, z_shape)
        inputs = np.full((n,) + z_shape, np.nan)
    if n < 1:
        raise ValueError("need at least one step")
    states = np.full((n,) + x.shape, np.nan) if keep_states else None
    kept = [] if keep_states else None
    outputs = np.full((n,) + rows + (model.output_dim,), np.nan)
    diverged_at = np.full(rows, -1)
    diverged_what = np.full(rows, "", dtype=object)
    alive = np.ones(rows, dtype=bool)

    def any_alive(values, t, what):
        ok = np.isfinite(values).all(axis=-1)
        new = alive & ~ok
        diverged_at[new] = t
        diverged_what[new] = what
        np.logical_and(alive, ok, out=alive)
        return alive.any()

    with np.errstate(all="ignore"):
        for t in range(n):
            if keep_states:
                states[t] = x
            if z_shape is None:
                z = inputs[t]
            else:
                inputs[t] = z
            y = model.output(x, z)
            outputs[t] = y
            if not np.isfinite(y).all() and not any_alive(y, t, "output"):
                break
            if t + 1 == n:
                break
            x, step_kept = model._advance(x, z)
            if keep_states:
                kept.append(step_kept)
            if not np.isfinite(x).all() and not any_alive(x, t + 1, "state"):
                break
            if z_shape is not None:
                z = np.asarray(feedback(y), dtype=float).reshape(z_shape)
                if not np.isfinite(z).all() and not any_alive(z, t + 1, "input"):
                    break
    return Rollout(states, outputs, inputs, diverged_at, diverged_what, kept)


def svg_scatter_by_point(path, xs, ys, title="", xlabel="", ylabel="", desc=""):
    """``svg_scatter`` mapping and formatting one point at a time."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = np.isfinite(xs) & np.isfinite(ys)
    x_lo, x_hi = _finite_range(xs)
    y_lo, y_hi = _finite_range(ys)
    parts, sx, sy = _axes_frame(x_lo, x_hi, y_lo, y_hi, title, xlabel, ylabel, desc)
    for x, y in zip(xs[keep], ys[keep]):
        parts.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="1.2" fill="black"/>'
        )
    with open(path, "w") as fh:
        fh.write("\n".join(parts + ["</svg>"]) + "\n")


def trajectory_csv_by_element(traj, path, meta=None):
    """``Trajectory.to_csv`` written one numpy element at a time."""
    n_x = traj.states.shape[1]
    n_y = traj.outputs.shape[1]
    header = ",".join(
        ["t"] + [f"x{i}" for i in range(n_x)] + [f"y{i}" for i in range(n_y)]
    )
    lines = []
    if meta:
        for k, v in meta.items():
            lines.append(f"# {k}={v}")
    lines.append(header)
    for t in range(len(traj)):
        row = [str(t)]
        row += [repr(float(v)) for v in traj.states[t]]
        row += [repr(float(v)) for v in traj.outputs[t]]
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def landscape_csv_by_element(grid, path, meta=None):
    """``LandscapeGrid.to_csv`` written one grid point at a time."""
    lines = []
    if meta:
        for k, v in meta.items():
            lines.append(f"# {k}={v}")
    if grid.ndim == 1:
        header = "s1,V" + (",gradnorm" if grid.gradient_norms is not None else "")
        lines.append(header)
        for i, s in enumerate(grid.coords[0]):
            row = [repr(float(s)), repr(float(grid.values[i]))]
            if grid.gradient_norms is not None:
                row.append(repr(float(grid.gradient_norms[i])))
            lines.append(",".join(row))
    else:
        header = "s1,s2,V" + (",gradnorm" if grid.gradient_norms is not None else "")
        lines.append(header)
        for i, s1 in enumerate(grid.coords[0]):
            for j, s2 in enumerate(grid.coords[1]):
                row = [repr(float(s1)), repr(float(s2)), repr(float(grid.values[i, j]))]
                if grid.gradient_norms is not None:
                    row.append(repr(float(grid.gradient_norms[i, j])))
                lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def diagram_csv_by_element(diagram, path, meta=None):
    """``BifurcationDiagram.to_csv`` written one sample at a time."""
    lines = []
    if meta:
        for k, v in meta.items():
            lines.append(f"# {k}={v}")
    lines.append("sweep,p,dp")
    for s in diagram.samples:
        if s.diverged:
            lines.append(f"{s.sweep_value!r},diverged,diverged")
            continue
        sweep = repr(float(s.sweep_value))
        for p, dp in zip(s.p, s.dp):
            lines.append(f"{sweep},{float(p)!r},{float(dp)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def history_csv_by_element(run, path, extra_meta=None):
    """The ``history.csv`` of ``save_run`` written one field at a time."""
    with open(path, "w") as fh:
        if extra_meta:
            for k, v in extra_meta.items():
                fh.write(f"# {k}={v}\n")
        fh.write("epoch,loss,metric,grad_norm,lr\n")
        for row in run.history:
            fh.write(
                f"{row['epoch']},{row['loss']!r},{row['metric']!r},"
                f"{row['grad_norm']!r},{row['lr']!r}\n"
            )


def trajectory_json_streamed(traj, path, model_name="model", theta_hash=None, meta=None):
    """``Trajectory.to_json`` streamed through ``json.dump``."""
    doc = {
        "format_version": 1,
        "model": model_name,
        "theta_hash": theta_hash,
        "seed": None,
        "t0": 0,
        "states": traj.states.tolist(),
        "outputs": traj.outputs.tolist(),
        "inputs": traj.inputs.tolist(),
    }
    if meta:
        doc.update(meta)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def write_json_streamed(path, doc):
    """A command's JSON artefact streamed through ``json.dump``."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def save_cell(cell, path):
    """A cell file: ``cell_to_dict`` streamed through ``json.dump``."""
    write_json_streamed(path, cell_to_dict(cell))


# ---------------------------------------------------------------------------
# the empirical Lipschitz estimate, one point at a time
# ---------------------------------------------------------------------------


def empirical_lipschitz_V_per_point(model_family, dataset, loss=SQUARED_ERROR,
                                    theta_low=None, theta_high=None, n_pairs=50,
                                    rng_seed=0, with_gradient=True):
    """``empirical_lipschitz_V`` drawing and evaluating its pairs one by one:
    ``model_family`` of one flat theta, and :func:`cost` or one
    :func:`cost_and_gradient_reverse` per point."""
    lo = np.asarray(theta_low, dtype=float)
    hi = np.asarray(theta_high, dtype=float)
    rng = np.random.default_rng(rng_seed)

    def eval_point(theta):
        try:
            m = model_family(theta)
            if not with_gradient:
                return cost(m, dataset, loss), None
            v, g = cost_and_gradient_reverse(m, dataset, loss)
        except (DivergentCost, NonFiniteState, FloatingPointError):
            return None
        return None if divergent_costs(v) else (v, g)

    best_v = best_g = 0.0
    used = divergent = 0
    scales = [None] + list(PAIR_SCALES)
    for k in range(int(n_pairs)):
        scale = scales[k % len(scales)]
        a = rng.uniform(lo, hi)
        if scale is None:
            b = rng.uniform(lo, hi)
        else:
            b = a + scale * rng.standard_normal(lo.size)
        dist = float(np.linalg.norm(a - b))
        if dist == 0.0:
            continue
        ra = eval_point(a)
        rb = eval_point(b)
        if ra is None or rb is None:
            divergent += 1
            continue
        used += 1
        best_v = max(best_v, abs(ra[0] - rb[0]) / dist)
        if with_gradient:
            best_g = max(best_g, float(np.linalg.norm(ra[1] - rb[1])) / dist)
    return EmpiricalLipschitz(
        L_V_hat=best_v, L_V_prime_hat=best_g, n_pairs_used=used, n_divergent=divergent
    )
