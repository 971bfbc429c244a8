"""Discrete-time dynamical-system contract and generic machinery.

A model is the pair of maps

    x[t+1] = f(x[t], z[t]; theta)      (state transition)
    y[t]   = g(x[t], z[t]; theta)      (output)

with analytic Jacobians A = df/dx, B = df/dtheta, C = dg/dx, F = dg/dtheta.
Everything downstream (simulation, fixed points, Lyapunov exponents,
gradients, bifurcation diagrams, smoothness estimates) is built on this
contract: a model implements step/output/jacobians, and defaults build on
those.  ``step_tangent`` returns the step and the product A V of the
state Jacobian with a block of tangent vectors, from ``jacobians``.
``_advance`` is the step and what a reverse pass keeps of it (nothing).
``backward_batch`` accumulates in reverse from ``jacobians`` over the
:class:`Rollout` of the forward pass, one row at a time; for a model
stacking P points, one point at a time, on the point's ``with_params``
model.  :func:`rollout` is the one forward loop: simulation, sweeps, the
Lyapunov burn-in and the gradient route all step through it.  The
package's cells derive no Jacobian by hand: each kind implements its step
as ``_advance``, its transpose ``_step_adjoint`` and its tangent
``step_tangent`` (A V from the step's own gates, without building A), and
``cells._Cell`` takes ``jacobians`` and the reverse loop from them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EmptyRegion, NonFiniteState
from .jsontext import FloatRows, write_json
from .params import ParameterVector

log = logging.getLogger(__name__)


class DynamicalModel:
    """Base class for concrete cells.

    Subclasses set ``state_dim``, ``input_dim``, ``output_dim`` and
    ``params`` (a :class:`ParameterVector`) and implement ``step``,
    ``output`` and ``jacobians``; :func:`rollout` steps a model through
    ``_advance``, which a model overrides to keep what its
    ``backward_batch`` reads of each step.  Models are immutable after
    construction; parameter updates go through :meth:`with_params`,
    which returns a new model.

    ``step`` and ``output`` broadcast over a leading axis of P stacked
    points: the state may be (P, N_x), the parameters (P, N_theta) (from
    ``with_params`` of a matrix), and the input (N_z,) shared by all rows
    or (P, N_z).  A sweep calls its model family once, with every point
    stacked, and steps all of them together through :func:`rollout`.
    ``step_tangent`` broadcasts the same way, with tangents V of shape
    (..., N_x, k).  ``jacobians`` is single-point.
    """

    state_dim: int
    input_dim: int
    output_dim: int
    params: ParameterVector
    name = "model"

    def step(self, x, z):
        raise NotImplementedError

    def output(self, x, z):
        raise NotImplementedError

    def jacobians(self, x, z):
        """Return (A, B, C, F) evaluated at (x, z, self.params)."""
        raise NotImplementedError

    def _advance(self, x, z):
        """The next state, and what a reverse pass keeps of the step: nothing."""
        return self.step(x, z), None

    def step_tangent(self, x, z, V):
        """``(step(x, z), A @ V)``: the next state, and the k tangent columns
        of V (..., N_x, k) carried through the step.  This default builds A
        from the single-point ``jacobians``; cells override it with a
        Jacobian-vector product that never builds A.  The state it returns
        is ``step(x, z)`` bit for bit."""
        return self.step(x, z), self.jacobians(x, z)[0] @ V

    def with_params(self, values) -> "DynamicalModel":
        """New model of the same kind with a replacement flat theta."""
        raise NotImplementedError

    def backward_batch(self, run, dY):
        """Gradient over theta of sum(dY * outputs), dY (T, B, N_y), in reverse
        over the :class:`Rollout` ``run`` of the forward pass:
        with dx = dL/dx[t+1], dtheta += B^T dx + F^T dy, then dx <- A^T dx + C^T dy.

        A model stacking P points runs (T, B, P, ...) arrays and returns one
        gradient per point, (P, N_theta): each from the point's own
        ``with_params`` model, on its slice of the run.
        """
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

    @property
    def n_params(self) -> int:
        return self.params.size

    def initial_state(self) -> np.ndarray:
        return np.zeros(self.state_dim)


@dataclass
class Trajectory:
    """Time-indexed states/outputs/inputs from one simulation.

    ``states[t+1] == step(states[t], inputs[t])`` exactly (the simulator
    stores what ``step`` returned, no recomputation).
    """

    states: np.ndarray   # (N, N_x)
    outputs: np.ndarray  # (N, N_y)
    inputs: np.ndarray   # (N, N_z)
    t0: int = 0
    _formatted: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self):
        return self.states.shape[0]

    def _rows(self):
        """States and outputs as :class:`FloatRows`, formatted once per content."""
        key = [(a.dtype.str, a.shape, a.tobytes()) for a in (self.states, self.outputs)]
        if self._formatted is None or self._formatted[0] != key:
            self._formatted = (key, FloatRows.of(self.states.tolist()),
                               FloatRows.of(self.outputs.tolist()))
        return self._formatted[1:]

    def to_csv(self, path, meta=None):
        """Write ``t,x0..,y0..`` rows; floats use shortest round-trip repr.

        The file shares its formatted numbers with :meth:`to_json`, so each
        number is formatted once for both.  Tests check both files byte for
        byte against element-by-element and ``json.dump`` writers.
        """
        states, outputs = self._rows()
        n_x, n_y = self.states.shape[1], self.outputs.shape[1]
        header = ",".join(
            ["t"] + [f"x{i}" for i in range(n_x)] + [f"y{i}" for i in range(n_y)]
        )
        lines = [f"# {k}={v}" for k, v in (meta or {}).items()]
        lines.append(header)
        columns = [map(str, range(self.t0, self.t0 + len(self)))]
        columns += [rows for rows, width in ((states, n_x), (outputs, n_y)) if width]
        lines.extend(map(",".join, zip(*columns)))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def to_json(self, path, model_name="model", theta_hash=None, seed=None, meta=None):
        """Write the trajectory document as ``json.dump(doc, indent=1)`` would."""
        states, outputs = self._rows()
        doc = {
            "format_version": 1,
            "model": model_name,
            "theta_hash": theta_hash,
            "seed": seed,
            "t0": self.t0,
            "states": states,
            "outputs": outputs,
            "inputs": self.inputs.tolist(),
        }
        doc.update(meta or {})
        write_json(path, doc)


def _as_input_array(model, inputs):
    if model.input_dim == 0:
        # a step count, or any sequence-like standing in for its steps (and rows)
        if np.isscalar(inputs):
            return np.zeros((int(inputs), 0))
        return np.zeros((len(inputs),) + np.shape(inputs)[1:-1] + (0,))
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        if model.input_dim != 1:
            raise ValueError(f"inputs must be (N, {model.input_dim})")
        inputs = inputs[:, None]
    return inputs


@dataclass
class Rollout:
    """States, outputs and inputs of P stacked simulations, time first.

    ``states`` is (n, P, N_x), ``outputs`` (n, P, N_y) and ``inputs``
    (n, N_z) when shared or (n, P, N_z) per row; without a batch
    axis the P axis is absent.  ``diverged_at[i]`` is the first step at
    which row i held a NaN/Inf and ``diverged_what[i]`` the quantity
    ("state", "output" or "input"); -1 and "" for a row that stayed
    finite.  Entries of a row from its divergence on are unspecified.
    ``kept`` lists, per step taken, what the model's ``_advance`` returned
    beside the next state (an LSTM's gates, or None): n - 1 entries, fewer
    when the loop stopped early.  ``states`` and ``kept`` are None when the
    rollout was asked not to keep states.
    """

    states: np.ndarray | None
    outputs: np.ndarray
    inputs: np.ndarray
    diverged_at: np.ndarray
    diverged_what: np.ndarray
    kept: list | None

    @property
    def diverged(self):
        return self.diverged_at >= 0

    def error(self, row=()):
        """The row's divergence as a :class:`NonFiniteState`, or None."""
        step = int(self.diverged_at[row])
        return NonFiniteState(step, self.diverged_what[row]) if step >= 0 else None


def rollout(model: DynamicalModel, x0, inputs, horizon=None, feedback=None,
            keep_states=True) -> Rollout:
    """Step every row of a stacked state and model together.

    The rows are the leading axis of ``x0``, (P, N_x), or none for a
    single (N_x,) state; the model's parameters may carry the same P axis.
    Open loop, ``inputs`` is the (n, N_z) sequence every row shares, or
    (n, P, N_z), one sequence per row.  With
    ``feedback``, ``inputs`` is the first input, (N_z,) or (P, N_z), and
    ``z[t+1] = feedback(y[t])`` over ``horizon`` steps.

    Each row records the first step at which its output, state or
    fed-back input holds a NaN/Inf, and the loop stops once every row has.
    Floating-point warnings are silenced inside: the check reports every
    non-finite value with its step, and one row's overflow must not stop
    the others.  The step is the model's ``_advance``; ``keep_states=False``
    records outputs only, for callers that need nothing else.
    """
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


def simulate(model: DynamicalModel, x0, inputs) -> Trajectory:
    """Run the model forward for ``len(inputs)`` steps.

    ``states[0]`` is ``x0``; ``outputs[t] = g(states[t], inputs[t])``.
    Raises :class:`NonFiniteState` with the offending step index as soon
    as a state or output entry becomes NaN/Inf.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.state_dim,):
        raise ValueError(f"x0 must have length {model.state_dim}")
    return _trajectory(rollout(model, x0, inputs))


def simulate_closed_loop(model, x0, z0, horizon, feedback) -> Trajectory:
    """Simulate with the output fed back into the input.

    ``z[t+1] = feedback(y[t])`` where ``y[t] = g(x[t], z[t])``; the pair
    ``(x, y)`` plays the role of an extended state, so attractors of this
    loop may differ from those of the constant-input map.
    """
    z0 = np.asarray(z0, dtype=float).reshape(model.input_dim)
    return _trajectory(rollout(model, x0, z0, horizon, feedback))


def _trajectory(run: Rollout) -> Trajectory:
    err = run.error()
    if err is not None:
        raise err
    return Trajectory(states=run.states, outputs=run.outputs, inputs=run.inputs)


def argmax_onehot_feedback(n_inputs: int):
    """Feedback map: one-hot of the largest output coordinate, per row."""
    eye = np.eye(n_inputs)

    def fb(y):
        return eye[np.argmax(y[..., :n_inputs], axis=-1)]

    return fb


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

STABILITY_MARGIN = 1e-3  # spectral-radius band treated as marginal


@dataclass
class FixedPoint:
    x_star: np.ndarray
    residual: float
    jacobian_spectral_radius: float
    stability: str  # "stable" | "unstable" | "marginal"


def _spectral_radius(A):
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def _classify_stability(rho, margin=STABILITY_MARGIN):
    if rho < 1.0 - margin:
        return "stable"
    if rho > 1.0 + margin:
        return "unstable"
    return "marginal"


def find_fixed_points(model, u_const, seeds, tol=1e-10, max_iter=100):
    """Newton iteration on r(x) = f(x, u) - x from every seed.

    Converged roots are deduplicated at distance ``10 * tol`` and
    classified by the spectral radius of A at the root.  Seeds that do
    not converge are logged and skipped; a singular Newton step falls
    back to damped fixed-point iteration.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    seeds = [np.asarray(s, dtype=float) for s in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    u = np.asarray(u_const, dtype=float).reshape(model.input_dim)
    eye = np.eye(model.state_dim)

    roots = []
    for k, seed in enumerate(seeds):
        x = seed.copy()
        converged = False
        for _ in range(max_iter):
            fx, A = model.step_tangent(x, u, eye)
            r = fx - x
            if not np.all(np.isfinite(r)):
                break
            if np.linalg.norm(r) < tol:
                converged = True
                break
            try:
                dx = np.linalg.solve(A - eye, -r)
            except np.linalg.LinAlgError:
                dx = 0.5 * r  # damped fixed-point fallback
            x = x + dx
        if not converged:
            log.debug("fixed-point seed %d did not converge", k)
            continue
        if any(np.linalg.norm(x - fp.x_star) < 10 * tol for fp in roots):
            continue
        fx, A = model.step_tangent(x, u, eye)
        rho = _spectral_radius(A)
        residual = float(np.linalg.norm(fx - x))
        roots.append(
            FixedPoint(
                x_star=x,
                residual=residual,
                jacobian_spectral_radius=rho,
                stability=_classify_stability(rho),
            )
        )
    return roots


# ---------------------------------------------------------------------------
# Lipschitz estimation
# ---------------------------------------------------------------------------


@dataclass
class Region:
    """Box over states and, optionally, parameters.

    When the parameter box is absent the transition map is treated as a
    function of the state alone (theta frozen) and only the A block
    enters the Jacobian norm; with a parameter box the joint (x, theta)
    Jacobian [A | B] is used.
    """

    x_low: np.ndarray
    x_high: np.ndarray
    theta_low: np.ndarray | None = None
    theta_high: np.ndarray | None = None

    def __post_init__(self):
        self.x_low = np.asarray(self.x_low, dtype=float)
        self.x_high = np.asarray(self.x_high, dtype=float)
        if self.theta_low is not None:
            self.theta_low = np.asarray(self.theta_low, dtype=float)
            self.theta_high = np.asarray(self.theta_high, dtype=float)

    @property
    def has_theta(self):
        return self.theta_low is not None


def estimate_lipschitz_f(model, region: Region, u_const, n_samples=200, rng_seed=0):
    """Sampled lower bound on the transition Lipschitz constant.

    Returns the max over sampled points of the spectral norm of the
    Jacobian of f: jointly in (x, theta) when the region has a parameter
    box, else in x alone.  A sampled maximum can only under-estimate the
    true supremum over the region; treat the result as an estimate.
    """
    if n_samples < 2:
        raise EmptyRegion("need at least 2 samples")
    if np.any(region.x_high < region.x_low):
        raise EmptyRegion("state box is empty")
    rng = np.random.default_rng(rng_seed)
    u = np.asarray(u_const, dtype=float).reshape(model.input_dim)
    eye = np.eye(model.state_dim)

    best = 0.0
    for _ in range(int(n_samples)):
        x = rng.uniform(region.x_low, region.x_high)
        if region.has_theta:
            theta = rng.uniform(region.theta_low, region.theta_high)
            A, B, _, _ = model.with_params(theta).jacobians(x, u)
            J = np.hstack([A, B])
        else:
            J = model.step_tangent(x, u, eye)[1]
        s = float(np.linalg.norm(J, 2))
        if s > best:
            best = s
    return best


# ---------------------------------------------------------------------------
# Lyapunov exponent
# ---------------------------------------------------------------------------


MIN_LYAPUNOV_HORIZON = 100


def lyapunov_exponent(model, x0, u_const, burn_in=100, horizon=1000):
    """Largest Lyapunov exponent of the constant-input map.

    Carries one tangent direction through the step with ``step_tangent``,
    which forms A_t v without building A_t, and re-normalizes it at every
    step (the one-column case of a QR re-orthonormalization); the average
    log stretch over the horizon is the exponent.  Burn-in steps run first,
    as one :func:`rollout`, and are discarded.
    """
    if horizon < MIN_LYAPUNOV_HORIZON:
        raise ValueError(f"horizon must be >= {MIN_LYAPUNOV_HORIZON}")
    u = np.asarray(u_const, dtype=float).reshape(model.input_dim)
    x = _trajectory(rollout(model, x0, np.tile(u, (int(burn_in) + 1, 1)))).states[-1]

    v = np.full((model.state_dim, 1), 1.0 / np.sqrt(model.state_dim))
    log_sum = 0.0
    for t in range(int(horizon)):
        x, v = model.step_tangent(x, u, v)
        r = float(np.linalg.norm(v))
        if r == 0.0 or not np.isfinite(r):
            if r == 0.0:
                return -np.inf
            raise NonFiniteState(burn_in + t, "tangent")
        log_sum += np.log(r)
        v /= r
        if not np.isfinite(x).all():
            raise NonFiniteState(burn_in + t + 1)
    return log_sum / horizon
