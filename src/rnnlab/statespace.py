"""Discrete-time dynamical-system contract and generic machinery.

A model is the pair of maps

    x[t+1] = f(x[t], z[t]; theta)      (state transition)
    y[t]   = g(x[t], z[t]; theta)      (output)

and everything downstream (simulation, fixed points, Lyapunov exponents,
gradients, bifurcation diagrams, smoothness estimates) is built on its
derivatives in two modes, neither of which forms a Jacobian matrix:
``step_tangent`` carries tangent vectors forward through the state
Jacobian A = df/dx, as the products A V, and ``backward_batch`` carries
a cotangent back through the adjoint of each step, giving the gradient
over theta.  ``_advance`` is the step and what the adjoint needs of it.
:func:`rollout` is the one forward loop: simulation, sweeps, the
Lyapunov orbit and the gradient route all step through it, and
``rollout(..., feedback=)`` is the closed loop, each output fed back as
the next input.  An open loop that keeps its states reads them out and
checks them every :data:`BLOCK` steps; a closed loop, or one that keeps no
states, every step.  A row stops at its first non-finite state, input or
output, which it reports with its step and quantity.  The Lyapunov
exponent carries its tangent through A_t built for a block of orbit
states at once, or for N_x above :data:`BATCHED_JACOBIAN_MAX_DIM`, through
one ``step_tangent`` per step.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyRegion, NonFiniteState
from .jsontext import FloatRows, write_csv, write_json
from .params import ParameterVector

log = logging.getLogger(__name__)


class DynamicalModel:
    """Base class for concrete cells.

    Subclasses set ``state_dim``, ``input_dim``, ``output_dim`` and
    ``params`` (a :class:`ParameterVector`) and implement ``step``,
    ``output``, ``_advance``, ``step_tangent``, ``backward_batch`` and
    ``with_params``.  :func:`rollout` steps a model through ``_advance``,
    which returns what its ``backward_batch`` reads of each step.  Models
    are immutable after construction; parameter updates go through
    :meth:`with_params`, which returns a new model.

    ``step`` and ``output`` broadcast over a leading axis of P stacked
    points: the state may be (P, N_x), the parameters (P, N_theta) (from
    ``with_params`` of a matrix), and the input (N_z,) shared by all rows
    or (P, N_z).  A sweep calls its model family once, with every point
    stacked, and steps all of them together through :func:`rollout`.
    ``step_tangent`` broadcasts the same way, with tangents V of shape
    (..., N_x, k), or (N_x, k) shared by all rows.
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

    def _advance(self, x, z):
        """The next state, and what ``backward_batch`` needs of the step."""
        raise NotImplementedError

    def step_tangent(self, x, z, V):
        """``(step(x, z), A V)``: the next state, bit for bit, and the k
        tangent columns V (..., N_x, k) carried through the step by the
        state Jacobian A = df/dx, without building A."""
        raise NotImplementedError

    def backward_batch(self, run, dY):
        """Gradient over theta of sum(dY * outputs), dY (T, *rows, N_y), by
        the adjoint of each step, in reverse over the :class:`Rollout`
        ``run`` of the forward pass; (P, N_theta) for P stacked points."""
        raise NotImplementedError

    def with_params(self, values) -> "DynamicalModel":
        """New model of the same kind with a replacement flat theta."""
        raise NotImplementedError

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
        columns = [map(str, range(len(self)))]
        columns += [rows for rows, width in ((states, n_x), (outputs, n_y)) if width]
        write_csv(path, meta, header, map(",".join, zip(*columns)))

    def to_json(self, path, model_name="model", theta_hash=None, meta=None):
        """Write the trajectory document as ``json.dump(doc, indent=1)`` would;
        ``meta`` fills its ``seed`` and adds its other keys at the end."""
        states, outputs = self._rows()
        doc = {
            "format_version": 1,
            "model": model_name,
            "theta_hash": theta_hash,
            "seed": None,
            "t0": 0,  # the index of the first row, kept in format version 1
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


BLOCK = 32  # steps per readout and finiteness check of an open loop that keeps states
_QUANTITIES = np.array(["state", "input", "output"], dtype=object)  # checked in this order


def rollout(model: DynamicalModel, x0, inputs, horizon=None, feedback=None,
            keep_states=True) -> Rollout:
    """Step every row of a stacked state and model together.

    The rows are the leading axis of ``x0``, (P, N_x), or none for a
    single (N_x,) state; the model's parameters may carry the same P axis.
    Open loop, ``inputs`` is the (n, N_z) sequence every row shares, or
    (n, P, N_z), one sequence per row.  With
    ``feedback``, ``inputs`` is the first input, (N_z,) or (P, N_z), and
    ``z[t+1] = feedback(y[t])`` over ``horizon`` steps.

    Each row records the first step at which its state, fed-back input or
    output, checked in that order, holds a NaN/Inf (so a non-finite readout
    of a finite state stops the row too), and the loop stops once every row
    has; what a per-step loop would not have reached by then reads NaN.  An
    open loop that keeps its states stores each state and takes the
    model's ``_advance``; every :data:`BLOCK` steps it reads the block out
    with one ``model.output`` and checks it.  With ``feedback`` (the next
    input needs the output) or ``keep_states=False`` (no states to read out
    from) the block is one step, and no buffer is allocated.  Floating-point
    warnings are silenced inside: the check reports every non-finite value
    with its step, and one row's overflow must not stop the others.
    ``keep_states=False`` records outputs only.
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
    code = np.full(rows, -1)  # index into _QUANTITIES of what diverged
    alive = np.ones(rows, dtype=bool)
    block = BLOCK if keep_states and feedback is None else 1
    checked = [0, 2] if feedback is None else [0, 1, 2]

    def check(start, values):
        """Record each live row's first non-finite value among ``values``, the
        state, [input,] and output of the steps from ``start`` (with a leading
        step axis in a block); False once every row has diverged."""
        if all(np.isfinite(v).all() for v in values):
            return True
        ok = np.stack([np.isfinite(v).all(axis=-1).reshape((-1,) + rows)
                       for v in values], axis=1)
        if start == 0:
            ok[0, :-1] = True  # x0 and the first input are given, not computed
        bad = ~ok.reshape((-1,) + rows)  # step-major, then in checking order
        new = alive & bad.any(axis=0)
        first = np.asarray(bad.argmax(axis=0))[new]
        diverged_at[new] = start + first // len(values)
        code[new] = np.take(checked, first % len(values))
        alive[new] = False
        return alive.any()

    with np.errstate(all="ignore"):
        start = 0
        for t in range(n):
            if keep_states:
                states[t] = x
            if z_shape is None:
                z = inputs[t]
            else:
                inputs[t] = z
            if block == 1:
                y = outputs[t] = model.output(x, z)
                if not check(t, (x, y) if z_shape is None else (x, z, y)):
                    break
            elif t + 1 - start == block or t + 1 == n:
                xs, zs, ys = states[start:t + 1], inputs[start:t + 1], outputs[start:t + 1]
                # a single state is read out as one row, so that a linear
                # readout rounds as the per-step vector-matrix product does
                xr = xs if rows else xs[:, None]
                zs = zs.reshape(zs.shape[:1] + (1,) * (xr.ndim - zs.ndim) + zs.shape[1:])
                ys[...] = model.output(xr, zs).reshape(ys.shape)
                if not check(start, (xs, ys)):
                    break
                start = t + 1
            if t + 1 == n:
                break
            x, step_kept = model._advance(x, z)
            if keep_states:
                kept.append(step_kept)
            if z_shape is not None:
                z = np.asarray(feedback(y), dtype=float).reshape(z_shape)
    if not alive.any():
        # stopped at the last row's divergence: clear what was computed past it
        step, what = divmod(int((3 * diverged_at + code).max()), 3)
        end = step + (what == 2)  # an output is stored with its step's state
        outputs[end:] = np.nan
        if keep_states:
            states[end:] = np.nan
            del kept[step:]
        if z_shape is not None:
            inputs[end:] = np.nan
    diverged_what = np.where(code >= 0, _QUANTITIES[code], "").astype(object)
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
    """Box over states."""

    x_low: np.ndarray
    x_high: np.ndarray

    def __post_init__(self):
        self.x_low = np.asarray(self.x_low, dtype=float)
        self.x_high = np.asarray(self.x_high, dtype=float)


def estimate_lipschitz_f(model, region: Region, u_const, n_samples=200, rng_seed=0):
    """Sampled lower bound on the transition Lipschitz constant.

    Returns the max over sampled states of the spectral norm of the state
    Jacobian A of f, theta frozen.  A sampled maximum can only
    under-estimate the true supremum over the region; treat the result as
    an estimate.
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
        s = float(np.linalg.norm(model.step_tangent(x, u, eye)[1], 2))
        if s > best:
            best = s
    return best


# ---------------------------------------------------------------------------
# Lyapunov exponent
# ---------------------------------------------------------------------------


MIN_LYAPUNOV_HORIZON = 100
JACOBIAN_BLOCK = 512  # orbit states per batched Jacobian build: 4 MB of A_t at N_x = 32
# Up to this state size the A_t are built a block at a time: N_x tangent
# columns per step, but one numpy call per block, against one call per step
# for one column through ``step_tangent``.  Minimums of 12 interleaved runs
# of an LSTM over 500 + 5,000 steps, batched / per step: N_x = 4: 71 / 162
# ms, 16: 85 / 160 ms, 32: 144 / 164 ms, 40: 207 / 179 ms, 64: 411 / 196 ms.
BATCHED_JACOBIAN_MAX_DIM = 32


def lyapunov_exponent(model, x0, u_const, burn_in=100, horizon=1000):
    """Largest Lyapunov exponent of the constant-input map.

    One tangent vector v is carried through the state Jacobians A_t of the
    horizon and re-normalized at every step (the one-column case of the QR
    method of Benettin et al., 1980); the mean log stretch is the exponent,
    -inf once v vanishes, and a non-finite v at step t raises
    ``NonFiniteState(t, "tangent")``.  The burn-in steps are discarded.
    Up to N_x = :data:`BATCHED_JACOBIAN_MAX_DIM`, the orbit of
    ``burn_in + horizon + 1`` steps is one :func:`rollout`, whose first
    non-finite state or output raises with its step and quantity after the
    tangent steps before it; the A_t of each :data:`JACOBIAN_BLOCK` orbit
    states come from one ``step_tangent(X, u, I)``, and each step is
    v <- A_t v.  Above it, the burn-in is one :func:`rollout` and each step
    carries v and the state through ``step_tangent``, raising at a
    non-finite state.
    """
    if horizon < MIN_LYAPUNOV_HORIZON:
        raise ValueError(f"horizon must be >= {MIN_LYAPUNOV_HORIZON}")
    burn_in, horizon = int(burn_in), int(horizon)
    u = np.asarray(u_const, dtype=float).reshape(model.input_dim)
    n_x = model.state_dim
    v = np.full((n_x, 1), 1.0 / np.sqrt(n_x))
    log_sum = 0.0
    with np.errstate(all="ignore"):
        if n_x > BATCHED_JACOBIAN_MAX_DIM:
            x = _trajectory(rollout(model, x0, np.tile(u, (burn_in + 1, 1)))).states[-1]
            for t in range(burn_in, burn_in + horizon):
                x, v = model.step_tangent(x, u, v)
                r = float(np.linalg.norm(v))
                if not 0.0 < r < math.inf:
                    if r == 0.0:
                        return -np.inf
                    raise NonFiniteState(t, "tangent")
                log_sum += np.log(r)
                v /= r
                if not np.isfinite(x).all():
                    raise NonFiniteState(t + 1)
            return log_sum / horizon

        run = rollout(model, x0, np.tile(u, (burn_in + horizon + 1, 1)))
        err = run.error()
        end = burn_in + horizon if err is None else err.step
        if end <= burn_in:
            raise err
        v, eye = v[:, 0], np.eye(n_x)
        for b in range(burn_in, end, JACOBIAN_BLOCK):
            A = model.step_tangent(run.states[b:min(b + JACOBIAN_BLOCK, end)], u, eye)[1]
            for t, A_t in enumerate(A, b):
                v = A_t @ v
                r = math.sqrt(v @ v)  # as np.linalg.norm, without its overhead
                if not 0.0 < r < math.inf:
                    if r == 0.0:
                        return -np.inf
                    raise NonFiniteState(t, "tangent")
                log_sum += np.log(r)
                v /= r
    if err is not None:
        raise err
    return log_sum / horizon
