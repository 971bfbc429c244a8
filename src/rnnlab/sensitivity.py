"""Cost, exact gradients, and the finite-difference oracle.

Gradients come from forward-propagated sensitivity matrices

    D[t+1] = A[t] D[t] + B[t],   D[0] = 0
    J[t]   = C[t] D[t] + F[t]

so the gradient of the averaged loss is (1/n) * sum_t J[t]^T l'(yhat[t], y[t]).
Forward propagation costs O(N * N_x * N_theta) per sequence, which is fine
for the analyses here; the training harness uses the cells' batched reverse
pass (``gradient_reverse``), verified against the forward route in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit as sigmoid

from .errors import LengthMismatch, NonFiniteState
from .statespace import simulate, _as_input_array


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


@dataclass
class Sequence:
    """One training sequence: inputs, aligned targets, and a loss mask.

    ``targets[t]`` is compared against the simulated output at step t;
    steps with ``mask[t] == False`` do not enter the cost (used by the
    classification task, which scores the final step only).  ``x0`` is
    the initial state the simulation starts from (zeros when omitted).
    """

    inputs: np.ndarray   # (N, N_z)
    targets: np.ndarray  # (N, N_y)
    mask: np.ndarray | None = None
    x0: np.ndarray | None = None

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.targets.ndim == 1:
            self.targets = self.targets[:, None]
        if self.mask is None:
            self.mask = np.ones(len(self.targets), dtype=bool)
        else:
            self.mask = np.asarray(self.mask, dtype=bool)
        if len(self.targets) != len(self.mask):
            raise LengthMismatch("targets and mask lengths differ")
        if self.x0 is not None:
            self.x0 = np.asarray(self.x0, dtype=float)

    def __len__(self):
        return len(self.targets)

    def start_state(self, model):
        return model.initial_state() if self.x0 is None else self.x0


def _as_dataset(dataset):
    if isinstance(dataset, Sequence):
        return [dataset]
    dataset = list(dataset)
    if not dataset:
        raise LengthMismatch("dataset is empty")
    return dataset


# ---------------------------------------------------------------------------
# loss functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LossFunction:
    """Pointwise loss with its derivative in the first argument.

    ``value`` reduces over the last (output) axis and broadcasts over any
    leading ones.
    """

    kind: str
    value: callable = field(repr=False)
    derivative: callable = field(repr=False)


def _sq_value(yhat, y):
    d = yhat - y
    return np.sum(d * d, axis=-1)


def _sq_derivative(yhat, y):
    return 2.0 * yhat - 2.0 * y


def _softplus(x):
    return np.logaddexp(0.0, x)


def _xent_value(yhat, y):
    # -y log sigmoid(yhat) - (1-y) log(1 - sigmoid(yhat)), stable form
    return np.sum(y * _softplus(-yhat) + (1.0 - y) * _softplus(yhat), axis=-1)


def _xent_derivative(yhat, y):
    return sigmoid(yhat) - y


SQUARED_ERROR = LossFunction("squared_error", _sq_value, _sq_derivative)
SIGMOID_CROSS_ENTROPY = LossFunction(
    "sigmoid_cross_entropy", _xent_value, _xent_derivative
)

LOSSES = {loss.kind: loss for loss in (SQUARED_ERROR, SIGMOID_CROSS_ENTROPY)}


# ---------------------------------------------------------------------------
# forward sensitivity propagation
# ---------------------------------------------------------------------------


@dataclass
class SensitivityState:
    D: np.ndarray  # (N_x, N_theta) state sensitivity
    J: np.ndarray  # (N_y, N_theta) output sensitivity


def propagate_sensitivity(model, x0, inputs):
    """Forward-propagate parameter sensitivities along one trajectory.

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
        A, B, C, F = model.jacobians(traj.states[t], inputs[t])
        J = C @ D + F
        if not np.all(np.isfinite(J)):
            raise NonFiniteState(t, "output sensitivity")
        out.append(SensitivityState(D=D.copy(), J=J))
        if t + 1 < n:
            D = A @ D + B
            if not np.all(np.isfinite(D)):
                raise NonFiniteState(t + 1, "state sensitivity")
    return out


# ---------------------------------------------------------------------------
# cost and gradients
# ---------------------------------------------------------------------------


def sequence_costs(outputs, seq, loss):
    """Masked average loss of simulated outputs (n, *rows, N_y) per row.

    Steps are summed in time order, so every row of a stacked simulation
    gets exactly the cost a single simulation of that row gets.
    """
    if outputs.shape[-1] != seq.targets.shape[1]:
        raise LengthMismatch(
            f"model outputs {outputs.shape[-1]} values, targets have "
            f"{seq.targets.shape[1]}"
        )
    idx = np.flatnonzero(seq.mask)
    if idx.size == 0:
        raise LengthMismatch("mask selects no steps")
    rows = outputs.shape[1:-1]
    targets = seq.targets[idx].reshape((idx.size,) + (1,) * len(rows) + (-1,))
    if idx.size < len(outputs):
        outputs = outputs[idx]
    per_step = loss.value(outputs, targets)
    return np.add.accumulate(per_step, axis=0)[-1] / idx.size


def mean_over_sequences(costs):
    """Uniform average of per-sequence costs, summed in dataset order."""
    return np.add.accumulate(np.asarray(costs), axis=0)[-1] / len(costs)


def cost(model, dataset, loss=SQUARED_ERROR):
    """Masked per-sequence average loss, averaged uniformly over sequences."""
    dataset = _as_dataset(dataset)
    costs = [sequence_costs(simulate(model, s.start_state(model), s.inputs).outputs,
                            s, loss) for s in dataset]
    return float(mean_over_sequences(costs))


def _sequence_gradient(model, seq, loss):
    x0 = seq.start_state(model)
    traj = simulate(model, x0, seq.inputs)
    sens = propagate_sensitivity(model, x0, seq.inputs)
    idx = np.flatnonzero(seq.mask)
    g = np.zeros(model.n_params)
    for t in idx:
        g += sens[t].J.T @ loss.derivative(traj.outputs[t], seq.targets[t])
    return g / idx.size


def gradient(model, dataset, loss=SQUARED_ERROR):
    """Exact cost gradient via forward sensitivities (column of length N_theta)."""
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
# reverse accumulation (training fast path)
# ---------------------------------------------------------------------------


def _stack_batch(dataset, model=None):
    shapes = {(s.inputs.shape, s.targets.shape) for s in dataset}
    if len(shapes) != 1:
        raise LengthMismatch("batched gradients need uniformly shaped sequences")
    Z = np.stack([s.inputs for s in dataset])        # (B, T, N_z)
    Y = np.stack([s.targets for s in dataset])       # (B, T, N_y)
    M = np.stack([s.mask for s in dataset])          # (B, T)
    X0 = None
    if model is not None:
        X0 = np.stack([s.start_state(model) for s in dataset])
    return Z, Y, M, X0


def cost_and_gradient_reverse(model, dataset, loss=SQUARED_ERROR):
    """Cost and gradient via the cell's batched backward pass.

    Equivalent to :func:`gradient` (checked to ~1e-8 relative in tests)
    but costs O(N * N_x^2) per sequence instead of O(N * N_x * N_theta).
    Requires a cell implementing ``forward_batch``/``backward_batch``.
    """
    dataset = _as_dataset(dataset)
    Z, Y, M, X0 = _stack_batch(dataset, model)
    B = Z.shape[0]
    hs, outputs, cache = model.forward_batch(X0, Z)     # outputs: (T, B, N_y)
    if not np.all(np.isfinite(outputs)):
        bad = np.argwhere(~np.isfinite(outputs))
        raise NonFiniteState(int(bad[0][0]), "output")

    Yt = np.swapaxes(Y, 0, 1)                           # (T, B, N_y)
    Mt = np.swapaxes(M, 0, 1)                           # (T, B)
    n_masked = M.sum(axis=1).astype(float)              # per sequence
    if np.any(n_masked == 0):
        raise LengthMismatch("mask selects no steps")

    # per-sequence weight 1/(B * n_masked_b) makes the sum the dataset cost
    w = Mt / (B * n_masked[None, :])
    value = float(np.sum(w * loss.value(outputs, Yt)))
    dY = w[:, :, None] * loss.derivative(outputs, Yt)

    grad = model.backward_batch(cache, dY)
    if not np.all(np.isfinite(grad)):
        raise NonFiniteState(0, "gradient")
    return value, grad


def batch_outputs(model, dataset):
    """Batched simulation outputs, shape (B, T, N_y)."""
    dataset = _as_dataset(dataset)
    Z, _, _, X0 = _stack_batch(dataset, model)
    _, outputs, _ = model.forward_batch(X0, Z)
    return np.swapaxes(outputs, 0, 1)
