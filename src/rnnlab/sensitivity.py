"""Datasets, losses, the cost and its gradient.

Gradients have one route, reverse accumulation (back-propagation through
time): a batch of sequences runs forward through one
:func:`~rnnlab.statespace.rollout`, and the model's ``backward_batch``
carries dL/dx back from the last step,

    dtheta += B[t]^T dx + F[t]^T dy[t],   dx <- A[t]^T dx + C[t]^T dy[t],

at O(N * N_x^2) per sequence; a cell carries dx back through the adjoint
of its step, never building A or B.  The landscape, the empirical
Lipschitz estimates and training all take it.  Training runs a batch of
sequences under one theta.  The landscape and the Lipschitz estimates run
a model stacking all their points: the same two passes give every point's
cost and gradient, and which points diverged.  Forward sensitivity
propagation (D[t+1] = A[t] D[t] + B[t]) and central finite differences are
kept in ``tests/helpers.py`` as the oracles the route is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit as sigmoid

from .errors import LengthMismatch, NonFiniteState
from .statespace import rollout, simulate


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


# ---------------------------------------------------------------------------
# gradients: reverse accumulation
# ---------------------------------------------------------------------------


def _stack_batch(dataset, model):
    """Inputs, targets and masks of equal-shaped sequences, time-first, and X0 (B, N_x)."""
    Z = np.stack([s.inputs for s in dataset], axis=1)
    Y = np.stack([s.targets for s in dataset], axis=1)
    M = np.stack([s.mask for s in dataset], axis=1)
    X0 = np.stack([s.start_state(model) for s in dataset])
    return Z, Y, M, X0


def _batches(dataset, model):
    """Each group of equally shaped sequences, stacked by :func:`_stack_batch`,
    with the places of its sequences in the dataset."""
    groups = {}
    for k, s in enumerate(dataset):
        groups.setdefault((s.inputs.shape, s.targets.shape), []).append(k)
    for ks in groups.values():
        yield ks, _stack_batch([dataset[k] for k in ks], model)


def _loss_weights(M, n_sequences):
    """Per-step weights 1/(n_sequences * n_masked) that make the weighted loss sum the cost."""
    n_masked = M.sum(axis=0).astype(float)          # per sequence
    if np.any(n_masked == 0):
        raise LengthMismatch("mask selects no steps")
    return M / (n_sequences * n_masked[None, :])


def cost_and_gradient_reverse(model, dataset, loss=SQUARED_ERROR):
    """The cost and its gradient, from one :func:`~rnnlab.statespace.rollout`
    and one ``backward_batch`` per group of equally shaped sequences.

    Each sequence keeps its weight in :func:`cost`.  Raises
    :class:`NonFiniteState` with the step and quantity of the first
    divergence, or when the gradient is NaN/Inf.

    A model stacking P points (``with_params`` of a (P, N_theta) matrix)
    runs all of them in the same two passes and returns their costs (P,),
    gradients (P, N_theta) and a mask (P,) of the rows that diverged: a
    NaN/Inf state, output or gradient, or a cost that
    :func:`divergent_costs` rejects.  It raises for none of them; their
    gradients are NaN.  Each cost is :func:`cost` of its point alone,
    summed the same way; each gradient is that of its point up to rounding.
    """
    dataset = _as_dataset(dataset)
    if model.params.values.ndim == 2:
        return _stacked_cost_and_gradient(model, dataset, loss)
    value, grad = 0.0, np.zeros(model.n_params)
    for _, (Z, Y, M, X0) in _batches(dataset, model):
        run = rollout(model, X0, Z)                     # outputs (T, B, N_y)
        if run.outputs.shape[-1] != Y.shape[-1]:
            raise LengthMismatch(f"{run.outputs.shape[-1]} outputs, {Y.shape[-1]} targets")
        if run.diverged.any():
            raise run.error(np.argmin(np.where(run.diverged, run.diverged_at, len(Z))))
        w = _loss_weights(M, len(dataset))
        value += float(np.sum(w * loss.value(run.outputs, Y)))
        grad += model.backward_batch(run, w[:, :, None] * loss.derivative(run.outputs, Y))
    if not np.all(np.isfinite(grad)):
        raise NonFiniteState(0, "gradient")
    return value, grad


DIVERGENT_COST_BOUND = 1e100
"""Costs above this count as divergent, like non-finite ones.

The package's cells have bounded hidden states (|h| <= 1 under tanh and
sigmoid gating) and affine readouts, so a squared-error cost stays below
(|W_out| sqrt(H) + |b_out| + |y|)^2: reaching 1e100 takes an output
residual of 1e50, which only an expanding state produces.  The bound
also leaves room in float64 (max ~1.8e308) for what a sweep derives from
a point: a gradient that grows like the residual times its sensitivity,
and Lipschitz ratios of such values over pair distances down to 1e-6.
"""


def divergent_costs(v):
    """Where a cost is non-finite or above :data:`DIVERGENT_COST_BOUND`."""
    return ~np.isfinite(v) | (v > DIVERGENT_COST_BOUND)


def _stacked_cost_and_gradient(model, dataset, loss, with_gradient=True):
    """:func:`cost_and_gradient_reverse` of a stacked model, over (T, B, P, ...)
    arrays; without ``with_gradient`` its forward half, with gradients None.
    A group whose rows all diverged stopped early and is not run backward."""
    P = model.params.values.shape[0]
    costs = [None] * len(dataset)
    grad = np.zeros((P, model.n_params)) if with_gradient else None
    diverged = np.zeros(P, dtype=bool)
    with np.errstate(all="ignore"):  # a row that overflows must not stop the others
        for ks, (Z, Y, M, X0) in _batches(dataset, model):
            X0 = np.broadcast_to(X0[:, None], (len(ks), P, model.state_dim))
            run = rollout(model, X0, Z[:, :, None], keep_states=with_gradient)
            for b, k in enumerate(ks):
                costs[k] = sequence_costs(run.outputs[:, b], dataset[k], loss)
            diverged |= run.diverged.any(axis=0)
            if with_gradient and not run.diverged.all():
                w = _loss_weights(M, len(dataset))[:, :, None, None]
                grad += model.backward_batch(
                    run, w * loss.derivative(run.outputs, Y[:, :, None]))
        values = mean_over_sequences(costs)
    diverged |= divergent_costs(values)
    if with_gradient:
        diverged |= ~np.isfinite(grad).all(axis=1)
        grad[diverged] = np.nan
    return values, grad, diverged


def gradient(model, dataset, loss=SQUARED_ERROR):
    """Exact cost gradient (length N_theta), by reverse accumulation."""
    return cost_and_gradient_reverse(model, dataset, loss)[1]
