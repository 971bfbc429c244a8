"""Datasets, losses, the cost and its gradient.

The cost, its gradient and "diverged" come from one pass over the rows of
a model: () under a shared theta, (P,) under a stacked one.  Each group of
equally shaped sequences runs forward through one
:func:`~rnnlab.statespace.rollout`, and the model's ``backward_batch``
carries dL/dx back from the last step,

    dtheta += B[t]^T dx + F[t]^T dy[t],   dx <- A[t]^T dx + C[t]^T dy[t],

at O(N * N_x^2) per sequence, through the adjoint of each step, never
building A or B.  A cell walks back in blocks of steps: per step only the
cotangent recurrence, per block the weight gradients of all the block's
steps and sequences in one product.  :func:`cost` is the forward half of
the pass over a one-row stack; training takes it under one theta, and the
landscape and the Lipschitz estimates over all their points stacked.  The
one divergence rule: a point diverges when a state, output or input is
NaN/Inf, when its cost is non-finite or above :data:`DIVERGENT_COST_BOUND`,
or when its gradient is NaN/Inf.  A single point raises for it, a stacked
row is marked.  The cost one simulation per sequence, forward sensitivity
propagation (D[t+1] = A[t] D[t] + B[t]) and central finite differences are
kept in ``tests/helpers.py`` as the oracles the pass is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit as sigmoid

from .errors import DivergentCost, LengthMismatch, NonFiniteState
from .statespace import rollout


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
# the cost and its gradient: one pass
# ---------------------------------------------------------------------------


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


def _pass(model, dataset, loss, with_gradient):
    """The cost and gradient of every row of ``model``, with its divergence.

    The rows are () under a shared theta and (P,) under a stacked one.  Each
    group of equally shaped sequences runs through one
    :func:`~rnnlab.statespace.rollout` over (T, B, *rows) arrays and, with
    ``with_gradient``, one ``backward_batch``.  A sequence's cost is its
    masked losses summed in time order by one ``np.add.accumulate`` (a
    masked-out step adds 0.0), over the number of masked steps; the cost is
    the mean over sequences, summed in dataset order.  Returns per row the
    cost, the gradient (None without ``with_gradient``; NaN where the row
    diverged, by the rule of :func:`cost_and_gradient_reverse`), whether it
    diverged, and the step and quantity of its first NaN/Inf state, output
    or input (-1 and "" for none).
    """
    rows = model.params.values.shape[:-1]
    lead = (1,) * len(rows)
    costs = np.empty((len(dataset),) + rows)
    at = np.empty((len(dataset),) + rows, dtype=int)
    what = np.empty((len(dataset),) + rows, dtype=object)
    grad = np.zeros(rows + (model.n_params,)) if with_gradient else None
    dead = np.zeros(rows, dtype=bool)
    with np.errstate(all="ignore"):  # a row that overflows must not stop the others
        for ks, (Z, Y, M, X0) in _batches(dataset, model):
            if Y.shape[-1] != model.output_dim:
                raise LengthMismatch(
                    f"model outputs {model.output_dim} values, targets have {Y.shape[-1]}")
            n_masked = M.sum(axis=0).astype(float)
            if not n_masked.all():
                raise LengthMismatch("mask selects no steps")
            X0 = np.broadcast_to(X0.reshape((len(ks),) + lead + (-1,)),
                                 (len(ks),) + rows + (model.state_dim,))
            Z, Y = (a.reshape(a.shape[:2] + lead + a.shape[2:]) for a in (Z, Y))
            run = rollout(model, X0, Z, keep_states=with_gradient)
            per_step = np.where(M.reshape(M.shape + lead), loss.value(run.outputs, Y), 0.0)
            costs[ks] = np.add.accumulate(per_step)[-1] / n_masked.reshape((-1,) + lead)
            at[ks], what[ks] = run.diverged_at, run.diverged_what
            dead |= run.diverged.any(axis=0)
            if with_gradient and not dead.all():
                w = (M / (len(dataset) * n_masked)).reshape(M.shape + lead + (1,))
                grad += model.backward_batch(run, w * loss.derivative(run.outputs, Y))
        values = np.add.accumulate(costs)[-1] / len(dataset)
    first = np.where(at >= 0, at, np.iinfo(int).max).argmin(axis=0)[None]
    step = np.take_along_axis(at, first, 0)[0]
    diverged = (step >= 0) | divergent_costs(values)
    if with_gradient:
        diverged |= ~np.isfinite(grad).all(axis=-1)
        grad[diverged] = np.nan
    return values, grad, diverged, step, np.take_along_axis(what, first, 0)[0]


def _one_row(values, grad, step, what):
    """The cost and gradient of a one-row pass, or the error its divergence raises."""
    value, step, what = (np.ravel(a)[0] for a in (values, step, what))
    if step >= 0:
        raise NonFiniteState(step, what)
    if divergent_costs(value):
        raise DivergentCost(f"cost {float(value)!r} exceeds {DIVERGENT_COST_BOUND:g}")
    if grad is not None and not np.isfinite(grad).all():
        raise NonFiniteState(0, "gradient")
    return float(value), grad


def cost(model, dataset, loss=SQUARED_ERROR):
    """Masked per-sequence average loss, averaged uniformly over sequences.

    The forward half of the pass over the one-row stack of ``model``, so bit
    for bit the cost of this point in a stacked sweep; raises
    :class:`NonFiniteState` or :class:`DivergentCost` as
    :func:`cost_and_gradient_reverse` does."""
    values, _, _, step, what = _pass(model.with_params(model.params.values[None]),
                                     _as_dataset(dataset), loss, False)
    return _one_row(values, None, step, what)[0]


def cost_and_gradient_reverse(model, dataset, loss=SQUARED_ERROR):
    """The cost and its gradient, from one :func:`~rnnlab.statespace.rollout`
    and one ``backward_batch`` per group of equally shaped sequences.

    Divergence has one rule, the same for every caller: a point diverges
    when a state, output or input of its simulation is NaN/Inf, when its
    cost is non-finite or above :data:`DIVERGENT_COST_BOUND`, or when its
    gradient is NaN/Inf.  Under one theta the pass raises for it:
    :class:`NonFiniteState` with the step and quantity of the first
    non-finite value, :class:`DivergentCost` for the cost, and
    ``NonFiniteState(0, "gradient")`` for the gradient.

    A model stacking P points (``with_params`` of a (P, N_theta) matrix)
    runs all of them in the same two passes and returns their costs (P,),
    gradients (P, N_theta) and a mask (P,) of the rows that diverged.  It
    raises for none of them; their gradients are NaN.  Each cost is
    :func:`cost` of its point alone, bit for bit; each gradient is that of
    its point up to rounding.
    """
    values, grad, diverged, step, what = _pass(model, _as_dataset(dataset), loss, True)
    if model.params.values.ndim == 2:
        return values, grad, diverged
    return _one_row(values, grad, step, what)


def gradient(model, dataset, loss=SQUARED_ERROR):
    """Exact cost gradient (length N_theta), by reverse accumulation."""
    return cost_and_gradient_reverse(model, dataset, loss)[1]
