"""Desk-scale training harness, the two benchmark tasks and run directories.

Adam with global-norm gradient clipping and stepwise learning-rate drops;
gradients come from the cells' batched reverse pass.  A stable-LSTM run
re-projects the recurrent blocks after every optimizer step.  :func:`train`
returns the record of a run, one :class:`TrainRun`.  :func:`save_run` writes
it as a run directory and :func:`load_snapshots` reads its snapshots back:
no other module knows the directory's format.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .cells import StableLstmCell, cell_from_dict, cell_to_dict, project_stable
from .errors import ConfigError, DivergentCost, NonFiniteState
from .jsontext import write_csv, write_json
from .sensitivity import (
    SIGMOID_CROSS_ENTROPY,
    SQUARED_ERROR,
    Sequence,
    _stack_batch,
    cost_and_gradient_reverse,
)
from .statespace import rollout

# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def clip_global_norm(g, clip_norm):
    """Rescale g so its 2-norm is at most clip_norm; returns (g, pre_norm)."""
    norm = float(np.linalg.norm(g))
    if norm > clip_norm:
        g = g * (clip_norm / norm)
    return g, norm


class Adam:
    def __init__(self, n_params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)

    def step(self, theta, grad):
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad ** 2
        m_hat = self.m / (1.0 - self.beta1 ** self.t)
        v_hat = self.v / (1.0 - self.beta2 ** self.t)
        return theta - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------


class Task:
    """Bundle of sequences plus loss/metric conventions."""

    name = "task"
    loss = SQUARED_ERROR
    metric_kind = "mse"
    input_dim = 0
    output_dim = 0
    train: list
    val: list | None = None

    def evaluate(self, model):
        """The ``metric_kind`` metric of ``model``."""
        raise NotImplementedError

    def baseline(self):
        raise NotImplementedError

    def metadata(self):
        """The task's description in a run directory's ``config.json``."""
        raise NotImplementedError


def _outputs(model, sequences):
    """Outputs (T, B, N_y) of equally shaped sequences, in one rollout."""
    Z, _, _, X0 = _stack_batch(sequences, model)
    return rollout(model, X0, Z, keep_states=False).outputs


class SineTask(Task):
    """Generate a unit-amplitude sine whose frequency a constant input encodes.

    Frequencies lie on an even grid over [pi/16, pi/8]; the constant
    input is u = omega / pi (any affine encoding is equivalent up to
    first-layer weights, so the plain rescaling is used and recorded in
    run metadata).  Targets are sin(omega * (t+1)).
    """

    name = "sine"
    loss = SQUARED_ERROR
    metric_kind = "mse"
    input_dim = 1
    output_dim = 1

    def __init__(self, n_sequences=100, length=400):
        self.n_sequences = int(n_sequences)
        self.length = int(length)
        self.frequencies = np.linspace(np.pi / 16, np.pi / 8, self.n_sequences)
        t = np.arange(1, self.length + 1)
        self.train = []
        for omega in self.frequencies:
            inputs = np.full((self.length, 1), omega / np.pi)
            targets = np.sin(omega * t)[:, None]
            self.train.append(Sequence(inputs=inputs, targets=targets))
        self.val = None

    def metadata(self):
        return {
            "task": self.name,
            "n_sequences": self.n_sequences,
            "length": self.length,
            "input_encoding": "u = omega / pi",
            "frequency_range": [float(self.frequencies[0]), float(self.frequencies[-1])],
        }

    def probe_input(self):
        """An in-range constant input for steady-state diagrams."""
        return np.array([0.218 / np.pi])

    def evaluate(self, model):
        outputs = _outputs(model, self.train)
        targets = np.stack([s.targets for s in self.train], axis=1)
        return float(np.mean((outputs - targets) ** 2))

    def baseline(self):
        """MSE of the best constant predictor (the mean, which is ~0)."""
        targets = np.stack([s.targets for s in self.train], axis=1)
        return float(np.mean((targets - targets.mean()) ** 2))


SYMBOLS = ("p", "q", "a", "b", "c", "d")


class SymbolTask(Task):
    """Classify a sequence by the order of its two relevant symbols.

    Symbols are one-hot over {p, q, a, b, c, d}; the relevant pair is
    drawn from {p, q} at positions t1 in [10, 18] and t2 in [40, 49]
    (1-based), everything else is a distractor from {a, b, c, d}.  The
    label is the 2-bit code (first symbol is q?, second symbol is q?),
    scored with sigmoid cross-entropy on the final-step logits only; a
    prediction counts as correct when both bits are right.
    """

    name = "symbols"
    loss = SIGMOID_CROSS_ENTROPY
    metric_kind = "accuracy"
    input_dim = 6
    output_dim = 2

    MIN_LENGTH = 50

    def __init__(self, length=50, n_train=1000, n_val=1000, seed=0):
        if length < self.MIN_LENGTH:
            raise ValueError(
                f"length must be >= {self.MIN_LENGTH} to fit the relevant positions")
        self.length = int(length)
        self.n_train = int(n_train)
        self.n_val = int(n_val)
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        self.train = [self._sequence(rng) for _ in range(self.n_train)]
        self.val = [self._sequence(rng) for _ in range(self.n_val)]

    def _sequence(self, rng):
        sym = rng.integers(2, 6, size=self.length)  # distractors a..d
        t1 = rng.integers(10, 19) - 1               # 1-based [10, 18]
        t2 = rng.integers(40, 50) - 1               # 1-based [40, 49]
        bits = rng.integers(0, 2, size=2)           # 0 -> p, 1 -> q
        sym[t1] = bits[0]
        sym[t2] = bits[1]
        inputs = np.zeros((self.length, 6))
        inputs[np.arange(self.length), sym] = 1.0
        targets = np.zeros((self.length, 2))
        targets[-1] = bits
        mask = np.zeros(self.length, dtype=bool)
        mask[-1] = True
        return Sequence(inputs=inputs, targets=targets, mask=mask)

    def metadata(self):
        return {
            "task": self.name,
            "length": self.length,
            "n_train": self.n_train,
            "n_val": self.n_val,
            "seed": self.seed,
            "alphabet": list(SYMBOLS),
            "label_encoding": "bit k = 1 iff relevant symbol k is q",
        }

    def evaluate(self, model):
        """Validation accuracy."""
        logits = _outputs(model, self.val)[-1]         # (B, 2)
        pred = logits > 0.0
        truth = np.stack([s.targets[-1] for s in self.val]) > 0.5
        return float(np.mean(np.all(pred == truth, axis=1)))

    def baseline(self):
        """Accuracy of always predicting the most common class."""
        labels = [tuple(s.targets[-1].astype(int)) for s in self.val]
        counts = {}
        for lab in labels:
            counts[lab] = counts.get(lab, 0) + 1
        return max(counts.values()) / len(labels)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    epochs: int = 100
    lr0: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 0.25
    batch_size: int = 0            # 0 means full batch
    lr_drops: list = field(default_factory=list)   # [(epoch, factor), ...]
    snapshot_every: int = 100
    seed: int = 0
    stop_at_metric: float | None = None  # early stop once metric >= this (accuracy tasks)

    def __post_init__(self):
        if self.lr0 <= 0 or self.clip_norm <= 0:
            raise ConfigError("lr0 and clip_norm must be positive")
        if any(f <= 0 for _, f in self.lr_drops):
            raise ConfigError("lr drop factors must be positive")

    def lr_at(self, epoch):
        lr = self.lr0
        for drop_epoch, factor in self.lr_drops:
            if epoch >= drop_epoch:
                lr = lr / factor
        return lr

    def to_dict(self):
        return asdict(self)


@dataclass
class TrainRun:
    """The record of one training run: the trained cell, its per-epoch history
    and snapshots, and ``final_metric``, the task's metric of ``model`` (the
    last epoch's for an accuracy task, else one ``evaluate``)."""

    model: object            # the trained cell
    history: list            # per epoch: dict(epoch, loss, metric, grad_norm, lr)
    snapshots: list          # [(epoch, flat theta values)]
    config: TrainConfig
    task_meta: dict
    final_metric: float
    stopped_early: bool = False


def snapshot_epochs(n_epochs, every):
    """{0, every, 2*every, ...} plus the final epoch."""
    if every < 1:
        raise ValueError("every must be >= 1")
    epochs = set(range(0, n_epochs + 1, every))
    epochs.add(n_epochs)
    return sorted(epochs)


def train(model, task: Task, config: TrainConfig):
    """Adam training with clipping, drops, snapshots, and optional projection.

    Returns the :class:`TrainRun` that holds the trained cell.  An accuracy
    task is evaluated once per epoch, another task once at the end.  A
    stable LSTM is re-projected after every update; a batch that diverges
    (see :func:`~rnnlab.sensitivity.cost_and_gradient_reverse`) aborts with
    the epoch and batch recorded in the exception.
    """
    rng = np.random.default_rng(config.seed)
    data = task.train
    n = len(data)
    batch_size = config.batch_size if config.batch_size > 0 else n
    opt = Adam(model.n_params, lr=config.lr0, beta1=config.beta1,
               beta2=config.beta2, eps=config.eps)
    is_projected = isinstance(model, StableLstmCell)
    per_epoch = task.metric_kind == "accuracy"   # scored on validation every epoch
    if is_projected:
        model = project_stable(model)

    snap_at = set(snapshot_epochs(config.epochs, config.snapshot_every))
    snapshots = [(0, model.params.values.copy())]
    history = []
    stopped = False

    for epoch in range(1, config.epochs + 1):
        lr = config.lr_at(epoch)
        opt.lr = lr
        order = rng.permutation(n)
        losses = []
        pre_norms = []
        for start in range(0, n, batch_size):
            batch = [data[i] for i in order[start : start + batch_size]]
            where = f"(epoch {epoch}, batch {start // batch_size})"
            try:
                value, grad = cost_and_gradient_reverse(model, batch, task.loss)
            except NonFiniteState as err:
                raise NonFiniteState(err.step, f"{err.what} {where}") from err
            except DivergentCost as err:
                raise DivergentCost(f"{err} {where}") from err
            losses.append(value)
            grad, pre = clip_global_norm(grad, config.clip_norm)
            pre_norms.append(pre)
            theta = opt.step(model.params.values, grad)
            model = model.with_params(theta)
            if is_projected:
                model = project_stable(model)

        loss_epoch = float(np.mean(losses))
        metric = task.evaluate(model) if per_epoch else loss_epoch
        history.append({
            "epoch": epoch, "loss": loss_epoch, "metric": metric,
            "grad_norm": float(np.mean(pre_norms)), "lr": lr,
        })
        if epoch in snap_at:
            snapshots.append((epoch, model.params.values.copy()))
        if per_epoch and config.stop_at_metric is not None and metric >= config.stop_at_metric:
            stopped = True
            break

    last_epoch = history[-1]["epoch"] if history else 0
    if snapshots[-1][0] != last_epoch:
        snapshots.append((last_epoch, model.params.values.copy()))
    final_metric = history[-1]["metric"] if history and per_epoch else task.evaluate(model)
    return TrainRun(model=model, history=history, snapshots=snapshots, config=config,
                    task_meta=task.metadata(), final_metric=final_metric,
                    stopped_early=stopped)


# ---------------------------------------------------------------------------
# run directory serialization
# ---------------------------------------------------------------------------


def save_run(run: TrainRun, out_dir, extra_meta=None):
    os.makedirs(out_dir, exist_ok=True)
    snap_dir = os.path.join(out_dir, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)

    fields = ("epoch", "loss", "metric", "grad_norm", "lr")
    write_csv(os.path.join(out_dir, "history.csv"), extra_meta, ",".join(fields),
              [",".join(repr(row[k]) for k in fields) for row in run.history])

    doc = {
        "format_version": 1,
        "train": run.config.to_dict(),
        "task": run.task_meta,
        "cell": _kind(run.model),
        "stopped_early": run.stopped_early,
    }
    if extra_meta:
        doc.update(extra_meta)
    write_json(os.path.join(out_dir, "config.json"), doc)

    for epoch, values in run.snapshots:
        snap_doc = cell_to_dict(run.model.with_params(values))
        if extra_meta:
            snap_doc.update(extra_meta)
        write_json(os.path.join(snap_dir, f"epoch_{epoch}.json"), snap_doc)


def _kind(cell):
    """A cell's document without its weights: its kind and size."""
    return {k: v for k, v in cell_to_dict(cell).items() if k != "blocks"}


def load_snapshots(run_dir):
    """The [(epoch, cell)] snapshots ``snapshots/epoch_<n>.json`` of a run
    directory, by epoch.  A ConfigError names a missing directory, a file that
    is not a cell, no snapshot, or a cell of another kind or size than the first."""
    if not os.path.isdir(run_dir):
        raise ConfigError(f"run directory not found: {run_dir}")
    snap_dir = os.path.join(run_dir, "snapshots")
    snapshots = []
    try:
        for fname in os.listdir(snap_dir) if os.path.isdir(snap_dir) else ():
            if fname.startswith("epoch_") and fname.endswith(".json"):
                epoch = int(fname[len("epoch_"):-len(".json")])
                with open(os.path.join(snap_dir, fname)) as fh:
                    snapshots.append((epoch, cell_from_dict(json.load(fh))))
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"run directory {run_dir} is malformed: "
                          f"{type(err).__name__} {err}") from None
    if not snapshots:
        raise ConfigError(f"run directory {run_dir} holds no snapshots")
    snapshots.sort(key=lambda p: p[0])
    first_epoch, first = snapshots[0][0], _kind(snapshots[0][1])
    for epoch, cell in snapshots:
        if _kind(cell) != first:
            raise ConfigError(f"run directory {run_dir}: the epoch {epoch} snapshot is "
                              f"not a cell of the kind and size of epoch {first_epoch}")
    return snapshots
