"""Attractor and information analysis.

Bifurcation diagrams collect the values a scalar projection of the
steady state visits (after a burn-in) as a function of a sweep scalar:
either a parameter-ray coordinate or a training epoch.  One sweep,
:func:`bifurcation_sweep`, serves both: its model stacks one row per sweep
value, the s * theta points of a ray or the snapshots of a run.
Attractors are classified from those samples; entropy evolution is
computed analytically for linear-Gaussian propagation, where the per-step
increment is exactly log|det A|.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularMatrix, TooFewSamples
from .jsontext import write_csv
from .statespace import rollout

# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Projection:
    """Named map from (state, output) to a scalar.

    ``fn`` reduces the last axis and broadcasts over leading ones, so one
    call projects every step of every row of a stacked simulation.
    """

    name: str
    fn: callable = field(repr=False)

    def __call__(self, state, output):
        return np.asarray(self.fn(state, output), dtype=float)


def make_projection(spec) -> Projection:
    """Built-in projections: ``state_mean``, ``output`` (output 0) and ``output:<i>``
    for a decimal ``i``; any other spec is a ``ValueError``."""
    if isinstance(spec, Projection):
        return spec
    if spec == "state_mean":
        return Projection("state_mean", lambda x, y: np.mean(x, axis=-1))
    kind, sep, index = spec.partition(":")
    if kind == "output" and (not sep or index.isdecimal()):
        idx = int(index or 0)
        return Projection(f"output:{idx}", lambda x, y: y[..., idx])
    raise ValueError(f"expected state_mean, output or output:<i>, got {spec!r}")


# ---------------------------------------------------------------------------
# bifurcation diagrams
# ---------------------------------------------------------------------------


@dataclass
class SteadyStateSamples:
    """Recorded steady-state points for one sweep value.

    A divergent sweep value records no points, only the step at which its
    simulation first held a NaN/Inf.
    """

    sweep_value: float
    p: np.ndarray        # projected values, one per recorded step
    dp: np.ndarray       # first differences p[t] - p[t-1]
    diverged_step: int | None = None

    @property
    def diverged(self):
        return self.diverged_step is not None


@dataclass
class BifurcationDiagram:
    sweep: list
    samples: list            # list[SteadyStateSamples], one per sweep value
    config: dict

    def to_csv(self, path, meta=None):
        rows = []
        for s in self.samples:
            sweep = repr(float(s.sweep_value))
            if s.diverged:
                rows.append(f"{sweep},diverged,diverged")
            else:
                rows += [f"{sweep},{p!r},{dp!r}"
                         for p, dp in zip(s.p.tolist(), s.dp.tolist())]
        write_csv(path, meta, "sweep,p,dp", rows)


def bifurcation_sweep(model, sweep, u_const, x0, burn_in=100, record=100,
                      projection="output:0", feedback=None) -> BifurcationDiagram:
    """Steady-state samples of every row of a model stacking the sweep.

    Row i of ``model`` is the point of sweep value ``sweep[i]``: s * theta
    on a parameter ray, or the snapshot of a training epoch.  All rows are
    simulated together, ``burn_in + record`` steps from x0, under the
    constant input ``u_const``, or, with ``feedback``, in the closed loop
    ``z[t+1] = feedback(y[t])`` that ``u_const`` seeds (see
    :func:`~rnnlab.statespace.rollout`), whose attractors may differ from
    those of the constant-input map.  The last ``record`` projected values
    and their first differences are recorded.  A divergent sweep
    value is kept as a marker, so the rest of the diagram still renders.
    """
    if record < 1:
        raise ValueError("record must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    proj = make_projection(projection)
    sweep = [float(s) for s in sweep]
    total = burn_in + record
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), (len(sweep), model.state_dim))
    u = np.asarray(u_const, dtype=float).reshape(model.input_dim)
    if feedback is None:
        run = rollout(model, x0, np.tile(u, (total, 1)))
    else:
        run = rollout(model, x0, u, total, feedback)
    start = max(burn_in - 1, 0)
    p_all = proj(run.states[start:], run.outputs[start:])   # (steps, P)
    samples = []
    for i, s in enumerate(sweep):
        if run.diverged[i]:
            samples.append(SteadyStateSamples(
                s, np.empty(0), np.empty(0), int(run.diverged_at[i])))
            continue
        p_row = p_all[:, i]
        if burn_in >= 1:
            # p_row[0] is the last burn-in point, kept only to difference against
            p = p_row[1:]
            dp = p_row[1:] - p_row[:-1]
        else:
            p = p_row
            dp = np.concatenate([[0.0], p_row[1:] - p_row[:-1]])
        samples.append(SteadyStateSamples(s, p, dp))
    cfg = {"burn_in": burn_in, "record": record, "projection": proj.name}
    return BifurcationDiagram(sweep=sweep, samples=samples, config=cfg)


# ---------------------------------------------------------------------------
# attractor classification
# ---------------------------------------------------------------------------

@dataclass
class AttractorClass:
    kind: str                 # "fixed_point" | "periodic" | "quasiperiodic_or_chaotic"
    period: int | None = None
    n_distinct: int = 0
    lyapunov: float | None = None


def classify_attractor(samples, tol=1e-6, lyapunov=None) -> AttractorClass:
    """Classify steady-state samples by the distinct values they visit.

    Sorted samples closer than ``tol`` to their neighbour count as one
    value, so a value is never split by where it falls on a grid.  One
    distinct value -> fixed point; k distinct values recurring with
    exact period k (k at most half the sample count) -> periodic(k);
    anything else -> quasiperiodic_or_chaotic.  A supplied Lyapunov
    exponent is kept with the class: a positive one tells chaos from
    quasi-periodic motion.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < 8:
        raise TooFewSamples("need at least 8 steady-state samples")
    order = np.argsort(samples, kind="stable")
    keys = np.empty(samples.size, dtype=np.int64)
    keys[order] = np.concatenate([[0], np.cumsum(np.diff(samples[order]) > tol)])
    n_distinct = int(keys.max()) + 1
    if n_distinct == 1:
        return AttractorClass("fixed_point", period=1, n_distinct=1, lyapunov=lyapunov)
    n = keys.size
    if n_distinct <= n // 2:
        for k in range(2, n // 2 + 1):
            if np.all(keys[k:] == keys[:-k]):
                return AttractorClass(
                    "periodic", period=k, n_distinct=n_distinct, lyapunov=lyapunov
                )
    return AttractorClass(
        "quasiperiodic_or_chaotic", n_distinct=n_distinct, lyapunov=lyapunov
    )


# ---------------------------------------------------------------------------
# entropy of linear-Gaussian propagation
# ---------------------------------------------------------------------------


@dataclass
class EntropyTrace:
    H: np.ndarray            # entropies (nats) at t = 0..T
    increments: np.ndarray   # H[t+1] - H[t], all equal to log|det A|
    log_abs_det_A: float
    n_states: int


def entropy_linear_gaussian(A, sigma0, T) -> EntropyTrace:
    """Differential entropy along x[t+1] = A x[t] with Gaussian x[0].

    H[t] = 0.5 * log((2 pi e)^n det Sigma[t]) with Sigma[t+1] = A Sigma A^T,
    so the increment per step is exactly log|det A|, independent of t and
    of the initial covariance.
    """
    A = np.asarray(A, dtype=float)
    sigma0 = np.asarray(sigma0, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or sigma0.shape != (n, n):
        raise ValueError("A and sigma0 must be square and conformable")
    sign, logdet_A = np.linalg.slogdet(A)
    if sign == 0:
        raise SingularMatrix("transition matrix is singular")
    evals = np.linalg.eigvalsh(sigma0)
    if np.any(evals <= 0):
        raise ValueError("sigma0 must be positive definite")

    H = np.empty(int(T) + 1)
    sigma = sigma0
    const = n * np.log(2.0 * np.pi * np.e)
    for t in range(int(T) + 1):
        _, logdet_s = np.linalg.slogdet(sigma)
        H[t] = 0.5 * (const + logdet_s)
        sigma = A @ sigma @ A.T
    return EntropyTrace(
        H=H, increments=np.diff(H), log_abs_det_A=float(logdet_A), n_states=n
    )


@dataclass
class EntropyBoundReport:
    """Both orientations of the per-step entropy/Lipschitz inequality.

    ``upper_ok[t]``:  H[t+1] <= H[t] + n log L_f   (the direction the
    determinant/Hadamard chain supports).
    ``lower_ok[t]``:  H[t] + n log L_f <= H[t+1]   (the printed form).
    A contraction with unequal rates (e.g. A = diag(0.9, 0.1) with
    L_f = 0.9) satisfies the upper form strictly and violates the lower
    form, which is why both are reported instead of guessing.
    """

    bound_rate: float
    upper_ok: np.ndarray
    lower_ok: np.ndarray

    @property
    def upper_holds(self):
        return bool(np.all(self.upper_ok))

    @property
    def lower_holds(self):
        return bool(np.all(self.lower_ok))


def check_entropy_bound(trace: EntropyTrace, L_f) -> EntropyBoundReport:
    if L_f <= 0:
        raise ValueError("L_f must be positive")
    rate = trace.n_states * np.log(L_f)
    inc = trace.increments
    return EntropyBoundReport(
        bound_rate=float(rate),
        upper_ok=inc <= rate + 1e-9,   # 1e-9: rounding slack of the log-determinants
        lower_ok=inc >= rate - 1e-9,
    )
