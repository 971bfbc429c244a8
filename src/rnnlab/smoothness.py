"""Growth laws of the cost and its gradient, and landscape sweeps.

The closed-form calculators evaluate how the Lipschitz constants of the
cost V and of its gradient grow with the simulation length N, driven by
the transition Lipschitz constant L_f:

    L_V  : O(1) if L_f < 1,  O(N)   if L_f = 1,  O(L_f^{2N}) if L_f > 1
    L_V' : O(1) if L_f < 1,  O(N^3) if L_f = 1,  O(L_f^{3N}) if L_f > 1

The empirical side estimates the same constants from sampled parameter
pairs, and the landscape sweeps evaluate the cost along 1-D or 2-D
parameter rays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .jsontext import FloatRows, write_csv
from .sensitivity import SQUARED_ERROR, _as_dataset, _pass

# ---------------------------------------------------------------------------
# closed-form bound calculators
# ---------------------------------------------------------------------------

MARGINAL_TOL = 1e-12  # |L_f - 1| below this counts as the marginal regime


def regime_of(L_f) -> str:
    if abs(L_f - 1.0) <= MARGINAL_TOL:
        return "marginal"
    return "contractive" if L_f < 1.0 else "expanding"


def bound_S(L_f, t) -> float:
    """Accumulated trajectory-divergence factor sqrt(sum_{l=0..t} L_f^{2l}).

    Equals sqrt(t+1) at L_f = 1 and sqrt((L_f^{2t+2}-1)/(L_f^2-1))
    otherwise; evaluated in the log domain for L_f > 1 so large t does
    not overflow intermediate powers.
    """
    if L_f <= 0:
        raise ValueError("L_f must be positive")
    if t < 0:
        raise ValueError("t must be >= 0")
    return math.exp(log_bound_S(L_f, t))


def log_bound_S(L_f, t) -> float:
    if abs(L_f - 1.0) <= MARGINAL_TOL:
        return 0.5 * math.log(t + 1.0)
    if L_f < 1.0:
        return 0.5 * (math.log1p(-L_f ** (2 * t + 2)) - math.log1p(-L_f ** 2))
    # L_f > 1: log((L_f^{2t+2} - 1)/(L_f^2 - 1)) without forming the power
    lead = (2 * t + 2) * math.log(L_f)
    return 0.5 * (lead + math.log1p(-math.exp(-lead)) - math.log(L_f ** 2 - 1.0))


@dataclass(frozen=True)
class SmoothnessConstants:
    """Inputs of the bound calculators.

    ``M_scale`` sets the bound M(t) on the output magnitude as
    M(t) = M_scale * S(t); the default 1 preserves the asymptotic classes,
    which is all downstream checks rely on.
    """

    L_f: float
    N: int
    L_g: float = 1.0
    L_f_prime: float = 1.0
    L_g_prime: float = 1.0
    K1: float = 2.0
    K2: float = 2.0
    K3: float = 2.0
    K4: float = 2.0
    L_y: float = 1.0
    M_scale: float = 1.0

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.L_f <= 0:
            raise ValueError("L_f must be positive")

    @property
    def regime(self):
        return regime_of(self.L_f)

    def S_table(self):
        """S(t) of :func:`bound_S` for t = 0..N, a read-only array."""
        return self._S

    @cached_property
    def _S(self):
        # built once: the report and both bounds read it
        S = np.array([bound_S(self.L_f, t) for t in range(self.N + 1)])
        S.flags.writeable = False
        return S


def bound_L_V(c: SmoothnessConstants) -> float:
    """Pre-asymptotic Lipschitz bound of the cost:

        L_V = (L_g / N) * sum_{t=1..N} (K1 L_y + K2 M(t)) S(t)
    """
    S = c.S_table()
    t = np.arange(1, c.N + 1)
    M = c.M_scale * S[t]
    total = np.sum((c.K1 * c.L_y + c.K2 * M) * S[t])
    return float(c.L_g / c.N * total)


def bound_L_V_prime(c: SmoothnessConstants) -> float:
    """Pre-asymptotic Lipschitz bound of the cost gradient.

    Per-step output-Jacobian constants are assembled from the inner sums

        P(t, l) = L_f^{t-l} (L_g L_f' sum_{j=l..t} S(j) + L_f L_g' S(t))
        Q(t, l) = L_f^{t-l} (K4 M(t) L_g L_f' sum_{j=l..t} S(j) + L_f T(t) S(t))
        T(t)    = K4 (L_g' M(t) + L_g^2)

    as L_J(t) = sum_l P + L_g' S(t), L_Jy(t) = sum_l Q + T(t) S(t), and

        L_V' = (1/N) sum_{t=1..N} (K3 L_y L_J(t) + L_Jy(t)).

    For L_f < 1 the bound approaches its limit c_inf from below as
    c_inf (1 - kappa/N): the per-step term settles only after about
    1/(1 - L_f) steps, and averaging over N leaves that transient as a
    1/N term (kappa = 17.73 at L_f = 0.9 with the default constants).
    """
    S = c.S_table()
    cumS = np.concatenate([[0.0], np.cumsum(S)])  # cumS[k] = sum_{j=0..k-1} S(j)
    Lf = float(c.L_f)
    # G(t) and H(t) sum L_f^{t-l} and L_f^{t-l} cumS[l] over l = 1..t; the sum
    # over l of L_f^{t-l} seg(l, t), seg = sum_{j=l..t} S(j), is cumS[t+1] G - H
    # (on Python floats: the same operations, in the same order, as on array
    # elements, without two array reads and writes a step)
    G, H = [0.0], [0.0]
    for cumS_t in cumS[1:c.N + 1].tolist():
        G.append(Lf * G[-1] + 1.0)
        H.append(Lf * H[-1] + cumS_t)
    G, H = np.array(G), np.array(H)
    t = np.arange(1, c.N + 1)
    St, Gt = S[t], G[t]
    seg_sum = cumS[t + 1] * Gt - H[t]
    Mt = c.M_scale * St
    Tt = c.K4 * (c.L_g_prime * Mt + c.L_g ** 2)
    L_J = c.L_g * c.L_f_prime * seg_sum + Lf * c.L_g_prime * St * Gt + c.L_g_prime * St
    L_Jy = c.K4 * Mt * c.L_g * c.L_f_prime * seg_sum + Lf * Tt * St * Gt + Tt * St
    return float(np.sum(c.K3 * c.L_y * L_J + L_Jy) / c.N)


def bound_report(c: SmoothnessConstants) -> dict:
    """JSON-ready report with the S table, both bounds, and the regime."""
    return {
        "inputs": {
            "L_f": c.L_f, "N": c.N, "L_g": c.L_g,
            "L_f_prime": c.L_f_prime, "L_g_prime": c.L_g_prime,
            "K1": c.K1, "K2": c.K2, "K3": c.K3, "K4": c.K4,
            "L_y": c.L_y, "M_scale": c.M_scale,
        },
        "S_table": c.S_table().tolist(),
        "L_V": bound_L_V(c),
        "L_V_prime": bound_L_V_prime(c),
        "regime": c.regime,
    }


# ---------------------------------------------------------------------------
# empirical Lipschitz estimation
# ---------------------------------------------------------------------------

PAIR_SCALES = (1e-2, 1e-4, 1e-6)  # local perturbation scales, plus global pairs


def _row_norms(d):
    """``np.linalg.norm(d, axis=1)``, with the rows whose squares overflow taken by hypot."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(d, axis=1)
        far = np.isinf(norms)
        norms[far] = np.hypot.reduce(d[far], axis=1)
    return norms


@dataclass
class EmpiricalLipschitz:
    L_V_hat: float
    L_V_prime_hat: float
    n_pairs_used: int
    n_divergent: int


def empirical_lipschitz_V(model_family, dataset, loss=SQUARED_ERROR,
                          theta_low=None, theta_high=None, n_pairs=50,
                          rng_seed=0, with_gradient=True) -> EmpiricalLipschitz:
    """Sampled lower bound on the Lipschitz constants of V and grad V.

    Draws ``n_pairs`` pairs from the theta box: one quarter globally, the
    rest at fixed perturbation scales around box points (a pure global
    max badly underestimates the local spikes near chaotic regions).  The
    scales (``PAIR_SCALES``) are absolute: a pair whose perturbation is lost
    in rounding, its two points equal, is neither used nor counted.
    Deterministic for a given seed.  Pairs with a divergent point (by the
    one rule of :func:`~rnnlab.sensitivity.cost_and_gradient_reverse`) are
    skipped and counted in ``n_divergent``.  ``model_family`` is called
    once, with the (2 n_pairs, N_theta) matrix of every pair's two points,
    and returns the model stacking them; one forward pass over the stack
    gives every cost, and with ``with_gradient`` one reverse pass gives the
    gradients.
    """
    if n_pairs < 10:
        raise ValueError("n_pairs must be >= 10")
    lo = np.asarray(theta_low, dtype=float)
    hi = np.asarray(theta_high, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(hi - lo).all():
            raise ValueError(f"theta box [{lo}, {hi}] is not of finite width")
    rng = np.random.default_rng(rng_seed)
    n = int(n_pairs)
    scales = [None] + list(PAIR_SCALES)
    a, b = np.empty((2, n, lo.size))
    for k in range(n):
        scale = scales[k % len(scales)]
        a[k] = rng.uniform(lo, hi)
        if scale is None:
            b[k] = rng.uniform(lo, hi)
        else:
            b[k] = a[k] + scale * rng.standard_normal(lo.size)

    model = model_family(np.concatenate([a, b]))
    v, g, divergent, _, _ = _pass(model, _as_dataset(dataset), loss, with_gradient)
    dist = _row_norms(a - b)
    drawn = dist > 0.0
    used = drawn & ~divergent[:n] & ~divergent[n:]
    best_v = np.max(np.abs(v[:n][used] - v[n:][used]) / dist[used], initial=0.0)
    best_g = 0.0
    if with_gradient:
        best_g = np.max(_row_norms(g[:n][used] - g[n:][used]) / dist[used], initial=0.0)
    return EmpiricalLipschitz(
        L_V_hat=float(best_v), L_V_prime_hat=float(best_g), n_pairs_used=int(used.sum()),
        n_divergent=int((drawn & ~used).sum()),
    )


# ---------------------------------------------------------------------------
# landscape sweeps
# ---------------------------------------------------------------------------


STACKED_FLOATS = 2 ** 22
"""Floats a landscape pass may stack (32 MB): a theta and an output per step, per point.

With gradients a point also keeps, per step, the states and gates its reverse
pass reads (the adjoints are summed as the pass goes), counted as N_theta + 32
floats, which is more than any of the package's cells keeps.
"""


@dataclass
class LandscapeGrid:
    """Cost over a 1-D or 2-D grid of parameter-ray coordinates.

    ``values`` is (n1,) or (n1, n2); divergent points (by the one rule of
    :func:`~rnnlab.sensitivity.cost_and_gradient_reverse`) are NaN and
    listed in ``divergent`` (grid indices), since divergence is itself a
    landscape feature.
    """

    axes_names: list
    coords: list            # list of 1-D arrays, one per axis
    values: np.ndarray
    gradient_norms: np.ndarray | None
    divergent: list

    @property
    def ndim(self):
        return len(self.coords)

    def to_csv(self, path, meta=None):
        names = ["s1", "s2"][:self.ndim] + ["V"]
        columns = [*np.meshgrid(*self.coords, indexing="ij"), self.values]
        if self.gradient_norms is not None:
            names.append("gradnorm")
            columns.append(self.gradient_norms)
        table = np.column_stack([c.ravel() for c in columns])
        write_csv(path, meta, ",".join(names), FloatRows.of(table.tolist()))


def landscape_sweep(model_family, dataset, loss, axes, ranges, resolution,
                    with_gradient=False) -> LandscapeGrid:
    """Cost over theta(s) = sum_i s_i * axis_i.

    ``axes`` is a list of 1 or 2 (name, direction-vector) pairs; ranges
    and resolution apply per axis.  ``model_family`` is called with a
    (P, N_theta) matrix of grid points and returns the model stacking
    them; the costs of all P come from one forward pass over the stack.  A
    grid larger than :data:`STACKED_FLOATS` allows is cut into blocks of
    rows, one call each; every grid of the paper's figures is one block.
    With ``with_gradient``, one reverse pass gives a block's gradients too;
    a point whose gradient is not finite is divergent too.
    """
    if not 1 <= len(axes) <= 2:
        raise ValueError("need 1 or 2 axes")
    if np.isscalar(resolution):
        resolution = [int(resolution)] * len(axes)
    if any(r < 2 for r in resolution):
        raise ValueError("resolution must be >= 2 per axis")
    names = [a[0] for a in axes]
    dirs = [np.asarray(a[1], dtype=float) for a in axes]
    coords = [np.linspace(lo, hi, r) for (lo, hi), r in zip(ranges, resolution)]

    shape = tuple(resolution)
    grids = [g.reshape(-1, 1) for g in np.meshgrid(*coords, indexing="ij")]
    dataset = _as_dataset(dataset)
    n_points = grids[0].shape[0]
    per_step = 1 + (dirs[0].size + 32 if with_gradient else 0)
    block = max(1, STACKED_FLOATS // (dirs[0].size + per_step * sum(len(q) for q in dataset)))
    values = np.empty(n_points)
    divergent = np.empty(n_points, dtype=bool)
    gnorms = np.empty(n_points) if with_gradient else None
    for start in range(0, n_points, block):
        rows = slice(start, start + block)
        # a point whose theta overflows diverges in the pass below
        with np.errstate(over="ignore", invalid="ignore"):
            thetas = grids[0][rows] * dirs[0]
            if len(axes) == 2:
                thetas = thetas + grids[1][rows] * dirs[1]
        values[rows], g, divergent[rows], _, _ = _pass(
            model_family(thetas), dataset, loss, with_gradient)
        if with_gradient:
            gnorms[rows] = np.linalg.norm(g, axis=1)
    values[divergent] = np.nan
    if with_gradient:
        gnorms[divergent] = np.nan

    cells = [tuple(int(i) for i in c) for c in np.argwhere(divergent.reshape(shape))]
    return LandscapeGrid(
        axes_names=names, coords=coords, values=values.reshape(shape),
        gradient_norms=gnorms.reshape(shape) if with_gradient else None,
        divergent=[c[0] for c in cells] if len(shape) == 1 else cells,
    )


def local_minima_census(grid: LandscapeGrid):
    """Strict interior local minima of a 1-D sampled landscape."""
    if grid.ndim != 1:
        raise ValueError("census requires a 1-D grid")
    v = grid.values
    locations = []
    for i in range(1, v.size - 1):
        if np.isnan(v[i - 1]) or np.isnan(v[i]) or np.isnan(v[i + 1]):
            continue
        if v[i] < v[i - 1] and v[i] < v[i + 1]:
            locations.append(i)
    return {"count": len(locations), "locations": locations,
            "coords": [float(grid.coords[0][i]) for i in locations]}
