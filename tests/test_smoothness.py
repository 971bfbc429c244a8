import numpy as np
import pytest

from rnnlab import smoothness
from rnnlab.errors import DivergentCost, NonFiniteState
from rnnlab.sensitivity import SQUARED_ERROR, Sequence, gradient
from rnnlab.smoothness import (
    LandscapeGrid,
    SmoothnessConstants,
    bound_L_V,
    bound_L_V_prime,
    bound_S,
    bound_report,
    checked_cost,
    empirical_lipschitz_V,
    landscape_sweep,
    local_minima_census,
    regime_of,
)

from helpers import DrivenScalar, empirical_lipschitz_V_per_point, rel_err


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------


def test_bound_S_values():
    assert bound_S(1.0, 3) == 2.0
    assert bound_S(2.0, 3) == pytest.approx(np.sqrt(85.0), rel=1e-12)
    assert bound_S(1.0, 99) == pytest.approx(10.0, rel=1e-12)
    # L_f -> 0: only the l = 0 term survives
    assert bound_S(1e-9, 7) == pytest.approx(1.0, rel=1e-12)


def test_bound_S_monotone_in_t():
    for lf in [0.5, 1.0, 1.5]:
        vals = [bound_S(lf, t) for t in range(40)]
        assert np.all(np.diff(vals) >= 0)


def test_bound_S_log_domain_large_t():
    # would overflow in the naive form; log-domain stays finite and exact
    from rnnlab.smoothness import log_bound_S

    lf, t = 1.5, 5000
    expected = (t + 1) * np.log(lf)  # leading behavior of log S
    got = log_bound_S(lf, t)
    assert abs(got - (expected + 0.5 * np.log(1.0 / (lf ** 2 - 1)))) < 1e-6


def test_regimes():
    assert regime_of(0.97) == "contractive"
    assert regime_of(1.0) == "marginal"
    assert regime_of(1.0 + 5e-13) == "marginal"
    assert regime_of(1.02) == "expanding"


def test_bound_L_V_contractive_plateaus():
    v200 = bound_L_V(SmoothnessConstants(L_f=0.9, N=200))
    v400 = bound_L_V(SmoothnessConstants(L_f=0.9, N=400))
    assert abs(v400 / v200 - 1.0) < 0.01


def test_bound_L_V_marginal_linear_growth():
    Ns = np.array([50, 100, 200, 400])
    vals = np.array([bound_L_V(SmoothnessConstants(L_f=1.0, N=int(n))) for n in Ns])
    slope = np.polyfit(np.log(Ns), np.log(vals), 1)[0]
    assert 0.7 < slope < 1.3


def test_bound_L_V_expanding_rate():
    # log ratio per unit N approaches 2 log L_f
    lf = 1.1
    v1 = bound_L_V(SmoothnessConstants(L_f=lf, N=200))
    v2 = bound_L_V(SmoothnessConstants(L_f=lf, N=260))
    rate = (np.log(v2) - np.log(v1)) / 60
    assert abs(rate - 2 * np.log(lf)) < 0.05 * 2 * np.log(lf)


def test_bound_L_V_prime_classes():
    # contractive: plateau.  The limit c_inf follows from the docstring's
    # P, Q, T with every inner sum replaced by its geometric series; the
    # bound approaches it from below as c_inf (1 - kappa/N), since the
    # per-step term settles only after ~1/(1 - L_f) steps and the 1/N
    # average keeps that transient.
    c = SmoothnessConstants(L_f=0.9, N=1)
    lf = c.L_f
    S_inf = (1.0 - lf ** 2) ** -0.5
    M_inf = c.M_scale * S_inf
    T_inf = c.K4 * (c.L_g_prime * M_inf + c.L_g ** 2)
    L_J_inf = S_inf * (c.L_g * c.L_f_prime / (1.0 - lf) ** 2
                       + lf * c.L_g_prime / (1.0 - lf) + c.L_g_prime)
    c_inf = (c.K3 * c.L_y * L_J_inf
             + c.K4 * M_inf * c.L_g * c.L_f_prime * S_inf / (1.0 - lf) ** 2
             + T_inf * S_inf * (lf / (1.0 - lf) + 1.0))
    gap = {n: 1.0 - bound_L_V_prime(SmoothnessConstants(L_f=lf, N=n)) / c_inf
           for n in (200, 400, 800)}
    for n in (200, 400, 800):
        assert gap[n] > 0.0
    # the gap shrinks at least like 1/N, up to the O(L_f^N) remainder
    # (L_f^200 ~ 7e-10)
    for n in (200, 400):
        assert gap[2 * n] <= 0.5 * gap[n] * (1.0 + 1e-6)
    # marginal: cubic growth in the log-log slope
    Ns = np.array([50, 100, 200])
    vals = np.array([bound_L_V_prime(SmoothnessConstants(L_f=1.0, N=int(n))) for n in Ns])
    slope = np.polyfit(np.log(Ns), np.log(vals), 1)[0]
    assert 2.5 < slope < 3.5
    # expanding: rate approaches 3 log L_f
    lf = 1.05
    v1 = bound_L_V_prime(SmoothnessConstants(L_f=lf, N=200))
    v2 = bound_L_V_prime(SmoothnessConstants(L_f=lf, N=260))
    rate = (np.log(v2) - np.log(v1)) / 60
    assert abs(rate - 3 * np.log(lf)) < 0.05 * 3 * np.log(lf)


def _bound_L_V_prime_double_sum(c):
    """The docstring's sums over t and l = 1..t, term by term."""
    S = c.S_table()
    total = 0.0
    for t in range(1, c.N + 1):
        M = c.M_scale * S[t]
        T = c.K4 * (c.L_g_prime * M + c.L_g ** 2)
        ells = np.arange(1, t + 1)
        seg = np.cumsum(S[t:0:-1])[::-1]                 # sum_{j=l..t} S(j)
        power = c.L_f ** (t - ells)
        P = power * (c.L_g * c.L_f_prime * seg + c.L_f * c.L_g_prime * S[t])
        Q = power * (c.K4 * M * c.L_g * c.L_f_prime * seg + c.L_f * T * S[t])
        L_J = P.sum() + c.L_g_prime * S[t]
        L_Jy = Q.sum() + T * S[t]
        total += c.K3 * c.L_y * L_J + L_Jy
    return total / c.N


@pytest.mark.parametrize("L_f", [0.9, 1.0, 1.1])
def test_bound_L_V_prime_equals_the_double_sum(L_f):
    for N in (200, 1000, 2000):
        c = SmoothnessConstants(L_f=L_f, N=N)
        want = _bound_L_V_prime_double_sum(c)
        assert abs(bound_L_V_prime(c) - want) <= 1e-12 * want


def test_bound_report_builds_the_S_table_once(monkeypatch):
    calls = []
    bound = smoothness.bound_S

    def counted(L_f, t):
        calls.append(t)
        return bound(L_f, t)

    monkeypatch.setattr(smoothness, "bound_S", counted)
    rep = bound_report(SmoothnessConstants(L_f=1.1, N=60))
    assert calls == list(range(61))
    assert rep["S_table"] == [bound(1.1, t) for t in range(61)]


def test_bound_report_fields():
    rep = bound_report(SmoothnessConstants(L_f=1.0, N=100))
    assert rep["regime"] == "marginal"
    assert rep["S_table"][99] == pytest.approx(10.0)
    assert len(rep["S_table"]) == 101
    assert rep["L_V"] > 0 and rep["L_V_prime"] > 0


# ---------------------------------------------------------------------------
# empirical estimation
# ---------------------------------------------------------------------------


def quadratic_family(theta):
    """V(theta) = ||theta||^2 realized as a 1-step model: x' = theta, y = x."""

    class Quad(DrivenScalar):
        pass

    return Quad(theta, a=0.0)


def quad_dataset(n=2):
    return [Sequence(np.ones((n, 1)), np.zeros(n), x0=np.array([0.0]))]


def test_empirical_quadratic_gradient_lipschitz():
    # V(g) = ((n-1)/n) g^2 for the driven scalar with a = 0: grad V is
    # linear with slope 2 (n-1)/n, so L_V' ~ 2 within a few percent
    n = 5
    est = empirical_lipschitz_V(
        lambda th: DrivenScalar(th, a=0.0),
        [Sequence(np.ones((n, 1)), np.zeros(n), x0=np.array([0.0]))],
        theta_low=[-1.0], theta_high=[1.0], n_pairs=60, rng_seed=0,
    )
    expected = 2.0 * (n - 1) / n
    assert est.L_V_prime_hat == pytest.approx(expected, rel=0.05)
    assert est.n_divergent == 0


def test_empirical_gradient_takes_one_forward_pass_for_all_points(monkeypatch):
    from rnnlab import sensitivity
    from rnnlab.cells import make_cell

    calls = {"rollout": 0, "simulate": 0}
    rollout, simulate = sensitivity.rollout, sensitivity.simulate

    def counted_rollout(*args, **kwargs):
        calls["rollout"] += 1
        return rollout(*args, **kwargs)

    def counted_simulate(*args):
        calls["simulate"] += 1
        return simulate(*args)

    monkeypatch.setattr(sensitivity, "rollout", counted_rollout)
    monkeypatch.setattr(sensitivity, "simulate", counted_simulate)
    cell = make_cell("lstm", 3, n_input=1, init_seed=0)
    rng = np.random.default_rng(0)
    ds = [Sequence(rng.standard_normal((12, 1)), rng.standard_normal(12)) for _ in range(2)]
    theta = cell.params.values
    est = empirical_lipschitz_V(cell.with_params, ds, theta_low=theta - 0.1,
                                theta_high=theta + 0.1, n_pairs=10, rng_seed=0)
    assert est.n_pairs_used == 10
    assert calls == {"rollout": 1, "simulate": 0}


def _sine_lstm_case(seed):
    """An LSTM with input, biases and a linear readout on two sine sequences."""
    from rnnlab.cells import make_cell

    cell = make_cell("lstm", 6, n_input=1, bias=True, readout="linear", n_output=1,
                     init_seed=seed)
    rng = np.random.default_rng(seed)
    t = np.arange(1, 31)
    ds = [Sequence(np.full((30, 1), w / np.pi), np.sin(w * t))
          for w in rng.uniform(np.pi / 16, np.pi / 8, size=2)]
    theta = cell.params.values
    return cell.with_params, ds, dict(theta_low=theta - 0.5, theta_high=theta + 0.5,
                                      n_pairs=10, rng_seed=seed)


def _driven_case(a, n, with_gradient):
    ds = [Sequence(np.ones((n, 1)), np.zeros(n), x0=np.array([0.0]))]
    return (lambda th: DrivenScalar(th, a=a)), ds, dict(
        theta_low=[0.5], theta_high=[1.5], n_pairs=24, rng_seed=3,
        with_gradient=with_gradient)


@pytest.mark.parametrize("case", [
    lambda: _sine_lstm_case(1),
    lambda: _sine_lstm_case(2),
    lambda: _driven_case(0.9, 50, True),
    lambda: _driven_case(1.5, 400, True),
    lambda: _driven_case(1.5, 400, False),
    lambda: _driven_case(1.3, 446, True),
    lambda: _driven_case(1.3, 446, False),
], ids=["lstm-1", "lstm-2", "contractive", "divergent", "divergent-cost-only",
        "some-divergent", "some-divergent-cost-only"])
def test_empirical_stacked_pass_matches_the_per_point_loop(case):
    family, ds, kwargs = case()
    with np.errstate(over="ignore", invalid="ignore"):
        got = empirical_lipschitz_V(family, ds, **kwargs)
        want = empirical_lipschitz_V_per_point(family, ds, **kwargs)
    assert (got.n_pairs_used, got.n_divergent) == (want.n_pairs_used, want.n_divergent)
    assert got.n_pairs_used + got.n_divergent == kwargs["n_pairs"]
    for name in ("L_V_hat", "L_V_prime_hat"):
        g, w = getattr(got, name), getattr(want, name)
        assert abs(g - w) <= 1e-10 * abs(w), name


def test_empirical_contractive_plateau_in_horizon():
    vals = []
    for n in [25, 50, 100, 200]:
        ds = [Sequence(np.ones((n, 1)), np.zeros(n), x0=np.array([0.0]))]
        est = empirical_lipschitz_V(lambda th: DrivenScalar(th, a=0.9), ds,
                                    theta_low=[0.5], theta_high=[1.5],
                                    n_pairs=40, rng_seed=0)
        vals.append(est.L_V_hat)
    vals = np.array(vals)
    assert vals.max() / vals.min() < 3.0


def test_empirical_monotone_in_n_pairs():
    ds = quad_dataset(4)
    prev = 0.0
    for n_pairs in [10, 20, 40, 80]:
        est = empirical_lipschitz_V(lambda th: DrivenScalar(th, a=0.0), ds,
                                    theta_low=[-1.0], theta_high=[1.0],
                                    n_pairs=n_pairs, rng_seed=7)
        assert est.L_V_hat >= prev - 1e-15
        prev = est.L_V_hat


def test_empirical_counts_divergent_pairs():
    # the expanding map's cost grows like theta^2 a^{2N}: every theta in the
    # box reaches at least 1e138, so each pair is divergent and skipped
    def family(th):
        return DrivenScalar(th, a=1.5)

    n = 400
    ds = [Sequence(np.ones((n, 1)), np.zeros(n), x0=np.array([0.0]))]
    with np.errstate(over="ignore"):
        est = empirical_lipschitz_V(family, ds, theta_low=[0.5], theta_high=[1.5],
                                    n_pairs=12, rng_seed=0, with_gradient=False)
    assert est.n_divergent > 0


# ---------------------------------------------------------------------------
# landscape sweeps
# ---------------------------------------------------------------------------


def test_parabola_along_ray():
    # V(s * theta*) has its minimum at s = 1 when data comes from theta*
    theta_star = np.array([1.2])
    n = 30
    m = DrivenScalar(theta_star, a=0.5)
    x = 0.0
    ys = []
    for _ in range(n):
        ys.append(x)
        x = 0.5 * x + theta_star[0]
    ds = [Sequence(np.ones((n, 1)), np.array(ys), x0=np.array([0.0]))]
    grid = landscape_sweep(lambda th: DrivenScalar(th, a=0.5), ds, SQUARED_ERROR,
                           axes=[("true", theta_star)], ranges=[(0.0, 2.0)],
                           resolution=201)
    census = local_minima_census(grid)
    assert census["count"] == 1
    s_min = grid.coords[0][np.nanargmin(grid.values)]
    assert abs(s_min - 1.0) < 0.01


def test_census_monotone_ramp():
    grid = LandscapeGrid(axes_names=["true"], coords=[np.linspace(0, 1, 50)],
                         values=np.linspace(0, 1, 50), gradient_norms=None,
                         divergent=[])
    assert local_minima_census(grid)["count"] == 0


def test_census_of_two_points_has_no_interior_minimum():
    grid = LandscapeGrid(axes_names=["true"], coords=[np.array([0.0, 1.0])],
                         values=np.array([1.0, 0.0]), gradient_norms=None, divergent=[])
    assert local_minima_census(grid) == {"count": 0, "locations": [], "coords": []}


def test_census_requires_1d():
    grid = LandscapeGrid(axes_names=["a", "b"], coords=[np.arange(3), np.arange(3)],
                         values=np.zeros((3, 3)), gradient_norms=None, divergent=[])
    with pytest.raises(ValueError):
        local_minima_census(grid)


def test_two_axis_sweep_shapes():
    theta_star = np.array([1.0])
    n = 10
    ds = [Sequence(np.ones((n, 1)), np.zeros(n), x0=np.array([0.0]))]
    grid = landscape_sweep(lambda th: DrivenScalar(th, a=0.2), ds, SQUARED_ERROR,
                           axes=[("true", theta_star), ("random", np.array([0.3]))],
                           ranges=[(0.0, 1.0), (-0.5, 0.5)], resolution=[7, 5])
    assert grid.values.shape == (7, 5)
    assert grid.ndim == 2


def test_divergent_grid_points_are_marked():
    def family(th):
        return DrivenScalar(th, a=1.6)

    n = 500
    ds = [Sequence(np.ones((n, 1)), np.zeros(n), x0=np.array([0.0]))]
    with np.errstate(over="ignore"):
        grid = landscape_sweep(family, ds, SQUARED_ERROR,
                               axes=[("true", np.array([1.0]))],
                               ranges=[(0.5, 2.0)], resolution=16)
    assert len(grid.divergent) > 0
    assert np.isnan(grid.values[[i for (i,) in [(d,) if np.isscalar(d) else d for d in grid.divergent]]]).all()


def _single_points(family, dataset, thetas, with_gradient):
    """Cost, gradient norm and divergence of each theta evaluated alone."""
    values, norms, divergent = [], [], []
    for theta in thetas:
        model = family(theta)
        try:
            values.append(checked_cost(model, dataset))
            norms.append(float(np.linalg.norm(gradient(model, dataset)))
                         if with_gradient else np.nan)
            divergent.append(False)
        except (DivergentCost, NonFiniteState):
            values.append(np.nan)
            norms.append(np.nan)
            divergent.append(True)
    return np.array(values), np.array(norms), np.array(divergent)


def test_batched_landscape_equals_single_points_with_divergence():
    n = 500
    ds = [Sequence(np.ones((n, 1)), np.zeros(n), x0=np.array([0.0]))]
    family = lambda th: DrivenScalar(th, a=1.6)
    with np.errstate(over="ignore", invalid="ignore"):
        grid = landscape_sweep(family, ds, SQUARED_ERROR, axes=[("true", np.array([1.0]))],
                               ranges=[(-1e-49, 1e-49)], resolution=21,
                               with_gradient=True)
        values, norms, divergent = _single_points(
            family, ds, grid.coords[0][:, None], with_gradient=True)
    assert 0 < divergent.sum() < divergent.size
    assert grid.divergent == [int(i) for i in np.flatnonzero(divergent)]
    assert np.array_equal(grid.values, values, equal_nan=True)
    assert np.array_equal(grid.gradient_norms, norms, equal_nan=True)


def test_batched_landscape_equals_single_points_bitwise_on_reference_ray():
    from rnnlab.cells import chaotic_reference_cell
    from rnnlab.statespace import simulate

    cell = chaotic_reference_cell()
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    inputs = np.zeros((200, 0))
    ds = [Sequence(inputs=inputs, targets=simulate(cell, x0, inputs).outputs, x0=x0)]
    theta = cell.params.values
    grid = landscape_sweep(cell.with_params, ds, SQUARED_ERROR, axes=[("true", theta)],
                           ranges=[(0.0, 1.6)], resolution=33)
    values, _, divergent = _single_points(
        cell.with_params, ds, grid.coords[0][:, None] * theta, with_gradient=False)
    assert not divergent.any() and grid.divergent == []
    assert np.array_equal(grid.values, values)
    assert grid.coords[0][20] == 1.0 and grid.values[20] == 0.0


def test_large_grid_is_cut_into_blocks_with_the_same_result(monkeypatch):
    ds = [Sequence(np.ones((10, 1)), np.linspace(0.0, 1.0, 10), x0=np.array([0.2]))]
    calls = []

    def family(thetas):
        calls.append(len(thetas))
        return DrivenScalar(thetas, a=0.7)

    kwargs = dict(axes=[("true", np.array([1.0])), ("random", np.array([0.3]))],
                  ranges=[(0.0, 2.0), (-1.0, 1.0)], resolution=[9, 7])
    whole = landscape_sweep(family, ds, SQUARED_ERROR, **kwargs)
    assert calls == [63]
    monkeypatch.setattr(smoothness, "STACKED_FLOATS", 11 * 20)  # 1 + 10 per point
    blocks = landscape_sweep(family, ds, SQUARED_ERROR, **kwargs)
    assert calls[1:] == [20, 20, 20, 3]
    assert np.array_equal(whole.values, blocks.values)


def _reference_ray(steps=200):
    from rnnlab.cells import chaotic_reference_cell
    from rnnlab.statespace import simulate

    cell = chaotic_reference_cell()
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    inputs = np.zeros((steps, 0))
    ds = [Sequence(inputs=inputs, targets=simulate(cell, x0, inputs).outputs, x0=x0)]
    return cell, ds


def test_landscape_gradients_take_one_pass_per_block(monkeypatch):
    from rnnlab import sensitivity

    cell, ds = _reference_ray(40)
    calls = {"family": 0, "rollout": 0, "gradient": 0}
    rollout, gradient_ = sensitivity.rollout, sensitivity.gradient

    def family(thetas):
        calls["family"] += 1
        return cell.with_params(thetas)

    def counted_rollout(*args, **kwargs):
        calls["rollout"] += 1
        return rollout(*args, **kwargs)

    def counted_gradient(*args):
        calls["gradient"] += 1
        return gradient_(*args)

    monkeypatch.setattr(sensitivity, "rollout", counted_rollout)
    monkeypatch.setattr(sensitivity, "gradient", counted_gradient)
    kwargs = dict(axes=[("true", cell.params.values)], ranges=[(0.0, 1.6)],
                  resolution=21, with_gradient=True)
    whole = landscape_sweep(family, ds, SQUARED_ERROR, **kwargs)
    assert calls == {"family": 1, "rollout": 1, "gradient": 0}
    # 16 + 40 * (1 + 16 + 32) floats per point: 8 points per block
    monkeypatch.setattr(smoothness, "STACKED_FLOATS", 8 * (16 + 40 * 49))
    blocks = landscape_sweep(family, ds, SQUARED_ERROR, **kwargs)
    assert calls == {"family": 4, "rollout": 4, "gradient": 0}
    assert rel_err(blocks.gradient_norms, whole.gradient_norms) < 1e-13
    assert np.array_equal(blocks.values, whole.values)


def test_landscape_gradients_match_per_point_gradients_on_reference_ray():
    cell, ds = _reference_ray()
    theta = cell.params.values
    grid = landscape_sweep(cell.with_params, ds, SQUARED_ERROR, axes=[("true", theta)],
                           ranges=[(0.0, 1.6)], resolution=17, with_gradient=True)
    values, norms, divergent = _single_points(
        cell.with_params, ds, grid.coords[0][:, None] * theta, with_gradient=True)
    assert not divergent.any() and grid.divergent == []
    assert np.array_equal(grid.values, values)
    assert np.all(np.abs(grid.gradient_norms - norms) <= 1e-13 * np.maximum(norms, 1.0))


@pytest.mark.parametrize("kind", ["vanilla", "lstm"])
def test_a_divergent_row_leaves_the_other_rows_of_its_block_unchanged(kind):
    from rnnlab.cells import make_cell

    cell = make_cell(kind, 3, n_input=1, bias=True, readout="linear", init_seed=2)
    rng = np.random.default_rng(5)
    ds = [Sequence(rng.standard_normal((25, 1)), rng.standard_normal(25)) for _ in range(2)]

    def family(poison):
        def build(thetas):
            if poison:
                thetas = thetas.copy()
                thetas[3, 0] = np.inf       # W[0, 0] of the fourth point
            return cell.with_params(thetas)
        return build

    kwargs = dict(axes=[("true", cell.params.values)], ranges=[(0.5, 1.5)],
                  resolution=7, with_gradient=True)
    clean = landscape_sweep(family(False), ds, SQUARED_ERROR, **kwargs)
    bad = landscape_sweep(family(True), ds, SQUARED_ERROR, **kwargs)
    assert clean.divergent == [] and bad.divergent == [3]
    assert np.isnan(bad.values[3]) and np.isnan(bad.gradient_norms[3])
    keep = np.arange(7) != 3
    assert np.array_equal(bad.values[keep], clean.values[keep])
    assert np.array_equal(bad.gradient_norms[keep], clean.gradient_norms[keep])


def test_grid_csv_export(tmp_path):
    theta_star = np.array([1.0])
    ds = [Sequence(np.ones((5, 1)), np.zeros(5), x0=np.array([0.0]))]
    grid = landscape_sweep(lambda th: DrivenScalar(th, a=0.5), ds, SQUARED_ERROR,
                           axes=[("true", theta_star)], ranges=[(0.0, 1.0)],
                           resolution=5)
    path = tmp_path / "g.csv"
    grid.to_csv(path, meta={"seed": 0})
    lines = path.read_text().strip().split("\n")
    assert lines[1] == "s1,V"
    assert len(lines) == 2 + 5


# ---------------------------------------------------------------------------
# reference-weights landscape (band structure)
# ---------------------------------------------------------------------------


def test_reference_band_is_intricate_and_flank_is_smooth():
    from rnnlab.cells import chaotic_reference_cell
    from rnnlab.statespace import simulate

    cell = chaotic_reference_cell()
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    inputs = np.zeros((200, 0))
    data = simulate(cell, x0, inputs)
    ds = [Sequence(inputs=inputs, targets=data.outputs, x0=x0)]
    grid = landscape_sweep(lambda th: cell.with_params(th), ds, SQUARED_ERROR,
                           axes=[("true", cell.params.values)],
                           ranges=[(0.85, 1.1)], resolution=300)
    census = local_minima_census(grid)
    assert census["count"] >= 5  # already intricate on a short window
