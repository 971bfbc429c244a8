import numpy as np
import pytest

from rnnlab.analysis import (
    bifurcation_sweep,
    check_entropy_bound,
    classify_attractor,
    entropy_linear_gaussian,
    make_projection,
)
from rnnlab.cells import chaotic_reference_cell, make_cell
from rnnlab.errors import NonFiniteState, SingularMatrix, TooFewSamples
from rnnlab.statespace import argmax_onehot_feedback, rollout, simulate
from rnnlab.svgplot import svg_scatter

from helpers import FixedScalarLinear, LogisticMap, diagram_csv_by_element, svg_scatter_by_point

X0_REF = np.array([0.5, 0.5, 0.5, 0.5])


def stacked(family, svals):
    """The model of ``family`` stacking one row per sweep value."""
    return family(np.array(svals, dtype=float)[:, None])


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def test_builtin_projections():
    x = np.array([1.0, 3.0])
    y = np.array([-2.0, 5.0])
    assert make_projection("output:1")(x, y) == 5.0
    assert make_projection("state_mean")(x, y) == 2.0
    assert make_projection("output")(x, y) == -2.0
    for spec in ("nope", "outputs", "output_x", "output:-1", "output:"):
        with pytest.raises(ValueError, match="expected state_mean, output or output:<i>"):
            make_projection(spec)


# ---------------------------------------------------------------------------
# bifurcation sweeps
# ---------------------------------------------------------------------------


def test_contractive_family_single_point_per_s():
    family = lambda s: FixedScalarLinear(0.5 * s)
    diag = bifurcation_sweep(stacked(family, [0.2, 0.6, 1.0]), [0.2, 0.6, 1.0], np.zeros(0),
                             np.array([1.0]), burn_in=200, record=20)
    for samp in diag.samples:
        assert not samp.diverged
        cls = classify_attractor(samp.p, tol=1e-9)
        assert cls.kind == "fixed_point"
        assert np.allclose(samp.dp, 0.0, atol=1e-12)


def test_recorded_samples_respect_burn_in():
    family = lambda s: FixedScalarLinear(0.9)
    burn = 37
    record = 11
    diag = bifurcation_sweep(stacked(family, [1.0]), [1.0], np.zeros(0), np.array([1.0]),
                             burn_in=burn, record=record)
    samp = diag.samples[0]
    assert len(samp.p) == record
    # first recorded value is the state at index burn_in
    assert samp.p[0] == pytest.approx(0.9 ** burn, rel=1e-12)
    # differences among recorded points are exact; dp[0] uses the last
    # burn-in point as predecessor
    assert np.array_equal(samp.dp[1:], np.diff(samp.p))
    assert samp.dp[0] == pytest.approx(samp.p[0] * (1 - 1 / 0.9), rel=1e-9)


def test_logistic_map_period_doubling():
    # direct-simulation oracle: iterate the map and collect the cycle
    def oracle_cycle(r, n_burn=2000, n_rec=64):
        x = 0.4
        for _ in range(n_burn):
            x = r * x * (1 - x)
        vals = set()
        for _ in range(n_rec):
            x = r * x * (1 - x)
            vals.add(round(x, 9))
        return sorted(vals)

    assert len(oracle_cycle(2.8)) == 1
    assert len(oracle_cycle(3.2)) == 2

    family = lambda r: LogisticMap(r)
    diag = bifurcation_sweep(stacked(family, [2.8, 3.2, 3.5]), [2.8, 3.2, 3.5], np.zeros(0),
                             np.array([0.4]), burn_in=2000, record=64)
    c1 = classify_attractor(diag.samples[0].p, tol=1e-8)
    c2 = classify_attractor(diag.samples[1].p, tol=1e-8)
    c3 = classify_attractor(diag.samples[2].p, tol=1e-8)
    assert c1.kind == "fixed_point"
    assert c2.kind == "periodic" and c2.period == 2
    assert c3.kind == "periodic" and c3.period == 4
    # oracle agreement on the cycle values
    assert np.allclose(sorted(set(np.round(diag.samples[1].p, 9))),
                       oracle_cycle(3.2), atol=1e-8)


def test_reference_band_has_multi_point_sets():
    cell = chaotic_reference_cell()
    theta = cell.params.values
    family = lambda s: cell.with_params(s * theta)
    svals = [0.2, 1.0, 1.15]
    diag = bifurcation_sweep(stacked(family, svals), svals, np.zeros(0), X0_REF,
                             burn_in=100, record=100)
    c_small = classify_attractor(diag.samples[0].p, tol=1e-6)
    c_mid = classify_attractor(diag.samples[1].p, tol=1e-6)
    c_band = classify_attractor(diag.samples[2].p, tol=1e-6)
    assert c_small.kind == "fixed_point"
    assert c_mid.kind != "fixed_point"
    assert c_band.kind != "fixed_point"


def test_divergent_sweep_value_is_marked_not_fatal():
    def family(s):
        return FixedScalarLinear(np.where(s > 0.5, 10.0, 0.5))

    with np.errstate(over="ignore"):
        diag = bifurcation_sweep(stacked(family, [0.0, 1.0]), [0.0, 1.0], np.zeros(0),
                                 np.array([1e300]), burn_in=5, record=5)
    assert not diag.samples[0].diverged
    assert diag.samples[1].diverged
    assert diag.samples[1].diverged_step is not None


def test_diagram_csv_is_the_file_of_the_sample_by_sample_writer(tmp_path):
    def family(s):
        return FixedScalarLinear(np.where(s > 0.5, 10.0, s))

    with np.errstate(over="ignore"):
        diag = bifurcation_sweep(stacked(family, [0.0, 1.0, 0.3]), [0.0, 1.0, 0.3],
                                 np.zeros(0), np.array([1e300]), burn_in=5, record=5)
    assert [s.diverged for s in diag.samples] == [False, True, False]
    meta = {"spec_hash": "abc", "seed": 1}
    diag.to_csv(tmp_path / "fast.csv", meta=meta)
    diagram_csv_by_element(diag, tmp_path / "oracle.csv", meta=meta)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    assert "1.0,diverged,diverged" in (tmp_path / "fast.csv").read_text().split("\n")


def test_scatter_is_the_file_of_the_point_by_point_writer(tmp_path):
    cell = chaotic_reference_cell()
    svals = np.linspace(0.0, 1.6, 17)
    diag = bifurcation_sweep(cell.with_params(svals[:, None] * cell.params.values), svals,
                             np.zeros(0), X0_REF, burn_in=50, record=50)
    xs = np.repeat(svals, 50)
    ys = np.concatenate([s.p for s in diag.samples])
    cases = {"diagram": (xs, ys),
             "non-finite": ([0.0, np.nan, 1.0, 2.0, -np.inf], [-1e-3, 1.0, np.inf, 3.0, 0.0]),
             "one-value": ([2.5, 2.5], [-0.0, -0.0])}
    for name, (x, y) in cases.items():
        svg_scatter(tmp_path / "a.svg", x, y, title="t", xlabel="s", ylabel="p", desc=name)
        svg_scatter_by_point(tmp_path / "b.svg", x, y, title="t", xlabel="s", ylabel="p",
                             desc=name)
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes(), name


def _single_point_samples(model, x0, burn_in, record, u=None, feedback=None):
    """p and dp of one model, simulated alone (burn_in >= 1)."""
    total = burn_in + record
    if feedback is None:
        outputs = simulate(model, x0, np.zeros((total, model.input_dim))).outputs
    else:
        run = rollout(model, x0, u, total, feedback)
        assert run.error() is None
        outputs = run.outputs
    p_all = outputs[burn_in - 1:, 0]
    return p_all[1:], p_all[1:] - p_all[:-1]


def test_batched_sweep_equals_single_points_bitwise_on_reference_ray():
    cell = chaotic_reference_cell()
    theta = cell.params.values
    svals = np.linspace(0.1, 1.6, 16)
    diag = bifurcation_sweep(cell.with_params(svals[:, None] * theta), svals,
                             np.zeros(0), X0_REF, burn_in=50, record=20)
    for s, samp in zip(svals, diag.samples):
        p, dp = _single_point_samples(cell.with_params(s * theta), X0_REF, 50, 20)
        assert not samp.diverged
        assert np.array_equal(samp.p, p)
        assert np.array_equal(samp.dp, dp)


def test_batched_sweep_reports_each_divergent_row_with_its_step():
    svals = [0.2, 0.7, 0.9, 1.2]
    growth = {0.2: 0.5, 0.7: 10.0, 0.9: 1e3, 1.2: 0.9}
    family = lambda s: FixedScalarLinear(np.vectorize(growth.get)(s))
    diag = bifurcation_sweep(stacked(family, svals), svals, np.zeros(0), np.array([1e300]),
                             burn_in=5, record=5)
    for s, samp in zip(svals, diag.samples):
        try:
            with np.errstate(over="ignore"):
                p, dp = _single_point_samples(FixedScalarLinear(growth[s]),
                                              np.array([1e300]), 5, 5)
        except NonFiniteState as err:
            assert samp.diverged and samp.diverged_step == err.step
            continue
        assert not samp.diverged
        assert np.array_equal(samp.p, p) and np.array_equal(samp.dp, dp)
    # 1e300 overflows once 10^k or 1e3^k passes 1e8
    assert [samp.diverged_step for samp in diag.samples] == [None, 9, 3, None]


def test_batched_epoch_sweep_equals_single_closed_loops():
    cell = make_cell("lstm", 4, n_input=3, bias=True, readout="linear",
                     n_output=3, init_seed=0)
    rng = np.random.default_rng(5)
    thetas = [cell.params.values + 0.3 * rng.standard_normal(cell.n_params)
              for _ in range(4)]
    u = np.array([1.0, 0.0, 0.0])
    fb = argmax_onehot_feedback(3)
    diag = bifurcation_sweep(cell.with_params(np.stack(thetas)), range(4), u, np.zeros(8),
                             burn_in=20, record=10, feedback=fb)
    for theta, samp in zip(thetas, diag.samples):
        p, dp = _single_point_samples(cell.with_params(theta), np.zeros(8), 20, 10,
                                      u=u, feedback=fb)
        assert np.allclose(samp.p, p, rtol=0, atol=1e-13)
        assert np.allclose(samp.dp, dp, rtol=0, atol=1e-13)


def test_epoch_bifurcation_over_snapshots():
    cell = chaotic_reference_cell()
    theta = cell.params.values
    snapshots = cell.with_params(np.stack([0.2 * theta, 0.5 * theta, 1.0 * theta]))
    diag = bifurcation_sweep(snapshots, [0, 100, 200], np.zeros(0), X0_REF,
                             burn_in=100, record=64)
    assert diag.sweep == [0.0, 100.0, 200.0]
    c0 = classify_attractor(diag.samples[0].p, tol=1e-6)
    c2 = classify_attractor(diag.samples[2].p, tol=1e-6)
    assert c0.kind == "fixed_point"
    assert c2.kind != "fixed_point"


def test_epoch_bifurcation_argmax_feedback_runs_closed_loop():
    from rnnlab.cells import make_cell

    cell = make_cell("lstm", 4, n_input=3, bias=True, readout="linear",
                     n_output=3, init_seed=0)
    snapshots = cell.with_params(cell.params.values[None])
    u = np.array([1.0, 0.0, 0.0])
    diag = bifurcation_sweep(snapshots, [0], u, np.zeros(8), burn_in=20, record=10,
                             feedback=argmax_onehot_feedback(3))
    assert not diag.samples[0].diverged


def test_diagram_csv_round_trip(tmp_path):
    family = lambda s: FixedScalarLinear(0.5)
    diag = bifurcation_sweep(stacked(family, [1.0]), [1.0], np.zeros(0), np.array([1.0]),
                             burn_in=3, record=4)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    diag.to_csv(p1, meta={"seed": 1})
    diag.to_csv(p2, meta={"seed": 1})
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().strip().split("\n")
    assert lines[1] == "sweep,p,dp"
    rows = [[float(field) for field in line.split(",")] for line in lines[2:]]
    assert rows == [[1.0, p, dp] for p, dp in zip(diag.samples[0].p, diag.samples[0].dp)]


# ---------------------------------------------------------------------------
# attractor classification
# ---------------------------------------------------------------------------


def test_classify_constant_sequence():
    cls = classify_attractor(np.full(20, 0.3), tol=1e-6)
    assert cls.kind == "fixed_point" and cls.n_distinct == 1


def test_classify_alternating_sequence():
    cls = classify_attractor(np.array([0.1, 0.9] * 10), tol=1e-6)
    assert cls.kind == "periodic" and cls.period == 2


def test_classify_period_three():
    cls = classify_attractor(np.array([0.1, 0.5, 0.9] * 9), tol=1e-6)
    assert cls.kind == "periodic" and cls.period == 3


def test_classify_does_not_split_a_value_across_grid_cells():
    # 5e-7 lies on a rounding boundary of the 1e-6 grid; jitter far below
    # tol must still read as one value
    rng = np.random.default_rng(0)
    cls = classify_attractor(5e-7 + 1e-13 * rng.standard_normal(100), tol=1e-6)
    assert cls.kind == "fixed_point" and cls.n_distinct == 1


def test_classify_requires_enough_samples():
    with pytest.raises(TooFewSamples):
        classify_attractor(np.ones(7))


def test_classify_reference_chaotic_trace():
    from rnnlab.statespace import lyapunov_exponent, simulate

    cell = chaotic_reference_cell()
    model = cell.with_params(1.15 * cell.params.values)
    traj = simulate(model, X0_REF, np.zeros((300, 0)))
    lam = lyapunov_exponent(model, X0_REF, np.zeros(0), burn_in=500, horizon=3000)
    cls = classify_attractor(traj.outputs[100:, 0], tol=1e-6, lyapunov=lam)
    assert cls.kind == "quasiperiodic_or_chaotic" and lam > 1e-3


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_entropy_constant_for_identity():
    tr = entropy_linear_gaussian(np.eye(3), np.eye(3), 6)
    assert np.allclose(tr.increments, 0.0, atol=1e-12)


def test_entropy_increment_is_log_det():
    tr = entropy_linear_gaussian(0.5 * np.eye(2), np.eye(2), 10)
    assert np.allclose(tr.increments, np.log(0.25), atol=1e-12)
    assert tr.log_abs_det_A == pytest.approx(np.log(0.25), abs=1e-14)


def test_entropy_increment_independent_of_sigma0():
    # analytically the increment never depends on t or sigma0; numerically
    # the covariance product must stay well-conditioned, so use a rotation
    # times a mild diagonal
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    A = q @ np.diag([1.2, 0.9, 0.8])
    M = rng.standard_normal((3, 3))
    sigma0 = M @ M.T + 3 * np.eye(3)
    tr = entropy_linear_gaussian(A, sigma0, 8)
    sign, logdet = np.linalg.slogdet(A)
    assert np.allclose(tr.increments, logdet, atol=1e-9)


def test_entropy_orthogonal_increment_zero():
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    tr = entropy_linear_gaussian(q, np.eye(4), 5)
    assert np.abs(tr.increments).max() < 1e-12


def test_entropy_singular_A_rejected():
    A = np.diag([1.0, 0.0])
    with pytest.raises(SingularMatrix):
        entropy_linear_gaussian(A, np.eye(2), 3)


def test_entropy_bound_orientations_tight_case():
    # A = L_f * I: increment equals n log L_f, both orientations hold
    tr = entropy_linear_gaussian(0.7 * np.eye(2), np.eye(2), 5)
    rep = check_entropy_bound(tr, 0.7)
    assert rep.upper_holds and rep.lower_holds
    assert rep.bound_rate == pytest.approx(2 * np.log(0.7))


def test_entropy_bound_diagonal_counter_case():
    # A = diag(0.9, 0.1), L_f = 0.9: log|det A| = log 0.09 < 2 log 0.9,
    # so the determinant chain (upper form) holds strictly while the
    # printed lower form is violated
    tr = entropy_linear_gaussian(np.diag([0.9, 0.1]), np.eye(2), 5)
    rep = check_entropy_bound(tr, 0.9)
    assert rep.upper_holds
    assert not rep.lower_holds
    assert np.log(0.09) < 2 * np.log(0.9)


def test_entropy_bound_orthogonal_equality():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    tr = entropy_linear_gaussian(q, np.eye(3), 5)
    rep = check_entropy_bound(tr, 1.0)
    assert rep.upper_holds and rep.lower_holds
