import functools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import thermal_landscape as tl
from thermal_landscape import bath as B
from thermal_landscape.bath import BathSpec
from thermal_landscape.errors import QuadratureFailure


def test_gamma_infinite_temperature_value():
    spec = BathSpec(beta=0.0, tau=1.0, lambda0=1.0)
    assert tl.gamma(0.0, spec) == pytest.approx(0.25, abs=1e-15)


def test_gamma_closed_form_beta10():
    # re-derived: 1/(2 + ln 11) * e^{-1/2} / (1 + e^{-10})
    spec = BathSpec(beta=10.0, tau=1.0, lambda0=1.0)
    expected = (1.0 / (2.0 + math.log(11.0))) * math.exp(-0.5) / (1.0 + math.exp(-10.0))
    assert tl.gamma(-1.0, spec) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.13790758, abs=5e-7)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.0, 40.0),
    st.floats(-5.0, 5.0),
    st.floats(0.25, 4.0),
)
def test_gamma_kms_and_range(beta, omega, lambda0):
    spec = BathSpec(beta=beta, tau=1.0, lambda0=lambda0)
    val = tl.gamma(omega, spec)
    assert 0.0 <= val <= 1.0
    lhs = val * math.exp(beta * omega)
    rhs = tl.gamma(-omega, spec)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


def test_gamma_tail_bound():
    # max_{omega >= Delta} omega gamma(omega) <= e^{-beta Delta / 2} / beta
    for beta in (1.0, 4.0, 10.0):
        for delta in (0.5, 1.0, 2.0):
            spec = BathSpec(beta=beta, tau=1.0)
            omegas = np.linspace(delta, delta + 12.0, 4001)
            vals = omegas * tl.gamma(omegas, spec)
            assert np.max(vals) <= math.exp(-beta * delta / 2.0) / beta + 1e-15


def test_gamma_zero_temperature_convention():
    assert tl.gamma_zero_temperature(1.0) == 0.0
    assert tl.gamma_zero_temperature(-1.0) > 0.0
    half = tl.gamma_zero_temperature(0.0)
    assert half == pytest.approx(0.5 * tl.gamma_zero_temperature(-1e-12), rel=1e-6)


def test_window_hat_limit_and_zeros():
    tau = 7.0
    assert tl.window_hat(0.0, tau) == pytest.approx(math.sqrt(tau / (2 * math.pi)))
    for k in (1, 2, 5):
        assert abs(tl.window_hat(2 * math.pi * k / tau, tau)) < 1e-14


def test_window_normalization():
    # Parseval: integral |fhat|^2 = 1.  Panel quadrature on [-R, R]; the
    # 1/w^2 tail contributes 2/(pi tau R) up to an O(1/R^2) oscillatory rest.
    tau = 5.0
    radius = 2000.0
    edges = B._make_edges(-radius, radius, 4.0 * math.pi / tau / 2.0)
    nodes, weights = B._panel_nodes(edges)
    centre = float(np.sum(weights * tl.window_hat(nodes, tau) ** 2))
    total = centre + 2.0 / (math.pi * tau * radius)
    assert abs(total - 1.0) <= 1e-6


def test_window_secular_tail_bound():
    # integral_{|w| >= mu} |fhat|^2 <= 4 / (pi mu tau) on a 5x5 grid,
    # using Parseval for the complement of the centre integral
    for mu in (0.3, 0.7, 1.5, 3.0, 6.0):
        for tau in (2.0, 5.0, 11.0, 23.0, 47.0):
            centre = quad(
                lambda w: tl.window_hat(w, tau) ** 2, -mu, mu,
                limit=800, epsabs=1e-12,
            )[0]
            tail = 1.0 - centre
            assert tail <= 4.0 / (math.pi * mu * tau) + 1e-9


def test_bath_correlation_basic_symmetries():
    spec = BathSpec(beta=2.0, tau=30.0)
    corr = B.BathCorrelation(spec)
    c0 = corr(0.0)
    assert abs(c0.imag) < 1e-12
    assert c0.real > 0.0
    for t in (0.4, 1.7, 9.9):
        assert abs(corr(-t) - np.conj(corr(t))) < 1e-10


def test_bath_correlation_against_scipy_quad():
    spec = BathSpec(beta=3.0, tau=40.0)
    corr = B.BathCorrelation(spec)
    for t in (0.0, 0.7, 5.3):
        re = quad(lambda w: tl.gamma(w, spec) * np.cos(w * t), -12, 12, limit=400)[0]
        im = quad(lambda w: tl.gamma(w, spec) * np.sin(w * t), -12, 12, limit=400)[0]
        assert abs(corr(t) - (re + 1j * im) / B.SQRT_2PI) < 1e-9


@pytest.mark.parametrize("beta", [0.0, 1.0, 10.0])
def test_bath_correlation_one_norm(beta):
    # (2 pi)^{-1/2} integral |c_beta| dt <= 1
    spec = BathSpec(beta=beta, tau=500.0, lambda0=1.0)
    corr = B.BathCorrelation(spec)
    grid = np.linspace(-corr.t_max, corr.t_max, 120001)
    vals = np.abs(corr(grid))
    total = np.trapezoid(vals, grid) / B.SQRT_2PI
    assert total <= 1.0 + 1e-4


def _c_beta_times(t_max, rng):
    """About 200 times: 0, +-t_max, both signs, a repeated |t| and times
    beyond the grid."""
    inside = rng.uniform(-t_max, t_max, 190)
    edge = [0.0, -0.0, t_max, -t_max, 1e-3, -1e-3, inside[0], -inside[0]]
    beyond = [1.01 * t_max, -1.1 * t_max]
    return np.concatenate([edge, inside, beyond])


@pytest.mark.parametrize("beta, tau", [(2.0, 25.0), (16.0, 800.0), (100.0, 1e4)])
def test_c_beta_factored_pass_matches_the_phase_per_node_oracle(beta, tau, outer_c_beta):
    spec = BathSpec(beta=beta, tau=tau)
    t_max = min(tau, 12.0 * beta + 10.0 / spec.lambda0 + 5.0)  # BathCorrelation's grid
    t = _c_beta_times(t_max, np.random.default_rng(int(beta)))
    got = B._c_beta_direct(t, spec, 1e-10)
    want = outer_c_beta(t, spec, 1e-10)
    assert np.max(np.abs(got - want)) <= 1e-13
    assert got[0] == got[1] and abs(got[0].imag) < 1e-13
    assert got[7] == np.conj(got[6]) and got[3] == np.conj(got[2])


@pytest.mark.parametrize("beta, tau", [(2.0, 25.0), (16.0, 800.0)])
def test_c_beta_spline_error_bounded_by_measured_interp_error(beta, tau):
    spec = BathSpec(beta=beta, tau=tau)
    corr = B.BathCorrelation(spec)
    assert 0.0 < corr.interp_error < 1e-6
    t = np.random.default_rng(5).uniform(-corr.t_max, corr.t_max, 2000)
    actual = float(np.max(np.abs(corr(t) - B._c_beta_direct(t, spec, B.C_BETA_ABS_TOL))))
    assert actual <= 2.0 * corr.interp_error


def test_c_beta_quadrature_that_never_settles_raises(monkeypatch):
    # a pass that moves by 1 / (2 n) when its n panels double never meets the
    # tolerance: three doublings, each compared on the probe, then a raise
    panels = []

    def drifting(t_abs, spec, w_rad, n_panels):
        panels.append(n_panels)
        return np.full(len(t_abs), 1.0 / n_panels, dtype=complex)

    monkeypatch.setattr(B, "_c_beta_pass", drifting)
    with pytest.raises(QuadratureFailure, match="bath correlation error estimate"):
        B.BathCorrelation(BathSpec(beta=2.0, tau=25.0))
    n = panels[0]
    assert panels == [n, 2 * n, 2 * n, 4 * n, 4 * n, 8 * n]


@pytest.mark.parametrize("beta, tau", [(2.0, 25.0), (0.5, 100.0)])
def test_c_beta_is_read_only_on_its_grid(beta, tau):
    # t_max is tau at (2, 25) and the decay range 21 at (0.5, 100)
    spec = BathSpec(beta=beta, tau=tau)
    corr = B.BathCorrelation(spec)
    assert corr.t_max == min(tau, 12.0 * beta + 10.0 / spec.lambda0 + 5.0)
    edge = corr(np.array([-corr.t_max, corr.t_max]))
    assert abs(edge[0] - np.conj(edge[1])) < 1e-12
    assert isinstance(corr(corr.t_max), complex)
    for t in (np.nextafter(corr.t_max, np.inf), -1.01 * corr.t_max, [0.0, 2.0 * corr.t_max]):
        with pytest.raises(ValueError, match="only on its grid"):
            corr(t)


def test_overlap_kernel_hermitian():
    spec = BathSpec(beta=2.0, tau=25.0)
    a = tl.overlap_kernel(1.0, 2.0, spec)
    b = tl.overlap_kernel(2.0, 1.0, spec)
    assert abs(a - np.conj(b)) < 1e-10


def test_overlap_kernel_against_scipy_quad():
    spec = BathSpec(beta=2.0, tau=8.0)
    nup, nu = -0.8, 0.5
    val = tl.overlap_kernel(nup, nu, spec)
    oracle = quad(
        lambda w: tl.gamma(w, spec)
        * tl.window_hat(w - nup, spec.tau)
        * tl.window_hat(w - nu, spec.tau),
        -12.0,
        12.0,
        limit=4000,
        epsabs=1e-12,
    )[0]
    assert val.real == pytest.approx(oracle, abs=1e-9)


def test_overlap_kernel_davies_trend():
    # |C(nu, nu) - gamma(nu)| decreases with tau
    nu = -1.0
    errs = []
    for tau in (1e2, 1e3, 1e4):
        spec = BathSpec(beta=5.0, tau=tau)
        diag = tl.overlap_kernel(nu, nu, spec)
        errs.append(abs(diag.real - tl.gamma(nu, spec)))
    assert errs[0] > errs[1] > errs[2]


def test_lamb_kernel_against_2d_trapezoid():
    # brute-force 400x400 trapezoid oracle; its own discretization error is
    # a few 1e-5 (sign kink along the diagonal), so also compare against a
    # 1600x1600 grid at a tighter tolerance
    spec = BathSpec(beta=1.0, tau=20.0)
    corr = B.BathCorrelation(spec)

    def trapezoid_oracle(nu2, nu1, n_grid):
        grid = np.linspace(-10.0, 10.0, n_grid)
        t1, t2 = np.meshgrid(grid, grid, indexing="ij")
        cm = corr((t2 - t1).ravel()).reshape(t1.shape)
        integ = np.sign(t1 - t2) * cm * np.exp(1j * nu2 * t2) * np.exp(1j * nu1 * t1)
        inner = np.trapezoid(integ, grid, axis=1)
        return (1j / (2.0 * B.SQRT_2PI * spec.tau)) * np.trapezoid(inner, grid)

    for nu2, nu1 in ((2.0, -2.0), (0.0, 0.0), (-2.0, 2.0)):
        mine = tl.lamb_kernel(nu2, nu1, spec, cache=corr)
        assert abs(mine - trapezoid_oracle(nu2, nu1, 400)) < 1e-4
        assert abs(mine - trapezoid_oracle(nu2, nu1, 1600)) < 5e-6


def test_build_kernel_table_matches_entries():
    spec = BathSpec(beta=2.0, tau=15.0)
    freqs = np.array([-1.0, 0.0, 1.0])
    table = tl.build_kernel_table(freqs, spec, include_lamb=True)
    assert table.C.shape == (3, 3)
    assert table.K.shape == (3, 3)
    assert table.quad_report.max_estimated_error <= table.quad_report.abs_tol
    # kernel Hermiticity and nonnegative real diagonal
    assert np.max(np.abs(table.C - table.C.conj().T)) < 10 * table.quad_report.abs_tol
    assert np.all(table.C.diagonal().real >= -table.quad_report.abs_tol)
    assert np.max(np.abs(table.C.diagonal().imag)) < table.quad_report.abs_tol
    single = tl.overlap_kernel(-1.0, 1.0, spec)
    assert abs(table.C[0, 2] - single) < 1e-9
    corr = B.BathCorrelation(spec)
    k_single = tl.lamb_kernel(0.0, 1.0, spec, cache=corr)
    assert abs(table.K[1, 2] - k_single) < 1e-7


def test_bath_spec_validation():
    with pytest.raises(ValueError):
        BathSpec(beta=-1.0, tau=1.0)
    with pytest.raises(ValueError):
        BathSpec(beta=1.0, tau=0.0)
    with pytest.raises(ValueError):
        BathSpec(beta=1.0, tau=1.0, lambda0=-2.0)
    with pytest.raises(ValueError):
        BathSpec(beta=math.inf, tau=1.0)


@pytest.mark.parametrize("name", ["generic_n3", "ising_n3_h0", "clock_x_t3"])
def test_lamb_kernel_matches_pair_loop(name, oracle_system, loop_lamb_once, monkeypatch):
    # the whole refinement, with every pass of the separable quadrature
    # replaced by the pair loop; the kernel table and its QuadReport agree
    ham, _, spec = oracle_system(name)
    freqs = tl.spectral_data(ham).bohr_freqs
    corr = B.BathCorrelation(spec)
    got = tl.build_kernel_table(freqs, spec, include_lamb=True, corr=corr)
    monkeypatch.setattr(B, "_lamb_once", loop_lamb_once)
    want = tl.build_kernel_table(freqs, spec, include_lamb=True, corr=corr)
    assert np.max(np.abs(got.K - want.K)) <= 1e-12 * np.max(np.abs(want.K))
    assert abs(got.quad_report.max_estimated_error
               - want.quad_report.max_estimated_error) <= 1e-12


def test_lamb_pass_matches_pair_loop_across_node_blocks(oracle_system, loop_lamb_once):
    # beta 16, tau 800: one pass over every fourth Bohr frequency (a set
    # still closed under negation) spans dozens of node blocks
    ham, _, spec = oracle_system("random8_b16_t800")
    freqs = tl.spectral_data(ham).bohr_freqs
    mid = len(freqs) // 2
    sub = freqs[mid - 28 : mid + 29 : 4]
    np.testing.assert_array_equal(sub, -sub[::-1])
    corr = B.BathCorrelation(spec)
    u_max = min(spec.tau, corr.t_max)
    edges = B._make_edges(-u_max, u_max, 0.35 / spec.beta, forced=(0.0,))
    assert 15 * (len(edges) - 1) > 10 * (B.LAMB_BLOCK // len(sub))
    got = B._lamb_once(sub, spec, corr, edges)
    want = loop_lamb_once(sub, spec, corr, edges)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


NEAR_TAU = 10.0


@functools.cache
def _near_bath():
    spec = BathSpec(beta=1.0, tau=NEAR_TAU)
    return spec, B.BathCorrelation(spec), B._make_edges(-NEAR_TAU, NEAR_TAU, 0.1, forced=(0.0,))


@st.composite
def near_cancelling_bohr_sets(draw):
    """Bohr sets closed under negation that hold nu and -(nu + delta) with
    |delta| tau anywhere from 1e-6 to 10, so sigma = nu_k + nu_l nearly
    cancels on those pairs."""
    base = draw(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=4))
    freqs = [0.0, *base]
    for _ in range(draw(st.integers(1, 3))):
        nu = draw(st.sampled_from(base))
        delta = 10.0 ** draw(st.floats(-6.0, 1.0)) / NEAR_TAU
        freqs.append(nu + draw(st.sampled_from([-1.0, 1.0])) * delta)
    freqs = np.array(freqs)
    return np.unique(np.concatenate([freqs, -freqs]))


# the fixture only hands out the oracle function, so sharing it across
# examples is safe
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(freqs=near_cancelling_bohr_sets())
def test_lamb_pass_small_sigma_matches_pair_loop(freqs, loop_lamb_once):
    spec, corr, edges = _near_bath()
    got = B._lamb_once(freqs, spec, corr, edges)
    want = loop_lamb_once(freqs, spec, corr, edges)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("diffs, passes", [([0.5e-10], 2), ([1.0, 0.5e-10], 3), ([1.0, 1.0], None)],
                         ids=["refined-once", "refined-twice", "fails"])
def test_refinement_driver_refines_at_most_twice(diffs, passes):
    """Both kernel tables run one pass, a refined pass and at most one more
    refinement: the last pass comes back with its difference from the one
    before, and a second difference above the tolerance raises, naming the
    table.  Pass k returns sum(diffs[:k]), so it differs from pass k - 1 by
    diffs[k - 1]."""
    edges = []

    def one_pass(e):
        edges.append(len(e))
        return np.array([sum(diffs[:len(edges) - 1])])

    if passes is None:
        with pytest.raises(tl.errors.QuadratureFailure, match="toy table error estimate"):
            B._refined_pass(one_pass, np.linspace(0.0, 1.0, 9), 1e-10, "toy table")
        passes = 3
    else:
        table, err = B._refined_pass(one_pass, np.linspace(0.0, 1.0, 9), 1e-10, "toy table")
        assert table.tolist() == [sum(diffs[:passes - 1])]
        assert err == abs(sum(diffs[:passes - 1]) - sum(diffs[:passes - 2]))
    assert edges == [9, 17, 33][:passes]  # each refinement halves every panel
