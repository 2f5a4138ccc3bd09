"""Scalar bath functions and kernel integrals.

One transition-weight family, the Glauber (KMS) weight gamma_beta; the
square window and its Fourier transform, the bath correlation function,
the frequency-overlap kernel C(nu', nu) and the Lamb-shift kernel
K(nu2, nu1).

Quadrature strategy: composite Gauss-Legendre panels whose width is tied
to the fastest oscillation of the integrand, with the error estimated by
halving the panel width.  The frequency integrals share one node grid
across all Bohr-frequency pairs, so a full overlap table costs a single
matrix product.  The Lamb kernel's time integral shares one node grid
too, and its centre-coordinate factor separates over the two Bohr
frequencies of a pair, so a full Lamb table costs O(nodes * m) phases and
sums for m frequencies (see :func:`_lamb_once`), with no loop over pairs.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import expit

from .errors import QuadratureFailure

logger = logging.getLogger(__name__)

SQRT_2PI = math.sqrt(2.0 * math.pi)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


@dataclass(frozen=True)
class BathSpec:
    """Bath parameters: inverse temperature, time scale and Gaussian cutoff.

    The transition weight is the Glauber weight of :func:`gamma`.  Infinite
    beta or tau are never represented here: the Davies limit reads
    :func:`gamma` (no tau) or :func:`gamma_zero_temperature` at the Bohr
    frequencies.
    """

    beta: float
    tau: float
    lambda0: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be finite and > 0, got {self.tau}")
        if not (math.isfinite(self.lambda0) and self.lambda0 > 0):
            raise ValueError(f"lambda0 must be finite and > 0, got {self.lambda0}")


@dataclass(frozen=True)
class QuadReport:
    abs_tol: float
    max_estimated_error: float


@dataclass(frozen=True)
class KernelTable:
    """Overlap kernel C(nu', nu) (and optionally Lamb kernel K) on a Bohr set.

    ``C[k, l]`` is the overlap integral with nu' = bohr_freqs[k] and
    nu = bohr_freqs[l].
    """

    bohr_freqs: np.ndarray
    C: np.ndarray
    K: np.ndarray | None
    quad_report: QuadReport


def glauber_prefactor(beta, lambda0):
    return 1.0 / (2.0 + math.log1p(beta * lambda0))


def gamma(omega, spec: BathSpec):
    """Glauber transition weight gamma_beta(omega); vectorized over omega."""
    omega = np.asarray(omega, dtype=float)
    pref = glauber_prefactor(spec.beta, spec.lambda0)
    out = pref * np.exp(-(omega**2) / (2.0 * spec.lambda0**2)) * expit(-spec.beta * omega)
    return out if out.ndim else float(out)


def gamma_zero_temperature(omega, lambda0=1.0, beta_cap=1e6):
    """beta = infinity convention: Boltzmann factor replaced by a step.

    The Glauber prefactor vanishes as beta -> infinity, so it is evaluated
    at a configured cap instead; omega = 0 takes half weight.
    """
    omega = np.asarray(omega, dtype=float)
    pref = glauber_prefactor(beta_cap, lambda0)
    step = np.where(omega < 0, 1.0, np.where(omega > 0, 0.0, 0.5))
    out = pref * np.exp(-(omega**2) / (2.0 * lambda0**2)) * step
    return out if out.ndim else float(out)


def window_hat(omega, tau):
    """Fourier transform of the normalized square window of width tau.

    Equals sqrt(2/(pi tau)) sin(omega tau / 2) / omega with the limit
    sqrt(tau/(2 pi)) at omega = 0.
    """
    omega = np.asarray(omega, dtype=float)
    x = omega * tau / 2.0
    out = math.sqrt(tau / (2.0 * math.pi)) * np.sinc(x / math.pi)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# panel quadrature helpers
# ---------------------------------------------------------------------------


def _panel_nodes(edges):
    """Gauss-Legendre nodes/weights on the panels delimited by ``edges``."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def _make_edges(a, b, h, forced=()):
    n_panels = max(8, int(math.ceil((b - a) / h)))
    edges = np.linspace(a, b, n_panels + 1)
    inner = [p for p in forced if a < p < b]
    if inner:
        edges = np.unique(np.concatenate([edges, np.array(inner, dtype=float)]))
    return edges


def _refine_edges(edges):
    mids = 0.5 * (edges[1:] + edges[:-1])
    return np.unique(np.concatenate([edges, mids]))


def _refined_pass(one_pass, edges, abs_tol, name):
    """(table, error estimate) of the panel quadrature ``one_pass(edges)``.

    The pass runs on ``edges`` and on their refinement; when the two differ
    by more than ``abs_tol`` somewhere, the edges are refined once more and
    the last two passes compared.  The last pass is returned with its
    difference from the one before; a second failure raises
    :class:`QuadratureFailure` naming the table.
    """
    prev = one_pass(edges)
    for _ in range(2):
        edges = _refine_edges(edges)
        table = one_pass(edges)
        err = float(np.max(np.abs(prev - table)))
        if err <= abs_tol:
            return table, err
        prev = table
    raise QuadratureFailure(f"{name} error estimate {err:.3e} exceeds {abs_tol:.3e}")


def _gamma_support_radius(spec: BathSpec, tiny):
    """Radius beyond which the Gaussian envelope of gamma is below ``tiny``."""
    pref = glauber_prefactor(spec.beta, spec.lambda0)
    arg = max(pref / max(tiny, 1e-300), math.e)
    return spec.lambda0 * (math.sqrt(2.0 * math.log(arg)) + 1.0)


def _freq_panel_width(spec: BathSpec, rate):
    """Panel width resolving the oscillation ``rate`` and gamma's features."""
    return min(4.0 * math.pi / max(rate, 1e-12), 0.35 / max(spec.beta, 1.0), spec.lambda0 / 3.0)


# ---------------------------------------------------------------------------
# bath correlation function
# ---------------------------------------------------------------------------


C_BETA_BLOCK = 2**20  # entries of one time-by-panel temporary in _c_beta_pass
C_BETA_GRID_POINTS = 4096  # spline knots of BathCorrelation on [-t_max, t_max]
C_BETA_ABS_TOL = 1e-10  # quadrature tolerance of BathCorrelation's knots


def _c_beta_pass(t_abs, spec: BathSpec, w_rad, n_panels):
    """One panel-quadrature pass of c_beta at the times ``t_abs``.

    The ``n_panels`` panels split [-w_rad, w_rad] evenly, all with the one
    width h = 2 w_rad / n_panels, so node j of panel q is
    omega = mid_q + (h/2) x_j and its phase factors as
    e^{i omega t} = e^{i mid_q t} e^{i (h/2) x_j t}.  The pass is then

        c(t) = sum_q e^{i mid_q t} [sum_j g_qj e^{i (h/2) x_j t}],

    with g_qj = gamma(omega) times the quadrature weight: one
    (times x 15) @ (15 x panels) product and a row-wise dot with the
    times-by-panels phases, so T times cost T (panels + 15) exponentials
    instead of the 15 T panels of a phase per node.  The single width moves
    the nodes only by rounding: the widths of ``np.linspace`` edges on the
    same interval differ from h by about 2e-14 relative at
    (beta, tau) = (2, 25) and 1e-12 at (100, 1e4).  The times are taken in
    blocks of about ``C_BETA_BLOCK`` / panels.
    """
    h = 2.0 * w_rad / n_panels
    mids = -w_rad + h * (np.arange(n_panels) + 0.5)
    g = gamma(mids[:, None] + 0.5 * h * _GL_NODES[None, :], spec) * (0.5 * h * _GL_WEIGHTS)
    out = np.empty(len(t_abs), dtype=complex)
    block = max(1, C_BETA_BLOCK // n_panels)
    for i in range(0, len(t_abs), block):
        t = t_abs[i : i + block]
        inner = np.exp((0.5j * h) * np.outer(t, _GL_NODES)) @ g.T
        out[i : i + block] = np.einsum("tq,tq->t", inner, np.exp(1j * np.outer(t, mids)))
    return out / SQRT_2PI


def _c_beta_panels(t_abs, spec: BathSpec, abs_tol):
    """(w_rad, n_panels) of the c_beta quadrature for the sorted times
    ``t_abs`` >= 0.

    The panel width resolves the largest time; the panel count is doubled
    until halving the panels moves c_beta by at most abs_tol / 2 on a
    subsample of the times, since the error varies smoothly with t.
    """
    rate = float(t_abs[-1]) if t_abs.size else 1.0
    w_rad = _gamma_support_radius(spec, abs_tol * 1e-3)
    h = min(_freq_panel_width(spec, rate), (2 * w_rad) / 8)
    n_panels = max(8, int(math.ceil(2 * w_rad / h)))
    probe = t_abs[:: max(1, len(t_abs) // 48)]
    for _ in range(3):
        err = float(np.max(np.abs(_c_beta_pass(probe, spec, w_rad, n_panels)
                                  - _c_beta_pass(probe, spec, w_rad, 2 * n_panels))))
        if err <= 0.5 * abs_tol:
            return w_rad, n_panels
        n_panels *= 2
    raise QuadratureFailure(
        f"bath correlation error estimate {err:.3e} exceeds {abs_tol:.3e}"
    )


def _c_beta_direct(t_values, spec: BathSpec, abs_tol, panels=None):
    """c_beta on a batch of times by shared-grid panel quadrature.

    Only |t| is evaluated (c(-t) = conj(c(t))), each distinct value once.
    ``panels`` = (w_rad, n_panels) reuses the quadrature of an earlier
    batch; by default :func:`_c_beta_panels` chooses it for this one.
    """
    t_values = np.atleast_1d(np.asarray(t_values, dtype=float))
    t_abs, inverse = np.unique(np.abs(t_values), return_inverse=True)
    if panels is None:
        panels = _c_beta_panels(t_abs, spec, abs_tol)
    vals = _c_beta_pass(t_abs, spec, *panels)[inverse]
    return np.where(t_values < 0, vals.conj(), vals)


class BathCorrelation:
    """Cached bath correlation function c_beta(t).

    Values are precomputed on a uniform grid and served through cubic
    interpolation.  The grid covers [-t_max, t_max] where t_max is the
    smaller of tau and the decay range of c_beta (the logistic factor
    gives an exp(-pi t / beta)-type tail, the Gaussian cutoff a 1/lambda0
    scale); a time outside it, where the spline would extrapolate, raises
    ValueError (the Lamb kernel reads none).  The knots are within
    ``C_BETA_ABS_TOL``.  ``interp_error`` is the largest |spline - direct|
    over the grid midpoints, measured at construction by one more pass.
    """

    def __init__(self, spec: BathSpec):
        self.spec = spec
        self.t_max = min(spec.tau, 12.0 * spec.beta + 10.0 / spec.lambda0 + 5.0)
        grid = np.linspace(-self.t_max, self.t_max, C_BETA_GRID_POINTS)
        panels = _c_beta_panels(np.unique(np.abs(grid)), spec, C_BETA_ABS_TOL)
        vals = _c_beta_direct(grid, spec, C_BETA_ABS_TOL, panels)
        self._re = CubicSpline(grid, vals.real)
        self._im = CubicSpline(grid, vals.imag)
        mids = 0.5 * (grid[1:] + grid[:-1])
        direct = _c_beta_direct(mids, spec, C_BETA_ABS_TOL, panels)
        self.interp_error = float(np.max(np.abs(self(mids) - direct)))
        logger.debug("c_beta spline error %.3e at beta=%g, tau=%g, lambda0=%g",
                     self.interp_error, spec.beta, spec.tau, spec.lambda0)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(np.abs(t) > self.t_max):
            raise ValueError(f"c_beta is read only on its grid [-{self.t_max}, {self.t_max}]")
        out = self._re(t) + 1j * self._im(t)
        return complex(out) if t.ndim == 0 else out


# ---------------------------------------------------------------------------
# overlap kernel C(nu', nu)
# ---------------------------------------------------------------------------


KERNEL_ABS_TOL = 1e-10  # quadrature tolerance of the overlap kernel C


def _overlap_matrix(freqs, spec: BathSpec, abs_tol):
    freqs = np.asarray(freqs, dtype=float)
    # gamma's Gaussian envelope bounds the integrand; pick the radius so the
    # truncated tail stays far below abs_tol
    tiny = abs_tol / (100.0 * max(spec.tau / (2.0 * math.pi), 1.0))
    w_rad = _gamma_support_radius(spec, tiny)
    h = min(_freq_panel_width(spec, spec.tau), w_rad / 4)

    def one_pass(edges):
        nodes, wts = _panel_nodes(edges)
        f_mat = window_hat(nodes[:, None] - freqs[None, :], spec.tau)
        return f_mat.T @ (f_mat * (gamma(nodes, spec) * wts)[:, None])

    c_mat, err = _refined_pass(one_pass, _make_edges(-w_rad, w_rad, h), abs_tol, "overlap kernel")
    return c_mat.astype(complex), err


def overlap_kernel(nu_prime, nu, spec: BathSpec):
    """C(nu', nu) = integral gamma(w) fhat*(w - nu') fhat(w - nu) dw, within
    ``KERNEL_ABS_TOL``."""
    freqs = np.array([float(nu_prime), float(nu)])
    distinct = int(freqs[0] != freqs[1])  # equal frequencies: a 1 x 1 table
    mat, _ = _overlap_matrix(freqs[: 1 + distinct], spec, KERNEL_ABS_TOL)
    return complex(mat[0, distinct])


# ---------------------------------------------------------------------------
# Lamb-shift kernel K(nu2, nu1)
# ---------------------------------------------------------------------------


LAMB_ABS_TOL = 1e-8  # quadrature tolerance of the Lamb kernel K
LAMB_BLOCK = 2**17  # entries of one node-by-frequency temporary in _lamb_once
LAMB_SERIES_TERMS = 14  # terms of the small-sigma series in _lamb_once


def _lamb_once(freqs, spec, corr, edges):
    """One panel-quadrature pass of the Lamb kernel on every Bohr pair.

    With nodes u_n, weights b_n = -sgn(u_n) c_beta(u_n) (quadrature weight
    included) and centre widths w_n = tau - |u_n|, the pass sums

        S[k, l] = sum_n b_n e^{i (nu_k - nu_l) u_n / 2} f(sigma_kl, w_n),

    where sigma_kl = nu_k + nu_l and f(sigma, w) = 2 sin(sigma w / 2) / sigma
    (= w at sigma = 0) is the centre-coordinate integral.  Both forms below
    build S from node sums of b_n times the phase of a single frequency, so
    a pass costs O(nodes * m) exponentials and sums instead of the
    O(nodes * m^2) of a loop over pairs.  The node axis is taken in blocks
    of about ``LAMB_BLOCK`` / m nodes, so temporaries stay O(block * m)
    however many nodes the quadrature needs.

    Separable form.  f = (e^{i sigma w/2} - e^{-i sigma w/2}) / (i sigma),
    and e^{i (nu_k - nu_l) u/2} e^{+-i sigma w/2} =
    e^{i nu_k (u +- w)/2} e^{-i nu_l (u -+ w)/2}.  Since w = tau - |u|, one
    of u +- w is +-tau at every node and the other is +-2a with
    a_n = tau/2 - |u_n|.  With E[n, k] = e^{i nu_k a_n}, c_k = e^{i nu_k tau/2}
    and the sums P-, P+ = sum_{u < 0}, sum_{u >= 0} of b_n E[n, :], and Q-,
    Q+ the same over conj(E),

        S = (P- c^T + c P+^T - conj(c) Q-^T - Q+ conj(c)^T) / (i sigma).

    Each sum is accurate to about eps sum_n |b_n|, so this is accurate to
    about eps sum_n |b_n| / |sigma|.  It is used where |sigma| tau > 1,
    which bounds that error by eps tau sum_n |b_n|, the size of the
    rounding error of the direct sum on its widest nodes.

    Small |sigma|.  On the other pairs (sigma = 0 among them) the division
    cancels, and S comes from a series instead.  With nu_l = sigma - nu_k,
    e^{i (nu_k - nu_l) u/2} f(sigma, w) = e^{i nu_k u} phi(sigma) with
    phi(sigma) = integral_lo^hi e^{i sigma v} dv, (lo, hi) = (-a, tau/2)
    for u < 0 and (-tau/2, a) for u >= 0; e^{i nu_k u} is conj(c_k) E[n, k]
    for u < 0 and c_k conj(E[n, k]) for u >= 0.  Expanding,

        phi(sigma) = sum_j (i sigma)^j (hi^{j+1} - lo^{j+1}) / (j + 1)!,

    so S[k, l] = sum_j (i sigma_kl)^j R_j[k], where R_j is one more
    weighted sum over E per term (R_0 weights by w).  Here |lo|, |hi| <=
    tau/2 and |sigma| tau <= 1, so the terms fall by at least 1/2 each;
    stopping after ``LAMB_SERIES_TERMS`` = 14 terms leaves at most
    2 (1/2)^14 / 15! (tau/2) sum_n |b_n| < 5e-17 tau sum_n |b_n|, below the
    rounding bound above.  Phase arguments are of size |nu| tau in every
    form and carry the same rounding.
    """
    tau = spec.tau
    nodes, wts = _panel_nodes(edges)
    base = -np.sign(nodes) * corr(nodes) * wts  # sgn(t1 - t2) = -sgn(u)
    m = len(freqs)
    sigma = freqs[:, None] + freqs[None, :]
    near_k, near_l = np.nonzero(np.abs(sigma) * tau <= 1.0)
    powers = np.arange(1, LAMB_SERIES_TERMS + 1)[:, None]
    factorials = np.array([math.factorial(j) for j in powers.ravel()])[:, None]
    # rows: P- (or Q-), P+ (or Q+), then the series sums over E (or conj(E))
    sums_e = np.zeros((2 + LAMB_SERIES_TERMS, m), dtype=complex)
    sums_c = np.zeros_like(sums_e)
    block = max(1, LAMB_BLOCK // max(m, 1))
    for start in range(0, len(nodes), block):
        u = nodes[start : start + block]
        b = base[start : start + block]
        a = 0.5 * tau - np.abs(u)
        e = np.exp(1j * np.outer(a, freqs))
        neg = u < 0
        b_neg, b_pos = np.where(neg, b, 0.0), np.where(neg, 0.0, b)
        hi = np.where(neg, 0.5 * tau, a)
        lo = np.where(neg, -a, -0.5 * tau)
        terms = (LAMB_SERIES_TERMS, len(u))
        moments = (np.cumprod(np.broadcast_to(hi, terms), axis=0)
                   - np.cumprod(np.broadcast_to(lo, terms), axis=0)) / factorials
        sums_e += np.vstack([b_neg, b_pos, moments * b_neg]) @ e
        sums_c += np.vstack([b_neg, b_pos, moments * b_pos]) @ e.conj()
    c = np.exp(0.5j * tau * freqs)
    (p_neg, p_pos), (q_neg, q_pos) = sums_e[:2], sums_c[:2]
    split = (np.outer(p_neg, c) + np.outer(c, p_pos)
             - np.outer(c.conj(), q_neg) - np.outer(q_pos, c.conj()))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = split / (1j * sigma)
    series = c.conj() * sums_e[2:] + c * sums_c[2:]  # R_j[k], j = 0, 1, ...
    sigma_near = sigma[near_k, near_l]
    out[near_k, near_l] = np.sum(
        (1j * sigma_near) ** (powers - 1) * series[:, near_k], axis=0)
    return (1j / (2.0 * SQRT_2PI * tau)) * out


def _lamb_matrix(freqs, spec: BathSpec, corr: BathCorrelation, abs_tol):
    freqs = np.asarray(freqs, dtype=float)
    u_max = min(spec.tau, corr.t_max)
    rate = 2.0 * float(np.max(np.abs(freqs))) if len(freqs) else 0.0
    h = min(
        4.0 * math.pi / max(rate, 1e-12),
        1.0 / (3.0 * spec.lambda0),
        0.35 / max(spec.beta, 1.0),
        u_max / 8,
    )
    return _refined_pass(lambda edges: _lamb_once(freqs, spec, corr, edges),
                         _make_edges(-u_max, u_max, h, forced=(0.0,)), abs_tol, "Lamb kernel")


def lamb_kernel(nu2, nu1, spec: BathSpec, cache: BathCorrelation | None = None):
    """Lamb-shift kernel K(nu2, nu1), within ``LAMB_ABS_TOL``.

    Defined by the double time integral of sgn(t1 - t2) c_beta(t2 - t1)
    e^{i nu2 t2 + i nu1 t1} over the window square, reduced to one
    dimension in u = t2 - t1 (the centre-coordinate integral is analytic).
    """
    corr = cache if cache is not None else BathCorrelation(spec)
    freqs = np.array([float(nu2), float(nu1)])
    distinct = int(freqs[0] != freqs[1])  # equal frequencies: a 1 x 1 table
    mat, _ = _lamb_matrix(freqs[: 1 + distinct], spec, corr, LAMB_ABS_TOL)
    return complex(mat[0, distinct])


def build_kernel_table(bohr_freqs, spec: BathSpec, include_lamb=False,
                       corr: BathCorrelation | None = None) -> KernelTable:
    """Evaluate the overlap (and optionally Lamb) kernel on a Bohr set,
    within ``KERNEL_ABS_TOL`` and ``LAMB_ABS_TOL``; the Lamb kernel reads
    c_beta from ``corr``, built here when None."""
    freqs = np.asarray(bohr_freqs, dtype=float)
    c_mat, err = _overlap_matrix(freqs, spec, KERNEL_ABS_TOL)
    k_mat = None
    if include_lamb:
        if corr is None:
            corr = BathCorrelation(spec)
        k_mat, k_err = _lamb_matrix(freqs, spec, corr, LAMB_ABS_TOL)
        err = max(err, k_err)
    return KernelTable(
        bohr_freqs=freqs,
        C=c_mat,
        K=k_mat,
        quad_report=QuadReport(abs_tol=KERNEL_ABS_TOL, max_estimated_error=err),
    )
