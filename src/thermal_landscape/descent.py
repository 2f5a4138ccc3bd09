"""Thermal gradient descent on exact density matrices.

Coordinate-wise descent: scan jumps in declared order, pick the first
direction whose energy gradient falls below the trigger, evolve along it
with step s = |g| / (9 B^2), repeat until no direction triggers, then
certify the terminal state.  Defaults reproduce the step budget
T = 42 B^3 / eps^2 and the trigger/estimation constants.

States live in the eigenbasis V of H: as real Hermitian coordinates
(:class:`ZeroFrequencySector`) by energy group or over all d levels, else
as vec(V^dag rho V).  In a sector a run of steps along one jump is
evaluated in blocks once it has taken ``RUN_WARMUP`` steps
(:class:`_RunBlocks`).
"""

import logging
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import operators as ops
from .errors import MaxStepsExceeded, TriggerNotMet
from .gradient import CertificateResult, certify_local_min, eigenbasis_scan
from .lindblad import (
    DEFECT_TOL,
    FLOOR,
    MAX_TAYLOR_TERMS,
    MAX_TIME,
    TAYLOR_STOP,
    TAYLOR_TOL,
    LindbladModel,
    _eig_step,
    _time_guard,
    evolve,
    weight_vector,
    zero_frequency_sector,
)

logger = logging.getLogger(__name__)

RUN_WARMUP = 32  # steps a run takes one at a time before its first block
BLOCK_MAX = 512  # steps of one block at most, read off the measured descent time per cap
CONTOUR_POINTS = 20  # Q: contour points, and Krylov vectors, of a block
PICARD_SWEEPS = 40  # step-size sweeps of one block at most
DEGREE_PASSES = 3  # rule passes of one block that may correct its Taylor degrees
ALIAS_TOL = 1.2e-18  # aliasing error a block state may gain, relative to ||x||


@dataclass(frozen=True)
class DescentConfig:
    """Descent parameters; defaults follow the algorithm's constants.

    ``record_stride`` thins the recorded trace to step 1, every k-th step
    and the final step; the walk itself is unaffected.  ``epsilon`` and
    ``norm_bound`` must be finite, ``max_steps`` and ``record_stride`` ints
    (not bools), and without ``max_steps`` the budget 42 B^3 / epsilon^2
    must be finite; a ``ValueError`` names the field otherwise.  The
    trigger and the noise scale ``grad_tol`` follow epsilon.
    ``dataclasses.replace`` keeps a resolved ``max_steps``: a copy with a
    new epsilon or B keeps the old budget unless it is given anew.
    """

    epsilon: float
    norm_bound: float  # B >= ||H||
    max_steps: int | None = None
    noise: bool = False
    seed: int = 0
    record_stride: int = 1

    trigger = property(lambda self: -0.99 * self.epsilon)  # a jump triggers below it
    grad_tol = property(lambda self: 0.0099 * self.epsilon)  # scale of optional gradient noise

    def __post_init__(self):
        for name in ("epsilon", "norm_bound"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        integers = {"record_stride": self.record_stride}
        if self.max_steps is not None:
            integers["max_steps"] = self.max_steps
        for name, value in integers.items():
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.norm_bound <= 0:
            raise ValueError("norm_bound must be positive")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")
        if self.max_steps is None:
            try:
                budget = 42.0 * self.norm_bound**3 / self.epsilon**2
            except (OverflowError, ZeroDivisionError):
                budget = math.inf
            if not math.isfinite(budget):
                raise ValueError("max_steps is needed: the step budget "
                                 "42 norm_bound^3 / epsilon^2 is not finite")
            object.__setattr__(self, "max_steps", int(math.ceil(budget)))
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass(frozen=True)
class StepRecord:
    index: int
    jump: str
    g: float
    s: float
    e_before: float
    e_after: float


@dataclass
class DescentTrace:
    steps: list
    terminal_state: np.ndarray
    terminal_certificate: CertificateResult | None
    terminated_early: bool
    config: DescentConfig = field(repr=False, default=None)


def _step_size(g, cfg: DescentConfig):
    return abs(g) / (9.0 * cfg.norm_bound**2)


def cool_step(model: LindbladModel, rho, a_star, g, cfg: DescentConfig):
    """One descent step along jump ``a_star`` with s = |g| / (9 B^2)."""
    if not g < cfg.trigger:
        raise TriggerNotMet(
            f"gradient {g} does not lie strictly below the trigger {cfg.trigger}"
        )
    s = _step_size(g, cfg)
    return evolve(model, weight_vector(model, label=a_star), rho, s)


class _FullSpace:
    """States as the row-major vec(V^dag rho V), for models without a sector
    (d > 32, or a real-form failure): each step is one guarded eigenbasis
    step (:func:`lindblad._eig_step`), with no transform out of V or back."""

    def __init__(self, model: LindbladModel):
        self._model = model

    def evolve(self, x, index, s):
        _time_guard(s, 1.0)  # s > 0 here, below the negative trigger
        model = self._model
        return _eig_step(model, weight_vector(model, label=model.jumps[index].label), x, s)

    def density(self, x):
        d = self._model.dim
        rho = self._model.sd.from_eig(x.reshape(d, d))
        return 0.5 * (rho + rho.conj().T)


def _state_space(model: LindbladModel, rho, cfg: DescentConfig):
    """The representation of ``rho`` under ``model``: the space, the
    coordinates x, the read of x's gradients along every jump followed by
    its energy from the model's eigenbasis scan, and the run blocks (None
    with noise, or on vec(V^dag rho V))."""
    sector = zero_frequency_sector(model, rho)
    scan = eigenbasis_scan(model)
    if sector is None:
        return _FullSpace(model), model.sd.to_eig(rho).reshape(-1), scan.read, None
    rows = sector.scan_rows(scan)
    blocks = None if cfg.noise else _RunBlocks(sector, rows, cfg)
    return sector, sector.coords(rho), rows.dot, blocks


@dataclass
class _Block:
    """The evaluated steps of one run block: the first ``count`` of its
    ``size`` steps keep every rule.  Step v (from 1) has gradient g[v - 1]
    and size s[v - 1] and leads to the state ``states[v]``, whose gradients
    and energy are ``values[v]``; row 0 is the block's start."""

    size: int
    count: int
    sweeps: int
    g: np.ndarray
    s: np.ndarray
    states: np.ndarray
    values: np.ndarray


class _RunBlocks:
    """Steps along one jump a of a sector, evaluated as a block.

    Every step of such a run applies a Taylor polynomial
    T_v(G) = sum_{k <= k_v} (s_v G)^k / k! of the one real sector generator
    G = G_a to the state, then divides by its trace.  The divisions commute
    with the polynomials, so the v-th state is y_v / Tr y_v with
    y_v = P_v(G) x, P_v = T_v ... T_1, and x the block's start.

    **Contour evaluation.**  With r >= ||G||_2 (the computed norm times
    1 + 1e-10) and the Q = ``CONTOUR_POINTS`` points z_q = r exp(2 pi i q / Q),
    the trapezoidal rule on the circle
    (Trefethen & Weideman, SIAM Review 56 (2014) 385) gives the coefficients
    c_i = (1/Q) sum_q P_v(z_q) z_q^-i r^i, so that y_v is read as
    sum_{i < Q} c_i (G / r)^i x from Q Krylov vectors, and P_v(z_q) for
    every v is one ``cumprod`` over the block.  P_v has nonnegative
    coefficients p_j <= S^j / j!, with S = s_1 + ... + s_v, and the rule
    folds p_j for j >= Q onto j mod Q, so

        ||y_v - sum_i c_i (G / r)^i x|| <= 2 sum_{j >= Q} p_j r^j ||x||
            <= 2 (S r)^Q / Q! (Q + 1) / (Q + 1 - S r) ||x||,

    which for S r <= 1 is at most 8.7e-19 ||x||.  A block keeps S r <= 1,
    and checks the bound at the S it commits against ``ALIAS_TOL`` ||x||
    = 1.2e-18 ||x||.

    **Step sizes.**  s_v = |g_a(x_{v-1})| / (9 B^2) depends on the states
    before it.  Picard sweeps recompute every s_v from the previous sweep's
    states, reading only the g_a and trace rows, from the run's earlier
    sizes extended (:func:`_guess_sizes`); they stop when no s_v moves by more
    than 2 ulp, or after ``PICARD_SWEEPS`` sweeps.  A step's recorded g and
    s are those of the last sweep, so s is |g| / (9 B^2) within 2 ulp.

    **Rules.**  One pass over the block's states then evaluates each rule of
    the one-step path: the jump choice, the step size, a single Taylor
    substep (s bound <= 1), the Taylor degree k_v, the Hermiticity bound and
    the trace defect against ``DEFECT_TOL``, and the positivity ``FLOOR``: the
    Gershgorin screen, and for the states that fail it (near-pure ones fail
    it at every step) the exact check of
    :meth:`ZeroFrequencySector.below_floor`, one batched Cholesky for all
    of them, with eigenvalues only when it fails.  A pass whose degrees
    differ from those assumed is redone with them, at most
    ``DEGREE_PASSES`` times.  The block keeps its steps up to the first in
    which a rule differs or a guard fails; the caller runs that step through
    :meth:`ZeroFrequencySector.evolve`, so that every guard raises as it
    does there.  The gradients and energies of the block's states are read
    through the same contour sums as the sweeps, so a block's records do not
    depend on where a cap cuts it.
    """

    def __init__(self, sector, scan, cfg: DescentConfig):
        self._sector = sector
        # the sector's trace and Gershgorin rows over (x, |x|)
        self._post = sector._post
        # rows over x: the gradients and the energy, then the trace
        self._rows = np.vstack((scan, self._post[0, :sector.size]))
        self._scale = 9.0 * cfg.norm_bound**2
        self._trigger = cfg.trigger
        self._sqrt_d = math.sqrt(sector.dim)
        self._jumps = {}  # jump index -> (G / r, r, bound)
        self._circles = {}  # (jump index, top degree) -> powers of the contour points
        self._tail = {}  # jump index -> the Taylor degree of the last block's last step
        self._unit = np.eye(1, CONTOUR_POINTS)[0]  # the Krylov coefficients of x itself
        q = CONTOUR_POINTS
        half = q // 2 + 1  # P(conj z) = conj P(z): the points of Im z >= 0 suffice
        self._circle = np.exp(2j * np.pi * np.arange(half) / q)
        weight = np.full(half, 2.0 / q)
        weight[[0, -1]] = 1.0 / q
        self._fold = weight[:, None] * np.exp(-2j * np.pi * np.outer(np.arange(half),
                                                                      np.arange(q)) / q)

    def _jump(self, a):
        """(G / r, r, the 1->1 bound of evolve()) of jump ``a``."""
        data = self._jumps.get(a)
        if data is None:
            gen, bound, _ = self._sector.generators[a]
            # the margin covers the rounding of the computed norm
            r = max(float(np.linalg.norm(gen, 2)) * (1.0 + 1e-10), 1e-300)
            data = self._jumps[a] = (gen / r, r, bound)
        return data

    def _circle_powers(self, a, r, top):
        """z_q^k for k <= top on the points of Im z >= 0, as (real, imaginary) pairs."""
        circle = self._circles.get((a, top))
        if circle is None:
            circle = (r * self._circle) ** np.arange(top + 1)[:, None]
            circle = self._circles[a, top] = np.stack((circle.real, circle.imag),
                                                       axis=-1).reshape(top + 1, -1)
        return circle

    def run(self, x, a, values, sizes, size):
        """Evaluate up to ``size`` steps along jump ``a`` from ``x``, whose
        gradients and energy are ``values``; ``sizes`` are the sizes of the
        run's steps so far, at least one."""
        scaled, r, bound = self._jump(a)
        s0 = abs(values[a]) / self._scale
        s = _guess_sizes(s0, sizes, size)
        s = s[:max(1, int(np.searchsorted(np.cumsum(s) * r, 1.0, side="right")))]
        krylov = _Krylov(scaled, r, x)
        fold_rows = self._fold.dot(krylov.vectors(0).dot(self._rows.T))
        pair = fold_rows[:, [a, -1]]  # g_a and the trace
        # the degree the run's last block ended with, else the first step's
        degree = self._tail.get(a)
        if degree is None:
            degree = self._degrees(np.eye(1, CONTOUR_POINTS), s[:1], krylov, bound, 4)[0]
        deg = np.full(len(s), degree)
        sweeps = 0
        for _ in range(DEGREE_PASSES):
            # P_v(z) = prod_{u <= v} sum_{k <= k_u} (s_u z)^k / k!, on the points of Im z >= 0
            top = int(deg.max())
            powers = np.arange(top + 1)
            trunc = (powers <= deg[:, None]) / _FACTORIALS[:top + 1]
            circle = self._circle_powers(a, r, top)
            for sweep in range(PICARD_SWEEPS):
                sweeps += 1
                points = np.cumprod((s[:, None] ** powers * trunc).dot(circle).view(complex),
                                    axis=0)
                g_a, trace = points[:-1].dot(pair).real.T
                s_new = np.abs(g_a / trace) / self._scale
                # positive doubles: the difference of their bits counts ulps
                ulps = np.abs(s_new.view(np.int64) - s[1:].view(np.int64))
                if ulps.max(initial=0) <= 2 or sweep == PICARD_SWEEPS - 1:
                    break
                s[1:] = s_new
            count, degrees, g, states, out = self._check(a, s, deg, points, fold_rows, values,
                                                         ulps > 2, krylov, bound, r)
            if count == len(s) or degrees[count] == deg[count]:
                break
            deg = degrees
        self._tail = {a: deg[-1]}
        return _Block(len(s), count, sweeps, g, s, states, out)

    def _check(self, a, s, deg, points, fold_rows, first, moved, krylov, bound, r):
        """The block's states and the first step in which a rule differs."""
        size = len(s)
        coef = np.empty((size + 1, CONTOUR_POINTS))
        coef[0] = self._unit
        coef[1:] = points.dot(self._fold).real
        rows = points.dot(fold_rows).real
        trace = np.empty(size + 1)
        trace[0] = 1.0
        trace[1:] = rows[:, -1]
        raw = coef.dot(krylov.vectors(0))
        states = raw / trace[:, None]
        values = np.empty((size + 1, len(first)))
        values[0] = first
        values[1:] = rows[:, :-1] / trace[1:, None]
        before = values[:-1]
        # the jump choice: the first triggered gradient is g_a
        triggered = before[:, :a + 1] < self._trigger
        ok = triggered[:, a] & ~triggered[:, :a].any(axis=1)
        ok[1:] &= ~moved
        # one Taylor substep, and evolve()'s time guard less its rounding margin
        ok &= (s * bound <= 1.0) & (s > 0.0) & (s <= MAX_TIME)
        degrees = self._degrees(coef[:-1] / trace[:-1, None], s, krylov, bound,
                                int(deg.max()) + 1)
        ok &= degrees == deg
        # the Hermiticity bound of ZeroFrequencySector.evolve and the trace defect
        leak = self._sector.generators[a][2] * s
        norms = np.sqrt(np.einsum("ij,ij->i", states[:-1], states[:-1]))
        herm = self._sqrt_d * leak * norms / np.where(leak < 1.0, 1.0 - leak, np.nan)
        ok &= np.maximum(herm, np.abs(trace[1:] / trace[:-1] - 1.0)) <= DEFECT_TOL
        # the Gershgorin screen, over (x, |x|); scale-free, so read on the
        # unnormalized states
        n = raw.shape[1]
        both = np.empty((size, 2 * n))
        both[:, :n] = raw[1:]
        np.abs(raw[1:], out=both[:, n:])
        screen = both.dot(self._post.T)
        screened = screen[:, 1:].min(axis=1) >= FLOOR * screen[:, 0]
        reach = np.cumsum(s) * r  # S r of the block up to each step
        ok &= reach <= 1.0
        count = size if ok.all() else int(np.argmin(ok))
        # the exact floor, for the states before count that the screen fails
        exact = np.flatnonzero(~screened[:count])
        if exact.size:
            below = self._sector.below_floor(states[1 + exact])
            if below.any():
                count = int(exact[np.argmax(below)])
        while count and _alias_bound(reach[count - 1]) > ALIAS_TOL:
            count -= 1
        return count, degrees, before[:, a], states, values

    def _degrees(self, coef, s, krylov, bound, top):
        """The Taylor degree that _taylor_substeps picks for one substep of
        size s_v from the state with Krylov coefficients coef[v]: the first k
        whose next-term bound sqrt(d) ||(s_v G)^k x / k!|| s_v bound / (k + 1)
        falls below ``TAYLOR_STOP`` of the budget, read for k <= ``top`` at once and
        then one k at a time."""
        size, n = len(s), krylov.dim
        top = min(top, MAX_TAYLOR_TERMS)
        ks = np.arange(1, top + 1)
        terms = coef.dot(krylov.stacked(top))  # (G / r)^k x_v for k = 1..top
        terms *= terms
        norms = np.sqrt(terms.reshape(-1, n).dot(np.ones(n))).reshape(size, top)
        # sqrt(d) s_v bound (s_v r)^k / (k! (k + 1)), times ||(G / r)^k x_v||
        scale = np.cumprod(np.outer(s * krylov.radius, 1.0 / ks), axis=1)
        scale *= np.outer(self._sqrt_d * s * max(bound, 1e-300), 1.0 / (ks + 1))
        stop = scale * norms < TAYLOR_STOP * TAYLOR_TOL
        first = stop.argmax(axis=1)
        open_ = ~stop[np.arange(size), first]
        degrees = first + 1
        degrees[open_] = MAX_TAYLOR_TERMS
        factor = scale[:, -1] * (top + 1)
        for k in range(top + 1, MAX_TAYLOR_TERMS + 1):
            if not open_.any():
                break
            factor = factor * (s * krylov.radius) / k
            terms = coef.dot(krylov.vectors(k))
            norms = np.sqrt(np.einsum("ij,ij->i", terms, terms))
            done = open_ & (factor * norms / (k + 1) < TAYLOR_STOP * TAYLOR_TOL)
            degrees[done] = k
            open_ &= ~done
        return degrees


def _guess_sizes(s0, sizes, size):
    """``size`` step sizes from s0 on, guessed from the run's earlier sizes:
    by the cubic through s0 and three of them h steps apart (Newton's
    backward differences), or the line through s0 and the last one."""
    v = np.arange(size, dtype=float)
    h = len(sizes) // 3
    if h < 2:
        return np.maximum(s0 + (s0 - sizes[-1]) * v, 0.0)
    f1, f2, f3 = sizes[-h], sizes[-2 * h], sizes[-3 * h]
    d1, d2, d3 = s0 - f1, s0 - 2.0 * f1 + f2, s0 - 3.0 * f1 + 3.0 * f2 - f3
    u = v / h
    return np.maximum(s0 + u * (d1 + (u + 1.0) * (0.5 * d2 + (u + 2.0) * d3 / 6.0)), 0.0)


_FACTORIALS = np.array([float(math.factorial(k)) for k in range(MAX_TAYLOR_TERMS + 1)])


def _alias_bound(y):
    """2 y^Q / Q! (Q + 1) / (Q + 1 - y): the aliasing bound of
    :class:`_RunBlocks` at y = S r, relative to ||x||."""
    q = CONTOUR_POINTS
    return 2.0 * y**q / math.factorial(q) * (q + 1) / (q + 1 - y) if y < q + 1 else math.inf


class _Krylov:
    """The vectors (G / r)^i x as rows, extended on demand."""

    def __init__(self, scaled, radius, x):
        self._scaled = scaled  # G / r
        self.radius = radius
        self.dim = len(x)
        self._vecs = x[None, :]

    def vectors(self, k):
        """(G / r)^i x for k <= i < k + Q."""
        self._extend(k + CONTOUR_POINTS)
        return self._vecs[k:k + CONTOUR_POINTS]

    def stacked(self, top):
        """:meth:`vectors` (k) for k = 1..top side by side, as a Q x (top n) matrix."""
        self._extend(top + CONTOUR_POINTS)
        rows = np.arange(CONTOUR_POINTS)[:, None] + np.arange(1, top + 1)
        return self._vecs[rows].reshape(CONTOUR_POINTS, -1)

    def _extend(self, stop):
        have = len(self._vecs)
        if have < stop:
            vecs = np.empty((stop + 4, self._vecs.shape[1]))
            vecs[:have] = self._vecs
            for i in range(have, len(vecs)):
                np.dot(self._scaled, vecs[i - 1], out=vecs[i])
            self._vecs = vecs


def thermal_gradient_descent(model: LindbladModel, rho0, cfg: DescentConfig) -> DescentTrace:
    """Run coordinate-wise thermal gradient descent from ``rho0``.

    Gradients are exact by default (this is a classical simulator); with
    ``cfg.noise`` set, seeded Gaussian noise of scale ``cfg.grad_tol`` is
    injected to emulate estimated gradients, and the noisy value is also
    used for the step size.

    A Davies model started inside its zero-frequency sector (block-diagonal
    by energy group, e.g. a maximally mixed, ground or commuting-basis
    state) is evolved in that sector; any other start, on any model, in the
    one group of all d levels, from the start's Hermitian part
    (:func:`zero_frequency_sector`).  Without a sector (d > 32 for one
    group) the state is vec(V^dag rho V), in the eigenbasis V of H like the
    sector's coordinates, and leaves V only at the end.  Each step reads
    every gradient and the energy from one fused matvec.  In a sector and
    without noise, a run that has taken ``RUN_WARMUP`` steps along one jump
    goes on in blocks of as many steps as it has taken, at most
    ``BLOCK_MAX`` (:class:`_RunBlocks`), whatever the state's rank: a block
    checks the positivity floor of all its states at once.  The step at
    which a block stops is taken one at a time; after a block that keeps no
    step, ``RUN_WARMUP`` steps are, doubling with each such block in a row
    up to the run's length so far.  A block's size never depends on
    ``cfg.max_steps`` or ``cfg.record_stride``, so a cap only cuts what is
    committed.  Each run's steps, block steps, blocks and Picard sweeps are
    logged at DEBUG level when the run ends.

    The trace keeps step 1 (whose ``e_before`` is the starting energy),
    every ``cfg.record_stride``-th step, and the final step.
    """
    rho = ops.check_density_matrix(rho0)
    rng = np.random.default_rng(cfg.seed) if cfg.noise else None
    space, x, read, blocks = _state_space(model, rho, cfg)
    labels = model.jump_labels
    m = len(labels)
    # entries 0..m-1 are the gradients g_a = Tr(L^dag_a[H] rho), entry m the energy
    values = read(x).tolist()
    trigger, stride, max_steps = cfg.trigger, cfg.record_stride, cfg.max_steps
    steps = []
    last = None
    t = 0
    # the current run: its jump, steps, the sizes of its latest steps, and
    # the blocks in a row that kept no step
    run, taken, sizes, empty = None, 0, [], 0
    stepwise = 0  # steps to take one at a time before the next block
    log = _RunLog() if logger.isEnabledFor(logging.DEBUG) else None
    while t < max_steps:
        # scan in declared order, stopping at the first triggered direction
        chosen = None
        for j in range(m):
            g = values[j]
            if rng is not None:
                g += float(rng.normal(0.0, cfg.grad_tol))
            if g < trigger:
                chosen = j
                break
        if chosen != run:
            if log is not None:
                log.end(run, taken, labels)
            run, taken, sizes, empty, stepwise = chosen, 0, [], 0, 0
        if chosen is None:
            rho = space.density(x)
            return DescentTrace(
                steps=_with_final(steps, last),
                terminal_state=rho,
                terminal_certificate=certify_local_min(model, rho, cfg.epsilon),
                terminated_early=True,
                config=cfg,
            )
        if blocks is not None and taken >= RUN_WARMUP and not stepwise:
            block = blocks.run(x, chosen, values, sizes, min(taken, BLOCK_MAX))
            n = min(block.count, max_steps - t)
            if log is not None:
                log.add(block, n)
            if block.count < block.size:
                # the step that stopped the block; after blocks that kept no
                # step, twice as many steps each time, at most the run's length
                stepwise = 1 if block.count else min(RUN_WARMUP << empty, taken)
            empty = 0 if block.count else empty + 1
            if n:
                g, sizes = block.g[:n].tolist(), block.s[:n].tolist()
                e = block.values[:n + 1, m].tolist()
                label = labels[chosen]
                for v in _recorded(t, n, stride):
                    steps.append(StepRecord(t + v, label, g[v - 1], sizes[v - 1], e[v - 1], e[v]))
                t += n
                taken += n
                last = (t, label, g[-1], sizes[-1], e[-2], e[-1])
                x, values = block.states[n], block.values[n].tolist()
            continue
        e_before = values[m]
        s = _step_size(g, cfg)
        x = space.evolve(x, chosen, s)
        values = read(x).tolist()
        t += 1
        taken += 1
        if blocks is not None:
            sizes.append(s)
            if len(sizes) > 2 * BLOCK_MAX:  # a run whose blocks keep failing
                del sizes[:-BLOCK_MAX]
            if stepwise:
                stepwise -= 1
        last = (t, labels[chosen], g, s, e_before, values[m])
        if t % stride == 0 or t == 1:
            steps.append(StepRecord(*last))
    if log is not None:
        log.end(run, taken, labels)
    partial = DescentTrace(
        steps=_with_final(steps, last),
        terminal_state=space.density(x),
        terminal_certificate=None,
        terminated_early=False,
        config=cfg,
    )
    raise MaxStepsExceeded(
        f"descent did not reach a local minimum within {cfg.max_steps} steps",
        trace=partial,
    )


def _recorded(t, n, stride):
    """The v in 1..n whose step t + v the trace keeps: step 1 and every
    ``stride``-th step."""
    first = (t // stride + 1) * stride - t
    return ([1] if t == 0 and first != 1 else []) + list(range(first, n + 1, stride))


class _RunLog:
    """The block counts of the current run, for its DEBUG line."""

    def __init__(self):
        self.steps = self.blocks = self.sweeps = 0

    def add(self, block, n):
        self.steps += n
        self.blocks += 1
        self.sweeps += block.sweeps

    def end(self, jump, taken, labels):
        if jump is not None:
            logger.debug("run along %s: %d steps, %d in %d blocks (%d Picard sweeps), "
                         "%d one at a time", labels[jump], taken, self.steps, self.blocks,
                         self.sweeps, taken - self.steps)
        self.steps = self.blocks = self.sweeps = 0


def _with_final(steps, last):
    """Append the final step to a thinned trace unless it is already there."""
    if last is not None and (not steps or steps[-1].index != last[0]):
        steps.append(StepRecord(*last))
    return steps
