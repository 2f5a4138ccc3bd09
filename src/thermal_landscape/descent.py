"""Thermal gradient descent on exact density matrices.

Coordinate-wise descent: scan jumps in declared order, pick the first
direction whose energy gradient falls below the trigger, evolve along it
with step s = |g| / (9 B^2), repeat until no direction triggers, then
certify the terminal state.  Defaults reproduce the step budget
T = 42 B^3 / eps^2 and the trigger/estimation constants.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import operators as ops
from .errors import MaxStepsExceeded, TriggerNotMet
from .gradient import CertificateResult, certify_local_min, gradient_operator
from .lindblad import LindbladModel, evolve, weight_vector, zero_frequency_sector


@dataclass(frozen=True)
class DescentConfig:
    """Descent parameters; defaults follow the algorithm's constants.

    ``record_stride`` thins the recorded trace to step 1, every k-th step
    and the final step; the walk itself is unaffected.
    """

    epsilon: float
    norm_bound: float  # B >= ||H||
    max_steps: int | None = None
    grad_tol: float | None = None  # scale of optional injected gradient noise
    trigger: float | None = None
    noise: bool = False
    seed: int = 0
    record_stride: int = 1

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.norm_bound <= 0:
            raise ValueError("norm_bound must be positive")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")
        if self.max_steps is None:
            object.__setattr__(
                self, "max_steps",
                int(math.ceil(42.0 * self.norm_bound**3 / self.epsilon**2)),
            )
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.grad_tol is None:
            object.__setattr__(self, "grad_tol", 0.0099 * self.epsilon)
        if self.trigger is None:
            object.__setattr__(self, "trigger", -0.99 * self.epsilon)


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
    """States as row-major vec(rho), evolved by :func:`evolve`; the fallback
    for states and models without a zero-frequency sector."""

    def __init__(self, model: LindbladModel):
        self._model = model
        self._units = [weight_vector(model, label=j.label) for j in model.jumps]

    @staticmethod
    def row(op):
        # Tr(op rho) = sum_ij op_ij rho_ji
        return np.asarray(op, dtype=complex).T.reshape(-1)

    def evolve(self, x, index, s):
        d = self._model.dim
        return evolve(self._model, self._units[index], x.reshape(d, d), s).reshape(-1)

    def density(self, x):
        d = self._model.dim
        return x.reshape(d, d)


def _state_space(model: LindbladModel, rho):
    """The cheapest exact representation of ``rho`` under ``model``."""
    sector = zero_frequency_sector(model)
    if sector is not None:
        x = sector.coords(rho)
        if x is not None:
            return sector, x
    return _FullSpace(model), rho.reshape(-1).copy()


def thermal_gradient_descent(model: LindbladModel, rho0, cfg: DescentConfig) -> DescentTrace:
    """Run coordinate-wise thermal gradient descent from ``rho0``.

    Gradients are exact by default (this is a classical simulator); with
    ``cfg.noise`` set, seeded Gaussian noise of scale ``cfg.grad_tol`` is
    injected to emulate estimated gradients, and the noisy value is also
    used for the step size.

    A Davies model started inside its zero-frequency sector (block-diagonal
    by energy group, e.g. a maximally mixed, ground or commuting-basis
    state) is evolved in that sector; any other start uses vec(rho).  Each
    step reads every gradient and the energy from one fused matvec.

    The trace keeps step 1 (whose ``e_before`` is the starting energy),
    every ``cfg.record_stride``-th step, and the final step.
    """
    rho = ops.check_density_matrix(rho0)
    rng = np.random.default_rng(cfg.seed) if cfg.noise else None
    space, x = _state_space(model, rho)
    labels = model.jump_labels
    m = len(labels)
    # rows 0..m-1 give the gradients g_a = Tr(L^dag_a[H] rho), row m the energy
    scan = np.array(
        [space.row(gradient_operator(model, label)) for label in labels]
        + [space.row(model.ham.dense)]
    )
    values = scan.dot(x).real.tolist()
    trigger, stride = cfg.trigger, cfg.record_stride
    steps = []
    last = None
    for t in range(1, cfg.max_steps + 1):
        # scan in declared order, stopping at the first triggered direction
        chosen = None
        for j in range(m):
            g = values[j]
            if rng is not None:
                g += float(rng.normal(0.0, cfg.grad_tol))
            if g < trigger:
                chosen = j
                break
        if chosen is None:
            rho = space.density(x)
            return DescentTrace(
                steps=_with_final(steps, last),
                terminal_state=rho,
                terminal_certificate=certify_local_min(model, rho, cfg.epsilon),
                terminated_early=True,
                config=cfg,
            )
        e_before = values[m]
        s = _step_size(g, cfg)
        x = space.evolve(x, chosen, s)
        values = scan.dot(x).real.tolist()
        last = (t, labels[chosen], g, s, e_before, values[m])
        if t % stride == 0 or t == 1:
            steps.append(StepRecord(*last))
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


def _with_final(steps, last):
    """Append the final step to a thinned trace unless it is already there."""
    if last is not None and (not steps or steps[-1].index != last[0]):
        steps.append(StepRecord(*last))
    return steps
