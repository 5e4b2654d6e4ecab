"""Guided denoising for chunk-to-chunk continuity.

A freshly denoised action chunk can disagree with the tail of the chunk the
controller is still executing.  The fix used here injects, at every solver
step, a correction that pulls the one-step clean estimate toward an
inpainting target Y (the residual actions of the previous chunk) under a
soft per-row mask W:

    g = (W-masked residual) pulled back through the clean estimate  (a VJP)
    step velocity = v + w(tau) * g,    optionally trust-region clipped.

Two weight schedules are provided.  The unit-prior schedule

    w_rtc(tau) = min((tau^2 + (1-tau)^2) / (tau (1-tau)), beta)

assumes clean data with unit variance and sags to 2.0 at tau = 0.5.  Keeping
the data-prior scale sigma_d in the derivation instead gives

    r^2(tau) = (1-tau)^2 sigma_d^2 / ((1-tau)^2 + sigma_d^2 tau^2)
    w_pc(tau) = min(((1-tau)^2 + sigma_d^2 tau^2) / (sigma_d^2 tau (1-tau)), beta)

which boosts mid-trajectory correction when plausible chunks are tightly
concentrated around the conditional mean (sigma_d < 1).  A larger weight
also amplifies the component of g transverse to the denoising velocity, so
the full method additionally clips that component to a trust region of
radius rho * ||v||, keeping the parallel component intact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Optional

import numpy as np

from .errors import DomainError, NumericError, StructuralError
from .flow import VelocityField, as_chunk, one_step_estimate, pullback_through_estimate

__all__ = [
    "GuidanceMethod",
    "GuidanceConfig",
    "InpaintTarget",
    "rtc_weight",
    "r_tau_sq",
    "pc_weight",
    "pseudoinverse_correction",
    "otr_project",
    "guided_denoise",
]


class GuidanceMethod(Enum):
    NAIVE = "naive"  # plain Euler sampling, no correction
    RTC = "rtc"      # unit-prior weight schedule
    PC = "pc"        # prior-corrected weight (sigma_d)
    POTR = "potr"    # prior-corrected weight + orthogonal trust region


@dataclass
class GuidanceConfig:
    """Parameters of one guided denoising run.

    rho = math.inf disables the trust region; with sigma_d = 1 and
    rho = inf, PC/POTR reduce to RTC exactly.  beta should normally equal
    n_steps: the solver scales each correction by 1/n, so scaling the clip
    with n keeps the effective correction strength resolution-independent.
    The useful range of rho tracks the typical correction-to-velocity norm
    ratio of the deployment; the default suits the shipped benchmark, where
    the trust region should trim transverse spikes rather than bind on
    every step.
    """

    method: GuidanceMethod = GuidanceMethod.POTR
    sigma_d: float = 0.4
    rho: float = 2.0
    beta: float = 10.0
    n_steps: int = 10
    epsilon: float = 1e-8
    # The weight schedules diverge at tau = 0, so the first solver step is
    # unguided by default; set True to apply the clipped weight w = beta there.
    guide_first_step: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.method, GuidanceMethod):
            self.method = GuidanceMethod(self.method)
        if not (self.sigma_d > 0.0):
            raise StructuralError(f"sigma_d must be positive, got {self.sigma_d}")
        if not (self.rho > 0.0):
            raise StructuralError(f"rho must be positive (or inf), got {self.rho}")
        if int(self.n_steps) < 1:
            raise StructuralError(f"n_steps must be >= 1, got {self.n_steps}")
        self.n_steps = int(self.n_steps)
        if not (self.beta > 0.0):
            raise StructuralError(f"beta must be positive, got {self.beta}")
        if not (0.0 < self.epsilon <= 1e-6):
            raise StructuralError(f"epsilon must lie in (0, 1e-6], got {self.epsilon}")


@dataclass
class InpaintTarget:
    """Inpainting target Y (H, D) and soft mask W (H,) with entries in [0, 1].

    Rows of Y beyond the valid overlap must be zero and carry mask 0.
    """

    target: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        self.target = as_chunk(self.target, "inpaint target")
        self.mask = np.asarray(self.mask, dtype=float)
        if self.mask.shape != (self.target.shape[0],):
            raise StructuralError(
                f"mask shape {self.mask.shape} != (H,) = ({self.target.shape[0]},)"
            )
        if not np.all((self.mask >= 0.0) & (self.mask <= 1.0)):  # NaN fails too
            raise StructuralError("mask entries must lie in [0, 1]")


def _check_open_tau(tau: float) -> float:
    tau = float(tau)
    if not (0.0 < tau < 1.0):
        raise DomainError(f"guidance weight requires tau in (0, 1), got {tau}")
    return tau


def rtc_weight(tau: float, beta: float) -> float:
    """Unit-prior guidance weight min((tau^2 + (1-tau)^2) / (tau (1-tau)), beta).

    Equals min((1-tau)(1 + SNR(tau))/tau, beta) with SNR(tau) = tau^2/(1-tau)^2;
    symmetric under tau <-> 1-tau, with minimum value 2 at tau = 0.5.
    """
    tau = _check_open_tau(tau)
    one_m = 1.0 - tau
    return min((tau * tau + one_m * one_m) / (tau * one_m), beta)


def r_tau_sq(tau: float, sigma_d: float) -> float:
    """Normalization r^2(tau) = (1-tau)^2 sigma_d^2 / ((1-tau)^2 + sigma_d^2 tau^2).

    At sigma_d = 1 this reduces to (1-tau)^2 / (tau^2 + (1-tau)^2); as
    tau -> 0 it tends to sigma_d^2.
    """
    tau = _check_open_tau(tau)
    if not (sigma_d > 0.0):
        raise DomainError(f"sigma_d must be positive, got {sigma_d}")
    one_m = 1.0 - tau
    s2 = sigma_d * sigma_d
    return (one_m * one_m * s2) / (one_m * one_m + s2 * tau * tau)


def pc_weight(tau: float, sigma_d: float, beta: float) -> float:
    """Prior-corrected weight min(((1-tau)^2 + sigma_d^2 tau^2) / (sigma_d^2 tau (1-tau)), beta).

    This is (1-tau) / (tau * r_tau_sq(tau, sigma_d)) clipped at beta, and
    reduces to rtc_weight at sigma_d = 1 (bit-exactly, by construction).
    """
    tau = _check_open_tau(tau)
    if not (sigma_d > 0.0):
        raise DomainError(f"sigma_d must be positive, got {sigma_d}")
    one_m = 1.0 - tau
    s2 = sigma_d * sigma_d
    return min((one_m * one_m + s2 * tau * tau) / (s2 * tau * one_m), beta)


def pseudoinverse_correction(
    chunk: np.ndarray,
    tau: float,
    velocity: np.ndarray,
    inpaint: InpaintTarget,
    pullback: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Unweighted correction g: the masked residual (Y - clean estimate) pulled
    back through the one-step clean estimate.

    ``velocity`` and ``pullback`` (u -> u^T dv/dx) come from one
    ``VelocityField.linearize`` call at ``chunk``:
    u = W (Y - (x + (1 - tau) v)) and g = u + (1 - tau) pullback(u).
    """
    a1 = one_step_estimate(chunk, velocity, tau)
    cotangent = inpaint.mask[:, None] * (inpaint.target - a1)
    return pullback_through_estimate(cotangent, tau, pullback)


def otr_project(
    guidance: np.ndarray, velocity: np.ndarray, rho: float, epsilon: float = 1e-8
) -> np.ndarray:
    """Clip the component of ``guidance`` orthogonal to ``velocity``.

    Decomposes g into g_par (along v, over the flattened H*D inner product)
    and g_perp, and scales g_perp so that ||g_final - g_par|| <= rho ||v||,
    leaving g_par untouched:

        g_final = g_par + min(rho ||v|| / ||g_perp||, 1) * g_perp.

    This is the unique maximizer of <g_hat, g> over the ball
    ||g_hat - g_par|| <= rho ||v||.  Arrays may be any matching shape; the
    projection is global, not per-row.  rho = inf returns g unchanged.  When
    ||v|| < epsilon the direction of v is meaningless, so all of g counts as
    transverse and is clipped into the ball ||g_final|| <= rho ||v||: the
    result tends to 0 continuously with v and projecting it again leaves it
    in place.  epsilon only guards the division by ||v||; it never loosens or
    tightens the radius.
    """
    g = np.asarray(guidance, dtype=float)
    v = np.asarray(velocity, dtype=float)
    if g.shape != v.shape:
        raise StructuralError(f"guidance shape {g.shape} != velocity shape {v.shape}")
    if not (rho > 0.0):
        raise DomainError(f"rho must be positive (or inf), got {rho}")
    if math.isinf(rho):
        return g.copy()
    g_flat = g.reshape(-1)
    v_flat = v.reshape(-1)
    v_norm = float(np.linalg.norm(v_flat))
    radius = rho * v_norm
    if v_norm < epsilon:
        # math.hypot scales its arguments, so the norm of a tiny g cannot
        # underflow to 0 and slip past the radius test.
        g_norm = math.hypot(*g_flat)
        return (radius / g_norm) * g if g_norm > radius else g.copy()
    g_par = (float(np.dot(g_flat, v_flat)) / (v_norm * v_norm)) * v_flat
    g_perp = g_flat - g_par
    perp_norm = float(np.linalg.norm(g_perp))
    scale = radius / perp_norm if perp_norm > radius else 1.0
    return (g_par + scale * g_perp).reshape(g.shape)


def guided_denoise(
    noise: np.ndarray,
    observation: Any,
    field: VelocityField,
    inpaint: Optional[InpaintTarget],
    config: GuidanceConfig,
) -> np.ndarray:
    """Run the full guided Euler denoising loop and return the clean chunk.

    For k = 0 .. n-1 at tau = k/n: evaluate the velocity and take the Euler
    step x + v / n.  Unless the method is NAIVE (or k = 0 with
    guide_first_step unset, where the weight is undefined), the step instead
    linearizes the field, so the velocity and its pullback come from one
    evaluation; computes the pseudoinverse correction g, weights it by the
    method's schedule and trust-region-projects it for POTR; and steps with
    x + (v + g_final) / n.  NAIVE shares the identical loop with guidance
    short-circuited, so baselines are bit-comparable.  ``noise`` is validated
    once; a step velocity of the wrong shape raises StructuralError and a
    non-finite one NumericError, naming the solver step.
    """
    if inpaint is None and config.method is not GuidanceMethod.NAIVE:
        raise StructuralError(f"method {config.method.value} requires an inpainting target")
    x = as_chunk(noise, "noise")
    if inpaint is not None and inpaint.target.shape != x.shape:
        raise StructuralError(
            f"inpaint target shape {inpaint.target.shape} != noise shape {x.shape}"
        )
    n = config.n_steps
    for k in range(n):
        tau = k / n
        if config.method is GuidanceMethod.NAIVE or (k == 0 and not config.guide_first_step):
            step_velocity = field.evaluate(x, tau, observation)
        else:
            velocity, pullback = field.linearize(x, tau, observation)
            try:
                g = pseudoinverse_correction(x, tau, velocity, inpaint, pullback)
                if k == 0:
                    w = config.beta  # clipped value; the schedule diverges at tau = 0
                elif config.method is GuidanceMethod.RTC:
                    w = rtc_weight(tau, config.beta)
                else:
                    w = pc_weight(tau, config.sigma_d, config.beta)
                g_final = w * g
                if config.method is GuidanceMethod.POTR:
                    g_final = otr_project(g_final, velocity, config.rho, config.epsilon)
            except (StructuralError, DomainError, NumericError) as err:
                raise type(err)(f"denoising step {k}: {err}") from err
            step_velocity = velocity + g_final
        step_velocity = np.asarray(step_velocity, dtype=float)
        if step_velocity.shape != x.shape:
            raise StructuralError(
                f"velocity shape {step_velocity.shape} != chunk shape {x.shape} at solver step {k}"
            )
        if not np.all(np.isfinite(step_velocity)):
            raise NumericError(f"non-finite velocity at solver step {k}")
        x = x + step_velocity / n
    return x
