"""Guided denoising for chunk-to-chunk continuity.

A freshly denoised action chunk can disagree with the tail of the chunk the
controller is still executing.  The fix used here injects, at every solver
step, a correction that pulls the one-step clean estimate toward an
inpainting target Y (the residual actions of the previous chunk) under a
soft per-row mask W:

    u = W (Y - (x + (1-tau) v))              (masked residual of the clean estimate)
    g = u + (1-tau) u^T dv/dx                 (u pulled back through the estimate)
    step velocity = v + w(tau) * g,           optionally trust-region clipped.

The weight keeps the data-prior scale sigma_d in the derivation:

    r^2(tau) = (1-tau)^2 sigma_d^2 / ((1-tau)^2 + sigma_d^2 tau^2)
    w_pc(tau) = min(((1-tau)^2 + sigma_d^2 tau^2) / (sigma_d^2 tau (1-tau)), beta)

with the clip beta = n, the number of solver steps.  The weight boosts
mid-trajectory correction when plausible chunks are tightly concentrated
around the conditional mean (sigma_d < 1).  A larger weight
also amplifies the component of g transverse to the denoising velocity, so
the full method (potr) additionally clips that component to a trust region
of radius rho * ||v||, keeping the parallel component intact.

The guided methods are settings of this one step, by construction: rtc is
pc at sigma_d = 1 (the unit-prior weight, which sags to 2.0 at tau = 0.5),
and pc is potr at rho = inf (where the projection returns g unchanged).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Optional

import numpy as np

from .errors import DomainError, NumericError, StructuralError
from .flow import VelocityField, as_chunk

__all__ = [
    "GuidanceMethod",
    "GuidanceConfig",
    "InpaintTarget",
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


@dataclass(frozen=True)
class GuidanceConfig:
    """Parameters of one guided denoising run.

    Immutable: construction resolves ``method`` once into ``guided`` (not
    naive), ``weight_sigma`` (1.0 for rtc, else sigma_d) and ``radius`` (rho
    for potr, else inf), so rtc is pc at sigma_d = 1 and pc is potr at
    rho = inf by construction; ``weights[k]`` is solver step k's weight, a
    read-only 0-d array.
    The rest of the step is fixed by the protocol.  The weight is clipped at
    beta = n_steps: the solver scales each correction by 1/n, so a clip that
    grows with n keeps the effective correction strength independent of the
    solver resolution.  Solver step 0 is always unguided (weight 0.0),
    because the weight schedules diverge at tau = 0, and the trust-region
    projection's 1e-8 guard on ||v|| is a constant too.
    The useful range of rho tracks the typical correction-to-velocity norm
    ratio of the deployment; the default suits the shipped benchmark, where
    the trust region should trim transverse spikes rather than bind on
    every step.
    """

    method: GuidanceMethod = GuidanceMethod.POTR
    sigma_d: float = 0.4
    rho: float = 2.0
    n_steps: int = 10

    def __post_init__(self) -> None:
        set_field = functools.partial(object.__setattr__, self)  # the instance is frozen
        set_field("method", GuidanceMethod(self.method))
        if not (0.0 < self.sigma_d < math.inf):
            raise StructuralError(f"sigma_d must be positive and finite, got {self.sigma_d}")
        if not (self.rho > 0.0):
            raise StructuralError(f"rho must be positive (or inf), got {self.rho}")
        if not (1 <= self.n_steps < math.inf and self.n_steps == int(self.n_steps)):
            raise StructuralError(f"n_steps must be an integer >= 1, got {self.n_steps}")
        set_field("n_steps", int(self.n_steps))
        set_field("guided", self.method is not GuidanceMethod.NAIVE)
        set_field("weight_sigma", 1.0 if self.method is GuidanceMethod.RTC else self.sigma_d)
        set_field("radius", self.rho if self.method is GuidanceMethod.POTR else math.inf)
        n = self.n_steps
        guided_weights = (pc_weight(k / n, self.weight_sigma, float(n)) for k in range(1, n))
        weights = np.array((0.0, *guided_weights))
        weights.flags.writeable = False  # and so is each step's 0-d view
        set_field("weights", tuple(weights[k, ...] for k in range(n)))


@dataclass(frozen=True)
class InpaintTarget:
    """Inpainting target Y (H, D) and soft mask W (H,) with entries in [0, 1].

    Rows of Y beyond the valid overlap must be zero and carry mask 0.
    Immutable: construction also derives ``entry_mask``, W repeated over
    the D columns, so that every solver step's masked residual is a
    same-shape product.
    """

    target: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        set_field = functools.partial(object.__setattr__, self)  # the instance is frozen
        set_field("target", as_chunk(self.target, "inpaint target"))
        set_field("mask", np.asarray(self.mask, dtype=float))
        if self.mask.shape != (self.target.shape[0],):
            raise StructuralError(
                f"mask shape {self.mask.shape} != (H,) = ({self.target.shape[0]},)"
            )
        if not ((self.mask >= 0.0) & (self.mask <= 1.0)).all():  # NaN fails too
            raise StructuralError("mask entries must lie in [0, 1]")
        set_field("entry_mask", np.repeat(self.mask[:, None], self.target.shape[1], axis=1))


def pc_weight(tau: float, sigma_d: float, beta: float) -> float:
    """Prior-corrected weight min(((1-tau)^2 + sigma_d^2 tau^2) / (sigma_d^2 tau (1-tau)), beta).

    This is (1-tau) / (tau r^2(tau)) clipped at beta, with r^2 the posterior
    variance of the module docstring.  rtc is sigma_d = 1: the unit-prior
    weight min((tau^2 + (1-tau)^2) / (tau (1-tau)), beta).
    """
    tau = float(tau)
    if not (0.0 < tau < 1.0):
        raise DomainError(f"guidance weight requires tau in (0, 1), got {tau}")
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
    back through the one-step clean estimate x + (1 - tau) v.

    ``velocity`` and ``pullback`` (u -> u^T dv/dx) come from one
    ``VelocityField.linearize`` call at ``chunk``:
    u = W (Y - (x + (1 - tau) v)) and g = u + (1 - tau) pullback(u).
    A velocity not shaped like ``chunk`` raises StructuralError, not a broadcast.
    """
    velocity = np.asarray(velocity, dtype=float)
    if velocity.shape != chunk.shape:
        raise StructuralError(f"velocity shape {velocity.shape} != chunk shape {chunk.shape}")
    one_m = np.array(1.0 - tau)  # 0-d: each product skips a Python-float conversion
    cotangent = inpaint.entry_mask * (inpaint.target - (chunk + one_m * velocity))
    return cotangent + one_m * pullback(cotangent)


def otr_project(guidance: np.ndarray, velocity: np.ndarray, rho: float) -> np.ndarray:
    """Clip the component of ``guidance`` orthogonal to ``velocity``.

    Decomposes g into g_par (along v, over the flattened H*D inner product)
    and g_perp, and scales g_perp so that ||g_final - g_par|| <= rho ||v||,
    leaving g_par untouched:

        g_final = g_par + min(rho ||v|| / ||g_perp||, 1) * g_perp.

    This is the unique maximizer of <g_hat, g> over the ball
    ||g_hat - g_par|| <= rho ||v||.  Arrays may be any matching shape; the
    projection is global, not per-row.  rho = inf returns g unchanged.  When
    ||v|| < 1e-8 the direction of v is meaningless, so all of g counts as
    transverse and is clipped into the ball ||g_final|| <= rho ||v||: the
    result tends to 0 continuously with v and projecting it again leaves it
    in place.  The 1e-8 constant only guards the division by ||v||; it never
    loosens or tightens the radius.  An unclipped g_perp is added as it is:
    1.0 * g_perp is g_perp bit for bit, and the product would cost a numpy
    call on nearly every step (the shipped benchmark clips 0.1-0.2% of them).
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
    # sqrt(<v, v>) is what np.linalg.norm computes for a 1-D real array.
    v_norm = math.sqrt(v_flat.dot(v_flat))
    radius = rho * v_norm
    if v_norm < 1e-8:
        # math.hypot scales its arguments, so the norm of a tiny g cannot
        # underflow to 0 and slip past the radius test.
        g_norm = math.hypot(*g_flat)
        return (radius / g_norm) * g if g_norm > radius else g.copy()
    g_par = (float(g_flat.dot(v_flat)) / (v_norm * v_norm)) * v_flat
    g_perp = g_flat - g_par
    perp_norm = math.sqrt(g_perp.dot(g_perp))
    if perp_norm > radius:
        g_perp = (radius / perp_norm) * g_perp
    return (g_par + g_perp).reshape(g.shape)


def guided_denoise(
    noise: np.ndarray,
    observation: Any,
    field: VelocityField,
    inpaint: Optional[InpaintTarget],
    config: GuidanceConfig,
) -> np.ndarray:
    """Run the full guided Euler denoising loop and return the clean chunk.

    For k = 0 .. n-1 at tau = k/n: evaluate the velocity and take the Euler
    step x + v / n.  Unless the method is NAIVE or k = 0 (where the weight
    is undefined), the step instead linearizes the field, so the velocity
    and its pullback come from one evaluation; computes the pseudoinverse
    correction g, weights it by the config's ``weights[k]`` (w_pc at its
    ``weight_sigma``, clipped at beta = n), trust-region-projects it at the
    config's ``radius`` and steps with x + (v + g_final) / n.  NAIVE shares
    the identical loop with guidance short-circuited, so baselines are
    bit-comparable.  ``noise`` is validated once; a step velocity of the
    wrong shape raises StructuralError and a non-finite one NumericError,
    naming the solver step.
    """
    if inpaint is None and config.guided:
        raise StructuralError(f"method {config.method.value} requires an inpainting target")
    x = as_chunk(noise, "noise")
    if inpaint is not None and inpaint.target.shape != x.shape:
        raise StructuralError(
            f"inpaint target shape {inpaint.target.shape} != noise shape {x.shape}"
        )
    n = config.n_steps
    n_0d = np.array(float(n))  # x / n == x / float(n); a 0-d divisor converts for free
    for k in range(n):
        tau = k / n
        if not config.guided or k == 0:
            step_velocity = field.evaluate(x, tau, observation)
        else:
            velocity, pullback = field.linearize(x, tau, observation)
            try:
                g = pseudoinverse_correction(x, tau, velocity, inpaint, pullback)
                g_final = otr_project(config.weights[k] * g, velocity, config.radius)
            except StructuralError as err:
                raise StructuralError(f"denoising step {k}: {err}") from err
            step_velocity = velocity + g_final
        step_velocity = np.asarray(step_velocity, dtype=float)
        if step_velocity.shape != x.shape:
            raise StructuralError(
                f"velocity shape {step_velocity.shape} != chunk shape {x.shape} at solver step {k}"
            )
        if not np.isfinite(step_velocity).all():
            raise NumericError(f"non-finite velocity at solver step {k}")
        x = x + step_velocity / n_0d
    return x
