"""Flow-matching primitives for action chunks.

An action chunk is an (H, D) array: H consecutive actions of dimension D in
normalized units.  Sampling follows the linear-Gaussian probability path

    x_tau = tau * x1 + (1 - tau) * eps,     eps ~ N(0, I),

so the marginal of x_tau given a clean chunk x1 is N(tau * x1, (1-tau)^2 I).
The velocity field transported by the Euler solver is the conditional
expectation

    v(x, tau) = E[x1 - eps | x_tau = x],

which has a closed form when the clean-chunk prior is an isotropic Gaussian
mixture: per component with mean mu and scale s,

    v_c(x, tau) = mu + (tau s^2 - (1 - tau)) / (tau^2 s^2 + (1 - tau)^2) * (x - tau mu)

and the mixture velocity weights the v_c by the posterior responsibilities of
x under the component marginals N(tau mu_c, (tau^2 s_c^2 + (1-tau)^2) I).
Everything here is a pure function over value types; callers may parallelize
freely.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import DomainError, NumericError, StructuralError

__all__ = [
    "VelocityField",
    "GaussianMixtureFieldParams",
    "GaussianMixtureField",
    "as_chunk",
    "gm_velocity",
    "gm_linearize",
    "one_step_estimate",
    "pullback_through_estimate",
]

# Central-difference step for numerical velocity Jacobians; balances
# truncation against roundoff on unit-scale float64 data.
FD_STEP = 1e-5


def as_chunk(data: Any, name: str = "chunk") -> np.ndarray:
    """Validate and return an (H, D) float array with finite entries."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise StructuralError(f"{name} must be a 2-D (H, D) array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name} contains non-finite entries")
    return arr


class VelocityField(abc.ABC):
    """Conditional velocity evaluator v(x, tau, observation).

    Subclasses implement ``evaluate``, which must return finite values for
    tau in [0, 1) and finite input.  ``linearize`` defaults to ``evaluate``
    plus a finite-difference pullback; fields with an analytic Jacobian
    override it to share one evaluation between the two.
    """

    @abc.abstractmethod
    def evaluate(self, chunk: np.ndarray, tau: float, observation: Any = None) -> np.ndarray:
        """Velocity at ``chunk`` for denoising time ``tau``; same shape as ``chunk``."""

    def linearize(
        self, chunk: np.ndarray, tau: float, observation: Any = None
    ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """The velocity at ``chunk`` and its pullback u -> u^T (dv/dx) there.

        The default pullback takes central finite differences with step
        ``FD_STEP``, one pair of ``evaluate`` calls per chunk entry.
        """
        x = np.asarray(chunk, dtype=float)

        def pullback(cotangent: np.ndarray) -> np.ndarray:
            u = np.asarray(cotangent, dtype=float)
            if u.shape != x.shape:
                raise StructuralError(f"cotangent shape {u.shape} != chunk shape {x.shape}")
            out = np.empty_like(x)
            flat = out.reshape(-1)
            for j in range(x.size):
                probe = x.copy().reshape(-1)
                probe[j] += FD_STEP
                v_plus = self.evaluate(probe.reshape(x.shape), tau, observation)
                probe[j] -= 2.0 * FD_STEP
                v_minus = self.evaluate(probe.reshape(x.shape), tau, observation)
                flat[j] = float(np.sum(u * (v_plus - v_minus))) / (2.0 * FD_STEP)
            return out

        return self.evaluate(chunk, tau, observation), pullback


@dataclass
class GaussianMixtureFieldParams:
    """Isotropic Gaussian-mixture prior over clean chunks.

    weights: (K,) positive, summing to 1; means: (K, H, D); scales: (K,)
    per-component isotropic standard deviations.
    """

    weights: np.ndarray
    means: np.ndarray
    scales: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        self.means = np.asarray(self.means, dtype=float)
        self.scales = np.atleast_1d(np.asarray(self.scales, dtype=float))
        if self.weights.size < 1:
            raise StructuralError("mixture must have at least one component")
        if self.means.ndim != 3 or self.means.shape[0] != self.weights.size:
            raise StructuralError(
                f"means must be (K, H, D) with K={self.weights.size}, got {self.means.shape}"
            )
        if self.scales.shape != self.weights.shape:
            raise StructuralError("scales and weights must have matching length")
        # Written so that NaN fails every test: the solver trusts these values.
        if not np.all((self.scales > 0.0) & (self.scales < np.inf)):
            raise StructuralError("component scales must be positive and finite")
        if not (np.all(self.weights > 0.0) and abs(float(self.weights.sum()) - 1.0) <= 1e-12):
            raise StructuralError("component weights must be positive and sum to 1")
        if not np.all(np.isfinite(self.means)):
            raise StructuralError("component means must be finite")

    @property
    def n_components(self) -> int:
        return self.weights.size

    @property
    def chunk_shape(self) -> tuple[int, int]:
        return self.means.shape[1], self.means.shape[2]


def _check_tau(tau: float, *, allow_one: bool = False) -> float:
    tau = float(tau)
    hi_ok = tau <= 1.0 if allow_one else tau < 1.0
    if not (0.0 <= tau and hi_ok) or not math.isfinite(tau):
        interval = "[0, 1]" if allow_one else "[0, 1)"
        raise DomainError(f"tau must lie in {interval}, got {tau}")
    return tau


def _mixture_terms(x: np.ndarray, tau: float, params: GaussianMixtureFieldParams):
    """Responsibilities and per-component terms at a batch of points.

    x: (B, H, D).  Returns (resp (B, K), coef (K,), diff (B, K, H, D), m2 (K,)).
    Responsibilities are computed in log space with max-subtraction so that
    far-apart components do not underflow.
    """
    one_m = 1.0 - tau
    m2 = tau * tau * params.scales**2 + one_m * one_m  # (K,)
    diff = x[:, None, :, :] - tau * params.means[None, :, :, :]  # (B, K, H, D)
    sq = np.sum(diff * diff, axis=(2, 3))  # (B, K)
    n_dim = x.shape[1] * x.shape[2]
    logp = np.log(params.weights)[None, :] - 0.5 * n_dim * np.log(m2)[None, :] - sq / (2.0 * m2)[None, :]
    logp -= logp.max(axis=1, keepdims=True)
    resp = np.exp(logp)
    resp /= resp.sum(axis=1, keepdims=True)
    coef = (tau * params.scales**2 - one_m) / m2  # (K,)
    return resp, coef, diff, m2


def _check_points(
    chunk: np.ndarray, tau: float, params: GaussianMixtureFieldParams, *, batch_ok: bool
) -> tuple[float, np.ndarray]:
    tau = _check_tau(tau)
    x = np.asarray(chunk, dtype=float)
    if x.ndim not in ((2, 3) if batch_ok else (2,)) or x.shape[-2:] != params.chunk_shape:
        expected = "(H, D) or (B, H, D)" if batch_ok else "(H, D)"
        raise StructuralError(
            f"chunk shape {x.shape} must be {expected} with (H, D) = {params.chunk_shape}"
        )
    if not np.all(np.isfinite(x)):
        raise NumericError("chunk contains non-finite entries")
    return tau, x


def _velocity_from_terms(resp, coef, diff, params: GaussianMixtureFieldParams):
    """Component velocities v_c (B, K, H, D) and their blend v (B, H, D)."""
    v_c = params.means[None, :, :, :] + coef[None, :, None, None] * diff
    return v_c, np.sum(resp[:, :, None, None] * v_c, axis=1)


def gm_velocity(chunk: np.ndarray, tau: float, params: GaussianMixtureFieldParams) -> np.ndarray:
    """Exact marginal velocity E[x1 - eps | x_tau = chunk] for the mixture prior.

    ``chunk`` is one (H, D) chunk or a (B, H, D) batch; the result has its
    shape.  For a single component (mu, s) this is
    mu + ((tau s^2 - (1-tau)) / (tau^2 s^2 + (1-tau)^2)) * (chunk - tau mu);
    mixture components are blended by posterior responsibilities.

    Raises DomainError at tau = 1, where the path endpoint degenerates.
    """
    tau, x = _check_points(chunk, tau, params, batch_ok=True)
    batch = x if x.ndim == 3 else x[None, :, :]
    resp, coef, diff, _ = _mixture_terms(batch, tau, params)
    _, v = _velocity_from_terms(resp, coef, diff, params)
    return v if x.ndim == 3 else v[0]


def gm_linearize(
    chunk: np.ndarray, tau: float, params: GaussianMixtureFieldParams
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Mixture velocity at one (H, D) chunk and its exact pullback, from one evaluation.

    Returns (v, pullback) where v equals ``gm_velocity(chunk, tau, params)``
    and pullback(u) = u^T (dv/dx).  Writing r_c for the responsibilities,
    v_c for component velocities, c_c for the per-component affine slope and
    d_c = -(x - tau mu_c) / m_c^2 for the responsibility log-gradients,

        dv/dx = (sum_c r_c c_c) I + sum_c v_c (grad r_c)^T,
        grad r_c = r_c (d_c - sum_k r_k d_k),

    so the pullback of u is (sum_c r_c c_c) u + sum_c r_c <u, v_c> (d_c - dbar).
    """
    tau, x = _check_points(chunk, tau, params, batch_ok=False)
    resp, coef, diff, m2 = _mixture_terms(x[None, :, :], tau, params)
    v_c, v = _velocity_from_terms(resp, coef, diff, params)
    resp, v_c = resp[0], v_c[0]  # (K,), (K, H, D)
    d_c = -diff[0] / m2[:, None, None]  # (K, H, D)
    d_bar = np.sum(resp[:, None, None] * d_c, axis=0)
    slope = float(np.dot(resp, coef))

    def pullback(cotangent: np.ndarray) -> np.ndarray:
        u = np.asarray(cotangent, dtype=float)
        if u.shape != x.shape:
            raise StructuralError(f"cotangent shape {u.shape} != chunk shape {x.shape}")
        u_dot_v = np.sum(u[None, :, :] * v_c, axis=(1, 2))  # (K,)
        out = slope * u
        out += np.sum((resp * u_dot_v)[:, None, None] * (d_c - d_bar[None, :, :]), axis=0)
        return out

    return v[0], pullback


class GaussianMixtureField(VelocityField):
    """Analytic velocity field for an isotropic Gaussian-mixture chunk prior.

    Stands in for a learned policy so every downstream quantity has an
    oracle.  ``field_params`` maps the observation to the mixture
    parameters; here it ignores the observation, because the conditioning is
    baked into ``params``, and subclasses override it to condition.
    """

    def __init__(self, params: GaussianMixtureFieldParams):
        self.params = params

    def field_params(self, observation: Any) -> GaussianMixtureFieldParams:
        return self.params

    def evaluate(self, chunk: np.ndarray, tau: float, observation: Any = None) -> np.ndarray:
        return gm_velocity(chunk, tau, self.field_params(observation))

    def linearize(self, chunk: np.ndarray, tau: float, observation: Any = None):
        return gm_linearize(chunk, tau, self.field_params(observation))


def one_step_estimate(chunk: np.ndarray, velocity: np.ndarray, tau: float) -> np.ndarray:
    """One-step clean estimate: chunk + (1 - tau) * velocity."""
    tau = _check_tau(tau, allow_one=True)
    x = np.asarray(chunk, dtype=float)
    v = np.asarray(velocity, dtype=float)
    if v.shape != x.shape:
        raise StructuralError(f"velocity shape {v.shape} != chunk shape {x.shape}")
    return x + (1.0 - tau) * v


def pullback_through_estimate(
    cotangent: np.ndarray, tau: float, velocity_pullback: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """u^T (I + (1 - tau) dv/dx): u pulled back through the one-step clean estimate.

    ``velocity_pullback`` maps u to u^T dv/dx, as returned by
    ``VelocityField.linearize``.  A non-finite result raises NumericError
    naming its first bad coordinate.
    """
    out = cotangent + (1.0 - tau) * velocity_pullback(cotangent)
    if not np.all(np.isfinite(out)):
        bad = np.argwhere(~np.isfinite(out))[0]
        raise NumericError(f"non-finite VJP at coordinate {tuple(int(i) for i in bad)}")
    return out
