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
import functools
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import DomainError, NumericError, StructuralError

__all__ = [
    "VelocityField",
    "MixtureComponents",
    "GaussianMixtureFieldParams",
    "GaussianMixtureField",
    "as_chunk",
    "gm_velocity",
    "gm_linearize",
]

# Central-difference step for numerical velocity Jacobians; balances
# truncation against roundoff on unit-scale float64 data.
FD_STEP = 1e-5


def as_chunk(data: Any, name: str = "chunk") -> np.ndarray:
    """Validate and return an (H, D) float array with finite entries."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise StructuralError(f"{name} must be a 2-D (H, D) array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
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


@dataclass(frozen=True)
class MixtureComponents:
    """Mixture weights (K,), positive and summing to 1, and isotropic scales (K,).

    Validated once, with read-only ``log_weights``, ``scales_sq`` and the
    per-tau cache key ``tau_key``, so that many priors can share them.
    """

    weights: np.ndarray
    scales: np.ndarray

    def __post_init__(self) -> None:
        set_field = functools.partial(object.__setattr__, self)  # the instance is frozen
        set_field("weights", np.atleast_1d(np.array(self.weights, dtype=float)))
        set_field("scales", np.atleast_1d(np.array(self.scales, dtype=float)))
        if self.weights.size < 1:
            raise StructuralError("mixture must have at least one component")
        if self.scales.shape != self.weights.shape:
            raise StructuralError("scales and weights must have matching length")
        # Written so that NaN fails every test: the solver trusts these values.
        if not ((self.scales > 0.0) & (self.scales < np.inf)).all():
            raise StructuralError("component scales must be positive and finite")
        if not ((self.weights > 0.0).all() and abs(float(self.weights.sum()) - 1.0) <= 1e-12):
            raise StructuralError("component weights must be positive and sum to 1")
        set_field("log_weights", np.log(self.weights))
        set_field("scales_sq", self.scales**2)
        for arr in (self.weights, self.scales, self.log_weights, self.scales_sq):
            arr.flags.writeable = False
        set_field("tau_key", (self.scales_sq.tobytes(), self.log_weights.tobytes()))


@dataclass(frozen=True)
class GaussianMixtureFieldParams:
    """Isotropic Gaussian-mixture prior over clean chunks.

    weights: (K,) positive, summing to 1; means: (K, H, D) with H, D >= 1;
    scales: (K,) per-component isotropic standard deviations.  Immutable:
    construction validates them as ``MixtureComponents`` and the means, and
    derives the (K, H*D) ``flat_means`` that the mixture terms read.
    """

    weights: np.ndarray
    means: np.ndarray
    scales: np.ndarray

    def __post_init__(self) -> None:
        self._set_means(MixtureComponents(self.weights, self.scales), self.means)

    @classmethod
    def from_components(cls, components: MixtureComponents, means) -> GaussianMixtureFieldParams:
        """The prior with these (K, H, D) means; only the means are validated."""
        prior = object.__new__(cls)
        prior._set_means(components, means)
        return prior

    def _set_means(self, components: MixtureComponents, means) -> None:
        means = np.asarray(means, dtype=float)
        k = components.weights.size
        if means.ndim != 3 or means.shape[0] != k or 0 in means.shape[1:]:
            raise StructuralError(
                f"means must be (K, H, D) with K={k} and H, D >= 1, got {means.shape}"
            )
        if not np.isfinite(means).all():
            raise StructuralError("component means must be finite")
        # weights, scales, log_weights, scales_sq and tau_key, shared; the instance is frozen
        self.__dict__.update(components.__dict__, means=means, flat_means=means.reshape(k, -1))

    @property
    def chunk_shape(self) -> tuple[int, int]:
        return self.means.shape[1], self.means.shape[2]


@functools.lru_cache(maxsize=128)
def _tau_constants(tau: float, tau_key: tuple[bytes, bytes], n_dim: int):
    """(tau, log w - n_dim/2 log m2, 2 m2, coef, coef, -m2) with m2 = tau^2 s^2 + (1 - tau)^2.

    These depend only on tau and the components, which a controller repeats
    on every regeneration.  They come shaped as they are used: tau 0-d, then
    (1, K), (1, K), (K,), (1, K, n_dim) and (1, K, n_dim), like the mixture
    terms.  A Python-float operand or a broadcast costs numpy about as much
    as the arithmetic on a (10, 2) chunk; same-shape and 0-d operands give
    the same bits without it.
    """
    s2, log_w = (np.frombuffer(b)[None, :] for b in tau_key)
    one_m = 1.0 - tau
    m2 = tau * tau * s2 + one_m * one_m
    coef = (tau * s2 - one_m) / m2
    full = np.ones((1, 1, n_dim))
    out = (
        np.array(tau), log_w - 0.5 * n_dim * np.log(m2), 2.0 * m2, coef[0],
        coef[:, :, None] * full, -m2[:, :, None] * full,
    )
    for arr in out:
        arr.flags.writeable = False  # every cache hit shares these arrays
    return out


def _mixture_terms(x: np.ndarray, tau: float, params: GaussianMixtureFieldParams):
    """Responsibilities and per-component terms at a batch of flat points.

    x: (B, N) with N = H*D.  Returns (resp (B, K), coef (K,), coef (1, K, N),
    diff (B, K, N), -m2 (1, K, N)).  Responsibilities are computed in log
    space with max-subtraction so that far-apart components do not underflow.
    """
    tau, log_norm, two_m2, coef, coef_n, neg_m2 = _tau_constants(tau, params.tau_key, x.shape[1])
    diff = x[:, None, :] - tau * params.flat_means  # (B, K, N)
    logp = log_norm - np.add.reduce(diff * diff, axis=2) / two_m2  # (B, K)
    logp -= np.maximum.reduce(logp, axis=1, keepdims=True)
    resp = np.exp(logp)
    resp /= np.add.reduce(resp, axis=1, keepdims=True)
    return resp, coef, coef_n, diff, neg_m2


def gm_velocity(chunk: np.ndarray, tau: float, params: GaussianMixtureFieldParams) -> np.ndarray:
    """Exact marginal velocity E[x1 - eps | x_tau = chunk]: ``gm_linearize``'s velocity.

    For a single component (mu, s) this is
    mu + ((tau s^2 - (1-tau)) / (tau^2 s^2 + (1-tau)^2)) * (chunk - tau mu);
    mixture components are blended by posterior responsibilities.
    """
    return gm_linearize(chunk, tau, params)[0]


def gm_linearize(
    chunk: np.ndarray, tau: float, params: GaussianMixtureFieldParams
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Mixture velocity at an (H, D) chunk or a (B, H, D) batch and its exact pullback.

    Returns (v, pullback), both from one evaluation: v shaped like ``chunk``
    and, row by row for a cotangent u of that shape, pullback(u) =
    u^T (dv/dx).  Writing r_c for the responsibilities, v_c for component
    velocities, c_c for the per-component affine slope and
    d_c = -(x - tau mu_c) / m_c^2 for the responsibility log-gradients,

        dv/dx = (sum_c r_c c_c) I + sum_c v_c (grad r_c)^T,
        grad r_c = r_c (d_c - sum_k r_k d_k),

    so the pullback of u is (sum_c r_c c_c) u + sum_c r_c <u, v_c> (d_c - dbar).
    The pullback builds these Jacobian pieces only when called.  Raises
    DomainError at tau = 1, where the path endpoint degenerates.
    """
    tau = float(tau)
    if not (0.0 <= tau < 1.0):  # NaN fails too
        raise DomainError(f"tau must lie in [0, 1), got {tau}")
    x = np.asarray(chunk, dtype=float)
    if x.ndim not in (2, 3) or x.shape[-2:] != params.means.shape[1:]:
        raise StructuralError(
            f"chunk shape {x.shape} must be (H, D) or (B, H, D) with (H, D) = {params.chunk_shape}"
        )
    if not np.isfinite(x).all():
        raise NumericError("chunk contains non-finite entries")
    flat = x.reshape(-1, params.flat_means.shape[1])  # one (H, D) chunk is a batch of one
    resp, coef, coef_n, diff, neg_m2 = _mixture_terms(flat, tau, params)
    v_c = params.flat_means + coef_n * diff  # (B, K, N)
    v = np.add.reduce(resp[:, :, None] * v_c, axis=1)  # (B, N)

    def pullback(cotangent: np.ndarray) -> np.ndarray:
        u = np.asarray(cotangent, dtype=float)
        if u.shape != x.shape:
            raise StructuralError(f"cotangent shape {u.shape} != chunk shape {x.shape}")
        u = u.reshape(v.shape)
        d_c = diff / neg_m2  # (B, K, N); x / -y == -x / y exactly
        d_spread = d_c - np.add.reduce(resp[:, :, None] * d_c, axis=1, keepdims=True)
        slope = np.vecdot(resp, coef)  # (B,)
        u_dot_v = np.add.reduce(u[:, None, :] * v_c, axis=2)  # (B, K)
        out = slope[:, None] * u + np.add.reduce((resp * u_dot_v)[:, :, None] * d_spread, axis=1)
        return out.reshape(x.shape)

    return v.reshape(x.shape), pullback


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

