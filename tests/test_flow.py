import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guidedflow.errors import DomainError, NumericError, StructuralError
from guidedflow.flow import (
    GaussianMixtureField,
    GaussianMixtureFieldParams,
    MixtureComponents,
    VelocityField,
    as_chunk,
    gm_linearize,
)
from guidedflow.guidance import GuidanceConfig, guided_denoise
from guidedflow.verify import _fd_pullback


def single_gaussian(mu, scale):
    mu = np.asarray(mu, dtype=float)
    return GaussianMixtureFieldParams(
        weights=np.array([1.0]), means=mu[None], scales=np.array([scale])
    )


def scalar_mixture(means, scales, weights):
    means = np.asarray(means, dtype=float)[:, None, None]
    return GaussianMixtureFieldParams(weights=weights, means=means, scales=scales)


class ConstantField(VelocityField):
    """Velocity independent of the chunk; Jacobian is exactly zero."""

    def __init__(self, value):
        self.value = np.asarray(value, dtype=float)

    def linearize(self, chunk, tau, observation=None):
        v = np.broadcast_to(self.value, chunk.shape).copy()
        return v, lambda u: np.zeros_like(np.asarray(u, dtype=float))


def test_linearize_is_the_only_abstract_method():
    # A field that supplies only a velocity method is not a field.
    evaluate_only = type(
        "EvaluateOnly", (VelocityField,), {"evaluate": lambda self, chunk, tau, obs=None: chunk}
    )
    with pytest.raises(TypeError, match="linearize"):
        evaluate_only()
    assert VelocityField.__abstractmethods__ == {"linearize"}


def mc_velocity_scalar(params, tau, x, n_samples, rng, delta):
    """Independent Monte Carlo oracle: binned regression of (x1 - eps) on x_tau.

    Draws (x1, eps) pairs from the prior and noise, forms path points, and
    averages the target within a +-delta bin around x.
    """
    k = params.weights.size
    comps = rng.choice(k, size=n_samples, p=params.weights)
    x1 = params.means[comps, 0, 0] + params.scales[comps] * rng.standard_normal(n_samples)
    eps = rng.standard_normal(n_samples)
    x_tau = tau * x1 + (1.0 - tau) * eps
    sel = np.abs(x_tau - x) <= delta
    vals = (x1 - eps)[sel]
    assert vals.size > 1000, "bin too empty for a stable oracle"
    return vals.mean(), vals.std(ddof=1) / np.sqrt(vals.size)


# ---------------------------------------------------------------------------
# the Euler step of guided_denoise: x + v / n at tau = k / n


class RecordingField(VelocityField):
    """Returns fixed step velocities (by step index) and records every tau."""

    def __init__(self, velocities):
        self.velocities = velocities
        self.taus = []

    def linearize(self, chunk, tau, observation=None):
        self.taus.append(tau)
        return self.velocities[len(self.taus) - 1], np.zeros_like


def naive(n):
    return GuidanceConfig(method="naive", n_steps=n)


def test_euler_step_zero_velocity_only_advances_time():
    chunk = np.arange(6.0).reshape(3, 2)
    field = RecordingField([np.zeros((3, 2))] * 4)
    assert np.array_equal(guided_denoise(chunk, None, field, None, naive(4)), chunk)
    assert field.taus == [0.0, 0.25, 0.5, 0.75]


def test_euler_step_single_full_step():
    field = RecordingField([np.ones((2, 2))])
    out = guided_denoise(np.zeros((2, 2)), None, field, None, naive(1))
    assert np.array_equal(out, np.ones((2, 2)))
    assert field.taus == [0.0]


def test_euler_step_tau_is_exact_grid_fraction():
    n = 7
    field = RecordingField([np.zeros((1, 1))] * n)
    guided_denoise(np.zeros((1, 1)), None, field, None, naive(n))
    assert field.taus == [k / n for k in range(n)]  # bit-exact, not accumulated


def test_euler_step_shape_mismatch():
    field = RecordingField([np.zeros((3, 2))] * 4)
    with pytest.raises(StructuralError, match="step 0"):
        guided_denoise(np.zeros((2, 2)), None, field, None, naive(4))


def test_euler_step_nonfinite_velocity_names_step():
    bad = np.zeros((2, 2))
    bad[1, 0] = np.inf
    field = RecordingField([np.zeros((2, 2))] * 2 + [bad] * 2)
    with pytest.raises(NumericError, match="step 2"):
        guided_denoise(np.zeros((2, 2)), None, field, None, naive(4))


def test_euler_convergence_to_exact_flow_endpoint():
    # For a single Gaussian prior the flow map is x(tau) = tau*mu + m(tau)*x0
    # with m(tau) = sqrt(tau^2 s^2 + (1-tau)^2), so the endpoint is mu + s*x0.
    rng = np.random.default_rng(3)
    mu = rng.standard_normal((2, 3))
    s = 0.5
    x0 = rng.standard_normal((2, 3))
    exact = mu + s * x0
    params = single_gaussian(mu, s)

    # independent dense integrator with the velocity written out inline
    x = x0.copy()
    n_dense = 10_000
    for k in range(n_dense):
        tau = k / n_dense
        coef = (tau * s * s - (1 - tau)) / (tau * tau * s * s + (1 - tau) ** 2)
        x = x + (mu + coef * (x - tau * mu)) / n_dense
    assert np.linalg.norm(x - exact) < 1e-3

    errors = []
    steps = [10, 20, 40, 80]
    field = GaussianMixtureField(params)
    for n in steps:
        errors.append(np.linalg.norm(guided_denoise(x0, None, field, None, naive(n)) - exact))
    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert -1.3 <= slope <= -0.7


# ---------------------------------------------------------------------------
# the mixture velocity, gm_linearize(...)[0]


def test_gm_velocity_at_tau_zero_is_mean_minus_x():
    rng = np.random.default_rng(0)
    mu = rng.standard_normal((2, 2))
    params = single_gaussian(mu, 0.7)
    for _ in range(5):
        x = 2.0 * rng.standard_normal((2, 2))
        assert np.allclose(gm_linearize(x, 0.0, params)[0], mu - x, atol=1e-12)


def test_gm_velocity_tau_zero_against_mc_regression():
    params = single_gaussian(np.array([[0.8]]), 0.5)
    rng = np.random.default_rng(42)
    for x in (-0.5, 0.4):
        est, se = mc_velocity_scalar(params, 0.0, x, 1_000_000, rng, delta=0.01)
        exact = gm_linearize(np.array([[x]]), 0.0, params)[0][0, 0]
        assert abs(exact - est) <= 3 * se


def test_gm_velocity_symmetric_zero():
    params = single_gaussian(np.zeros((1, 1)), 1.0)
    v = gm_linearize(np.zeros((1, 1)), 0.5, params)[0]
    assert v[0, 0] == pytest.approx(0.0, abs=1e-14)


def test_gm_velocity_bimodal_symmetry_and_mc():
    params = scalar_mixture([-1.0, 1.0], [0.1, 0.1], [0.5, 0.5])
    v = gm_linearize(np.zeros((1, 1)), 0.5, params)[0]
    assert v[0, 0] == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(7)
    est, se = mc_velocity_scalar(params, 0.5, 0.3, 1_000_000, rng, delta=0.01)
    exact = gm_linearize(np.array([[0.3]]), 0.5, params)[0][0, 0]
    assert abs(exact - est) <= 3 * se


def test_gm_velocity_single_equals_duplicated_component():
    mu = np.array([[0.3, -0.2]])
    one = GaussianMixtureFieldParams(np.array([1.0]), mu[None], np.array([0.6]))
    two = GaussianMixtureFieldParams(
        np.array([0.5, 0.5]), np.stack([mu, mu]), np.array([0.6, 0.6])
    )
    x = np.array([[0.9, -1.4]])
    for tau in (0.0, 0.3, 0.77):
        v_one, v_two = (gm_linearize(x, tau, params)[0] for params in (one, two))
        assert np.allclose(v_one, v_two, atol=1e-12)


def test_gm_velocity_domain_and_structure_errors():
    params = single_gaussian(np.zeros((1, 1)), 1.0)
    with pytest.raises(DomainError):
        gm_linearize(np.zeros((1, 1)), 1.0, params)
    with pytest.raises(DomainError):
        gm_linearize(np.zeros((1, 1)), -0.1, params)
    with pytest.raises(StructuralError):
        GaussianMixtureFieldParams(np.array([]), np.zeros((0, 1, 1)), np.array([]))
    with pytest.raises(StructuralError):
        GaussianMixtureFieldParams(np.array([0.6, 0.5]), np.zeros((2, 1, 1)), np.array([1.0, 1.0]))
    with pytest.raises(StructuralError):
        GaussianMixtureFieldParams(np.array([1.0]), np.zeros((1, 1, 1)), np.array([0.0]))


@pytest.mark.parametrize("shape", [(1, 0, 2), (1, 3, 0), (1, 0, 0)])
def test_mixture_params_reject_empty_chunks(shape):
    with pytest.raises(StructuralError, match=r"H, D >= 1"):
        GaussianMixtureFieldParams(np.array([1.0]), np.zeros(shape), np.array([0.4]))
    components = MixtureComponents(np.array([1.0]), np.array([0.4]))
    with pytest.raises(StructuralError, match=r"H, D >= 1"):
        GaussianMixtureFieldParams.from_components(components, np.zeros(shape))


def test_mixture_params_are_frozen():
    # The derived arrays are computed at construction; reassigning a field
    # would leave them stale, so it must fail.
    params = scalar_mixture([-0.5, 0.8], [0.4, 0.9], [0.3, 0.7])
    for name, value in (("weights", [0.5, 0.5]), ("means", np.zeros((2, 1, 1))), ("scales", [1.0, 1.0])):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(params, name, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.flat_means = np.zeros((2, 1))
    assert np.array_equal(params.flat_means, [[-0.5], [0.8]])
    assert np.array_equal(params.scales_sq, params.scales**2)
    assert np.array_equal(params.log_weights, np.log(params.weights))


def test_gm_velocity_batch_matches_single():
    rng = np.random.default_rng(5)
    params = scalar_mixture([-0.5, 0.8], [0.4, 0.9], [0.3, 0.7])
    batch = rng.standard_normal((6, 1, 1))
    vb = gm_linearize(batch, 0.4, params)[0]
    assert vb.shape == batch.shape
    for i in range(6):
        assert np.allclose(vb[i], gm_linearize(batch[i], 0.4, params)[0], atol=1e-14)


def test_sampler_moments_match_prior():
    # 10,000 unguided n=64 samples: mean within 0.05, per-coordinate std
    # within 10% of the prior for several scales.
    rng = np.random.default_rng(11)
    mu = np.array([[0.3, -0.4], [0.1, 0.6]])
    for s in (0.2, 0.4, 1.0):
        params = single_gaussian(mu, s)
        samples = rng.standard_normal((10_000, 2, 2))
        for k in range(64):
            samples = samples + gm_linearize(samples, k / 64, params)[0] / 64
        err_mean = np.abs(samples.mean(axis=0) - mu)
        assert err_mean.max() < 0.05
        stds = samples.std(axis=0)
        assert np.all(np.abs(stds - s) / s < 0.10)


# ---------------------------------------------------------------------------
# the one-step clean estimate x + (1 - tau) v


def test_clean_estimate_near_deterministic_prior():
    # With s -> 0 the clean estimate collapses to the prior mean on on-path
    # inputs at any tau.
    rng = np.random.default_rng(9)
    mu = np.array([[0.4, -0.7], [0.2, 0.1]])
    s = 1e-4
    params = single_gaussian(mu, s)
    for tau in (0.1, 0.3, 0.5, 0.7, 0.9):
        a1 = mu + s * rng.standard_normal((2, 2))
        eps = rng.standard_normal((2, 2))
        x = tau * a1 + (1 - tau) * eps
        est = x + (1 - tau) * gm_linearize(x, tau, params)[0]
        assert np.abs(est - mu).max() < 1e-6


# ---------------------------------------------------------------------------
# the VJP through the one-step clean estimate: u + (1 - tau) u^T dv/dx


def test_estimate_vjp_constant_field_returns_cotangent():
    field = ConstantField(np.array([0.3, -0.1]))
    u = np.random.default_rng(1).standard_normal((3, 2))
    pullback = field.linearize(np.zeros((3, 2)), 0.4)[1]
    assert np.array_equal(u + 0.6 * pullback(u), u)


def test_estimate_vjp_scalar_closed_form():
    # For a scalar single-Gaussian field dv/dx = (tau s^2 - (1-tau)) / (tau^2 s^2 + (1-tau)^2).
    s, tau = 0.6, 0.35
    params = single_gaussian(np.array([[0.2]]), s)
    field = GaussianMixtureField(params)
    u = np.array([[1.7]])
    coef = (tau * s * s - (1 - tau)) / (tau * tau * s * s + (1 - tau) ** 2)
    expected = u * (1 + (1 - tau) * coef)
    x = np.array([[0.5]])
    got = u + (1 - tau) * field.linearize(x, tau)[1](u)
    assert np.allclose(got, expected, rtol=1e-12)
    fd = u + (1 - tau) * _fd_pullback(params, x, tau, u)
    assert np.allclose(got, fd, rtol=1e-6)


@st.composite
def fd_cases(draw):
    """A uniform-weight mixture, a point x ~ 1.5 N(0, 1), a cotangent and a time.

    The ranges stay small because the finite-difference step's truncation
    error sets the 1e-4 bound.  The Gaussian draws come from a drawn seed.
    """
    k, h, d = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    scales = draw(st.lists(st.floats(0.3, 1.2), min_size=k, max_size=k))
    tau = draw(st.floats(0.05, 0.8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = GaussianMixtureFieldParams(
        weights=np.full(k, 1.0 / k), means=rng.standard_normal((k, h, d)), scales=scales
    )
    return params, 1.5 * rng.standard_normal((h, d)), rng.standard_normal((h, d)), tau


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fd_cases())
def test_estimate_vjp_matches_finite_differences_random_mixtures(case):
    # The raw pullbacks: the estimate's shared u term would dilute the error.
    params, x, u, tau = case
    a = GaussianMixtureField(params).linearize(x, tau)[1](u)
    n = _fd_pullback(params, x, tau, u)
    assert np.linalg.norm(a - n) <= 1e-4 * max(np.linalg.norm(n), 1e-8)


def test_estimate_vjp_linear_in_cotangent():
    params = scalar_mixture([-1.0, 0.5], [0.3, 0.8], [0.4, 0.6])
    field = GaussianMixtureField(params)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1, 1))
    u1, u2 = rng.standard_normal((1, 1)), rng.standard_normal((1, 1))
    _, pullback = field.linearize(x, 0.6)

    def estimate_vjp(u):
        return u + 0.4 * pullback(u)

    lhs = estimate_vjp(u1 + 2.0 * u2)
    assert np.allclose(lhs, estimate_vjp(u1) + 2.0 * estimate_vjp(u2), atol=1e-10)


def test_gm_velocity_vjp_rejects_bad_cotangent_shape():
    params = single_gaussian(np.zeros((2, 2)), 1.0)
    with pytest.raises(StructuralError):
        gm_linearize(np.zeros((2, 2)), 0.5, params)[1](np.zeros((1, 2)))


def test_as_chunk_validation():
    with pytest.raises(StructuralError):
        as_chunk(np.zeros(3))
    with pytest.raises(NumericError):
        as_chunk(np.array([[np.nan, 0.0]]))
