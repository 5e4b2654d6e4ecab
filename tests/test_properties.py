"""Property-based tests (Hypothesis) for the invariants the sampler and the summary rely on."""

import itertools
import json
import math
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from guidedflow import flow
from guidedflow.chunking import ChunkExecutor, build_soft_mask
from guidedflow.envs import (
    ConditionalGMField,
    Observation,
    Obstacle,
    OraclePolicyParams,
    _controller_plans,
    conditional_field,
    default_variants,
    make_env,
)
from guidedflow.errors import NumericError, StructuralError
from guidedflow.flow import (
    GaussianMixtureField,
    GaussianMixtureFieldParams,
    VelocityField,
    gm_linearize,
    gm_velocity,
)
from guidedflow.guidance import (
    GuidanceConfig,
    InpaintTarget,
    guided_denoise,
    otr_project,
    pc_weight,
)
from guidedflow.harness import (
    ALL_METRICS,
    SMOOTHNESS_METRICS,
    ResultRow,
    read_rows,
    summarize,
    write_rows,
)

# Derandomized, so a tier-1 run is reproducible; widen max_examples to search.
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


def unit_floats(lo=-1.0, hi=1.0):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, allow_subnormal=False)


# ---------------------------------------------------------------------------
# linearize's velocity == evaluate, bit for bit


@st.composite
def mixture_points(draw):
    """A random mixture, a point, a time and a cotangent.

    ``spread`` scales the component means; at 1e3 the components are so far
    apart that all but one responsibility underflow to zero.
    """
    k = draw(st.integers(1, 4))
    h = draw(st.integers(1, 5))
    d = draw(st.integers(1, 3))
    raw = draw(hnp.arrays(float, k, elements=unit_floats(0.05, 1.0)))
    spread = draw(st.sampled_from([1.0, 30.0, 1e3]))
    params = GaussianMixtureFieldParams(
        weights=raw / raw.sum(),
        means=spread * draw(hnp.arrays(float, (k, h, d), elements=unit_floats())),
        scales=draw(hnp.arrays(float, k, elements=unit_floats(0.05, 2.0))),
    )
    x = spread * draw(hnp.arrays(float, (h, d), elements=unit_floats(-2.0, 2.0)))
    tau = draw(unit_floats(0.0, 0.99))
    u = draw(hnp.arrays(float, (h, d), elements=unit_floats(-3.0, 3.0)))
    return params, x, tau, u


@st.composite
def conditional_points(draw):
    """A shipped variant's conditional field, a real observation, a point, a time and a cotangent.

    The observation is the variant's environment after a drawn run of actions.
    """
    variant = draw(st.sampled_from(default_variants()))
    h = draw(st.integers(1, 10))
    env = make_env(variant, rng=None, action_noise_std=0.0)
    for action in draw(hnp.arrays(float, (draw(st.integers(0, 20)), 2), elements=unit_floats())):
        if env.done:
            break
        env.step(action)
    field = ConditionalGMField(OraclePolicyParams(modes=variant.modes, horizon=h))
    x = draw(hnp.arrays(float, (h, 2), elements=unit_floats(-2.0, 2.0)))
    tau = draw(unit_floats(0.0, 0.99))
    u = draw(hnp.arrays(float, (h, 2), elements=unit_floats(-3.0, 3.0)))
    return field, env.observe(), x, tau, u


class NumericOnly(GaussianMixtureField):
    """The mixture field with the analytic linearization hidden."""

    linearize = VelocityField.linearize


@PROPERTY_SETTINGS
@given(mixture_points(), conditional_points())
def test_linearize_equals_evaluate_and_vjp(case, conditional_case):
    params, x, tau, u = case
    conditional, obs, x_c, tau_c, u_c = conditional_case
    points = [
        (GaussianMixtureField(params), None, x, tau, u),
        (NumericOnly(params), None, x, tau, u),
        (conditional, obs, x_c, tau_c, u_c),
    ]
    for field, o, chunk, t, cotangent in points:
        v, pullback = field.linearize(chunk, t, o)
        assert np.array_equal(v, field.evaluate(chunk, t, o))
        g = pullback(cotangent)
        assert np.all(np.isfinite(v)) and np.all(np.isfinite(g))
    # The conditional field is the mixture field of its conditioned parameters.
    v, pullback = conditional.linearize(x_c, tau_c, obs)
    v_gm, pullback_gm = GaussianMixtureField(conditional.field_params(obs)).linearize(x_c, tau_c)
    assert np.array_equal(v, v_gm) and np.array_equal(pullback(u_c), pullback_gm(u_c))


# ---------------------------------------------------------------------------
# the batched velocity and pullback == those of each row, bit for bit


@st.composite
def mixture_batches(draw):
    """A random mixture with K <= 3 and H*D <= 40, a (B, H, D) batch, a time and
    a (B, H, D) cotangent."""
    k = draw(st.integers(1, 3))
    h = draw(st.integers(1, 20))
    d = draw(st.integers(1, 40 // h))
    b = draw(st.integers(1, 6))
    raw = draw(hnp.arrays(float, k, elements=unit_floats(0.05, 1.0)))
    spread = draw(st.sampled_from([1.0, 30.0, 1e3]))
    params = GaussianMixtureFieldParams(
        weights=raw / raw.sum(),
        means=spread * draw(hnp.arrays(float, (k, h, d), elements=unit_floats())),
        scales=draw(hnp.arrays(float, k, elements=unit_floats(0.05, 2.0))),
    )
    x = spread * draw(hnp.arrays(float, (b, h, d), elements=unit_floats(-2.0, 2.0)))
    tau = draw(unit_floats(0.0, 0.99))
    return params, x, tau, draw(hnp.arrays(float, (b, h, d), elements=unit_floats()))


@PROPERTY_SETTINGS
@given(mixture_batches())
def test_batched_velocity_equals_per_row_and_linearize(case):
    params, x, tau, u = case
    batched, pullback = gm_linearize(x, tau, params)
    assert batched.shape == x.shape and np.array_equal(gm_velocity(x, tau, params), batched)
    g = pullback(u)
    for row, v_row, u_row, g_row in zip(x, batched, u, g):
        v, row_pullback = gm_linearize(row, tau, params)
        assert np.array_equal(v_row, v) and np.array_equal(g_row, row_pullback(u_row))
    # A cotangent must have the batch's shape: no row broadcasts, none is dropped.
    for bad in (u[0], u[:, None], np.concatenate((u, u))):
        with pytest.raises(StructuralError):
            pullback(bad)


# ---------------------------------------------------------------------------
# the pre-shaped mixture step == the broadcast step it replaced, bit for bit


def reference_linearize(chunk, tau, params):
    """The broadcast ``_mixture_terms``/``gm_linearize`` that the pre-shaped
    constants replaced; the reference.  Its (K,) constants broadcast against
    the (B, K) and (B, K, N) terms, and tau is a Python float."""
    x = np.asarray(chunk, dtype=float)
    flat = x.reshape(-1, params.flat_means.shape[1])
    s2, one_m = params.scales**2, 1.0 - tau
    m2 = tau * tau * s2 + one_m * one_m
    log_norm = np.log(params.weights) - 0.5 * flat.shape[1] * np.log(m2)
    two_m2, coef, neg_m2 = 2.0 * m2, (tau * s2 - one_m) / m2, -m2
    diff = flat[:, None, :] - tau * params.flat_means
    logp = log_norm - np.add.reduce(diff * diff, axis=2) / two_m2
    logp -= np.maximum.reduce(logp, axis=1, keepdims=True)
    resp = np.exp(logp)
    resp /= np.add.reduce(resp, axis=1, keepdims=True)
    v_c = params.flat_means + coef[:, None] * diff
    v = np.add.reduce(resp[:, :, None] * v_c, axis=1)

    def pullback(cotangent):
        u = np.asarray(cotangent, dtype=float).reshape(v.shape)
        d_c = diff / neg_m2[:, None]
        d_spread = d_c - np.add.reduce(resp[:, :, None] * d_c, axis=1, keepdims=True)
        slope = np.vecdot(resp, coef)
        u_dot_v = np.add.reduce(u[:, None, :] * v_c, axis=2)
        out = slope[:, None] * u + np.add.reduce((resp * u_dot_v)[:, :, None] * d_spread, axis=1)
        return out.reshape(x.shape)

    return v.reshape(x.shape), pullback


def reference_otr(g, v, rho):
    """``otr_project`` as it was, with the 1.0 * g_perp product when it does not clip."""
    if math.isinf(rho):
        return g.copy()
    g_flat, v_flat = g.reshape(-1), v.reshape(-1)
    v_norm = math.sqrt(v_flat.dot(v_flat))
    radius = rho * v_norm
    if v_norm < 1e-8:
        g_norm = math.hypot(*g_flat)
        return (radius / g_norm) * g if g_norm > radius else g.copy()
    g_par = (float(g_flat.dot(v_flat)) / (v_norm * v_norm)) * v_flat
    g_perp = g_flat - g_par
    perp_norm = math.sqrt(g_perp.dot(g_perp))
    scale = radius / perp_norm if perp_norm > radius else 1.0
    return (g_par + scale * g_perp).reshape(g.shape)


def reference_denoise(noise, params, target, mask, config):
    """The guided Euler loop as it was: Python-float tau, 1 - tau, weights and
    n, and the (H,) mask broadcast over the D columns."""
    x, n = noise, config.n_steps
    for k in range(n):
        tau = k / n
        v, pullback = reference_linearize(x, tau, params)
        if config.guided and k > 0:
            one_m = 1.0 - tau
            u = mask[:, None] * (target - (x + one_m * v))
            g = u + one_m * pullback(u)
            w = pc_weight(tau, config.weight_sigma, float(n))
            v = v + reference_otr(w * g, v, config.radius)
        x = x + v / n
    return x


def seeded_mixture(rng, k, h, d, spread):
    raw = rng.uniform(0.05, 1.0, k)
    return GaussianMixtureFieldParams(
        weights=raw / raw.sum(), means=spread * rng.standard_normal((k, h, d)),
        scales=rng.uniform(0.05, 2.0, k),
    )


CHUNK_SHAPES = st.sampled_from([(10, 2), (50, 7)])


@PROPERTY_SETTINGS
@given(
    b=st.sampled_from([1, 3]), k=st.sampled_from([1, 2, 3]), shape=CHUNK_SHAPES,
    spread=st.sampled_from([1.0, 30.0, 1e3]), tau=unit_floats(0.0, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_preshaped_linearize_equals_the_broadcast_reference(b, k, shape, spread, tau, seed):
    rng = np.random.default_rng(seed)
    params = seeded_mixture(rng, k, *shape, spread)
    x = spread * rng.standard_normal((b, *shape))
    u = rng.standard_normal((b, *shape))
    chunks = [(x, u)] + ([(x[0], u[0])] if b == 1 else [])  # a batch of one and an (H, D) chunk
    for chunk, cotangent in chunks:
        v, pullback = gm_linearize(chunk, tau, params)
        v_ref, pullback_ref = reference_linearize(chunk, tau, params)
        assert v.shape == chunk.shape and v.tobytes() == v_ref.tobytes()
        assert pullback(cotangent).tobytes() == pullback_ref(cotangent).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    k=st.sampled_from([1, 2, 3]), shape=CHUNK_SHAPES, delay=st.sampled_from([1, 3]),
    sigma_d=st.sampled_from([0.05, 0.4, 1.0]), rho=st.sampled_from([0.05, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_guided_denoise_equals_the_broadcast_reference_loop(k, shape, delay, sigma_d, rho, seed):
    # rho = 0.05 clips most steps, so both branches of the projection run.
    rng = np.random.default_rng(seed)
    params = seeded_mixture(rng, k, *shape, 1.0)
    field = GaussianMixtureField(params)
    mask = build_soft_mask(shape[0], delay, delay)
    target, noise = rng.standard_normal(shape), rng.standard_normal(shape)
    for method in ("naive", "rtc", "pc", "potr"):
        config = GuidanceConfig(method=method, sigma_d=sigma_d, rho=rho)
        out = guided_denoise(noise, None, field, InpaintTarget(target, mask), config)
        assert out.tobytes() == reference_denoise(noise, params, target, mask, config).tobytes()


# ---------------------------------------------------------------------------
# extreme solver settings: a finite chunk, or a NumericError naming the step


def extreme_case(method, n_steps, sigma_d, spread, seed):
    rng = np.random.default_rng(seed)
    h, d = 4, 2
    params = GaussianMixtureFieldParams(
        weights=np.array([0.5, 0.5]),
        means=spread * rng.standard_normal((2, h, d)),
        scales=np.array([0.05, 0.4]),
    )
    inpaint = InpaintTarget(spread * rng.standard_normal((h, d)), np.linspace(1.0, 0.0, h))
    config = GuidanceConfig(method=method, n_steps=n_steps, sigma_d=sigma_d)
    return rng.standard_normal((h, d)), GaussianMixtureField(params), inpaint, config


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    method=st.sampled_from(["rtc", "pc", "potr"]),
    n_steps=st.sampled_from([1, 2, 10, 100, 1000]),
    sigma_d=st.sampled_from([1e-3, 0.05, 0.4, 1.0]),
    # At 1e3 the components sit so far apart that the responsibilities saturate.
    spread=st.sampled_from([1.0, 1e3]),
    seed=st.integers(0, 2**16),
)
def test_extreme_denoise_is_finite_or_names_the_step(method, n_steps, sigma_d, spread, seed):
    noise, field, inpaint, config = extreme_case(method, n_steps, sigma_d, spread, seed)
    try:
        out = guided_denoise(noise, None, field, inpaint, config)
    except NumericError as err:
        assert re.search(r"step \d+", str(err)), str(err)
    else:
        assert out.shape == noise.shape and np.isfinite(out).all()


@pytest.mark.parametrize("method", ["rtc", "pc", "potr"])
def test_denoise_after_tau_cache_eviction_is_bit_identical(method):
    # n = 1000 solver steps cycle through more taus than the per-tau
    # constant cache holds, so both denoises recompute evicted constants.
    noise, field, inpaint, config = extreme_case(method, 1000, 1e-3, 1e3, seed=7)
    first = guided_denoise(noise, None, field, inpaint, config)
    info = flow._tau_constants.cache_info()
    assert info.currsize == info.maxsize < 1000
    assert np.array_equal(guided_denoise(noise, None, field, inpaint, config), first)
    # A short denoise from cached constants equals one from recomputed ones.
    noise, field, inpaint, config = extreme_case(method, 10, 0.4, 1.0, seed=7)
    fresh = guided_denoise(noise, None, field, inpaint, config)
    assert np.array_equal(guided_denoise(noise, None, field, inpaint, config), fresh)


# ---------------------------------------------------------------------------
# the per-plan float rollout == the vectorised (modes, D) rollout it replaced,
# and each mode's plan == its rollout on its own


def vectorized_plans(obs, params, sides):
    """The (modes, D) numpy rollout that the per-plan float loop replaced; the reference.

    Its sign test is np.vecdot, which may round the 2-D dot as
    fma(x1, a1, x0 * a0): numpy 2.4.6 does so on x86-64 CPUs with FMA.  The
    float loop rounds both products.  For an axis-aligned obstacle every
    product is exact, so the two agree bit for bit.  For a tilted plane a
    point within about an ulp of it may pick the other lane; none of 10,000
    random tilted geometries did, but that bounds nothing, so tilted planes
    are checked against each mode's own rollout instead.
    """
    sides = np.asarray(sides, dtype=float)
    x = np.tile(obs.position, (sides.size, 1))
    lane = None
    if obs.obstacle is not None and np.any(sides != 0.0):
        axis = obs.goal - obs.obstacle.center
        norm = np.linalg.norm(axis)
        if norm > 1e-12:
            axis = axis / norm
            perp = np.array([-axis[1], axis[0]])
            lane = obs.goal + sides[:, None] * (obs.obstacle.radius + params.clearance) * perp
    plans = np.empty((sides.size, params.horizon, x.shape[1]))
    for i in range(params.horizon):
        target = obs.goal
        if lane is not None:
            behind = np.vecdot(x - obs.obstacle.center, axis) < 0.0
            target = np.where(behind[:, None], lane, obs.goal)
        a = np.minimum(np.maximum(params.ctrl_frac * (target - x) / params.gain, -1.0), 1.0)
        plans[:, i] = a
        x = x + params.gain * a
    return plans


@st.composite
def axis_aligned_plans(draw):
    """An observation whose obstacle lies on a coordinate axis from the goal, and the sides.

    Obstacles (and so lanes) come at D = 2, as conditional_field plans them;
    there the start is put on the obstacle's plane one time in two, else mostly behind it.
    """
    horizon, d = draw(st.sampled_from([(10, 2), (50, 7)]))
    modes = draw(st.sampled_from([1, 2]))
    goal = draw(hnp.arrays(float, d, elements=unit_floats(-0.5, 0.5)))
    position = draw(hnp.arrays(float, d, elements=unit_floats(-0.5, 0.5)))
    obstacle, sides = None, [0.0] * modes
    if d == 2:
        center, k, sign = goal.copy(), draw(st.integers(0, 1)), draw(st.sampled_from([1.0, -1.0]))
        center[k] -= sign * draw(unit_floats(0.05, 0.5))
        # the axis is sign * e_k; put the start mostly behind the plane
        position[k] = center[k] - sign * draw(st.just(0.0) | unit_floats(-0.2, 0.5))
        obstacle = Obstacle(center=center, radius=draw(unit_floats(0.01, 0.5)))
        sides = [1.0, -1.0] if modes == 2 else [draw(st.sampled_from([1.0, -1.0, 0.0]))]
    obs = Observation(position=position, goal=goal, obstacle=obstacle)
    params = OraclePolicyParams(
        modes=modes,
        horizon=horizon,
        gain=draw(unit_floats(0.05, 1.0)),
        ctrl_frac=draw(unit_floats(0.05, 1.0)),
        clearance=draw(unit_floats(0.0, 0.2)),
    )
    return obs, params, sides


@PROPERTY_SETTINGS
@given(axis_aligned_plans())
def test_plans_equal_the_vectorized_rollout(case):
    obs, params, sides = case
    assert np.array_equal(_controller_plans(obs, params, sides), vectorized_plans(obs, params, sides))


# A small box and large gains keep many actions off the [-1, 1] clip, where
# the lane a mode steers toward shows in its plan.
points = hnp.arrays(float, 2, elements=unit_floats(-0.5, 0.5))


@PROPERTY_SETTINGS
@given(
    position=points,
    goal=points,
    center=st.none() | points | points,  # an obstacle two times in three
    radius=unit_floats(0.01, 0.5),
    clearance=unit_floats(0.0, 0.2),
    ctrl_frac=unit_floats(0.05, 1.0),
    gain=unit_floats(0.05, 1.0),
    horizon=st.integers(1, 12),
    modes=st.sampled_from([1, 2, 2, 3]),
)
def test_joint_plan_equals_per_mode_rollouts(
    position, goal, center, radius, clearance, ctrl_frac, gain, horizon, modes
):
    obstacle = None if center is None else Obstacle(center=center, radius=radius)
    obs = Observation(position=position, goal=goal, obstacle=obstacle)
    params = OraclePolicyParams(
        modes=modes, horizon=horizon, gain=gain, ctrl_frac=ctrl_frac, clearance=clearance
    )
    sides = [1.0, -1.0] if modes == 2 and obstacle is not None else [0.0] * modes
    # Tilted planes included: rolled with its siblings or alone, a mode picks the same lanes.
    expected = np.concatenate([_controller_plans(obs, params, [side]) for side in sides])
    assert np.array_equal(conditional_field(obs, params).means, expected)


# ---------------------------------------------------------------------------
# OTR: the trust region holds, the projection is idempotent and keeps g_par


@st.composite
def otr_cases(draw):
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=5))
    g = draw(hnp.arrays(float, shape, elements=unit_floats(-100.0, 100.0)))
    # v_scale 1e-7 keeps ||v|| near, but mostly above, the 1e-8 epsilon.
    v_scale = draw(st.sampled_from([1.0, 1e-3, 1e-7]))
    v = v_scale * draw(hnp.arrays(float, shape, elements=unit_floats()))
    rho = draw(unit_floats(0.01, 10.0))
    return g, v, rho


@PROPERTY_SETTINGS
@given(otr_cases())
# rho ||v|| < epsilon <= ||v||: a perpendicular part inside the radius is kept.
@example((np.array([0.0, 1.0]), np.array([2.5e-8, 2.5e-8]), 0.25))
# ||v|| < epsilon: g is clipped to norm rho ||v|| = 5e-10 once, not shrunk again.
@example((np.array([3.0, 4.0]), np.array([1e-9, 0.0]), 0.5))
def test_otr_constraint_idempotence_and_parallel_part(case):
    g, v, rho = case
    eps = 1e-8  # the projection's guard on ||v||
    out = otr_project(g, v, rho)
    assert out.shape == g.shape and np.all(np.isfinite(out))
    gf, vf, of = g.reshape(-1), v.reshape(-1), out.reshape(-1)
    v_norm = float(np.linalg.norm(vf))
    # Roundoff scales, from maxima: squares of tiny entries underflow in a norm.
    g_max = float(np.abs(gf).max(initial=0.0))
    if v_norm < eps:
        # Degenerate velocity: the whole vector is clipped into the ball.  The
        # scaled hypot keeps the norm of entries below about 1e-154 from underflowing.
        assert math.hypot(*of) <= rho * v_norm * (1 + 1e-9) + 1e-300
    else:
        g_par = (np.dot(gf, vf) / v_norm**2) * vf
        assert np.linalg.norm(of - g_par) <= rho * v_norm * (1 + 1e-9) + 1e-12 * g_max * gf.size
        dot_scale = gf.size * g_max * float(np.abs(vf).max())
        assert abs(np.dot(of, vf) - np.dot(gf, vf)) <= 1e-12 * dot_scale
    again = otr_project(out, v, rho)
    assert np.allclose(again, out, rtol=1e-12, atol=1e-12 * g_max)


# ---------------------------------------------------------------------------
# landing identity: pc at sigma_d = s puts hard-masked rows exactly on Y


def landing_residual(s, sigma_d, n, h, d, masked, seed):
    """max |x - Y| over the masked rows after a pc denoise with beta = n.

    The prior is one component N(mu, s^2 I).  Its clean-estimate Jacobian is
    J(tau) = tau s^2 / (tau^2 s^2 + (1-tau)^2), so at sigma_d = s the pc
    weight satisfies (1-tau) w_pc(tau) J(tau) = 1, and an unclipped last
    Euler step lands the hard-masked rows on Y.
    """
    rng = np.random.default_rng(seed)
    mu = rng.standard_normal((h, d))
    params = GaussianMixtureFieldParams(weights=np.ones(1), means=mu[None], scales=np.array([s]))
    target = mu + rng.standard_normal((h, d))
    inpaint = InpaintTarget(target, (np.arange(h) < masked).astype(float))
    config = GuidanceConfig(method="pc", sigma_d=sigma_d, n_steps=n)
    noise = rng.standard_normal((h, d))
    out = guided_denoise(noise, None, GaussianMixtureField(params), inpaint, config)
    return float(np.abs(out[:masked] - target[:masked]).max())


@st.composite
def unclipped_landings(draw):
    """n and s with s^2 (n-1) >= 1, which is exactly w_pc((n-1)/n) <= beta = n."""
    n = draw(st.integers(2, 1000))
    s = draw(unit_floats(math.sqrt(1.0 / (n - 1)), 3.0))
    masked = draw(st.integers(1, 3))
    return s, n, draw(st.integers(masked, 6)), draw(st.integers(1, 2)), masked


@settings(max_examples=50, deadline=None, derandomize=True)
@given(unclipped_landings(), st.integers(0, 2**16))
def test_pc_at_prior_scale_lands_masked_rows_on_target(case, seed):
    s, n, h, d, masked = case
    assume(s * s * (n - 1) >= 1.0)
    assert landing_residual(s, s, n, h, d, masked, seed) <= 1e-14


@pytest.mark.parametrize(
    "s, sigma_d",
    [
        (0.4, 1.0),  # rtc's unit prior: the weight is too small to land
        (0.4, 0.2),  # sigma_d below the prior scale
        (0.1, 0.1),  # matched, but w_pc(0.9) = 20.1 is clipped at beta = 10
    ],
)
def test_pc_off_prior_scale_or_clipped_does_not_land(s, sigma_d):
    assert landing_residual(s, sigma_d, 10, 6, 2, 3, seed=0) >= 1e-3


# ---------------------------------------------------------------------------
# summarize == the list-based aggregation it replaced, bit for bit
#
# The reference below is summarize as it was before the column table: one
# np.mean per cell and metric over Python lists, and the episode-weighted mean per
# metric across suites.


def _reference_mean(values):
    return float(np.mean(values)) if len(values) else math.nan


def _reference_cell_means(rows):
    succ_steps = [r.env_steps for r in rows if r.success]
    return {
        "success": _reference_mean([1.0 if r.success else 0.0 for r in rows]),
        "env_steps": _reference_mean(succ_steps),
        "l2_mean": _reference_mean([r.l2_mean for r in rows]),
        "l2_max": _reference_mean([r.l2_max for r in rows]),
        "max_acc": _reference_mean([r.max_acc for r in rows]),
        "max_jerk": _reference_mean([r.max_jerk for r in rows]),
    }


def _reference_cells(rows):
    groups = {}
    for r in rows:
        groups.setdefault((r.method, r.suite, r.delay), []).append(r)
    return {key: _reference_cell_means(group) for key, group in groups.items()}


def _reference_combine(cells, variant_weights):
    out = {}
    for metric in ALL_METRICS:
        pairs = [
            (variant_weights[s], cells[s][metric])
            for s in sorted(cells)
            if not math.isnan(cells[s][metric])
        ]
        if pairs:
            w = np.array([p[0] for p in pairs], dtype=float)
            v = np.array([p[1] for p in pairs], dtype=float)
            out[metric] = float(np.sum(w * v) / np.sum(w))
        else:
            out[metric] = math.nan
    return out


def _reference_clean(block):
    return {metric: None if math.isnan(value) else value for metric, value in block.items()}


def reference_summarize(rows, variant_weights):
    methods = sorted({r.method for r in rows})
    agg_delays = sorted({r.delay for r in rows if r.delay != 0})
    suites = sorted({r.suite for r in rows})
    summary = {
        "aggregated_delays": agg_delays,
        "suite_weights": {s: int(variant_weights[s]) for s in suites},
        "methods": {},
        "worst_case": {},
        "per_delay": {},
    }
    table = _reference_cells(rows)
    for method in methods:
        by_delay = {
            d: {s: table[(method, s, d)] for s in suites if (method, s, d) in table}
            for d in agg_delays
        }
        per_suite = {}
        for s in suites:
            delay_cells = [cells[s] for cells in by_delay.values() if s in cells]
            per_suite[s] = {
                metric: _reference_mean(
                    [c[metric] for c in delay_cells if not math.isnan(c[metric])]
                )
                for metric in ALL_METRICS
            }
        combined = _reference_combine(per_suite, variant_weights)
        summary["methods"][method] = _reference_clean(combined)
        worst = {}
        for metric in SMOOTHNESS_METRICS:
            vals = [c[metric] for c in per_suite.values() if not math.isnan(c[metric])]
            worst[f"worst_{metric}"] = max(vals) if vals else None
        summary["worst_case"][method] = worst
        summary["per_delay"][method] = {
            str(d): _reference_clean(_reference_combine(cells, variant_weights))
            for d, cells in by_delay.items()
        }
    if "rtc" in summary["methods"]:
        deltas = {}
        rtc_block = summary["methods"]["rtc"]
        for method in methods:
            if method == "rtc":
                continue
            block = {}
            for metric in ALL_METRICS:
                base, val = rtc_block[metric], summary["methods"][method][metric]
                if base in (None, 0) or val is None:
                    block[metric] = None
                else:
                    block[metric] = 100.0 * (val - base) / base
            deltas[method] = block
        summary["vs_rtc"] = deltas
    return summary


def synthetic_rows(rng, methods, suites, delays, sizes, missing):
    """Shuffled rows of every (method, suite, delay) cell but a ``missing`` share of them.

    A cell holds sizes[0]-sizes[1] rows and succeeds at a rate of 0, 0.5 or 0.95, so some
    cells have no successes; about one metric value in ten is 0.0 or -0.0.
    """
    rows = []
    for method, suite, delay in itertools.product(methods, suites, delays):
        if rng.random() < missing:
            continue
        n = int(rng.integers(sizes[0], sizes[1] + 1))
        success = rng.random(n) < rng.choice([0.0, 0.5, 0.95])
        scale = 10.0 ** rng.uniform(-3, 3)
        l2_mean = scale * rng.lognormal(0.0, 1.0, n)
        l2_max = l2_mean * (1.0 + rng.exponential(1.0, n))
        acc = scale * rng.gamma(2.0, 1.0, n)
        jerk = acc * (1.0 + rng.exponential(1.0, n))
        metrics = [
            np.where(rng.random(n) < 0.1, rng.choice([0.0, -0.0], n), values).tolist()
            for values in (l2_mean, l2_max, acc, jerk)
        ]
        steps = rng.integers(1, 200, n)
        rows += [
            ResultRow(method, delay, suite, i, *values)
            for i, values in enumerate(zip(success.tolist(), steps.tolist(), *metrics))
        ]
    return [rows[i] for i in rng.permutation(len(rows))]


@st.composite
def row_sets(draw):
    """Rows of 1-4 methods, delays 0-9 with gaps and 1-9 suites, and suite weights.

    About one cell in seven is missing and cells hold 1-300 rows (see synthetic_rows).
    """
    methods = draw(st.lists(st.sampled_from(("naive", "pc", "potr", "rtc")),
                            min_size=1, max_size=4, unique=True))
    delays = draw(st.lists(st.integers(0, 9), min_size=1, max_size=10, unique=True))
    suites = [f"suite{i}" for i in range(draw(st.integers(1, 9)))]
    weights = {s: draw(st.integers(1, 20)) for s in suites}
    most = draw(st.sampled_from([1, 3, 30, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = synthetic_rows(rng, methods, suites, delays, (1, most), missing=0.15)
    assume(rows)
    return rows, weights


# The benchmark's two shapes: control-loop's one potr cell (24 rows, delay 1, one suite,
# no rtc rows) and summarize-rows' 4 methods x 6 delays x 2 suites; and 9 suites and 9
# aggregated delays with about 30% of the cells missing, so that many masked means keep
# 8 of 9 values, where numpy sums pairwise and zero-filling would change the sums.
BENCH_CELL = (synthetic_rows(np.random.default_rng(1), ["potr"], ["bimodal"], [1], (24, 24), 0.0),
              {"bimodal": 9})
BENCH_GRID = (synthetic_rows(np.random.default_rng(2), ("naive", "pc", "potr", "rtc"),
                             ["bimodal", "unimodal"], range(6), (125, 125), 0.0),
              {"bimodal": 9, "unimodal": 1})
WIDE_GAPS = (synthetic_rows(np.random.default_rng(3), ["pc", "rtc"], [f"s{i}" for i in range(9)],
                            range(10), (1, 5), 0.3),
             {f"s{i}": i + 1 for i in range(9)})


def _leaves(obj):
    if isinstance(obj, dict):
        for value in obj.values():
            yield from _leaves(value)
    elif isinstance(obj, list):
        yield from obj
    else:
        yield obj


@settings(max_examples=60, deadline=None, derandomize=True)
@given(row_sets())
@example(BENCH_CELL)
@example(BENCH_GRID)
@example(WIDE_GAPS)
def test_summarize_equals_list_reference(case):
    rows, weights = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.filterwarnings("ignore", "no rtc rows", UserWarning)
        got = summarize(rows, weights)
        want = reference_summarize(rows, weights)
    assert got == want
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert {type(v) for v in _leaves(got)} <= {float, int, type(None)}
    assert all(type(v) in (float, type(None)) for v in _leaves(got["methods"]))


# ---------------------------------------------------------------------------
# the row file round-trips every row read_rows accepts


def finite_floats():
    extremes = st.sampled_from([-0.0, 5e-324, sys.float_info.max, -sys.float_info.max])
    return st.one_of(extremes, st.floats(allow_nan=False, allow_infinity=False))


ROW_STRATEGY = st.builds(
    ResultRow,
    method=st.sampled_from(("naive", "rtc", "pc", "potr")),
    delay=st.integers(0, 2**40),
    suite=st.text(st.sampled_from("ab9_,\"' \n\r"), max_size=8),
    seed=st.integers(0, 2**40),
    success=st.booleans(),
    env_steps=st.integers(0, 2**40),
    l2_mean=finite_floats(),
    l2_max=finite_floats(),
    max_acc=finite_floats(),
    max_jerk=finite_floats(),
)


@PROPERTY_SETTINGS
@given(st.lists(ROW_STRATEGY, max_size=20))
def test_row_file_round_trip(rows):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.csv"), Path(tmp, "second.csv")
        write_rows(rows, first)
        back = read_rows(first)
        write_rows(back, second)
        assert back == sorted(rows, key=ResultRow.sort_key)
        assert second.read_bytes() == first.read_bytes()


# ---------------------------------------------------------------------------
# the chunk schedule is a function of (t, d, s)


class ZeroField(VelocityField):
    """v = 0, so a naive chunk is its noise bit for bit."""

    def evaluate(self, chunk, tau, observation=None):
        return np.zeros_like(chunk)


class CountingEnv:
    """A 1-D environment that only counts its steps and is done after ``length``."""

    action_dim = 1
    success = False

    def __init__(self, length):
        self.length, self.step_count = length, 0

    @property
    def done(self):
        return self.step_count >= self.length

    def observe(self):
        return self.step_count

    def step(self, action):
        self.step_count += 1


class CodedNoise:
    """Noise whose row i of the k-th draw holds (64 k + i) / 2^20, inside the clip."""

    def __init__(self):
        self.draws = 0

    def standard_normal(self, shape):
        rows = 64 * self.draws + np.arange(shape[0], dtype=float)
        self.draws += 1
        return np.broadcast_to(rows[:, None] / 2**20, shape).copy()


@st.composite
def schedules(draw):
    """A schedule that can run, an episode length and a (d, s) pair to construct at H."""
    h = draw(st.integers(1, 50))
    d = draw(st.integers(0, h // 2))
    s = draw(st.integers(max(d, 1), h - d))
    other = (draw(st.integers(0, h)), draw(st.integers(0, h + 1)))
    return h, d, s, draw(st.integers(1, 3 * h)), other


@PROPERTY_SETTINGS
@given(schedules())
def test_schedule_matches_the_closed_form(case):
    h, d, s, length, (other_d, other_s) = case
    config = GuidanceConfig(method="naive", n_steps=1)
    rng = CodedNoise()
    trace = ChunkExecutor(
        CountingEnv(length), ZeroField(), config, delay=d, horizon=h, replan_every=s, rng=rng
    ).run()
    steps = range(length)
    # Swaps land d steps after each issue at t % s == 0; one at t = 0 (d = 0) has no event.
    swaps = [t for t in steps if t >= max(d, 1) and (t - d) % s == 0]
    assert [e.env_step for e in trace.events] == swaps
    # Step t executes row t of the reset chunk (draw 0) before the first swap, then
    # row d + (t - d) % s of the chunk drawn for the latest request.
    codes = [divmod(round(a * 2**20), 64) for a in trace.actions[:, 0]]
    assert codes == [(0, t) if t < d else (1 + (t - d) // s, d + (t - d) % s) for t in steps]
    assert rng.draws == 1 + math.ceil(length / s)
    # Construction accepts exactly the schedules with d <= s <= H - d and s >= 1.
    runs = 0 <= other_d <= other_s <= h - other_d and other_s >= 1
    try:
        ChunkExecutor(CountingEnv(1), ZeroField(), config, other_d, h, replan_every=other_s)
    except StructuralError as err:
        assert not runs, err
    else:
        assert runs
