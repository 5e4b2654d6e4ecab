"""Property-based tests (Hypothesis) for the invariants the sampler relies on."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from guidedflow.envs import (
    ConditionalGMField,
    Observation,
    Obstacle,
    OraclePolicyParams,
    conditional_field,
)
from guidedflow.flow import (
    GaussianMixtureField,
    GaussianMixtureFieldParams,
    VelocityField,
)
from guidedflow.guidance import otr_project

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


class NumericOnly(GaussianMixtureField):
    """The mixture field with the analytic linearization hidden."""

    linearize = VelocityField.linearize


@PROPERTY_SETTINGS
@given(mixture_points())
def test_linearize_equals_evaluate_and_vjp(case):
    params, x, tau, u = case
    k, h, d = params.means.shape
    # Equal weights and one scale, but the same means; the observation only
    # has to be an object the field can cache on.
    oracle = OraclePolicyParams(
        sigma_cond=float(params.scales[0]), modes=k, horizon=h, chunk_mean_fn=lambda o: params.means
    )
    conditional = ConditionalGMField(oracle)
    obs = object()
    for field in (GaussianMixtureField(params), conditional, NumericOnly(params)):
        v, pullback = field.linearize(x, tau, obs)
        assert np.array_equal(v, field.evaluate(x, tau, obs))
        g = pullback(u)
        assert np.all(np.isfinite(v)) and np.all(np.isfinite(g))
    # The conditional field is the mixture field of its conditioned parameters.
    v, pullback = conditional.linearize(x, tau, obs)
    v_gm, pullback_gm = GaussianMixtureField(conditional.field_params(obs)).linearize(x, tau)
    assert np.array_equal(v, v_gm) and np.array_equal(pullback(u), pullback_gm(u))


# ---------------------------------------------------------------------------
# the joint (modes, D) controller rollout == one rollout per mode


def reference_plan(obs, params, side):
    """One mode's rollout, written out on its own (D,) state."""
    x = obs.position.copy()
    rows = np.zeros((params.horizon, x.shape[0]))
    lane = None
    if side != 0.0 and obs.obstacle is not None:
        axis = obs.goal - obs.obstacle.center
        norm = np.linalg.norm(axis)
        if norm > 1e-12:
            axis = axis / norm
            perp = np.array([-axis[1], axis[0]])
            lane = obs.goal + side * (obs.obstacle.radius + params.clearance) * perp
    for i in range(params.horizon):
        target = obs.goal
        if lane is not None and np.dot(x - obs.obstacle.center, axis) < 0.0:
            target = lane
        a = np.clip(params.ctrl_frac * (target - x) / params.gain, -1.0, 1.0)
        rows[i] = a
        x = x + params.gain * a
    return rows


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
    expected = np.stack([reference_plan(obs, params, side) for side in sides])
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
    eps = 1e-8
    out = otr_project(g, v, rho, eps)
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
    again = otr_project(out, v, rho, eps)
    assert np.allclose(again, out, rtol=1e-12, atol=1e-12 * g_max)
