"""Property-based tests (Hypothesis) for the invariants the sampler and the summary rely on."""

import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from guidedflow import flow
from guidedflow.envs import (
    ConditionalGMField,
    Observation,
    Obstacle,
    OraclePolicyParams,
    conditional_field,
)
from guidedflow.errors import NumericError
from guidedflow.flow import (
    GaussianMixtureField,
    GaussianMixtureFieldParams,
    VelocityField,
    gm_linearize,
    gm_velocity,
)
from guidedflow.guidance import GuidanceConfig, InpaintTarget, guided_denoise, otr_project
from guidedflow.harness import ALL_METRICS, SMOOTHNESS_METRICS, ResultRow, summarize
from guidedflow.metrics import aggregate_weighted, worst_case

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
# the batched velocity == the velocity of each row == linearize's velocity


@st.composite
def mixture_batches(draw):
    """A random mixture with K <= 3 and H*D <= 40, a (B, H, D) batch and a time."""
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
    return params, x, draw(unit_floats(0.0, 0.99))


@PROPERTY_SETTINGS
@given(mixture_batches())
def test_batched_velocity_equals_per_row_and_linearize(case):
    params, x, tau = case
    batched = gm_velocity(x, tau, params)
    assert batched.shape == x.shape
    for row, v_row in zip(x, batched):
        v = gm_velocity(row, tau, params)
        assert np.array_equal(v_row, v)
        assert np.array_equal(gm_linearize(row, tau, params)[0], v)


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
    config = GuidanceConfig(method=method, n_steps=n_steps, beta=n_steps, sigma_d=sigma_d)
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
    config = GuidanceConfig(method="pc", sigma_d=sigma_d, n_steps=n, beta=n)
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
# np.mean per cell and metric over Python lists, and aggregate_weighted per
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
        out[metric] = aggregate_weighted(pairs) if pairs else math.nan
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
            worst[f"worst_{metric}"] = worst_case(vals) if vals else None
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


@st.composite
def row_sets(draw):
    """Shuffled rows of 1-4 methods, delays 0-9 with gaps and 1-9 suites, and suite weights.

    About one cell in seven is missing, cells hold 1-300 rows, and a cell's
    success rate is 0, 0.5 or 0.95, so some cells have no successes.
    """
    methods = draw(st.lists(st.sampled_from(("naive", "pc", "potr", "rtc")),
                            min_size=1, max_size=4, unique=True))
    delays = draw(st.lists(st.integers(0, 9), min_size=1, max_size=10, unique=True))
    suites = [f"suite{i}" for i in range(draw(st.integers(1, 9)))]
    weights = {s: draw(st.integers(1, 20)) for s in suites}
    most = draw(st.sampled_from([1, 3, 30, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for method, suite, delay in itertools.product(methods, suites, delays):
        if rng.random() < 0.15:
            continue
        n = int(rng.integers(1, most + 1))
        success = rng.random(n) < rng.choice([0.0, 0.5, 0.95])
        scale = 10.0 ** rng.uniform(-3, 3)
        l2_mean = scale * rng.lognormal(0.0, 1.0, n)
        l2_max = l2_mean * (1.0 + rng.exponential(1.0, n))
        acc = scale * rng.gamma(2.0, 1.0, n)
        jerk = acc * (1.0 + rng.exponential(1.0, n))
        steps = rng.integers(1, 200, n)
        rows += [
            ResultRow(method, delay, suite, i, *values)
            for i, values in enumerate(zip(success.tolist(), steps.tolist(), l2_mean.tolist(),
                                           l2_max.tolist(), acc.tolist(), jerk.tolist()))
        ]
    assume(rows)
    return [rows[i] for i in rng.permutation(len(rows))], weights


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
