import numpy as np
import pytest

from guidedflow.chunking import ChunkExecutor
from guidedflow.envs import (
    ConditionalGMField,
    Observation,
    Obstacle,
    OraclePolicyParams,
    PointMassEnv,
    conditional_field,
    default_variants,
    make_env,
    make_field,
)
from guidedflow.errors import NumericError, StructuralError
from guidedflow.flow import GaussianMixtureFieldParams
from guidedflow.guidance import GuidanceConfig, InpaintTarget


def rollout_positions(mean_chunk, start, gain=0.1):
    x = np.asarray(start, dtype=float).copy()
    out = [x.copy()]
    for a in mean_chunk:
        x = x + gain * a
        out.append(x.copy())
    return np.array(out)


# ---------------------------------------------------------------------------
# observe / env_step


def test_observation_well_formed_at_goal():
    env = PointMassEnv(start=(0.3, -0.2), goal=(0.3, -0.2), action_noise_std=0.0)
    obs = env.observe()
    assert np.array_equal(obs.position, obs.goal)
    params = OraclePolicyParams(modes=1)
    field = conditional_field(obs, params)
    assert np.abs(field.means).max() < 1e-9


def test_observation_after_reset_equals_start():
    env = PointMassEnv(start=(-1.0, 0.0), goal=(1.0, 0.0))
    obs = env.observe()
    assert np.array_equal(obs.position, np.array([-1.0, 0.0]))
    assert env.step_count == 0 and not env.done


def test_noise_seeds_differ_at_step_one():
    o = []
    for seed in (1, 2):
        env = PointMassEnv(start=(0.0, 0.0), goal=(1.0, 0.0), rng=np.random.default_rng(seed))
        env.step(np.array([0.5, 0.0]))
        o.append(env.observe().position)
    assert not np.array_equal(o[0], o[1])


def test_env_step_zero_action_zero_noise():
    env = PointMassEnv(start=(0.2, 0.2), goal=(1.0, 0.0), action_noise_std=0.0)
    env.step(np.zeros(2))
    assert np.array_equal(env.position, np.array([0.2, 0.2]))


def test_env_step_reaches_goal_in_closed_form_steps():
    env = PointMassEnv(
        start=(0.0, 0.0), goal=(1.0, 0.0), action_noise_std=0.0,
        goal_tolerance=0.05, dynamics_gain=0.1, max_steps=60,
    )
    needed = int(np.ceil((1.0 - 0.05) / 0.1))
    for _ in range(needed):
        done, success = env.step(np.array([1.0, 0.0]))
        if success:
            break
    assert env.success and env.step_count <= needed + 1


def test_env_times_out_without_goal():
    env = PointMassEnv(start=(0.0, 0.0), goal=(5.0, 0.0), max_steps=4, action_noise_std=0.0)
    for _ in range(4):
        done, success = env.step(np.zeros(2))
    assert done and not success


def test_env_clips_actions():
    env = PointMassEnv(start=(0.0, 0.0), goal=(9.0, 0.0), action_noise_std=0.0)
    env.step(np.array([10.0, 0.0]))
    assert env.position[0] == pytest.approx(0.1)


def test_env_step_clips_like_np_clip():
    for action in ([3.0, -0.0], [-np.inf, 0.25], [1.0, -1.0000000000000002]):
        env = PointMassEnv(start=(0.0, 0.0), goal=(9.0, 9.0), action_noise_std=0.0)
        env.step(np.array(action))
        assert env.position.tobytes() == (np.zeros(2) + 0.1 * np.clip(action, -1.0, 1.0)).tobytes()


@pytest.mark.parametrize("action", [np.zeros((1, 2)), 0.5, np.zeros(3), np.zeros(0)])
def test_env_step_rejects_action_shape(action):
    env = PointMassEnv(start=(0.0, 0.0), goal=(1.0, 0.0), action_noise_std=0.0)
    with pytest.raises(StructuralError, match=r"shape \(2,\)"):
        env.step(action)
    assert env.position.shape == (2,) and env.step_count == 0


def test_env_step_rejects_nan_action_and_keeps_position():
    env = PointMassEnv(start=(0.25, -0.5), goal=(1.0, 0.0), rng=np.random.default_rng(0))
    with pytest.raises(NumericError):
        env.step(np.array([np.nan, 0.0]))
    assert np.array_equal(env.position, [0.25, -0.5]) and env.step_count == 0
    env.step(np.array([np.inf, -np.inf]))  # infinite actions clip to the box
    assert np.all(np.isfinite(env.position))


@pytest.mark.parametrize("goal", [(5.0, 0.0), (0.0, 0.0)], ids=["timed_out", "succeeded"])
def test_env_step_after_done_raises(goal):
    env = PointMassEnv(start=(0.0, 0.0), goal=goal, max_steps=2, action_noise_std=0.0)
    while not env.done:
        env.step(np.zeros(2))
    state = (env.position.copy(), env.step_count, env.success)
    # a timed-out episode must not turn into a success by stepping on
    with pytest.raises(StructuralError, match="ended"):
        env.step(np.array([1.0, 0.0]))
    assert np.array_equal(env.position, state[0]) and (env.step_count, env.success) == state[1:]


def test_env_goal_distance_is_linalg_norm():
    # A goal tolerance of exactly the np.linalg.norm distance after the step
    # must count as reached: the env's distance rounds the same.
    rng = np.random.default_rng(3)
    for _ in range(200):
        start, goal = rng.uniform(-1.0, 1.0, (2, 2))
        reached = float(np.linalg.norm(start + 0.1 * np.full(2, 0.5) - goal))
        env = PointMassEnv(start, goal, goal_tolerance=reached, action_noise_std=0.0)
        assert env.step(np.full(2, 0.5)) == (True, True)


# ---------------------------------------------------------------------------
# conditional field


def test_far_goal_gives_saturated_forward_rows():
    obs = Observation(position=np.zeros(2), goal=np.array([5.0, 0.0]))
    field = conditional_field(obs, OraclePolicyParams(modes=1))
    rows = field.means[0]
    assert np.all(rows[:, 0] > 0.0) and np.all(rows[:, 0] <= 1.0)
    assert np.allclose(rows[:, 1], 0.0, atol=1e-12)


def test_field_scales_and_weights():
    obs = Observation(position=np.zeros(2), goal=np.array([1.0, 0.0]))
    params = OraclePolicyParams(sigma_cond=0.37, modes=1)
    field = conditional_field(obs, params)
    assert np.all(field.scales == 0.37)
    assert np.allclose(field.weights.sum(), 1.0)


def test_bimodal_modes_pass_on_opposite_sides():
    obs = Observation(
        position=np.array([-1.0, 0.0]),
        goal=np.array([0.75, 0.0]),
        obstacle=Obstacle(center=np.array([0.7, 0.0]), radius=0.09),
    )
    params = OraclePolicyParams(modes=2, horizon=10)
    field = conditional_field(obs, params)
    lat = []
    for mode in range(2):
        pos = rollout_positions(field.means[mode], obs.position, gain=params.gain)
        lat.append(pos[len(pos) // 2, 1])
    assert lat[0] * lat[1] < 0.0


def test_conditional_field_cache_tracks_observation():
    variant = default_variants()[0]
    field = make_field(variant)
    env = make_env(variant, rng=np.random.default_rng(0))
    obs1 = env.observe()
    p1 = field.field_params(obs1)
    assert field.field_params(obs1) is p1
    env.step(np.array([1.0, 0.0]))
    obs2 = env.observe()
    assert field.field_params(obs2) is not p1


@pytest.mark.parametrize("variant", default_variants(), ids=lambda v: v.name)
@pytest.mark.parametrize("horizon, sigma_cond", [(10, 0.4), (3, 0.05), (50, 1.3)])
def test_conditional_prior_equals_one_built_from_scratch(variant, horizon, sigma_cond):
    oracle = OraclePolicyParams(modes=variant.modes, horizon=horizon, sigma_cond=sigma_cond)
    field = ConditionalGMField(oracle)
    env = make_env(variant, rng=np.random.default_rng(1))
    priors = []
    for _ in range(3):
        obs = env.observe()
        prior = field.field_params(obs)
        k = variant.modes
        scratch = GaussianMixtureFieldParams(np.full(k, 1.0 / k), prior.means.copy(), np.full(k, sigma_cond))
        for name in ("weights", "scales", "log_weights", "scales_sq", "flat_means", "means"):
            got, want = getattr(prior, name), getattr(scratch, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        assert np.array_equal(prior.means, conditional_field(obs, oracle).means)
        priors.append(prior)
        env.step(np.array([1.0, 0.3]))
    # Every observation's prior shares the field's read-only component constants.
    for name in ("weights", "scales", "log_weights", "scales_sq"):
        shared = getattr(oracle.components, name)
        assert all(getattr(p, name) is shared for p in priors) and not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0] = 0.5
    assert all(p.tau_key is oracle.components.tau_key for p in priors)


def test_conditional_prior_rejects_nonfinite_plans():
    field = ConditionalGMField(OraclePolicyParams(modes=1))
    obs = Observation(position=np.array([np.nan, 0.0]), goal=np.array([1.0, 0.0]))
    with pytest.raises(StructuralError, match="finite"):
        field.field_params(obs)


# ---------------------------------------------------------------------------
# benchmark-level invariants


def test_oracle_consistency_unguided_delay_zero():
    # Fully closed-loop unguided sampling solves the default unimodal task.
    variant = default_variants()[0]
    wins = 0
    for seed in range(200):
        env = make_env(variant, rng=np.random.default_rng(seed))
        field = make_field(variant)
        ex = ChunkExecutor(
            env, field, GuidanceConfig(method="naive"), delay=0, horizon=10,
            rng=np.random.default_rng(10_000 + seed),
        )
        wins += ex.run().success
    assert wins / 200 >= 0.95


def test_episode_determinism_same_seeds():
    variant = default_variants()[1]

    def run_once():
        env = make_env(variant, rng=np.random.default_rng(77))
        field = make_field(variant)
        ex = ChunkExecutor(
            env, field, GuidanceConfig(method="potr"), delay=4, horizon=10,
            rng=np.random.default_rng(78),
        )
        return ex.run()

    a, b = run_once(), run_once()
    assert np.array_equal(a.actions, b.actions)
    assert a.success == b.success and a.env_steps == b.env_steps


def test_default_variants_shape():
    variants = default_variants()
    assert [v.name for v in variants] == ["unimodal", "bimodal"]
    assert variants[0].modes == 1 and variants[1].modes == 2
    assert variants[1].obstacle_center is not None


def test_make_env_with_obstacle():
    env = make_env(default_variants()[1], rng=np.random.default_rng(0))
    obs = env.observe()
    assert obs.obstacle is not None and obs.obstacle.radius > 0


def test_oracle_params_validation():
    with pytest.raises(StructuralError):
        OraclePolicyParams(modes=0)
    with pytest.raises(StructuralError):
        OraclePolicyParams(sigma_cond=-1.0)
    with pytest.raises(StructuralError):
        OraclePolicyParams(ctrl_frac=1.5)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("name", ["modes", "horizon"])
@pytest.mark.parametrize("value", [0, -1, 2.5, NAN, INF, "2", None])
def test_oracle_params_require_integer_modes_and_horizon(name, value):
    with pytest.raises(StructuralError, match=f"{name} must be >= 1 and an integer"):
        OraclePolicyParams(**{name: value})


def test_oracle_params_take_integral_floats():
    params = OraclePolicyParams(modes=2.0, horizon=4.0)
    assert (params.modes, params.horizon) == (2, 4)
    assert type(params.modes) is int and type(params.horizon) is int
    obs = Observation(position=np.zeros(2), goal=np.array([1.0, 0.0]))
    assert conditional_field(obs, params).means.shape == (2, 4, 2)


def mixture_with(weights=(0.5, 0.5), scales=(0.4, 0.4), mean_entry=0.0):
    means = np.zeros((2, 3, 2))
    means[1, 2, 1] = mean_entry
    return GaussianMixtureFieldParams(weights=np.array(weights), means=means, scales=np.array(scales))


@pytest.mark.parametrize(
    "build",
    [
        lambda: mixture_with(weights=(NAN, 0.5)),
        lambda: mixture_with(scales=(0.4, NAN)),
        lambda: mixture_with(scales=(0.4, INF)),
        lambda: mixture_with(scales=(0.4, 1e300)),  # finite, but its square overflows
        lambda: mixture_with(mean_entry=NAN),
        lambda: mixture_with(mean_entry=INF),
        lambda: mixture_with(mean_entry=-INF),
        lambda: InpaintTarget(np.zeros((3, 2)), np.array([1.0, NAN, 0.0])),
        lambda: OraclePolicyParams(sigma_cond=NAN),
        lambda: OraclePolicyParams(sigma_cond=INF),
        lambda: OraclePolicyParams(gain=NAN),
        lambda: OraclePolicyParams(clearance=NAN),
        lambda: PointMassEnv(start=(NAN, 0.0), goal=(1.0, 0.0)),
        lambda: PointMassEnv(start=(0.0, 0.0), goal=(INF, 0.0)),
        lambda: PointMassEnv(start=(0.0, 0.0), goal=(1.0, 0.0), dynamics_gain=NAN),
    ],
    ids=[
        "weight-nan", "scale-nan", "scale-inf", "scale-sq-inf", "mean-nan", "mean-inf",
        "mean-neg-inf", "mask-nan", "sigma_cond-nan", "sigma_cond-inf", "gain-nan", "clearance-nan",
        "env-start-nan", "env-goal-inf", "env-gain-nan",
    ],
)
def test_nonfinite_parameters_rejected_at_construction(build):
    # The solver loop trusts what it is given, so non-finite values must not get in.
    with pytest.raises(StructuralError):
        build()


def test_env_and_field_shape_errors():
    with pytest.raises(StructuralError):
        PointMassEnv(start=np.zeros(2), goal=np.zeros(3))
    # the two skirting modes are planned in the plane only
    obstacle = Obstacle(center=np.full(3, 0.5), radius=0.1)
    obs3 = Observation(position=np.zeros(3), goal=np.ones(3), obstacle=obstacle)
    with pytest.raises(StructuralError, match="D = 3"):
        conditional_field(obs3, OraclePolicyParams(modes=2))
