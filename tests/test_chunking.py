import numpy as np
import pytest

from guidedflow import chunking
from guidedflow.chunking import (
    ChunkExecutor,
    build_inpaint_target,
    build_soft_mask,
)
from guidedflow.envs import default_variants, make_env, make_field
from guidedflow.errors import StructuralError
from guidedflow.guidance import GuidanceConfig


def run_executor(method, delay, *, seed=0, variant=None, max_steps=60, replan_every=None,
                 mask_decay=None, tol=0.15):
    variant = variant or default_variants()[1]
    env = make_env(variant, rng=np.random.default_rng(seed), max_steps=max_steps,
                   goal_tolerance=tol)
    field = make_field(variant)
    kwargs = {} if mask_decay is None else {"mask_decay": mask_decay}
    ex = ChunkExecutor(
        env,
        field,
        GuidanceConfig(method=method),
        delay=delay,
        horizon=10,
        replan_every=replan_every,
        rng=np.random.default_rng(seed + 1),
        **kwargs,
    )
    return ex


def record_requests(monkeypatch) -> list:
    """(inpaint, chunk) of every guided regeneration executors make from now on."""
    records, denoise = [], chunking.guided_denoise

    def recording(noise, obs, field, inpaint, config):
        chunk = denoise(noise, obs, field, inpaint, config)
        if inpaint is not None:  # reset()'s unguided first chunk is not a request
            records.append((inpaint, chunk))
        return chunk

    monkeypatch.setattr(chunking, "guided_denoise", recording)
    return records


def test_executed_actions_are_np_clip_bit_for_bit(monkeypatch):
    # Rows hold -0.0 and entries past the bounds, some near the float limit: executing row t
    # must give np.clip's bits, and so must each boundary event's new action.
    chunk = np.array([
        [-0.0, 0.0], [1.5, -1.5], [-2.0, 0.25], [1e308, -1e308], [1.0, -1.0],
        [0.999, -0.999], [-1e-300, 1e300], [np.nextafter(1.0, 2.0), -0.5], [0.5, -0.0], [3.0, 1.0],
    ])
    monkeypatch.setattr(chunking, "guided_denoise", lambda *args: chunk.copy())
    for delay, replan_every, rows in ((0, 10, range(10)), (1, 1, [0] + [1] * 9)):
        ex = run_executor("naive", delay, replan_every=replan_every, max_steps=10, tol=1e-9)
        ex.env.goal = np.array([50.0, 50.0])
        ex.reset()
        for row in rows:
            action, event = ex.step()
            assert action.tobytes() == np.clip(chunk[row], -1.0, 1.0).tobytes()
            if event is not None:
                assert event.first_action_new.tobytes() == np.clip(chunk[delay], -1.0, 1.0).tobytes()


# ---------------------------------------------------------------------------
# inpainting target


def test_target_no_overlap_when_s_equals_horizon():
    prev = np.arange(20.0).reshape(10, 2)
    assert np.array_equal(build_inpaint_target(prev, 10), np.zeros((10, 2)))


def test_target_shift_by_one():
    prev = np.array([[0.0], [1.0], [2.0]])
    assert np.array_equal(build_inpaint_target(prev, 1), np.array([[1.0], [2.0], [0.0]]))


def test_target_shift_matches_brute_force():
    rng = np.random.default_rng(1)
    prev = rng.standard_normal((10, 2))
    got = build_inpaint_target(prev, 3)
    for i in range(10):
        expected = prev[3 + i] if i < 7 else np.zeros(2)
        assert np.array_equal(got[i], expected)


def test_target_rejects_bad_shift():
    with pytest.raises(StructuralError):
        build_inpaint_target(np.zeros((4, 1)), 5)
    with pytest.raises(StructuralError):
        build_inpaint_target(np.zeros((4, 1)), 0)


# ---------------------------------------------------------------------------
# soft mask


def test_mask_all_zero_when_s_equals_horizon():
    assert np.array_equal(build_soft_mask(10, 3, 10, 0.5), np.zeros(10))


def test_mask_hard_prefix_and_decay():
    got = build_soft_mask(10, 3, 3, 0.5)
    expected = np.array([1, 1, 1, 0.5, 0.25, 0.125, 0.0625, 0, 0, 0])
    assert np.allclose(got, expected, atol=1e-15)


def test_mask_no_hard_prefix_at_zero_delay():
    got = build_soft_mask(4, 0, 1, 0.5)
    assert np.allclose(got, np.array([0.5, 0.25, 0.125, 0.0]), atol=1e-15)


def test_mask_bounds_and_errors():
    rng = np.random.default_rng(2)
    for _ in range(50):
        h = int(rng.integers(2, 16))
        d = int(rng.integers(0, h))
        s = int(rng.integers(1, h + 1))
        decay = float(rng.uniform(0.05, 1.0))
        w = build_soft_mask(h, d, s, decay)
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        # wherever the mask is positive, the row lies inside the overlap
        assert np.all(np.nonzero(w)[0] < h - s)
    with pytest.raises(StructuralError):
        build_soft_mask(10, 10, 3, 0.5)
    with pytest.raises(StructuralError):
        build_soft_mask(10, 3, 0, 0.5)
    with pytest.raises(StructuralError):
        build_soft_mask(10, 3, 3, 0.0)


# ---------------------------------------------------------------------------
# executor schedule


def test_swap_steps_follow_delay_cadence(monkeypatch):
    requests = record_requests(monkeypatch)
    ex = run_executor("potr", 3, max_steps=13)
    ex.reset()
    swaps = []
    while not ex.env.done:
        action, event = ex.step()
        if event is not None:
            swaps.append(event.env_step)
            # a freshly swapped chunk resumes at row d
            assert np.array_equal(action, np.clip(requests[-1][1][3], -1.0, 1.0))
    assert swaps == [3, 6, 9, 12]


def test_delay_zero_swaps_every_step():
    ex = run_executor("naive", 0, max_steps=6)
    trace = ex.run()
    # swap happens before each executed action; no event exists at step 0
    # because nothing was executed yet
    assert [e.env_step for e in trace.events] == [1, 2, 3, 4, 5]


def test_identical_prefix_until_first_swap():
    a = run_executor("naive", 3, seed=5).run()
    b = run_executor("potr", 3, seed=5).run()
    assert np.array_equal(a.actions[:3], b.actions[:3])


def test_schedule_determinism():
    a = run_executor("potr", 2, seed=9).run()
    b = run_executor("potr", 2, seed=9).run()
    assert np.array_equal(a.actions, b.actions)
    assert a.env_steps == b.env_steps and a.success == b.success
    assert len(a.events) == len(b.events)


def test_full_horizon_replan_masks_guidance_entirely():
    traces = [
        run_executor(m, 0, seed=3, replan_every=10, max_steps=30).run()
        for m in ("naive", "rtc", "pc", "potr")
    ]
    for t in traces[1:]:
        assert np.array_equal(traces[0].actions, t.actions)


def test_hard_frozen_continuity_beats_naive(monkeypatch):
    # With beta = n = 10 and d >= 1, the regenerated chunk matches the
    # hard-frozen target rows much better under guidance than without.
    d = 3
    hard = min(d, 10 - d)
    requests = record_requests(monkeypatch)

    def mean_prefix_error(method):
        requests.clear()
        for seed in range(100):
            run_executor(method, d, seed=seed, max_steps=24).run()
        errs = [np.linalg.norm(chunk[:hard] - inpaint.target[:hard]) for inpaint, chunk in requests]
        return float(np.mean(errs))

    naive_err = mean_prefix_error("naive")
    for method in ("rtc", "pc", "potr"):
        assert mean_prefix_error(method) < naive_err


@pytest.mark.parametrize("delay, replan_every", [(9, None), (6, None), (3, 2), (3, 8)])
def test_executor_rejects_schedules_that_cannot_run(delay, replan_every):
    # s < d would issue a request before the last one arrives; d + s > H
    # would exhaust a chunk before its replacement arrives.
    with pytest.raises(StructuralError, match=rf"d={delay}, s=\d+, H=10"):
        run_executor("naive", delay, replan_every=replan_every)


def test_executor_validation():
    variant = default_variants()[0]
    env = make_env(variant, rng=np.random.default_rng(0))
    field = make_field(variant)
    with pytest.raises(StructuralError):
        ChunkExecutor(env, field, GuidanceConfig(), delay=10, horizon=10)
    with pytest.raises(StructuralError):
        ChunkExecutor(env, field, GuidanceConfig(), delay=2, horizon=10, replan_every=11)
    ex = ChunkExecutor(env, field, GuidanceConfig(), delay=2, horizon=10)
    with pytest.raises(StructuralError):
        ex.step()  # reset() required first


@pytest.mark.parametrize("decay", [0.0, float("nan"), 2.0])
def test_executor_rejects_mask_decay_at_construction(decay):
    with pytest.raises(StructuralError, match="decay"):
        run_executor("potr", 2, mask_decay=decay)


def test_executor_shares_one_read_only_mask(monkeypatch):
    requests = record_requests(monkeypatch)
    ex = run_executor("potr", 2, mask_decay=0.5)
    assert np.array_equal(ex.mask, build_soft_mask(10, 2, 2, 0.5))
    with pytest.raises(ValueError):
        ex.mask[0] = 0.0
    ex.run()
    assert len(requests) > 1
    assert all(inpaint.mask is ex.mask for inpaint, _ in requests)


def test_pending_request_freezes_observation():
    ex = run_executor("potr", 3, seed=13)
    ex.reset()
    ex.step()
    observation, noise, inpaint = ex.state.pending
    assert noise.shape == inpaint.target.shape == (10, 2)
    moved = ex.env.position
    assert not np.array_equal(observation.position, moved)
