import numpy as np
import pytest

from guidedflow.chunking import (
    ChunkExecutor,
    build_inpaint_target,
    build_soft_mask,
)
from guidedflow.envs import default_variants, make_env, make_field
from guidedflow.errors import StructuralError
from guidedflow.guidance import GuidanceConfig


def run_executor(method, delay, *, seed=0, variant=None, max_steps=60, replan_every=None,
                 record_requests=False, mask_decay=None, tol=0.15):
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
        record_requests=record_requests,
        **kwargs,
    )
    return ex


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


def test_swap_steps_follow_delay_cadence():
    ex = run_executor("potr", 3, max_steps=13)
    ex.reset()
    swaps = []
    while not ex.env.done:
        _, event = ex.step()
        if event is not None:
            swaps.append(event.env_step)
    assert swaps == [3, 6, 9, 12]
    # a freshly swapped chunk resumes at row d
    assert ex.state.exec_index >= 3


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


def test_hard_frozen_continuity_beats_naive():
    # With beta = n = 10 and d >= 1, the regenerated chunk matches the
    # hard-frozen target rows much better under guidance than without.
    d = 3
    hard = min(d, 10 - d)

    def mean_prefix_error(method):
        errs = []
        for seed in range(100):
            ex = run_executor(method, d, seed=seed, max_steps=24, record_requests=True)
            ex.run()
            for req in ex.requests:
                errs.append(
                    np.linalg.norm(req.chunk[:hard] - req.inpaint.target[:hard])
                )
        return float(np.mean(errs))

    naive_err = mean_prefix_error("naive")
    for method in ("rtc", "pc", "potr"):
        assert mean_prefix_error(method) < naive_err


def test_schedule_overrun_flags_failure():
    # d=9 with H=10 passes construction (d < H) but needs rows beyond the
    # horizon before the next chunk arrives.
    ex = run_executor("naive", 9, max_steps=40)
    trace = ex.run()
    assert trace.schedule_overrun and not trace.success


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


def test_executor_shares_one_read_only_mask():
    ex = run_executor("potr", 2, mask_decay=0.5, record_requests=True)
    assert np.array_equal(ex.mask, build_soft_mask(10, 2, 2, 0.5))
    with pytest.raises(ValueError):
        ex.mask[0] = 0.0
    ex.run()
    assert len(ex.requests) > 1
    assert all(r.inpaint.mask is ex.mask for r in ex.requests)


def test_pending_request_freezes_observation():
    ex = run_executor("potr", 3, seed=13)
    ex.reset()
    ex.step()
    pending = ex.state.pending
    assert pending is not None and pending.issued_at == 0
    moved = ex.env.position
    assert not np.array_equal(pending.observation.position, moved)
