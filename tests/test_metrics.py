import numpy as np
import pytest

from guidedflow.chunking import BoundaryEvent, EpisodeTrace
from guidedflow.errors import StructuralError
from guidedflow.metrics import (
    aggregate_weighted,
    chunk_switch_l2,
    episode_metrics,
    max_acc_jerk,
    worst_case,
)
from guidedflow.verify import check_aggregation_crosscheck


def event(old, new, step=0):
    return BoundaryEvent(
        env_step=step,
        last_action_old=np.asarray(old, dtype=float),
        first_action_new=np.asarray(new, dtype=float),
    )


# ---------------------------------------------------------------------------
# chunk_switch_l2


def test_no_events_is_zero():
    assert chunk_switch_l2([]) == (0.0, 0.0)


def test_single_event_345_triangle():
    mean, mx = chunk_switch_l2([event((0, 0), (3, 4))])
    assert mean == pytest.approx(5.0) and mx == pytest.approx(5.0)


def test_mean_and_max_of_jumps():
    events = [event((0,), (1,)), event((0,), (2,)), event((0,), (3,))]
    mean, mx = chunk_switch_l2(events)
    assert mean == pytest.approx(2.0) and mx == pytest.approx(3.0)
    assert mx >= mean


def test_max_at_least_mean_random():
    rng = np.random.default_rng(0)
    events = [event(rng.standard_normal(2), rng.standard_normal(2)) for _ in range(20)]
    mean, mx = chunk_switch_l2(events)
    assert mx >= mean


# ---------------------------------------------------------------------------
# max_acc_jerk


def test_constant_sequence_has_no_peaks():
    assert max_acc_jerk(np.ones((10, 2))) == (0.0, 0.0)


def test_alternating_sequence_peaks():
    seq = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])[:, None]
    acc, jerk = max_acc_jerk(seq)
    assert acc == pytest.approx(2.0) and jerk == pytest.approx(4.0)


def test_linear_ramp_is_smooth():
    seq = 0.3 * np.arange(8.0)[:, None]
    assert max_acc_jerk(seq) == (pytest.approx(0.0, abs=1e-12), pytest.approx(0.0, abs=1e-12))


def test_short_sequences_return_zero():
    assert max_acc_jerk(np.zeros((2, 2))) == (0.0, 0.0)
    acc, jerk = max_acc_jerk(np.array([[0.0], [1.0], [0.0]]))
    assert acc == pytest.approx(2.0) and jerk == 0.0


def test_translation_invariance_and_homogeneity():
    rng = np.random.default_rng(1)
    seq = rng.standard_normal((12, 3))
    base = max_acc_jerk(seq)
    shifted = max_acc_jerk(seq + np.array([5.0, -2.0, 0.5]))
    assert shifted[0] == pytest.approx(base[0], rel=1e-12)
    assert shifted[1] == pytest.approx(base[1], rel=1e-12)
    scaled = max_acc_jerk(-2.5 * seq)
    assert scaled[0] == pytest.approx(2.5 * base[0], rel=1e-12)
    assert scaled[1] == pytest.approx(2.5 * base[1], rel=1e-12)


# ---------------------------------------------------------------------------
# aggregation


def test_equal_weights_is_arithmetic_mean():
    assert aggregate_weighted([(5, 0.2), (5, 0.4), (5, 0.9)]) == pytest.approx(0.5)


def test_single_suite_identity():
    assert aggregate_weighted([(90, 0.298)]) == pytest.approx(0.298)


def test_task_count_weighted_fixture():
    values = [(90, 0.298), (10, 0.940), (10, 0.900), (10, 0.960), (10, 0.980)]
    assert aggregate_weighted(values) == pytest.approx(0.4972, abs=5e-4)


def test_aggregate_order_and_scale_invariance():
    pairs = [(10, 0.9), (90, 0.3), (10, 0.5)]
    a = aggregate_weighted(pairs)
    assert aggregate_weighted(list(reversed(pairs))) == pytest.approx(a, rel=1e-15)
    assert aggregate_weighted([(7 * n, m) for n, m in pairs]) == pytest.approx(a, rel=1e-12)


def test_aggregate_empty_is_error():
    with pytest.raises(StructuralError):
        aggregate_weighted([])
    with pytest.raises(StructuralError):
        worst_case([])


@pytest.mark.parametrize(
    "pairs", [[(float("nan"), 0.5), (1, 0.2)], [(float("inf"), 0.5)]]
)
def test_aggregate_rejects_non_finite_weights(pairs):
    with pytest.raises(StructuralError, match="weights"):
        aggregate_weighted(pairs)


def test_worst_case():
    assert worst_case([0.7, 0.7, 0.7]) == pytest.approx(0.7)
    assert worst_case([5.75, 3.86, 4.72, 4.30, 5.85]) == pytest.approx(5.85)
    assert worst_case([1.25]) == pytest.approx(1.25)


def test_cross_suite_fixture_reproduces_totals():
    result = check_aggregation_crosscheck()
    assert result.passed, result.detail


# ---------------------------------------------------------------------------
# episode metrics


def test_episode_metrics_assembly():
    actions = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    trace = EpisodeTrace(
        actions=actions,
        events=[event((0, 0), (3, 4), step=2)],
        success=True,
        env_steps=4,
    )
    m = episode_metrics(trace)
    assert m.success and m.env_steps == 4
    assert m.l2_mean == pytest.approx(5.0) and m.l2_max == pytest.approx(5.0)
    assert m.max_acc == pytest.approx(2.0) and m.max_jerk == pytest.approx(4.0)
    assert m.l2_mean <= m.l2_max
