"""Evaluation metrics over executed-action traces.

All smoothness quantities are finite differences on the normalized action
sequence (unit time step per control tick) and should be read as relative
indicators, not physical units.  Boundary L2 is measured between the two
consecutive *executed* actions straddling a chunk swap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .chunking import BoundaryEvent, EpisodeTrace
from .errors import StructuralError

__all__ = [
    "EpisodeMetrics",
    "chunk_switch_l2",
    "max_acc_jerk",
    "episode_metrics",
    "aggregate_weighted",
    "worst_case",
]


@dataclass
class EpisodeMetrics:
    success: bool
    env_steps: int
    l2_mean: float
    l2_max: float
    max_acc: float
    max_jerk: float


def chunk_switch_l2(events: Sequence[BoundaryEvent]) -> tuple[float, float]:
    """Mean and max L2 jump across chunk boundaries; (0, 0) when there are none."""
    if len(events) == 0:
        return 0.0, 0.0
    jumps = [
        float(np.linalg.norm(np.asarray(e.first_action_new) - np.asarray(e.last_action_old)))
        for e in events
    ]
    return float(np.mean(jumps)), float(np.max(jumps))


def max_acc_jerk(actions: np.ndarray) -> tuple[float, float]:
    """Peak acceleration and jerk of a (T, D) action sequence.

    acc_t  = a[t+1] - 2 a[t] + a[t-1]            (second difference)
    jerk_t = a[t+2] - 3 a[t+1] + 3 a[t] - a[t-1]  (third difference)

    Peaks are maxima of the vector L2 norm over t.  Sequences too short for a
    stencil (T < 3 for acc, T < 4 for jerk) return 0 for that quantity.
    """
    a = np.asarray(actions, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    t = a.shape[0]
    max_acc = 0.0
    max_jerk = 0.0
    if t >= 3:
        acc = a[2:] - 2.0 * a[1:-1] + a[:-2]
        max_acc = float(np.max(np.linalg.norm(acc, axis=1)))
    if t >= 4:
        jerk = a[3:] - 3.0 * a[2:-1] + 3.0 * a[1:-2] - a[:-3]
        max_jerk = float(np.max(np.linalg.norm(jerk, axis=1)))
    return max_acc, max_jerk


def episode_metrics(trace: EpisodeTrace) -> EpisodeMetrics:
    l2_mean, l2_max = chunk_switch_l2(trace.events)
    acc, jerk = max_acc_jerk(trace.actions)
    return EpisodeMetrics(
        success=trace.success,
        env_steps=trace.env_steps,
        l2_mean=l2_mean,
        l2_max=l2_max,
        max_acc=acc,
        max_jerk=jerk,
    )


def aggregate_weighted(suite_means: Iterable[tuple[float, float]]) -> float:
    """Episode-weighted cross-suite mean: sum(N_s * m_s) / sum(N_s)."""
    pairs = list(suite_means)
    if len(pairs) == 0:
        raise StructuralError("aggregate_weighted requires at least one suite")
    weights = np.array([p[0] for p in pairs], dtype=float)
    values = np.array([p[1] for p in pairs], dtype=float)
    if not (np.isfinite(weights) & (weights >= 1)).all():
        raise StructuralError("suite weights must be finite and >= 1")
    return float(np.sum(weights * values) / np.sum(weights))


def worst_case(suite_means: Iterable[float]) -> float:
    """Max across suites of already delay-averaged per-suite values."""
    values = list(suite_means)
    if len(values) == 0:
        raise StructuralError("worst_case requires at least one suite")
    return float(np.max(values))
