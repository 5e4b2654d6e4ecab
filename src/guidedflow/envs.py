"""Synthetic closed-loop environments with analytically known chunk priors.

A point mass moves in normalized D-dimensional space: position += gain *
action + noise per step, actions clipped to [-1, 1] at execution.  The
policy stand-in is an isotropic Gaussian mixture over chunks whose mode
means are proportional-controller plans toward the goal, so the conditional
velocity field has a closed form and every downstream quantity can be
checked against an oracle.

The bimodal variant places an obstacle on the straight line to the goal and
gives the prior two mode plans skirting it on opposite sides.  Which side a
sampled chunk commits to is decided mid-denoising, which is exactly where
mid-trajectory guidance strength matters for keeping consecutive chunks in
the same homotopy class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import StructuralError
from .flow import GaussianMixtureField, GaussianMixtureFieldParams

__all__ = [
    "Obstacle",
    "Observation",
    "PointMassEnv",
    "OraclePolicyParams",
    "conditional_field",
    "ConditionalGMField",
    "TaskVariant",
    "default_variants",
    "make_env",
    "make_field",
]


@dataclass(frozen=True)
class Obstacle:
    center: np.ndarray
    radius: float


@dataclass(frozen=True)
class Observation:
    """Conditioning input: where the agent is, where it is going, what is in the way."""

    position: np.ndarray
    goal: np.ndarray
    obstacle: Optional[Obstacle] = None


class PointMassEnv:
    """Noisy integrator dynamics with a goal ball and a step limit.

    Success is sticky: the episode succeeds if the position ever enters the
    goal-tolerance ball.  One instance runs one episode; instances are
    independent and may run concurrently.
    """

    def __init__(
        self,
        start,
        goal,
        obstacle: Optional[Obstacle] = None,
        max_steps: int = 60,
        goal_tolerance: float = 0.15,
        dynamics_gain: float = 0.1,
        action_noise_std: float = 0.02,
        rng: Optional[np.random.Generator] = None,
    ):
        self.position = np.asarray(start, dtype=float).copy()
        self.goal = np.asarray(goal, dtype=float).copy()
        if self.position.shape != self.goal.shape or self.position.ndim != 1:
            raise StructuralError("start and goal must be 1-D vectors of equal dimension")
        self.obstacle = obstacle
        self.max_steps = int(max_steps)
        self.goal_tolerance = float(goal_tolerance)
        self.dynamics_gain = float(dynamics_gain)
        self.action_noise_std = float(action_noise_std)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.step_count = 0
        self.success = False
        self.done = False

    @property
    def action_dim(self) -> int:
        return self.position.shape[0]

    def observe(self) -> Observation:
        return Observation(
            position=self.position.copy(), goal=self.goal.copy(), obstacle=self.obstacle
        )

    def step(self, action) -> tuple[bool, bool]:
        """Apply one clipped action; returns (done, success)."""
        a = np.clip(np.asarray(action, dtype=float), -1.0, 1.0)
        delta = self.dynamics_gain * a
        if self.action_noise_std > 0.0:
            delta = delta + self.rng.normal(0.0, self.action_noise_std, self.action_dim)
        self.position = self.position + delta
        self.step_count += 1
        if np.linalg.norm(self.position - self.goal) <= self.goal_tolerance:
            self.success = True
        self.done = self.success or self.step_count >= self.max_steps
        return self.done, self.success


@dataclass
class OraclePolicyParams:
    """Conditional chunk prior: sigma_cond is the per-entry scale sigma_{d|o}.

    gain must match the environment's dynamics_gain for the controller plans
    to be consistent.  ctrl_frac is the fraction of the remaining gap each
    planned action closes; values below 1 keep plan tails correcting instead
    of collapsing to zero at the goal, which is what makes stale plans
    survivable under delay.  clearance is the standoff added to the obstacle
    radius for the two skirting modes.  chunk_mean_fn may override the
    built-in controller; it maps an Observation to a (modes, H, D) array of
    mode means.
    """

    sigma_cond: float = 0.4
    modes: int = 1
    horizon: int = 10
    gain: float = 0.1
    ctrl_frac: float = 0.35
    clearance: float = 0.04
    chunk_mean_fn: Optional[Callable[[Observation], np.ndarray]] = None

    def __post_init__(self) -> None:
        if self.modes < 1:
            raise StructuralError("modes must be >= 1")
        if not (0.0 < self.sigma_cond < math.inf and 0.0 < self.gain < math.inf):
            raise StructuralError("sigma_cond and gain must be positive and finite")
        if not (0.0 < self.ctrl_frac <= 1.0):
            raise StructuralError("ctrl_frac must lie in (0, 1]")
        if not math.isfinite(self.clearance):
            raise StructuralError("clearance must be finite")


def _perp(v: np.ndarray) -> np.ndarray:
    # 2-D perpendicular; higher-D tasks must supply chunk_mean_fn instead.
    return np.array([-v[1], v[0]])


def _controller_plans(obs: Observation, params: OraclePolicyParams, sides) -> np.ndarray:
    """Roll a saturating proportional controller forward for all modes at once.

    Returns (modes, H, D) plans, one per entry of ``sides``; the modes are
    rolled together as one (modes, D) state.  side = 0 heads straight for the
    goal.  side = +-1 steers toward a goal lane shifted laterally by
    (radius + clearance) until the rollout crosses the plane through the
    obstacle center, then toward the true goal.  The lane target keeps the
    rollout moving (a via point on the plane itself would be a stalling
    attractor for a proportional controller).
    """
    horizon, gain = params.horizon, params.gain
    sides = np.asarray(sides, dtype=float)
    x = np.tile(obs.position, (sides.size, 1))  # (modes, D)
    lane = None
    if obs.obstacle is not None and np.any(sides != 0.0):
        axis = obs.goal - obs.obstacle.center
        norm = np.linalg.norm(axis)
        if norm > 1e-12:
            axis = axis / norm
            offset = sides[:, None] * (obs.obstacle.radius + params.clearance) * _perp(axis)
            lane = obs.goal + offset
    plans = np.empty((sides.size, horizon, x.shape[1]))
    for i in range(horizon):
        target = obs.goal
        if lane is not None:
            # One np.dot per mode: the sign test of a single-mode rollout, bit
            # for bit (a batched product may round differently near the plane).
            behind = np.array([np.dot(row, axis) < 0.0 for row in x - obs.obstacle.center])
            target = np.where(behind[:, None], lane, obs.goal)
        a = np.minimum(np.maximum(params.ctrl_frac * (target - x) / gain, -1.0), 1.0)
        plans[:, i] = a
        x = x + gain * a
    return plans


def conditional_field(obs: Observation, params: OraclePolicyParams) -> GaussianMixtureFieldParams:
    """Observation-conditioned mixture prior over clean chunks.

    Mode means are controller plans toward the goal (obstacle-skirting on
    opposite sides for modes = 2), entries clipped to [-1, 1]; all modes get
    equal weight and scale sigma_cond.
    """
    if params.chunk_mean_fn is not None:
        means = np.asarray(params.chunk_mean_fn(obs), dtype=float)
        if means.ndim != 3 or means.shape[0] != params.modes:
            raise StructuralError(f"chunk_mean_fn must return (modes, H, D), got {means.shape}")
    elif params.modes == 2 and obs.obstacle is not None:
        if obs.position.shape != (2,):
            raise StructuralError(
                f"obstacle-skirting modes are planned in 2-D, got D = {obs.position.shape[0]}; "
                "supply chunk_mean_fn for other dimensions"
            )
        means = _controller_plans(obs, params, [1.0, -1.0])
    else:
        means = _controller_plans(obs, params, np.zeros(params.modes))
    k = means.shape[0]
    return GaussianMixtureFieldParams(
        weights=np.full(k, 1.0 / k),
        means=means,
        scales=np.full(k, params.sigma_cond),
    )


class ConditionalGMField(GaussianMixtureField):
    """Mixture velocity field conditioned on the observation through the oracle prior.

    Recomputes the mixture parameters when the observation object changes;
    within one denoising run the same frozen Observation is passed at every
    step, so the one-slot cache makes conditioning cost per run, not per step.
    """

    def __init__(self, params: OraclePolicyParams):
        self.oracle = params
        self._cached_obs: Optional[Observation] = None
        self._cached_params: Optional[GaussianMixtureFieldParams] = None

    def field_params(self, obs: Observation) -> GaussianMixtureFieldParams:
        if obs is not self._cached_obs:
            self._cached_params = conditional_field(obs, self.oracle)
            self._cached_obs = obs
        return self._cached_params


@dataclass
class TaskVariant:
    """One benchmark task family; plays the role of a suite in aggregation."""

    name: str
    weight: int = 1
    modes: int = 1
    start: tuple = (-1.0, 0.0)
    goal: tuple = (0.75, 0.0)
    obstacle_center: Optional[tuple] = None
    obstacle_radius: float = 0.09


def default_variants() -> list[TaskVariant]:
    """The shipped benchmark: a straight reach and a two-homotopy obstacle task.

    The obstacle is small enough that the two skirting plans stay close in
    action space (mode commitment then happens mid-denoising rather than in
    the first solver steps) and sits just short of the goal, so consecutive
    chunks keep re-deciding the homotopy class for essentially the whole
    episode while the previous chunk's tail still carries it.  The heavier
    weight on the bimodal variant mirrors a task-count imbalance between a
    small easy suite and a large diverse one.
    """
    return [
        TaskVariant(name="unimodal", modes=1, weight=1),
        TaskVariant(
            name="bimodal",
            modes=2,
            weight=9,
            obstacle_center=(0.7, 0.0),
            obstacle_radius=0.09,
        ),
    ]


def make_env(
    variant: TaskVariant,
    rng: np.random.Generator,
    max_steps: int = 60,
    goal_tolerance: float = 0.15,
    dynamics_gain: float = 0.1,
    action_noise_std: float = 0.02,
) -> PointMassEnv:
    obstacle = None
    if variant.obstacle_center is not None:
        obstacle = Obstacle(
            center=np.asarray(variant.obstacle_center, dtype=float),
            radius=variant.obstacle_radius,
        )
    return PointMassEnv(
        start=variant.start,
        goal=variant.goal,
        obstacle=obstacle,
        max_steps=max_steps,
        goal_tolerance=goal_tolerance,
        dynamics_gain=dynamics_gain,
        action_noise_std=action_noise_std,
        rng=rng,
    )


def make_field(variant: TaskVariant, **oracle) -> ConditionalGMField:
    """The variant's conditional field; ``oracle`` holds further OraclePolicyParams fields."""
    return ConditionalGMField(OraclePolicyParams(modes=variant.modes, **oracle))
