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
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericError, StructuralError
from .flow import GaussianMixtureField, GaussianMixtureFieldParams, MixtureComponents

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
        if self.max_steps < 1:
            raise StructuralError(f"max_steps must be >= 1, got {self.max_steps}")
        # step() then reads a non-finite position as the action's fault
        if not (np.isfinite(self.position).all() and np.isfinite(self.goal).all()):
            raise StructuralError("start and goal must be finite")
        if not math.isfinite(self.dynamics_gain):
            raise StructuralError("dynamics_gain must be finite")
        if not (0.0 < self.goal_tolerance < math.inf):
            raise StructuralError("goal_tolerance must be positive and finite")
        if not (0.0 <= self.action_noise_std < math.inf):
            raise StructuralError("action_noise_std must be finite and >= 0")
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
        """Apply one clipped (D,) action; returns (done, success).

        A done episode, an action of another shape and a NaN action fail
        here, and leave the position unchanged.
        """
        if self.done:
            raise StructuralError(f"the episode ended at step {self.step_count}; make a new env")
        a = np.asarray(action, dtype=float)
        if a.shape != self.position.shape:
            raise StructuralError(f"action must have shape {self.position.shape}, got {a.shape}")
        delta = self.dynamics_gain * np.minimum(np.maximum(a, -1.0), 1.0)  # np.clip's bits
        if self.action_noise_std > 0.0:
            delta = delta + self.rng.normal(0.0, self.action_noise_std, self.action_dim)
        position = self.position + delta
        gap = position - self.goal
        # np.linalg.norm's own arithmetic, bit for bit.  Start, goal, gain and
        # noise are finite, so it is NaN exactly when the action holds a NaN.
        distance = math.sqrt(gap.dot(gap))
        if math.isnan(distance):
            raise NumericError(f"action {a.tolist()} gives a non-finite position")
        self.position = position
        self.step_count += 1
        if distance <= self.goal_tolerance:
            self.success = True
        self.done = self.success or self.step_count >= self.max_steps
        return self.done, self.success


@dataclass(frozen=True)
class OraclePolicyParams:
    """Conditional chunk prior: sigma_cond is the per-entry scale sigma_{d|o}.

    gain must match the environment's dynamics_gain for the controller plans
    to be consistent.  ctrl_frac is the fraction of the remaining gap each
    planned action closes; values below 1 keep plan tails correcting instead
    of collapsing to zero at the goal, which is what makes stale plans
    survivable under delay.  clearance is the standoff added to the obstacle
    radius for the two skirting modes.  Immutable: construction also
    derives ``components``, the prior's equal weights and scales sigma_cond,
    which every observation's prior shares.
    """

    sigma_cond: float = 0.4
    modes: int = 1
    horizon: int = 10
    gain: float = 0.1
    ctrl_frac: float = 0.35
    clearance: float = 0.04

    def __post_init__(self) -> None:
        for name in ("modes", "horizon"):  # 2.0 counts as 2; 2.5, 0 and NaN do not
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and 1 <= value < math.inf
                    and value == int(value)):
                raise StructuralError(f"{name} must be >= 1 and an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # the instance is frozen
        if not (0.0 < self.sigma_cond < math.inf and 0.0 < self.gain < math.inf):
            raise StructuralError("sigma_cond and gain must be positive and finite")
        if not (0.0 < self.ctrl_frac <= 1.0):
            raise StructuralError("ctrl_frac must lie in (0, 1]")
        if not math.isfinite(self.clearance):
            raise StructuralError("clearance must be finite")
        object.__setattr__(self, "components", MixtureComponents(
            np.full(self.modes, 1.0 / self.modes), np.full(self.modes, self.sigma_cond)
        ))


def _perp(v: np.ndarray) -> np.ndarray:
    # 2-D perpendicular; the skirting modes are planned in the plane only.
    return np.array([-v[1], v[0]])


def _controller_plans(obs: Observation, params: OraclePolicyParams, sides) -> np.ndarray:
    """Roll a saturating proportional controller forward once per mode.

    Returns (modes, H, D) plans, one per entry of ``sides``.  side = 0 heads
    straight for the goal.  side = +-1 steers toward a goal lane shifted
    laterally by (radius + clearance) until the rollout crosses the plane
    through the obstacle center, then toward the true goal.  The lane target
    keeps the rollout moving (a via point on the plane itself would be a
    stalling attractor for a proportional controller).

    Each plan is rolled on Python floats: the state is a handful of numbers,
    so numpy's per-call dispatch would be the whole cost.  The action and
    state updates are the vectorised rollout's expressions in its order, so
    they round the same.  The sign test rounds both products, which is exact
    when the obstacle lies on a coordinate axis from the goal, as in the
    shipped variants.  The loop costs time per plan, which pays while one
    observation's prior has a few plans.
    """
    horizon, gain, frac = params.horizon, params.gain, params.ctrl_frac
    goal = obs.goal.tolist()
    lanes = [None] * len(sides)
    if obs.obstacle is not None and any(side != 0.0 for side in sides):
        axis = obs.goal - obs.obstacle.center
        norm = np.linalg.norm(axis)
        if norm > 1e-12:
            axis = axis / norm
            offset = np.asarray(sides, dtype=float)[:, None] * (
                obs.obstacle.radius + params.clearance
            ) * _perp(axis)
            lanes = (obs.goal + offset).tolist()
            (c0, c1), (a0, a1) = obs.obstacle.center.tolist(), axis.tolist()
    flat = []
    for lane in lanes:
        x = obs.position.tolist()
        for _ in range(horizon):
            target = goal
            if lane is not None and (x[0] - c0) * a0 + (x[1] - c1) * a1 < 0.0:
                target = lane
            moved = []
            for t, xi in zip(target, x):
                a = frac * (t - xi) / gain
                # np.minimum(np.maximum(a, -1), 1): a NaN passes through.
                if a < -1.0:
                    a = -1.0
                elif a > 1.0:
                    a = 1.0
                flat.append(a)
                moved.append(xi + gain * a)
            x = moved
    return np.array(flat).reshape(len(lanes), horizon, obs.position.shape[0])


def conditional_field(obs: Observation, params: OraclePolicyParams) -> GaussianMixtureFieldParams:
    """Observation-conditioned mixture prior over clean chunks.

    Mode means are controller plans toward the goal (obstacle-skirting on
    opposite sides for modes = 2), entries clipped to [-1, 1]; all modes get
    equal weight and scale sigma_cond, from ``params.components``.
    """
    if params.modes == 2 and obs.obstacle is not None:
        if obs.position.shape != (2,):
            raise StructuralError(
                f"obstacle-skirting modes are planned in 2-D, got D = {obs.position.shape[0]}"
            )
        means = _controller_plans(obs, params, [1.0, -1.0])
    else:
        means = _controller_plans(obs, params, [0.0] * params.modes)
    return GaussianMixtureFieldParams.from_components(params.components, means)


class ConditionalGMField(GaussianMixtureField):
    """Mixture velocity field conditioned on the observation through the oracle prior.

    Recomputes the mixture parameters when the observation object changes;
    within one denoising run the same frozen Observation is passed at every
    step, so the one-slot cache makes conditioning cost per run, not per step.
    The weights and scales are validated and derived once, with ``params``,
    so a new observation costs its plans and a check of its means.
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


@dataclass(frozen=True)
class TaskVariant:
    """One benchmark task family; plays the role of a suite in aggregation."""

    name: str
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
    episode while the previous chunk's tail still carries it.
    """
    return [
        TaskVariant(name="unimodal", modes=1),
        TaskVariant(name="bimodal", modes=2, obstacle_center=(0.7, 0.0), obstacle_radius=0.09),
    ]


def make_env(variant: TaskVariant, rng: Optional[np.random.Generator], **env) -> PointMassEnv:
    """The variant's environment; ``env`` holds further PointMassEnv settings."""
    obstacle = None
    if variant.obstacle_center is not None:
        obstacle = Obstacle(
            center=np.asarray(variant.obstacle_center, dtype=float),
            radius=variant.obstacle_radius,
        )
    return PointMassEnv(variant.start, variant.goal, obstacle, rng=rng, **env)


def make_field(variant: TaskVariant, **oracle) -> ConditionalGMField:
    """The variant's conditional field; ``oracle`` holds further OraclePolicyParams fields."""
    return ConditionalGMField(OraclePolicyParams(modes=variant.modes, **oracle))
