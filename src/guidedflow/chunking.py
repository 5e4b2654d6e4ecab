"""Asynchronous action-chunk execution with simulated inference delay.

The controller executes one action per environment step from the active
chunk.  Every ``replan_every`` steps (s = max(d, 1) under the benchmark
protocol) it issues a regeneration request, freezing the observation and the
initial noise at issue time; the resulting chunk arrives d steps later,
conditioned on a d-step-stale observation, and execution resumes at row d of
the new chunk (the rows consumed while inference was in flight).

A schedule runs only if d <= s <= H - d (so d <= H / 2 under s = max(d, 1)),
and then is a function of the step t alone: a request goes out when
t % s == 0 and swaps in at t + d; step t executes row t of the first chunk
for t < d, else row d + (t - d) % s of the active one.

The inpainting target for a request is the tail of the chunk active at issue
time, shifted by s: Y_i = prev[s + i] for i < H - s and zero past the
overlap.  The soft mask is 1 over the rows guaranteed to execute before the
new chunk can arrive, decays exponentially over the remaining overlap, and
is 0 outside it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

import numpy as np

from .errors import StructuralError
from .flow import VelocityField
from .guidance import GuidanceConfig, GuidanceMethod, InpaintTarget, guided_denoise

__all__ = [
    "BoundaryEvent",
    "ChunkScheduleState",
    "EpisodeTrace",
    "ChunkExecutor",
    "build_inpaint_target",
    "build_soft_mask",
    "check_schedule",
    "DEFAULT_MASK_DECAY",
]

# Default decay of the soft-mask tail.  Short on purpose: with a synthetic
# prior whose rows are independent, long soft tails mostly ask the denoiser
# to replicate the previous chunk's realized noise, which inflates the
# correction and degrades boundary continuity instead of improving it.
DEFAULT_MASK_DECAY = 0.15


def check_schedule(horizon: int, delay: int, replan_every: Optional[int] = None) -> int:
    """The replan step s, max(d, 1) unless given; StructuralError unless d <= s <= H - d."""
    d = int(delay)
    s = max(d, 1) if replan_every is None else int(replan_every)
    if not (0 <= d <= s and 1 <= s <= horizon - d):
        raise StructuralError(f"schedule d={d}, s={s}, H={horizon} needs 1 <= s, d <= s <= H - d")
    return s


def build_inpaint_target(prev_chunk: np.ndarray, s: int) -> np.ndarray:
    """Residual-action target: Y_i = prev[s + i] for i < H - s, zeros after."""
    prev = np.asarray(prev_chunk, dtype=float)
    horizon = prev.shape[0]
    if not (1 <= s <= horizon):
        raise StructuralError(f"replan step s={s} must lie in [1, H={horizon}]")
    target = np.zeros_like(prev)
    target[: horizon - s] = prev[s:]
    return target


def build_soft_mask(horizon: int, d: int, s: int, decay: float = DEFAULT_MASK_DECAY) -> np.ndarray:
    """Soft mask over the H rows of a regeneration request.

    Rows that will certainly execute before the new chunk arrives (i < min(d, L),
    L = H - s the overlap length) are hard-frozen at 1; rows up to the end of
    the overlap decay as decay^(i - d + 1); rows past the overlap are 0.
    """
    if not (0 <= d < horizon):
        raise StructuralError(f"delay d={d} must lie in [0, H={horizon})")
    if not (1 <= s <= horizon):
        raise StructuralError(f"replan step s={s} must lie in [1, H={horizon}]")
    if not (0.0 < decay <= 1.0):
        raise StructuralError(f"decay must lie in (0, 1], got {decay}")
    overlap = horizon - s
    mask = np.zeros(horizon, dtype=float)
    hard = min(d, overlap)
    mask[:hard] = 1.0
    for i in range(hard, overlap):
        mask[i] = decay ** (i - d + 1)
    return mask


@dataclass
class BoundaryEvent:
    """Executed-action discontinuity at a chunk swap."""

    env_step: int
    last_action_old: np.ndarray
    first_action_new: np.ndarray


@dataclass
class ChunkScheduleState:
    """The chunk being executed, and the request in flight, if any: its
    observation, noise and inpainting target, all frozen at issue time."""

    active_chunk: np.ndarray
    pending: Optional[tuple[Any, np.ndarray, InpaintTarget]] = None


@dataclass
class EpisodeTrace:
    """Executed actions and boundary events of one closed-loop episode."""

    actions: np.ndarray  # (T, D), clipped as executed
    events: list[BoundaryEvent]
    success: bool
    env_steps: int


class ChunkExecutor:
    """Closed-loop executor: one environment, one policy field, one method.

    Single-threaded per episode (stateful stepping contract); distinct
    episodes run concurrently without shared state.  With fixed rng seeds the
    executed action sequence is reproducible bit-for-bit.
    """

    def __init__(
        self,
        env,
        field: VelocityField,
        config: GuidanceConfig,
        delay: int,
        horizon: int,
        replan_every: Optional[int] = None,
        mask_decay: float = DEFAULT_MASK_DECAY,
        rng: Optional[np.random.Generator] = None,
    ):
        self.env = env
        self.field = field
        self.config = config
        self.delay = int(delay)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.horizon = int(horizon)
        self.replan_every = check_schedule(self.horizon, self.delay, replan_every)
        # Every request shares this read-only soft mask; building it checks the decay.
        self.mask = build_soft_mask(self.horizon, self.delay, self.replan_every, mask_decay)
        self.mask.flags.writeable = False
        self.state: Optional[ChunkScheduleState] = None
        self._actions: list[np.ndarray] = []

    def reset(self) -> None:
        """Generate the initial chunk (unguided; there is nothing to inpaint yet)."""
        obs = self.env.observe()
        noise = self.rng.standard_normal((self.horizon, self.env.action_dim))
        first = guided_denoise(
            noise, obs, self.field, None, replace(self.config, method=GuidanceMethod.NAIVE)
        )
        self.state = ChunkScheduleState(active_chunk=first)
        self._actions = []

    def step(self) -> tuple[np.ndarray, Optional[BoundaryEvent]]:
        """Execute one environment step; returns (action, boundary event or None)."""
        st = self.state
        if st is None:
            raise StructuralError("call reset() before step()")
        t, d, s = self.env.step_count, self.delay, self.replan_every
        # The request issued at t - d arrives now; when d = s it is swapped in
        # before the next one is issued, which inpaints against it.
        arrives = t >= d and (t - d) % s == 0
        event = self._swap(t) if arrives and d > 0 else None
        if t % s == 0:
            self._issue()
            if d == 0:
                event = self._swap(t)
        # np.clip's bits, NaN and -0.0 included, for about half its dispatch cost
        action = np.minimum(np.maximum(st.active_chunk[t if t < d else d + (t - d) % s], -1.0), 1.0)
        self.env.step(action)
        self._actions.append(action)
        return action, event

    def run(self) -> EpisodeTrace:
        """Step until the environment reports done."""
        self.reset()
        events: list[BoundaryEvent] = []
        while not self.env.done:
            _, event = self.step()
            if event is not None:
                events.append(event)
        actions = np.array(self._actions).reshape(-1, self.env.action_dim)
        return EpisodeTrace(actions, events, bool(self.env.success), self.env.step_count)

    def _issue(self) -> None:
        obs = self.env.observe()
        noise = self.rng.standard_normal((self.horizon, self.env.action_dim))
        target = build_inpaint_target(self.state.active_chunk, self.replan_every)
        self.state.pending = (obs, noise, InpaintTarget(target, self.mask))

    def _swap(self, t: int) -> Optional[BoundaryEvent]:
        st = self.state
        obs, noise, inpaint = st.pending
        st.active_chunk = guided_denoise(noise, obs, self.field, inpaint, self.config)
        st.pending = None
        if not self._actions:
            return None
        return BoundaryEvent(
            env_step=t,
            last_action_old=self._actions[-1],
            first_action_new=np.minimum(np.maximum(st.active_chunk[self.delay], -1.0), 1.0),
        )
