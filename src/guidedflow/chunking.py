"""Asynchronous action-chunk execution with simulated inference delay.

The controller executes one action per environment step from the active
chunk.  Every ``replan_every`` steps (s = max(d, 1) under the benchmark
protocol) it issues a regeneration request, freezing the observation and the
initial noise at issue time; the resulting chunk arrives d steps later,
conditioned on a d-step-stale observation, and execution resumes at row d of
the new chunk (the rows consumed while inference was in flight).

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

from .errors import ScheduleOverrun, StructuralError
from .flow import VelocityField
from .guidance import GuidanceConfig, GuidanceMethod, InpaintTarget, guided_denoise

__all__ = [
    "BoundaryEvent",
    "PendingRequest",
    "ChunkScheduleState",
    "EpisodeTrace",
    "ChunkExecutor",
    "build_inpaint_target",
    "build_soft_mask",
    "DEFAULT_MASK_DECAY",
]

# Default decay of the soft-mask tail.  Short on purpose: with a synthetic
# prior whose rows are independent, long soft tails mostly ask the denoiser
# to replicate the previous chunk's realized noise, which inflates the
# correction and degrades boundary continuity instead of improving it.
DEFAULT_MASK_DECAY = 0.15


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
class PendingRequest:
    """A regeneration request in flight: everything frozen at issue time."""

    issued_at: int
    observation: Any
    noise: np.ndarray
    inpaint: InpaintTarget


@dataclass
class ChunkScheduleState:
    """Rolling execution state of the chunk schedule."""

    active_chunk: np.ndarray
    exec_index: int
    pending: Optional[PendingRequest]


@dataclass
class EpisodeTrace:
    """Executed actions and boundary events of one closed-loop episode."""

    actions: np.ndarray  # (T, D), clipped as executed
    events: list[BoundaryEvent]
    success: bool
    env_steps: int
    schedule_overrun: bool = False


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
        self.replan_every = (
            max(self.delay, 1) if replan_every is None else int(replan_every)
        )
        # Every request shares this read-only soft mask; building it checks d and s.
        self.mask = build_soft_mask(self.horizon, self.delay, self.replan_every, mask_decay)
        self.mask.flags.writeable = False
        self.state: Optional[ChunkScheduleState] = None
        self._last_action: Optional[np.ndarray] = None
        self._actions: list[np.ndarray] = []

    def reset(self) -> None:
        """Generate the initial chunk (unguided; there is nothing to inpaint yet)."""
        obs = self.env.observe()
        noise = self.rng.standard_normal((self.horizon, self.env.action_dim))
        first = guided_denoise(
            noise, obs, self.field, None, replace(self.config, method=GuidanceMethod.NAIVE)
        )
        self.state = ChunkScheduleState(active_chunk=first, exec_index=0, pending=None)
        self._last_action = None
        self._actions = []

    def step(self) -> tuple[np.ndarray, Optional[BoundaryEvent]]:
        """Execute one environment step; returns (action, boundary event or None)."""
        st = self.state
        if st is None:
            raise StructuralError("call reset() before step()")
        t = self.env.step_count
        event = None
        if st.pending is not None and t - st.pending.issued_at >= self.delay:
            event = self._swap(t)
        # A request is issued only when none is in flight; under s = max(d, 1)
        # the previous one has always just arrived.
        if t % self.replan_every == 0 and st.pending is None:
            self._issue(t)
            if self.delay == 0:
                event = self._swap(t)
        if st.exec_index >= self.horizon:
            raise ScheduleOverrun(
                f"chunk exhausted at env step {t} before the pending chunk arrived "
                f"(d={self.delay}, s={self.replan_every}, H={self.horizon})"
            )
        action = np.clip(st.active_chunk[st.exec_index], -1.0, 1.0)
        self.env.step(action)
        st.exec_index += 1
        self._last_action = action
        self._actions.append(action)
        return action, event

    def run(self) -> EpisodeTrace:
        """Step until the environment reports done; overruns flag a failed episode."""
        self.reset()
        events: list[BoundaryEvent] = []
        overrun = False
        while not self.env.done:
            try:
                _, event = self.step()
            except ScheduleOverrun:
                overrun = True
                break
            if event is not None:
                events.append(event)
        actions = (
            np.array(self._actions) if self._actions else np.zeros((0, self.env.action_dim))
        )
        return EpisodeTrace(
            actions=actions,
            events=events,
            success=bool(self.env.success) and not overrun,
            env_steps=self.env.step_count,
            schedule_overrun=overrun,
        )

    def _issue(self, t: int) -> None:
        obs = self.env.observe()
        noise = self.rng.standard_normal((self.horizon, self.env.action_dim))
        target = build_inpaint_target(self.state.active_chunk, self.replan_every)
        self.state.pending = PendingRequest(
            issued_at=t, observation=obs, noise=noise, inpaint=InpaintTarget(target, self.mask)
        )

    def _swap(self, t: int) -> Optional[BoundaryEvent]:
        st = self.state
        req = st.pending
        chunk = guided_denoise(req.noise, req.observation, self.field, req.inpaint, self.config)
        st.active_chunk = chunk
        st.exec_index = self.delay
        st.pending = None
        if self._last_action is None:
            return None
        return BoundaryEvent(
            env_step=t,
            last_action_old=self._last_action,
            first_action_new=np.clip(chunk[st.exec_index], -1.0, 1.0),
        )
