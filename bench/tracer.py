"""Span tracer for the traced benchmark run.

The tracer wraps public functions of ``guidedflow`` at the names their
calling modules look them up (``guidedflow.envs.gm_velocity`` rather than
``guidedflow.flow.gm_velocity``, because ``ConditionalGMField.evaluate``
resolves it through ``envs``).  Nothing inside ``src/`` is edited: wrappers
are installed with ``setattr`` and removed by :meth:`Tracer.uninstall`.

Each span has a name, a start, an end, a parent (the innermost open span)
and the ids of the episode and tick it ran in.  Spans stay in memory, in
typed columns, until :meth:`Tracer.save` writes them out.  Times are integer
nanoseconds, so self times (duration minus the time child spans cover) are
exact.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np

# (module, owner attribute or None, attribute, span name).  An owner names a
# class whose method is wrapped.  Targets whose attribute does not exist are
# skipped, so the tracer keeps working when a later version of the package
# folds a function away; its metrics then read 0.
SPAN_TARGETS = (
    ("envs", None, "gm_velocity", "flow.velocity"),
    ("envs", None, "gm_velocity_vjp", "flow.vjp"),
    ("chunking", None, "guided_denoise", "guidance.denoise"),
    ("guidance", None, "pseudoinverse_correction", "guidance.correction"),
    ("guidance", None, "otr_project", "guidance.otr"),
    ("envs", None, "conditional_field", "envs.conditional_field"),
    ("envs", "PointMassEnv", "step", "envs.env_step"),
    ("chunking", "ChunkExecutor", "step", "chunking.step"),
    ("chunking", "ChunkExecutor", "reset", "chunking.reset"),
    ("metrics", None, "episode_metrics", "metrics.episode_metrics"),
    ("harness", None, "summarize", "harness.summarize"),
    ("harness", None, "write_rows", "harness.write_rows"),
    ("harness", None, "read_rows", "harness.read_rows"),
)

# Calls that are only counted: they are too frequent and too cheap for a span.
COUNT_TARGETS = (
    ("flow", None, "as_chunk", "flow.as_chunk"),
    ("guidance", None, "as_chunk", "flow.as_chunk"),
    ("envs", "ConditionalGMField", "field_params", "envs.field_params"),
)

# A projection "changed g" when it moved some entry by more than this share of
# g's largest entry; smaller differences are the roundoff of g_par + g_perp.
OTR_CHANGE_RTOL = 1e-9


class Tracer:
    """Installs span wrappers on a ``guidedflow`` package and records spans."""

    def __init__(self, gf):
        self.gf = gf
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.episode = array("i")
        self.tick = array("i")
        self.counts: dict[str, int] = {}
        self.otr_changed = 0
        self._stack: list[int] = []
        self._episode = -1
        self._tick = -1
        self._installed: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _owner(self, module: str, owner):
        obj = getattr(self.gf, module)
        return getattr(obj, owner) if owner is not None else obj

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for module, owner, attr, name in SPAN_TARGETS:
            self._wrap(self._owner(module, owner), attr, self._span_wrapper, name)
        for module, owner, attr, name in COUNT_TARGETS:
            self._wrap(self._owner(module, owner), attr, self._count_wrapper, name)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._installed):
            setattr(obj, attr, original)
        self._installed = []

    def _wrap(self, obj, attr: str, make, name: str) -> None:
        original = obj.__dict__.get(attr) if isinstance(obj, type) else getattr(obj, attr, None)
        if original is None:
            return
        self._installed.append((obj, attr, original))
        setattr(obj, attr, functools.wraps(original)(make(original, name)))

    # -- recording --------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, fn, name: str):
        nid = self._id(name)
        is_reset = name == "chunking.reset"
        is_tick = name == "chunking.step"
        is_otr = name == "guidance.otr"
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if is_reset:
                self._episode += 1
            elif is_tick:
                self._tick += 1
            idx = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.episode.append(self._episode)
            self.tick.append(self._tick)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if is_otr:
                self._observe_otr(args[0], out)
            return out

        return wrapper

    def _count_wrapper(self, fn, name: str):
        self.counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe_otr(self, g, out) -> None:
        g = np.asarray(g, dtype=float)
        scale = float(np.max(np.abs(g))) if g.size else 0.0
        if g.size and float(np.max(np.abs(np.asarray(out) - g))) > OTR_CHANGE_RTOL * scale:
            self.otr_changed += 1

    # -- analysis ---------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """Spans as numpy columns, with ``dur`` and ``self`` in nanoseconds."""
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64),
            "start": start,
            "end": end,
            "parent": parent,
            "episode": np.frombuffer(self.episode, dtype=np.int32).astype(np.int64),
            "tick": np.frombuffer(self.tick, dtype=np.int32).astype(np.int64),
            "dur": dur,
            "self": dur - child,
        }

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self nanoseconds, and calls per parent name."""
        cols = self.columns()
        out = {}
        names = np.array(self.names, dtype=object)
        for nid, name in enumerate(self.names):
            sel = cols["name_id"] == nid
            parents = cols["parent"][sel]
            parent_names = names[cols["name_id"][parents[parents >= 0]]]
            out[name] = {
                "calls": int(np.count_nonzero(sel)),
                "total_ns": int(cols["dur"][sel].sum()),
                "self_ns": int(cols["self"][sel].sum()),
                "by_parent": {str(p): int(n) for p, n in zip(*np.unique(parent_names, return_counts=True))}
                if parent_names.size
                else {},
            }
        return out

    def save(self, path: Path) -> None:
        cols = self.columns()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names), **{k: cols[k] for k in (
                "name_id", "start", "end", "parent", "episode", "tick")})
