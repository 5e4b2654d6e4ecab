"""The benchmark's workloads.

Each workload is a single-process closed loop with one client: the next
request starts only when the previous one has returned.  A workload is built
from its seed alone, set up, and then run in passes; every pass replays the
same inputs, so passes are directly comparable and each one re-checks the
outputs of the first.  Every workload ends its pass by pushing its result
rows through ``write_rows`` -> ``read_rows`` -> ``summarize``, the path the
``sweep`` and ``summarize`` commands take, and the potr quality guards come
from that summary.

A ``sweep-paired`` workload (``run_sweep`` on the paper's protocol) was tried
and left out: its timed calls last 50-300 ms, too long for the host-speed
gate to find calls a busy host did not slow, and its figures spread by
15-35% between runs on the reference host.

Timed samples are judged by host-speed probes (see ``gate.py``) and
timings are aggregated over the samples a busy host did not slow.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from checks import Ledger, check_summary
from gate import HostGate

SIZES = {
    "full": {
        "ticks": 500,             # control-loop: ticks per pass
        "warmup_ticks": 3,        # control-loop: ticks of the throwaway set-up episode
        "rows_per_group": 125,    # summarize-rows: 4 x 6 x 2 x 125 = 6,000 rows
        "pipeline_rows": 2500,    # rows pushed through the rows pipeline per pass
    },
    "tiny": {
        "ticks": 40,
        "warmup_ticks": 1,
        "rows_per_group": 5,
        "pipeline_rows": 100,
    },
}

def _finite_row(row) -> bool:
    return all(math.isfinite(v) for v in (row.l2_mean, row.l2_max, row.max_acc, row.max_jerk))


class Workload:
    """One workload: ``setup`` may be repeated; ``run_pass`` returns a pass record."""

    name = ""

    def __init__(self, gf, seed: int, size: dict, workdir: Path, ledger: Ledger):
        self.gf = gf
        self.seed = int(seed)
        self.size = size
        self.workdir = workdir
        self.ledger = ledger
        self.gate = HostGate()
        self._first = None  # outputs of the first pass, replayed by every later pass
        self._summary_checked = False

    def rows_pipeline(self, rows, weights: dict) -> dict:
        """write_rows -> read_rows -> summarize, repeated up to ``pipeline_rows`` rows.

        Each stage of each repetition is one timed sample between two probes.
        """
        h = self.gf.harness
        path = self.workdir / f"{self.name}-rows.csv"
        reps = max(1, math.ceil(self.size["pipeline_rows"] / len(rows)))
        clock = time.perf_counter_ns
        stages = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # potr-only rows have no rtc block
            for _ in range(reps):
                t0 = clock()
                h.write_rows(rows, path)
                t1 = clock()
                back = h.read_rows(path)
                t2 = clock()
                summary = h.summarize(back, weights)
                stages.append(((t0, t1), (t1, t2), (t2, clock())))
        path.unlink()
        self.ledger.check(back == sorted(rows, key=h.ResultRow.sort_key),
                          f"{self.name}: rows changed through write_rows/read_rows")
        if not self._summary_checked:
            check_summary(summary, rows, weights, self.ledger, f"{self.name} summarize")
            self._summary_checked = True
        return {"rows": len(rows), "stages": stages, "summary": summary}

    def stage_medians(self, passes) -> np.ndarray:
        """Quiet median seconds of the write, read and summarize stages."""
        stages = np.concatenate([p["stages"] for p in passes])  # (reps, 3, 2)
        return np.array([np.median(self.gate.quiet(stages[:, k])) * 1e-9 for k in range(3)])

    def rows_per_s(self, passes) -> float:
        return float(passes[0]["rows"] / self.stage_medians(passes).sum())

    def _same_as_first(self, outputs, equal, what: str) -> None:
        if self._first is None:
            self._first = outputs
        else:
            self.ledger.check(equal(self._first, outputs), f"{self.name}: {what} differ between passes")

    def final_checks(self) -> None:
        """Checks that run once, after the measured passes."""

    def end_to_end(self, passes: list[dict]) -> dict:
        """Workload-specific end-to-end metrics from the untraced passes."""
        raise NotImplementedError


def _quality(passes) -> dict:
    potr = passes[0]["summary"]["methods"]["potr"]
    return {"potr_l2_mean": potr["l2_mean"], "potr_max_jerk": potr["max_jerk"],
            "potr_success": potr["success"]}


class ControlLoop(Workload):
    """One potr controller on the bimodal task at delay 1, timed tick by tick."""

    name = "control-loop"
    delay = 1
    method = "potr"
    variant = "bimodal"

    def setup(self) -> None:
        self.config = self.gf.harness.ExperimentConfig()
        self.weights = {self.variant: dict(self.config.variants)[self.variant]}
        self.task = dict((v.name, v) for v, _ in self.config.variant_objects())[self.variant]
        self.guidance = self.config.guidance_for(self.method)
        self.field = self._make_field()
        env, executor = self._make_episode((self.seed, 1, 0), self.field)
        executor.reset()
        for _ in range(self.size["warmup_ticks"]):
            if env.done:
                break
            executor.step()

    def _make_field(self):
        c = self.config
        return self.gf.envs.make_field(
            self.task, horizon=c.horizon, sigma_cond=c.sigma_cond, gain=c.dynamics_gain,
            ctrl_frac=c.ctrl_frac, clearance=c.clearance,
        )

    def _make_episode(self, entropy, field):
        c = self.config
        env_seed, noise_seed = np.random.SeedSequence(entropy=entropy).spawn(2)
        env = self.gf.envs.make_env(
            self.task, rng=np.random.default_rng(env_seed), max_steps=c.max_steps,
            goal_tolerance=c.goal_tolerance, dynamics_gain=c.dynamics_gain,
            action_noise_std=c.action_noise_std,
        )
        executor = self.gf.chunking.ChunkExecutor(
            env, field, self.guidance, delay=self.delay, horizon=c.horizon,
            mask_decay=c.mask_decay, rng=np.random.default_rng(noise_seed),
        )
        return env, executor

    def run_pass(self) -> dict:
        gf, ledger = self.gf, self.ledger
        clock = time.perf_counter_ns
        ticks_left = self.size["ticks"]
        tick_spans, reset_spans = [], []
        overruns = 0
        rows, actions = [], []
        episode = 0
        while ticks_left > 0:
            env, executor = self._make_episode((self.seed, 0, episode), self.field)
            t0 = clock()
            executor.reset()
            reset_spans.append((t0, clock()))
            executed, events, broken, finite = [], [], False, True
            while not env.done and ticks_left > 0:
                ticks_left -= 1
                t0 = clock()
                try:
                    action, event = executor.step()
                except Exception as err:  # a raised error fails the tick; the loop goes on
                    overruns += isinstance(err, gf.errors.ScheduleOverrun)
                    broken = not ledger.check(False, f"{self.name}: episode {episode}: {err!r}")
                    break
                tick_spans.append((t0, clock()))
                chunk = executor.state.active_chunk
                finite = finite and bool(np.isfinite(chunk).all() and np.isfinite(action).all())
                executed.append(action)
                if event is not None:
                    events.append(event)
            actions.append(np.array(executed))
            if env.done and not broken:
                trace = gf.chunking.EpisodeTrace(
                    actions=np.array(executed), events=events, success=bool(env.success),
                    env_steps=env.step_count,
                )
                m = gf.metrics.episode_metrics(trace)
                row = gf.harness.ResultRow(
                    method=self.method, delay=self.delay, suite=self.variant, seed=episode,
                    success=m.success, env_steps=m.env_steps, l2_mean=m.l2_mean,
                    l2_max=m.l2_max, max_acc=m.max_acc, max_jerk=m.max_jerk,
                )
                finite = finite and _finite_row(row)
                rows.append(row)
            if not broken:  # one check per episode: its chunks, actions and metrics
                ledger.check(finite, f"{self.name}: non-finite chunk or metric in episode {episode}")
            episode += 1
        self._same_as_first(
            actions,
            lambda a, b: len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b)),
            "executed actions",
        )
        return {
            "work_s": sum(b - a for a, b in tick_spans + reset_spans) * 1e-9,
            "tick_spans": tick_spans,
            "reset_spans": reset_spans,
            "episodes": len(rows),
            "overruns": overruns,
            **self.rows_pipeline(rows, self.weights),
        }

    def final_checks(self) -> None:
        """Replaying the first episode from fresh objects must reproduce its actions,
        and pc at sigma_d = 1 must reproduce rtc bit for bit on one sweep episode."""
        recorded = self._first[0]
        env, executor = self._make_episode((self.seed, 0, 0), self._make_field())
        executor.reset()
        replay = []
        while not env.done and len(replay) < len(recorded):
            replay.append(executor.step()[0])
        self.ledger.check(np.array_equal(np.array(replay), recorded),
                          f"{self.name}: replay of episode 0 differs")
        h = self.gf.harness
        unit = replace(self.config, sigma_d=1.0, seed_base=self.seed)
        v_index = [name for name, _ in unit.variants].index(self.variant)
        _, rtc = h.run_cell_episode(unit, "rtc", 3, self.task, v_index, 0)
        _, pc = h.run_cell_episode(unit, "pc", 3, self.task, v_index, 0)
        self.ledger.check(np.array_equal(rtc.actions, pc.actions),
                          f"{self.name}: pc(sigma_d=1) differs from rtc")

    def per_request_us(self, passes, key) -> np.ndarray:
        """Quiet latency in us of each request (tick or reset) of a pass.

        Every pass replays the same requests, so request i of each pass is the
        same work; its latency is the median of its repeats the gate keeps.
        Requests with no kept repeat are left out.
        """
        same = [p[key] for p in passes if len(p[key]) == len(passes[0][key])]
        durations, keep = self.gate.kept(np.concatenate(same))
        repeats = np.where(keep, durations, np.nan).reshape(len(same), -1)
        return np.nanmedian(repeats[:, keep.reshape(len(same), -1).any(axis=0)], axis=0) * 1e-3

    def end_to_end(self, passes) -> dict:
        ticks, resets = self.per_request_us(passes, "tick_spans"), self.per_request_us(passes, "reset_spans")
        p50, p99 = np.percentile(ticks, [50, 99])
        first = passes[0]
        episode_us = (len(first["tick_spans"]) * ticks.mean()
                      + len(first["reset_spans"]) * resets.mean()) / first["episodes"]
        return {
            "episodes_per_s": float(1e6 / episode_us),
            "tick_p50_us": float(p50),
            "tick_p99_us": float(p99),
            "rows_per_s": self.rows_per_s(passes),
            **_quality(passes),
        }


class SummarizeRows(Workload):
    """Harness analysis and CSV I/O alone, on a large synthetic row set."""

    name = "summarize-rows"
    methods = ("naive", "pc", "potr", "rtc")
    # Typical boundary-jump scale per method, so method blocks differ.
    l2_scale = {"naive": 0.9, "pc": 0.5, "potr": 0.45, "rtc": 0.6}
    suites = {"bimodal": 9, "unimodal": 1}
    delays = range(6)

    def __init__(self, *args):
        super().__init__(*args)
        self.columns = self.draw_columns(self.seed, self.size["rows_per_group"])

    def setup(self) -> None:
        """Build the ``ResultRow`` objects: the only set-up the package takes part in."""
        self.rows = self.make_rows(self.columns)
        self.size = {**self.size, "pipeline_rows": len(self.rows)}

    def draw_columns(self, seed: int, per_group: int) -> list:
        """The seeded inputs: one (method, delay, suite, column arrays) per group."""
        rng = np.random.default_rng(seed)
        groups = []
        for method in self.methods:
            for delay in self.delays:
                for suite in sorted(self.suites):
                    success = rng.random(per_group) < 0.95
                    steps = np.where(success, rng.integers(20, 60, per_group), 60)
                    l2_mean = self.l2_scale[method] * (1 + 0.1 * delay) * rng.lognormal(0, 0.3, per_group)
                    l2_max = l2_mean * (1 + rng.exponential(0.5, per_group))
                    acc = rng.gamma(4.0, 0.25, per_group)
                    jerk = acc * (1.5 + rng.exponential(0.5, per_group))
                    groups.append((method, delay, suite, list(zip(
                        success.tolist(), steps.tolist(), l2_mean.tolist(), l2_max.tolist(),
                        acc.tolist(), jerk.tolist()))))
        return groups

    def make_rows(self, columns) -> list:
        ResultRow = self.gf.harness.ResultRow
        return [
            ResultRow(method=method, delay=delay, suite=suite, seed=i, success=success,
                      env_steps=steps, l2_mean=l2_mean, l2_max=l2_max, max_acc=acc, max_jerk=jerk)
            for method, delay, suite, values in columns
            for i, (success, steps, l2_mean, l2_max, acc, jerk) in enumerate(values)
        ]

    def run_pass(self) -> dict:
        pipe = self.rows_pipeline(self.rows, self.suites)
        self._same_as_first(pipe["summary"], lambda a, b: a == b, "summaries")
        (start, _), _, (_, end) = pipe["stages"][0]
        return {"work_s": (end - start) * 1e-9, "overruns": 0, **pipe}

    def end_to_end(self, passes) -> dict:
        # One pass is one request, judged by the gate as a whole.
        latency_us = self.gate.quiet([(p["stages"][0][0][0], p["stages"][0][2][1])
                                      for p in passes]) * 1e-3
        p50, p99 = np.percentile(latency_us, [50, 99])
        return {
            "episodes_per_s": float(passes[0]["rows"] / self.stage_medians(passes)[2]),
            "tick_p50_us": float(p50),
            "tick_p99_us": float(p99),
            "rows_per_s": self.rows_per_s(passes),
            **_quality(passes),
        }


WORKLOADS = {w.name: w for w in (ControlLoop, SummarizeRows)}
