"""Self-contained oracle and property checks, runnable from the CLI.

Each check recomputes its expected values from an independent route (hand
arithmetic, closed-form limits, Monte Carlo estimation, finite differences,
or brute-force sampling) and compares the library against it.  The pytest
suite drives the same functions; `guidedflow verify` exposes them to
installed users without requiring the test tree.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .flow import (
    GaussianMixtureField,
    GaussianMixtureFieldParams,
    VelocityField,
    gm_velocity,
)
from .guidance import GuidanceConfig, guided_denoise, otr_project, pc_weight
from .harness import ExperimentConfig, ResultRow, run_cell_episode, summarize

__all__ = ["CheckResult", "run_all", "ALL_CHECKS"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0  # wall time of the check, set by run_all


# Hand-evaluated schedule values at key timesteps (sigma_d = 0.4, beta = 10):
# e.g. at tau = 0.5 the unit-prior weight is (0.25 + 0.25) / 0.25 = 2 and the
# prior-corrected weight is (0.25 + 0.16 * 0.25) / (0.16 * 0.25) = 7.25.
WEIGHT_TABLE = [
    # tau, w_unit_prior, w_prior_corrected (clipped), ratio
    (0.1, 9.11, 10.00, 1.10),
    (0.3, 2.76, 10.00, 3.62),
    (0.5, 2.00, 7.25, 3.63),
    (0.7, 2.76, 5.01, 1.82),
    (0.9, 9.11, 9.69, 1.06),
]

# Five-suite cross-check fixture: per-suite success means with task counts
# (10, 10, 10, 10, 90) and the episode-weighted totals they must reproduce.
AGGREGATION_FIXTURE = {
    "weights": [10, 10, 10, 10, 90],
    "naive": ([0.940, 0.900, 0.960, 0.980, 0.298], 0.497),
    "rtc": ([0.900, 0.960, 1.000, 0.980, 0.289], 0.495),
    "potr": ([0.900, 1.000, 1.000, 0.980, 0.320], 0.520),
}
WORST_CASE_FIXTURE = ([5.75, 3.86, 4.72, 4.30, 5.85], 5.85)


def _rtc_closed_form(tau: float, beta: float) -> float:
    """RTC's unit-prior weight min((tau^2 + (1-tau)^2) / (tau (1-tau)), beta), written out."""
    one_m = 1.0 - tau
    return min((tau * tau + one_m * one_m) / (tau * one_m), beta)


def _r_squared(tau: float, sigma_d: float) -> float:
    """PiGDM's posterior variance r^2 = (1-tau)^2 s^2 / ((1-tau)^2 + s^2 tau^2) at s = sigma_d."""
    one_m, s2 = 1.0 - tau, sigma_d * sigma_d
    return one_m * one_m * s2 / (one_m * one_m + s2 * tau * tau)


def check_weight_table() -> CheckResult:
    """Both schedules and their ratio at five taus; rtc as pc at sigma_d = 1 and in closed form."""
    beta, sigma_d = 10.0, 0.4
    worst = 0.0
    for tau, w_rtc_exp, w_pc_exp, ratio_exp in WEIGHT_TABLE:
        w_rtc, w_pc = pc_weight(tau, 1.0, beta), pc_weight(tau, sigma_d, beta)
        errs = [abs(w - w_rtc_exp) for w in (w_rtc, _rtc_closed_form(tau, beta))]
        errs.append(abs(w_pc - w_pc_exp))
        worst = max(worst, *errs)
        if max(errs) > 0.005:
            return CheckResult("weight-table", False, f"weight mismatch at tau={tau}")
        if abs(w_pc / w_rtc - ratio_exp) > 0.01:
            return CheckResult("weight-table", False, f"ratio mismatch at tau={tau}")
    return CheckResult("weight-table", True, f"15 weights + 5 ratios, max weight err {worst:.2e}")


def check_sigma_unity_reduction() -> CheckResult:
    """pc_weight against RTC's closed form and PiGDM's r^2, both written out here.

    At sigma_d = 1, w_pc is RTC's weight and r^2 its unit-prior form; below
    the clip, w_pc = (1-tau) / (tau r^2) for every sigma_d.
    """
    taus = np.arange(1, 1000) / 1000.0
    beta = 10.0
    w_err = max(abs(pc_weight(t, 1.0, beta) - _rtc_closed_form(t, beta)) for t in taus)
    unit_r2 = lambda t: (1 - t) ** 2 / (t**2 + (1 - t) ** 2)
    r_err = max(abs(_r_squared(t, 1.0) - unit_r2(t)) for t in taus)
    rel_err = 0.0
    for s in (0.1, 0.4, 1.0, 2.0):
        for t in taus:
            expected = (1 - t) / (t * _r_squared(t, s))
            rel_err = max(rel_err, abs(pc_weight(t, s, math.inf) - expected) / expected)
    ok = w_err < 1e-12 and r_err < 1e-12 and rel_err < 1e-12
    detail = f"max |dw|={w_err:.2e}, max |dr2|={r_err:.2e}, max w r2 rel err {rel_err:.2e}"
    return CheckResult("sigma-unity-reduction", ok, f"{detail} over 999 taus")


def check_otr_properties(seed: int = 20240, trials: int = 1000) -> CheckResult:
    """Constraint, parallel preservation, idempotence, and optimality of the projection."""
    rng = np.random.default_rng(seed)
    clipped_cases = 0
    optimality_checked = 0
    for _ in range(trials):
        dim = int(rng.integers(1, 65))
        g = rng.standard_normal(dim) * 10.0 ** rng.uniform(-1, 1)
        v = rng.standard_normal(dim) * 10.0 ** rng.uniform(-1, 1)
        rho = 10.0 ** rng.uniform(-1.5, 0.5)
        gf = otr_project(g, v, rho)
        v_norm = np.linalg.norm(v)
        g_par = (np.dot(g, v) / v_norm**2) * v
        if np.linalg.norm(gf - g_par) > rho * v_norm * (1 + 1e-9):
            return CheckResult("otr-properties", False, "trust-region constraint violated")
        gv, gfv = np.dot(g, v), np.dot(gf, v)
        if abs(gfv - gv) > 1e-10 * max(1.0, abs(gv)):
            return CheckResult("otr-properties", False, "parallel component not preserved")
        gff = otr_project(gf, v, rho)
        if np.linalg.norm(gff - gf) > 1e-12 * max(1.0, np.linalg.norm(gf)):
            return CheckResult("otr-properties", False, "projection not idempotent")
        perp_norm = np.linalg.norm(g - g_par)
        if perp_norm > rho * v_norm and optimality_checked < 25:
            # brute-force optimality: g_final is the closest feasible point to
            # the unconstrained correction (the Euclidean projection onto the
            # trust region), so no feasible sample may lie strictly closer.
            optimality_checked += 1
            direction = rng.standard_normal((10_000, dim))
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            radii = rng.uniform(0.0, 1.0, 10_000) ** (1.0 / dim)
            candidates = g_par[None, :] + (rho * v_norm) * radii[:, None] * direction
            dists = np.linalg.norm(candidates - g[None, :], axis=1)
            if dists.min() < np.linalg.norm(gf - g) - 1e-9:
                return CheckResult("otr-properties", False, "projection not optimal in the ball")
        if perp_norm > rho * v_norm:
            clipped_cases += 1
    return CheckResult(
        "otr-properties",
        True,
        f"{trials} triples ok ({clipped_cases} clipped, {optimality_checked} vs 1e4 samples)",
    )


class _NumericOnly(GaussianMixtureField):
    """Same field with the analytic linearization hidden, forcing finite differences."""

    linearize = VelocityField.linearize


def _random_mixture(rng: np.random.Generator) -> GaussianMixtureFieldParams:
    k = int(rng.integers(1, 4))
    h = int(rng.integers(1, 5))
    d = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(k))
    weights = weights / weights.sum()
    return GaussianMixtureFieldParams(
        weights=weights,
        means=rng.standard_normal((k, h, d)),
        scales=rng.uniform(0.3, 1.2, k),
    )


def check_vjp_agreement(seed: int = 7, trials: int = 100) -> CheckResult:
    """Analytic vs finite-difference (default ``linearize``) pullback on random mixtures.

    Compared raw: the correction's shared u + term would dilute the error.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        params = _random_mixture(rng)
        h, d = params.chunk_shape
        x = 1.5 * rng.standard_normal((h, d))
        u = rng.standard_normal((h, d))
        tau = float(rng.uniform(0.05, 0.8))
        analytic, numeric = (
            field.linearize(x, tau)[1](u)
            for field in (GaussianMixtureField(params), _NumericOnly(params))
        )
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-8)
        worst = max(worst, rel)
        if rel > 1e-4:
            return CheckResult("vjp-agreement", False, f"relative error {rel:.2e} > 1e-4")
    return CheckResult("vjp-agreement", True, f"{trials} fields, worst relative err {worst:.2e}")


def check_euler_convergence() -> CheckResult:
    """First-order convergence to the exact flow endpoint mu + s * noise.

    For a single isotropic Gaussian prior the flow map is x(tau) = tau*mu +
    sqrt(tau^2 s^2 + (1-tau)^2) * x0 (verified below by a dense independent
    integration), so the tau = 1 endpoint is mu + s * x0 exactly.
    """
    rng = np.random.default_rng(99)
    mu = rng.standard_normal((3, 2))
    s = 0.5
    x0 = rng.standard_normal((3, 2))
    exact = mu + s * x0
    # Independent dense Euler loop with the scalar closed-form velocity inline.
    x = x0.copy()
    n_dense = 10_000
    for k in range(n_dense):
        tau = k / n_dense
        coef = (tau * s * s - (1 - tau)) / (tau * tau * s * s + (1 - tau) ** 2)
        x = x + (mu + coef * (x - tau * mu)) / n_dense
    dense_err = float(np.linalg.norm(x - exact))
    if dense_err > 1e-3:
        return CheckResult(
            "euler-convergence", False, f"dense oracle disagrees with closed form: {dense_err:.2e}"
        )
    params = GaussianMixtureFieldParams(
        weights=np.array([1.0]), means=mu[None], scales=np.array([s])
    )
    errors = []
    steps = [10, 20, 40, 80]
    field = GaussianMixtureField(params)
    for n in steps:
        naive = GuidanceConfig(method="naive", n_steps=n)
        x1 = guided_denoise(x0, None, field, None, naive)
        errors.append(float(np.linalg.norm(x1 - exact)))
    slope = float(np.polyfit(np.log(steps), np.log(errors), 1)[0])
    ok = -1.3 <= slope <= -0.7
    return CheckResult("euler-convergence", ok, f"log-log slope {slope:.3f} over n={steps}")


def _scalar_params(means, scales, weights) -> GaussianMixtureFieldParams:
    means = np.asarray(means, dtype=float)[:, None, None]
    return GaussianMixtureFieldParams(
        weights=np.asarray(weights, dtype=float), means=means, scales=np.asarray(scales, float)
    )


def _mc_velocity_probe(params, tau, x, rng, n_samples):
    """Kernel-weighted Monte Carlo estimate of E[x1 - eps | x_tau = x].

    Independent of the closed form: draws x1 from the prior, takes the noise
    that puts the path through x, eps = (x - tau x1) / (1 - tau), and weights
    each draw by the path density exp(-eps^2 / 2).  Returns the
    self-normalised mean and its delta-method standard error.
    """
    comps = rng.choice(params.weights.size, size=n_samples, p=params.weights)
    x1 = params.means[comps, 0, 0] + params.scales[comps] * rng.standard_normal(n_samples)
    eps = (x - tau * x1) / (1.0 - tau)
    w = np.exp(-0.5 * eps * eps)
    y = x1 - eps
    w_sum = np.sum(w)
    est = float(np.sum(w * y) / w_sum)
    return est, float(np.sqrt(np.sum((w * (y - est)) ** 2)) / w_sum)


def check_velocity_mc_oracle(
    seed: int = 314, probes_per_field: int = 10, n_samples: int = 200_000
) -> CheckResult:
    """Closed-form mixture velocity vs Monte Carlo conditional expectation."""
    rng = np.random.default_rng(seed)
    fields = {
        "unimodal": _scalar_params([0.4], [0.5], [1.0]),
        "bimodal": _scalar_params([-1.0, 1.0], [0.3, 0.3], [0.5, 0.5]),
    }
    # All probe points come first, so they do not depend on the sample count.
    probes = []
    for name, params in fields.items():
        for _ in range(probes_per_field):
            tau = float(rng.uniform(0.1, 0.9))
            # probe where the marginal has mass: a random path point
            comp = int(rng.choice(params.weights.size, p=params.weights))
            x1 = params.means[comp, 0, 0] + params.scales[comp] * rng.standard_normal()
            x = float(tau * x1 + (1.0 - tau) * rng.standard_normal())
            probes.append((name, params, tau, x))
    worst_z = 0.0
    for name, params, tau, x in probes:
        est, se = _mc_velocity_probe(params, tau, x, rng, n_samples)
        exact = float(gm_velocity(np.array([[x]]), tau, params)[0, 0])
        z = abs(exact - est) / se
        worst_z = max(worst_z, z)
        if z > 3.0:
            detail = f"{name}: tau={tau:.3f} x={x:.3f} off by {z:.2f} standard errors"
            return CheckResult("velocity-mc-oracle", False, detail)
    return CheckResult(
        "velocity-mc-oracle", True, f"{len(probes)} probes within 3 SE (worst {worst_z:.2f})"
    )


def check_aggregation_crosscheck() -> CheckResult:
    """Episode-weighted aggregation and worst-case reduction on the fixture.

    Each method's per-suite success means and each suite's max_jerk are also
    laid out as 500 delay-1 rows per (method, suite) and summarized, so the
    code that writes summary.json must reproduce the same totals.
    """
    weights = AGGREGATION_FIXTURE["weights"]
    jerks, worst = WORST_CASE_FIXTURE
    suites = [f"suite{i}" for i in range(len(weights))]
    methods = ("naive", "rtc", "potr")
    rows = [
        ResultRow(method, 1, suite, i, i < round(500 * value), 30, 0.0, 0.0, 0.0, jerk)
        for method in methods
        for suite, value, jerk in zip(suites, AGGREGATION_FIXTURE[method][0], jerks)
        for i in range(500)
    ]
    summary = summarize(rows, dict(zip(suites, weights)))
    w = np.asarray(weights, dtype=float)
    for method in methods:
        values, expected = AGGREGATION_FIXTURE[method]
        got = float(np.sum(w * np.asarray(values)) / np.sum(w))
        summarized = summary["methods"][method]["success"]
        if max(abs(got - expected), abs(summarized - expected)) > 0.005:
            detail = f"{method}: {got:.4f} directly, {summarized:.4f} by summarize, not {expected}"
            return CheckResult("aggregation-crosscheck", False, detail)
        if abs(summary["worst_case"][method]["worst_max_jerk"] - worst) > 1e-12:
            return CheckResult("aggregation-crosscheck", False, f"{method}: summarize worst case")
    if abs(max(jerks) - worst) > 1e-12:
        return CheckResult("aggregation-crosscheck", False, "worst-case reduction mismatch")
    detail = "3 weighted means + worst case reproduced, directly and by summarize"
    return CheckResult("aggregation-crosscheck", True, detail)


def _equivalence_config(**kwargs) -> ExperimentConfig:
    base = dict(
        methods=("naive", "rtc", "pc", "potr"),
        delays=(0, 3),
        episodes_per_cell=1,
        max_steps=40,
        output_dir="unused",
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


def check_equivalences(seeds: int = 10) -> CheckResult:
    """Degenerate settings must reproduce their parent method bit-for-bit.

    sigma_d = 1 turns the prior-corrected weight into the unit-prior one;
    rho = inf disables the trust region; replanning a full horizon (s = H)
    masks the guidance entirely.
    """
    from .envs import default_variants

    variants = default_variants()
    for episode in range(seeds):
        for v_index, variant in enumerate(variants):
            cfg_unit = _equivalence_config(sigma_d=1.0)
            _, tr_rtc = run_cell_episode(cfg_unit, "rtc", 3, variant, v_index, episode)
            _, tr_pc1 = run_cell_episode(cfg_unit, "pc", 3, variant, v_index, episode)
            if not np.array_equal(tr_rtc.actions, tr_pc1.actions):
                return CheckResult(
                    "equivalence-degenerations", False, f"pc(sigma_d=1) != rtc at seed {episode}"
                )
            cfg_inf = _equivalence_config(rho=math.inf)
            _, tr_pc = run_cell_episode(cfg_inf, "pc", 3, variant, v_index, episode)
            _, tr_potr = run_cell_episode(cfg_inf, "potr", 3, variant, v_index, episode)
            if not np.array_equal(tr_pc.actions, tr_potr.actions):
                return CheckResult(
                    "equivalence-degenerations", False, f"potr(rho=inf) != pc at seed {episode}"
                )
            cfg = _equivalence_config()
            traces = []
            for method in ("naive", "rtc", "pc", "potr"):
                _, trace = run_cell_episode(
                    cfg, method, 0, variant, v_index, episode, replan_every=cfg.horizon
                )
                traces.append(trace)
            for trace in traces[1:]:
                if not np.array_equal(traces[0].actions, trace.actions):
                    return CheckResult(
                        "equivalence-degenerations",
                        False,
                        f"s=H trajectories differ from naive at seed {episode}",
                    )
    return CheckResult(
        "equivalence-degenerations", True, f"{seeds} seeds x {len(variants)} variants identical"
    )


ALL_CHECKS = [
    check_weight_table,
    check_sigma_unity_reduction,
    check_otr_properties,
    check_vjp_agreement,
    check_euler_convergence,
    check_velocity_mc_oracle,
    check_aggregation_crosscheck,
    check_equivalences,
]


def run_all(fast: bool = False) -> list[CheckResult]:
    """Run every check and time it; `fast` trims the Monte Carlo and equivalence samples."""
    trims = {check_velocity_mc_oracle: {"n_samples": 50_000}, check_equivalences: {"seeds": 3}}
    results = []
    for check in ALL_CHECKS:
        start = time.perf_counter()
        result = check(**trims.get(check, {}) if fast else {})
        results.append(replace(result, seconds=time.perf_counter() - start))
    return results
