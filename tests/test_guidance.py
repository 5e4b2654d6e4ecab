import dataclasses
import math

import numpy as np
import pytest

from guidedflow import flow, guidance, verify
from guidedflow.envs import Observation, Obstacle, default_variants, make_field
from guidedflow.errors import DomainError, NumericError, StructuralError
from guidedflow.flow import (
    GaussianMixtureField,
    GaussianMixtureFieldParams,
    VelocityField,
    gm_linearize,
)
from guidedflow.guidance import (
    GuidanceConfig,
    GuidanceMethod,
    InpaintTarget,
    guided_denoise,
    otr_project,
    pc_weight,
    pseudoinverse_correction,
)
from guidedflow.verify import check_otr_properties, check_weight_table


def random_mixture(rng, h=3, d=2, k=2):
    return GaussianMixtureFieldParams(
        weights=np.full(k, 1.0 / k),
        means=rng.standard_normal((k, h, d)),
        scales=rng.uniform(0.3, 1.0, k),
    )


class ConstantField(VelocityField):
    def __init__(self, value):
        self.value = np.asarray(value, dtype=float)

    def linearize(self, chunk, tau, observation=None):
        v = np.broadcast_to(self.value, chunk.shape).copy()
        return v, lambda u: np.zeros_like(np.asarray(u, dtype=float))


# ---------------------------------------------------------------------------
# weight schedules


# rtc is pc_weight at sigma_d = 1; r^2 is verify's independent route.


def test_rtc_weight_key_values():
    assert pc_weight(0.5, 1.0, 10.0) == pytest.approx(2.00, abs=0.005)
    assert pc_weight(0.1, 1.0, 10.0) == pytest.approx(9.11, abs=0.005)
    assert pc_weight(0.3, 1.0, 10.0) == pytest.approx(2.76, abs=0.005)


def test_rtc_weight_matches_snr_expansion():
    for tau in np.linspace(0.05, 0.95, 19):
        snr = tau**2 / (1 - tau) ** 2
        assert pc_weight(tau, 1.0, 1e9) == pytest.approx((1 - tau) * (1 + snr) / tau, rel=1e-12)


def test_weight_domain_errors():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            pc_weight(bad, 0.4, 10.0)
    with pytest.raises(DomainError):
        pc_weight(0.5, -1.0, 10.0)


def test_r_tau_sq_values():
    assert verify._r_squared(0.5, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert verify._r_squared(0.5, 0.4) == pytest.approx(0.04 / 0.29, rel=1e-12)
    # tau -> 0 limit tends to sigma_d^2
    assert verify._r_squared(1e-9, 0.4) == pytest.approx(0.16, rel=1e-6)


def test_pc_weight_values():
    assert pc_weight(0.5, 0.4, 10.0) == pytest.approx(7.25, abs=0.005)
    assert pc_weight(0.3, 0.4, 10.0) == pytest.approx(10.00, abs=1e-12)  # clipped
    assert pc_weight(0.7, 0.4, 10.0) == pytest.approx(5.01, abs=0.005)
    assert pc_weight(0.5, 1.0, 10.0) == verify._rtc_closed_form(0.5, 10.0)


def test_pc_weight_consistent_with_r_tau_sq():
    for tau in np.linspace(0.05, 0.95, 19):
        for sigma in (0.2, 0.4, 1.0):
            expected = (1 - tau) / (tau * verify._r_squared(tau, sigma))
            assert pc_weight(tau, sigma, 1e12) == pytest.approx(expected, rel=1e-12)


def test_weight_table_check():
    result = check_weight_table()
    assert result.passed, result.detail


def test_sigma_unity_reduction_is_bitwise():
    taus = np.arange(1, 1000) / 1000.0
    assert max(abs(pc_weight(t, 1.0, 10.0) - verify._rtc_closed_form(t, 10.0)) for t in taus) == 0.0
    rtc_form = lambda t: (1 - t) ** 2 / (t**2 + (1 - t) ** 2)
    assert max(abs(verify._r_squared(t, 1.0) - rtc_form(t)) for t in taus) == 0.0


def test_sigma_unity_reduction_catches_a_perturbed_weight(monkeypatch):
    # Off by 1e-6 relative everywhere, in the library and in what verify imported.
    perturbed = lambda tau, sigma_d, beta: (1 + 1e-6) * pc_weight(tau, sigma_d, beta)
    monkeypatch.setattr(guidance, "pc_weight", perturbed)
    monkeypatch.setattr(verify, "pc_weight", perturbed)
    assert not verify.check_sigma_unity_reduction().passed


def test_weight_dominance_and_symmetry():
    big = 1e12  # unclipped
    taus = np.linspace(0.02, 0.98, 49)
    for sigma in (0.1, 0.4, 0.7, 1.0):
        for tau in taus:
            diff = pc_weight(tau, sigma, big) - pc_weight(tau, 1.0, big)
            identity = (1 - tau) / tau * (1 / sigma**2 - 1)
            assert diff == pytest.approx(identity, rel=1e-9, abs=1e-9)
            assert diff >= -1e-12
            if sigma == 1.0:
                assert abs(diff) < 1e-12
    # unclipped rtc is symmetric under tau <-> 1-tau; pc is not for sigma != 1
    for tau in taus:
        assert pc_weight(tau, 1.0, big) == pytest.approx(pc_weight(1 - tau, 1.0, big), rel=1e-12)
    asym = [abs(pc_weight(t, 0.4, big) - pc_weight(1 - t, 0.4, big)) for t in taus]
    assert max(asym) > 1.0


@pytest.mark.parametrize("sigma_d, clipped", [(0.1, 9), (0.2, 9), (0.4, 4)])
def test_clip_makes_pc_a_constant_weight_at_small_sigma(sigma_d, clipped):
    # At n = 10 the clip beta = 10 binds on every guided step for sigma_d <= 0.2,
    # so grid-sigma's first two rows are one schedule; at the shipped 0.4 it binds on 4 of 9.
    weights = GuidanceConfig(method="pc", sigma_d=sigma_d, n_steps=10).weights[1:]
    assert sum(w == 10.0 for w in weights) == clipped


# ---------------------------------------------------------------------------
# pseudoinverse correction


def test_correction_zero_mask_gives_zero():
    rng = np.random.default_rng(0)
    params = random_mixture(rng)
    field = GaussianMixtureField(params)
    x = rng.standard_normal((3, 2))
    v, pullback = field.linearize(x, 0.5)
    spec = InpaintTarget(rng.standard_normal((3, 2)), np.zeros(3))
    g = pseudoinverse_correction(x, 0.5, v, spec, pullback)
    assert np.array_equal(g, np.zeros((3, 2)))


def test_correction_zero_residual_gives_zero():
    rng = np.random.default_rng(1)
    params = random_mixture(rng)
    field = GaussianMixtureField(params)
    x = rng.standard_normal((3, 2))
    v, pullback = field.linearize(x, 0.5)
    a1 = x + 0.5 * v
    spec = InpaintTarget(a1, np.ones(3))
    g = pseudoinverse_correction(x, 0.5, v, spec, pullback)
    assert np.allclose(g, 0.0, atol=1e-12)


def test_correction_constant_field_hand_example():
    # H=2, D=1, Jacobian 0, W=(1,0), Y - A1_hat = (0.5, 7) -> g = (0.5, 0)
    field = ConstantField(np.array([0.0]))
    x = np.zeros((2, 1))
    v, pullback = field.linearize(x, 0.5)
    a1 = x + 0.5 * v
    target = a1 + np.array([[0.5], [7.0]])
    g = pseudoinverse_correction(x, 0.5, v, InpaintTarget(target, np.array([1.0, 0.0])), pullback)
    assert np.allclose(g, np.array([[0.5], [0.0]]), atol=1e-15)


def test_inpaint_target_validation():
    with pytest.raises(StructuralError):
        InpaintTarget(np.zeros((2, 1)), np.array([0.5, 1.5]))
    with pytest.raises(StructuralError):
        InpaintTarget(np.zeros((2, 1)), np.zeros(3))


def test_inpaint_target_is_frozen_and_repeats_the_mask_over_columns():
    mask = np.array([1.0, 0.25, 0.0])
    spec = InpaintTarget(np.ones((3, 2)), mask)
    assert spec.mask is mask
    assert spec.entry_mask.shape == (3, 2) and np.array_equal(spec.entry_mask, mask[:, None] * np.ones((3, 2)))
    for name in ("target", "mask", "entry_mask"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, name, getattr(spec, name))


# ---------------------------------------------------------------------------
# orthogonal trust region


def test_otr_parallel_guidance_untouched():
    v = np.array([1.0, 2.0, -1.0])
    g = 3.5 * v
    assert np.allclose(otr_project(g, v, 0.1), g, atol=1e-12)


def test_otr_infinite_radius_identity():
    rng = np.random.default_rng(2)
    g = rng.standard_normal(8)
    assert np.array_equal(otr_project(g, rng.standard_normal(8), math.inf), g)
    assert np.array_equal(otr_project(g, np.zeros(8), math.inf), g)


def test_otr_hand_example():
    g_final = otr_project(np.array([2.0, 3.0]), np.array([1.0, 0.0]), 0.5)
    assert np.allclose(g_final, np.array([2.0, 0.5]), atol=1e-9)
    # g_final is the closest feasible point to the unconstrained correction:
    # no sample from the trust-region ball may lie strictly closer to g
    rng = np.random.default_rng(3)
    g = np.array([2.0, 3.0])
    direction = rng.standard_normal((10_000, 2))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radii = np.sqrt(rng.uniform(0.0, 1.0, 10_000))
    candidates = np.array([2.0, 0.0]) + 0.5 * radii[:, None] * direction
    dists = np.linalg.norm(candidates - g[None, :], axis=1)
    assert dists.min() >= np.linalg.norm(g_final - g) - 1e-9


def test_otr_property_suite():
    result = check_otr_properties()
    assert result.passed, result.detail


def test_otr_degenerate_velocity_fallback():
    eps = 1e-8  # the projection's guard on ||v||
    g = np.array([3.0, 4.0])
    v = np.array([1e-9, 0.0])
    out = otr_project(g, v, 0.5)
    assert np.linalg.norm(out) <= 0.5 * np.linalg.norm(v) + eps
    # exact zero velocity never divides by zero
    out = otr_project(g, np.zeros(2), 0.5)
    assert np.all(np.isfinite(out)) and np.linalg.norm(out) <= eps


def test_otr_errors():
    with pytest.raises(StructuralError):
        otr_project(np.zeros(3), np.zeros(4), 0.5)
    with pytest.raises(DomainError):
        otr_project(np.zeros(3), np.ones(3), 0.0)


def test_guidance_config_validation():
    with pytest.raises(StructuralError):
        GuidanceConfig(sigma_d=0.0)
    with pytest.raises(StructuralError, match="sigma_d"):
        GuidanceConfig(sigma_d=math.inf)
    with pytest.raises(StructuralError):
        GuidanceConfig(rho=-1.0)
    with pytest.raises(StructuralError):
        GuidanceConfig(n_steps=0)
    for n_steps in (2.5, math.nan, math.inf):
        with pytest.raises(StructuralError, match="n_steps"):
            GuidanceConfig(n_steps=n_steps)
    assert GuidanceConfig(n_steps=2.0).n_steps == 2
    assert math.isinf(GuidanceConfig(method="pc", rho=math.inf).rho)
    assert GuidanceConfig(method="rtc").method is GuidanceMethod.RTC


@pytest.mark.parametrize(
    "method, settings",
    [
        ("naive", (False, 0.3, math.inf)),
        ("rtc", (True, 1.0, math.inf)),
        ("pc", (True, 0.3, math.inf)),
        ("potr", (True, 0.3, 2.0)),
    ],
)
def test_guidance_config_is_frozen_and_resolves_the_method_once(method, settings):
    cfg = GuidanceConfig(method=method, sigma_d=0.3, rho=2.0)
    assert (cfg.guided, cfg.weight_sigma, cfg.radius) == settings
    assert [f.name for f in dataclasses.fields(cfg)] == ["method", "sigma_d", "rho", "n_steps"]
    for name in [f.name for f in dataclasses.fields(cfg)] + ["guided", "weight_sigma", "radius"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, getattr(cfg, name))


# ---------------------------------------------------------------------------
# guided_denoise


def test_naive_equals_unguided_integration():
    rng = np.random.default_rng(5)
    params = random_mixture(rng)
    field = GaussianMixtureField(params)
    noise = rng.standard_normal((3, 2))
    cfg = GuidanceConfig(method=GuidanceMethod.NAIVE, n_steps=8)
    x = noise
    for k in range(8):
        x = x + gm_linearize(x, k / 8, params)[0] / 8
    assert np.array_equal(guided_denoise(noise, None, field, None, cfg), x)


def test_fully_masked_guidance_is_bitwise_naive():
    rng = np.random.default_rng(6)
    params = random_mixture(rng)
    field = GaussianMixtureField(params)
    noise = rng.standard_normal((3, 2))
    spec = InpaintTarget(rng.standard_normal((3, 2)), np.zeros(3))
    naive = guided_denoise(noise, None, field, None, GuidanceConfig(method="naive"))
    for method in ("rtc", "pc", "potr"):
        out = guided_denoise(noise, None, field, spec, GuidanceConfig(method=method))
        assert np.array_equal(out, naive)


def test_rtc_equals_pc_at_unit_sigma():
    rng = np.random.default_rng(7)
    for _ in range(100):
        params = random_mixture(rng)
        field = GaussianMixtureField(params)
        noise = rng.standard_normal((3, 2))
        target = rng.standard_normal((3, 2))
        mask = rng.uniform(0.0, 1.0, 3)
        spec = InpaintTarget(target, mask)
        a = guided_denoise(noise, None, field, spec, GuidanceConfig(method="rtc"))
        b = guided_denoise(
            noise, None, field, spec, GuidanceConfig(method="pc", sigma_d=1.0, rho=math.inf)
        )
        assert np.array_equal(a, b)


def test_potr_equals_pc_at_infinite_radius():
    rng = np.random.default_rng(8)
    params = random_mixture(rng)
    field = GaussianMixtureField(params)
    noise = rng.standard_normal((3, 2))
    spec = InpaintTarget(rng.standard_normal((3, 2)), rng.uniform(0.0, 1.0, 3))
    a = guided_denoise(noise, None, field, spec, GuidanceConfig(method="pc", rho=math.inf))
    b = guided_denoise(noise, None, field, spec, GuidanceConfig(method="potr", rho=math.inf))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n_steps", [1, 4, 10])
@pytest.mark.parametrize("method", ["naive", "rtc", "pc", "potr"])
@pytest.mark.parametrize("zero_mask", [False, True])
def test_one_mixture_evaluation_per_solver_step(monkeypatch, method, n_steps, zero_mask):
    # A guided step needs the velocity and its VJP at the same point; both
    # must come from a single evaluation of the mixture terms, also when an
    # all-zero mask makes the correction vanish.
    calls = []
    terms = flow._mixture_terms
    monkeypatch.setattr(flow, "_mixture_terms", lambda *a: calls.append(1) or terms(*a))
    field = make_field(default_variants()[1])
    obs = Observation(
        position=np.array([-1.0, 0.0]),
        goal=np.array([0.75, 0.0]),
        obstacle=Obstacle(center=np.array([0.7, 0.0]), radius=0.09),
    )
    rng = np.random.default_rng(12)
    mask = np.zeros(10) if zero_mask else np.linspace(1.0, 0.0, 10)
    spec = InpaintTarget(rng.standard_normal((10, 2)), mask)
    config = GuidanceConfig(method=method, n_steps=n_steps)
    guided_denoise(rng.standard_normal((10, 2)), obs, field, spec, config)
    assert len(calls) == n_steps


def test_guided_requires_inpaint_target():
    field = GaussianMixtureField(random_mixture(np.random.default_rng(9)))
    with pytest.raises(StructuralError):
        guided_denoise(np.zeros((3, 2)), None, field, None, GuidanceConfig(method="potr"))


def test_denoise_error_carries_step_index():
    # A NaN pullback from tau = 0.3 on is caught by the step-velocity check.
    class ExplodingField(VelocityField):
        def linearize(self, chunk, tau, observation=None):
            fill = np.nan if tau >= 0.3 else 0.0
            return np.zeros_like(chunk), lambda u: np.full_like(u, fill)

    spec = InpaintTarget(np.ones((2, 2)), np.ones(2))
    for method in ("rtc", "pc", "potr"):
        with pytest.raises(NumericError, match=r"non-finite velocity at solver step 3$"):
            guided_denoise(
                np.zeros((2, 2)), None, ExplodingField(), spec, GuidanceConfig(method=method)
            )


@pytest.mark.parametrize("method", ["rtc", "pc", "potr"])
def test_guided_step_velocity_shape_mismatch_names_step(method):
    # A (1, D) velocity for an (H, D) chunk would broadcast through the clean
    # estimate; the correction rejects it at the first guided step.  At
    # tau = 0 the velocity has the full shape, so step 0 passes.
    class RowVelocityField(VelocityField):
        def linearize(self, chunk, tau, observation=None):
            rows = chunk.shape[0] if tau == 0.0 else 1
            return np.zeros((rows, chunk.shape[1])), lambda u: np.zeros_like(u)

    spec = InpaintTarget(np.ones((3, 2)), np.ones(3))
    message = r"^denoising step 1: velocity shape \(1, 2\) != chunk shape \(3, 2\)$"
    with pytest.raises(StructuralError, match=message):
        guided_denoise(
            np.zeros((3, 2)), None, RowVelocityField(), spec, GuidanceConfig(method=method)
        )
