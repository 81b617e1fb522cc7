"""Stationary Gaussians: kernel parameters, positivity, domain boundaries,
and the position-representation stationarity check."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from liosym import (
    ModelParams,
    StationaryGaussian,
    exact_edges,
    fock_from_gaussian,
    form_invariance,
    gaussian_from_bd,
    hermite_psi,
    is_positive,
    map_cl_to_hpz,
    map_kl_to_cl,
    model_generator,
    numeric_positivity_boundary,
    position_rep_residual,
    positivity_boundary,
    printed_forms,
    steady_state,
    thermal_state,
    transformed_gaussian,
    uncertainty_product,
)
from liosym.generators import ten_generators
from liosym.liouville import unvec, vec


def test_gaussian_from_bd_examples():
    g = gaussian_from_bd(StationaryGaussian(0.5))
    assert (g.mu, g.kappa, g.nu) == (0.5, 0.0, 0.0)
    g = gaussian_from_bd(StationaryGaussian(1.0))
    assert (g.mu, g.nu) == (0.25, 0.75)
    s = StationaryGaussian(1.0, 0.5, 1.0)
    g = gaussian_from_bd(s)
    assert g.mu == pytest.approx(0.2, abs=1e-15)
    assert g.nu == pytest.approx(0.8, abs=1e-15)
    assert s.width == pytest.approx(2.5, abs=1e-15)
    assert s.x2 == pytest.approx(1.25, abs=1e-15)
    assert s.p2 == 1.0


def test_gaussian_from_bd_rejects_vanishing_width():
    with pytest.raises(ValueError, match="vanishing width"):
        gaussian_from_bd(StationaryGaussian(0.5, -1.0))
    with pytest.raises(ValueError, match="omega0"):
        StationaryGaussian(1.0, 0.0, -1.0)


def test_is_positive():
    assert is_positive(gaussian_from_bd(StationaryGaussian(1.0)))
    assert not is_positive(gaussian_from_bd(StationaryGaussian(0.4)))
    # pure-state boundary nu = 0
    assert is_positive(gaussian_from_bd(StationaryGaussian(0.5)))
    # negative width: mu < 0
    assert not is_positive(gaussian_from_bd(StationaryGaussian(0.5, -2.0)))


def test_uncertainty_identity_matches_the_predicate():
    # <x^2><p^2> >= 1/4 and the (mu, nu) conditions are the same region
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 200:
        b = rng.uniform(0.3, 1.5)
        d = rng.uniform(-1.5, 1.5)
        s = StationaryGaussian(b, d)
        if abs(s.width) < 1e-3 or abs(2 * b * s.width - 1) < 1e-6:
            continue
        assert (uncertainty_product(s) >= 0.25) == \
            is_positive(gaussian_from_bd(s))
        checked += 1


def test_hermite_psi_orthonormal():
    x = np.linspace(-12, 12, 601)
    psi = hermite_psi(30, x)
    gram = psi @ psi.T * (x[1] - x[0])
    assert np.abs(gram - np.eye(30)).max() < 1e-10


def test_fock_from_gaussian_reproduces_the_gibbs_state():
    rho = fock_from_gaussian(StationaryGaussian(1.0), 30)
    assert np.abs(rho - thermal_state(1.0, 30)).max() < 1e-12


def test_fock_from_gaussian_matches_the_dynamical_steady_state():
    n = 30
    for p in (ModelParams("CL", 1.0, 0.4, 0.8),
              ModelParams("HPZ", 1.0, 0.4, 1.0, 0.5)):
        rho_dyn = steady_state(model_generator(p, n))
        rho_quad = fock_from_gaussian(StationaryGaussian(p.b, p.d, p.omega0),
                                      n)
        assert np.abs(rho_dyn - rho_quad).max() < 1e-9, p.model


def test_fock_from_gaussian_rejects_nonnormalizable_kernels():
    with pytest.raises(ValueError, match="non-normalizable"):
        fock_from_gaussian(StationaryGaussian(0.5, -2.0), 12)
    with pytest.raises(ValueError, match="non-normalizable"):
        fock_from_gaussian(StationaryGaussian(-0.3), 12)


def test_transformed_gaussian_agrees_with_the_model_maps():
    s = StationaryGaussian(1.0, 0.5)
    t = transformed_gaussian("thermal", s, math.log(1.5))
    assert (t.b, t.d) == (pytest.approx(1.5), pytest.approx(0.75))

    t = transformed_gaussian("translate", StationaryGaussian(1.0), 1.0)
    assert t.b == pytest.approx(1.5)

    new, _ = map_cl_to_hpz(ModelParams("CL", 1.0, 0.4, 1.0), 0.5)
    t = transformed_gaussian("cl2hpz", StationaryGaussian(1.0), 0.5)
    assert (t.b, t.d) == (pytest.approx(new.b), pytest.approx(new.d))

    new, seq = map_kl_to_cl(ModelParams("KL", 1.0, 0.6, 1.0))
    theta = seq.steps[0].parameter
    t = transformed_gaussian("kl2cl", StationaryGaussian(1.0), theta)
    assert t.b == pytest.approx(new.b, abs=1e-14)
    assert t.omega0 == pytest.approx(new.omega0, abs=1e-14)

    new, _ = form_invariance("hpz", ModelParams("HPZ", 1.0, 0.4, 1.0, 0.5),
                             (math.log(2.0), 0.5))
    t = transformed_gaussian("hpz", StationaryGaussian(1.0, 0.5), 0.5,
                             phi=math.log(2.0))
    assert (t.b, t.d) == (pytest.approx(new.b), pytest.approx(new.d))

    with pytest.raises(ValueError, match="unknown domain kind"):
        transformed_gaussian("squeeze", s, 0.1)


def test_domain_bound_values():
    # at d = 0 the exact edges are the closed forms; the predicate flips
    # across each of them, leaving the domain in the given direction
    for b in (0.55, 1.0, 1.8):
        s = StationaryGaussian(b)
        r = math.sqrt(4 * b * b - 1)
        for phi in (-0.3, 0.0, 0.3):
            want = {
                "thermal": {"boundary": (-0.5 * math.log(4 * b * b), -1)},
                "translate": {"boundary": (1 - 2 * b, -1)},
                "hpz": {"boundary": (1 / (4 * b) - b * math.exp(2 * phi),
                                     -1)},
                "kl2cl": {"boundary": (math.acosh(2 * b), 1)},
                "cl2hpz": {"lower": (-r, -1), "upper": (r, 1)},
            }
            for kind, edges in want.items():
                got = exact_edges(kind, s, phi=phi)
                assert got.keys() == edges.keys(), kind
                for key, (edge, out) in edges.items():
                    assert abs(got[key] - edge) <= 1e-14, (kind, b, phi, key)
                    inside = [is_positive(gaussian_from_bd(
                        transformed_gaussian(kind, s, edge + dp, phi)))
                        for dp in (-out * 1e-9, out * 1e-9)]
                    assert inside == [True, False], (kind, b, phi, key)

    s = StationaryGaussian(1.0)
    assert printed_forms("thermal", s, exact_edges("thermal", s)) == \
        {"printed": pytest.approx(math.log(2.0), abs=1e-14)}
    out = printed_forms("hpz", s, exact_edges("hpz", s, phi=0.3), phi=0.3)
    assert out["printed"] == pytest.approx(1 - 2 * math.exp(0.6), abs=1e-14)
    assert printed_forms("translate", s, exact_edges("translate", s)) == {}

    out = printed_forms("kl2cl", s, exact_edges("kl2cl", s), gamma=0.6)
    assert out["theta_model"] == pytest.approx(math.asinh(-0.3), abs=1e-14)
    assert out["eta_min"] == pytest.approx(0.3, abs=1e-14)
    assert out["within_domain"]
    # with d != 0 the damping form scales by sqrt(2b/w)
    s3 = StationaryGaussian(1.0, 0.3)
    out = printed_forms("kl2cl", s3, exact_edges("kl2cl", s3), gamma=0.6)
    assert out["eta_min"] == pytest.approx(0.3 * math.sqrt(2 / 2.3),
                                           abs=1e-14)
    # strong damping on a nearly pure state leaves the domain
    s51 = StationaryGaussian(0.51)
    assert not printed_forms("kl2cl", s51, exact_edges("kl2cl", s51),
                             gamma=3.0)["within_domain"]

    # no positive point: 2bw < 1 for kl2cl and cl2hpz, b <= 0 for thermal
    for kind, base in (("kl2cl", StationaryGaussian(0.4)),
                       ("cl2hpz", StationaryGaussian(0.4)),
                       ("thermal", StationaryGaussian(-1.0)),
                       ("thermal", StationaryGaussian(0.0, 0.5))):
        with pytest.raises(ValueError, match="no positive point.*base b = "):
            exact_edges(kind, base)
    with pytest.raises(ValueError, match="unknown domain kind"):
        exact_edges("squeeze", s)


def test_thermal_flow_matches_the_literal_O0_action():
    # the scan builds the dilated state from the flow b' = b e^alpha,
    # d' = d e^alpha; this pins it to exp(alpha O0) applied literally to
    # the Fock-basis state
    n = 30
    O0 = ten_generators(n)["O0"]
    bases = (StationaryGaussian(1.0), StationaryGaussian(1.0, 0.3))
    for alpha in (-0.3, 0.2):
        S = expm(alpha * O0)
        for s in bases:
            lit = unvec(S @ vec(fock_from_gaussian(s, n)), n)
            lit = (lit + lit.conj().T) / 2
            lit /= np.trace(lit).real
            flow = fock_from_gaussian(
                transformed_gaussian("thermal", s, alpha), n)
            assert np.abs(lit - flow).max() < 1e-10, (s, alpha)


def test_numeric_boundary_needs_a_sign_change():
    s = StationaryGaussian(1.0)

    def positive(p):
        rho = fock_from_gaussian(transformed_gaussian("thermal", s, p), 16)
        return float(np.linalg.eigvalsh(rho).min()) > 0

    with pytest.raises(ValueError, match="no sign change"):
        numeric_positivity_boundary(positive, -0.1, 0.1, 1e-4)


def test_positivity_boundary_flow_families():
    s = StationaryGaussian(1.0)
    r3 = math.sqrt(3.0)
    assert abs(positivity_boundary("translate", s, n=24)["boundary"]
               - (-1.0)) < 2e-3
    assert abs(positivity_boundary("kl2cl", s, n=24)["boundary"]
               - math.acosh(2.0)) < 2e-3
    got = positivity_boundary("cl2hpz", s, n=24)
    assert abs(got["upper"] - r3) < 2e-3
    assert abs(got["lower"] + r3) < 2e-3
    got = positivity_boundary("hpz", s, n=24, phi=0.3)["boundary"]
    want = exact_edges("hpz", s, phi=0.3)["boundary"]
    assert abs(got - want) < 2e-3
    # near a pure base the domain is narrower than the bracket, whose
    # inside end must stop short of the other edge
    for kind, b in (("kl2cl", 0.505), ("cl2hpz", 0.51)):
        near_pure = StationaryGaussian(b)
        want = exact_edges(kind, near_pure)
        got = positivity_boundary(kind, near_pure, n=24)
        assert all(abs(got[k] - want[k]) < 2e-3 for k in want), kind


def test_position_rep_residual_analytic():
    for model, s in [("KL", StationaryGaussian(0.8)),
                     ("CL", StationaryGaussian(1.0)),
                     ("HPZ", StationaryGaussian(1.0, 0.5))]:
        assert position_rep_residual(model, s) < 1e-6, model


def test_position_rep_residual_finite_differences():
    for model, s in [("KL", StationaryGaussian(0.8)),
                     ("CL", StationaryGaussian(1.0)),
                     ("HPZ", StationaryGaussian(1.0, 0.5))]:
        got = position_rep_residual(model, s, npts=1201, method="fd")
        assert got < 1e-4, model


def test_position_rep_residual_validation():
    s = StationaryGaussian(1.0)
    with pytest.raises(ValueError, match="unknown model"):
        position_rep_residual("XY", s)
    with pytest.raises(ValueError, match="d = 0"):
        position_rep_residual("KL", StationaryGaussian(1.0, 0.5))
    with pytest.raises(ValueError, match="201 points"):
        position_rep_residual("CL", s, npts=100)
    with pytest.raises(ValueError, match="standard deviations"):
        position_rep_residual("CL", s, half_width=1.0)
    with pytest.raises(ValueError, match="unknown method"):
        position_rep_residual("CL", s, method="spectral")
    with pytest.raises(ValueError, match="non-normalizable"):
        position_rep_residual("HPZ", StationaryGaussian(0.5, -2.0))


def test_quadrature_and_predicate_classify_alike():
    # the two positivity routes must agree away from the boundary strip
    rng = np.random.default_rng(53)
    n = 24
    checked = 0
    while checked < 100:
        b = rng.uniform(0.3, 1.2)
        d = rng.uniform(-1.2, 1.2)
        s = StationaryGaussian(b, d)
        if s.width < 0.05 or abs(2 * b * s.width - 1) < 0.02:
            continue
        rho = fock_from_gaussian(s, n)
        quad = float(np.linalg.eigvalsh(rho).min()) > -1e-9
        assert quad == is_positive(gaussian_from_bd(s)), (b, d)
        checked += 1
