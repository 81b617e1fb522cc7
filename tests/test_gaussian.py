"""Stationary Gaussians: kernel parameters, positivity, domain boundaries,
and the position-representation stationarity check."""

import math

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

from liosym import (
    TRANSFORMATIONS,
    ModelParams,
    StationaryGaussian,
    TransformSequence,
    apply_sequence,
    exact_edges,
    fock_from_gaussian,
    kl2cl_theta,
    model_coefficients,
    model_generator,
    numeric_positivity_boundary,
    position_rep_residual,
    positivity_boundary,
    printed_forms,
    steady_state,
    thermal_state,
    transformed_gaussian,
)
from liosym.generators import ten_generators
from liosym.liouville import unvec, vec


def test_kernel_coefficients_of_the_stationary_gaussian():
    s = StationaryGaussian(0.5)
    assert (s.mu, s.nu) == (0.5, 0.0)
    s = StationaryGaussian(1.0)
    assert (s.mu, s.nu) == (0.25, 0.75)
    s = StationaryGaussian(1.0, 0.5, 1.0)
    assert s.mu == pytest.approx(0.2, abs=1e-15)
    assert s.nu == pytest.approx(0.8, abs=1e-15)
    assert s.width == pytest.approx(2.5, abs=1e-15)
    assert s.x2 == pytest.approx(1.25, abs=1e-15)
    assert s.p2 == 1.0


def test_vanishing_width_has_no_kernel():
    s = StationaryGaussian(0.5, -1.0)
    with pytest.raises(ValueError, match="vanishing width"):
        s.mu
    with pytest.raises(ValueError, match="vanishing width"):
        s.nu
    assert not s.positive
    with pytest.raises(ValueError, match="omega0"):
        StationaryGaussian(1.0, 0.0, -1.0)


def test_positive_is_the_operator_criterion():
    assert StationaryGaussian(1.0).positive
    assert not StationaryGaussian(0.4).positive
    # pure-state boundary nu = 0
    assert StationaryGaussian(0.5).positive
    # within roundoff below it: no slack
    assert not StationaryGaussian(0.5, -1e-13).positive
    # negative width: mu < 0
    assert not StationaryGaussian(0.5, -2.0).positive


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
        assert (s.x2 * s.p2 >= 0.25) == s.positive
        assert s.positive == (s.mu > 0 and s.nu >= 0)
        checked += 1


# ------------------------------------- quadrature oracle for the Fock route
QUAD_X = np.linspace(-12.0, 12.0, 601)  # resolves unit-scale kernels


def hermite_psi(nmax, x):
    """Oscillator eigenfunctions psi_0 .. psi_{nmax-1} on the grid x,
    by the stable normalized recurrence."""
    psi = np.empty((nmax, len(x)))
    psi[0] = np.pi ** -0.25 * np.exp(-x ** 2 / 2)
    if nmax > 1:
        psi[1] = math.sqrt(2) * x * psi[0]
    for m in range(2, nmax):
        psi[m] = (math.sqrt(2 / m) * x * psi[m - 1]
                  - math.sqrt((m - 1) / m) * psi[m - 2])
    return psi


def quadrature_fock(s, n):
    """rho_mk = integral psi_m(x) rho(x, xt) psi_k(xt) on the grid QUAD_X,
    with the kernel -a (x^2 + xt^2) + c x xt, hermitized and
    trace-normalized as fock_from_gaussian is."""
    x, w = QUAD_X, s.width
    a, c = 1 / (4 * w) + s.b / 2, s.b - 1 / (2 * w)
    G = np.exp(-a * (x[:, None] ** 2 + x ** 2) + c * np.outer(x, x))
    psi = hermite_psi(n, x)
    rho = psi @ G @ psi.T
    rho = (rho + rho.T) / 2
    return rho / np.trace(rho)


def test_hermite_psi_orthonormal():
    psi = hermite_psi(30, QUAD_X)
    gram = psi @ psi.T * (QUAD_X[1] - QUAD_X[0])
    assert np.abs(gram - np.eye(30)).max() < 1e-10


def test_fock_from_gaussian_matches_the_quadrature():
    # unit-scale bases, inside the domain and outside it (2bw < 1), with
    # and without d
    for b, d in ((1.0, 0.0), (1.0, 0.3), (0.8, -0.5), (2.0, 1.5),
                 (0.4, 0.3), (0.6, -0.9), (0.3, 0.5)):
        s = StationaryGaussian(b, d)
        got, want = fock_from_gaussian(s, 30), quadrature_fock(s, 30)
        assert np.abs(got - want).max() < 1e-12, (b, d)


def test_fock_from_gaussian_reproduces_the_gibbs_state():
    # at d = 0, u = 0 and v = q: the recurrence is the geometric law
    for b, n in ((0.5, 30), (0.7, 30), (1.0, 30), (1.5, 60), (3.0, 150)):
        rho = fock_from_gaussian(StationaryGaussian(b), n)
        assert np.abs(rho - thermal_state(b, n)).max() < 1e-15, b


def test_fock_from_gaussian_at_a_large_cutoff():
    # no grid to outgrow: n = 150 is finite and a density matrix, and its
    # leading block is the n = 30 matrix, up to the trace
    for s in (StationaryGaussian(1.0, 0.3), StationaryGaussian(0.4, 0.3),
              StationaryGaussian(1000.0)):
        rho = fock_from_gaussian(s, 150)
        assert np.isfinite(rho).all()
        assert np.array_equal(rho, rho.T)
        assert abs(np.trace(rho) - 1) < 1e-14
        block = rho[:30, :30] / np.trace(rho[:30, :30])
        assert np.abs(block - fock_from_gaussian(s, 30)).max() < 1e-12, s


def test_fock_from_gaussian_matches_the_dynamical_steady_state():
    n = 30
    for p in (ModelParams("CL", 1.0, 0.4, 0.8),
              ModelParams("HPZ", 1.0, 0.4, 1.0, 0.5)):
        rho_dyn, _ = steady_state(model_generator(p, n))
        rho_quad = fock_from_gaussian(StationaryGaussian(p.b, p.d, p.omega0),
                                      n)
        assert np.abs(rho_dyn - rho_quad).max() < 1e-9, p.model


def test_fock_from_gaussian_rejects_nonnormalizable_kernels():
    with pytest.raises(ValueError, match="non-normalizable"):
        fock_from_gaussian(StationaryGaussian(0.5, -2.0), 12)
    with pytest.raises(ValueError, match="non-normalizable"):
        fock_from_gaussian(StationaryGaussian(-0.3), 12)


THETA = kl2cl_theta(0.4, 1.0)  # the KL -> CL rotation of the bases below


@pytest.mark.parametrize("kind, model, d, p, phi, target, steps", [
    ("thermal", "KL", 0.0, 0.4, 0.0, "KL", ["O0"]),
    ("thermal", "CL", 0.0, 0.4, 0.0, "CL", ["O0"]),
    ("thermal", "HPZ", 0.3, 0.4, 0.0, "HPZ", ["O0"]),
    ("translate", "CL", 0.0, 0.7, 0.0, "CL", ["O+"]),
    ("translate", "HPZ", 0.3, 0.7, 0.0, "HPZ", ["O+"]),
    ("hpz", "HPZ", 0.3, 0.3, 0.2, "HPZ", ["iM2", "O+", "L1+", "O0", "iM2"]),
    ("kl2cl", "KL", 0.0, THETA, 0.0, "CL", ["iM1", "L2+"]),
    ("cl2hpz", "CL", 0.0, 0.5, 0.0, "HPZ", ["L1+"]),
    ("cl2hpz", "HPZ", 0.3, 0.5, 0.0, "HPZ", ["L1+"])])
def test_each_kind_flows_as_its_sequence(kind, model, d, p, phi, target,
                                         steps):
    # conjugating the model by the kind's sequence, as the table gives it,
    # gives the generator of the target model with the flowed
    # (b', d', omega0')
    spec = TRANSFORMATIONS[kind]
    base = ModelParams(model, 1.0, 0.4, 1.0, d)
    seq = TransformSequence(spec.steps(base.b, p, phi))
    assert [s.generator for s in seq] == steps
    assert (spec.target or model) == target
    t = transformed_gaussian(kind, StationaryGaussian(base.b, base.d), p, phi)
    flowed = ModelParams(target, t.omega0, base.gamma, t.b, t.d)
    got = apply_sequence(seq, model_coefficients(base))
    want = model_coefficients(flowed)
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12


def test_transformed_gaussian_rejects_an_unknown_kind_and_a_kl2cl_d():
    with pytest.raises(ValueError, match="unknown domain kind"):
        transformed_gaussian("squeeze", StationaryGaussian(1.0), 0.1)
    # iM1 then L2+ carries a base with d != 0 to a correlated state
    with pytest.raises(ValueError, match="no diffusion coefficient"):
        transformed_gaussian("kl2cl", StationaryGaussian(1.0, 0.3), 0.5)


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
                    inside = [transformed_gaussian(kind, s, edge + dp,
                                                   phi).positive
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
    # KL has no d: a kl2cl base with d != 0 has no flow to read
    with pytest.raises(ValueError, match="no diffusion coefficient"):
        exact_edges("kl2cl", StationaryGaussian(1.0, 0.3))
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
    O0 = ten_generators(n, dense=False)["O0"]
    bases = (StationaryGaussian(1.0), StationaryGaussian(1.0, 0.3))
    for alpha in (-0.3, 0.2):
        for s in bases:
            lit = unvec(expm_multiply(alpha * O0,
                                      vec(fock_from_gaussian(s, n))), n)
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


def test_position_rep_residual_validation():
    s = StationaryGaussian(1.0)
    with pytest.raises(ValueError, match="unknown model"):
        position_rep_residual("XY", s)
    with pytest.raises(ValueError, match="d = 0"):
        position_rep_residual("KL", StationaryGaussian(1.0, 0.5))
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
        assert quad == s.positive, (b, d)
        checked += 1
