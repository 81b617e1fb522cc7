"""Model generators, propagation, steady states, and the maps between models."""

import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse.linalg import ArpackNoConvergence

from liosym import (
    CoefficientVector,
    DegenerateKernelError,
    ModelParams,
    SuperOperator,
    TransformSequence,
    apply_sequence,
    build_generator,
    coherent_projector,
    evolve,
    expectation_invariance_check,
    fock_projector,
    kl2cl_theta,
    make_superoperator,
    model_coefficients,
    model_generator,
    models,
    momentum,
    number,
    position,
    steady_state,
    ten_generators,
    thermal_state,
    transformation,
)


def test_model_coefficients_kl():
    c = model_coefficients(ModelParams("KL", 1.0, 0.1, 1.0))
    assert c == CoefficientVector(2.0, 0.0, 0.0, 0.1, -0.2, 0.0, 0.0)


def test_model_coefficients_cl_and_hpz():
    c = model_coefficients(ModelParams("CL", 1.0, 0.1, 1.0))
    assert c == CoefficientVector(2.0, 0.0, -0.1, 0.1, -0.2, -0.2, 0.0)
    c = model_coefficients(ModelParams("HPZ", 1.0, 0.1, 1.0, 0.3))
    # d enters g2 directly, with no gamma prefactor
    assert c == CoefficientVector(2.0, 0.0, -0.1, 0.1, -0.2, -0.2, -0.3)


def test_params_validation():
    with pytest.raises(ValueError, match="unknown model"):
        ModelParams("XY", 1.0, 0.1, 1.0)
    with pytest.raises(ValueError, match="omega0"):
        ModelParams("KL", 0.0, 0.1, 1.0)
    with pytest.raises(ValueError, match="gamma"):
        ModelParams("KL", 1.0, -0.1, 1.0)
    with pytest.raises(ValueError, match="must be positive"):
        ModelParams("KL", 1.0, 0.1, 0.0)
    with pytest.raises(ValueError, match="no diffusion"):
        ModelParams("KL", 1.0, 0.1, 1.0, 0.3)
    with pytest.raises(ValueError, match="no diffusion"):
        ModelParams("CL", 1.0, 0.1, 1.0, 0.3)
    for field, bad in (("omega0", math.inf), ("gamma", math.nan),
                       ("b", math.inf), ("d", -math.inf)):
        kw = {"model": "HPZ", "omega0": 1.0, "gamma": 0.1, "b": 1.0,
              "d": 0.0, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ModelParams(**kw)


def test_evolve_input_validation():
    n = 6
    K = model_generator(ModelParams("KL", 1.0, 0.4, 1.0), n)
    rho0 = fock_projector(0, n)
    for t_max, steps in ((0.0, 10), (-1.0, 10), (math.nan, 10), (1.0, 0),
                         (1.0, -2)):
        with pytest.raises(ValueError, match="need t-max > 0 and steps >= 1"):
            evolve(K, rho0, t_max, steps)
    with pytest.raises(ValueError, match="shape"):
        evolve(K, fock_projector(0, n + 1), 1.0, 1)
    with pytest.raises(TypeError, match="sparse matrix"):
        evolve(K.mat, rho0, 1.0, 1)


def test_evolve_at_t0_returns_the_initial_state():
    n = 16
    K = model_generator(ModelParams("CL", 1.0, 0.4, 1.0), n)
    rho0 = fock_projector(1, n)
    traj = evolve(K, rho0, 1.0, 1)
    assert np.abs(traj.states[0] - rho0).max() == 0.0
    assert traj.moments["n"][0] == pytest.approx(1.0, abs=1e-12)


def test_evolve_semigroup_split():
    n = 12
    K = model_generator(ModelParams("KL", 1.0, 0.4, 0.8), n)
    rho0 = fock_projector(1, n)
    traj = evolve(K, rho0, 2.0, 2)
    resumed = evolve(K, traj.states[1], 1.0, 1)
    assert np.abs(resumed.states[1] - traj.states[2]).max() < 1e-12


def _evolve_against_a_per_step_reference(monkeypatch, K, rho0, t_max,
                                         steps):
    """Check evolve's states within 1e-12 of a dense per-step reference
    and every moment equal to its per-state formula; return the shapes of
    the matrices evolve exponentiated."""
    n = rho0.shape[0]
    times = np.linspace(0.0, t_max, steps + 1)

    # one exponential per distinct float step of the grid; the steps of
    # the 1000-step grid differ in their last bits
    exact = {dt: expm(-dt * K.mat) for dt in set(np.diff(times))}
    assert steps < 1000 or len(exact) > 1
    v = rho0.reshape(-1)
    want = [rho0]
    for dt in np.diff(times):
        v = exact[dt] @ v
        want.append(v.reshape(n, n))

    shapes = []

    def recording_expm(a):
        shapes.append(a.shape)
        return expm(a)

    monkeypatch.setattr(models, "expm", recording_expm)
    traj = evolve(K, rho0, t_max, steps)
    assert np.array_equal(traj.times, times)
    assert np.abs(traj.states - np.array(want)).max() < 1e-12

    x, mom, num = position(n), momentum(n), number(n)
    formulas = {
        "x": lambda r: np.trace(x @ r).real,
        "p": lambda r: np.trace(mom @ r).real,
        "x2": lambda r: np.trace(x @ x @ r).real,
        "p2": lambda r: np.trace(mom @ mom @ r).real,
        "n": lambda r: np.trace(num @ r).real,
        "purity": lambda r: np.trace(r @ r).real,
        "trace": lambda r: np.trace(r).real,
        "min_eig": lambda r: np.linalg.eigvalsh((r + r.conj().T) / 2).min(),
    }
    assert list(traj.moments) == list(formulas)
    for key, f in formulas.items():
        assert np.array_equal(traj.moments[key],
                              [f(r) for r in traj.states]), key
    # |z| of a complex array and of a complex scalar may differ by an ulp
    assert traj.max_trace_violation == pytest.approx(
        max(abs(np.trace(r) - 1) for r in traj.states), rel=1e-15)
    assert traj.max_herm_violation == max(
        np.abs(r - r.conj().T).max() for r in traj.states)
    return shapes


MODEL_POINTS = [ModelParams("KL", 1.0, 0.4, 0.6),
                ModelParams("CL", 1.0, 0.4, 0.6),
                ModelParams("HPZ", 1.0, 0.4, 0.6, 0.1)]


@pytest.mark.parametrize("t_max, steps", [(50.0, 100), (50.0, 1000)])
@pytest.mark.parametrize("p", MODEL_POINTS, ids=["KL", "CL", "HPZ"])
def test_evolve_matches_a_per_step_reference(monkeypatch, p, t_max, steps):
    n = 12
    shapes = _evolve_against_a_per_step_reference(
        monkeypatch, model_generator(p, n), fock_projector(1, n), t_max, steps)
    # fock:1 occupies one invariant block of K, the m = k entries for KL and
    # the even class of m + k for CL and HPZ; the 144 x 144 K is never
    # exponentiated
    width = n if p.model == "KL" else n * n // 2
    assert shapes == [(width, width)]


@pytest.mark.parametrize("t_max, steps", [(50.0, 100), (50.0, 1000)])
@pytest.mark.parametrize("p, blocks", zip(MODEL_POINTS, (23, 2, 2)),
                         ids=["KL", "CL", "HPZ"])
def test_evolve_matches_a_per_step_reference_in_every_block(
        monkeypatch, p, blocks, t_max, steps):
    # a coherent state occupies every block: KL's 2n - 1 of fixed m - n,
    # and the two parity classes of m + n for CL and HPZ; its tail leaks
    # past cutoff 12 by more than the trace budget
    n = 12
    with pytest.warns(UserWarning, match="truncation leakage"):
        shapes = _evolve_against_a_per_step_reference(
            monkeypatch, model_generator(p, n),
            coherent_projector(1 + 0.5j, n), t_max, steps)
    assert len(shapes) == blocks


def test_evolve_blocks_never_split_what_K_couples(monkeypatch):
    n = 12
    K = model_generator(MODEL_POINTS[1], n)
    levels = np.arange(n)
    odd = (levels[:, None] + levels[None, :]) % 2 == 1
    # the unoccupied parity class of a bilinear K stays exactly empty
    traj = evolve(K, fock_projector(1, n), 50.0, 100)
    assert np.all(traj.states[:, odd] == 0)

    # a linear drive i[x, rho] couples the parity classes: one block
    x = position(n)
    drive = (make_superoperator(x, np.eye(n))
             - make_superoperator(np.eye(n), x))
    driven = SuperOperator(K.csr + 0.05j * drive, n)
    shapes = _evolve_against_a_per_step_reference(
        monkeypatch, driven, fock_projector(1, n), 20.0, 200)
    assert shapes == [(n * n, n * n)]


def test_evolve_relaxes_to_the_thermal_state():
    n = 20
    p = ModelParams("KL", 1.0, 0.5, 0.8)
    K = model_generator(p, n)
    traj = evolve(K, fock_projector(1, n), 60.0, 1)
    rho = traj.states[-1]
    lam = (2 * p.b - 1) / (2 * p.b + 1)
    pops = np.diag(rho).real
    target = (1 - lam) * lam ** np.arange(n)
    assert np.abs(pops - target).max() < 1e-6
    assert np.abs(rho - np.diag(np.diag(rho))).max() < 1e-8
    assert np.abs(rho - steady_state(K)[0]).max() < 1e-6


def test_evolve_warns_when_truncation_leaks():
    # cutoff 8 cannot hold the b = 1 thermal tail over gamma*t = 20
    n = 8
    K = model_generator(ModelParams("KL", 1.0, 0.4, 1.0), n)
    with pytest.warns(UserWarning, match="truncation leakage"):
        traj = evolve(K, fock_projector(0, n), 50.0, 1)
    assert traj.max_trace_violation > 1e-8


def test_evolve_diagnoses_a_trajectory_that_leaves_floating_range():
    # truncated at n = 24, HPZ at d = 0.8 has growing modes, and by t = 60
    # the purity of the vacuum's trajectory overflows
    n = 24
    K = model_generator(ModelParams("HPZ", 1.0, 0.4, 1.0, 0.8), n)
    with pytest.raises(FloatingPointError,
                       match="unstable at this cutoff") as info:
        evolve(K, fock_projector(0, n), 60.0, 100)
    t_bad = float(str(info.value).split("t = ")[1].split()[0])
    k = round(t_bad / 0.6)
    assert 0 < k <= 100 and t_bad == pytest.approx(0.6 * k, rel=1e-5)
    # the named time is the first: the grid up to the one before is finite
    with pytest.warns(UserWarning, match="tolerance breach"):
        traj = evolve(K, fock_projector(0, n), 0.6 * (k - 1), k - 1)
    assert all(np.isfinite(m).all() for m in traj.moments.values())


def test_steady_state_kl_is_the_gibbs_state():
    n = 30
    K = model_generator(ModelParams("KL", 1.0, 0.4, 1.0), n)
    rho, info = steady_state(K)
    lam = 1.0 / 3.0
    pops = np.diag(rho).real
    target = (1 - lam) * lam ** np.arange(n)
    assert np.abs(pops - target).max() < 1e-8
    assert info["residual"] < 1e-10
    assert abs(info["eigenvalue"]) < 1e-8
    assert info["min_eig"] > -1e-12


def test_steady_state_moments():
    n = 30
    x2_op = position(n) @ position(n)
    p2_op = momentum(n) @ momentum(n)
    for p, want_x2, want_p2 in [
        (ModelParams("KL", 1.0, 0.4, 1.0), 1.0, 1.0),
        (ModelParams("CL", 1.0, 0.4, 1.0), 1.0, 1.0),
        (ModelParams("HPZ", 1.0, 0.4, 1.0, 0.5), 1.25, 1.0),
    ]:
        rho, _ = steady_state(model_generator(p, n))
        assert abs(np.trace(x2_op @ rho).real - want_x2) < 1e-8, p.model
        assert abs(np.trace(p2_op @ rho).real - want_p2) < 1e-8, p.model


def test_steady_state_rejects_a_degenerate_kernel():
    # pure rotation: every Fock projector is stationary
    n = 6
    K = build_generator(CoefficientVector(2, 0, 0, 0, 0, 0, 0),
                        ten_generators(n, dense=False), n)
    with pytest.raises(DegenerateKernelError, match="kernel is 6-dim"):
        steady_state(K)


def test_form_invariance_thermal():
    p = ModelParams("KL", 1.0, 0.4, 1.0)
    new, seq = transformation("thermal", p, math.log(1.5))
    assert new.b == pytest.approx(1.5, abs=1e-14)
    assert (new.model, new.omega0, new.gamma) == ("KL", 1.0, 0.4)
    got = apply_sequence(seq, model_coefficients(p))
    assert np.allclose(got, model_coefficients(new), atol=1e-12)

    # on HPZ the diffusion coefficient picks up the same factor
    p = ModelParams("HPZ", 1.0, 0.4, 1.0, 0.5)
    new, seq = transformation("thermal", p, math.log(1.5))
    assert new.b == pytest.approx(1.5, abs=1e-14)
    assert new.d == pytest.approx(0.75, abs=1e-14)
    got = apply_sequence(seq, model_coefficients(p))
    assert np.allclose(got, model_coefficients(new), atol=1e-12)


def test_form_invariance_translate():
    p = ModelParams("CL", 1.0, 0.4, 1.0)
    new, seq = transformation("translate", p, 1.0)
    assert new.b == pytest.approx(1.5, abs=1e-14)
    got = apply_sequence(seq, model_coefficients(p))
    assert np.allclose(got, model_coefficients(new), atol=1e-12)
    with pytest.raises(ValueError, match="maps CL models, not KL"):
        transformation("translate", ModelParams("KL", 1.0, 0.4, 1.0), 1.0)


def test_form_invariance_hpz():
    p = ModelParams("HPZ", 1.0, 0.4, 1.0, 0.5)
    new, seq = transformation("hpz", p, 0.5, math.log(2.0))
    assert new.b == pytest.approx(2.25, abs=1e-14)
    assert new.d / (2 * new.omega0) == pytest.approx(0.25, abs=1e-14)
    got = apply_sequence(seq, model_coefficients(p))
    assert np.allclose(got, model_coefficients(new), atol=1e-12)
    with pytest.raises(ValueError, match="maps HPZ models, not CL"):
        transformation("hpz", ModelParams("CL", 1.0, 0.4, 1.0), 0.1, 0.1)


def test_form_invariance_unknown_kind():
    with pytest.raises(ValueError, match="unknown invariance"):
        transformation("squeeze", ModelParams("KL", 1.0, 0.4, 1.0), 0.1)


def test_map_kl_to_cl():
    p = ModelParams("KL", 1.0, 0.6, 1.0)
    new, seq = transformation("kl2cl", p, kl2cl_theta(p.gamma, p.omega0))
    ch = math.sqrt(1.09)
    assert new.model == "CL"
    assert new.omega0 == pytest.approx(ch, abs=1e-14)
    assert new.b == pytest.approx(1.0 / ch, abs=1e-14)
    assert new.gamma == p.gamma
    got = apply_sequence(seq, model_coefficients(p))
    assert np.allclose(got, model_coefficients(new), atol=1e-12)
    with pytest.raises(ValueError, match="maps KL models, not CL"):
        transformation("kl2cl", new, kl2cl_theta(new.gamma, new.omega0))
    # any other theta leaves a generator outside the CL family
    with pytest.raises(ValueError, match="own theta"):
        transformation("kl2cl", p, 0.3)


def test_map_kl_to_cl_weak_damping_limit():
    p = ModelParams("KL", 1.0, 1e-12, 1.0)
    new, _ = transformation("kl2cl", p, kl2cl_theta(p.gamma, p.omega0))
    assert abs(new.omega0 - 1.0) < 1e-12
    assert abs(new.b - 1.0) < 1e-12
    assert new.gamma == p.gamma


def test_map_cl_to_hpz():
    p = ModelParams("CL", 1.0, 0.4, 1.0)
    new, seq = transformation("cl2hpz", p, 0.5)
    assert new.model == "HPZ"
    assert new.b == pytest.approx(1.25, abs=1e-14)
    assert new.d == pytest.approx(-1.0, abs=1e-14)
    got = apply_sequence(seq, model_coefficients(p))
    assert np.allclose(got, model_coefficients(new), atol=1e-12)
    with pytest.raises(ValueError, match="maps CL models, not KL"):
        transformation("cl2hpz", ModelParams("KL", 1.0, 0.4, 1.0), 0.5)


def test_map_cl_to_hpz_warns_outside_the_positivity_bound():
    # the domain at b = 1 is |zeta| <= sqrt(3); the map itself still goes
    # through
    p = ModelParams("CL", 1.0, 0.4, 1.0)
    with pytest.warns(UserWarning, match="not a density matrix"):
        new, _ = transformation("cl2hpz", p, 1.8)
    assert new.d == pytest.approx(-3.6, abs=1e-14)


def test_expectation_invariance_for_unitary_steps():
    n = 14
    with pytest.warns(UserWarning, match="geometric tail"):
        rho = thermal_state(1.0, n)
    o = number(n)
    for name in ("iL0", "O0"):
        before, after = expectation_invariance_check(
            TransformSequence([(name, 0.4)]), o, rho)
        assert abs(after - before) < 1e-9, name


def test_expectation_changes_under_a_conserving_step():
    n = 20
    with pytest.warns(UserWarning, match="geometric tail"):
        rho = thermal_state(1.0, n)
    seq = TransformSequence([("L1+", 0.4)])
    x2 = position(n) @ position(n)
    before, after = expectation_invariance_check(seq, x2, rho)
    assert abs(after - before) > 0.1
    # the number operator happens to be blind to this shear
    before, after = expectation_invariance_check(seq, number(n), rho)
    assert abs(after - before) < 1e-9


def test_steady_state_kernel_rule_matches_the_dense_spectrum_on_the_ladder():
    # the steady --fock-dim ladder's rotation: truncation lifts the null
    # eigenvalue above the 1e-8 window up to n = 18 and below it from 19
    outcomes = set()
    for n in range(12, 21):
        model = ("HPZ", "KL", "CL")[(n - 12) % 3]
        w = 0.8 + 0.05 * (n - 12)
        p = ModelParams(model, w, 0.4, 1.0, 0.3 if model == "HPZ" else 0.0)
        K = model_generator(p, n)
        evals, evecs = np.linalg.eig(K.mat)
        near_null = np.abs(evals) < 1e-8
        if near_null.sum() != 1:
            with pytest.raises(DegenerateKernelError,
                               match=f"kernel is {near_null.sum()}-dim"):
                steady_state(K)
            outcomes.add("degenerate")
            continue
        rho, _ = steady_state(K)
        dense = evecs[:, np.argmin(np.abs(evals))].reshape(n, n)
        dense = (dense + dense.conj().T) / 2
        dense /= np.trace(dense).real
        assert np.abs(rho - dense).max() < 1e-10, n
        outcomes.add("state")
    assert outcomes == {"degenerate", "state"}


def test_steady_state_with_an_exact_null_vector():
    # K vec(rho) = 0 exactly: a shift of zero would make K singular
    n = 24
    K = model_generator(ModelParams("CL", 1.0, 0.4, 0.5), n)
    rho, _ = steady_state(K)
    assert np.abs(rho - fock_projector(0, n)).max() < 1e-10
    # h0 iL0 + g0 (O0 - 1/2 - O+) + h1 (iM1 - L2+) + h2 (iM2 + L1+)
    # annihilates the vacuum for any (h0, g0, h1, h2)
    h0, g0, h1, h2 = 0.8, 0.5, 0.3, -0.2
    c = CoefficientVector(h0, h1, h2, g0, -g0, h2, -h1)
    K = build_generator(c, ten_generators(n, dense=False), n)
    rho, info = steady_state(K)
    assert np.abs(rho - fock_projector(0, n)).max() < 1e-12
    assert info["residual"] < 1e-13


def test_steady_state_at_the_smallest_cutoffs():
    # at n = 1 the shift-invert solver cannot take k = 2 (it needs
    # k < n^2 - 1); the dense spectrum decides there
    for n in (1, 2, 3):
        rho, _ = steady_state(
            model_generator(ModelParams("KL", 1.0, 0.4, 0.5), n))
        assert np.abs(rho - fock_projector(0, n)).max() < 1e-12
        with pytest.raises(DegenerateKernelError, match="0-dimensional"):
            steady_state(model_generator(ModelParams("KL", 1.0, 0.4, 1.0), n))


def test_steady_state_falls_back_to_the_dense_spectrum(monkeypatch):
    # when ARPACK returns no converged pair, the dense spectrum decides,
    # so a solver failure is never reported as a 0-dimensional kernel
    def no_pairs(mat, k, **kw):
        raise ArpackNoConvergence("no convergence", np.empty(0),
                                         np.empty((mat.shape[0], 0)))

    n = 12
    K = model_generator(ModelParams("CL", 1.0, 0.4, 0.5), n)
    monkeypatch.setattr(models, "eigs", no_pairs)
    assert np.abs(steady_state(K)[0] - fock_projector(0, n)).max() < 1e-12
    rotation = build_generator(CoefficientVector(2.0, 0, 0, 0, 0, 0, 0),
                               ten_generators(6, dense=False), 6)
    with pytest.raises(DegenerateKernelError, match="kernel is 6-dim"):
        steady_state(rotation)


def test_model_generator_is_sparse_with_a_dense_view():
    n = 12
    p = ModelParams("HPZ", 1.0, 0.4, 1.0, 0.3)
    K = model_generator(p, n)
    assert K.n == n
    assert K.csr.nnz < 0.1 * (n * n) ** 2
    want = build_generator(model_coefficients(p),
                           ten_generators(n, dense=False), n)
    assert np.array_equal(K.mat, want.toarray())
