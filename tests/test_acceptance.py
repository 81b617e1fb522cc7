"""Acceptance suite: the ten package-level guarantees, one test each.

Each test prints a single "criterion k: PASS/FAIL" line with the worst
measured numbers next to the budget it is held to, then asserts.  Run
with -v (test names give the per-criterion verdict) or -s to see the
printed lines inline.
"""

import functools
import math
import time

import numpy as np
from scipy.linalg import expm

from liosym import (
    ModelParams,
    StationaryGaussian,
    TransformSequence,
    apply_sequence,
    build_generator,
    coefficient_map,
    expectation_invariance_check,
    fock_projector,
    kl2cl_theta,
    model_coefficients,
    model_generator,
    momentum,
    number,
    position,
    position_rep_residual,
    positivity_boundary,
    steady_state,
    superop_similarity,
    ten_generators,
    transformation,
)
from liosym.checks import SUITE
from liosym.cli import DEFAULT_SEED
from liosym.fourdim import REP, conjugation_residual
from liosym.generators import (CONSERVING, GENERATOR_NAMES, UNITARY,
                               trace_residuals)
from liosym.liouville import adjoint_symmetry_residual, safe_block_residual, vec

J0_AND_JPLUS = UNITARY + CONSERVING


def report(k, ok, detail):
    print(f"criterion {k}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


@functools.lru_cache(maxsize=None)
def suite(n):
    """Residual and seconds of each check of the verify suite at cutoff n
    (tol 1e-10, the default seed), by name."""
    rng = np.random.default_rng(DEFAULT_SEED)
    gens = ten_generators(n, dense=False)
    out, t0 = {}, time.time()
    for group in SUITE:
        for name, residual, _, _ in group(n, 1e-10, rng, gens):
            out[name] = (residual, time.time() - t0)
            t0 = time.time()
    return out


def worst(n, prefix):
    """Largest residual and summed seconds of the checks named prefix*."""
    got = [v for name, v in suite(n).items() if name.startswith(prefix)]
    return max(r for r, _ in got), sum(dt for _, dt in got)


def test_criterion_01_commutation_table_exact_representation():
    res, dt = worst(8, "table-4d")
    ok = res <= 1e-13 and dt < 1.0
    report(1, ok, f"4x4 table residual {res:.2e} <= 1e-13")


def test_criterion_02_commutation_table_fock_space():
    res, dt = worst(12, "commutator[")
    ok = res <= 1e-10 and dt < 10.0
    report(2, ok, f"Fock table at N=12, worst of 45 pairs {res:.2e} "
                  f"<= 1e-10, {dt:.1f}s")


def test_criterion_03_adjoint_symmetry():
    n = 8
    worst_gen = max(worst(n, f"adjoint-symmetry[{x}]")[0]
                    for x in GENERATOR_NAMES)
    gens = ten_generators(n, dense=False)
    worst_exp = 0.0
    for name in J0_AND_JPLUS:
        for a in (0.5, -0.5, 1.0, -1.0):
            worst_exp = max(worst_exp, adjoint_symmetry_residual(
                expm(a * gens[name].toarray()), n))
    counter = adjoint_symmetry_residual(expm(0.5j * gens["O+"].toarray()), n)
    ok = worst_gen <= 1e-11 and worst_exp <= 1e-11 and counter > 1e-6
    report(3, ok, f"generators {worst_gen:.2e}, exponentials {worst_exp:.2e} "
                  f"<= 1e-11; exp(0.5i O+) breaks it at {counter:.2e}")


def test_criterion_04_trace_identities():
    n = 12
    gens = ten_generators(n, dense=False)
    rng = np.random.default_rng(2024)
    from liosym import random_density
    worst_cons, worst_mom = 0.0, 0.0
    for _ in range(50):
        rho = random_density(n, rng, support=n - 4)
        res = trace_residuals(rho, gens, n)
        for name, r in res.items():
            if name.endswith("-"):
                worst_mom = max(worst_mom, r)
            else:
                worst_cons = max(worst_cons, r)
    ok = worst_cons <= 1e-10 and worst_mom <= 1e-10
    report(4, ok, f"50 random states: zero-traces {worst_cons:.2e}, "
                  f"moment formulas {worst_mom:.2e} <= 1e-10")


def test_criterion_05_coefficient_map_oracle_suite():
    # the seven one-step coefficient maps, checked against conjugation on
    # two independent routes: exactly in the faithful 4x4 representation
    # at finite parameter, and first-order (commutator) plus the compact
    # rotation at finite parameter in Fock space.  Finite-parameter Fock
    # conjugation of the six non-compact steps is excluded: truncating
    # their exponentials corrupts even the safe block at any workable
    # cutoff (residuals reach 1e11 for the shears at N=14).
    t0 = time.time()
    rng = np.random.default_rng(77)
    worst4 = 0.0
    for _ in range(200):
        c = tuple(rng.uniform(-1, 1, 7))
        for name in J0_AND_JPLUS:
            p = float(rng.uniform(-1, 1))
            step = TransformSequence([(name, p)]).steps[0]
            S = expm(p * REP[name])
            worst4 = max(worst4, conjugation_residual(
                S, np.linalg.inv(S), c, coefficient_map(step, c)))

    n = 14
    worst_rate = worst(n, "coefficient-map-rate[")[0]

    gens = ten_generators(n, dense=False)
    c = tuple(rng.uniform(-1, 1, 7))
    K = build_generator(c, gens, n)
    seq = TransformSequence([("iL0", 0.8)])
    lhs = superop_similarity(seq, K, n)
    rhs = build_generator(apply_sequence(seq, c), gens, n).toarray()
    rot_res = safe_block_residual(lhs - rhs, n)

    # the three rotations preserve both hyperbolic lengths; O0 rescales
    # the g-block and is checked through g0 invariance instead
    worst_len = 0.0
    worst_g0 = 0.0
    for _ in range(50):
        c = tuple(rng.uniform(-1, 1, 7))
        for name in ("iL0", "iM1", "iM2"):
            p = float(rng.uniform(-1, 1))
            out = coefficient_map(TransformSequence([(name, p)]).steps[0], c)
            h_in = -c[0] ** 2 + c[1] ** 2 + c[2] ** 2
            h_out = -out.h0 ** 2 + out.h1 ** 2 + out.h2 ** 2
            g_in = -c[4] ** 2 + c[5] ** 2 + c[6] ** 2
            g_out = -out.gp ** 2 + out.g1 ** 2 + out.g2 ** 2
            worst_len = max(worst_len, abs(h_in - h_out), abs(g_in - g_out))
        for name in J0_AND_JPLUS:
            p = float(rng.uniform(-1, 1))
            out = coefficient_map(TransformSequence([(name, p)]).steps[0], c)
            worst_g0 = max(worst_g0, abs(out.g0 - c[3]))
    dt = time.time() - t0
    ok = (worst4 <= 1e-8 and worst_rate <= 1e-10 and rot_res <= 1e-8
          and worst_len <= 1e-10 and worst_g0 == 0.0 and dt < 60.0)
    report(5, ok, f"200x7 exact-representation conjugations {worst4:.2e} "
                  f"<= 1e-8; Fock commutators {worst_rate:.2e}; finite "
                  f"rotation {rot_res:.2e}; lengths {worst_len:.2e}; "
                  f"g0 drift {worst_g0:.1e}; {dt:.1f}s")


def test_criterion_06_symplectic_condition():
    symp = worst(8, "symplectic[")[0]
    comp = worst(8, "completeness")[0]
    orth = worst(8, "orthogonality")[0]
    ok = symp <= 1e-12 and comp <= 1e-14 and orth <= 1e-14
    report(6, ok, f"exp(theta J) symplectic {symp:.2e} <= 1e-12; "
                  f"completeness {comp:.2e}, orthogonality {orth:.2e} "
                  f"<= 1e-14")


def test_criterion_07_stationary_states():
    n = 30
    rho, _ = steady_state(model_generator(ModelParams("KL", 1.0, 0.4, 1.0),
                                          n))
    lam = 1.0 / 3.0
    kl_err = float(np.abs(np.diag(rho).real
                          - (1 - lam) * lam ** np.arange(n)).max())

    x2_op = position(n) @ position(n)
    p2_op = momentum(n) @ momentum(n)
    rho, _ = steady_state(model_generator(ModelParams("CL", 1.0, 0.4, 1.0),
                                          n))
    cl_err = max(abs(np.trace(x2_op @ rho).real - 1.0),
                 abs(np.trace(p2_op @ rho).real - 1.0))
    rho, _ = steady_state(model_generator(
        ModelParams("HPZ", 1.0, 0.4, 1.0, 0.5), n))
    hpz_err = abs(np.trace(x2_op @ rho).real - 1.25)

    pos_res = max(
        position_rep_residual("KL", StationaryGaussian(1.0)),
        position_rep_residual("CL", StationaryGaussian(1.0)),
        position_rep_residual("HPZ", StationaryGaussian(1.0, 0.5)))
    ok = (kl_err <= 1e-8 and cl_err <= 1e-6 and hpz_err <= 1e-5
          and pos_res <= 1e-6)
    report(7, ok, f"KL populations {kl_err:.2e} <= 1e-8; CL moments "
                  f"{cl_err:.2e} <= 1e-6; HPZ <x^2> {hpz_err:.2e} <= 1e-5; "
                  f"position-space residual {pos_res:.2e} <= 1e-6")


def test_criterion_08_cross_model_maps():
    p = ModelParams("KL", 1.0, 0.6, 1.0)
    new, seq = transformation("kl2cl", p, kl2cl_theta(p.gamma, p.omega0))
    ch = math.sqrt(1.09)
    param_err = max(abs(new.omega0 - ch), abs(new.b - 1 / ch),
                    abs(new.gamma - 0.6))

    def conj_residual(src, dst, seq):
        return conjugation_residual(seq.rep4(), seq.inverse().rep4(),
                                    model_coefficients(src),
                                    model_coefficients(dst))

    res_klcl = conj_residual(p, new, seq)

    p = ModelParams("CL", 1.0, 0.4, 1.0)
    new, seq = transformation("cl2hpz", p, 0.5)
    param_err = max(param_err, abs(new.b - 1.25), abs(new.d + 1.0))
    res_clhpz = conj_residual(p, new, seq)

    ok = param_err <= 1e-12 and max(res_klcl, res_clhpz) <= 1e-8
    report(8, ok, f"parameter relations {param_err:.2e}; conjugation "
                  f"residuals kl->cl {res_klcl:.2e}, cl->hpz "
                  f"{res_clhpz:.2e} <= 1e-8")


def test_criterion_09_positivity_boundaries():
    t0 = time.time()
    s = StationaryGaussian(1.0)
    beta = positivity_boundary("translate", s, n=24)["boundary"]
    zeta = positivity_boundary("cl2hpz", s, n=24)["upper"]
    beta_err = abs(beta - (-1.0))
    zeta_err = abs(zeta - math.sqrt(3.0))

    alpha = positivity_boundary("thermal", s, n=24)["boundary"]
    printed, derived = math.log(2.0), -math.log(2.0)
    dev_printed, dev_derived = abs(alpha - printed), abs(alpha - derived)
    supports = "derived" if dev_derived < dev_printed else "printed"
    print(f"thermal-dilation boundary report: scan {alpha:+.6f}, printed "
          f"form {printed:+.6f} (off by {dev_printed:.2e}), derived form "
          f"{derived:+.6f} (off by {dev_derived:.2e}); the scan supports "
          f"the {supports} form")
    dt = time.time() - t0
    ok = (beta_err <= 1e-3 and zeta_err <= 1e-3
          and supports == "derived" and dev_derived <= 1e-3 and dt < 120.0)
    report(9, ok, f"translate boundary off by {beta_err:.2e}, cl->hpz by "
                  f"{zeta_err:.2e} <= 1e-3; thermal scan {alpha:+.5f} "
                  f"sides with the derived form ({dev_derived:.2e}); "
                  f"{dt:.1f}s")


def test_criterion_10_dynamics_sanity():
    n = 20
    rho0 = fock_projector(1, n)
    from liosym import evolve

    worst_tr, worst_herm, worst_semi = 0.0, 0.0, 0.0
    final = None
    for p in (ModelParams("KL", 1.0, 0.4, 0.9),
              ModelParams("CL", 1.0, 0.4, 0.9),
              ModelParams("HPZ", 1.0, 0.4, 0.9, 0.1)):
        K = model_generator(p, n)
        # gamma = 0.4, so t <= 20/gamma
        traj = evolve(K, rho0, 50.0, 100)
        worst_tr = max(worst_tr, traj.max_trace_violation)
        worst_herm = max(worst_herm, traj.max_herm_violation)
        # independent composition check: one exp(-10K) hop from t=15
        # against the state the trajectory reached at t=25
        hop = expm(-10.0 * K.mat)
        semi = np.abs(hop @ vec(traj.states[30])
                      - vec(traj.states[50])).max()
        worst_semi = max(worst_semi, float(semi))
        final = traj.states[-1]

    seq = TransformSequence([("iL0", 0.7), ("iM1", 0.3), ("O0", 0.4)])
    worst_inv = 0.0
    for o in (number(n), position(n) @ position(n)):
        before, after = expectation_invariance_check(seq, o, final)
        worst_inv = max(worst_inv, abs(after - before))
    before, after = expectation_invariance_check(
        TransformSequence([("L1+", 0.4)]), position(n) @ position(n), final)
    shear_change = abs(after - before)

    ok = (worst_tr <= 1e-8 and worst_herm <= 1e-9 and worst_semi <= 1e-9
          and worst_inv <= 1e-9 and shear_change > 0.01)
    report(10, ok, f"trace {worst_tr:.2e} <= 1e-8; hermiticity "
                   f"{worst_herm:.2e} <= 1e-9; composition {worst_semi:.2e} "
                   f"<= 1e-9; unitary-sequence invariance {worst_inv:.2e} "
                   f"<= 1e-9; L1+ shifts <x^2> by {shear_change:.3f}")
