import numpy as np
import pytest

from liosym.fock import fock_projector, random_density, thermal_state
from liosym.generators import (COMMUTATION_TABLE, CONSERVING,
                               GENERATOR_NAMES, NONCONSERVING, UNITARY,
                               CoefficientVector, build_generator,
                               commutation_residuals, ladder_superops,
                               ten_generators, trace_moment,
                               trace_residuals)
from liosym.liouville import (adjoint_symmetry_residual, safe_block_residual,
                              unvec, vec)

RNG = np.random.default_rng(11)


def test_ladder_superops_commutators():
    n = 10
    L = ladder_superops(n)
    for lower, raiser in (("a1", "a1d"), ("a2", "a2d")):
        comm = L[lower] @ L[raiser] - L[raiser] @ L[lower]
        assert safe_block_residual(comm - np.eye(n * n), n) < 1e-13
    # the two copies commute
    comm = L["a1"] @ L["a2d"] - L["a2d"] @ L["a1"]
    assert safe_block_residual(comm, n) < 1e-13


def test_ladder_superops_act_on_the_right_sides():
    n = 8
    L = ladder_superops(n)
    rho = random_density(n, RNG, support=n - 2)
    from liosym.fock import annihilation
    a = annihilation(n)
    assert np.allclose(unvec(L["a1"] @ vec(rho), n), a @ rho, atol=1e-13)
    assert np.allclose(unvec(L["a2"] @ vec(rho), n), rho @ a.conj().T,
                       atol=1e-13)
    assert np.allclose(unvec(L["a2d"] @ vec(rho), n), rho @ a, atol=1e-13)


def test_generator_hermiticity_classes():
    # truncation preserves (anti)hermiticity exactly: the cutoff ladder
    # operators stay exact adjoints of each other
    n = 10
    gens = ten_generators(n)
    for name in UNITARY:
        J = gens[name]
        assert np.abs(J + J.conj().T).max() < 1e-13, name
    for name in CONSERVING + NONCONSERVING:
        J = gens[name]
        assert np.abs(J - J.conj().T).max() < 1e-13, name


def test_commutation_table_closure_on_safe_block():
    res = commutation_residuals(12)
    worst = max(res.values())
    assert worst < 1e-10, f"worst commutator residual {worst:.3e}"


def test_commutation_table_is_antisymmetric():
    for x in GENERATOR_NAMES:
        for y in GENERATOR_NAMES:
            exy = COMMUTATION_TABLE[x][y]
            eyx = COMMUTATION_TABLE[y][x]
            if exy is None:
                assert eyx is None
            else:
                assert eyx == (-exy[0], exy[1])


def test_adjoint_symmetry_of_all_ten():
    n = 10
    gens = ten_generators(n)
    for name in GENERATOR_NAMES:
        assert adjoint_symmetry_residual(gens[name], n) < 1e-12, name


def test_build_generator_assembles_the_scalar_shift():
    n = 8
    gens = ten_generators(n)
    c = CoefficientVector(0, 0, 0, 2.0, 0, 0, 0)
    K = build_generator(c, gens, n)
    want = 2.0 * (gens["O0"] - np.eye(n * n) / 2)
    assert np.abs(K - want).max() == 0.0


def test_conserving_trace_identities_seeded():
    n = 12
    gens = ten_generators(n)
    worst = 0.0
    for _ in range(50):
        rho = random_density(n, RNG, support=n - 4)
        res = trace_residuals(rho, gens, n)
        worst = max(worst, max(res[k] for k in UNITARY + CONSERVING))
    assert worst < 1e-10


def test_nonconserving_traces_give_second_moments():
    n = 12
    gens = ten_generators(n)
    for _ in range(10):
        rho = random_density(n, RNG, support=n - 4)
        res = trace_residuals(rho, gens, n)
        for name in NONCONSERVING:
            assert res[name] < 1e-10, name


def test_trace_moment_on_thermal_state():
    n = 30
    rho = thermal_state(1.0, n)
    # <a†a + a a†> = 2<n> + 1 = 2b with <n> = b - 1/2
    assert trace_moment("O-", rho).real == pytest.approx(2.0, abs=1e-10)
    assert abs(trace_moment("L1-", rho)) < 1e-10
    assert abs(trace_moment("L2-", rho)) < 1e-10


def test_number_conserving_generator_keeps_fock_states_diagonal():
    n = 10
    gens = ten_generators(n)
    rho = fock_projector(3, n)
    # iL0 generates phase rotation: diagonal states are fixed points
    out = unvec(gens["iL0"] @ vec(rho), n)
    assert np.abs(out).max() < 1e-13


@pytest.mark.parametrize("n", [8, 12])
def test_ten_generators_match_an_independent_kron_construction(n):
    # each bilinear written as a sum of sandwiches x1 rho x2, every one
    # vectorized as np.kron(x1, x2.T) on its own
    from liosym.fock import annihilation
    a = annihilation(n)
    ad = a.conj().T
    eye = np.eye(n, dtype=complex)

    def S(*terms):
        return sum(c * np.kron(x1, x2.T) for c, x1, x2 in terms)

    want = {
        "iL0": 0.5j * S((1, ad @ a, eye), (-1, eye, ad @ a)),
        "iM1": 0.25j * S((1, ad @ ad, eye), (1, a @ a, eye),
                         (-1, eye, a @ a), (-1, eye, ad @ ad)),
        "iM2": 0.25 * S((1, ad @ ad, eye), (-1, a @ a, eye),
                        (1, eye, a @ a), (-1, eye, ad @ ad)),
        "O0": 0.5 * S((1, ad, a), (-1, a, ad)),
        "O+": 0.5 * S((1, ad, a), (1, a, ad), (-1, ad @ a, eye),
                      (-1, eye, ad @ a), (-1, eye, eye)),
        "L1+": 0.25 * S((2, ad, ad), (2, a, a), (-1, ad @ ad, eye),
                        (-1, a @ a, eye), (-1, eye, a @ a),
                        (-1, eye, ad @ ad)),
        "L2+": -0.25j * S((2, ad, ad), (-2, a, a), (-1, ad @ ad, eye),
                          (1, a @ a, eye), (1, eye, a @ a),
                          (-1, eye, ad @ ad)),
        "O-": 0.5 * S((1, ad, a), (1, a, ad), (1, ad @ a, eye),
                      (1, eye, ad @ a), (1, eye, eye)),
        "L1-": 0.25 * S((2, ad, ad), (2, a, a), (1, ad @ ad, eye),
                        (1, a @ a, eye), (1, eye, a @ a),
                        (1, eye, ad @ ad)),
        "L2-": -0.25j * S((2, ad, ad), (-2, a, a), (1, ad @ ad, eye),
                          (-1, a @ a, eye), (-1, eye, a @ a),
                          (1, eye, ad @ ad)),
    }
    gens = ten_generators(n)
    assert set(gens) == set(want)
    for name in GENERATOR_NAMES:
        assert gens[name].shape == (n * n, n * n)
        assert np.abs(gens[name] - want[name]).max() < 1e-14, name

