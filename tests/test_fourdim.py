import numpy as np
import pytest
from scipy.linalg import expm

from liosym.fourdim import (REP, SYMPLECTIC_FORM, completeness_residual,
                            ladder_action_residual,
                            orthogonality_residual, rep_of_coefficients,
                            symplectic_residual, table_residual)
from liosym.generators import GENERATOR_NAMES, UNITARY


def test_table_closes_exactly():
    assert table_residual() == 0.0


def test_symplectic_form_invariance_of_group_elements():
    for name in GENERATOR_NAMES:
        for theta in (0.3, 1.0):
            S = expm(theta * REP[name])
            assert symplectic_residual(S) < 1e-12, (name, theta)


def test_generators_are_hamiltonian_matrices():
    # beta J symmetric is the infinitesimal version of the group condition
    beta = SYMPLECTIC_FORM
    for name in GENERATOR_NAMES:
        M = beta @ REP[name]
        assert np.abs(M - M.T).max() < 1e-14, name


def test_completeness_and_orthogonality():
    assert completeness_residual() < 1e-14
    assert orthogonality_residual() < 1e-14


def test_rep_of_coefficients_drops_the_scalar():
    c = (0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0)
    assert np.abs(rep_of_coefficients(c) - 2.0 * REP["O0"]).max() == 0.0


def test_unitary_directions_have_unit_norm_rest_two():
    for name in GENERATOR_NAMES:
        t = np.trace(REP[name].conj().T @ REP[name]).real
        want = 1.0 if name in UNITARY else 2.0
        assert t == pytest.approx(want, abs=1e-14), name


def test_ladder_action_matches_fock_commutators():
    assert ladder_action_residual(10) < 1e-12
