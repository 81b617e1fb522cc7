"""Truncated-oscillator reference states."""

import numpy as np

from liosym.fock import annihilation, coherent_projector


def test_coherent_projector_is_an_eigenstate_of_a():
    n = 30
    z = 0.6 - 0.8j
    rho = coherent_projector(z, n)
    assert abs(np.trace(rho) - 1) < 1e-14
    # a|z> = z|z> away from the truncation edge
    a = annihilation(n)
    amps = rho[:, 0] / np.sqrt(rho[0, 0].real)
    assert np.abs((a @ amps)[:n - 5] - z * amps[:n - 5]).max() < 1e-12


def test_coherent_projector_at_a_large_cutoff():
    # sqrt(171!) overflows a float; the amplitude recurrence does not
    rho = coherent_projector(1.0, 200)
    assert abs(np.trace(rho) - 1) < 1e-14
    assert np.abs(rho[:30, :30] - coherent_projector(1.0, 30)).max() < 1e-12
