"""Truncated-oscillator operators on the first n Fock levels.

Conventions: hbar = m = 1, a = (x + ip)/sqrt(2), so x = (a + a†)/sqrt(2)
and p = (a - a†)/(i sqrt(2)).  All matrices are dense complex n x n.
"""

import math
import warnings

import numpy as np


def annihilation(n):
    """Lowering operator a with a|m> = sqrt(m)|m-1>."""
    a = np.zeros((n, n), dtype=complex)
    m = np.arange(1, n)
    a[m - 1, m] = np.sqrt(m)
    return a


def number(n):
    return np.diag(np.arange(n).astype(complex))


def position(n):
    a = annihilation(n)
    return (a + a.conj().T) / np.sqrt(2)


def momentum(n):
    a = annihilation(n)
    return (a - a.conj().T) / (1j * np.sqrt(2))


def fock_projector(k, n):
    """Density matrix |k><k|."""
    if not 0 <= k < n:
        raise ValueError(f"level {k} outside cutoff {n}")
    rho = np.zeros((n, n), dtype=complex)
    rho[k, k] = 1.0
    return rho


def coherent_projector(z, n):
    """Density matrix |z><z| of the coherent state a|z> = z|z>.

    Amplitudes are the truncated expansion e^{-|z|^2/2} z^k / sqrt(k!),
    built by the recurrence amp_k = amp_{k-1} z / sqrt(k) (no factorial,
    so no overflow at large n) and renormalized on the retained levels.
    """
    amps = np.empty(n, dtype=complex)
    amps[0] = np.exp(-abs(z) ** 2 / 2)
    for k in range(1, n):
        amps[k] = amps[k - 1] * z / math.sqrt(k)
    amps /= np.linalg.norm(amps)
    return np.outer(amps, amps.conj())


def thermal_state(b, n):
    """Thermal (Gibbs) state with mean quadratures <x^2> = <p^2> = b.

    Populations are geometric, p_k = (1-q) q^k with q = (2b-1)/(2b+1);
    b = 1/2 is the vacuum.  The retained populations are renormalized,
    with a warning when the discarded tail q^n is above 1e-12; a b so
    large that q rounds to 1 leaves none, and raises OverflowError.
    """
    if b < 0.5:
        raise ValueError("thermal parameter must be >= 1/2")
    q = (2 * b - 1) / (2 * b + 1)
    if q == 1:
        raise OverflowError(f"b = {b:g}: q = (2b-1)/(2b+1) rounds to 1")
    if q ** n > 1e-12:
        warnings.warn(
            f"cutoff {n} retains a geometric tail q^n = {q**n:.2e} > 1e-12; "
            "populations will be visibly truncated", stacklevel=2)
    pops = (1 - q) * q ** np.arange(n) if q > 0 else np.eye(n)[0]
    pops = pops / pops.sum()
    return np.diag(pops).astype(complex)


def random_density(n, rng, support=None):
    """Random full-rank density matrix B B† / tr, optionally confined to the
    lowest `support` levels (exact zeros above, for truncation-safe checks)."""
    k = support if support is not None else n
    B = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    r = B @ B.conj().T
    r /= np.trace(r).real
    rho = np.zeros((n, n), dtype=complex)
    rho[:k, :k] = r
    return rho
