"""The ten bilinear generators of damped-oscillator dynamics in operator space.

Operator space of one oscillator carries two commuting sets of ladder maps
(thermofield doubling): a1 multiplies by a from the left, a2 by a† from the
right,

    a1  rho = a rho      a1d rho = a† rho
    a2  rho = rho a†     a2d rho = rho a

with [a1, a1d] = [a2, a2d] = 1.  The hermiticity-preserving bilinears in
these close under commutation on a ten-dimensional Lie algebra, listed in
COMMUTATION_TABLE below.  They split into

    UNITARY        iL0, iM1, iM2, O0  -- anti-hermitian matrices, so their
                                         exponentials are operator-space
                                         unitaries (rotations, thermal
                                         Bogoliubov mixing);
    CONSERVING     O+, L1+, L2+       -- hermitian, zero trace against any
                                         density matrix, so probability is
                                         conserved but the map is not
                                         unitary (dilations, translations);
    NONCONSERVING  O-, L1-, L2-       -- hermitian, trace picks up second
                                         moments of rho (see trace_moment).

Only UNITARY + CONSERVING may appear in physical generators and symmetry
transformations; the NONCONSERVING three complete the algebra.

The ten are built sparse, from sparse ladder krons.  Every library caller
asks ten_generators for that sparse set (dense=False) and densifies at
most one generator at a time, for an exponential.
"""

from typing import NamedTuple

import numpy as np
from scipy import sparse

from .fock import annihilation
from .liouville import make_superoperator

GENERATOR_NAMES = ("iL0", "iM1", "iM2", "O0",
                   "O+", "L1+", "L2+",
                   "O-", "L1-", "L2-")
UNITARY = ("iL0", "iM1", "iM2", "O0")
CONSERVING = ("O+", "L1+", "L2+")
NONCONSERVING = ("O-", "L1-", "L2-")


def ladder_superops(n):
    """The four basic ladder maps a1, a1d, a2, a2d as sparse n^2 x n^2
    matrices."""
    a = sparse.csr_array(annihilation(n))
    ad = a.conj().T
    eye = sparse.eye_array(n, dtype=complex)
    return {
        "a1": make_superoperator(a, eye),
        "a1d": make_superoperator(ad, eye),
        "a2": make_superoperator(eye, ad),
        "a2d": make_superoperator(eye, a),
    }


def ten_generators(n, dense=True):
    """All ten bilinear generators at cutoff n, keyed by name: sparse
    products of the ladder maps, as dense arrays unless dense=False."""
    L = ladder_superops(n)
    a1, a1d, a2, a2d = L["a1"], L["a1d"], L["a2"], L["a2d"]
    eye = sparse.eye_array(n * n, dtype=complex, format="csr")
    gens = {
        "iL0": 0.5j * (a1d @ a1 - a2d @ a2),
        "iM1": 0.25j * (a1d @ a1d + a1 @ a1 - a2d @ a2d - a2 @ a2),
        "iM2": 0.25 * (a1d @ a1d - a1 @ a1 + a2d @ a2d - a2 @ a2),
        "O0": 0.5 * (a1d @ a2d - a1 @ a2),
        "O+": 0.5 * (a1d @ a2d + a1 @ a2 - a1d @ a1 - a2d @ a2 - eye),
        "L1+": 0.25 * (2 * a1d @ a2 + 2 * a1 @ a2d
                       - a1d @ a1d - a1 @ a1 - a2d @ a2d - a2 @ a2),
        "L2+": -0.25j * (2 * a1d @ a2 - 2 * a1 @ a2d
                         - a1d @ a1d + a1 @ a1 + a2d @ a2d - a2 @ a2),
        "O-": 0.5 * (a1d @ a2d + a1 @ a2 + a1d @ a1 + a2d @ a2 + eye),
        "L1-": 0.25 * (2 * a1d @ a2 + 2 * a1 @ a2d
                       + a1d @ a1d + a1 @ a1 + a2d @ a2d + a2 @ a2),
        "L2-": -0.25j * (2 * a1d @ a2 - 2 * a1 @ a2d
                         + a1d @ a1d - a1 @ a1 - a2d @ a2d + a2 @ a2),
    }
    if dense:
        return {name: J.toarray() for name, J in gens.items()}
    return gens


def _table():
    # [row, col] = single term (coeff, name); None means the bracket vanishes.
    # Column order follows GENERATOR_NAMES.
    t = {}

    def row(name, entries):
        t[name] = dict(zip(GENERATOR_NAMES, entries))

    row("iL0", [None, (-1, "iM2"), (1, "iM1"), None,
                None, (-1, "L2+"), (1, "L1+"),
                None, (-1, "L2-"), (1, "L1-")])
    row("iM1", [(1, "iM2"), None, (1, "iL0"), None,
                (1, "L2+"), None, (1, "O+"),
                (1, "L2-"), None, (1, "O-")])
    row("iM2", [(-1, "iM1"), (-1, "iL0"), None, None,
                (-1, "L1+"), (-1, "O+"), None,
                (-1, "L1-"), (-1, "O-"), None])
    row("O0", [None, None, None, None,
               (1, "O+"), (1, "L1+"), (1, "L2+"),
               (-1, "O-"), (-1, "L1-"), (-1, "L2-")])
    row("O+", [None, (-1, "L2+"), (1, "L1+"), (-1, "O+"),
               None, None, None,
               (-2, "O0"), (-2, "iM2"), (2, "iM1")])
    row("L1+", [(1, "L2+"), None, (1, "O+"), (-1, "L1+"),
                None, None, None,
                (2, "iM2"), (2, "O0"), (2, "iL0")])
    row("L2+", [(-1, "L1+"), (-1, "O+"), None, (-1, "L2+"),
                None, None, None,
                (-2, "iM1"), (-2, "iL0"), (2, "O0")])
    row("O-", [None, (-1, "L2-"), (1, "L1-"), (1, "O-"),
               (2, "O0"), (-2, "iM2"), (2, "iM1"),
               None, None, None])
    row("L1-", [(1, "L2-"), None, (1, "O-"), (1, "L1-"),
                (2, "iM2"), (-2, "O0"), (2, "iL0"),
                None, None, None])
    row("L2-", [(-1, "L1-"), (-1, "O-"), None, (1, "L2-"),
                (-2, "iM1"), (-2, "iL0"), (-2, "O0"),
                None, None, None])
    return t


COMMUTATION_TABLE = _table()


class CoefficientVector(NamedTuple):
    """Coefficients of a generic dynamical generator.

    K = h0 iL0 + h1 iM1 + h2 iM2 + g0 (O0 - 1/2) + gp O+ + g1 L1+ + g2 L2+

    The h's multiply unitary directions, the g's the hermitian conserving
    ones; the -g0/2 scalar makes the O0 part traceless against rho.
    """
    h0: float
    h1: float
    h2: float
    g0: float
    gp: float
    g1: float
    g2: float


def build_generator(coeffs, gens, n):
    """Sparse matrix of the generic generator from the sparse set gens."""
    c = CoefficientVector(*coeffs)
    eye = sparse.eye_array(n * n, dtype=complex)
    return (c.h0 * gens["iL0"] + c.h1 * gens["iM1"] + c.h2 * gens["iM2"]
            + c.g0 * (gens["O0"] - eye / 2)
            + c.gp * gens["O+"] + c.g1 * gens["L1+"] + c.g2 * gens["L2+"])


def commutator_defect(gens, x, y):
    """[x, y] minus its COMMUTATION_TABLE entry, for the ten matrices gens
    of any representation."""
    comm = gens[x] @ gens[y] - gens[y] @ gens[x]
    entry = COMMUTATION_TABLE[x][y]
    if entry is not None:
        coeff, name = entry
        comm = comm - coeff * gens[name]
    return comm


def commutation_residuals(n, gens):
    """Max residual of [A, B] against COMMUTATION_TABLE for every pair with
    A before B in GENERATOR_NAMES, measured on the safe block of the
    sparse set gens.  [B, A] = -[A, B] and the table is antisymmetric, so
    the other pairs repeat these."""
    from .liouville import safe_block_residual
    return {(x, y): safe_block_residual(commutator_defect(gens, x, y), n)
            for i, x in enumerate(GENERATOR_NAMES)
            for y in GENERATOR_NAMES[i + 1:]}


def trace_residuals(rho, gens, n):
    """Residuals of the trace identities on the sparse set gens.

    The seven conserving directions give tr(J rho) = 0 (with O0 shifted by
    -1/2); the three others reproduce second moments (see trace_moment).
    rho should vanish on the top two levels for these to hold exactly at
    finite cutoff.
    """
    from .liouville import unvec, vec
    v = vec(rho)
    out = {}
    for name in GENERATOR_NAMES:
        tr = np.trace(unvec(gens[name] @ v, n))
        if name == "O0":
            tr = tr - np.trace(rho) / 2
        elif name in NONCONSERVING:
            tr = tr - trace_moment(name, rho)
        out[name] = abs(tr)
    return out


def trace_moment(name, rho):
    """Second moment reproduced by the trace of a nonconserving generator."""
    n = rho.shape[0]
    a = annihilation(n)
    ad = a.conj().T
    if name == "O-":
        return np.trace((ad @ a + a @ ad) @ rho)
    if name == "L1-":
        return np.trace((ad @ ad + a @ a) @ rho)
    if name == "L2-":
        return -1j * np.trace((ad @ ad - a @ a) @ rho)
    raise ValueError(f"no moment formula for {name}")
