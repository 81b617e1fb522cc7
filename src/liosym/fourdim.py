"""Exact 4x4 representation of the generator algebra.

Each bilinear generator J acts linearly on the ladder vector
X = (a1, a2, a1d, a2d) through [J, X_i] = -sum_j R(J)_ij X_j, which
assigns J a 4x4 matrix R(J).  The representation is exact (no cutoff), so
commutators, symplectic conditions, and conjugation flows can be checked
here to machine precision and serve as the oracle for the truncated
operator-space computations.

The ladder commutation relations are encoded by the antisymmetric form
beta (block [[0, I], [-I, 0]]); every R(J) obeys beta R symmetric, hence
exp(theta R)^T beta exp(theta R) = beta: the transformations are
symplectic.
"""

import numpy as np

from .generators import GENERATOR_NAMES, UNITARY, commutator_defect

_s1 = np.array([[0, 1], [1, 0]], dtype=complex)
_s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_s3 = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)


def _blk(a, b, c, d):
    return np.block([[a, b], [c, d]])


REP = {
    "iL0": 0.5j * _blk(_s3, _Z2, _Z2, -_s3),
    "iM1": 0.5j * _blk(_Z2, _s3, -_s3, _Z2),
    "iM2": 0.5 * _blk(_Z2, _I2, _I2, _Z2),
    "O0": 0.5 * _blk(_Z2, _s1, _s1, _Z2),
    "O+": 0.5 * _blk(-_I2, _s1, -_s1, _I2),
    "L1+": 0.5 * _blk(_s1, -_I2, _I2, -_s1),
    "L2+": 0.5 * _blk(_s2, 1j * _s3, 1j * _s3, _s2),
    "O-": 0.5 * _blk(_I2, _s1, -_s1, -_I2),
    "L1-": 0.5 * _blk(_s1, _I2, -_I2, -_s1),
    "L2-": 0.5 * _blk(_s2, -1j * _s3, -1j * _s3, _s2),
}

SYMPLECTIC_FORM = _blk(_Z2, _I2, -_I2, _Z2)


def rep_of_coefficients(coeffs):
    """4x4 image of the generic generator.  The scalar -g0/2 part is
    represented by zero (it commutes with the ladders), so conjugation
    flows can be tracked entirely in this representation."""
    h0, h1, h2, g0, gp, g1, g2 = coeffs
    return (h0 * REP["iL0"] + h1 * REP["iM1"] + h2 * REP["iM2"]
            + g0 * REP["O0"] + gp * REP["O+"] + g1 * REP["L1+"]
            + g2 * REP["L2+"])


def table_residual():
    """Worst |[R(A), R(B)] - table| over all ordered pairs (exact algebra,
    should be ~0)."""
    return max(np.abs(commutator_defect(REP, x, y)).max()
               for x in GENERATOR_NAMES for y in GENERATOR_NAMES)


def conjugation_residual(S, S_inv, c, c_new):
    """max |S R(c) S^-1 - R(c_new)|: how far the coefficient map c -> c_new
    is from conjugation by S."""
    lhs = S @ rep_of_coefficients(c) @ S_inv
    return float(np.abs(lhs - rep_of_coefficients(c_new)).max())


def symplectic_residual(S):
    """Max |S^T beta S - beta| (transpose, not adjoint: the condition is
    bilinear, valid for complex group elements)."""
    b = SYMPLECTIC_FORM
    return np.abs(S.T @ b @ S - b).max()


def completeness_residual():
    """sum_J R(J) R(J)† = 4 I over all ten generators."""
    s = sum(REP[n] @ REP[n].conj().T for n in GENERATOR_NAMES)
    return np.abs(s - 4 * np.eye(4)).max()


def orthogonality_residual():
    """tr(R(A)† R(B)) = c_A delta_AB with c = 1 on the unitary four and
    c = 2 on the rest."""
    worst = 0.0
    for i, x in enumerate(GENERATOR_NAMES):
        for y in GENERATOR_NAMES:
            t = np.trace(REP[x].conj().T @ REP[y])
            want = 0.0
            if x == y:
                want = 1.0 if x in UNITARY else 2.0
            worst = max(worst, abs(t - want))
    return worst


def ladder_action_residual(n, gens=None):
    """Check [J, X_i] = -sum_j R(J)_ij X_j on the truncated ladder maps,
    measured on the safe block.  gens is the generator set to check,
    sparse or dense; the sparse set is built when it is not given."""
    from .generators import ladder_superops, ten_generators
    from .liouville import safe_block_residual
    if gens is None:
        gens = ten_generators(n, dense=False)
    L = ladder_superops(n)
    X = [L["a1"], L["a2"], L["a1d"], L["a2d"]]
    worst = 0.0
    for name in GENERATOR_NAMES:
        for i in range(4):
            lhs = gens[name] @ X[i] - X[i] @ gens[name]
            rhs = -sum(REP[name][i, j] * X[j] for j in range(4))
            worst = max(worst, safe_block_residual(lhs - rhs, n))
    return worst
