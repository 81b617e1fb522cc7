"""Operator-space (vectorized) calculus for a truncated oscillator.

A density matrix rho on n levels becomes the length-n^2 vector vec(rho)
with row-major indexing, |m><n| -> m*n_levels + n.  A map of the form
rho -> x1 rho x2 then acts as the matrix kron(x1, x2.T), and composition
of maps is plain matrix multiplication.

Besides the matrix transpose and adjoint, operator space carries a third
conjugation, here called association:

    assoc(X) = swap . conj(X) . swap

where swap is the permutation exchanging bra and ket indices.  For a
factorized map x1 (.) x2 it returns x2† (.) x1†, and it is antilinear:
assoc(c X Y) = conj(c) assoc(X) assoc(Y).  Maps with assoc(X) = X are
exactly the ones that preserve hermiticity of density matrices, which is
the symmetry all physical generators below must satisfy.
"""

import numpy as np
from scipy import sparse


def vec(rho):
    """Row-major vectorization."""
    return np.asarray(rho, dtype=complex).reshape(-1)


def unvec(v, n):
    return np.asarray(v, dtype=complex).reshape(n, n)


def swap_indices(n):
    """Permutation p with p[m*n + k] = k*n + m (bra/ket exchange)."""
    i = np.arange(n * n)
    return (i % n) * n + i // n


def make_superoperator(x1, x2):
    """Matrix of rho -> x1 rho x2, sparse CSR when a factor is sparse."""
    if sparse.issparse(x1) or sparse.issparse(x2):
        return sparse.kron(x1, x2.T, format="csr")
    x1 = np.asarray(x1, dtype=complex)
    x2 = np.asarray(x2, dtype=complex)
    return np.kron(x1, x2.T)


def associate_super(X, n):
    """Association: x1 (.) x2 -> x2† (.) x1†  (transpose of the adjoint)."""
    p = swap_indices(n)
    return X.conj()[np.ix_(p, p)]


def adjoint_symmetry_residual(X, n):
    """Max |assoc(X) - X|, for a dense or sparse X."""
    return abs(associate_super(X, n) - X).max()


# Identities between truncated operators only hold away from the cutoff:
# a bilinear moves at most two quanta, and commutators of bilinears involve
# products that move up to four, so entries with any index within 4 of the
# cutoff see the missing levels.  Comparisons are restricted to the block
# below that margin.
SAFE_MARGIN = 4


def safe_indices(n):
    """Flat operator-space indices with both bra and ket below
    n - SAFE_MARGIN."""
    keep = np.arange(n - SAFE_MARGIN)  # levels 0 .. n-SAFE_MARGIN-1
    return (keep[:, None] * n + keep[None, :]).reshape(-1)


def safe_block_residual(X, n):
    """Max |entry| of a dense or sparse superoperator over the safe
    index block."""
    idx = safe_indices(n)
    return abs(X[np.ix_(idx, idx)]).max()


class SuperOperator:
    """Sparse operator-space map on n levels.

    csr is the n^2 x n^2 matrix in CSR form.  mat is its dense view, made
    anew on every access, for dense exponentials and small-cutoff checks.
    """

    def __init__(self, mat, n):
        csr = sparse.csr_array(mat, dtype=complex)
        if csr.shape != (n * n, n * n):
            raise ValueError(f"matrix shape {csr.shape} incompatible with n={n}")
        self.csr = csr
        self.n = n

    @property
    def mat(self):
        return self.csr.toarray()
