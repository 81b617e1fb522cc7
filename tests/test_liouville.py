import numpy as np
import pytest
from scipy import sparse

from liosym.fock import annihilation, random_density
from liosym.liouville import (SAFE_MARGIN, SuperOperator,
                              adjoint_symmetry_residual, associate_super,
                              make_superoperator, safe_block_residual,
                              safe_indices, swap_indices, unvec, vec)

RNG = np.random.default_rng(7)


def random_op(n):
    return RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))


def test_vec_unvec_roundtrip():
    rho = random_op(6)
    assert np.array_equal(unvec(vec(rho), 6), rho)
    # row-major layout: entry (m, n) lands at m*6 + n
    assert vec(rho)[2 * 6 + 3] == rho[2, 3]


def test_superoperator_matches_sandwich():
    n = 7
    x1, x2, rho = random_op(n), random_op(n), random_op(n)
    X = make_superoperator(x1, x2)
    assert np.allclose(unvec(X @ vec(rho), n), x1 @ rho @ x2, atol=1e-13)


def test_composition_is_matrix_product():
    n = 5
    x1, x2, y1, y2, rho = (random_op(n) for _ in range(5))
    X = make_superoperator(x1, x2)
    Y = make_superoperator(y1, y2)
    lhs = unvec(X @ Y @ vec(rho), n)
    rhs = x1 @ (y1 @ rho @ y2) @ x2
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_swap_is_involution():
    p = swap_indices(9)
    assert np.array_equal(p[p], np.arange(81))


def test_association_swaps_and_daggers():
    n = 6
    x1, x2, rho = random_op(n), random_op(n), random_op(n)
    Xa = associate_super(make_superoperator(x1, x2), n)
    want = x2.conj().T @ rho @ x1.conj().T
    assert np.allclose(unvec(Xa @ vec(rho), n), want, atol=1e-13)


def test_association_is_antilinear_involution():
    n = 5
    X = random_op(n * n)
    again = associate_super(associate_super(X, n), n)
    assert np.allclose(again, X, atol=1e-14)
    c = 0.7 - 1.3j
    assert np.allclose(associate_super(c * X, n),
                       np.conj(c) * associate_super(X, n), atol=1e-14)


def test_adjoint_symmetry_iff_hermiticity_preserving():
    n = 6
    x = random_op(n)
    sym = make_superoperator(x, x.conj().T)  # rho -> x rho x†
    assert adjoint_symmetry_residual(sym, n) <= 1e-11
    for _ in range(5):
        rho = random_density(n, RNG)
        out = unvec(sym @ vec(rho), n)
        assert np.abs(out - out.conj().T).max() < 1e-13

    y = random_op(n)
    asym = make_superoperator(x, y)
    if adjoint_symmetry_residual(asym, n) > 1e-6:
        rho = random_density(n, RNG)
        out = unvec(asym @ vec(rho), n)
        assert np.abs(out - out.conj().T).max() > 1e-8


def test_safe_indices_drop_top_levels():
    n = 10
    idx = safe_indices(n)
    # pairs (m, k) with both below n - SAFE_MARGIN
    keep = n - SAFE_MARGIN
    assert len(idx) == keep * keep
    assert 0 in idx and ((keep - 1) * n + keep - 1) in idx
    assert (keep * n + 0) not in idx and (0 * n + keep) not in idx


def test_safe_block_residual_ignores_edge_junk():
    n = 8
    X = np.zeros((n * n, n * n), dtype=complex)
    X[-1, -1] = 1e6  # junk confined to the top level
    assert safe_block_residual(X, n) == 0.0
    X[0, 0] = 1e-3
    assert safe_block_residual(X, n) == pytest.approx(1e-3)


def test_superoperator_holds_the_sparse_matrix_and_a_dense_view():
    n = 5
    a = annihilation(n)
    X = make_superoperator(a, a.conj().T)
    S = SuperOperator(X, n)
    assert sparse.issparse(S.csr)
    assert S.csr.nnz == np.count_nonzero(X)
    rho = random_density(n, RNG)
    assert np.allclose(unvec(S.csr @ vec(rho), n), a @ rho @ a.conj().T,
                       atol=1e-13)
    assert np.array_equal(S.mat, X)


def test_superoperator_shape_validation():
    with pytest.raises(ValueError):
        SuperOperator(np.eye(10), 3)
