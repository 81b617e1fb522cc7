import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from liosym.fock import fock_projector
from liosym.fourdim import REP, rep_of_coefficients
from liosym.generators import (CONSERVING, UNITARY, CoefficientVector,
                               build_generator, ten_generators)
from liosym.liouville import safe_block_residual, unvec, vec
from liosym.transforms import (TransformSequence, TransformStep,
                               apply_sequence, coefficient_map,
                               derivative_map, gibbs_from_vacuum,
                               superop_similarity)

RNG = np.random.default_rng(31)
MAPPABLE = UNITARY + CONSERVING


def random_coeffs():
    return CoefficientVector(*RNG.uniform(-1, 1, 7))


# ----------------------------------------------------------- step validity
def test_step_rejects_nonconserving_directions():
    with pytest.raises(ValueError):
        TransformStep("O-", 0.5)
    with pytest.raises(ValueError):
        TransformStep("L1-", 0.5)


def test_step_rejects_complex_parameter():
    with pytest.raises(ValueError):
        TransformStep("iL0", 0.5j)


def test_sequence_inverse_reverses_and_negates():
    seq = TransformSequence([("iL0", 0.3), ("O+", 0.7)])
    inv = seq.inverse()
    assert [(s.generator, s.parameter) for s in inv] == \
        [("O+", -0.7), ("iL0", -0.3)]
    n = 8
    S = seq.matrix(n) @ inv.matrix(n)
    assert np.abs(S - np.eye(n * n)).max() < 1e-10


def test_sequence_matrix_order_is_left_to_right_product():
    n = 8
    gens = ten_generators(n, dense=False)
    seq = TransformSequence([("iL0", 0.4), ("iM1", 0.2)])
    want = (expm(0.4 * gens["iL0"].toarray())
            @ expm(0.2 * gens["iM1"].toarray()))
    assert np.abs(seq.matrix(n) - want).max() < 1e-12


def test_parameter_cap_enforced():
    seq = TransformSequence([("O+", 11.0)])
    with pytest.raises(ValueError):
        seq.matrix(6)


# ------------------------------------------------------- coefficient maps
def test_coefficient_maps_match_conjugation_in_rep():
    # finite-parameter check in the exact 4x4 representation
    worst = 0.0
    for _ in range(200):
        c = random_coeffs()
        name = MAPPABLE[RNG.integers(len(MAPPABLE))]
        p = float(RNG.uniform(-1, 1))
        S = expm(p * REP[name])
        lhs = S @ rep_of_coefficients(c) @ np.linalg.inv(S)
        rhs = rep_of_coefficients(coefficient_map(TransformStep(name, p), c))
        worst = max(worst, np.abs(lhs - rhs).max())
    assert worst < 1e-12


def test_derivative_map_is_the_map_derivative():
    h = 1e-6
    for name in MAPPABLE:
        c = random_coeffs()
        up = coefficient_map(TransformStep(name, h), c)
        dn = coefficient_map(TransformStep(name, -h), c)
        fd = [(a - b) / (2 * h) for a, b in zip(up, dn)]
        exact = derivative_map(name, c)
        assert max(abs(a - b) for a, b in zip(fd, exact)) < 1e-8, name


def test_derivative_map_matches_fock_commutator():
    n = 14
    gens = ten_generators(n, dense=False)
    for name in MAPPABLE:
        c = random_coeffs()
        K = build_generator(c, gens, n)
        lhs = gens[name] @ K - K @ gens[name]
        rhs = build_generator(derivative_map(name, c), gens, n)
        assert safe_block_residual(lhs - rhs, n) < 1e-10, name


def test_apply_sequence_folds_right_to_left():
    c = random_coeffs()
    seq = TransformSequence([("iL0", 0.5), ("O+", 0.3)])
    # rightmost step conjugates first
    step_by_step = coefficient_map(seq.steps[0],
                                   coefficient_map(seq.steps[1], c))
    assert apply_sequence(seq, c) == step_by_step


def test_apply_sequence_matches_rep_conjugation():
    for _ in range(50):
        c = random_coeffs()
        steps = [(MAPPABLE[RNG.integers(len(MAPPABLE))],
                  float(RNG.uniform(-1, 1))) for _ in range(3)]
        seq = TransformSequence(steps)
        S = seq.rep4()
        lhs = S @ rep_of_coefficients(c) @ np.linalg.inv(S)
        rhs = rep_of_coefficients(apply_sequence(seq, c))
        assert np.abs(lhs - rhs).max() < 1e-11


def test_g0_is_invariant_under_every_map():
    for name in MAPPABLE:
        c = random_coeffs()
        out = coefficient_map(TransformStep(name, 0.8), c)
        assert out.g0 == c.g0, name


def test_rotation_steps_preserve_the_two_lengths():
    # the three rotations only; the dilation rescales the g block
    for name in ("iL0", "iM1", "iM2"):
        c = random_coeffs()
        out = coefficient_map(TransformStep(name, 0.7), c)
        h_len = -c.h0 ** 2 + c.h1 ** 2 + c.h2 ** 2
        g_len = -c.gp ** 2 + c.g1 ** 2 + c.g2 ** 2
        h_out = -out.h0 ** 2 + out.h1 ** 2 + out.h2 ** 2
        g_out = -out.gp ** 2 + out.g1 ** 2 + out.g2 ** 2
        assert abs(h_len - h_out) < 1e-10, name
        assert abs(g_len - g_out) < 1e-10, name


def test_superop_similarity_matches_map_for_compact_rotation():
    # full Liouville-space conjugation is only reliable for iL0: every other
    # generator (O0 included, it creates excitation pairs) has an unbounded
    # exponential whose truncation corrupts even the safe block
    n = 12
    gens = ten_generators(n, dense=False)
    c = random_coeffs()
    K = build_generator(c, gens, n)
    seq = TransformSequence([("iL0", 0.7)])
    lhs = superop_similarity(seq, K, n)
    rhs = build_generator(apply_sequence(seq, c), gens, n).toarray()
    assert safe_block_residual(lhs - rhs, n) < 1e-8


# ------------------------------------------------------------------ states
def test_gibbs_from_vacuum_populations():
    n = 30
    alpha = math.log(2.0)  # b = 1, ratio 1/3
    rho = gibbs_from_vacuum(alpha, n)
    q = 1 / 3
    want = (1 - q) * q ** np.arange(n)
    assert np.abs(np.diag(rho).real - want).max() < 1e-12
    offdiag = rho - np.diag(np.diag(rho))
    assert np.abs(offdiag).max() < 1e-13


def test_gibbs_from_vacuum_warns_on_visible_tail():
    with pytest.warns(UserWarning, match="tail"):
        gibbs_from_vacuum(math.log(2.0), 14)


def test_gibbs_from_vacuum_rejects_negative_parameter():
    with pytest.raises(ValueError):
        gibbs_from_vacuum(-0.1, 10)


def test_vacuum_annihilating_generator_kills_the_vacuum():
    # h0 iL0 + g0 (O0 - 1/2 - O+) + h1 (iM1 - L2+) + h2 (iM2 + L1+)
    n = 12
    h0, g0, h1, h2 = 0.8, 0.5, 0.3, -0.2
    c = CoefficientVector(h0, h1, h2, g0, -g0, h2, -h1)
    K = build_generator(c, ten_generators(n, dense=False), n)
    assert np.abs(K @ vec(fock_projector(0, n))).max() < 1e-13


@pytest.mark.parametrize("alpha", [0.3, 0.9])
def test_gibbs_from_vacuum_matches_the_dense_literal_route(alpha):
    # the closed form is the O0 dilation of the vacuum, applied literally
    # by expm_multiply on the sparse O0; n = 48 puts the truncated tail
    # below roundoff (at n = 24 and alpha = 0.9 it shows at 2.4e-10)
    n = 48
    O0 = ten_generators(n, dense=False)["O0"]
    want = unvec(expm_multiply(alpha * O0, vec(fock_projector(0, n))), n)
    want = (want + want.conj().T) / 2
    want /= np.trace(want).real
    assert np.abs(gibbs_from_vacuum(alpha, n) - want).max() < 1e-14
