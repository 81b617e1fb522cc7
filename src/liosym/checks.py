"""The identity suite of `liosym verify`: SUITE lists its check groups in
report order.  A run calls each as group(n, tol, rng, gens), with the
cutoff, the tolerance of the Fock-space identities, one seeded rng and
one sparse set ten_generators(n, dense=False), and the group yields
(name, residual, threshold, must_exceed) records.  Only exponentials are
densified, one at a time.  Their adjoint symmetry is measured relative to
max|exp(aJ)|, which reaches 1e4 at n = 18 and 1e6 at n = 24; every other
threshold is absolute.
"""

import numpy as np
from scipy.linalg import expm

from . import fourdim
from .fock import random_density
from .generators import (COMMUTATION_TABLE, CONSERVING, GENERATOR_NAMES,
                         UNITARY, build_generator, commutation_residuals,
                         trace_residuals)
from .liouville import adjoint_symmetry_residual, safe_block_residual
from .transforms import TransformSequence, coefficient_map, derivative_map


def _commutation_tables(n, tol, rng, gens):
    yield "table-4d", fourdim.table_residual(), 1e-13, False
    for (x, y), res in commutation_residuals(n, gens).items():
        entry = COMMUTATION_TABLE[x][y]
        target = "0" if entry is None else (
            entry[1] if entry[0] == 1 else f"{entry[0]:g}*{entry[1]}")
        yield f"commutator[{x},{y}]={target}", res, tol, False


def _relative_exp_symmetry(a, J, n):
    E = expm(a * J.toarray())
    return adjoint_symmetry_residual(E, n) / np.abs(E).max()


def _adjoint_symmetry(n, tol, rng, gens):
    for name in GENERATOR_NAMES:
        yield (f"adjoint-symmetry[{name}]",
               adjoint_symmetry_residual(gens[name], n), 1e-11, False)
    for name in UNITARY + CONSERVING:
        yield (f"adjoint-symmetry[exp(0.5*{name})]",
               _relative_exp_symmetry(0.5, gens[name], n), 1e-13, False)
    yield ("non-symmetry[exp(0.5i*O+)]",
           _relative_exp_symmetry(0.5j, gens["O+"], n), 1e-6, True)


def _representation(n, tol, rng, gens):
    for theta in (0.3, 1.0):
        for name in GENERATOR_NAMES:
            S = expm(theta * fourdim.REP[name])
            yield (f"symplectic[{name},theta={theta}]",
                   fourdim.symplectic_residual(S), 1e-12, False)
    yield "completeness", fourdim.completeness_residual(), 1e-14, False
    yield "orthogonality", fourdim.orthogonality_residual(), 1e-14, False
    yield ("ladder-action", fourdim.ladder_action_residual(n, gens),
           tol, False)


def _trace_identities(n, tol, rng, gens):
    worst = dict.fromkeys(GENERATOR_NAMES, 0.0)
    for _ in range(20):
        rho = random_density(n, rng, support=n - 4)
        for name, r in trace_residuals(rho, gens, n).items():
            worst[name] = max(worst[name], r)
    for name in GENERATOR_NAMES:
        kind = "trace-moment" if name.endswith("-") else "trace-conserving"
        yield f"{kind}[{name}]", worst[name], tol, False


def _coefficient_maps(n, tol, rng, gens):
    # exact finite-parameter check in the 4x4 representation, then the
    # first-order (commutator) check on the Fock matrices
    worst = dict.fromkeys(UNITARY + CONSERVING, 0.0)
    for _ in range(20):
        c = tuple(rng.uniform(-1, 1, 7))
        for name in UNITARY + CONSERVING:
            p = float(rng.uniform(-1, 1))
            step = TransformSequence([(name, p)]).steps[0]
            S = expm(p * fourdim.REP[name])
            res = fourdim.conjugation_residual(S, np.linalg.inv(S), c,
                                               coefficient_map(step, c))
            worst[name] = max(worst[name], res)
    for name, res in worst.items():
        yield f"coefficient-map-4d[{name}]", res, 1e-12, False

    for name in UNITARY + CONSERVING:
        c = tuple(rng.uniform(-1, 1, 7))
        K = build_generator(c, gens, n)
        # the scalar part of K commutes, and the derivative map never
        # moves g0, so the bracket closes on the ten-generator span
        lhs = gens[name] @ K - K @ gens[name]
        rhs = build_generator(derivative_map(name, c), gens, n)
        yield (f"coefficient-map-rate[{name}]",
               safe_block_residual(lhs - rhs, n), tol, False)


# Report order; the groups share the rng, so it also fixes their draws.
SUITE = (_commutation_tables, _adjoint_symmetry, _representation,
         _trace_identities, _coefficient_maps)
