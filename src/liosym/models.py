"""Damped-oscillator master equations and the maps between them.

Three generators are covered, all bilinear in the ladder operators: the
number-conserving damping model (KL), the position-damping model (CL),
and its extension with an independent momentum-diffusion coefficient
(HPZ).  States evolve by rho(t) = exp(-K t) rho(0) on a uniform time
grid (evolve), one dense exponential per invariant block of K that the
initial state occupies, and one set of moment formulas (observables)
serves both trajectories and stationary states.  K is a sparse matrix or
the SuperOperator that model_generator returns.  The blocks of a model's
K are at most about n^2/2 wide, so evolve never densifies the whole
n^2 x n^2 matrix.

The symmetry content is the five transformations of
gaussian.TRANSFORMATIONS, which transformation applies to a model:

* form invariances (thermal, translate, hpz) keep a model inside its own
  family, moving only the thermal parameter b (and d where present);
* cross-model maps, KL -> CL (kl2cl: a hyperbolic rotation plus a shear)
  and CL -> HPZ (cl2hpz: a single shear), change the family while
  preserving the relaxation rate g0 = gamma.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import ArpackNoConvergence, eigs

from .fock import momentum, number, position
from .gaussian import (TRANSFORMATIONS, StationaryGaussian, kl2cl_theta,
                       transformed_gaussian)
from .generators import CoefficientVector, build_generator, ten_generators
from .liouville import SuperOperator, unvec, vec
from .transforms import TransformSequence

MODELS = ("KL", "CL", "HPZ")


class DegenerateKernelError(RuntimeError):
    """The generator's kernel is not one-dimensional."""


class InvalidTargetError(ValueError):
    """A transformation carries a model outside the valid, finite
    parameters of its target family."""


@dataclass(frozen=True)
class ModelParams:
    model: str
    omega0: float
    gamma: float
    b: float
    d: float = 0.0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one "
                             f"of {MODELS}")
        for name in ("omega0", "gamma", "b", "d"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got "
                                 f"{getattr(self, name)}")
        if self.omega0 <= 0:
            raise ValueError("omega0 must be positive")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.b <= 0:
            raise ValueError("thermal parameter b must be positive")
        if self.model != "HPZ" and self.d != 0.0:
            raise ValueError(f"{self.model} has no diffusion coefficient d")


def model_coefficients(p):
    """Seven-coefficient vector of the model generator.

    All three share h0 = 2 omega0, g0 = gamma, gp = -2 gamma b.  CL and
    HPZ add the position-damping pieces h2 = -gamma and g1 = -2 gamma b;
    HPZ alone carries g2 = -d, the extra diffusion coefficient, which
    enters unscaled by gamma.
    """
    w, g, b, d = 2 * p.omega0, p.gamma, p.b, p.d
    if p.model == "KL":
        return CoefficientVector(w, 0.0, 0.0, g, -2 * g * b, 0.0, 0.0)
    if p.model == "CL":
        return CoefficientVector(w, 0.0, -g, g, -2 * g * b, -2 * g * b, 0.0)
    return CoefficientVector(w, 0.0, -g, g, -2 * g * b, -2 * g * b, -d)


def model_generator(p, n):
    """Generator K for the model at cutoff n, as a SuperOperator
    assembled from the sparse generators."""
    return SuperOperator(build_generator(model_coefficients(p),
                                         ten_generators(n, dense=False), n), n)


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray          # (len(times), n, n)
    moments: dict               # per-time arrays keyed by observable
    max_trace_violation: float
    max_herm_violation: float


def observables(states):
    """Moments of every state in a (T, n, n) stack, as length-T arrays.

    x, p, x2, p2 and n are Re tr(op rho); purity is Re tr(rho^2), trace
    the real part of the trace, and min_eig the smallest eigenvalue of the
    hermitian part (rho + rho^dag)/2, or NaN where that part is not finite.
    """
    n = states.shape[-1]
    x, p = position(n), momentum(n)
    ops = {"x": x, "p": p, "x2": x @ x, "p2": p @ p, "n": number(n)}
    moments = {k: np.trace(op @ states, axis1=1, axis2=2).real
               for k, op in ops.items()}
    moments["purity"] = np.trace(states @ states, axis1=1, axis2=2).real
    moments["trace"] = np.trace(states, axis1=1, axis2=2).real
    herm = (states + states.conj().transpose(0, 2, 1)) / 2
    finite = np.isfinite(herm).all(axis=(1, 2))
    moments["min_eig"] = np.full(len(states), np.nan)
    moments["min_eig"][finite] = np.linalg.eigvalsh(herm[finite]).min(axis=1)
    return moments


def evolve(K, rho0, t_max, steps):
    """Propagate rho0 through rho(t) = exp(-K t) rho0 on the uniform grid
    t = 0, t_max/steps, ..., t_max.

    K splits into invariant blocks, the connected components of its
    stored pattern: every bilinear generator commutes with the parity map
    rho -> (-1)^N rho (-1)^N, so K never couples even to odd m+n, and
    KL's phase covariance also keeps m-n.  For each block that vec(rho0)
    occupies, one dense exp(-K_block t_max/steps) is applied steps times;
    the other blocks stay exactly zero.  A stored zero can only merge
    blocks, so the split is exact for any sparse K.

    A state or moment that leaves floating range raises
    FloatingPointError naming its time: the truncated generator is
    unstable.  Otherwise hermiticity and unit trace are checked at every
    time against a 1e-8 budget; a breach is reported with a warning
    (truncation leakage grows with gamma*t and shrinks with cutoff), never
    raised, and the worst violations are returned on the trajectory.
    """
    # csgraph takes about 45 ms to import, and only evolve needs it
    from scipy.sparse.csgraph import connected_components

    if steps < 1 or not t_max > 0:
        raise ValueError("need t-max > 0 and steps >= 1")
    mat, n = _matrix_and_dim(K)
    mat = sparse.csr_array(mat)
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (n, n):
        raise ValueError(f"state shape {rho0.shape} does not match cutoff {n}")

    times = np.linspace(0.0, t_max, steps + 1)
    # a real pattern: csgraph would cast a complex K with a ComplexWarning
    pattern = sparse.csr_array(
        (np.ones(mat.indices.size), mat.indices, mat.indptr), shape=mat.shape)
    _, labels = connected_components(pattern, directed=False)
    v0 = vec(rho0)
    vecs = np.zeros((steps + 1, n * n), dtype=complex)
    with np.errstate(all="ignore"):
        for label in np.unique(labels[v0 != 0]):
            idx = np.flatnonzero(labels == label)
            prop = expm(-times[1] * mat[idx][:, idx].toarray())
            block = np.empty((steps + 1, idx.size), dtype=complex)
            block[0] = v0[idx]
            for i in range(steps):
                block[i + 1] = prop @ block[i]
            vecs[:, idx] = block
        states = vecs.reshape(-1, n, n)
        moments = observables(states)
        max_tr = float(np.abs(np.trace(states, axis1=1, axis2=2) - 1).max())
        max_herm = float(np.abs(states - states.conj().transpose(0, 2, 1))
                         .max())
    finite = np.logical_and.reduce([np.isfinite(m) for m in moments.values()])
    if not finite.all():
        raise FloatingPointError(
            f"the state at t = {times[np.argmin(finite)]:.6g} or its moments "
            "are not finite in floating point: the truncated generator is "
            "unstable at this cutoff")
    if not (max_tr <= 1e-8 and max_herm <= 1e-8):
        warnings.warn(
            f"trajectory tolerance breach: |trace-1| up to {max_tr:.2e}, "
            f"hermiticity defect up to {max_herm:.2e} (budget 1e-08); "
            "likely truncation leakage, raise the cutoff", stacklevel=2)
    return Trajectory(times, states, moments, max_tr, max_herm)


def steady_state(K):
    """Stationary density matrix of K from its near-null eigenvector.

    The eigenvalues nearest zero come from shift-invert on the sparse K,
    two at first and twice as many while all lie within an absolute 1e-8
    of zero; exactly one must, else the kernel is degenerate.  The dense
    spectrum decides where ARPACK cannot (k >= n^2 - 1, or no converged
    pair).  The kernel's eigenvector is reshaped, hermitized and
    trace-normalized.  Returns rho and a dict with the kernel eigenvalue,
    the residual ||K vec(rho)|| and the smallest eigenvalue of rho.
    """
    mat, n = _matrix_and_dim(K)
    # a fixed start vector keeps the result independent of earlier calls
    v0 = np.random.default_rng(0).standard_normal(n * n)
    k = 2
    evals = None
    while evals is None and k < n * n - 1:  # ARPACK needs k < N - 1
        # the shift sits just left of zero, so that a K with an exact null
        # vector still factorizes; past k = 2 only the count in the window
        # matters, and a looser tol lets a cluster converge
        try:
            evals, evecs = eigs(mat, k=k, sigma=-1e-10, v0=v0,
                                tol=0 if k == 2 else 1e-10)
        except ArpackNoConvergence as exc:
            if k == 2 or len(exc.eigenvalues) == 0:
                break
            # the pairs nearest the shift converge first: count those
            evals, evecs = exc.eigenvalues, exc.eigenvectors
        if (np.abs(evals) < 1e-8).sum() == k:
            evals = None
            k *= 2
    if evals is None:  # the dense spectrum decides
        evals, evecs = np.linalg.eig(mat.toarray())
    near_null = np.abs(evals) < 1e-8
    if near_null.sum() != 1:
        raise DegenerateKernelError(
            f"kernel is {near_null.sum()}-dimensional within 1e-8 "
            "(undamped or multiply-damped generator)")
    nearest = np.argmin(np.abs(evals))
    rho = unvec(evecs[:, nearest], n)
    # the solver's eigenvector phase is arbitrary: make the trace real
    rho = rho * np.exp(-1j * np.angle(np.trace(rho)))
    rho = (rho + rho.conj().T) / 2
    tr = np.trace(rho).real
    if abs(tr) < 1e-12 * np.abs(rho).max():
        raise DegenerateKernelError("kernel vector is traceless; no "
                                    "normalizable stationary state")
    rho = rho / tr
    info = {
        "eigenvalue": evals[nearest],
        "residual": float(np.linalg.norm(mat @ vec(rho))),
        "min_eig": float(np.linalg.eigvalsh(rho).min()),
    }
    return rho, info


def transformation(kind, p, param, phi=0.0):
    """The model p after the kind's transformation, and the step sequence
    whose conjugation maps its generator to the target's.

    Families, steps and flow come from gaussian.TRANSFORMATIONS.  param is
    alpha (thermal), beta (translate), xi at phi (hpz), theta (kl2cl, the
    model's own kl2cl_theta) or zeta (cl2hpz).  A model outside the kind's
    source families, or another kl2cl theta, raises ValueError, a target
    with b' <= 0 or beyond floating range InvalidTargetError.  The map of
    generators is exact whether or not the target's stationary Gaussian
    passes exact_edges' criterion, so a failure is warned about only.
    """
    if kind not in TRANSFORMATIONS:
        raise ValueError(f"unknown invariance or map kind {kind!r}; "
                         f"expected one of {', '.join(TRANSFORMATIONS)}")
    spec = TRANSFORMATIONS[kind]
    if p.model not in spec.source:
        raise ValueError(f"{kind} maps {' or '.join(spec.source)} models, "
                         f"not {p.model}")
    if kind == "kl2cl" and param != kl2cl_theta(p.gamma, p.omega0):
        raise ValueError(f"kl2cl lands on CL only at the model's own theta "
                         f"{kl2cl_theta(p.gamma, p.omega0)!r}, not {param!r}")
    family = spec.target or p.model
    try:
        t = transformed_gaussian(kind, StationaryGaussian(p.b, p.d, p.omega0),
                                 param, phi)
        target = replace(p, model=family, omega0=t.omega0, b=t.b, d=t.d)
    except (ValueError, OverflowError) as exc:
        raise InvalidTargetError(f"the transformed {family} model is invalid "
                                 f"or not finite ({exc})") from None
    if not t.positive:
        warnings.warn(
            f"the transformed stationary state (b' = {t.b:.6g}, "
            f"w' = {t.width:.6g}) fails w' > 0 and 2b'w' >= 1, so it is not "
            "a density matrix", stacklevel=2)
    return target, TransformSequence(spec.steps(p.b, param, phi))


def expectation_invariance_check(seq, o, rho):
    """<o> = tr(o^dag rho) before and after transforming both o and rho by
    the TransformSequence seq.

    Transforming observable and state by the same S leaves the pairing
    invariant exactly when S is unitary on operator space (every step
    from the anti-hermitian set); conserving steps change it in general.
    """
    o = np.asarray(o, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    n = o.shape[0]
    S = seq.matrix(n)
    before = np.vdot(vec(o), vec(rho))
    after = np.vdot(S @ vec(o), S @ vec(rho))
    return before, after


def _matrix_and_dim(K):
    """The sparse matrix of K, a SuperOperator or a sparse matrix, and the
    cutoff n of its n^2 x n^2 shape."""
    if isinstance(K, SuperOperator):
        return K.csr, K.n
    if not sparse.issparse(K):
        raise TypeError("generator must be a sparse matrix or a "
                        "SuperOperator")
    n = math.isqrt(K.shape[0])
    if n * n != K.shape[0] or K.shape[0] != K.shape[1]:
        raise ValueError("generator must be square with a square dimension")
    return K, n
