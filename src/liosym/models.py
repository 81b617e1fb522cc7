"""Damped-oscillator master equations and the maps between them.

Three generators are covered, all bilinear in the ladder operators: the
number-conserving damping model (KL), the position-damping model (CL),
and its extension with an independent momentum-diffusion coefficient
(HPZ).  States evolve by rho(t) = exp(-K t) rho(0) on a uniform time
grid (evolve), and one set of moment formulas (observables) serves both
trajectories and stationary states.  K is a sparse matrix or the
SuperOperator that model_generator returns.

The symmetry content lives in two kinds of maps:

* form invariance: transformations that keep a model inside its own
  family, moving only the thermal parameter b (and d where present);
* cross-model maps: KL -> CL (hyperbolic rotation plus a shear) and
  CL -> HPZ (a single shear), which change the family while preserving
  the relaxation rate g0 = gamma.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import ArpackNoConvergence, eigs

from .fock import momentum, number, position
from .gaussian import StationaryGaussian, transformed_gaussian
from .generators import CoefficientVector, build_generator, ten_generators
from .liouville import SuperOperator, unvec, vec
from .transforms import TransformSequence

MODELS = ("KL", "CL", "HPZ")


class DegenerateKernelError(RuntimeError):
    """The generator's kernel is not one-dimensional."""


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


def model_generator(p, n, gens=None):
    """Generator K for the model at cutoff n, as a SuperOperator,
    assembled from the sparse generators unless a generator dict is given."""
    if gens is None:
        gens = ten_generators(n, dense=False)
    return SuperOperator(build_generator(model_coefficients(p), gens, n), n)


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
    hermitian part (rho + rho^dag)/2.
    """
    n = states.shape[-1]
    x, p = position(n), momentum(n)
    ops = {"x": x, "p": p, "x2": x @ x, "p2": p @ p, "n": number(n)}
    moments = {k: np.trace(op @ states, axis1=1, axis2=2).real
               for k, op in ops.items()}
    moments["purity"] = np.trace(states @ states, axis1=1, axis2=2).real
    moments["trace"] = np.trace(states, axis1=1, axis2=2).real
    moments["min_eig"] = np.linalg.eigvalsh(
        (states + states.conj().transpose(0, 2, 1)) / 2).min(axis=1)
    return moments


def evolve(K, rho0, t_max, steps):
    """Propagate rho0 through rho(t) = exp(-K t) rho0 on the uniform grid
    t = 0, t_max/steps, ..., t_max.

    One dense exp(-K t_max/steps) is applied steps times.  Hermiticity
    and unit trace are checked at every time against a 1e-8 budget; a
    breach is reported with a warning (truncation leakage grows with
    gamma*t and shrinks with cutoff), never raised, and the worst
    violations are returned on the trajectory.
    """
    if steps < 1 or not t_max > 0:
        raise ValueError("need t-max > 0 and steps >= 1")
    mat, n = _matrix_and_dim(K)
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (n, n):
        raise ValueError(f"state shape {rho0.shape} does not match cutoff {n}")

    times = np.linspace(0.0, t_max, steps + 1)
    prop = expm(-times[1] * mat.toarray())
    vecs = np.empty((steps + 1, n * n), dtype=complex)
    vecs[0] = vec(rho0)
    for i in range(steps):
        vecs[i + 1] = prop @ vecs[i]
    states = vecs.reshape(-1, n, n)

    max_tr = float(np.abs(np.trace(states, axis1=1, axis2=2) - 1).max())
    max_herm = float(np.abs(states - states.conj().transpose(0, 2, 1)).max())
    if not (max_tr <= 1e-8 and max_herm <= 1e-8):  # NaN is a breach too
        warnings.warn(
            f"trajectory tolerance breach: |trace-1| up to {max_tr:.2e}, "
            f"hermiticity defect up to {max_herm:.2e} (budget 1e-08); "
            "likely truncation leakage, raise the cutoff", stacklevel=2)
    return Trajectory(times, states, observables(states), max_tr, max_herm)


def steady_state(K, return_info=False):
    """Stationary density matrix of K from its near-null eigenvector.

    The eigenvalues nearest zero come from shift-invert on the sparse K,
    two at first and twice as many while all lie within an absolute 1e-8
    of zero; exactly one must, else the kernel is degenerate.  The dense
    spectrum decides where ARPACK cannot (k >= n^2 - 1, or no converged
    pair).  The kernel's eigenvector is reshaped, hermitized and
    trace-normalized.  With return_info=True also returns a dict with the
    kernel eigenvalue, the residual ||K vec(rho)|| and the smallest
    eigenvalue of rho.
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
    if not return_info:
        return rho
    info = {
        "eigenvalue": evals[nearest],
        "residual": float(np.linalg.norm(mat @ vec(rho))),
        "min_eig": float(np.linalg.eigvalsh(rho).min()),
    }
    return rho, info


def _flowed(p, kind, param, phi=0.0, model=None):
    """p carried along the kind's parameter flow
    (gaussian.transformed_gaussian), as the target family's ModelParams.
    A flow that leaves floating range raises OverflowError."""
    t = transformed_gaussian(kind, StationaryGaussian(p.b, p.d, p.omega0),
                             param, phi)
    if not all(map(math.isfinite, (t.b, t.d, t.omega0))):
        raise OverflowError(f"b' = {t.b:g}, d' = {t.d:g}, "
                            f"omega0' = {t.omega0:g}")
    return replace(p, model=model or p.model, omega0=t.omega0, b=t.b, d=t.d)


def form_invariance(kind, p, params):
    """Transformation keeping the model family fixed, with the new params.

    kind "thermal" (any model): exp(alpha O0) rescales b and, for HPZ,
    d by e^alpha.  kind "translate" (CL): exp(beta O+) shifts b by
    beta/2.  kind "hpz" (HPZ): params = (phi, xi), a five-step sequence
    giving b' = b e^phi + xi e^-phi, d'/2omega0 = (d/2omega0) e^phi
    - xi e^-phi.

    Returns the transformed ModelParams, from the kind's flow in
    gaussian.transformed_gaussian, and the step sequence whose
    superoperator conjugation maps one generator to the other.
    """
    if kind == "thermal":
        alpha = float(params)
        return _flowed(p, kind, alpha), TransformSequence([("O0", alpha)])
    if kind == "translate":
        if p.model != "CL":
            raise ValueError("translate form invariance holds for CL only")
        beta = float(params)
        return _flowed(p, kind, beta), TransformSequence([("O+", beta)])
    if kind == "hpz":
        if p.model != "HPZ":
            raise ValueError("the two-parameter form invariance holds for "
                             "HPZ only")
        phi, xi = params
        # O+ and L1+ commute, as do O0 and iM2, so the two-parameter map
        # splits into single-generator steps
        seq = TransformSequence([("iM2", phi), ("O+", xi), ("L1+", xi),
                                 ("O0", phi), ("iM2", -phi)])
        return _flowed(p, kind, xi, phi), seq
    raise ValueError(f"unknown invariance kind {kind!r}")


def map_kl_to_cl(p):
    """Map a KL model onto the CL family.

    A hyperbolic rotation with sinh(theta) = -gamma/(2 omega0) followed
    by a shear eta = -2b tanh(theta); the frequency renormalizes to
    omega0 cosh(theta), b to b/cosh(theta), gamma is untouched.
    """
    if p.model != "KL":
        raise ValueError("map_kl_to_cl expects a KL model")
    theta = math.asinh(-p.gamma / (2 * p.omega0))
    eta = -2 * p.b * math.tanh(theta)
    seq = TransformSequence([("iM1", theta), ("L2+", eta)])
    return _flowed(p, "kl2cl", theta, model="CL"), seq


def map_cl_to_hpz(p, zeta):
    """Map a CL model onto the HPZ family with a single shear step.

    b' = b + zeta/2 and d' = -2 omega0 zeta.  The transformed stationary
    state stays positive only for |zeta| <= sqrt(4b^2 - 1); outside that
    range the map is still exact at the generator level, so the bound is
    reported, not enforced.
    """
    if p.model != "CL":
        raise ValueError("map_cl_to_hpz expects a CL model")
    bound = math.sqrt(4 * p.b ** 2 - 1) if p.b >= 0.5 else 0.0
    if abs(zeta) > bound:
        warnings.warn(
            f"|zeta| = {abs(zeta):.6g} exceeds the positivity bound "
            f"{bound:.6g}; the mapped stationary state is not a density "
            "matrix", stacklevel=2)
    seq = TransformSequence([("L1+", zeta)])
    return _flowed(p, "cl2hpz", zeta, model="HPZ"), seq


def expectation_invariance_check(seq, o, rho):
    """<o> = tr(o^dag rho) before and after transforming both o and rho.

    Transforming observable and state by the same S leaves the pairing
    invariant exactly when S is unitary on operator space (every step
    from the anti-hermitian set); conserving steps change it in general.
    """
    if not isinstance(seq, TransformSequence):
        seq = TransformSequence(seq)
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
