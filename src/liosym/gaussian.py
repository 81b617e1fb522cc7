"""Gaussian stationary states and their positivity domains.

The stationary states of all three models are Gaussian in the center and
relative coordinates Q = (x + xt)/2, r = x - xt:

    rho(Q, r) ~ exp(-Q^2 / w - b r^2 / 2),   w = 2b + d/omega0.

Matching this to the generic kernel exp[-2 mu Q^2 - i kappa Q r
- (mu + nu) r^2 / 2] gives mu = 1/(2w), kappa = 0, nu = b - mu, and the
state is a positive operator exactly when mu > 0 and nu >= 0.

Two independent routes to positivity are implemented: the algebraic
predicate above, and a quadrature construction of the Fock-basis matrix
whose smallest eigenvalue is scanned directly.  The numeric scan is the
ground truth for the transformation-domain bounds.  Every family is
scanned the same way: its parameter flow (transformed_gaussian) gives the
transformed Gaussian, and quadrature gives its Fock-basis matrix; a test
pins the thermal flow to the literal exp(alpha O0) action on the Fock
state.  Closed forms are reported next to the scan, in both printed and
rederived variants where the two disagree.

Everything is dimensionless (m = omega0 = hbar = 1 internally); x is the
scaled position sqrt(m omega0) q.
"""

import math
from dataclasses import dataclass

import numpy as np

POSITIVITY_SLACK = 1e-12

QUAD_HALF_WIDTH, QUAD_NPTS = 12.0, 601  # fock_from_gaussian's grid
SCAN_TOL = 1e-4  # numeric_positivity_boundary's accuracy in the parameter
# Reconstructed states inside the positive domain carry O(1e-15) negative
# roundoff, so "positive" means min-eig > -EIG_FLOOR; the located root
# shifts by EIG_FLOOR/slope, negligible against SCAN_TOL.
EIG_FLOOR = 1e-12


@dataclass(frozen=True)
class GaussianParams:
    """Kernel exp[-2 mu Q^2 - i kappa Q r - (mu + nu) r^2 / 2]."""
    mu: float
    kappa: float
    nu: float


@dataclass(frozen=True)
class StationaryGaussian:
    b: float
    d: float = 0.0
    omega0: float = 1.0

    def __post_init__(self):
        if self.omega0 <= 0:
            raise ValueError("omega0 must be positive")

    @property
    def width(self):
        """Q-kernel width w = 2b + d/omega0 (also 2<x^2>)."""
        return 2 * self.b + self.d / self.omega0

    @property
    def x2(self):
        return self.b + self.d / (2 * self.omega0)

    @property
    def p2(self):
        return self.b


def gaussian_from_bd(s):
    """Kernel parameters of the stationary Gaussian.

    mu = 1/(2w), kappa = 0, nu = b - mu.  A vanishing width w = 0 has no
    kernel at all and is rejected; negative w is representable (mu < 0)
    but never positive.
    """
    w = s.width
    if abs(w) < 1e-14:
        raise ValueError("vanishing width: 2b + d/omega0 = 0")
    mu = 1 / (2 * w)
    return GaussianParams(mu=mu, kappa=0.0, nu=s.b - mu)


def is_positive(g):
    """Positivity of the Gaussian as an operator: mu > 0 and nu >= 0
    (nu down to -1e-12 passes, absorbing roundoff at the pure-state
    boundary).  Equivalent to 2b(2b + d/omega0) >= 1."""
    return g.mu > 0 and g.nu >= -POSITIVITY_SLACK


def uncertainty_product(s):
    """<x^2><p^2> = b(b + d/2 omega0); >= 1/4 exactly on the positive
    domain (the boundary nu = 0 saturates it)."""
    return s.b * (s.b + s.d / (2 * s.omega0))


# ------------------------------------------------------------- Fock route
def hermite_psi(nmax, x):
    """Oscillator eigenfunctions psi_0 .. psi_{nmax-1} on the grid x,
    by the stable normalized recurrence."""
    x = np.asarray(x, dtype=float)
    psi = np.empty((nmax, len(x)))
    psi[0] = np.pi ** -0.25 * np.exp(-x ** 2 / 2)
    if nmax > 1:
        psi[1] = math.sqrt(2) * x * psi[0]
    for m in range(2, nmax):
        psi[m] = (math.sqrt(2 / m) * x * psi[m - 1]
                  - math.sqrt((m - 1) / m) * psi[m - 2])
    return psi


def fock_from_gaussian(s, n):
    """Fock-basis matrix of the stationary Gaussian by grid quadrature.

    rho_mn = integral psi_m(x) rho(x, xt) psi_n(xt) dx dxt.  The exponent
    -Q^2/w - b r^2/2 is expanded in (x, xt) as -a (x^2 + xt^2) + c x xt,
    a = 1/(4w) + b/2, c = b - 1/(2w), and built in one grid-sized array
    filled in place (each further grid-sized temporary costs a fresh
    mmap and its page faults).  The result is hermitized and
    trace-normalized; eigenvalues of the exact operator are reproduced
    to ~1e-13 for unit-scale widths at n = 30.  Requires a normalizable
    kernel: w > 0 and b > 0.
    """
    w = s.width
    if w <= 0 or s.b <= 0:
        raise ValueError(f"non-normalizable kernel: w = {w:.6g}, "
                         f"b = {s.b:.6g} (both must be positive)")
    x = np.linspace(-QUAD_HALF_WIDTH, QUAD_HALF_WIDTH, QUAD_NPTS)
    dx = x[1] - x[0]
    ax2 = (1 / (4 * w) + s.b / 2) * x * x
    G = np.multiply.outer((s.b - 1 / (2 * w)) * x, x)
    G -= ax2[:, None]
    G -= ax2
    np.exp(G, out=G)
    psi = hermite_psi(n, x)
    rho = (psi @ G @ psi.T) * dx * dx
    rho = (rho + rho.T) / 2
    return rho / np.trace(rho)


# --------------------------------------------------------- domain bounds
def domain_bound(kind, s, phi=0.0, gamma=None):
    """Closed-form positivity bound on the transformation parameter.

    Returns a dict with the bound(s); for the two cases where the
    printed inequality disagrees with what the parameter flow implies
    (thermal and the two-parameter hpz family), both forms appear, keyed
    "printed" and "derived".  The numeric scan (positivity_boundary) is
    the authority.

    kinds:
      thermal   alpha >= -ln(2b) at d = 0   (printed: +ln 2b)
      translate beta  >= -(2b - 1)
      hpz       xi    >= 1/(2w) - b e^{2 phi}   (printed: 2/w - 2b e^{2 phi})
      kl2cl     cosh(theta) <= 2b, equivalently eta >= gamma/(2 omega0)
      cl2hpz    |zeta| <= sqrt(4 b^2 - 1)
    """
    b, w = s.b, s.width
    if kind == "thermal":
        # b' = b e^alpha, d' = d e^alpha, so w' = w e^alpha and the
        # inequality 2 b' w' >= 1 solves to the derived form below
        return {
            "kind": kind,
            "parameter": "alpha",
            "printed": math.log(2 * b),
            "derived": -0.5 * math.log(2 * b * w),
            "side": ">=",
        }
    if kind == "translate":
        return {
            "kind": kind,
            "parameter": "beta",
            "bound": -(2 * b - 1),
            "side": ">=",
        }
    if kind == "hpz":
        return {
            "kind": kind,
            "parameter": "xi",
            "phi": phi,
            "printed": 2 / w - 2 * b * math.exp(2 * phi),
            "derived": 1 / (2 * w) - b * math.exp(2 * phi),
            "side": ">=",
        }
    if kind == "kl2cl":
        if 2 * b < 1:
            raise ValueError("base state is already non-positive (2b < 1)")
        out = {
            "kind": kind,
            "parameter": "theta",
            "bound": math.acosh(2 * b),
            "side": "|.| <=",
            "cosh_theta_max": 2 * b,
        }
        if gamma is not None:
            # theta fixed by the map itself; the eta >= gamma/(2 omega0)
            # form is the same condition
            theta = math.asinh(-gamma / (2 * s.omega0))
            out["theta_model"] = theta
            out["eta_min"] = gamma / (2 * s.omega0)
            out["within_domain"] = math.cosh(theta) <= 2 * b
        return out
    if kind == "cl2hpz":
        if 4 * b ** 2 < 1:
            raise ValueError("base state is already non-positive (b < 1/2)")
        return {
            "kind": kind,
            "parameter": "zeta",
            "bound": math.sqrt(4 * b ** 2 - 1),
            "side": "|.| <=",
        }
    raise ValueError(f"unknown domain kind {kind!r}")


def transformed_gaussian(kind, s, p, phi=0.0):
    """Stationary-Gaussian parameters after the kind's coefficient flow.

    These are the closed parameter flows of the five families; combined
    with fock_from_gaussian they give the transformed state without ever
    exponentiating a truncated shear generator (whose tails are wildly
    amplified at any workable cutoff).
    """
    b, d, w0 = s.b, s.d, s.omega0
    if kind == "thermal":
        e = math.exp(p)
        return StationaryGaussian(b * e, d * e, w0)
    if kind == "translate":
        return StationaryGaussian(b + p / 2, d, w0)
    if kind == "cl2hpz":
        return StationaryGaussian(b + p / 2, d - 2 * w0 * p, w0)
    if kind == "kl2cl":
        return StationaryGaussian(b / math.cosh(p), d, w0 * math.cosh(p))
    if kind == "hpz":
        ep, em = math.exp(phi), math.exp(-phi)
        return StationaryGaussian(b * ep + p * em,
                                  2 * w0 * ((d / (2 * w0)) * ep - p * em), w0)
    raise ValueError(f"unknown domain kind {kind!r}")


def numeric_positivity_boundary(state_fn, lo, hi):
    """Bisect the scan parameter for the sign change of the smallest
    eigenvalue of state_fn(p), the transformed, renormalized state.

    positivity_boundary builds state_fn from the family's parameter flow
    (transformed_gaussian) and quadrature, never by exponentiating a
    truncated generator: shear steps amplify the truncation tails wildly,
    and even the diagonal O0 dilation, applied literally, turns the
    truncated state negative at both ends of the bracket once b >= 1.5.
    Accuracy SCAN_TOL in the parameter; raises if min-eig has the same
    sign at both ends.
    """
    def positive(p):
        return float(np.linalg.eigvalsh(state_fn(p)).min()) > -EIG_FLOOR

    s_lo, s_hi = positive(lo), positive(hi)
    if s_lo == s_hi:
        raise ValueError(
            f"no sign change in range [{lo}, {hi}]: min-eig "
            f"{'positive' if s_lo else 'negative'} at both ends")
    while hi - lo > SCAN_TOL:
        mid = (lo + hi) / 2
        if positive(mid) == s_lo:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def positivity_boundary(kind, s, n=30, phi=0.0, bracket=None):
    """Numeric positivity boundary for one of the five families.

    Every family goes through the same route: the parameter flow gives
    the transformed Gaussian, quadrature its Fock-basis matrix at cutoff
    n, and numeric_positivity_boundary the sign change of its smallest
    eigenvalue.  Brackets default to the derived closed form +- 0.4,
    clipped to the normalizable region; the thermal flow keeps b' = b
    e^alpha and w' = w e^alpha positive, so its bracket needs no clip.
    """
    if bracket is None:
        bnd = domain_bound(kind, s, phi=phi)
        a = bnd.get("derived", bnd.get("bound"))
        lo, hi = a - 0.4, a + 0.4
        if kind == "translate":
            lo = max(lo, -2 * s.b + 0.02)  # w' = 2b + beta > 0
        elif kind == "cl2hpz":  # upper boundary; scan the lower by hand
            hi = min(hi, 2 * s.b - 0.02)  # w' = 2b - z
        elif kind == "kl2cl":
            lo = max(lo, 0.0)
        elif kind == "hpz":
            lo = max(lo, -s.b * math.exp(2 * phi) + 0.02)  # b' > 0
        bracket = (lo, hi)

    def state_fn(p):
        return fock_from_gaussian(transformed_gaussian(kind, s, p, phi), n)

    return numeric_positivity_boundary(state_fn, bracket[0], bracket[1])


# ---------------------------------------------------- position-space check
def position_rep_residual(model, s, half_width=None, npts=201,
                          method="analytic"):
    """max |K rho| / max |rho| for the model generator in (Q, r) form
    acting on the stationary Gaussian.

    The differential forms are

      KL:  i w0 (-d2/dQdr + Q r) - (g/2)(Q dQ - r dr + 1)
                                 - (b g/2)(d2Q - r^2)
      CL:  i w0 (-d2/dQdr + Q r) + g r dr + g b r^2
      HPZ: CL + i (d/2) r dQ

    scaled so the overall gamma of the damping pieces is g = 1 (the
    residual is homogeneous in gamma).  Analytic derivatives substitute
    the exact partials of the Gaussian; method="fd" uses second-order
    centered differences instead.  The grid must cover at least three
    standard deviations each side with at least 201 points per axis.
    """
    model = model.upper()
    if model not in ("KL", "CL", "HPZ"):
        raise ValueError(f"unknown model {model!r}")
    if model != "HPZ" and s.d != 0.0:
        raise ValueError(f"{model} stationary state has d = 0")
    w, b, w0, d = s.width, s.b, s.omega0, s.d
    if w <= 0 or b <= 0:
        raise ValueError("non-normalizable kernel")

    sig_q, sig_r = math.sqrt(w / 2), 1 / math.sqrt(b)
    if half_width is None:
        lq, lr = 6 * sig_q, 6 * sig_r
    else:
        lq, lr = (half_width if np.iterable(half_width)
                  else (half_width, half_width))
        if lq < 3 * sig_q or lr < 3 * sig_r:
            raise ValueError("under-resolved grid: need >= 3 standard "
                             "deviations each side")
    if npts < 201:
        raise ValueError("under-resolved grid: need >= 201 points per axis")

    q = np.linspace(-lq, lq, npts)
    r = np.linspace(-lr, lr, npts)
    Q, R = np.meshgrid(q, r, indexing="ij")
    rho = np.exp(-Q ** 2 / w - b * R ** 2 / 2)

    if method == "analytic":
        rho_q = -(2 * Q / w) * rho
        rho_r = -b * R * rho
        rho_qr = (2 * b * Q * R / w) * rho
        rho_qq = (4 * Q ** 2 / w ** 2 - 2 / w) * rho
    elif method == "fd":
        rho_q = np.gradient(rho, q, axis=0)
        rho_r = np.gradient(rho, r, axis=1)
        rho_qr = np.gradient(rho_q, r, axis=1)
        rho_qq = np.gradient(rho_q, q, axis=0)
    else:
        raise ValueError(f"unknown method {method!r}")

    g = 1.0
    rot = 1j * w0 * (-rho_qr + Q * R * rho)
    if model == "KL":
        out = rot - (g / 2) * (Q * rho_q - R * rho_r + rho) \
              - (b * g / 2) * (rho_qq - R ** 2 * rho)
    else:
        out = rot + g * R * rho_r + g * b * R ** 2 * rho
        if model == "HPZ":
            out = out + 1j * (d / 2) * R * rho_q
    return float(np.abs(out).max() / np.abs(rho).max())
