"""Gaussian stationary states and their positivity domains.

The stationary states of all three models are Gaussian in the center and
relative coordinates Q = (x + xt)/2, r = x - xt:

    rho(Q, r) ~ exp(-Q^2 / w - b r^2 / 2),   w = 2b + d/omega0.

Matching this to the generic kernel exp[-2 mu Q^2 - i kappa Q r
- (mu + nu) r^2 / 2] gives mu = 1/(2w), kappa = 0, nu = b - mu, and the
state is a positive operator exactly when mu > 0 and nu >= 0.

Positivity of a transformed state is decided two ways.  The exact
criterion is the reference: each family's parameter flow
(transformed_gaussian) gives the transformed Gaussian, which is positive
exactly when w' > 0 and 2b'w' >= 1, so every domain edge is a root of
2b'w' = 1 along the flow, for any base (exact_edges).  The truncation
cross-check rebuilds the transformed state in the Fock basis by
quadrature and bisects the sign change of its smallest eigenvalue
(positivity_boundary); a test pins the thermal flow to the literal
exp(alpha O0) action on the Fock state.  The paper's printed conditions
are read against the exact edges by printed_forms.

Everything is dimensionless (m = omega0 = hbar = 1 internally); x is the
scaled position sqrt(m omega0) q.
"""

import math
from dataclasses import dataclass

import numpy as np

POSITIVITY_SLACK = 1e-12

QUAD_HALF_WIDTH, QUAD_NPTS = 12.0, 601  # fock_from_gaussian's grid
SCAN_TOL = 1e-4  # positivity_boundary's accuracy in the parameter
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


# ---------------------------------------------------------- domain edges
# The report key of each edge of a kind's domain, and the direction of the
# parameter p that leaves the domain through it.
EDGES = {
    "thermal": (("boundary", -1),),
    "translate": (("boundary", -1),),
    "hpz": (("boundary", -1),),
    "kl2cl": (("boundary", 1),),
    "cl2hpz": (("lower", -1), ("upper", 1)),
}
MAX_STEPS = 64  # cap on every walk along a flow: doublings from 1 to 2^63,
# or halvings toward an edge
BRACKET_HALF_WIDTH = 0.4  # the Fock scan's bracket around each exact edge


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


def _inside(kind, s, p, phi):
    """The exact criterion at p: the transformed Gaussian has w' > 0 and
    2b'w' >= 1 (is_positive without its roundoff slack).  Parameters
    beyond floating range are no state, so outside."""
    try:
        t = transformed_gaussian(kind, s, p, phi)
    except OverflowError:
        return False
    return t.width > 0 and 2 * t.b * t.width >= 1


def exact_edges(kind, s, phi=0.0):
    """Exact positivity edges of the kind's transformation parameter, as
    {key: edge} keyed as in EDGES.

    Each edge is the sign change of the exact criterion 2b'w' = 1 (with
    w' > 0) along transformed_gaussian, bisected to float resolution.  The
    search starts inside the domain: at p = 0 when the base is inside,
    else at the first inside point of a doubling walk against the first
    edge's exit direction (for hpz with phi != 0, xi = 0 can lie outside).
    """
    if kind not in EDGES:
        raise ValueError(f"unknown domain kind {kind!r}")

    def inside(p):
        return _inside(kind, s, p, phi)

    def walk(start, step, want):
        for k in range(MAX_STEPS):
            p = start + step * 2.0 ** k
            if inside(p) == want:
                return p
        raise ValueError(
            f"no {'positive' if want else 'non-positive'} point along the "
            f"{kind} flow from p = {start:g} for the base b = {s.b:g}, "
            f"d = {s.d:g}, omega0 = {s.omega0:g} (w = {s.width:.6g}, "
            f"2bw = {2 * s.b * s.width:.6g})")

    edges = EDGES[kind]
    start = 0.0 if inside(0.0) else walk(0.0, -edges[0][1], True)
    return {key: numeric_positivity_boundary(
        inside, start, walk(start, exit_dir, False), 0.0)
        for key, exit_dir in edges}


def printed_forms(kind, s, edges, phi=0.0, gamma=None):
    """The paper's printed conditions, read against the exact edges.

    thermal and hpz: the printed inequality (alpha >= ln 2b, xi >= 2/w -
    2b e^{2 phi}), kept as the record that the scan disagrees with it.
    kl2cl with gamma: the map's own theta = asinh(-gamma / 2 omega0),
    whether |theta| lies within the edge, and the equivalent damping form
    eta >= gamma/(2 omega0) sqrt(2b/w) (gamma/(2 omega0) at d = 0).
    """
    if kind == "thermal":
        return {"printed": math.log(2 * s.b)}
    if kind == "hpz":
        return {"printed": 2 / s.width - 2 * s.b * math.exp(2 * phi)}
    if kind == "kl2cl" and gamma is not None:
        theta = math.asinh(-gamma / (2 * s.omega0))
        return {"theta_model": theta,
                "eta_min": gamma / (2 * s.omega0)
                * math.sqrt(2 * s.b / s.width),
                "within_domain": abs(theta) <= edges["boundary"]}
    return {}


def numeric_positivity_boundary(inside, lo, hi, tol):
    """Bisect between lo and hi (in either order) for the sign change of
    the predicate inside(p), until |hi - lo| <= tol or the midpoint equals
    an end (float resolution, what tol = 0 asks for); returns the
    midpoint.  Raises if inside has the same value at both ends.
    """
    s_lo, s_hi = inside(lo), inside(hi)
    if s_lo == s_hi:
        raise ValueError(
            f"no sign change in range [{lo}, {hi}]: "
            f"{'positive' if s_lo else 'negative'} at both ends")
    while abs(hi - lo) > tol:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        if inside(mid) == s_lo:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def positivity_boundary(kind, s, n=30, phi=0.0):
    """Fock-scanned positivity edges, keyed as exact_edges: the truncation
    cross-check of the exact criterion.

    Each edge is bracketed at its exact value +- BRACKET_HALF_WIDTH, and
    each end is pulled halfway toward the edge until the transformed
    Gaussian there is normalizable (b' > 0, w' > 0) and on its own side of
    the edge.  In the bracket the parameter flow gives the transformed
    Gaussian, quadrature its Fock-basis matrix at cutoff n, and
    numeric_positivity_boundary the sign change of its smallest
    eigenvalue, to SCAN_TOL.  No truncated generator is exponentiated:
    shear steps amplify the truncation tails wildly, and even the O0
    dilation, applied literally, turns the truncated state negative at
    both ends of the bracket once b >= 1.5.
    """
    def positive(p):
        rho = fock_from_gaussian(transformed_gaussian(kind, s, p, phi), n)
        return float(np.linalg.eigvalsh(rho).min()) > -EIG_FLOOR

    exact, out = exact_edges(kind, s, phi), {}
    for key, exit_dir in EDGES[kind]:
        edge, ends = exact[key], []
        for away in (-exit_dir, exit_dir):  # the inside end, then outside
            end = edge + away * BRACKET_HALF_WIDTH
            for _ in range(MAX_STEPS):
                t = transformed_gaussian(kind, s, end, phi)
                on_side = _inside(kind, s, end, phi) == (away != exit_dir)
                if t.b > 0 and t.width > 0 and on_side:
                    break
                end = (end + edge) / 2
            ends.append(end)
        out[key] = numeric_positivity_boundary(positive, *ends, SCAN_TOL)
    return out


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
