"""Gaussian stationary states and their positivity domains.

The stationary states of all three models are Gaussian in the center and
relative coordinates Q = (x + xt)/2, r = x - xt:

    rho(Q, r) ~ exp(-Q^2 / w - b r^2 / 2),   w = 2b + d/omega0.

Matching this to the generic kernel exp[-2 mu Q^2 - i kappa Q r
- (mu + nu) r^2 / 2] gives mu = 1/(2w), kappa = 0, nu = b - mu, and the
state is a positive operator exactly when mu > 0 and nu >= 0.

The five transformations of `liosym map` and `liosym domain` are one
table, TRANSFORMATIONS.  Positivity of a transformed state is decided two
ways.  The exact criterion is the reference: each kind's parameter flow
(transformed_gaussian, the one copy of the five flows, which
models.transformation also reads) gives the transformed Gaussian, which
is positive exactly when w' > 0 and 2b'w' >= 1, so every domain edge is
a root of 2b'w' = 1 along the flow, for any base (exact_edges).  The
truncation cross-check rebuilds the transformed state exactly in the Fock
basis (fock_from_gaussian) and bisects the sign change of its smallest
eigenvalue (positivity_boundary).  The paper's printed conditions are
read against the exact edges by printed_forms.

Everything is dimensionless (m = omega0 = hbar = 1 internally); x is the
scaled position sqrt(m omega0) q.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

SCAN_TOL = 1e-4  # positivity_boundary's accuracy in the parameter
# Reconstructed states inside the positive domain carry O(1e-15) negative
# roundoff, so "positive" means min-eig > -EIG_FLOOR; the located root
# shifts by EIG_FLOOR/slope, negligible against SCAN_TOL.
EIG_FLOOR = 1e-12
WIDTH_ROUNDOFF_LIMIT = 1e-6  # exact_edges' bound on kappa eps at an edge


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

    @property
    def mu(self):
        """Kernel coefficient mu = 1/(2w).  A vanishing width w = 0 has no
        kernel at all and is rejected; negative w gives mu < 0."""
        if abs(self.width) < 1e-14:
            raise ValueError("vanishing width: 2b + d/omega0 = 0")
        return 1 / (2 * self.width)

    @property
    def nu(self):
        """Kernel coefficient nu = b - mu."""
        return self.b - self.mu

    @property
    def positive(self):
        """Positivity as an operator, mu > 0 and nu >= 0, evaluated as
        w > 0 and 2bw >= 1 with no roundoff slack."""
        return self.width > 0 and 2 * self.b * self.width >= 1


# ------------------------------------------------------------- Fock route
def fock_from_gaussian(s, n):
    """Exact Fock-basis matrix of the stationary Gaussian, in O(n^2).

    In (x, xt) the kernel is exp(-a (x^2 + xt^2) + c x xt), a = 1/(4w) +
    b/2, c = b - 1/(2w).  The Hermite generating function turns
    sum_mk rho_mk s^m t^k / sqrt(m! k!) into a Gaussian integral,
    ~ exp(u (s^2 + t^2) + v s t) with A = 2a + 1, D = A^2 - c^2 =
    (1/w + 1)(2b + 1), u = A/D - 1/2 = (d/omega0)/(2wD) and v = 2c/D.  Its
    s-derivative gives the recurrence (Dodonov, Man'ko and Man'ko, Phys.
    Rev. A 50, 813 (1994)) sqrt(m+1) rho_{m+1,k} = 2u sqrt(m) rho_{m-1,k}
    + v sqrt(k) rho_{m,k-1}, and row 0 its v-free case.  At d = 0, u = 0
    and v = (2b-1)/(2b+1): the thermal state.  Hermitized and
    trace-normalized.  Requires a normalizable kernel: w > 0 and b > 0.
    """
    w = s.width
    if w <= 0 or s.b <= 0:
        raise ValueError(f"non-normalizable kernel: w = {w:.6g}, "
                         f"b = {s.b:.6g} (both must be positive)")
    D = (1 / w + 1) * (2 * s.b + 1)
    u, v = (s.d / s.omega0) / (2 * w * D), (2 * s.b - 1 / w) / D
    sq = np.sqrt(np.arange(n))
    c, r, vsq = (2 * u * sq).tolist(), sq.tolist(), v * sq
    # rho = R[:, 1:]; R[:, 0] = rho_{m,-1} = 0, and R[-1] meets c[0] = 0
    R = np.zeros((n, n + 1))
    R[0, 1] = 1.0
    for k in range(2, n, 2):  # row 0: the v-free case, by symmetry
        R[0, k + 1] = c[k - 1] * R[0, k - 1] / r[k]
    for m in range(n - 1):
        R[m + 1, 1:] = (c[m] * R[m - 1, 1:] + vsq * R[m, :-1]) / r[m + 1]
    rho = (R[:, 1:] + R[:, 1:].T) / 2
    return rho / np.trace(rho)


# ------------------------------------- transformations and their domains
# The five transformations of map and domain: the model families each
# maps from, the family it maps to (None: the model's own), its step
# sequence as (generator, parameter) pairs of the base's b, its parameter
# p and hpz's phi, and the edges through which p leaves its positivity
# domain, as (report key, direction of p).
Transformation = namedtuple("Transformation", "source target steps edges")
TRANSFORMATIONS = {
    "thermal": Transformation(("KL", "CL", "HPZ"), None,
                              lambda b, p, phi: [("O0", p)],
                              (("boundary", -1),)),
    "translate": Transformation(("CL",), None, lambda b, p, phi: [("O+", p)],
                                (("boundary", -1),)),
    # O+ and L1+ commute, as do O0 and iM2, so the two-parameter map
    # splits into single-generator steps
    "hpz": Transformation(("HPZ",), None,
                          lambda b, p, phi: [("iM2", phi), ("O+", p),
                                             ("L1+", p), ("O0", phi),
                                             ("iM2", -phi)],
                          (("boundary", -1),)),
    # p is the rotation kl2cl_theta; the shear keeps g2 at 0
    "kl2cl": Transformation(("KL",), "CL",
                            lambda b, p, phi: [("iM1", p),
                                               ("L2+", -2 * b * math.tanh(p))],
                            (("boundary", 1),)),
    "cl2hpz": Transformation(("CL",), "HPZ", lambda b, p, phi: [("L1+", p)],
                             (("lower", -1), ("upper", 1))),
}
MAX_STEPS = 64  # cap on every walk along a flow: doublings from 1 to 2^63,
# or halvings toward an edge
BRACKET_HALF_WIDTH = 0.4  # the Fock scan's bracket around each exact edge


def transformed_gaussian(kind, s, p, phi=0.0):
    """Stationary-Gaussian parameters after the kind's coefficient flow.

    The package's one copy of the five (b', d', omega0') flows, which
    models.transformation also reads.  kl2cl rejects a base with d != 0: KL
    has none, and iM1 then L2+ turn it into a correlated state.
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
        if d != 0.0:
            raise ValueError(f"kl2cl maps a KL base, which has no diffusion "
                             f"coefficient d; got d = {d:g}")
        return StationaryGaussian(b / math.cosh(p), d, w0 * math.cosh(p))
    if kind == "hpz":
        ep, em = math.exp(phi), math.exp(-phi)
        return StationaryGaussian(b * ep + p * em,
                                  2 * w0 * ((d / (2 * w0)) * ep - p * em), w0)
    raise ValueError(f"unknown domain kind {kind!r}")


def kl2cl_theta(gamma, omega0):
    """The KL -> CL rotation: sinh(theta) = -gamma/(2 omega0)."""
    return math.asinh(-gamma / (2 * omega0))


def _inside(kind, s, p, phi):
    """The exact criterion at p on the transformed Gaussian.  Parameters
    beyond floating range are no state, so outside."""
    try:
        return transformed_gaussian(kind, s, p, phi).positive
    except OverflowError:
        return False


def exact_edges(kind, s, phi=0.0):
    """Exact positivity edges of the kind's transformation parameter, as
    {key: edge} keyed as in its TRANSFORMATIONS entry.

    Each edge is the sign change of the exact criterion 2b'w' = 1 (with
    w' > 0) along transformed_gaussian, bisected to float resolution.  The
    search starts inside the domain: at p = 0 when the base is inside,
    else at the first inside point of a doubling walk against the first
    edge's exit direction (for hpz with phi != 0, xi = 0 can lie outside).
    Raises where w' = 2b' + d'/omega0 carries a rounding error kappa eps over
    WIDTH_ROUNDOFF_LIMIT, kappa = (2|b'|+|d'|/omega0)/|w'| (hpz, large |phi|).
    """
    if kind not in TRANSFORMATIONS:
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

    edges = TRANSFORMATIONS[kind].edges
    start = 0.0 if inside(0.0) else walk(0.0, -edges[0][1], True)
    out = {}
    for key, exit_dir in edges:
        edge = numeric_positivity_boundary(
            inside, start, walk(start, exit_dir, False), 0.0)
        t = transformed_gaussian(kind, s, edge, phi)
        kappa = (2 * abs(t.b) + abs(t.d) / t.omega0) / abs(t.width)
        if kappa * np.finfo(float).eps > WIDTH_ROUNDOFF_LIMIT:
            raise ValueError(f"the {kind} flow's width 2b' + d'/omega0 "
                             f"cancels {kappa:.2g}-fold at the {key} edge")
        out[key] = edge
    return out


def printed_forms(kind, s, edges, phi=0.0, gamma=None):
    """The paper's printed conditions, read against the exact edges.

    thermal and hpz: the printed inequality (alpha >= ln 2b, xi >= 2/w -
    2b e^{2 phi}), kept as the record that the scan disagrees with it.
    kl2cl with gamma: the map's own theta (kl2cl_theta), whether |theta|
    lies within the edge, and the equivalent damping form
    eta >= gamma/(2 omega0).
    """
    if kind == "thermal":
        return {"printed": math.log(2 * s.b)}
    if kind == "hpz":
        return {"printed": 2 / s.width - 2 * s.b * math.exp(2 * phi)}
    if kind == "kl2cl" and gamma is not None:
        theta = kl2cl_theta(gamma, s.omega0)
        return {"theta_model": theta,
                "eta_min": gamma / (2 * s.omega0),
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
    Gaussian, fock_from_gaussian its exact Fock-basis matrix at cutoff n,
    and numeric_positivity_boundary the sign change of its smallest
    eigenvalue, to SCAN_TOL.  No truncated generator is exponentiated:
    shear steps amplify the truncation tails wildly, and even the O0
    dilation, applied literally, turns the truncated state negative at
    both ends of the bracket once b >= 1.5.
    """
    def positive(p):
        rho = fock_from_gaussian(transformed_gaussian(kind, s, p, phi), n)
        return float(np.linalg.eigvalsh(rho).min()) > -EIG_FLOOR

    exact, out = exact_edges(kind, s, phi), {}
    for key, exit_dir in TRANSFORMATIONS[kind].edges:
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
def position_rep_residual(model, s):
    """max |K rho| / max |rho| for the model generator in (Q, r) form
    acting on the stationary Gaussian.

    The differential forms are

      KL:  i w0 (-d2/dQdr + Q r) - (g/2)(Q dQ - r dr + 1)
                                 - (b g/2)(d2Q - r^2)
      CL:  i w0 (-d2/dQdr + Q r) + g r dr + g b r^2
      HPZ: CL + i (d/2) r dQ

    scaled so the overall gamma of the damping pieces is g = 1 (the
    residual is homogeneous in gamma).  The exact partials of the Gaussian
    are substituted on a grid of 201 points per axis, six standard
    deviations each side.
    """
    model = model.upper()
    if model not in ("KL", "CL", "HPZ"):
        raise ValueError(f"unknown model {model!r}")
    if model != "HPZ" and s.d != 0.0:
        raise ValueError(f"{model} stationary state has d = 0")
    w, b, w0, d = s.width, s.b, s.omega0, s.d
    if w <= 0 or b <= 0:
        raise ValueError("non-normalizable kernel")

    lq, lr = 6 * math.sqrt(w / 2), 6 / math.sqrt(b)
    Q, R = np.meshgrid(np.linspace(-lq, lq, 201), np.linspace(-lr, lr, 201),
                       indexing="ij")
    rho = np.exp(-Q ** 2 / w - b * R ** 2 / 2)
    rho_q = -(2 * Q / w) * rho
    rho_r = -b * R * rho
    rho_qr = (2 * b * Q * R / w) * rho
    rho_qq = (4 * Q ** 2 / w ** 2 - 2 / w) * rho

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
