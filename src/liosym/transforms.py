"""Symmetry transformations S = exp(p J) and their action on generators.

A transformation step pairs one generator from the unitary or conserving
sets with a real parameter.  Sequences multiply left-to-right as written,
so the last step in the list acts first on states, matching the usual
operator-product notation

    S = exp(p_1 J_1) exp(p_2 J_2) ... exp(p_k J_k).

Conjugating the generic generator, S K S^{-1}, closes on the same seven
coefficients; coefficient_map gives the closed forms for a single step.
The four unitary steps exponentiate to operator-space rotations; the three
conserving hermitian steps rescale and shear the g coefficients linearly
(their mutual brackets vanish, so those maps are exactly linear in the
parameter).  gibbs_from_vacuum builds the thermal state that the O0
dilation makes of the vacuum.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .fock import thermal_state
from .generators import CONSERVING, UNITARY, CoefficientVector, ten_generators

ALLOWED = UNITARY + CONSERVING

# |parameter| above this overflows the conserving-step exponentials at the
# working cutoffs; rejected, not clamped.
PARAM_CAP = 10.0


@dataclass(frozen=True)
class TransformStep:
    generator: str
    parameter: float

    def __post_init__(self):
        if self.generator not in ALLOWED:
            raise ValueError(
                f"generator {self.generator!r} is not a valid transformation "
                f"direction (nonconserving generators are excluded)")
        if isinstance(self.parameter, complex):
            raise ValueError("transformation parameter must be real")

    def inverse(self):
        return TransformStep(self.generator, -self.parameter)


class TransformSequence:
    """Ordered product of steps; index 0 is the leftmost factor."""

    def __init__(self, steps):
        self.steps = tuple(
            s if isinstance(s, TransformStep) else TransformStep(*s)
            for s in steps)

    def __iter__(self):
        return iter(self.steps)

    def __len__(self):
        return len(self.steps)

    def inverse(self):
        """Reversed order with negated parameters."""
        return TransformSequence([s.inverse() for s in reversed(self.steps)])

    def matrix(self, n):
        """Dense operator-space matrix of the product, each step's sparse
        generator densified just before its exponential."""
        gens = ten_generators(n, dense=False)
        S = np.eye(n * n, dtype=complex)
        for step in self.steps:
            if abs(step.parameter) > PARAM_CAP:
                raise ValueError(
                    f"|parameter| = {abs(step.parameter)} exceeds {PARAM_CAP}; "
                    "the exponential overflows at working cutoffs")
            S = S @ expm(step.parameter * gens[step.generator].toarray())
        return S

    def rep4(self):
        """Product in the exact 4x4 ladder representation."""
        from .fourdim import REP
        S = np.eye(4, dtype=complex)
        for step in self.steps:
            S = S @ expm(step.parameter * REP[step.generator])
        return S


def coefficient_map(step, coeffs):
    """Closed-form coefficients of exp(pJ) K exp(-pJ) for a single step.

    g0 is invariant under every map (the relaxation rate cannot be
    changed), and the scalar part -g0/2 rides along untouched.
    """
    h0, h1, h2, g0, gp, g1, g2 = CoefficientVector(*coeffs)
    name, p = step.generator, step.parameter
    if name == "iL0":
        c, s = math.cos(p), math.sin(p)
        return CoefficientVector(h0, h1 * c + h2 * s, h2 * c - h1 * s,
                                 g0, gp, g1 * c + g2 * s, g2 * c - g1 * s)
    if name == "iM1":
        ch, sh = math.cosh(p), math.sinh(p)
        return CoefficientVector(h0 * ch + h2 * sh, h1, h2 * ch + h0 * sh,
                                 g0, gp * ch + g2 * sh, g1, g2 * ch + gp * sh)
    if name == "iM2":
        ch, sh = math.cosh(p), math.sinh(p)
        return CoefficientVector(h0 * ch - h1 * sh, h1 * ch - h0 * sh, h2,
                                 g0, gp * ch - g1 * sh, g1 * ch - gp * sh, g2)
    if name == "O0":
        e = math.exp(p)
        return CoefficientVector(h0, h1, h2, g0, gp * e, g1 * e, g2 * e)
    # conserving steps commute with each other: maps exactly linear in p
    if name == "O+":
        return CoefficientVector(h0, h1, h2, g0,
                                 gp - p * g0, g1 + p * h2, g2 - p * h1)
    if name == "L1+":
        return CoefficientVector(h0, h1, h2, g0,
                                 gp + p * h2, g1 - p * g0, g2 + p * h0)
    if name == "L2+":
        return CoefficientVector(h0, h1, h2, g0,
                                 gp - p * h1, g1 - p * h0, g2 - p * g0)
    raise ValueError(f"no coefficient map for {name}")


def derivative_map(name, coeffs):
    """d/dp of coefficient_map at p = 0 (adjoint action of the step
    generator on the seven-coefficient space)."""
    h0, h1, h2, g0, gp, g1, g2 = CoefficientVector(*coeffs)
    table = {
        "iL0": (0, h2, -h1, 0, 0, g2, -g1),
        "iM1": (h2, 0, h0, 0, g2, 0, gp),
        "iM2": (-h1, -h0, 0, 0, -g1, -gp, 0),
        "O0": (0, 0, 0, 0, gp, g1, g2),
        "O+": (0, 0, 0, 0, -g0, h2, -h1),
        "L1+": (0, 0, 0, 0, h2, -g0, h0),
        "L2+": (0, 0, 0, 0, -h1, -h0, -g0),
    }
    return CoefficientVector(*table[name])


def apply_sequence(seq, coeffs):
    """Coefficients of S K S^{-1} for a whole sequence.

    The rightmost factor conjugates first, so this folds coefficient_map
    over the reversed step list.
    """
    c = CoefficientVector(*coeffs)
    for step in reversed(list(seq)):
        c = coefficient_map(step, c)
    return c


def superop_similarity(seq, K, n):
    """Dense S K S^{-1} for a TransformSequence seq.  The inverse is built
    from the inverse sequence (exact for exponentials), not by matrix
    inversion."""
    return seq.matrix(n) @ K @ seq.inverse().matrix(n)


def apply_sequence_to_vec(seq, v, n):
    """S v for a TransformSequence seq, the rightmost step acting first."""
    return seq.matrix(n) @ v


# ------------------------------------------------------------ state builder
def gibbs_from_vacuum(alpha, n):
    """Thermal state exp(alpha O0)|0><0|, trace-normalized, in closed form.

    The dilation carries the vacuum to the geometric state with
    b = e^alpha / 2: populations (1-q) q^k with
    q = (e^alpha - 1)/(e^alpha + 1), renormalized on the retained levels
    (fock.thermal_state, which warns when the discarded tail q^n is above
    1e-12).  A test checks it against exp(alpha O0) acting on the vacuum.
    """
    if alpha < 0:
        raise ValueError("dilation parameter must be >= 0")
    return thermal_state(math.exp(alpha) / 2, n)
